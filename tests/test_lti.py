"""Transfer-function stability, peak gains, and passivity indices."""

import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from pqikit import lti
from pqikit import (
    PassivityIndices,
    RationalTF,
    RealPolynomial,
    Transform2,
    eips_indices,
    is_stable,
    l2gain_to_input_index,
    lambda_search,
    linf_norm,
    loop_mu,
    passivize,
    tf_passivity_indices,
    transformed_tf,
)
from pqikit.errors import (
    DegenerateDegree,
    DegenerateTransformedTF,
    DegreeDrop,
    DestabilizingLambda,
    DimensionMismatch,
    ImproperTF,
    NoStabilizingLambda,
    NonFiniteValue,
    NonpositiveGain,
    SingularDenominator1p2lm,
    ToolkitError,
    TrivialPQI,
    UnstableDenominator,
)
from pqikit.systems import unstable_plant_tf

RAGGED = "cannot be read as floats: setting an array element with a sequence"
WORD = "cannot be read as floats: could not convert string to float: 'a'$"


class TestStability:
    def test_double_negative_pole(self):
        a = 2.0
        assert is_stable(RealPolynomial([0.25 * a * a, a, 1.0]))

    def test_one_positive_root(self):
        assert not is_stable(RealPolynomial([-2.0, 2.0, 1.0]))

    def test_first_order(self):
        assert is_stable(RealPolynomial([1.0, 1.0]))

    def test_constant_rejected(self):
        with pytest.raises(DegenerateDegree):
            is_stable(RealPolynomial([1.0]))

    def test_slow_lightly_damped_poles_are_stable(self):
        # poles -1e-9 +- 1e-6j: the margin is relative to each pole's size
        assert is_stable(RealPolynomial([1e-12, 2e-9, 1.0]))
        assert not is_stable(RealPolynomial([1e-12, -2e-9, 1.0]))

    def test_small_leading_coefficient_is_kept(self):
        assert RealPolynomial([1e16, 1e7, 1.0]).degree == 2
        assert RealPolynomial([1.0, 2.0, 0.0, 0.0]).coeffs == (1.0, 2.0)

    def test_constructor_is_the_only_path_and_checks_its_input(self):
        assert not hasattr(RealPolynomial, "make")
        assert RealPolynomial((0.0, 0.0)) == RealPolynomial((0.0,))
        assert RealPolynomial((1.0, 2.0, 0.0)).degree == 1
        with pytest.raises(NonFiniteValue,
                           match=r"^polynomial coefficients\[0\] = nan is not finite$"):
            RealPolynomial((math.nan,))
        with pytest.raises(DimensionMismatch, match=r"not of shape \(1, 2\)$"):
            RealPolynomial([[1.0, 2.0]])


class TestLinfNorm:
    def test_critically_damped_peaks_at_dc(self):
        G = RationalTF.make([0.75], [1.0, 2.0, 1.0])
        assert abs(linf_norm(G) - 0.75) <= 1e-6

    def test_first_order_lag(self):
        assert abs(linf_norm(RationalTF.make([1.0], [1.0, 1.0])) - 1.0) <= 1e-6

    def test_unstable_rejected(self):
        with pytest.raises(UnstableDenominator):
            linf_norm(unstable_plant_tf())

    def test_gain_past_float_range_is_inf(self):
        # 1/(s + 5e-324) peaks at 2e323 at dc
        assert linf_norm(RationalTF.make([1.0], [5e-324, 1.0])) == math.inf

    def test_fast_resonance_peak(self):
        # 1e16/(s^2 + 1e7 s + 1e16): omega_0 = 1e8, zeta = 0.05
        zeta = 0.05
        want = 1.0 / (2.0 * zeta * math.sqrt(1.0 - zeta * zeta))
        got = linf_norm(RationalTF.make([1e16], [1e16, 1e7, 1.0]))
        assert abs(got - want) <= 1e-12 * want

    @given(st.floats(0.1, 3.0), st.floats(0.05, 4.0), st.floats(0.1, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_second_order_closed_form_peak(self, k, a, c):
        # k/(s^2 + a s + c) peaks at resonance when a^2 < 2c, else at dc
        if a * a < 2.0 * c:
            want = k / (a * math.sqrt(c - 0.25 * a * a))
        else:
            want = k / c
        got = linf_norm(RationalTF.make([k], [c, a, 1.0]))
        assert abs(got - want) <= 1e-12 * want

    def test_two_resonances_match_sampled_gain(self):
        # poles at 1 and 3 rad/s, zeta = 0.1 and 0.05; the sampled maximum
        # is a lower bound that a 5e-5 rad/s grid meets to about 1e-7
        den = RealPolynomial([1.0, 0.2, 1.0]).coeffs
        den = np.polynomial.polynomial.polymul(den, [9.0, 0.3, 1.0])
        G = RationalTF.make([9.0, 1.0], den)
        sampled = float(np.max(np.abs(G(1j * np.linspace(0.0, 10.0, 200001)))))
        got = linf_norm(G)
        assert sampled * (1.0 - 1e-15) <= got <= sampled * (1.0 + 1e-6)

    @given(st.floats(0.5, 4.0), st.floats(0.1, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_double_pole_family_analytic_peak(self, a, gain):
        # gain/(s + a/2)^2 peaks at dc with value 4*gain/a^2
        G = RationalTF.make([gain], [0.25 * a * a, a, 1.0])
        want = 4.0 * gain / (a * a)
        assert abs(linf_norm(G) - want) <= 1e-6 * want


class TestEipsIndices:
    def test_reference_plant(self):
        G = unstable_plant_tf()
        assert abs(loop_mu(G, 4.0) - 1.0) <= 1e-6
        idx = eips_indices(G, 4.0)
        assert abs(idx.rho + 20.0 / 9.0) <= 1e-6
        assert abs(idx.nu + 1.0 / 9.0) <= 1e-6

    @given(st.floats(1.0, 3.0), st.floats(-1.5, 1.5), st.floats(0.25, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_second_order_family_closed_form_mu(self, a, b, s):
        # loop gain (a^2/4 - b)/s shifts the poles to a double root at -a/2
        lam = (0.25 * a * a - b) / s
        G = RationalTF.make([s], [b, a, 1.0])
        want = 4.0 * s / (a * a) + 0.25
        assert abs(loop_mu(G, lam) - want) <= 1e-6 * want

    def test_strictly_passive_lag_at_zero_shift(self):
        idx = eips_indices(RationalTF.make([1.0], [1.0, 1.0]), 0.0)
        assert abs(idx.nu + 1.25) <= 1e-6
        assert abs(idx.rho) <= 1e-12

    def test_destabilizing_shift_rejected(self):
        with pytest.raises(DestabilizingLambda):
            eips_indices(unstable_plant_tf(), 0.5)

    def test_degree_drop_rejected(self):
        G = RationalTF.make([0.0, 0.0, 1.0], [2.0, 2.0, 1.0])
        with pytest.raises(DegreeDrop):
            eips_indices(G, -1.0)

    def test_constant_plant(self):
        # the loop 2/(1 + 2*lam) is a constant gain
        G = RationalTF.make([2.0], [1.0])
        assert loop_mu(G, 0.0) == 2.25
        assert loop_mu(G, 3.0) == pytest.approx(2.0 / 7.0 + 0.25, rel=1e-15)
        with pytest.raises(DegreeDrop, match="vanishes"):
            loop_mu(G, -0.5)
        assert lambda_search(G, [-0.5, 0.0, 1.0]) == 1.0

    def test_destabilizing_shift_names_the_shift(self):
        with pytest.raises(DestabilizingLambda,
                           match=r"^q \+ 0\.5\*p is not a stable polynomial$"):
            loop_mu(unstable_plant_tf(), 0.5)

    @given(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(0.1, 2.0),
           st.floats(0.0, 2.0))
    @settings(max_examples=200, deadline=None)
    def test_index_product_below_quarter(self, p0, p1, gain, lam):
        # stable second-order plants: indices always define a usable pair
        den = RealPolynomial([p0 * p1, p0 + p1, 1.0])
        G = RationalTF.make([gain], den.coeffs)
        shifted = RealPolynomial(P.polyadd(den.coeffs, lam * np.asarray(G.num.coeffs)))
        if shifted.degree != den.degree or not is_stable(shifted):
            return
        idx = eips_indices(G, lam)  # constructor enforces rho*nu < 1/4
        assert idx.rho * idx.nu < 0.25


class TestLambdaSearch:
    def test_reference_plant_grid_minimizer(self):
        # mu decreases monotonically with the shift here, so the largest
        # admissible grid value wins
        assert lambda_search(unstable_plant_tf(), np.arange(11.0)) == 10.0

    def test_stable_plant_admits_zero(self):
        G = RationalTF.make([1.0], [1.0, 1.0])
        lam = lambda_search(G, [0.0])
        assert lam == 0.0

    def test_integrator_with_unit_shift(self):
        G = RationalTF.make([1.0], [0.0, 1.0])
        assert lambda_search(G, [1.0]) == 1.0

    def test_no_admissible_value(self):
        with pytest.raises(NoStabilizingLambda):
            lambda_search(unstable_plant_tf(), [0.0, 1.0])

    @pytest.mark.parametrize("grid, entry", [([math.nan], 0), ([math.inf], 0),
                                             ([-math.inf, 2.0], 0),
                                             ([2.0, math.nan], 1)])
    def test_non_finite_entry_named_before_any_root(self, grid, entry,
                                                    monkeypatch):
        G = unstable_plant_tf()

        def no_roots(*args, **kwargs):
            raise AssertionError("eigenvalue solve on a non-finite grid")

        monkeypatch.setattr(np.linalg, "eigvals", no_roots)
        with pytest.raises(NonFiniteValue, match=rf"^lambda grid\[{entry}\] = "):
            lambda_search(G, grid)

    def test_pole_beyond_float_range_screened(self):
        G = RationalTF.make([1.0], [1.0, 1e-308])
        grid = np.linspace(-5.0, 5.0, 11)
        np.testing.assert_array_equal(lti._grid_mu(G, grid),
                                      np.where(grid == 0.0, 1.25, np.inf))
        assert lambda_search(G, grid) == 0.0
        with pytest.raises(NonFiniteValue, match=r"\[2\.0, 1e-308\]"):
            loop_mu(G, 1.0)

    @pytest.mark.parametrize("call", [
        lambda: RationalTF.make([1.0, 1.0], [1.0, 1e-310]),
        lambda: linf_norm(RationalTF.make([1.0], [1.0, 1e-310])),
        lambda: lambda_search(RationalTF.make([1.0], [1.0, 1e-310]), [0.0, 1.0]),
    ], ids=["make", "linf_norm", "lambda_search"])
    def test_pole_beyond_float_range_is_a_toolkit_error(self, call):
        with pytest.raises(ToolkitError):
            call()

    def test_non_finite_shift_rejected(self):
        with pytest.raises(NonFiniteValue):
            loop_mu(unstable_plant_tf(), math.nan)

    def test_peak_gain_past_float_range_is_named(self):
        # the peak gain 1e300/1e-10 at omega = 0 is past the float range
        G = RationalTF.make([1e300], [1e-10, 1.0])
        for call in (loop_mu, eips_indices):
            with pytest.raises(NonFiniteValue, match=r"^mu = inf at lambda = 0.0: "):
                call(G, 0.0)

    def test_trivial_indices_name_the_loop_gain(self):
        # 1 - 4*rho*nu = 1/(1 + 2*lam*mu)^2 is below 1e-12 of rho^2 at this lam
        with pytest.raises(TrivialPQI, match=r"^lambda = 1000000.0, mu = "):
            eips_indices(RationalTF.make([0.75], [-2.0, 2.0, 1.0]), 1e6)


@st.composite
def plants_and_grids(draw):
    """A plant of order 1-4 and a lambda grid.

    Half of the plants have real stable poles and half are time-scaled.

    Grids are unsorted, carry duplicates, and for equal num/den degree may
    hold lambda = -q_n/p_n, where q + lambda*p drops degree exactly.  A
    constant numerator may come with a top q_n near the float minimum, so
    that a root of q + lambda*p lies beyond float range for the larger
    |q_0 + lambda*p_0|.
    """
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, n))
    coef, lead = st.floats(-3.0, 3.0), st.floats(0.2, 3.0)
    den = draw(st.lists(coef, min_size=n, max_size=n)) + [
        draw(lead) * draw(st.sampled_from([-1.0, 1.0]))]
    stable = draw(st.booleans())
    if stable:  # real stable poles: small shifts stay admissible
        poles = draw(st.lists(st.floats(-3.0, -0.1), min_size=n, max_size=n))
        den = list(np.polynomial.polynomial.polyfromroots(poles) * abs(den[-1]))
    num = draw(st.lists(coef, min_size=m, max_size=m)) + [
        draw(lead) * draw(st.sampled_from([-1.0, 1.0]))]
    if draw(st.booleans()):
        alpha = 10.0 ** draw(st.floats(-8.0, 8.0))
        den = [c * alpha ** k for k, c in enumerate(den)]
        num = [c * alpha ** k for k, c in enumerate(num)]
    if m == 0 and draw(st.booleans()):
        den[-1] = draw(st.sampled_from([1e-310, 1e-308, -1e-308]))
    grid = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=12))
    grid += [0.0] * stable
    if m == n and draw(st.booleans()):
        drop = draw(lead) * draw(st.sampled_from([-1.0, 1.0]))
        den[-1] = -(drop * num[-1])
        grid.append(drop)
    grid += draw(st.lists(st.sampled_from(grid), max_size=4))
    grid = draw(st.permutations(grid))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return RationalTF.make(num, den), np.asarray(grid)


class TestLambdaSearchOracle:
    @given(plants_and_grids())
    @settings(max_examples=200, deadline=None)
    def test_first_minimizer_of_loop_mu(self, case):
        G, grid = case
        batch = lti._grid_mu(G, grid)
        best_lam, best_mu = None, math.inf
        for lam, row_mu in zip(grid, batch):
            try:
                mu = loop_mu(G, float(lam))
            except (DegreeDrop, DestabilizingLambda, NonFiniteValue):
                assert row_mu == math.inf
                continue
            assert mu == row_mu  # the batch scores each row as loop_mu alone
            if mu < best_mu:
                best_lam, best_mu = float(lam), mu
        if best_lam is None:
            with pytest.raises(NoStabilizingLambda):
                lambda_search(G, grid)
        else:
            assert lambda_search(G, grid) == best_lam


class TestL2GainBound:
    def test_unit_gain(self):
        assert l2gain_to_input_index(1.0) == -1.25

    def test_three_quarters(self):
        assert l2gain_to_input_index(0.75) == -0.8125

    def test_small_gain_limit(self):
        assert abs(l2gain_to_input_index(1e-9) + 0.25) <= 1e-12

    def test_nonpositive_rejected(self):
        with pytest.raises(NonpositiveGain):
            l2gain_to_input_index(0.0)


def _zero_or_unit_size(bound):
    """Floats in [-bound, bound] that are 0 or at least 1e-3 in magnitude: a
    root or a transform entry far below the others' scale puts a root of
    the transformed plant out of float range or into the subnormals."""
    return st.floats(-bound, bound).filter(lambda x: x == 0.0 or abs(x) >= 1e-3)


@st.composite
def separated_plants(draw):
    """A made plant k·Π(s - z)/Π(s - r) of order 1-4 whose roots, zeros and
    poles together, lie more than 1e-4 of the largest one's magnitude apart.

    Real parts lie in [-3, 3], and half of the root sets of two or more hold
    one complex pair, as in stable_plants.
    """

    def roots(count):
        r = [complex(x) for x in draw(st.lists(_zero_or_unit_size(3.0),
                                               min_size=count, max_size=count))]
        if count >= 2 and draw(st.booleans()):
            im = draw(st.floats(0.1, 3.0))
            r[:2] = [complex(r[0].real, im), complex(r[0].real, -im)]
        return r

    n = draw(st.integers(1, 4))
    zeros, poles = roots(draw(st.integers(0, n))), roots(n)
    every = zeros + poles
    size = max(abs(z) for z in every)
    assume(all(abs(x - y) > 1e-4 * size for i, x in enumerate(every) for y in every[:i]))
    k = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from([1.0, -1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return RationalTF.make(P.polyfromroots(zeros).real * k,
                               P.polyfromroots(poles).real)


class TestTransformedTF:
    def test_unit_numerator_variant(self):
        G = RationalTF.make([1.0], [-2.0, 2.0, 1.0])
        Gt = transformed_tf(G, Transform2(1.0, 4.0, 1.0, 5.0))
        np.testing.assert_allclose(Gt.num.coeffs, (3.0, 2.0, 1.0), atol=1e-12)
        np.testing.assert_allclose(Gt.den.coeffs, (2.0, 2.0, 1.0), atol=1e-12)

    def test_reference_numerator_variant(self):
        Gt = transformed_tf(unstable_plant_tf(), Transform2(1.0, 4.0, 1.0, 5.0))
        np.testing.assert_allclose(Gt.num.coeffs, (1.75, 2.0, 1.0), atol=1e-12)
        np.testing.assert_allclose(Gt.den.coeffs, (1.0, 2.0, 1.0), atol=1e-12)

    def test_identity_is_noop(self):
        G = unstable_plant_tf()
        Gt = transformed_tf(G, Transform2.identity())
        assert Gt.num.coeffs == G.num.coeffs
        assert Gt.den.coeffs == G.den.coeffs

    def test_degree_never_grows(self):
        G = unstable_plant_tf()
        Gt = transformed_tf(G, Transform2(1.0, 4.0, 1.0, 5.0))
        assert max(Gt.num.degree, Gt.den.degree) <= max(G.num.degree,
                                                        G.den.degree)

    @given(separated_plants(), st.lists(_zero_or_unit_size(2.0), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_made_plant_has_nothing_to_cancel(self, G, entries):
        # (c q + d p)/(a q + b p) share a root only where p and q do, so the
        # exact transform is what make of the two combinations returns
        sv = np.linalg.svd(np.reshape(entries, (2, 2)), compute_uv=False)
        assume(sv[1] > 0.1 * sv[0])  # condition number below 10
        T = Transform2(*entries)
        q, p = np.asarray(G.den.coeffs), lti._padded_num(G)
        top = T.a * q[-1] + T.b * p[-1]
        assume(abs(top) > 0.1 * (abs(T.a * q[-1]) + abs(T.b * p[-1])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert transformed_tf(G, T) == RationalTF.make(T.c * q + T.d * p,
                                                           T.a * q + T.b * p)

    def test_stable_common_factor_keeps_gain_and_indices(self):
        # 0.75(s + 2)/((s + 2)(s^2 + 2s - 2)) built directly keeps its factor
        # through the transform, and |s + 2|^2 divides out of every ratio on
        # the axis
        num, den = [1.5, 0.75], P.polymul([2.0, 1.0], [-2.0, 2.0, 1.0])
        with pytest.warns(UserWarning, match="cancelling near-common"):
            made = RationalTF.make(num, den)
        T = Transform2(1.0, 4.0, 1.0, 5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kept = transformed_tf(RationalTF(num, den), T)
        assert kept.den.degree == 3
        want, got = (tf_passivity_indices(transformed_tf(made, T)),
                     tf_passivity_indices(kept))
        np.testing.assert_allclose([got.rho, got.nu, linf_norm(kept)],
                                   [want.rho, want.nu,
                                    linf_norm(transformed_tf(made, T))],
                                   rtol=1e-12, atol=0.0)


class TestTFPassivityIndices:
    def test_transformed_reference_plant(self):
        G = RationalTF.make([3.0, 2.0, 1.0], [2.0, 2.0, 1.0])
        idx = tf_passivity_indices(G)
        assert abs(idx.nu - 0.9) <= 0.02
        assert abs(idx.rho - 2.0 / 3.0) <= 0.02

    def test_first_order_lag(self):
        idx = tf_passivity_indices(RationalTF.make([1.0], [1.0, 1.0]))
        assert abs(idx.nu) <= 1e-9
        assert abs(idx.rho - 1.0) <= 1e-6

    def test_constant_gain(self):
        idx = tf_passivity_indices(RationalTF.make([2.0], [1.0]))
        assert abs(idx.nu - 2.0) <= 1e-9
        assert abs(idx.rho - 0.5) <= 1e-9

    def test_relative_degree_two_has_unbounded_output_index(self):
        # Re 1/G(j omega) = 1 - omega^2; Re G is smallest at omega^2 = 2
        idx = tf_passivity_indices(RationalTF.make([1.0], [1.0, 1.0, 1.0]))
        assert idx.rho == -math.inf
        assert abs(idx.nu + 1.0 / 3.0) <= 1e-12

    def test_zero_at_dc(self):
        # s/(s+1): Re G = omega^2/(1 + omega^2), Re 1/G = 1 for omega > 0
        idx = tf_passivity_indices(RationalTF.make([0.0, 1.0], [1.0, 1.0]))
        assert (idx.rho, idx.nu) == (1.0, 0.0)

    def test_cancelled_limit_does_not_certify_output_strictness(self):
        # (s + 2c)/(s + c)^2: Re 1/G = 2c^3/(x + 4c^2) falls to 0 as x grows,
        # its x terms cancelling exactly, so rho = 0, not their rounding
        for c in np.random.default_rng(0).uniform(0.05, 5.0, 1000):
            G = RationalTF.make([2.0 * c, 1.0], [c * c, 2.0 * c, 1.0])
            assert tf_passivity_indices(G).rho == 0.0, c

    def test_zero_transfer_function(self):
        # y = 0 satisfies every output-index inequality
        idx = tf_passivity_indices(RationalTF.make([0.0], [1.0, 1.0]))
        assert (idx.rho, idx.nu) == (math.inf, 0.0)

    @pytest.mark.parametrize("alpha", [1e-4, 0.3, 1.0, 7.0, 1e4])
    def test_imaginary_axis_zero_has_unbounded_output_index(self, alpha):
        # G(alpha s) with G = (s^2 + 1)/(s^2 + s + 2): with x = omega^2,
        # Re 1/G = (2 - x)/(1 - x) has a pole at x = 1, so rho = -inf, and
        # Re G = 1 - 2/(x^2 - 3x + 4) is smallest at x = 3/2: nu = -1/7
        G = RationalTF.make([1.0, 0.0, alpha * alpha],
                            [2.0, alpha, alpha * alpha])
        idx = tf_passivity_indices(G)
        assert idx.rho == -math.inf
        assert abs(idx.nu + 1.0 / 7.0) <= 1e-12

    # k(s^2 + w^2)^m/(s + 1)^2m: the eigenvalue solve splits the m-fold
    # zero j w into a cluster about eps^(1/m) wide.  With x = omega^2,
    # Re 1/G = Re((1 + j omega)^2m)/(k (w^2 - x)^m), reduced beside each case.
    @pytest.mark.parametrize("w, m, k, rho", [
        (1.0, 2, 1.0, -math.inf),  # -4/(1 - x)^2
        (2.0, 2, 1.0, -math.inf),  # -7/(4 - x)^2
        (1.0, 2, -1.0, -1.0),      # -1 + 4x/(1 - x)^2, bounded below
        (1.0, 1, 1.0, 1.0),        # (1 - x)/(1 - x)
        (1.0, 3, 1.0, -math.inf),  # (1 - 14x + x^2)/(1 - x)^2
    ])
    @pytest.mark.parametrize("alpha", [1e-4, 1.0, 1e4])
    def test_repeated_imaginary_axis_zero(self, w, m, k, rho, alpha):
        num = k * P.polypow([w * w, 0.0, 1.0], m)
        den = P.polypow([1.0, 1.0], 2 * m)
        G = RationalTF.make(*([c * alpha**i for i, c in enumerate(c)]
                              for c in (num, den)))
        got = tf_passivity_indices(G).rho
        assert got == rho or abs(got - rho) <= 1e-12 * abs(rho), got

    @pytest.mark.parametrize("sep", [1e-2, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    @pytest.mark.parametrize("k", [1.0, -1.0])
    def test_close_imaginary_axis_zeros_stay_apart(self, sep, k):
        # simple zeros at j and j(1 + sep), each with a residue of 1/G that
        # is not real.  Down to 1e-7 their roots spread too wide for one
        # double zero; at 1e-8 they pass for one, and for k = -1 its verdict
        # is bounded, but each root alone still says -inf
        num = k * P.polymul([1.0, 0.0, 1.0], [(1.0 + sep) ** 2, 0.0, 1.0])
        G = RationalTF.make(num, P.polypow([1.0, 1.0], 4))
        assert tf_passivity_indices(G).rho == -math.inf

    def test_lightly_damped_zero_is_off_the_axis(self):
        # zeros at -1e-5 ± j, 1e-5 (relative) off the axis: with x = omega^2,
        # Re 1/G = ((2 - x)(1 - x) + 2e-5 x)/((1 - x)^2 + 4e-10 x) is bounded,
        # smallest near x = 1 + 4.8e-5, at about -0.1036/1e-5
        G = RationalTF.make([1.0, 2e-5, 1.0], [2.0, 1.0, 1.0])
        omega = np.sqrt(np.linspace(1.0 - 1e-4, 1.0 + 1e-4, 200001))
        sampled = float(np.min((1.0 / G(1j * omega)).real))
        rho = tf_passivity_indices(G).rho
        assert rho <= sampled and abs(rho - sampled) <= 1e-9 * abs(sampled)
        assert abs(rho + 0.1036e5) <= 10.0
        # squared, the two roots near j share a cluster whose mean is off
        # the axis, and each root alone is off it too
        G = RationalTF.make(P.polypow([1.0, 2e-5, 1.0], 2), P.polypow([2.0, 1.0, 1.0], 2))
        assert math.isfinite(tf_passivity_indices(G).rho)


@st.composite
def time_scaled_stable_plants(draw):
    """A stable plant of order 1-4, half of them time-scaled (s -> alpha s)."""
    G = draw(stable_plants())
    if draw(st.booleans()):
        alpha = 10.0 ** draw(st.floats(-8.0, 8.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            G = RationalTF.make(*([c * alpha**i for i, c in enumerate(poly.coeffs)]
                                  for poly in (G.num, G.den)))
    return G


class TestStackedIndicesOracle:
    @given(time_scaled_stable_plants())
    @settings(max_examples=200, deadline=None)
    def test_equals_two_one_row_solves(self, G):
        # the stacked rows [p; q] over [q; p], p padded to q's width, give
        # each index bit for bit as its own unpadded one-row problem
        p, q, e = lti._unit_frequency(np.asarray(G.num.coeffs)[None],
                                      np.asarray(G.den.coeffs)[None])
        nu = np.ldexp(lti._axis_extremum(p, q, q, maximize=False), e)[0]
        rho = (-math.inf if lti._re_ratio_unbounded(q[0], p[0])
               else np.ldexp(lti._axis_extremum(q, p, p, maximize=False), -e)[0])
        got = tf_passivity_indices(G)
        assert (got.rho, got.nu) == (rho, nu)


def _same_bits(got, want) -> bool:
    """Equal dtype, shape and bytes, so that -0.0 and nan count."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


# Each kernel below was trimmed of numpy calls; the expression it replaced
# stays here as its reference and must give the same bits.

def _companion_eigvals(c):
    n = c.shape[1] - 1
    A = np.zeros((len(c), n, n))
    A[:, 1:, :-1] = np.eye(n - 1)
    A[:, :, -1] = -c[:, :-1] / c[:, -1:]
    return np.linalg.eigvals(A)


def _polyval_tensor(c, s):
    return P.polyval(s.T, c.T, tensor=False).T


def _real_product_sign_power(u, w):
    sign = (-1.0) ** (np.arange(max(u.shape[1], w.shape[1])) // 2)
    su, sw = u * sign[:u.shape[1]], w * sign[:w.shape[1]]
    out = np.zeros((max(len(u), len(w)), (u.shape[1] + w.shape[1]) // 2))
    even = lti._polymul(su[:, ::2], sw[:, ::2])
    out[:, :even.shape[1]] = even
    if u.shape[1] > 1 and w.shape[1] > 1:
        odd = lti._polymul(su[:, 1::2], sw[:, 1::2])
        out[:, 1:1 + odd.shape[1]] += odd
    return out


def _real_roots_per_length(c):
    ls = lti._lengths(c)
    x = np.full((len(c), max(c.shape[1] - 1, 0)), np.nan)
    for n in sorted(set(ls[ls > 1].tolist())):
        rows = np.flatnonzero(ls == n)
        x[rows, :n - 1] = lti._roots(c[rows, :n]).real
    return x


def _polymul_accumulated(x, y):
    out = np.zeros((max(len(x), len(y)), x.shape[1] + y.shape[1] - 1))
    for k in range(x.shape[1]):
        out[:, k:k + y.shape[1]] += x[:, k:k + 1] * y
    return out


# magnitudes 1e-30 to 1e30, so that the root of a degree-1 row lies where
# LAPACK solves a 1x1 matrix without rescaling it
_MAGNITUDES = st.floats(1e-30, 1e30)
_NONZERO = _MAGNITUDES | _MAGNITUDES.map(lambda m: -m)
_COEFFICIENTS = st.just(0.0) | st.just(-0.0) | _NONZERO


@st.composite
def coefficient_rows(draw, count=None, min_width=1, max_width=6, top=False):
    """Rows of one width: no rows at all, zero rows, degree-1 rows and mixed
    trimmed lengths included; with ``top`` every row's last entry is nonzero."""
    count = draw(st.integers(0, 4)) if count is None else count
    width = draw(st.integers(min_width, max_width))
    rows = []
    for _ in range(count):
        length = width if top else draw(st.integers(0, width))
        row = draw(st.lists(_COEFFICIENTS, min_size=length, max_size=length))
        if length:
            row[-1] = draw(_NONZERO)
        rows.append(row + [0.0] * (width - length))
    return np.array(rows, dtype=float).reshape(count, width)


@st.composite
def row_pairs(draw, max_width=6):
    """Two coefficient arrays of one row count, of any widths."""
    count = draw(st.integers(0, 4))
    return tuple(draw(coefficient_rows(count, max_width=max_width)) for _ in range(2))


class TestKernelReferences:
    @given(coefficient_rows(min_width=2, top=True))
    @example(np.array([[2.0, -0.5], [0.0, 3.0], [-0.0, -1.0]]))
    @example(np.zeros((0, 2)))
    @example(np.zeros((0, 4)))
    @settings(max_examples=200, deadline=None)
    def test_roots_match_the_companion_solve(self, c):
        assert _same_bits(lti._roots(c), _companion_eigvals(c))

    def test_degree_one_root_is_the_rounded_ratio(self):
        # beyond about 1e±138 LAPACK rescales the 1x1 matrix and rounds the
        # root it returns; the column is -c_0/c_1 rounded once
        c = np.array([[1e-200, 3.0], [7e150, -0.3]])
        assert _same_bits(lti._roots(c), -c[:, :1] / c[:, 1:])

    @given(coefficient_rows(count=3), st.lists(st.complex_numbers(max_magnitude=1e3),
                                               min_size=6, max_size=6))
    @example(np.zeros((0, 3)), [0j] * 6)
    @settings(max_examples=200, deadline=None)
    def test_polyval_rows_match_polyval(self, c, points):
        s = np.array(points).reshape(2, 3).T[:len(c)]
        assert _same_bits(lti._polyval_rows(c, s), _polyval_tensor(c, s))

    @given(row_pairs(), st.booleans())
    # as wide as the sign table, and wider
    @example((np.arange(1.0, 65.0)[None], np.arange(1.0, 65.0)[None]), False)
    @example((np.ones((1, 66)), np.ones((1, 3))), False)
    @settings(max_examples=200, deadline=None)
    def test_real_product_matches_the_sign_power(self, rows, square):
        u, w = (rows[0], rows[0]) if square else rows
        assert _same_bits(lti._real_product(u, w), _real_product_sign_power(u, w))

    @given(coefficient_rows())
    # _grid_mu with no admissible lambda: no slope rows, each of width 2
    @example(np.zeros((0, 2)))
    @example(np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [1.0, -1.0, 1.0]]))
    @settings(max_examples=200, deadline=None)
    def test_real_roots_match_the_per_length_loop(self, c):
        assert _same_bits(lti._real_roots(c), _real_roots_per_length(c))

    @given(row_pairs(max_width=4))
    @settings(max_examples=200, deadline=None)
    def test_polymul_matches_the_accumulating_loop(self, rows):
        x, y = rows
        assert _same_bits(lti._polymul(x, y), _polymul_accumulated(x, y))

    @given(st.lists(_COEFFICIENTS, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_make_trims_as_flatnonzero(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        nz = np.flatnonzero(c)
        want = tuple(c[:nz[-1] + 1].tolist()) if nz.size else (0.0,)
        assert repr(RealPolynomial(coeffs).coeffs) == repr(want)


class TestWorkCounts:
    @pytest.mark.parametrize("alpha", [1.0, 1e4])
    def test_design_pipeline_calls(self, monkeypatch, alpha):
        # a design job: lambda search, mu and indices at the chosen lambda,
        # the passivizing transform and the transformed plant's indices
        G = _time_scaled(1.3, 0.7, 2.0, alpha)
        counts = {"eigvals": 0, "extremum": 0}

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "eigvals", counted("eigvals", np.linalg.eigvals))
        monkeypatch.setattr(lti, "_axis_extremum",
                            counted("extremum", lti._axis_extremum))
        lam = lambda_search(G, np.arange(11.0))
        loop_mu(G, lam)
        T = passivize(eips_indices(G, lam), PassivityIndices(0.0, 0.0))
        strict = tf_passivity_indices(transformed_tf(G, T))
        assert strict.rho >= 0.0 and strict.nu >= 0.0
        # lambda_search: the screen (the peak's slope is of degree 1, and a
        # degree-1 row needs no solve); loop_mu twice: stability (the peak
        # again needs none); tf_passivity_indices: stability, axis zeros and
        # both indices; transformed_tf solves nothing
        assert counts == {"eigvals": 6, "extremum": 4}


def _pipeline(G):
    """lambda, mu, indices, strict indices and stabilized-loop peak of G."""
    lam = lambda_search(G, np.arange(11.0))
    idx = eips_indices(G, lam)
    T = passivize(idx, PassivityIndices(0.0, 0.0))
    strict = tf_passivity_indices(transformed_tf(G, T))
    shifted = P.polyadd(G.den.coeffs, lam * np.asarray(G.num.coeffs))
    peak = linf_norm(RationalTF.make(G.num, shifted))
    return lam, loop_mu(G, lam), idx.rho, idx.nu, strict.rho, strict.nu, peak


def _time_scaled(k, a, b, alpha):
    """k/(s^2 + a s + b) with s replaced by alpha*s."""
    return RationalTF.make([k], [b, a * alpha, alpha * alpha])


class TestTimeScaleInvariance:
    @given(st.floats(0.2, 3.0), st.floats(0.3, 3.0), st.floats(-1.5, 1.5),
           st.floats(-8.0, 8.0))
    @settings(max_examples=100, deadline=None)
    def test_pipeline_unchanged_by_time_scaling(self, k, a, b, log_alpha):
        want = _pipeline(_time_scaled(k, a, b, 1.0))
        got = _pipeline(_time_scaled(k, a, b, 10.0 ** log_alpha))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("alpha", [1e-8, 1.0, 1e8])
    def test_extreme_scales_match_unit_scale(self, alpha):
        # the plant 1/(s^2 + 0.5 s + 1) at lambda = 0, as in analyze-lti
        G = _time_scaled(1.0, 0.5, 1.0, alpha)
        T = passivize(eips_indices(G, 0.0), PassivityIndices(0.0, 0.0))
        Gt = transformed_tf(G, T)
        assert Gt.den.degree == 2
        strict = tf_passivity_indices(Gt)
        assert abs(loop_mu(G, 0.0) - 2.3155911179772892) <= 1e-12
        assert abs(strict.rho - 0.5437835587824665) <= 1e-12
        assert abs(strict.nu - 0.6545158625850946) <= 1e-12


@st.composite
def stable_plants(draw):
    """A stable plant of order 1-4, near-common roots cancelled.

    Poles and zeros have real parts of size 0.1 to 3, the poles' negative,
    and half of the pole and zero sets of two or more hold one complex
    pair.  Zeros near the imaginary axis are left out, since they make ρ
    ill-conditioned: 1e-10 + s² - s³ has zeros 5e-11 off the axis and
    ρ = -5e14, which the rounding of k·num alone moves by 4.6e-10 relative
    at k = 10.
    """

    def coefficients(count, signs):
        re = draw(st.lists(st.floats(0.1, 3.0), min_size=count, max_size=count))
        roots = [r * draw(st.sampled_from(signs)) for r in re]
        if count >= 2 and draw(st.booleans()):
            im = draw(st.floats(0.1, 3.0))
            roots[:2] = [complex(roots[0], im), complex(roots[0], -im)]
        scale = draw(st.floats(0.2, 3.0)) * draw(st.sampled_from([1.0, -1.0]))
        return list(np.polynomial.polynomial.polyfromroots(roots).real * scale)

    n = draw(st.integers(1, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return RationalTF.make(coefficients(draw(st.integers(0, n)), [-1.0, 1.0]),
                               coefficients(n, [-1.0]))


class TestGainScaleInvariance:
    # squared gains of 1e±200 leave float range; the extrema must not
    @pytest.mark.parametrize("k", [1e-200, 1e200])
    def test_peak_gain_equals_the_gain(self, k):
        assert linf_norm(RationalTF.make([k], [1.0, 1.0])) == k
        assert linf_norm(RationalTF.make([k], [1.0, 2.0, 1.0])) == k

    @pytest.mark.parametrize("k", [1e-200, 1e200])
    def test_indices_scale_with_the_gain(self, k):
        # Re k(s+2)/(s+1) falls from 2k to k, Re of its inverse rises from
        # 1/(2k) to 1/k
        strict = tf_passivity_indices(RationalTF.make([2.0 * k, k], [1.0, 1.0]))
        assert (strict.rho, strict.nu) == (0.5 / k, k)

    @given(stable_plants(), st.floats(-8.0, 8.0))
    # Re 1/G = 0.002/(ω² + 0.04): the rounding residue of its cancelled ω²
    # terms once read as ρ > 0
    @example(RationalTF.make([0.2, 1.0], [0.01, 0.2, 1.0]), 1.0)
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:cancelling near-common")
    def test_peak_gain_and_indices_follow_the_gain(self, G, log_k):
        # kG has peak k·|G|∞ and indices (ρ/k, k·ν); a -inf ρ stays -inf
        k = 10.0 ** log_k
        kG = RationalTF.make([k * c for c in G.num.coeffs], G.den.coeffs)
        strict, scaled = tf_passivity_indices(G), tf_passivity_indices(kG)
        for got, want in ((linf_norm(kG), k * linf_norm(G)),
                          (scaled.rho, strict.rho / k), (scaled.nu, k * strict.nu)):
            assert got == want or abs(got - want) <= 1e-12 * abs(want), (got, want)


EPS = np.finfo(float).eps


def _powers_of_two(draw, zero=False):
    """±2^U(-8, 8), or 0 when ``zero`` and the draw says so."""
    if zero and draw(st.booleans()):
        return 0.0
    return draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** draw(st.floats(-8.0, 8.0))


@st.composite
def first_order_plants(draw):
    """(a, d, n0, j): G = d + k/(s + a) = (d·s + n0)/(s + a), time-scaled by 2^j.

    a = 2^U(-8, 8), d is 0 or ±2^U(-8, 8) and k = cb is ±2^U(-8, 8), or
    -da + 2^-30·k, which puts a zero of G next to its pole.  The plant
    is built from n0 = fl(da + k), so its own k is n0 - da, exactly, and a
    closed form in Fractions carries no rounding of the test's.
    """
    a = 2.0 ** draw(st.floats(-8.0, 8.0))
    d, k = _powers_of_two(draw, zero=True), _powers_of_two(draw)
    if draw(st.booleans()):
        k = -d * a + 2.0 ** -30 * k
    n0 = d * a + k
    assume(n0 != 0.0)  # G(0) = 0: Re 1/G is then 1/d, off the closed form
    return a, d, n0, draw(st.integers(-20, 20))


def _first_order(a, d, n0, j):
    """G(2^j s) for G = (d·s + n0)/(s + a); the scaling is exact."""
    return RationalTF([n0, d * 2.0 ** j], [a, 2.0 ** j])


class TestFirstOrderClosedForms:
    """G = d + k/(s + a), k = cb, against its closed forms (ROADMAP item 29).

    Re G(jω) = (n0·a + dω²)/(a² + ω²) and Re 1/G(jω) = (n0·a + dω²)/(n0² +
    d²ω²), and |G(jω)|² likewise, are ratios of two linear functions of ω²,
    so each extremum is an end value, at ω = 0 or ω → ∞.  The library reads
    each end off the exact coefficients a, 1, n0, d, scaled by the pole
    magnitude a (one rounding, in d·a) and by powers of two: one quotient of
    products and squares, at most four roundings of eps/2, and a square
    root that halves them.  Hence 2 eps relative, and the tests allow 4 eps.
    A time scaling s -> 2^j s scales the coefficients exactly and leaves
    every value bit for bit as it was.
    """

    @given(first_order_plants())
    @settings(max_examples=300, deadline=None)
    def test_peak_gain_and_strict_indices(self, plant):
        a, d, n0, j = plant
        G, scaled = _first_order(a, d, n0, 0), _first_order(a, d, n0, j)
        A, D = Fraction(a), Fraction(d)
        k = Fraction(n0) - D * A
        G0 = D + k / A
        strict = tf_passivity_indices(G)
        for got, want in ((linf_norm(G), max(abs(G0), abs(D))),
                          (strict.nu, min(D, G0)),
                          (strict.rho, min(A / (D * A + k), 1 / D) if d else A / k)):
            assert abs(Fraction(got) - want) <= 4 * EPS * abs(want), (got, float(want))
        assert linf_norm(scaled) == linf_norm(G)
        assert tf_passivity_indices(scaled) == strict

    @given(first_order_plants(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_loop_mu(self, plant, data):
        # q + λp = (a + λ·n0) + (1 + λd)s, stable and of degree 1 when its
        # two coefficients share a sign; the loop G/(1 + λG) then peaks at
        # an end, |G0/(1 + λG0)| or |d/(1 + λd)|.  Forming a coefficient
        # c = x + λy rounds it by eps·κ relative, κ = (|x| + |λy|)/|c|,
        # so each end is within eps·κ + 2 eps, and 4 eps·κ allows both and
        # the rounding of + 1/4.  A κ past 2^40 could flip the verdict.
        a, d, n0, j = plant
        lam = _powers_of_two(data.draw, zero=True)
        if data.draw(st.booleans()):  # next to the stability boundary
            lam = -a / n0 * (1.0 + 2.0 ** -20 * _powers_of_two(data.draw))
        A, D, L = Fraction(a), Fraction(d), Fraction(lam)
        G0 = Fraction(n0) / A
        c0, c1 = A + L * Fraction(n0), 1 + L * D
        assume(c0 * c1 > 0)
        k0, k1 = (A + abs(L * Fraction(n0))) / abs(c0), (1 + abs(L * D)) / abs(c1)
        assume(max(k0, k1) <= 2 ** 40)
        peak = max(abs(G0 / (1 + L * G0)), abs(D / (1 + L * D)))
        mu = loop_mu(_first_order(a, d, n0, 0), lam)
        assert (abs(Fraction(mu) - peak - Fraction(1, 4))
                <= 4 * EPS * ((k0 + k1) * peak + Fraction(1, 4))), (mu, float(peak))
        assert loop_mu(_first_order(a, d, n0, j), lam) == mu


class TestCrossModuleConsistency:
    def test_index_pipeline_reaches_strict_passivity(self):
        G = unstable_plant_tf()
        T = passivize(eips_indices(G, 4.0), PassivityIndices(0.0, 0.0))
        np.testing.assert_allclose(T.matrix(), [[1.0, 4.0], [1.0, 5.0]],
                                   atol=1e-12)
        strict = tf_passivity_indices(transformed_tf(G, T))
        assert strict.nu > 0.0 and strict.rho > 0.0


class TestSerialization:
    def test_json_dict_lists_the_coefficients(self):
        # the form the CLI writes: ascending coefficients, plain JSON numbers
        d = json.loads(json.dumps(unstable_plant_tf().to_json_dict()))
        assert d == {"num": [0.75], "den": [-2.0, 2.0, 1.0]}

    def test_improper_rejected(self):
        with pytest.raises(ValueError):
            RationalTF.make([0.0, 0.0, 1.0], [1.0, 1.0])

    @pytest.mark.parametrize("num, den, named", [
        ([1.0], [1.0, math.nan], r"coefficients\[1\] = nan "),
        ([math.inf, 1.0], [1.0, 1.0], r"coefficients\[0\] = inf ")])
    def test_non_finite_coefficient_named(self, num, den, named):
        with pytest.raises(NonFiniteValue, match=named):
            RationalTF.make(num, den)

    @pytest.mark.parametrize("num, den, shape", [
        ([[1.0, 2.0]], [1.0, 1.0], "(1, 2)"),
        ([1.0], [[1.0], [1.0]], "(2, 1)"),
        ([1.0], np.ones((1, 1, 2)), "(1, 1, 2)")])
    def test_coefficients_not_1d_named(self, num, den, shape):
        with pytest.raises(DimensionMismatch) as err:
            RationalTF.make(num, den)
        assert str(err.value) == f"polynomial coefficients must be 1-D, not of shape {shape}"

    @pytest.mark.parametrize("num, den, named", [
        ([1.0, 5e-324], [-2.0, 2.0, 1.0], r"^numerator polynomial \[1\.0, 5e-324\] "),
        ([1.0, 1.0], [1.0, 1e-310], r"^denominator polynomial \[1\.0, 1e-310\] "),
        ([1.0, 1e-310], [1.0, 1e-310], r"^numerator ")])
    def test_root_beyond_float_range_names_its_polynomial(self, num, den, named):
        with pytest.raises(NonFiniteValue, match=named):
            RationalTF.make(num, den)

    @given(st.lists(_COEFFICIENTS, min_size=1, max_size=4),
           st.lists(_COEFFICIENTS, min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_direct_build_equals_make_when_nothing_cancels(self, num, den):
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", UserWarning)
                made = RationalTF.make(num, den)
        except ToolkitError as exc:  # make's ImproperTF is the constructor's
            if isinstance(exc, ImproperTF):
                with pytest.raises(ImproperTF, match=f"^{re.escape(str(exc))}$"):
                    RationalTF(num, den)
            return
        if not caught:
            assert RationalTF(num, den) == made

    def test_common_root_cancelled_with_warning(self):
        with pytest.warns(UserWarning):
            G = RationalTF.make([1.0, 1.0], [1.0, 2.0, 1.0])  # (s+1)/(s+1)^2
        assert G.num.degree == 0
        assert G.den.degree == 1

    def test_making_a_made_plant_returns_it(self):
        # G·(s + 3.6)/(s + 3.6) for a plant G that stable_plants once drew:
        # once s + 3.6 is cancelled, G's zero at -0.1 and the pole beside it
        # read as near-common, and make cancels them too rather than leave
        # them to a second make
        num = (0.10000000000000009, 1.0)
        den = (0.0007409042333197303, 0.0170055846663946, 0.11784042333197299, 0.21875)
        with pytest.warns(UserWarning, match="cancelling near-common"):
            made = RationalTF.make(P.polymul(num, [3.6, 1.0]), P.polymul(den, [3.6, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert RationalTF.make(made.num, made.den) == made
        assert (made.num.degree, made.den.degree) == (0, 2)

    def test_slow_distinct_roots_kept(self):
        # (1 + 1e8 s)/(2 + 1e8 s): roots -1e-8 and -2e-8 are not common
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            G = RationalTF.make([1.0, 1e8], [2.0, 1e8])
        assert G.num.coeffs == (1.0, 1e8)
        assert G.den.coeffs == (2.0, 1e8)

    def test_slow_common_root_cancelled(self):
        # (s + 1e-8)/((s + 1e-8)(s + 1))
        with pytest.warns(UserWarning):
            G = RationalTF.make([1e-8, 1.0], [1e-8, 1.0 + 1e-8, 1.0])
        assert G.num.degree == 0
        np.testing.assert_allclose(G.den.coeffs, (1.0, 1.0), rtol=1e-12)


@pytest.mark.parametrize("call, error, match", [
    (lambda: RationalTF.make([1.0], [0.0]), ValueError, "denominator must be nonzero"),
    # built directly, without make's cancellation, the same refusals
    (lambda: RationalTF(RealPolynomial((1.0,)), RealPolynomial((0.0,))), ImproperTF,
     "^denominator must be nonzero$"),
    (lambda: RationalTF(RealPolynomial((1.0,)), RealPolynomial((0.0, 0.0))), ImproperTF,
     "^denominator must be nonzero$"),
    (lambda: RationalTF([1.0], [math.nan]), NonFiniteValue,
     r"^polynomial coefficients\[0\] = nan is not finite$"),
    (lambda: RationalTF(RealPolynomial((1.0, 2.0, 3.0)), RealPolynomial((1.0,))),
     ImproperTF, "^transfer function must be proper: numerator degree 2 exceeds "
     "denominator degree 0$"),
    (lambda: transformed_tf(RationalTF.make([1.0], [1.0]),
                            Transform2(1.0, -1.0, 0.0, 1.0)),
     DegenerateTransformedTF, "vanished identically"),
    (lambda: transformed_tf(RationalTF.make([2.0, 1.0], [1.0, 1.0]),
                            Transform2(1.0, -1.0, 0.0, 1.0)),
     DegenerateTransformedTF, "numerator degree exceeds"),
    # mu = 1 + 1/4, so 1 + 2*lam*mu rounds to -4.4e-16 at this root
    (lambda: eips_indices(RationalTF.make([1.0], [1.0]), (-7 + math.sqrt(41)) / 2),
     SingularDenominator1p2lm, "vanished"),
    (lambda: RealPolynomial([1.0, [2.0]]), NonFiniteValue,
     "^polynomial coefficients " + RAGGED),
    (lambda: RealPolynomial("a"), NonFiniteValue, "^polynomial coefficients " + WORD),
    (lambda: RationalTF([1.0], [1.0, [2.0]]), NonFiniteValue,
     "^polynomial coefficients " + RAGGED),
    (lambda: RationalTF(["a"], [1.0]), NonFiniteValue, "^polynomial coefficients " + WORD),
    (lambda: lambda_search(unstable_plant_tf(), [0.0, [1.0]]), NonFiniteValue,
     "^lambda grid " + RAGGED),
    (lambda: lambda_search(unstable_plant_tf(), "a"), NonFiniteValue, "^lambda grid " + WORD),
    # a 2-D grid was once raveled, and this one answered 0.0
    (lambda: lambda_search(unstable_plant_tf(), np.zeros((2, 2))), DimensionMismatch,
     r"^lambda grid must be 1-D, not of shape \(2, 2\)$"),
    (lambda: loop_mu(unstable_plant_tf(), [0.0, [1.0]]), NonFiniteValue, "^lambda " + RAGGED),
    (lambda: loop_mu(unstable_plant_tf(), "a"), NonFiniteValue, "^lambda " + WORD),
    # a list was once cut to its first entry
    (lambda: loop_mu(unstable_plant_tf(), [5.0, 6.0]), DimensionMismatch,
     r"^lambda must be a number, not of shape \(2,\)$"),
    (lambda: l2gain_to_input_index("a"), NonFiniteValue, "^L2 gain " + WORD),
    (lambda: l2gain_to_input_index([1.0, [2.0]]), NonFiniteValue, "^L2 gain " + RAGGED),
    # an infinite gain once gave the bound -inf
    (lambda: l2gain_to_input_index(math.inf), NonFiniteValue,
     "^L2 gain = inf is not finite$"),
], ids=["zero_denominator", "direct_zero_denominator",
        "direct_trailing_zero_denominator", "direct_nan_list", "direct_improper",
        "transformed_denominator_vanishes",
        "transformed_improper", "eips_denominator_vanishes", "polynomial_ragged",
        "polynomial_word", "tf_ragged", "tf_word", "lambda_grid_ragged", "lambda_grid_word",
        "lambda_grid_2d", "lambda_ragged", "lambda_word", "lambda_list",
        "l2gain_word", "l2gain_ragged", "l2gain_inf"])
def test_bad_input_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
