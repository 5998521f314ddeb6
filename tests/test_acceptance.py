"""End-to-end acceptance gate.

One test per release criterion.  Each test prints a single ``[PASS]`` /
``[FAIL]`` line on the real stdout (visible even under pytest capture) and
enforces the stated tolerance and runtime budget.  Expected values marked as
pinned references were verified against independent closed-form oracles
before being frozen here.
"""

import sys
import time

import numpy as np
import pytest

from pqikit import (
    PQI,
    IntegralFunction,
    PassivityIndices,
    PlanarRelation,
    Transform2,
    compose_via_stages,
    decompose,
    discriminant,
    integral_function,
    legendre,
    mapping_transform,
    passivize,
    pullback,
    solve_ofp,
    solve_opp,
    transform_relation,
    transformed_tf,
    verify_passivation,
)
from pqikit.cli import _case_study_gradient_network
from pqikit.lti import eips_indices, loop_mu, tf_passivity_indices, RationalTF
from pqikit.relations import OF_K_INVERSE
from pqikit.systems import (
    nonmonotone_demo_agent,
    odd_cubic_agent,
    quadratic_network,
    unstable_plant_tf,
)


def _report(name: str, passed: bool, detail: str) -> None:
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line


def _random_nontrivial_pqis(rng, count):
    out = []
    while len(out) < count:
        a, b, c = rng.uniform(-10.0, 10.0, 3)
        p = PQI(a, b, c)
        if discriminant(p) > 1e-4 * (a * a + b * b + c * c):
            out.append(p)
    return out


def test_criterion_1_random_pqi_transport():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    sources = _random_nontrivial_pqis(rng, 1000)
    targets = _random_nontrivial_pqis(rng, 1000)
    worst = 0.0
    for source, target in zip(sources, targets):
        T = mapping_transform(source, target)
        got = np.asarray(pullback(source, T).normalized().coeffs)
        want = np.asarray(target.normalized().coeffs)
        assert np.dot(got, want) > 0.0
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion-1 random PQI transport",
        worst <= 1e-9 and elapsed < 5.0,
        f"max coefficient error {worst:.3e} (<=1e-9), {elapsed:.2f}s (<5s), "
        f"1000 pairs",
    )


def test_criterion_2_fold_curve_regression():
    T = passivize(PassivityIndices(-2.0 / 3.0, -1.0 / 3.0))
    t_err = float(np.max(np.abs(T.matrix() - [[1.0, 1.0], [1.0, 2.0]])))

    agent = nonmonotone_demo_agent()
    out = transform_relation(agent.relation, T)
    s = agent.relation.sigma
    curve_err = max(
        float(np.max(np.abs(out.u - s))), float(np.max(np.abs(out.y - s**3)))
    )

    q = pullback(agent.indices.pqi(), T).normalized().coeffs
    pqi_err = float(np.max(np.abs(np.asarray(q) - (0.0, 1.0, 0.0))))

    _report(
        "criterion-2 fold-curve regression",
        t_err <= 1e-12 and curve_err <= 1e-12 and pqi_err <= 1e-9,
        f"transform error {t_err:.1e}, curve error {curve_err:.1e}, "
        f"transported inequality error {pqi_err:.1e}",
    )


def test_criterion_3_lti_regression():
    t0 = time.perf_counter()
    G = unstable_plant_tf(0.75)
    lam = 4.0
    mu = loop_mu(G, lam)
    idx = eips_indices(G, lam)
    T = passivize(idx, PassivityIndices(0.0, 0.0))
    t_err = float(np.max(np.abs(T.matrix() - [[1.0, 4.0], [1.0, 5.0]])))

    strict_sub = tf_passivity_indices(transformed_tf(G, T))
    displayed = RationalTF.make([3.0, 2.0, 1.0], [2.0, 2.0, 1.0])
    strict_disp = tf_passivity_indices(displayed)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(mu - 1.0) <= 1e-6
        and abs(idx.rho + 20.0 / 9.0) <= 1e-6
        and abs(idx.nu + 1.0 / 9.0) <= 1e-6
        and t_err <= 1e-9
        and strict_sub.nu > 0.0
        and strict_sub.rho > 0.0
        and abs(strict_disp.nu - 0.9) <= 0.02
        and abs(strict_disp.rho - 2.0 / 3.0) <= 0.02
        and elapsed < 2.0
    )
    _report(
        "criterion-3 transfer-function regression",
        ok,
        f"mu={mu:.8f}, rho={idx.rho:.8f}, nu={idx.nu:.8f}, "
        f"transform error {t_err:.1e}, strict (substitution) "
        f"nu={strict_sub.nu:.3f} rho={strict_sub.rho:.3f}, strict (displayed) "
        f"nu={strict_disp.nu:.3f} rho={strict_disp.rho:.3f}, {elapsed:.2f}s",
    )


def test_criterion_4_decomposition():
    rng = np.random.default_rng(1)
    worst = 0.0
    count = 0
    while count < 1000:
        vals = rng.uniform(-5.0, 5.0, 4)
        if count % 5 == 0:
            vals[0] = rng.uniform(-1e-6, 1e-6)  # near-zero corner cases
        T = Transform2(*vals)
        if abs(T.det) <= 1e-3:
            continue
        count += 1
        scale = max(float(np.abs(T.matrix()).max()), 1.0)
        err = float(np.max(np.abs(decompose(T).reconstruct() - T.matrix())))
        worst = max(worst, err / scale)

    rel = nonmonotone_demo_agent().relation
    T = Transform2(1.0, 1.0, 1.0, 2.0)
    direct = transform_relation(rel, T)
    staged = compose_via_stages(rel, decompose(T))
    path_err = float(np.max(np.abs(staged.points - direct.points)))

    _report(
        "criterion-4 elementary decomposition",
        worst <= 1e-12 and path_err <= 1e-10,
        f"max relative reconstruction error {worst:.3e} (1000 draws incl. "
        f"near-singular corners), two-path transport error {path_err:.3e}",
    )


def test_criterion_5_dissipation_certificate():
    t0 = time.perf_counter()
    system = nonmonotone_demo_agent()
    target = PassivityIndices(0.0, 0.0)
    passed = verify_passivation(
        system, Transform2(1.0, 1.0, 1.0, 2.0), target,
        trials=100,
    )
    failed = verify_passivation(
        system, Transform2.identity(), target,
        trials=100,
    )
    elapsed = time.perf_counter() - t0
    _report(
        "criterion-5 dissipation certificate",
        (passed.passed and passed.max_violation <= 1e-6
         and not failed.passed and failed.max_violation > 0.0
         and elapsed < 30.0),
        f"transformed violation {passed.max_violation:.3e} (<=1e-6), "
        f"untransformed violation {failed.max_violation:.3e} (>0), "
        f"{elapsed:.1f}s (<30s)",
    )


def test_criterion_6_integral_function_rules():
    rel = odd_cubic_agent().relation  # inverse relation u = y^3 - y
    base = integral_function(rel, OF_K_INVERSE)
    shifted = transform_relation(rel, Transform2(1.0, 1.0, 0.0, 1.0))
    F = integral_function(shifted, OF_K_INVERSE)

    window = np.abs(F.grid) <= 2.0
    y = F.grid[window]
    diff = F.values[window] - 0.25 * y**4
    sup_err = float(np.max(diff) - np.min(diff))

    _report(
        "criterion-6 integral-function rules",
        sup_err <= 1e-4 and not base.convexity_certificate
        and F.convexity_certificate,
        f"sup deviation from quartic potential {sup_err:.3e} on [-2,2], "
        f"convexity certificate {base.convexity_certificate} -> "
        f"{F.convexity_certificate}",
    )


def test_criterion_7_network_consensus_and_clustering(tmp_path):
    # the checks of the CLI gradient-network case study, run by its own code
    t0 = time.perf_counter()
    checks, _ = _case_study_gradient_network(str(tmp_path))
    elapsed = time.perf_counter() - t0
    detail = {c["name"]: c["detail"] for c in checks}
    y_inf = float(np.max(np.abs(
        detail["transformed_consensus_at_zero"]["terminal_y"])))

    _report(
        "criterion-7 network consensus and clustering",
        all(c["passed"] for c in checks) and elapsed < 60.0,
        f"transformed |y|_inf {y_inf:.2e} (<=1e-3), prediction gap "
        f"{detail['prediction_agreement']['gap']:.2e} (<=1e-2), untransformed "
        f"clusters {detail['untransformed_clustering']['clusters']} (>=2, "
        f"separation >1), {elapsed:.1f}s (<60s)",
    )


def test_criterion_8_duality():
    spec = quadratic_network()
    fine = np.linspace(-5.0, 5.0, 200001)
    pots = [
        IntegralFunction.from_function(lambda y, c=c: 0.5 * (y - c) ** 2, fine)
        for c in (1.0, 3.0)
    ]
    opp = solve_opp(spec, grid=fine, node_potentials=pots)
    ofp = solve_ofp(spec, grid=fine,
                    node_potentials=[legendre(p, fine) for p in pots])
    gap = abs(opp.objective + ofp.objective)

    # stationarity of each solution against the closed-form gradients
    E = spec.graph.incidence_matrix()
    y = np.asarray(opp.primal)
    grad_node = y - np.array([1.0, 3.0])  # d/dy of the node costs
    u = -E @ (E.T @ y)  # unit-gain edge coupling
    kkt_primal = float(np.max(np.abs(grad_node - u)))
    mu = np.asarray(ofp.coupling)
    zeta = E.T @ y
    kkt_dual = float(np.max(np.abs(mu - zeta)))

    _report(
        "criterion-8 steady-state duality",
        gap <= 1e-6 and kkt_primal <= 1e-3 and kkt_dual <= 1e-3,
        f"duality gap {gap:.3e} (<=1e-6), primal stationarity "
        f"{kkt_primal:.2e}, dual consistency {kkt_dual:.2e}",
    )


def test_criterion_9_output_feedback_shear():
    beta = 2.0
    T = passivize(PassivityIndices(-1.0, 0.0), PassivityIndices(-1.0 + beta, 0.0))
    t_err = float(np.max(np.abs(T.matrix() - [[1.0, beta], [0.0, 1.0]])))

    rel = odd_cubic_agent().relation
    base = integral_function(rel, OF_K_INVERSE)
    shifted = transform_relation(rel, Transform2(1.0, beta, 0.0, 1.0))
    F = integral_function(shifted, OF_K_INVERSE)
    want = base(F.grid) + 0.5 * beta * F.grid**2
    diff = F.values - want
    obj_err = float(np.max(diff) - np.min(diff))

    _report(
        "criterion-9 output-feedback cost rule",
        t_err <= 1e-12 and obj_err <= 1e-8,
        f"shear transform error {t_err:.1e}, cost agreement {obj_err:.3e} "
        f"(<=1e-8 up to a constant on the sampled grid)",
    )


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
