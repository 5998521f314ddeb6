"""Command-line interface: exit codes, emitted files, determinism."""

import contextlib
import copy
import csv
import io
import itertools
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pqikit import (
    PassivityIndices,
    RationalTF,
    apply_network_transform,
    integral_function,
    passivize,
    simulate,
    solve_opp,
)
import pqikit.cli as cli_module
from pqikit.cli import main
from pqikit.relations import OF_K_INVERSE
from pqikit.systems import pendulum_network

QUAD_SPEC = {
    "graph": {"vertices": 2, "edges": [[0, 1]]},
    "agents": [
        {"kind": "quadratic", "params": {"center": 1.0}},
        {"kind": "quadratic", "params": {"center": 3.0}},
    ],
    "controllers": {"gain": 1.0},
    "x0": [0.0, 0.0],
    "integrator": {"horizon": 30.0},
}


# a 3-vertex path of a quadratic, a pendulum-gradient and an odd-cubic agent
PATH3_SPEC = {
    "graph": {"vertices": 3, "edges": [[0, 1], [1, 2]]},
    "agents": [{"kind": "quadratic", "params": {"center": 1.0}},
               {"kind": "pendulum-gradient", "params": {"r1": 2.5, "r2": 0.1}},
               {"kind": "odd-cubic"}],
    "controllers": {"gain": 1.5},
    "x0": [0.1, -0.2, 0.3],
    "integrator": {"dt": 0.01, "horizon": 2.0},
}

# the same path in the spec's other forms: one agent object for every vertex,
# a list of controllers, and every integrator setting
PATH3_FORMS_SPEC = {
    "graph": {"vertices": 3, "edges": [[0, 1], [1, 2]]},
    "agents": {"kind": "pendulum-gradient", "params": {"r1": 2.5, "r2": 0.1}},
    "controllers": [{"gain": 1.5}, {"gain": 0.5}],
    "x0": [0.1, -0.2, 0.3],
    "integrator": {"dt": 0.01, "horizon": 2.0, "convergence_window": 1.0,
                   "tol_conv": 1e-6},
}

# the network.json spec of README's "Command line" section
with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "README.md")) as _fh:
    README_SPEC = json.loads(re.search(r"^```json\n(.*?)^```$", _fh.read(),
                                       re.DOTALL | re.MULTILINE).group(1))

EMPTY_SPEC = {"graph": {"vertices": 0, "edges": []}, "agents": [],
              "controllers": [], "x0": []}


def _spec_path(tmp_path, doc) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def quad_spec_path(tmp_path):
    return _spec_path(tmp_path, QUAD_SPEC)


class TestPassivize:
    def test_reference_pair(self, capsys):
        rc = main(["passivize", "--rho=-2.2222222222222223",
                   "--nu=-0.1111111111111111"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "transform:" in out and "decomposition:" in out

    def test_small_leading_entry_swaps_columns(self, capsys):
        rc = main(["passivize", "--rho=-3", "--nu=0.25", "--rho-target=1",
                   "--nu-target=0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(columns swapped before factoring)" in out

    def test_trivial_pair_rejected(self, capsys):
        rc = main(["passivize", "--rho", "1.0", "--nu", "1.0"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--rho=-inf", "--nu=0.1"], "passivity index rho = -inf is not finite"),
        (["--rho=0", "--nu=nan"], "passivity index nu = nan is not finite"),
        (["--rho=0", "--nu=0", "--rho-target=inf"], "passivity index rho = inf"),
        (["--rho=1e308", "--nu=-1e308"],
         "indices rho=1e+308, nu=-1e+308 overflow the discriminant"),
        (["--rho=0", "--nu=1e308"], "indices rho=0.0, nu=1e+308 overflow"),
    ])
    def test_unrepresentable_index_named(self, capsys, flags, named):
        rc = main(["passivize", *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: NonFiniteValue: ") and named in err

    @pytest.mark.parametrize("flags, error, named", [
        (["--rho-target=inf"], "NonFiniteValue", "passivity index rho = inf is not finite"),
        (["--rho-target=1", "--nu-target=1"], "TrivialPQI",
         "indices rho=1.0, nu=1.0 give rho*nu >= 1/4"),
    ])
    def test_refused_target_is_named_as_the_target(self, capsys, flags, error, named):
        rc = main(["passivize", "--rho=-0.667", "--nu=-0.333", *flags])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {error}: target (--rho-target, --nu-target): {named}\n")


class TestAnalyzeLTI:
    def test_reference_plant_report(self, capsys):
        rc = main(["analyze-lti", "--num", "0.75", "--den=-2,2,1",
                   "--lam", "4.0"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["mu"] - 1.0) <= 1e-6
        assert abs(report["rho"] + 20.0 / 9.0) <= 1e-6
        assert abs(report["nu"] + 1.0 / 9.0) <= 1e-6
        np.testing.assert_allclose(report["transform"],
                                   [[1.0, 4.0], [1.0, 5.0]], atol=1e-12)
        assert report["strict_indices"]["rho"] > 0.0
        assert report["strict_indices"]["nu"] > 0.0

    def test_grid_search_when_lambda_omitted(self, capsys):
        rc = main(["analyze-lti", "--num", "0.75", "--den=-2,2,1",
                   "--lambda-grid", "0,1,2,3,4"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["lambda"] == 4.0

    def test_no_admissible_lambda_is_error(self, capsys):
        rc = main(["analyze-lti", "--num", "0.75", "--den=-2,2,1",
                   "--lambda-grid", "0,1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_time_scaled_plants_agree(self, capsys):
        # 1/(s² + 0.5s + 1) with s scaled by 1, 1e-8 and 1e8
        reports = []
        for den in ("1,0.5,1", "1,0.5e-8,1e-16", "1,0.5e8,1e16"):
            assert main(["analyze-lti", "--num", "1", f"--den={den}", "--lam", "0"]) == 0
            r = json.loads(capsys.readouterr().out)
            reports.append([r["mu"], r["strict_indices"]["rho"], r["strict_indices"]["nu"]])
        assert all(abs(a - b) <= 1e-9 * abs(b) for w in reports for a, b in zip(w, reports[0])), \
            reports

    @pytest.mark.parametrize("flag, value, named", [
        ("--num", "abc",
         "list cannot be read as floats: could not convert string to float: 'abc'"),
        ("--den", "1,,",
         "list cannot be read as floats: could not convert string to float: ''"),
        ("--lambda-grid", "0,nan", "list[1] = nan is not finite"),
        ("--lambda-grid", "inf", "list[0] = inf is not finite"),
        ("--den", "1,nan", "list[1] = nan is not finite")])
    def test_malformed_list_names_its_flag(self, capsys, flag, value, named):
        args = {"--num": "0.75", "--den": "-2,2,1", flag: value}
        with pytest.raises(SystemExit) as exc:
            main(["analyze-lti"] + [f"{k}={v}" for k, v in args.items()])
        assert exc.value.code == 2
        assert f"error: argument {flag}: {named}\n" in capsys.readouterr().err

    def test_peak_gain_past_float_range_is_named(self, capsys):
        # the loop's peak gain is about 1e310, so mu is inf
        rc = main(["analyze-lti", "--num", "1e300", "--den=1e-10,1", "--lam", "0"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: NonFiniteValue: mu = inf at lambda = 0.0: ")


class TestSimulate:
    def test_writes_outputs_and_summary(self, tmp_path, quad_spec_path,
                                        capsys):
        outdir = tmp_path / "run"
        rc = main(["simulate", "--spec", quad_spec_path,
                   "--outdir", str(outdir)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(summary["steady_state_y"],
                                   [5.0 / 3.0, 7.0 / 3.0], atol=1e-4)
        assert (outdir / "trajectories.csv").exists()
        assert (outdir / "summary.json").exists()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert len(manifest["input_digest"]) == 64

    @pytest.mark.parametrize("key, value, located", [
        ("x0", None, "$: missing key 'x0'"),
        ("agents", {"kind": "quadratic", "params": {"centre": 1.0}},
         "$.agents.params"),
        # written as Infinity and NaN, which json reads back
        ("integrator", {"horizon": float("inf")},
         "$.integrator: NonFiniteValue: horizon = inf is not finite"),
        ("integrator", {"dt": float("nan")},
         "$.integrator: NonFiniteValue: dt = nan is not finite"),
        ("graph", {"vertices": float("inf"), "edges": [[0, 1]]},
         "$.graph.vertices: inf is not an integer"),
        ("graph", {"vertices": 2, "edges": [[0, float("inf")]]},
         "$.graph.edges[0]: inf is not an integer"),
        ("graph", {"vertices": 2, "edges": [[0, 1], [0, -1]]},
         "$.graph.edges[1]: vertex index -1 out of range for 2 vertices"),
        ("graph", {"vertices": 2, "edges": [[0, 1e308]]},
         "$.graph.edges[0]: vertex index 1e+308 out of range for 2 vertices"),
        ("integrator", {"horizon": 1e308, "dt": 0.01},
         "$.integrator: InvalidSpec: horizon 1e+308 holds too many steps"),
        ("x0", [float("inf"), 0.0], "$.x0: NonFiniteValue: x0[0] = inf is not finite"),
        ("x0", [0.0, float("nan")], "$.x0: NonFiniteValue: x0[1] = nan is not finite"),
        # the built-in agents' grids, the integrator's stored rows and its
        # stop rule are fixed, so a spec cannot set them
        ("agents", {"kind": "pendulum-gradient", "params": {"n": 0}},
         "$.agents.params: TypeError: pendulum_gradient_agent() got an "
         "unexpected keyword argument 'n'"),
        ("agents", {"kind": "odd-cubic", "params": {"sigma_range": [-1, 1]}},
         "$.agents.params: TypeError: odd_cubic_agent() got an "
         "unexpected keyword argument 'sigma_range'"),
        ("integrator", {"store_stride": 5}, "$.integrator: TypeError: "),
        ("integrator", {"stop_on_convergence": False},
         "$.integrator.stop_on_convergence: false is not a number"),
        ("agents", {"kind": "pendulum-gradient", "params": {"r1": float("inf")}},
         "$.agents.params.r1: NonFiniteValue: r1 = inf is not finite"),
        ("x0", [[0.0], [0.0]],
         "$.x0: DimensionMismatch: x0 must be 1-D, not of shape (2, 1)"),
        # python reads true as 1, which would make this the edge (0, 1)
        ("graph", {"vertices": 2, "edges": [[0, True]]},
         "$.graph.edges[0][1]: true is not a number"),
        ("x0", [0.0, False], "$.x0[1]: false is not a number"),
        # numpy would read the string "1" as 1.0
        ("x0", ["1", 0.0], '$.x0[0]: "1" is not a number'),
        ("controllers", {"gain": "2"}, '$.controllers.gain: "2" is not a number'),
        ("integrator", {"dt": "0.01"}, '$.integrator.dt: "0.01" is not a number'),
        ("integrator", {"horizon": None}, "$.integrator.horizon: null is not a number"),
        ("agents", {"kind": "quadratic", "params": {"center": "3"}},
         '$.agents.params.center: "3" is not a number'),
        ("graph", {"vertices": 2, "edges": [[0]]},
         "$.graph.edges[0]: [0] is not a vertex pair"),
        ("graph", {"vertices": 2, "edges": [[0, 1, 1]]},
         "$.graph.edges[0]: [0, 1, 1] is not a vertex pair"),
        # an unknown key is refused, never dropped
        ("integrater", {"horizon": 5.0}, "$: unknown key 'integrater'"),
        ("agents", {"kind": "quadratic", "param": {"center": 3.0}},
         "$.agents: unknown key 'param', not one of kind, params"),
        ("graph", {"vertices": 2, "edges": [[0, 1]], "edge": []},
         "$.graph: unknown key 'edge', not one of vertices, edges"),
        ("controllers", [{"gain": 1.0, "gian": 2.0}],
         "$.controllers[0]: unknown key 'gian', not one of gain"),
    ])
    def test_malformed_spec_is_located_error(self, tmp_path, capsys, key, value,
                                             located):
        doc = dict(QUAD_SPEC)
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(["simulate", "--spec", str(path), "--outdir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: InvalidSpec: ") and located in err
        assert "Traceback" not in err

    @staticmethod
    def mixed_path_doc():
        return {
            "graph": {"vertices": 3, "edges": [[0, 1], [1, 2]]},
            "agents": [{"kind": "quadratic", "params": {"center": 1.0}},
                       {"kind": "pendulum-gradient", "params": {}},
                       {"kind": "odd-cubic"}],
            "controllers": {"gain": 1.0},
            "x0": [0.1, -0.2, 0.3],
            "integrator": {"dt": 0.01, "horizon": 2.0},
        }

    @pytest.mark.parametrize("change", [
        lambda d: d.update(x0=[1e308, -0.2, 0.3]),
        lambda d: d.update(controllers={"gain": 1e308}),
    ], ids=["x0", "gain"])
    def test_trajectory_leaving_float_range_is_refused(self, tmp_path, capsys,
                                                       change):
        doc = self.mixed_path_doc()
        change(doc)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        outdir = tmp_path / "run"
        # tier-1 turns RuntimeWarnings into errors, so none may escape either
        rc = main(["simulate", "--spec", str(path), "--outdir", str(outdir)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: NonFiniteState: ") and "at t = " in err
        assert not (outdir / "trajectories.csv").exists()

    def test_trajectory_near_float_range_is_written(self, tmp_path, capsys):
        # a centre of 1e308 drives y0 to about 6e307 by t = 2 and every
        # stored row stays finite, the one at t = 0 included
        doc = self.mixed_path_doc()
        doc["agents"][0]["params"]["center"] = 1e308
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        outdir = tmp_path / "run"
        rc = main(["simulate", "--spec", str(path), "--outdir", str(outdir)])
        summary = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert 5e307 < summary["steady_state_y"][0] < 1e308
        with open(outdir / "trajectories.csv") as fh:
            rows = list(csv.reader(fh))
        values = np.array(rows[1:], dtype=float)
        assert np.isfinite(values).all()
        assert values[0, 1:4].tolist() == [0.1, -0.2, 0.3]

    def test_missing_spec_is_error(self, tmp_path, capsys):
        rc = main(["simulate", "--spec", str(tmp_path / "nope.json"),
                   "--outdir", str(tmp_path)])
        assert rc == 2


def _optimize(tmp_path, doc, problem) -> dict:
    """The report ``optimize`` writes for the spec ``doc``."""
    outdir = tmp_path / problem
    assert main(["optimize", "--spec", _spec_path(tmp_path, doc), "--problem", problem,
                 "--outdir", str(outdir)]) == 0
    return json.loads((outdir / f"optimize_{problem}.json").read_text())


class TestOptimize:
    def test_readme_spec_objectives_sum_to_zero(self, tmp_path, capsys):
        opp, ofp = (_optimize(tmp_path, README_SPEC, p)["objective"] for p in ("opp", "ofp"))
        assert abs(opp + ofp) <= 1e-9, (opp, ofp)

    @pytest.mark.parametrize("problem", ["opp", "ofp"])
    def test_readme_spec_scales_with_its_centres(self, tmp_path, capsys, problem):
        # every centre x 1e-8 scales each solution by 1e-8; the relations
        # stay sampled on [-20, 20] in steps of 0.01
        small = copy.deepcopy(README_SPEC)
        for agent in small["agents"]:
            agent["params"]["center"] *= 1e-8
        p = [1e-8 * v for v in _optimize(tmp_path, README_SPEC, problem)["primal"]]
        q = _optimize(tmp_path, small, problem)["primal"]
        m = max(map(abs, p))
        assert len(p) == len(q) and all(abs(a - b) <= 1e-3 * m for a, b in zip(p, q)), (p, q)

    def test_opp_matches_simulation(self, tmp_path, quad_spec_path, capsys):
        rc = main(["optimize", "--spec", quad_spec_path, "--problem", "opp",
                   "--outdir", str(tmp_path / "opp")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["primal"], [5.0 / 3.0, 7.0 / 3.0],
                                   atol=1e-2)
        assert 0.0 <= report["residual"] <= 1e-6

    def test_ofp_recovers_edge_flow(self, tmp_path, quad_spec_path, capsys):
        rc = main(["optimize", "--spec", quad_spec_path, "--problem", "ofp",
                   "--outdir", str(tmp_path / "ofp")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["coupling"], [-2.0 / 3.0],
                                   atol=1e-2)

    @pytest.mark.parametrize("problem", ["opp", "ofp"])
    def test_nonconvex_potential_is_located_error(self, tmp_path, capsys,
                                                  problem):
        doc = {"graph": {"vertices": 3, "edges": [[0, 1], [1, 2]]},
               "agents": {"kind": "pendulum-gradient"},
               "controllers": {"gain": 1.0},
               "x0": [0.0, 0.0, 0.0]}
        path = tmp_path / "pendulum.json"
        path.write_text(json.dumps(doc))
        rc = main(["optimize", "--spec", str(path), "--problem", problem,
                   "--outdir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: NonConvexCertificate: vertex 0")
        assert "Traceback" not in err


    @pytest.mark.parametrize("problem", ["opp", "ofp"])
    def test_overflowing_potential_names_its_vertex(self, tmp_path, capsys,
                                                    problem):
        doc = copy.deepcopy(PATH3_SPEC)
        doc["agents"][1]["params"]["r1"] = 1e308
        # tier-1 turns RuntimeWarnings into errors, so none may escape either
        rc = main(["optimize", "--spec", _spec_path(tmp_path, doc),
                   "--problem", problem, "--outdir", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: NonFiniteValue: vertex 1: integral-function "
                              "values[15] = -inf is not finite")

    @pytest.mark.parametrize("argv", [["simulate"],
                                      ["optimize", "--problem", "opp"],
                                      ["optimize", "--problem", "ofp"]],
                             ids=["simulate", "opp", "ofp"])
    def test_empty_network_solves(self, tmp_path, capsys, argv):
        rc = main(argv + ["--spec", _spec_path(tmp_path, EMPTY_SPEC),
                          "--outdir", str(tmp_path)])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        if argv[0] == "simulate":
            assert report["steady_state_y"] == [] and report["converged"]
        else:
            assert report["primal"] == report["coupling"] == []
            assert report["objective"] == report["residual"] == 0.0
            assert report["iterations"] == 0


class TestCaseStudy:
    def test_lti_passes_and_lists_checks(self, tmp_path, capsys):
        rc = main(["case-study", "lti", "--outdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS]" in out and "[FAIL]" not in out
        summary = json.loads((tmp_path / "case_study_summary.json").read_text())
        assert summary["passed"]
        assert {c["expected_from"] for c in summary["checks"]} <= {
            "pinned-reference-value", "independent-oracle"}

    def test_failed_check_is_listed_and_exits_one(self, tmp_path, capsys,
                                                  monkeypatch):
        # twice the reference plant's gain misses the pinned values, while
        # the strict indices of the plant it transforms stay positive
        monkeypatch.setattr(cli_module, "unstable_plant_tf",
                            lambda: RationalTF([1.5], [-2.0, 2.0, 1.0]))
        rc = main(["case-study", "lti", "--outdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] mu" in out and "[PASS] strict_indices_positive" in out
        summary = json.loads((tmp_path / "case_study_summary.json").read_text())
        assert not summary["passed"]

    def test_outputs_go_to_the_working_directory_by_default(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["case-study", "lti"]) == 0
        capsys.readouterr()
        assert sorted(os.listdir(tmp_path)) == [
            "case_study_summary.json", "lti_report.json", "manifest.json"]

    def test_lti_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["case-study", "lti", "--outdir", str(a)]) == 0
        assert main(["case-study", "lti", "--outdir", str(b)]) == 0
        capsys.readouterr()
        for name in ("lti_report.json", "case_study_summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_gradient_network_passes_and_reruns_byte_identical(self, tmp_path,
                                                                 capsys):
        # both runs write to one directory, so the manifests' paths agree
        argv = ["case-study", "gradient-network", "--outdir", str(tmp_path)]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main(argv) == 0
        capsys.readouterr()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first
        summary = json.loads(first["case_study_summary.json"])
        checks = {c["name"]: c for c in summary["checks"]}
        assert len(checks) == 4 and all(c["passed"] for c in checks.values())
        assert checks["untransformed_clustering"]["detail"]["clusters"] >= 2

    def test_gradient_network_matches_the_inline_pipeline(self, tmp_path, capsys):
        # the reference: transform, simulate, solve the potential problem and
        # take the gap, each step written out here
        spec = pendulum_network()
        T = passivize(PassivityIndices(-2.5, 0.0), PassivityIndices(0.0, 0.0))
        tspec = apply_network_transform(spec, [T] * spec.graph.vertex_count)
        sim_t, opt = simulate(tspec), solve_opp(tspec)
        gap = float(np.max(np.abs(sim_t.steady_state - opt.primal)))
        want = tmp_path / "want"
        want.mkdir()
        tspec.agents[0].relation.to_csv(want / "transformed_relation.csv")
        integral_function(tspec.agents[0].relation, OF_K_INVERSE).to_csv(
            want / "transformed_potential.csv")
        sim_t.to_csv(want / "trajectories_transformed.csv")

        got = tmp_path / "got"
        assert main(["case-study", "gradient-network", "--outdir", str(got)]) == 0
        capsys.readouterr()
        summary = json.loads((got / "case_study_summary.json").read_text())
        detail = {c["name"]: c["detail"] for c in summary["checks"]}
        assert detail["prediction_agreement"] == {
            "gap": gap, "predicted": [float(v) for v in opt.primal]}
        assert detail["transformed_consensus_at_zero"] == {
            "terminal_y": [float(v) for v in sim_t.steady_state],
            "converged": bool(sim_t.converged)}
        for path in want.iterdir():
            assert (got / path.name).read_bytes() == path.read_bytes(), path.name

    def test_duality_passes_within_its_bounds(self, tmp_path, capsys):
        rc = main(["case-study", "duality", "--outdir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out == "[PASS] duality_gap\n[PASS] prediction_agreement\n"
        report = json.loads((tmp_path / "duality_report.json").read_text())
        assert report["grid_points"] == 200001
        assert report["duality_gap"] <= 1e-10
        assert report["prediction_error"] <= 1e-5
        np.testing.assert_allclose(report["opp_primal"], [5.0 / 3.0, 7.0 / 3.0],
                                   atol=1e-5)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] is None
        assert [p.rsplit("/", 1)[-1] for p in manifest["outputs"]] == [
            "duality_report.json", "case_study_summary.json"]

    def test_unknown_name_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["case-study", "bogus"])
        assert exc.value.code == 2


class TestParser:
    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def _leaves(node, path=()):
    """Key paths of the scalar leaves of a JSON document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else None)
    if items is None:
        yield path
        return
    for key, child in items:
        yield from _leaves(child, path + (key,))


def _run(argv):
    """Exit code of main(argv), argparse's included, and its stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, err.getvalue().splitlines()


# the edge values are the least subnormal, the largest float and the least
# integer that a float cannot hold
FUZZ_VALUES = [math.nan, math.inf, -math.inf, -1, 0, 1e308, -1e308, "a", None,
               [], {}, True, 2.5, 1e6, 5e-324, 1.7976931348623157e308, 2**53 + 1]
FUZZ_FLAG_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e308", "-1e308", "a",
                    "null", "[]", "{}", "true", "2.5", "1e6", "5e-324",
                    "1.7976931348623157e308", "9007199254740993", "", "1,,2"]
SPEC_COMMANDS = [["simulate"], ["optimize", "--problem", "opp"],
                 ["optimize", "--problem", "ofp"]]
# every leaf of the 3-vertex spec, and the leaves of its other forms that
# the first has no counterpart of
SPEC_LEAVES = [(PATH3_SPEC, list(_leaves(PATH3_SPEC))),
               (PATH3_FORMS_SPEC, [leaf for leaf in _leaves(PATH3_FORMS_SPEC)
                                   if leaf not in set(_leaves(PATH3_SPEC))])]
# the valid flags each fuzzed flag is added to
FLAG_BASE = {"passivize": {"--rho": "-0.667", "--nu": "-0.333"},
             "analyze-lti": {"--num": "0.75", "--den": "-2,2,1"}}
FUZZ_FLAGS = [("passivize", f) for f in ("--rho", "--nu", "--rho-target", "--nu-target")] + [
    ("analyze-lti", f) for f in ("--num", "--den", "--lam", "--lambda-grid")]
# what an error line must name: the JSON path, the vertex or the time of a
# spec fault; the index, or the loop gain or polynomial, of a flag's fault
LOCATOR = {"spec": r"\$|vertex \d+: |at t = ", "passivize": r"\b(rho|nu)\b",
           "analyze-lti": r"lambda|numerator|denominator|coefficient"}


def _assert_named(rc, lines, locator, case, flag=None):
    """Exit 0; argparse's exit 2 naming the flag; or exit 2 with one
    ``error:`` line that names where the fault is (tier-1 turns a
    RuntimeWarning into an exception, which fails the test).  ``case``
    names the input in a failure."""
    if rc == 0:
        return
    assert rc == 2, (case, lines)
    if flag is not None and lines[-1].startswith("pqikit "):
        assert f": error: argument {flag}: " in lines[-1], (case, lines)
        return
    assert len(lines) == 1 and re.match(r"error: \w+: ", lines[0]), (case, lines)
    assert re.search(locator, lines[0], re.IGNORECASE), (case, lines)


# the steps of a JSON path: .key, [index] or ["a quoted key"]
PATH_STEP = r'\.(\w+)|\[(\d+)\]|\[("(?:[^"\\]|\\.)*")\]'


def _names_a_path_of(doc, line) -> bool:
    """Whether the first JSON path in ``line``, if there is one, leads to
    an entry that ``doc`` has."""
    found = re.search(r'\$((?:\.\w+|\[\d+\]|\["(?:[^"\\]|\\.)*"\])*)', line)
    node = doc
    for key, index, quoted in re.findall(PATH_STEP, found.group(1) if found else ""):
        if quoted:
            key = json.loads(quoted)
        if (key or quoted) and isinstance(node, dict) and key in node:
            node = node[key]
        elif index and isinstance(node, list) and int(index) < len(node):
            node = node[int(index)]
        else:
            return False
    return True


def _fuzz_spec(tmp_path, command, doc, leaf, value):
    """Run ``command`` on ``doc`` with the entry at ``leaf`` set to ``value``."""
    bad = copy.deepcopy(doc)
    node = bad
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    rc, lines = _run(command + ["--spec", _spec_path(tmp_path, bad),
                                "--outdir", str(tmp_path / "out")])
    _assert_named(rc, lines, LOCATOR["spec"], (leaf, value))
    assert rc == 0 or _names_a_path_of(bad, lines[0]), (leaf, value, lines)


def _fuzz_flag(command, name, value):
    """Run ``command`` on its valid flags with ``name`` set to ``value``."""
    args = dict(FLAG_BASE[command], **{name: value})
    rc, lines = _run([command] + [f"{k}={v}" for k, v in args.items()])
    _assert_named(rc, lines, LOCATOR[command], value, flag=name)


# any JSON value, nested a little, with no count or length made large
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-2**64, 2**64)
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
# flag text: numbers as Python prints them, short text, and comma lists of both
FLAG_TEXT = (st.floats().map(repr) | st.integers(-2**70, 2**70).map(str)
             | st.text(max_size=6)
             | st.lists(st.floats().map(repr) | st.text(max_size=3), max_size=4)
             .map(",".join))


class TestFuzz:
    """Each leaf of a spec, and each numeric flag, set in turn to each bad
    value, every case on every run; no count or length is made large.
    Generated values come on top of the enumeration."""

    @pytest.mark.parametrize("command", SPEC_COMMANDS, ids=["simulate", "opp", "ofp"])
    @pytest.mark.parametrize("doc, leaves", SPEC_LEAVES, ids=["path3", "forms"])
    def test_spec_leaf(self, tmp_path, doc, leaves, command):
        for leaf, value in itertools.product(leaves, FUZZ_VALUES):
            _fuzz_spec(tmp_path, command, doc, leaf, value)

    @pytest.mark.parametrize("command, name", FUZZ_FLAGS)
    def test_flag(self, command, name):
        for value in FUZZ_FLAG_VALUES:
            _fuzz_flag(command, name, value)

    # a dict key that is not one word once gave an unquoted path, $.a.0:, and
    # a one-entry list as an agent parameter once failed in simulate naming
    # neither a path nor a vertex
    @given(st.sampled_from(SPEC_COMMANDS),
           st.sampled_from([(doc, leaf) for doc, leaves in SPEC_LEAVES for leaf in leaves]),
           JSON_VALUES)
    @example(["simulate"], (PATH3_SPEC, ("graph", "vertices")), {"0:": False})
    @example(["simulate"], (PATH3_FORMS_SPEC, ("agents", "params", "r1")), [0.0])
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_generated_spec_leaf(self, tmp_path, command, case, value):
        _fuzz_spec(tmp_path, command, *case, value)

    # a numerator longer than the denominator was once a bare ValueError
    # that named neither
    @given(st.sampled_from(FUZZ_FLAGS), FLAG_TEXT)
    @example(("analyze-lti", "--num"), "0.0,0.0,0.0,1.0")
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("ignore:cancelling near-common")
    def test_generated_flag(self, flag, value):
        _fuzz_flag(*flag, value)
