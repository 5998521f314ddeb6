"""Command-line interface: exit codes, emitted files, determinism."""

import json

import numpy as np
import pytest

from pqikit.cli import main

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


@pytest.fixture
def quad_spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(QUAD_SPEC))
    return str(path)


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

    def test_malformed_coefficients_is_error(self, capsys):
        rc = main(["analyze-lti", "--num", "abc", "--den", "1,1"])
        assert rc == 2

    @pytest.mark.parametrize("flag, value, named", [
        ("--lambda-grid", "0,nan", "lambda entry 1 "),
        ("--lambda-grid", "inf", "lambda entry 0 "),
        ("--den", "1,nan", "coefficient 1 ")])
    def test_non_finite_input_is_named(self, capsys, flag, value, named):
        args = {"--num": "0.75", "--den": "-2,2,1", flag: value}
        rc = main(["analyze-lti"] + [f"{k}={v}" for k, v in args.items()])
        err = capsys.readouterr().err
        assert rc == 2
        assert "NonFiniteValue" in err and named in err


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
         "$.agents[0].params"),
        # written as Infinity and NaN, which json reads back
        ("integrator", {"horizon": float("inf")},
         "$.integrator: ValueError: horizon must be finite"),
        ("integrator", {"dt": float("nan")},
         "$.integrator: ValueError: dt must be finite"),
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

    def test_missing_spec_is_error(self, tmp_path, capsys):
        rc = main(["simulate", "--spec", str(tmp_path / "nope.json"),
                   "--outdir", str(tmp_path)])
        assert rc == 2


class TestOptimize:
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

    def test_unknown_name_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            main(["case-study", "bogus"])
        assert exc.value.code == 2


class TestParser:
    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
