"""Tests of the benchmark itself: seeding, tracing, oracles and CLI reruns.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import gen
import jobs
import tracing
from pqikit import cli, lti, network, systems

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(BENCH, "run.py")


def _first(workload, kind, seed=3, **match):
    return next(j for j in gen.generate(workload, seed)
                if j["kind"] == kind and all(j.get(k) == v for k, v in match.items()))


def _fixture(job, tmp_path):
    fx = jobs.build([job], str(tmp_path))[0]
    assert fx.error is None
    return fx


def _check(kind, fx, result, memo=None):
    out = jobs.Outcome()
    jobs.KINDS[kind][1](fx, result, out, {} if memo is None else memo)
    return out


# ---------------------------------------------------------------------------
# Seeded input generation


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    first = json.dumps(gen.generate(workload, 7))
    assert json.dumps(gen.generate(workload, 7)) == first
    other = gen.generate(workload, 8)
    assert json.dumps(other) != first

    def mix(job_list):
        return sorted((j["kind"], j["known_defect"]) for j in job_list)

    assert mix(other) == mix(json.loads(first))


def test_time_scaled_plants_fill_every_decade_evenly():
    alphas = [j["alpha"] for j in gen.generate("design", 5)
              if j["kind"] == "lti" and j["known_defect"]]
    per_decade = np.histogram(np.log10(alphas), bins=16, range=(-8.0, 8.0))[0]
    assert set(per_decade) <= {12, 13}


def test_only_time_scaled_plants_are_known_failures():
    for workload in gen.WORKLOADS:
        for job in gen.generate(workload, 5):
            scaled = job["kind"] == "lti" and job["alpha"] != 1.0
            assert job["known_defect"] == scaled, job["kind"]


def test_ofp_jobs_follow_their_opp_job():
    job_list = gen.generate("predict", 4)
    for i, job in enumerate(job_list):
        if job["kind"] == "ofp":
            prev = job_list[i - 1]
            assert prev["kind"] == "opp" and prev["edges"] == job["edges"]


# ---------------------------------------------------------------------------
# Span recorder


def _small_job_list():
    return [
        _first("dynamics", "simulate", n=5, transformed=True),
        _first("dynamics", "relation"),
        _first("dynamics", "certificate", agent="pendulum-gradient"),
        _first("predict", "opp", n=5),
        _first("predict", "ofp", n=5),
        *[j for j in gen.generate("design", 3) if j["kind"] == "lti"][:4],
        _first("design", "synthesis", agent="nonmonotone-demo"),
        _first("design", "decompose"),
        _first("design", "cli-lti"),
    ]


def _round(job_list, outdir, tracer=None):
    if tracer is None:
        fixtures = jobs.build(job_list, outdir)
        memo = {}
        return [jobs.run(fx, memo) for fx in fixtures]
    tracer.install()
    try:
        with tracer.root("setup"):
            fixtures = jobs.build(job_list, outdir)
        memo, outcomes = {}, []
        for fx in fixtures:
            with tracer.root("job"):
                outcomes.append(jobs.run(fx, memo))
        return outcomes
    finally:
        tracer.uninstall()


def test_traced_counters_repeat_and_outputs_match_untraced(tmp_path):
    original = network.simulate
    job_list = _small_job_list()
    plain = _round(job_list, str(tmp_path / "plain"))
    assert all(o.passed for o in plain[:5]), [o.exc for o in plain]

    tracers = [tracing.Tracer(), tracing.Tracer()]
    traced = [_round(job_list, str(tmp_path / f"t{i}"), t) for i, t in enumerate(tracers)]

    def counters(t):
        return {name: (a["calls"], a["f_evals"], a["work"])
                for name, a in t.layers().items()}

    assert counters(tracers[0]) == counters(tracers[1])
    for outcomes in traced:
        assert [(o.passed, o.output) for o in outcomes] == \
            [(o.passed, o.output) for o in plain]

    layers = tracers[0].layers()
    assert layers["network.simulate"]["work"] > 0  # RK4 steps
    assert layers["network.simulate"]["f_evals"] > 0
    assert layers["transforms.find_equilibria"]["work"] > 0  # roots
    assert layers["network.check_relation"]["f_evals"] > 0
    assert layers["network.solve_opp"]["work"] > 0  # iterations
    assert layers["lti.linf_norm"]["calls"] > 0
    assert layers["pqi.boundary_rays"]["calls"] > 0
    assert layers["cli.main"]["calls"] == 1
    assert all(a["self_s"] >= 0.0 for a in layers.values())

    # every patched binding is restored
    assert network.simulate is original and cli.simulate is original
    assert systems.AGENT_REGISTRY["quadratic"] is systems.quadratic_agent
    assert not hasattr(lti.RationalTF.make, "__wrapped__")


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    with tracer.root("job"):
        with tracer.root("child"):
            pass
    tracer.spans[0].start, tracer.spans[0].end = 0.0, 3.0
    tracer.spans[1].start, tracer.spans[1].end = 1.0, 2.0
    layers = tracer.layers()
    assert layers["job"]["self_s"] == pytest.approx(2.0)
    assert tracer.spans[1].parent == 0 and tracer.spans[1].job == 0


# ---------------------------------------------------------------------------
# Oracles reject wrong answers


def test_opp_oracle_rejects_perturbed_steady_state(tmp_path):
    fx = _fixture(_first("predict", "opp"), tmp_path)
    y_star = fx.data["want"][0]
    assert _check("opp", fx, SimpleNamespace(primal=y_star, objective=0.0)).passed
    bad = y_star + np.where(np.arange(len(y_star)) == 0, 2e-2, 0.0)
    assert not _check("opp", fx, SimpleNamespace(primal=bad, objective=0.0)).passed


def test_ofp_oracle_rejects_wrong_flow_and_duality_gap(tmp_path):
    fx = _fixture(_first("predict", "ofp"), tmp_path)
    u_star = fx.data["want"][1]
    good = SimpleNamespace(primal=u_star, objective=-1.0)
    assert _check("ofp", fx, good, {fx.data["key"]: 1.0}).passed
    assert not _check("ofp", fx, good, {fx.data["key"]: 1.5}).passed
    assert not _check("ofp", fx, good, {}).passed  # no OPP objective to pair with
    bad = SimpleNamespace(primal=u_star + 2e-2, objective=-1.0)
    assert not _check("ofp", fx, bad, {fx.data["key"]: 1.0}).passed


def test_lti_oracle_rejects_wrong_mu_lambda_and_indices(tmp_path):
    job = _first("design", "lti", known_defect=False)
    fx = _fixture(job, tmp_path)
    k, a, b = job["k"], job["a"], job["b"]
    mu = jobs.second_order_mu(k, a, b + 10.0 * k)
    ok = lti.FrequencyIndices(0.1, 0.1)
    assert _check("lti", fx, (10.0, mu, ok)).passed
    assert not _check("lti", fx, (10.0, mu * (1.0 + 1e-4), ok)).passed
    assert not _check("lti", fx, (9.0, jobs.second_order_mu(k, a, b + 9.0 * k), ok)).passed
    assert not _check("lti", fx, (10.0, mu, lti.FrequencyIndices(-1e-3, 0.1))).passed


def test_second_order_peak_matches_a_frequency_sweep():
    w = np.linspace(0.0, 20.0, 400_001)
    for k, a, c in ((1.0, 0.3, 5.0), (2.0, 4.0, 3.0), (0.7, 1.0, 0.5)):
        peak = float(np.max(np.abs(k / (-w * w + 1j * a * w + c))))
        assert jobs.second_order_mu(k, a, c) - 0.25 == pytest.approx(peak, rel=1e-6)


def test_simulate_oracle_rejects_unconverged_or_off_equilibrium(tmp_path):
    job = _first("dynamics", "simulate", transformed=False)
    fx = _fixture(job, tmp_path)
    y = np.linspace(-3.0, 3.0, job["n"])
    u = job["r1"] * np.sin(y) + job["r2"] * y

    def result(converged, u_end):
        return SimpleNamespace(steady_state=y, u=np.array([u_end]),
                               converged=converged, t=np.array([0.0, 5.0]))

    assert _check("simulate", fx, result(True, u)).passed
    assert not _check("simulate", fx, result(False, u)).passed
    assert not _check("simulate", fx, result(True, u + 1e-4)).passed


def test_consensus_oracle_rejects_nonzero_terminal_output(tmp_path):
    fx = _fixture(_first("dynamics", "simulate", transformed=True), tmp_path)
    y = np.full(fx.job["n"], 2e-3)
    res = SimpleNamespace(steady_state=y, u=np.zeros((1, len(y))), converged=True,
                          t=np.array([0.0, 5.0]))
    assert not _check("simulate", fx, res).passed


def test_certificate_oracle_expects_the_identity_to_fail(tmp_path):
    fx = _fixture(_first("dynamics", "certificate", expect_pass=False), tmp_path)
    assert _check("certificate", fx,
                  SimpleNamespace(passed=False, max_violation=0.5, equilibria=[])).passed
    assert not _check("certificate", fx,
                      SimpleNamespace(passed=True, max_violation=0.0, equilibria=[])).passed


def test_reconstruction_oracle_rejects_a_wrong_factorization(tmp_path):
    fx = _fixture(_first("design", "decompose"), tmp_path)
    exact = [SimpleNamespace(reconstruct=T.matrix) for T in fx.data["transforms"]]
    assert _check("decompose", fx, exact).passed
    off = exact[:-1] + [SimpleNamespace(
        reconstruct=lambda T=fx.data["transforms"][-1]: T.matrix() + 1e-9)]
    assert not _check("decompose", fx, off).passed


def test_case_study_oracle_needs_two_clusters(tmp_path):
    fx = _fixture({"kind": "cli-case-study", "known_defect": False}, tmp_path)

    def summary(clusters):
        checks = [{"name": n, "passed": True, "detail": {}} for n in
                  ("transform", "prediction_agreement")]
        checks.append({"name": "transformed_consensus_at_zero", "passed": True,
                       "detail": {"terminal_y": [1e-6, -1e-6]}})
        checks.append({"name": "untransformed_clustering", "passed": True,
                       "detail": {"clusters": clusters}})
        return 0, {"checks": checks}

    assert _check("cli-case-study", fx, summary(2)).passed
    assert not _check("cli-case-study", fx, summary(1)).passed


def test_exceptions_are_recorded_per_job(tmp_path):
    fx = _fixture(_first("design", "lti"), tmp_path)
    fx.data["plant"] = None
    out = jobs.run(fx, {})
    assert not out.passed and out.exc == "AttributeError"
    assert math.isfinite(out.latency_s)


# ---------------------------------------------------------------------------
# CLI jobs


@pytest.mark.parametrize("kind, summary", [("cli-simulate", "summary.json"),
                                           ("cli-lti", "case_study_summary.json")])
def test_cli_rerun_into_same_outdir_is_byte_identical(tmp_path, kind, summary):
    fx = _fixture(_first("design" if kind == "cli-lti" else "dynamics", kind), tmp_path)
    files = ("manifest.json", summary)

    def snapshot():
        out = jobs.run(fx, {})
        assert out.passed, out.exc
        return {name: open(os.path.join(fx.dir, name), "rb").read() for name in files}

    assert snapshot() == snapshot()


def test_setup_sample_reports_times_and_scale(tmp_path):
    src = os.path.join(os.path.dirname(BENCH), "src")
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "setup_probe.py"),
                           "predict", "1", str(tmp_path / "out")],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    values = [float(v) for v in proc.stdout.split()]
    assert len(values) == 3 and all(v > 0.0 for v in values)


def test_refuses_to_run_without_the_sources(tmp_path):
    proc = subprocess.run([sys.executable, RUN, "--workload", "design", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
