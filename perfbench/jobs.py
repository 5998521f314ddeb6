"""Fixtures, runners and closed-form oracles for every job kind.

``build`` turns a generated job into the objects handed to the program
(specs, agents, plants, grids, spec files); it runs during set-up.
``run`` calls the program, timing only those calls, then compares the
outputs with an oracle that does not use the code under test.
Program functions are always looked up on their module at call time, so the
span recorder in ``tracing.py`` sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from pqikit import cli, lti, network, relations, systems, transforms
from pqikit.pqi import PassivityIndices

SIM_TOL_CONSENSUS = 1e-3      # transformed networks: |y|_inf at the end
SIM_TOL_EQUILIBRIUM = 1e-5    # untransformed: |r1 sin y + r2 y - u|
PREDICT_TOL = 1e-2            # the toolkit's own prediction tolerance
DUALITY_JOB_GAP_TOL = 1e-6    # acceptance criterion 8 at the same grid
MU_RTOL = 1e-6
STRICT_INDEX_FLOOR = -1e-6
RECONSTRUCTION_RTOL = 1e-12
LAMBDA_GRID = tuple(float(v) for v in range(11))
DUALITY_GRID_POINTS = 200_001
DUALITY_CENTERS = (1.0, 3.0)
CERT_TRIALS = 10              # the certificate's cost is per RK4 step, barely per trial
PASSIVE = PassivityIndices(0.0, 0.0)


@dataclass
class Outcome:
    """One job's verdict.

    ``errors`` holds oracle errors by metric name; ``output`` holds the
    numbers (or text) the program returned, compared exactly between rounds
    and between the traced and untraced runs.
    """

    passed: bool = False
    latency_s: float = 0.0
    errors: dict = field(default_factory=dict)
    output: tuple = ()
    exc: str | None = None
    bytes_written: int = 0


class Fixture:
    """Inputs built for one job; ``error`` keeps a failure raised while building."""

    def __init__(self, job: dict, index: int, outdir: str):
        self.job = job
        self.dir = os.path.join(outdir, f"job{index:04d}")
        self.error: Exception | None = None
        self.data: dict = {}


# ---------------------------------------------------------------------------
# Closed-form oracles


def closed_form_steady_state(edges, gains, centers):
    """y* = (I + E G E^T)^-1 c and u* = -E G E^T y* for quadratic agents."""
    n = len(centers)
    E = np.zeros((n, len(edges)))
    for e, (h, t) in enumerate(edges):
        E[h, e], E[t, e] = 1.0, -1.0
    M = E @ np.diag(gains) @ E.T
    y = np.linalg.solve(np.eye(n) + M, np.asarray(centers, dtype=float))
    return y, -M @ y


def second_order_mu(k: float, a: float, c: float) -> float:
    """mu = peak gain of k/(s^2 + a s + c) plus 1/4, for a, c > 0."""
    if a * a < 2.0 * c:
        peak = k / (a * math.sqrt(c - a * a / 4.0))
    else:
        peak = k / c
    return peak + 0.25


def pendulum_residual(r1, r2, y, u) -> float:
    y, u = np.asarray(y, dtype=float), np.asarray(u, dtype=float)
    return float(np.max(np.abs(r1 * np.sin(y) + r2 * y - u)))


def relative_error(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1.0)


# ---------------------------------------------------------------------------
# Fixture construction


def _pendulum_spec(job: dict):
    n = job["n"]
    graph = network.Graph(n, tuple((h, t) for h, t in job["edges"]))
    agents = tuple(systems.pendulum_gradient_agent(job["r1"], job["r2"])
                   for _ in range(n))
    ctrl = tuple(network.ControllerSpec(gain=g) for g in job["gains"])
    spec = network.NetworkSpec(graph, agents, ctrl, np.asarray(job["x0"]),
                               network.IntegratorConfig())
    if job.get("transformed"):
        shear = transforms.Transform2(1.0, job["r1"], 0.0, 1.0)
        spec = network.apply_network_transform(spec, [shear] * n)
    return spec


def _quadratic_spec(job: dict):
    n = job["n"]
    graph = network.Graph(n, tuple((h, t) for h, t in job["edges"]))
    agents = tuple(systems.quadratic_agent(c) for c in job["centers"])
    ctrl = tuple(network.ControllerSpec(gain=g) for g in job["gains"])
    return network.NetworkSpec(graph, agents, ctrl, np.zeros(n))


def _agent(job: dict):
    if job["agent"] == "pendulum-gradient":
        return systems.pendulum_gradient_agent(job["r1"], job["r2"])
    return systems.AGENT_REGISTRY[job["agent"]]()


def _build_cli_simulate(fx: Fixture):
    job = fx.job
    doc = {
        "graph": {"vertices": job["n"], "edges": job["edges"]},
        "agents": {"kind": "pendulum-gradient",
                   "params": {"r1": job["r1"], "r2": job["r2"]}},
        "controllers": [{"gain": g} for g in job["gains"]],
        "x0": job["x0"],
    }
    os.makedirs(fx.dir, exist_ok=True)
    fx.data["spec_path"] = fx.dir + ".spec.json"
    with open(fx.data["spec_path"], "w") as fh:
        json.dump(doc, fh)


def _build_synthesis(fx: Fixture):
    job = fx.job
    agent = _agent(job)
    if job["agent"] == "pendulum-gradient":
        indices = PassivityIndices(-job["r1"], 0.0)
        expected = [[1.0, job["r1"]], [0.0, 1.0]]
    elif job["agent"] == "odd-cubic":
        indices, expected = agent.indices, [[1.0, 1.0], [0.0, 1.0]]
    else:
        indices, expected = agent.indices, [[1.0, 1.0], [1.0, 2.0]]
    fx.data.update(agent=agent, indices=indices, expected=expected)


def _build(fx: Fixture):
    job, kind = fx.job, fx.job["kind"]
    if kind == "simulate":
        fx.data["spec"] = _pendulum_spec(job)
    elif kind == "cli-simulate":
        _build_cli_simulate(fx)
    elif kind in ("cli-case-study", "cli-lti"):
        os.makedirs(fx.dir, exist_ok=True)
    elif kind == "certificate":
        fx.data["agent"] = _agent(job)
        fx.data["transform"] = transforms.Transform2.from_matrix(job["transform"])
    elif kind == "relation":
        fx.data["agent"] = systems.pendulum_gradient_agent(job["r1"], job["r2"])
    elif kind in ("opp", "ofp"):
        fx.data["spec"] = _quadratic_spec(job)
        fx.data["key"] = json.dumps([job["edges"], job["centers"]])
        fx.data["want"] = closed_form_steady_state(
            job["edges"], job["gains"], job["centers"])
    elif kind == "duality":
        fx.data["spec"] = systems.quadratic_network(DUALITY_CENTERS)
        fx.data["grid"] = np.linspace(-5.0, 5.0, DUALITY_GRID_POINTS)
        fx.data["want"] = closed_form_steady_state([[0, 1]], [1.0], DUALITY_CENTERS)
    elif kind == "lti":
        a, alpha = job["a"], job["alpha"]
        fx.data["plant"] = lti.RationalTF.make(
            [job["k"]], [job["b"], a * alpha, alpha * alpha])
    elif kind == "synthesis":
        _build_synthesis(fx)
    elif kind == "decompose":
        fx.data["transforms"] = [transforms.Transform2(*v) for v in job["draws"]]
    else:
        raise ValueError(f"unknown job kind {kind!r}")


def build(jobs: list[dict], outdir: str) -> list[Fixture]:
    """Fixtures for a job list; a job whose inputs fail to build fails when run."""
    fixtures = []
    for i, job in enumerate(jobs):
        fx = Fixture(job, i, outdir)
        try:
            _build(fx)
        except Exception as exc:  # recorded, reported as that job's failure
            fx.error = exc
        fixtures.append(fx)
    return fixtures


# ---------------------------------------------------------------------------
# Program calls: each returns what the program produced


def _timed(out: Outcome, fn, *args, **kwargs):
    """Call the program, adding the time spent to the job's latency."""
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        out.latency_s += time.perf_counter() - t0


def _cli(fx: Fixture, out: Outcome, argv, summary_name):
    """Run ``pqikit`` in-process (stdout discarded); (exit code, summary)."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = _timed(out, cli.main, argv + ["--outdir", fx.dir])
    out.bytes_written = sum(os.path.getsize(os.path.join(fx.dir, f))
                            for f in os.listdir(fx.dir))
    with open(os.path.join(fx.dir, summary_name)) as fh:
        return rc, json.load(fh)


def _call_simulate(fx, out):
    return _timed(out, network.simulate, fx.data["spec"])


def _call_cli_simulate(fx, out):
    return _cli(fx, out, ["simulate", "--spec", fx.data["spec_path"]], "summary.json")


def _call_cli_case_study(fx, out):
    return _cli(fx, out, ["case-study", "gradient-network"], "case_study_summary.json")


def _call_cli_lti(fx, out):
    return _cli(fx, out, ["case-study", "lti"], "case_study_summary.json")


def _call_certificate(fx, out):
    return _timed(out, transforms.verify_passivation, fx.data["agent"],
                  fx.data["transform"], PASSIVE, trials=CERT_TRIALS,
                  seed=fx.job["seed"])


def _call_relation(fx, out):
    return _timed(out, fx.data["agent"].check_relation)


def _call_opp(fx, out):
    return _timed(out, network.solve_opp, fx.data["spec"])


def _call_ofp(fx, out):
    return _timed(out, network.solve_ofp, fx.data["spec"])


def _duality_calls(spec, grid):
    pots = [relations.IntegralFunction.from_function(
                lambda y, c=c: 0.5 * (y - c) ** 2, grid) for c in DUALITY_CENTERS]
    opp = network.solve_opp(spec, grid=grid, node_potentials=pots)
    duals = [relations.legendre(p, grid) for p in pots]
    ofp = network.solve_ofp(spec, grid=grid, node_potentials=duals)
    return opp, ofp


def _call_duality(fx, out):
    return _timed(out, _duality_calls, fx.data["spec"], fx.data["grid"])


def _lti_calls(G):
    lam = lti.lambda_search(G, LAMBDA_GRID)
    mu = lti.loop_mu(G, lam)
    idx = lti.eips_indices(G, lam)
    T = transforms.passivize(idx, PASSIVE)
    strict = lti.tf_passivity_indices(lti.transformed_tf(G, T))
    return lam, mu, strict


def _call_lti(fx, out):
    return _timed(out, _lti_calls, fx.data["plant"])


def _synthesis_calls(agent, indices):
    T = transforms.passivize(indices)
    dec = transforms.decompose(T)
    rel = relations.transform_relation(agent.relation, T)
    monotone = relations.is_maximal_monotone(rel)
    F = relations.integral_function(rel, relations.OF_K_INVERSE)
    return T, dec, monotone, F


def _call_synthesis(fx, out):
    return _timed(out, _synthesis_calls, fx.data["agent"], fx.data["indices"])


def _decompose_all(ts):
    return [transforms.decompose(T) for T in ts]


def _call_decompose(fx, out):
    return _timed(out, _decompose_all, fx.data["transforms"])


# ---------------------------------------------------------------------------
# Oracle checks: each sets out.passed, out.errors and out.output


def check_simulate(fx, res, out, memo):
    job = fx.job
    y, u = res.steady_state, res.u[-1]
    if job["transformed"]:
        share = float(np.max(np.abs(y))) / SIM_TOL_CONSENSUS
    else:
        share = pendulum_residual(job["r1"], job["r2"], y, u) / SIM_TOL_EQUILIBRIUM
    out.errors["sim_err_max"] = share
    out.output = (bool(res.converged), float(res.t[-1]), *map(float, y), *map(float, u))
    out.passed = bool(res.converged) and share <= 1.0


def check_cli_simulate(fx, res, out, memo):
    rc, summary = res
    share = pendulum_residual(fx.job["r1"], fx.job["r2"], summary["steady_state_y"],
                              summary["terminal_u"]) / SIM_TOL_EQUILIBRIUM
    out.errors["sim_err_max"] = share
    out.output = (rc, json.dumps(summary, sort_keys=True))
    out.passed = rc == 0 and summary["converged"] and share <= 1.0


def check_cli_case_study(fx, res, out, memo):
    rc, summary = res
    checks = {c["name"]: c for c in summary["checks"]}
    terminal = checks["transformed_consensus_at_zero"]["detail"]["terminal_y"]
    clusters = checks["untransformed_clustering"]["detail"]["clusters"]
    out.errors["sim_err_max"] = float(np.max(np.abs(terminal))) / SIM_TOL_CONSENSUS
    out.output = (rc, json.dumps(summary, sort_keys=True))
    out.passed = (rc == 0 and len(checks) == 4
                  and all(c["passed"] for c in checks.values()) and clusters >= 2)


def check_cli_lti(fx, res, out, memo):
    rc, summary = res
    out.output = (rc, json.dumps(summary, sort_keys=True))
    out.passed = rc == 0 and summary["passed"]


def check_certificate(fx, report, out, memo):
    out.output = (float(report.max_violation), len(report.equilibria))
    if fx.job["expect_pass"]:
        out.passed = report.passed
    else:
        out.passed = not report.passed and report.max_violation > 0.0


def check_relation(fx, ok, out, memo):
    out.output = (bool(ok),)
    out.passed = bool(ok)


def check_opp(fx, res, out, memo):
    memo[fx.data["key"]] = float(res.objective)
    err = float(np.max(np.abs(res.primal - fx.data["want"][0])))
    out.errors["opp_err_max"] = err
    out.output = (float(res.objective), *map(float, res.primal))
    out.passed = err <= PREDICT_TOL


def check_ofp(fx, res, out, memo):
    err = float(np.max(np.abs(res.primal - fx.data["want"][1])))
    gap = abs(memo.pop(fx.data["key"], math.inf) + float(res.objective))
    out.errors.update(ofp_err_max=err, duality_gap_max=gap)
    out.output = (float(res.objective), *map(float, res.primal))
    out.passed = err <= PREDICT_TOL and gap <= PREDICT_TOL


def check_duality(fx, res, out, memo):
    opp, ofp = res
    y_want, u_want = fx.data["want"]
    opp_err = float(np.max(np.abs(opp.primal - y_want)))
    ofp_err = float(np.max(np.abs(ofp.primal - u_want)))
    gap = abs(float(opp.objective) + float(ofp.objective))
    out.errors.update(opp_err_max=opp_err, ofp_err_max=ofp_err, duality_gap_max=gap)
    out.output = (float(opp.objective), float(ofp.objective),
                  *map(float, opp.primal), *map(float, ofp.primal))
    out.passed = (opp_err <= PREDICT_TOL and ofp_err <= PREDICT_TOL
                  and gap <= DUALITY_JOB_GAP_TOL)


def check_lti(fx, res, out, memo):
    lam, mu, strict = res
    k, a, b = fx.job["k"], fx.job["a"], fx.job["b"]
    best = min(second_order_mu(k, a, b + g * k) for g in LAMBDA_GRID if b + g * k > 0.0)
    c = b + lam * k
    want = second_order_mu(k, a, c) if c > 0.0 else math.inf
    err = abs(mu - want) / want
    out.errors["mu_err_max"] = err
    out.output = (lam, float(mu), float(strict.rho), float(strict.nu))
    out.passed = (want <= best * (1.0 + MU_RTOL) and err <= MU_RTOL
                  and strict.rho >= STRICT_INDEX_FLOOR
                  and strict.nu >= STRICT_INDEX_FLOOR)


def check_synthesis(fx, res, out, memo):
    T, dec, monotone, F = res
    t_err = relative_error(T.matrix(), fx.data["expected"])
    recon = relative_error(dec.reconstruct(), T.matrix())
    out.output = (*map(float, T.matrix().ravel()), *map(float, dec.reconstruct().ravel()),
                  bool(monotone), bool(F.convexity_certificate))
    out.passed = (t_err <= RECONSTRUCTION_RTOL and recon <= RECONSTRUCTION_RTOL
                  and bool(monotone) and bool(F.convexity_certificate))


def check_decompose(fx, decs, out, memo):
    ts = fx.data["transforms"]
    worst = max(relative_error(d.reconstruct(), T.matrix()) for d, T in zip(decs, ts))
    out.output = tuple(float(v) for d in decs for v in d.reconstruct().ravel())
    out.passed = worst <= RECONSTRUCTION_RTOL


KINDS = {
    "simulate": (_call_simulate, check_simulate),
    "cli-simulate": (_call_cli_simulate, check_cli_simulate),
    "cli-case-study": (_call_cli_case_study, check_cli_case_study),
    "cli-lti": (_call_cli_lti, check_cli_lti),
    "certificate": (_call_certificate, check_certificate),
    "relation": (_call_relation, check_relation),
    "opp": (_call_opp, check_opp),
    "ofp": (_call_ofp, check_ofp),
    "duality": (_call_duality, check_duality),
    "lti": (_call_lti, check_lti),
    "synthesis": (_call_synthesis, check_synthesis),
    "decompose": (_call_decompose, check_decompose),
}


def run(fx: Fixture, memo: dict) -> Outcome:
    """Run one job and check it; an exception fails the job and is recorded.

    ``memo`` carries results between jobs of one round (OPP objectives for
    the duality check of the matching OFP job).
    """
    out = Outcome()
    try:
        if fx.error is not None:
            raise fx.error
        call, check = KINDS[fx.job["kind"]]
        check(fx, call(fx, out), out, memo)
    except Exception as exc:  # a failing job must not end the run
        out.passed = False
        out.exc = type(exc).__name__
    return out
