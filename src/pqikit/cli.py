"""Command-line front end.

Subcommands: ``passivize`` (index pair to transform + decomposition),
``analyze-lti`` (transfer-function index pipeline), ``simulate`` (network
integration from a JSON spec), ``optimize`` (steady-state prediction via the
dual problems), and ``case-study`` (the worked examples as end-to-end
regression runs with pass/fail summaries).  All outputs are plain CSV/JSON;
every run that writes files writes a manifest with a digest of its inputs so
reruns are verifiably identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import ToolkitError, _floats
from .lti import (
    RationalTF,
    _indices_from_mu,
    lambda_search,
    loop_mu,
    tf_passivity_indices,
    transformed_tf,
)
from .network import predict_and_verify, simulate, solve_ofp, solve_opp, spec_from_json
from .pqi import PassivityIndices, pullback
from .relations import OF_K_INVERSE, IntegralFunction, integral_function, legendre
from .systems import pendulum_network, quadratic_network, unstable_plant_tf
from .transforms import STAGE_REALIZATIONS, decompose, passivize


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_manifest(outdir: str, command: str, payload: str, outputs, seed):
    """Reproducibility record: inputs in, files out, nothing time-dependent."""
    _write_json(os.path.join(outdir, "manifest.json"), {
        "command": command,
        "input_digest": hashlib.sha256(payload.encode()).hexdigest(),
        "version": __version__,
        "seed": seed,
        "outputs": outputs,
    })


def _outdir(args) -> str:
    d = args.outdir or "."
    os.makedirs(d, exist_ok=True)
    return d


def _float_list(text: str) -> np.ndarray:
    """The ``type`` of a list flag: comma-separated finite floats, refused as
    ArgumentTypeError so argparse names the flag of a malformed list."""
    try:
        return _floats(text.split(","), "list", (None,))
    except ToolkitError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_spec(path: str):
    """The spec file's text and the NetworkSpec it describes."""
    with open(path) as fh:
        doc = fh.read()
    return doc, spec_from_json(doc)


def _lti_pipeline(G: RationalTF, lam: float):
    """mu, EIPS indices, passivizing transform, transformed TF, its indices."""
    mu = loop_mu(G, lam)
    idx = _indices_from_mu(lam, mu)
    T = passivize(idx, PassivityIndices(0.0, 0.0))
    Gt = transformed_tf(G, T)
    return mu, idx, T, Gt, tf_passivity_indices(Gt)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_passivize(args) -> int:
    source = PassivityIndices(args.rho, args.nu)
    try:
        target = PassivityIndices(args.rho_target, args.nu_target)
    except ToolkitError as exc:
        raise type(exc)(f"target (--rho-target, --nu-target): {exc}") from exc
    T = passivize(source, target)
    dec = decompose(T)
    print("transform:")
    print(f"  [[{T.a:g}, {T.b:g}],")
    print(f"   [{T.c:g}, {T.d:g}]]")
    print("decomposition:")
    for name, label in STAGE_REALIZATIONS.items():
        print(f"  {name} = {getattr(dec, name):g}  ({label})")
    if dec.column_swapped:
        print("  (columns swapped before factoring)")
    return 0


def cmd_analyze_lti(args) -> int:
    G = RationalTF.make(args.num, args.den)
    lam = args.lam if args.lam is not None else lambda_search(G, args.lambda_grid)
    mu, idx, T, Gt, strict = _lti_pipeline(G, lam)
    report = {
        "lambda": lam,
        "mu": mu,
        "rho": idx.rho,
        "nu": idx.nu,
        "transform": T.matrix().tolist(),
        "transformed_tf": Gt.to_json_dict(),
        "strict_indices": {"rho": strict.rho, "nu": strict.nu},
    }
    print(json.dumps(report, indent=2))
    return 0


def cmd_simulate(args) -> int:
    doc, spec = _read_spec(args.spec)
    result = simulate(spec)
    outdir = _outdir(args)
    traj = os.path.join(outdir, "trajectories.csv")
    result.to_csv(traj)
    summary_path = _write_json(os.path.join(outdir, "summary.json"),
                               result.summary_dict())
    _write_manifest(outdir, "simulate", doc, [traj, summary_path], None)
    print(json.dumps(result.summary_dict(), indent=2, sort_keys=True))
    return 0


def cmd_optimize(args) -> int:
    doc, spec = _read_spec(args.spec)
    solver = solve_opp if args.problem == "opp" else solve_ofp
    result = solver(spec)
    report = {
        "problem": args.problem,
        "objective": result.objective,
        "primal": [float(v) for v in result.primal],
        "coupling": [float(v) for v in result.coupling],
        "iterations": result.iterations,
        "residual": result.residual,
    }
    outdir = _outdir(args)
    out_path = _write_json(os.path.join(outdir, f"optimize_{args.problem}.json"),
                           report)
    _write_manifest(outdir, "optimize", doc + args.problem, [out_path], None)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _check(name, ok, detail, source) -> dict:
    return {"name": name, "passed": bool(ok), "detail": detail,
            "expected_from": source}


def _case_study_lti(outdir: str):
    G = unstable_plant_tf()
    lam = 4.0
    mu, idx, T, Gt, strict_oracle = _lti_pipeline(G, lam)
    displayed = RationalTF.make([3.0, 2.0, 1.0], [2.0, 2.0, 1.0])
    strict_disp = tf_passivity_indices(displayed)
    # T carries the plant's PQI onto the passivity PQI, up to a positive factor
    carried = pullback(idx.pqi(), T).normalized().coeffs
    passive = PassivityIndices(0.0, 0.0).pqi().normalized().coeffs

    checks = [
        _check("mu", abs(mu - 1.0) <= 1e-6, {"got": mu, "want": 1.0},
               "pinned-reference-value"),
        _check("rho", abs(idx.rho + 20.0 / 9.0) <= 1e-6,
               {"got": idx.rho, "want": -20.0 / 9.0}, "pinned-reference-value"),
        _check("nu", abs(idx.nu + 1.0 / 9.0) <= 1e-6,
               {"got": idx.nu, "want": -1.0 / 9.0}, "pinned-reference-value"),
        _check("transform",
               np.allclose(T.matrix(), [[1.0, 4.0], [1.0, 5.0]], atol=1e-9),
               {"got": T.matrix().tolist(), "want": [[1, 4], [1, 5]]},
               "pinned-reference-value"),
        _check(
            "transformed_tf",
            (np.allclose(Gt.num.coeffs, (1.75, 2.0, 1.0), atol=1e-9)
             and np.allclose(Gt.den.coeffs, (1.0, 2.0, 1.0), atol=1e-9)),
            {"num": list(Gt.num.coeffs), "den": list(Gt.den.coeffs)},
            "independent-oracle",
        ),
        _check("pullback_onto_target",
               float(np.abs(carried - passive).max()) <= 1e-9,
               {"got": carried.tolist(), "want": passive.tolist()},
               "independent-oracle"),
        _check(
            "strict_indices_displayed_variant",
            abs(strict_disp.nu - 0.9) <= 0.02
            and abs(strict_disp.rho - 2.0 / 3.0) <= 0.02,
            {"nu": strict_disp.nu, "rho": strict_disp.rho},
            "pinned-reference-value",
        ),
        _check(
            "strict_indices_positive",
            strict_oracle.nu > 0.0 and strict_oracle.rho > 0.0,
            {"nu": strict_oracle.nu, "rho": strict_oracle.rho},
            "independent-oracle",
        ),
    ]
    report = {
        "lambda": lam,
        "transform": T.matrix().tolist(),
        "transformed_tf": Gt.to_json_dict(),
        "checks": checks,
    }
    return checks, [_write_json(os.path.join(outdir, "lti_report.json"), report)]


def _cluster_count(values: np.ndarray) -> int:
    """Groups of the sorted values separated by gaps wider than 1."""
    return 1 + int(np.sum(np.diff(np.sort(values)) > 1.0))


def _case_study_gradient_network(outdir: str):
    spec = pendulum_network()
    T = passivize(PassivityIndices(-2.5, 0.0), PassivityIndices(0.0, 0.0))
    report = predict_and_verify(spec, [T] * spec.graph.vertex_count)
    sim_t = report.simulation
    sim_u = simulate(spec)
    clusters = _cluster_count(sim_u.steady_state)

    checks = [
        _check("transform",
               T.matrix().tolist() == [[1.0, 2.5], [0.0, 1.0]],
               {"got": T.matrix().tolist()}, "pinned-reference-value"),
        _check("transformed_consensus_at_zero",
               sim_t.converged
               and float(np.max(np.abs(sim_t.steady_state))) <= 1e-3,
               {"terminal_y": [float(v) for v in sim_t.steady_state],
                "converged": bool(sim_t.converged)},
               "pinned-reference-value"),
        _check("prediction_agreement", report.gap <= report.tolerance,
               {"gap": report.gap,
                "predicted": [float(v) for v in report.prediction.primal]},
               "independent-oracle"),
        _check("untransformed_clustering", clusters >= 2,
               {"clusters": clusters,
                "terminal_y": [float(v) for v in sim_u.steady_state]},
               "independent-oracle"),
    ]

    files = [os.path.join(outdir, name) for name in (
        "transformed_relation.csv", "transformed_potential.csv",
        "trajectories_transformed.csv", "trajectories_untransformed.csv")]
    relation = report.spec.agents[0].relation
    relation.to_csv(files[0])
    integral_function(relation, OF_K_INVERSE).to_csv(files[1])
    sim_t.to_csv(files[2])
    sim_u.to_csv(files[3])
    return checks, files


def _case_study_duality(outdir: str):
    """Both dual problems of the two-agent quadratic network, on node
    potentials sampled at 200001 points of [-5, 5] and their Legendre duals."""
    spec = quadratic_network()
    fine = np.linspace(-5.0, 5.0, 200001)
    pots = [IntegralFunction.from_function(lambda y: 0.5 * (y - c) ** 2, fine)
            for c in (1.0, 3.0)]
    opp = solve_opp(spec, node_potentials=pots)
    ofp = solve_ofp(spec, node_potentials=[legendre(p, fine) for p in pots])
    sim = simulate(spec)
    gap = abs(opp.objective + ofp.objective)
    error = float(np.max(np.abs(opp.primal - sim.steady_state)))
    report = {
        "grid_points": len(fine),
        "opp_objective": opp.objective,
        "ofp_objective": ofp.objective,
        "duality_gap": gap,
        "opp_primal": [float(v) for v in opp.primal],
        "ofp_coupling": [float(v) for v in ofp.coupling],
        "simulated_steady_state": [float(v) for v in sim.steady_state],
        "prediction_error": error,
    }
    checks = [
        _check("duality_gap", gap <= 1e-10, {"gap": gap}, "independent-oracle"),
        _check("prediction_agreement", error <= 1e-5, {"error": error},
               "independent-oracle"),
    ]
    return checks, [_write_json(os.path.join(outdir, "duality_report.json"), report)]


# name: (study, seed of its fixture or None)
CASE_STUDIES = {
    "lti": (_case_study_lti, None),
    "gradient-network": (_case_study_gradient_network, 4),
    "duality": (_case_study_duality, None),
}


def cmd_case_study(args) -> int:
    outdir = _outdir(args)
    study, seed = CASE_STUDIES[args.name]
    checks, files = study(outdir)
    all_pass = all(c["passed"] for c in checks)
    summary = {"case_study": args.name, "passed": all_pass, "checks": checks}
    files.append(_write_json(os.path.join(outdir, "case_study_summary.json"),
                             summary))
    _write_manifest(outdir, "case-study", args.name, files, seed)
    for c in checks:
        print(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqikit",
        description="Passivation and steady-state analysis toolkit",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("passivize",
                       help="transform an index pair to a target pair")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--rho-target", type=float, default=0.0)
    p.add_argument("--nu-target", type=float, default=0.0)
    p.set_defaults(fn=cmd_passivize)

    p = sub.add_parser("analyze-lti",
                       help="index pipeline for a rational transfer function")
    p.add_argument("--num", type=_float_list, required=True,
                   help="ascending comma-separated coefficients")
    p.add_argument("--den", type=_float_list, required=True,
                   help="ascending comma-separated coefficients")
    p.add_argument("--lam", type=float, default=None,
                   help="loop gain (searched over a grid when omitted)")
    p.add_argument("--lambda-grid", type=_float_list, default=np.arange(0.0, 11.0),
                   help="comma-separated candidate loop gains (default 0, 1, ..., 10)")
    p.set_defaults(fn=cmd_analyze_lti)

    p = sub.add_parser("simulate", help="integrate a network from a JSON spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--outdir", default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("optimize",
                       help="steady-state prediction via the dual problems")
    p.add_argument("--spec", required=True)
    p.add_argument("--problem", choices=("opp", "ofp"), default="opp")
    p.add_argument("--outdir", default=None)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("case-study", help="the worked examples, end to end")
    p.add_argument("name", choices=tuple(CASE_STUDIES))
    p.add_argument("--outdir", default=None)
    p.set_defaults(fn=cmd_case_study)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ToolkitError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
