"""Command-line front end.

Subcommands: ``passivize`` (index pair to transform + decomposition),
``analyze-lti`` (transfer-function index pipeline), ``simulate`` (network
integration from a JSON spec), ``optimize`` (steady-state prediction via the
dual problems), and ``case-study`` (end-to-end regression runs with pass/fail
summaries).  All outputs are plain CSV/JSON; every run writes a manifest with
a digest of its inputs so reruns are verifiably identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ToolkitError
from .lti import (
    RationalTF,
    eips_indices,
    lambda_search,
    loop_mu,
    tf_passivity_indices,
    transformed_tf,
)
from .network import apply_network_transform, simulate, solve_ofp, solve_opp, spec_from_json
from .pqi import PassivityIndices
from .relations import OF_K_INVERSE, integral_function
from .systems import pendulum_network, unstable_plant_tf
from .transforms import STAGE_REALIZATIONS, Transform2, decompose, passivize


@dataclass
class RunManifest:
    """Reproducibility record: inputs in, files out, nothing time-dependent."""

    command: str
    input_digest: str
    version: str = __version__
    seed: int | None = None
    outputs: list[str] = field(default_factory=list)

    @staticmethod
    def digest(payload: str) -> str:
        return hashlib.sha256(payload.encode()).hexdigest()

    def write(self, outdir: str) -> str:
        return _write_json(os.path.join(outdir, "manifest.json"), self.__dict__)


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _outdir(args) -> str:
    d = args.outdir or "."
    os.makedirs(d, exist_ok=True)
    return d


def _parse_poly(text: str):
    return [float(v) for v in text.split(",")]


def _matrix_list(T: Transform2):
    return [[T.a, T.b], [T.c, T.d]]


def _lti_pipeline(G: RationalTF, lam: float):
    """mu, EIPS indices, passivizing transform, transformed TF, its indices."""
    mu = loop_mu(G, lam)
    idx = eips_indices(G, lam)
    T = passivize(idx, PassivityIndices(0.0, 0.0))
    Gt = transformed_tf(G, T)
    return mu, idx, T, Gt, tf_passivity_indices(Gt)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_passivize(args) -> int:
    source = PassivityIndices(args.rho, args.nu)
    target = PassivityIndices(args.rho_target, args.nu_target)
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
    G = RationalTF.make(_parse_poly(args.num), _parse_poly(args.den))
    if args.lam is not None:
        lam = args.lam
    else:
        grid = (np.asarray(_parse_poly(args.lambda_grid))
                if args.lambda_grid else np.arange(0.0, 11.0))
        lam = lambda_search(G, grid)
    mu, idx, T, Gt, strict = _lti_pipeline(G, lam)
    report = {
        "lambda": lam,
        "mu": mu,
        "rho": idx.rho,
        "nu": idx.nu,
        "transform": _matrix_list(T),
        "transformed_tf": Gt.to_json_dict(),
        "strict_indices": {"rho": strict.rho, "nu": strict.nu},
    }
    print(json.dumps(report, indent=2))
    return 0


def cmd_simulate(args) -> int:
    with open(args.spec) as fh:
        doc = fh.read()
    spec = spec_from_json(doc)
    result = simulate(spec)
    outdir = _outdir(args)
    traj = os.path.join(outdir, "trajectories.csv")
    result.to_csv(traj)
    summary_path = _write_json(os.path.join(outdir, "summary.json"),
                               result.summary_dict())
    manifest = RunManifest("simulate", RunManifest.digest(doc),
                           outputs=[traj, summary_path])
    manifest.write(outdir)
    print(json.dumps(result.summary_dict(), indent=2, sort_keys=True))
    return 0


def cmd_optimize(args) -> int:
    with open(args.spec) as fh:
        doc = fh.read()
    spec = spec_from_json(doc)
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
    manifest = RunManifest("optimize",
                           RunManifest.digest(doc + args.problem),
                           outputs=[out_path])
    manifest.write(outdir)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _check(name, ok, detail, source) -> dict:
    return {"name": name, "passed": bool(ok), "detail": detail,
            "expected_from": source}


def _case_study_lti(outdir: str):
    G = unstable_plant_tf(0.75)
    lam = 4.0
    mu, idx, T, Gt, strict_oracle = _lti_pipeline(G, lam)
    displayed = RationalTF.make([3.0, 2.0, 1.0], [2.0, 2.0, 1.0])
    strict_disp = tf_passivity_indices(displayed)

    checks = [
        _check("mu", abs(mu - 1.0) <= 1e-6, {"got": mu, "want": 1.0},
               "pinned-reference-value"),
        _check("rho", abs(idx.rho + 20.0 / 9.0) <= 1e-6,
               {"got": idx.rho, "want": -20.0 / 9.0}, "pinned-reference-value"),
        _check("nu", abs(idx.nu + 1.0 / 9.0) <= 1e-6,
               {"got": idx.nu, "want": -1.0 / 9.0}, "pinned-reference-value"),
        _check("transform",
               np.allclose(T.matrix(), [[1.0, 4.0], [1.0, 5.0]], atol=1e-9),
               {"got": _matrix_list(T), "want": [[1, 4], [1, 5]]},
               "pinned-reference-value"),
        _check(
            "transformed_tf",
            (np.allclose(Gt.num.coeffs, (1.75, 2.0, 1.0), atol=1e-9)
             and np.allclose(Gt.den.coeffs, (1.0, 2.0, 1.0), atol=1e-9)),
            {"num": list(Gt.num.coeffs), "den": list(Gt.den.coeffs)},
            "independent-oracle",
        ),
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
        "transform": _matrix_list(T),
        "transformed_tf": Gt.to_json_dict(),
        "checks": checks,
    }
    return checks, [_write_json(os.path.join(outdir, "lti_report.json"), report)]


def _cluster_count(values: np.ndarray) -> int:
    """Groups of the sorted values separated by gaps wider than 1."""
    return 1 + int(np.sum(np.diff(np.sort(values)) > 1.0))


def _case_study_gradient_network(outdir: str):
    spec = pendulum_network()
    r1 = 2.5
    T = passivize(PassivityIndices(-r1, 0.0), PassivityIndices(0.0, 0.0))
    transforms = [T] * spec.graph.vertex_count

    tspec = apply_network_transform(spec, transforms)
    sim_t = simulate(tspec)
    opt = solve_opp(tspec)
    gap = float(np.max(np.abs(sim_t.steady_state - opt.primal)))
    sim_u = simulate(spec)
    clusters = _cluster_count(sim_u.steady_state)

    checks = [
        _check("transform",
               _matrix_list(T) == [[1.0, 2.5], [0.0, 1.0]],
               {"got": _matrix_list(T)}, "pinned-reference-value"),
        _check("transformed_consensus_at_zero",
               sim_t.converged
               and float(np.max(np.abs(sim_t.steady_state))) <= 1e-3,
               {"terminal_y": [float(v) for v in sim_t.steady_state],
                "converged": bool(sim_t.converged)},
               "pinned-reference-value"),
        _check("prediction_agreement", gap <= 1e-2,
               {"gap": gap, "predicted": [float(v) for v in opt.primal]},
               "independent-oracle"),
        _check("untransformed_clustering", clusters >= 2,
               {"clusters": clusters,
                "terminal_y": [float(v) for v in sim_u.steady_state]},
               "independent-oracle"),
    ]

    files = []
    rel_path = os.path.join(outdir, "transformed_relation.csv")
    tspec.agents[0].relation.to_csv(rel_path)
    files.append(rel_path)
    pot_path = os.path.join(outdir, "transformed_potential.csv")
    integral_function(tspec.agents[0].relation, OF_K_INVERSE).to_csv(pot_path)
    files.append(pot_path)
    traj_path = os.path.join(outdir, "trajectories_transformed.csv")
    sim_t.to_csv(traj_path)
    files.append(traj_path)
    traj_u_path = os.path.join(outdir, "trajectories_untransformed.csv")
    sim_u.to_csv(traj_u_path)
    files.append(traj_u_path)
    return checks, files


def cmd_case_study(args) -> int:
    outdir = _outdir(args)
    if args.name == "lti":
        checks, files = _case_study_lti(outdir)
        seed = None
    else:
        checks, files = _case_study_gradient_network(outdir)
        seed = 4
    all_pass = all(c["passed"] for c in checks)
    summary = {"case_study": args.name, "passed": all_pass, "checks": checks}
    files.append(_write_json(os.path.join(outdir, "case_study_summary.json"),
                             summary))
    manifest = RunManifest("case-study", RunManifest.digest(args.name),
                           seed=seed, outputs=files)
    manifest.write(outdir)
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
    p.add_argument("--num", required=True,
                   help="ascending comma-separated coefficients")
    p.add_argument("--den", required=True,
                   help="ascending comma-separated coefficients")
    p.add_argument("--lam", type=float, default=None,
                   help="loop gain (searched over a grid when omitted)")
    p.add_argument("--lambda-grid", default=None,
                   help="comma-separated candidate loop gains")
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

    p = sub.add_parser("case-study", help="end-to-end regression runs")
    p.add_argument("name", choices=("lti", "gradient-network"))
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
