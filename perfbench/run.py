"""pqikit benchmark: seeded, oracle-checked job streams.

Run from the repository root:

    python3 perfbench/run.py --workload dynamics --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``dynamics``: network simulation, dissipation certificates, relation
  checks and the gradient-network case study through the CLI.
* ``predict``: steady-state prediction with ``solve_opp``/``solve_ofp``
  and the duality experiment at its default grid.
* ``design``: many small LTI, synthesis and ``decompose`` jobs.

Each run is one closed-loop client in this process: the next job starts
only after the previous one has returned and been checked against its
oracle.  The seeded job list is one round; a run makes as many rounds as
``--seconds`` holds at each workload's nominal round time.  With
``--trace 1`` the untraced rounds are followed by one traced round, which
reports per-layer numbers and the cost of tracing.  Job times are put on
a common machine-speed scale (``speed.py``).
The last line of stdout is the result; the line before it holds details
(environment, per-kind failures, accuracy, tail percentile, raw times).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "setup_probe.py")
SETUP_REPEATS = 7
# speed-scaled seconds one round takes at the commit that defined the
# benchmark; the round count follows from --seconds and these alone, so it
# does not change with the machine's speed or with the code under test
ROUND_S = {"dynamics": 29.0, "predict": 18.0, "design": 13.0}
TAIL_BEYOND = 10
OUTDIR = os.path.join("perfbench", ".out")
# bytecode for the set-up samples, kept between runs; see ``setup_sample``
PYCACHE = os.path.join(OUTDIR, "pycache")

# name, unit; BENCHMARK.json adds the direction and bound of each
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("passed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)
# worst oracle error among passing jobs, by the unit each oracle uses
ACCURACY = {"sim_err_max": "ratio", "opp_err_max": "1", "ofp_err_max": "1",
            "duality_gap_max": "1", "mu_err_max": "ratio"}


class Round:
    """One pass over the job list, with each job's latency on the speed scale."""

    def __init__(self, outcomes, windows, scales):
        self.outcomes = outcomes
        self.raw_s = sum(t1 - t0 for t0, t1 in windows)
        self.wall_s = sum((t1 - t0) * f for (t0, t1), f in zip(windows, scales))
        self.latencies = [o.latency_s * f for o, f in zip(outcomes, scales)]
        self.scale = statistics.median(scales)


def run_round(jobs_mod, fixtures, probe, tracer=None) -> Round:
    """Run every job in order; ``probe`` runs between jobs, untimed."""
    memo: dict = {}
    outcomes, windows = [], []
    for fx in fixtures:
        probe.maybe_sample()
        t0 = time.perf_counter()
        if tracer is None:
            outcomes.append(jobs_mod.run(fx, memo))
        else:
            with tracer.root("job"):
                outcomes.append(jobs_mod.run(fx, memo))
        windows.append((t0, time.perf_counter()))
    probe.sample()
    return Round(outcomes, windows, [probe.local_scale(t0, t1) for t0, t1 in windows])


def setup_sample(workload: str, seed: int, outdir: str) -> tuple[float, float, float]:
    """(import s, generate-and-build s, speed scale) from a fresh interpreter.

    The interpreter reads all bytecode from ``PYCACHE`` (the environment
    sets ``PYTHONPYCACHEPREFIX``), so whether ``src/pqikit/__pycache__``
    exists or is stale in the checkout does not change the time.
    """
    proc = subprocess.run([sys.executable, SETUP_PROBE, workload, str(seed), outdir],
                          check=True, capture_output=True, text=True, timeout=120)
    return tuple(float(v) for v in proc.stdout.split()[-3:])


def set_up(workload: str, seed: int, outdir: str):
    """(job list, fixtures, set-up record).

    ``setup_s`` is the median over ``SETUP_REPEATS`` fresh interpreters of
    import plus input generation plus fixture construction, each put on the
    speed scale by a loop timed in its own interpreter (``setup_probe.py``).
    An untimed sample first fills ``PYCACHE`` (a first run in a checkout
    compiles numpy and scipy into it) or refreshes what ``src/`` changed;
    the timed ones only read it.  This process then imports and builds
    untimed, reading bytecode from where it always does, so scipy modules
    that jobs load lazily cost what they did before.
    """
    os.environ["PYTHONPYCACHEPREFIX"] = os.path.abspath(PYCACHE)
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    setup_sample(workload, seed, outdir)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    samples = [setup_sample(workload, seed, outdir) for _ in range(SETUP_REPEATS)]
    record = {
        "import_raw_s": [s[0] for s in samples],
        "build_raw_s": [s[1] for s in samples],
        "speed_scale": [s[2] for s in samples],
        "setup_s": statistics.median((imp + build) * scale
                                     for imp, build, scale in samples),
    }
    sys.dont_write_bytecode = True
    import numpy, scipy, pqikit, pqikit.cli, pqikit.systems  # noqa: E401,F401
    import gen
    import jobs as jobs_mod
    job_list = gen.generate(workload, seed)
    return job_list, jobs_mod.build(job_list, outdir), record


def environment(root: str) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        commit = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                                capture_output=True, text=True, timeout=30)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    pkg = os.path.join(root, "src", "pqikit")
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "git_commit": commit, "src_pqikit_lines": lines}


def per_layer(tracer, outcomes, scale, overhead_s, overhead_raw_s) -> dict:
    """Layer metrics of the traced round; times are speed-scaled like wall_s."""
    layers = tracer.layers()
    for agg in layers.values():
        agg["self_s"] *= scale

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    sim_s, steps, f_evals = (get("network.simulate", k) for k in ("self_s", "work", "f_evals"))
    m["network.simulate.self_s"] = (sim_s, "s")
    m["network.simulate.steps"] = (steps, "count")
    m["network.simulate.us_per_step"] = (ratio(sim_s * 1e6, steps), "us")
    m["network.simulate.f_evals"] = (f_evals, "count")
    m["network.simulate.us_per_f_eval"] = (ratio(sim_s * 1e6, f_evals), "us")
    for name in ("transforms.verify_passivation", "transforms.find_equilibria",
                 "network.check_relation"):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
        m[f"{name}.f_evals"] = (get(name, "f_evals"), "count")
    m["transforms.find_equilibria.roots"] = (get("transforms.find_equilibria", "work"),
                                             "count")
    m["cli.main.self_s"] = (get("cli.main", "self_s"), "s")
    m["cli.bytes_written"] = (sum(o.bytes_written for o in outcomes), "count")
    m["network.spec_from_json.self_s"] = (get("network.spec_from_json", "self_s"), "s")
    for name in ("network.solve_opp", "network.solve_ofp"):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
        m[f"{name}.iterations"] = (get(name, "work"), "count")
    for name in ("relations.integral_function", "relations.legendre"):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
        m[f"{name}.points"] = (get(name, "work"), "count")
    linf_calls, linf_s = get("lti.linf_norm", "calls"), get("lti.linf_norm", "self_s")
    from_search, linf_jobs = tracer.linf_norm_use()
    m["lti.linf_norm.calls"] = (linf_calls, "count")
    m["lti.linf_norm.self_s"] = (linf_s, "s")
    m["lti.linf_norm.us_per_call"] = (ratio(linf_s * 1e6, linf_calls), "us")
    m["lti.linf_norm.calls_per_job"] = (ratio(linf_calls, linf_jobs), "count")
    m["lti.lambda_search.self_s"] = (get("lti.lambda_search", "self_s"), "s")
    m["lti.lambda_search.admissible_ratio"] = (
        ratio(from_search, get("lti.lambda_search", "work")), "ratio")
    for name in ("lti.tf_passivity_indices", "lti.RationalTF.make",
                 "relations.transform_relation", "relations.is_maximal_monotone",
                 "relations.is_cursive", "transforms.passivize", "transforms.decompose"):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    m["pqi.boundary_rays.calls"] = (get("pqi.boundary_rays", "calls"), "count")
    m["pqi.boundary_rays.self_s"] = (get("pqi.boundary_rays", "self_s"), "s")
    m["systems.fixtures.self_s"] = (get("systems.fixtures", "self_s"), "s")
    m["network.apply_network_transform.self_s"] = (
        get("network.apply_network_transform", "self_s"), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.overhead_raw_s"] = (overhead_raw_s, "s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("dynamics", "predict", "design"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pqikit", "__init__.py")):
        print(f"error: no pqikit sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    # thread caps must be in place before numpy loads its BLAS
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)
    warnings.simplefilter("ignore")
    outdir = os.path.join(OUTDIR, args.workload)
    job_list, fixtures, setup = set_up(args.workload, args.seed, outdir)
    import jobs as jobs_mod
    import speed
    import tracing

    # the fixtures live through every round; freezing them keeps the cyclic
    # collector from rescanning them, which added 40-50 ms pauses to
    # arbitrary jobs
    gc.collect()
    gc.freeze()
    try:
        n_rounds = max(1, int(args.seconds // ROUND_S[args.workload]))
        rounds = [run_round(jobs_mod, fixtures, speed.SpeedProbe())
                  for _ in range(n_rounds)]
        traced = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                with tracer.root("setup"):
                    traced_fixtures = jobs_mod.build(job_list, outdir)
                gc.collect()
                gc.freeze()
                traced = run_round(jobs_mod, traced_fixtures, speed.SpeedProbe(), tracer)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    first = rounds[0].outcomes
    reference = [(o.passed, o.output) for o in first]
    compared = rounds[1:] + ([traced] if traced else [])
    identical = all([(o.passed, o.output) for o in r.outcomes] == reference
                    for r in compared)
    every = [o for r in rounds + ([traced] if traced else []) for o in r.outcomes]
    attempted = len(every)
    failed = sum(not o.passed for o in every)
    unexpected = [fx.job["kind"] for fx, o in zip(fixtures, first)
                  if not o.passed and not fx.job["known_defect"]]

    latencies = [statistics.median(lat) for lat in zip(*(r.latencies for r in rounds))]
    kinds: dict = {}
    for fx, o, lat in zip(fixtures, first, latencies):
        k = kinds.setdefault(fx.job["kind"], {"jobs": 0, "failed": 0, "exceptions": {},
                                               "latency_s": 0.0})
        k["jobs"] += 1
        k["latency_s"] += lat
        if not o.passed:
            k["failed"] += 1
            if o.exc:
                k["exceptions"][o.exc] = k["exceptions"].get(o.exc, 0) + 1
    accuracy = {}
    for name in ACCURACY:
        vals = [o.errors[name] for o in first if o.passed and name in o.errors]
        accuracy[name] = max(vals, default=0.0)

    latencies.sort()
    n = len(latencies)
    values = {
        "setup_s": setup["setup_s"],
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "job_p50_ms": statistics.median(latencies) * 1e3,
        "job_tail_ms": latencies[max(0, n - TAIL_BEYOND - 1)] * 1e3,
        "passed_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "jobs_per_round": n,
        "job_tail_percentile": round(100.0 * (n - TAIL_BEYOND) / n, 2),
        "kinds": kinds, "accuracy": accuracy,
        "unexpected_failures": unexpected, "outputs_identical": identical,
        "setup": setup,
        "raw_wall_s": [r.raw_s for r in rounds], "speed_scale": [r.scale for r in rounds],
        "environment": environment(root),
    }
    if traced:
        # against the last untraced round, which is as warm as the traced one
        metrics = per_layer(tracer, traced.outcomes, traced.scale,
                            traced.wall_s - rounds[-1].wall_s,
                            traced.raw_s - rounds[-1].raw_s)
        metrics.update({k: (v, ACCURACY[k]) for k, v in accuracy.items()})
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"detail": detail, **({"end_to_end": values} if traced else {})}))
    print(json.dumps({"correct": identical and not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
