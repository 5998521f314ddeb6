"""Span recorder for the traced run.

The recorder replaces every binding of the public functions that the
per-layer metrics name, including names re-imported into other modules
(``cli.simulate``, ``network.integral_function``,
``transforms.boundary_rays``) and the agent registry, with a wrapper that
records a span: name, start, end, parent span and the job it belongs to.
Nothing under ``src/`` is edited; ``uninstall`` puts the originals back.

Agent callbacks are counted by wrapping ``f`` on every agent a
``systems`` factory returns, before the agent reaches the program; each
evaluation is charged to the innermost open span.  The wrappers pass
arguments and results through untouched, so traced outputs equal untraced
ones.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import replace


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "f_evals", "work")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.f_evals = 0
        self.work = 0
        self.start = self.end = 0.0


def _steps(args, kwargs, res):
    return round(float(res.t[-1]) / args[0].integrator.dt)


def _iterations(args, kwargs, res):
    return int(res.iterations)


def _len_result(args, kwargs, res):
    return len(res)


def _relation_points(args, kwargs, res):
    return len(args[0].u)


def _grid_points(args, kwargs, res):
    return len(args[0].grid)


def _candidates(args, kwargs, res):
    return len(args[1] if len(args) > 1 else kwargs["grid"])


# (module, attribute, layer name, work counter taken from the call)
TARGETS = (
    ("pqikit.network", "simulate", "network.simulate", _steps),
    ("pqikit.network", "solve_opp", "network.solve_opp", _iterations),
    ("pqikit.network", "solve_ofp", "network.solve_ofp", _iterations),
    ("pqikit.network", "spec_from_json", "network.spec_from_json", None),
    ("pqikit.network", "apply_network_transform",
     "network.apply_network_transform", None),
    ("pqikit.network", "AgentODE.check_relation", "network.check_relation", None),
    ("pqikit.transforms", "verify_passivation", "transforms.verify_passivation", None),
    ("pqikit.transforms", "find_equilibria", "transforms.find_equilibria", _len_result),
    ("pqikit.transforms", "passivize", "transforms.passivize", None),
    ("pqikit.transforms", "decompose", "transforms.decompose", None),
    ("pqikit.relations", "integral_function", "relations.integral_function",
     _relation_points),
    ("pqikit.relations", "legendre", "relations.legendre", _grid_points),
    ("pqikit.relations", "transform_relation", "relations.transform_relation", None),
    ("pqikit.relations", "is_maximal_monotone", "relations.is_maximal_monotone", None),
    ("pqikit.relations", "is_cursive", "relations.is_cursive", None),
    ("pqikit.lti", "linf_norm", "lti.linf_norm", None),
    ("pqikit.lti", "lambda_search", "lti.lambda_search", _candidates),
    ("pqikit.lti", "tf_passivity_indices", "lti.tf_passivity_indices", None),
    ("pqikit.lti", "RationalTF.make", "lti.RationalTF.make", None),
    ("pqikit.pqi", "boundary_rays", "pqi.boundary_rays", None),
    ("pqikit.cli", "main", "cli.main", None),
) + tuple(
    ("pqikit.systems", name, "systems.fixtures", None)
    for name in ("odd_cubic_agent", "nonmonotone_demo_agent",
                 "pendulum_gradient_agent", "quadratic_agent", "unstable_plant_tf",
                 "pendulum_network", "quadratic_network")
)


class Tracer:
    """In-memory spans plus the patches that produce them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------
    def _open(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        job = self.spans[parent].job if parent is not None else len(self.spans)
        span = Span(name, parent, job)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span (one job, or fixture set-up) that others nest in."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                span.work = work(args, kwargs, result)
            if name == "systems.fixtures":
                result = self._count_agents(result)
            return result
        return traced

    def counted(self, f):
        """``f`` with each call charged to the innermost open span."""
        if getattr(f, "_perfbench_counted", False):
            return f

        def f_counted(x, u):
            if self._stack:
                self.spans[self._stack[-1]].f_evals += 1
            return f(x, u)
        f_counted._perfbench_counted = True
        return f_counted

    def _count_agents(self, obj):
        from pqikit.network import AgentODE, NetworkSpec
        if isinstance(obj, AgentODE):
            return replace(obj, f=self.counted(obj.f))
        if isinstance(obj, NetworkSpec):
            return replace(obj, agents=tuple(self._count_agents(a) for a in obj.agents))
        return obj

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attr, value, setter=setattr):
        self._undo.append((owner, attr, owner[attr] if isinstance(owner, dict)
                           else owner.__dict__[attr], setter))
        setter(owner, attr, value)

    def install(self):
        from pqikit import systems
        modules = [m for n, m in sys.modules.items()
                   if n == "pqikit" or n.startswith("pqikit.")]
        for module_name, attr, name, work in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._wrap(name, raw.__func__, work)))
                else:
                    self._set(cls, meth, self._wrap(name, raw, work))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
            for key, value in systems.AGENT_REGISTRY.items():
                if value is original:
                    self._set(systems.AGENT_REGISTRY, key, wrapper,
                              setter=dict.__setitem__)

    def uninstall(self):
        while self._undo:
            owner, attr, value, setter = self._undo.pop()
            setter(owner, attr, value)

    # -- aggregation -------------------------------------------------------
    def layers(self) -> dict:
        """Per layer: calls, self seconds, f evaluations, work count."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            agg = out.setdefault(s.name, {"calls": 0, "self_s": 0.0,
                                          "f_evals": 0, "work": 0})
            agg["calls"] += 1
            agg["self_s"] += (s.end - s.start) - child[i]
            agg["f_evals"] += s.f_evals
            agg["work"] += s.work
        return out

    def linf_norm_use(self) -> tuple[int, int]:
        """(linf_norm calls made by lambda_search, jobs that called linf_norm)."""
        from_search = sum(
            1 for s in self.spans if s.name == "lti.linf_norm"
            and s.parent is not None and self.spans[s.parent].name == "lti.lambda_search")
        jobs = {s.job for s in self.spans if s.name == "lti.linf_norm"}
        return from_search, len(jobs)
