"""Per-layer counters and timers for the traced run, installed from outside.

`Tracer.install()` replaces each traced function of `lqmpc` by a timing
wrapper at every name an `lqmpc` module binds it to (so `cmpc.solve_qp` and
`qp.solve_qp` are both wrapped), plus two `MpcController` methods and
`scipy.optimize.linprog` as `lqmpc.qp` binds it (the QP's Phase 1).
`remove()` puts the originals back.  The program itself is not changed, and
a run without tracing never creates a `Tracer`.

Each wrapped call is a span.  Spans nest through a stack, so each span knows
its parent and how much of its time its child spans took.  Spans are kept
only as totals per name, with counts per (parent, child) pair.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute) of the traced function in `lqmpc`
FUNCTIONS = {
    "matcore.solve_dlyap": ("matcore", "solve_dlyap"),
    "riccati.solve_dare": ("riccati", "solve_dare"),
    "riccati.zeta_dare": ("riccati", "zeta_dare"),
    "bounds.full_report": ("bounds", "full_report"),
    "bounds.newton_gamma": ("bounds", "newton_gamma"),
    "polytope.maximal_invariant_set": ("polytope", "maximal_invariant_set"),
    "polytope.lp_solve": ("polytope", "lp_solve"),
    "polytope.volume": ("polytope", "volume"),
    "polytope.contains": ("polytope", "contains"),
    "qp.solve_qp": ("qp", "solve_qp"),
}

# the horizon of J_opt in suboptimality_map (see workloads.APPROX_OPT_HORIZON)
_APPROX_OPT_HORIZON = 100


class _Span:
    __slots__ = ("name", "child_s", "children")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.children = Counter()


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.child_s = defaultdict(float)
        self.edges = Counter()  # (parent span, child span) -> calls
        self.counts = Counter()  # outcome counters
        self._stack: list[_Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        """Time fn as span `name` (a string, or a function of the call's
        arguments); `after(args, kwargs, result, span)` sees each result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _Span(name if isinstance(name, str) else name(args))
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.calls[span.name] += 1
                self.total_s[span.name] += dt
                self.child_s[span.name] += span.child_s
                if parent is not None:
                    parent.child_s += dt
                    parent.children[span.name] += 1
                    self.edges[(parent.name, span.name)] += 1
            if after is not None:
                after(args, kwargs, result, span)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _after_solve_qp(self, args, kwargs, sol, span):
        warm_given = kwargs.get("z0", args[1] if len(args) > 1 else None) is not None
        self.counts["qp.iterations"] += sol.iterations
        self.counts["qp.infeasible"] += sol.status == "infeasible"
        # a verified warm start skips the Phase-1 LP
        self.counts["qp.warm"] += warm_given and not span.children["qp.phase1_lp"]

    def _after_solve(self, args, kwargs, step, span):
        self.counts["cmpc.shortcut"] += not span.children["qp.solve_qp"]

    def install(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "lqmpc" or n.startswith("lqmpc.")]
        hooks = {"qp.solve_qp": self._after_solve_qp}
        for name, (mod, attr) in FUNCTIONS.items():
            orig = getattr(importlib.import_module(f"lqmpc.{mod}"), attr)
            wrapper = self._wrap(orig, name, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._set(module, key, wrapper)
        qp = importlib.import_module("lqmpc.qp")
        self._set(qp, "linprog", self._wrap(qp.linprog, "qp.phase1_lp"))
        ctl = importlib.import_module("lqmpc.cmpc").MpcController
        self._set(ctl, "solve", self._wrap(ctl.solve, "cmpc.solve", self._after_solve))
        self._set(ctl, "simulate_cost", self._wrap(
            ctl.simulate_cost,
            lambda args: "cmpc.approx_opt" if args[0].ell == _APPROX_OPT_HORIZON
            else "cmpc.policy_cost"))
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()

    # -- results -----------------------------------------------------------

    def metrics(self, rounds: int, sweep_s: float, replay_s: float) -> dict:
        """Per-layer metrics per round, by the names BENCHMARK.json lists.
        `sweep_s` is the pooled sweeps' wall time and `replay_s` the same
        cells' serial in-process replay time, both summed over the rounds."""
        c, s = self.calls, self.total_s
        steps = self.edges[("cmpc.policy_cost", "cmpc.solve")] + \
            self.edges[("cmpc.approx_opt", "cmpc.solve")]
        per_round = {
            "qp.phase1_lp.calls": c["qp.phase1_lp"],
            "qp.phase1_lp.s": s["qp.phase1_lp"],
            "qp.solve_qp.calls": c["qp.solve_qp"],
            "qp.solve_qp.s": s["qp.solve_qp"],
            "qp.active_set.s": s["qp.solve_qp"] - self.child_s["qp.solve_qp"],
            "qp.iterations": self.counts["qp.iterations"],
            "qp.warm": self.counts["qp.warm"],
            "qp.infeasible": self.counts["qp.infeasible"],
            "cmpc.solve.calls": c["cmpc.solve"],
            "cmpc.solve.self_s": s["cmpc.solve"] - self.child_s["cmpc.solve"],
            "cmpc.shortcut": self.counts["cmpc.shortcut"],
            "cmpc.closed_loop_steps": steps,
            "cmpc.policy_cost.s": s["cmpc.policy_cost"],
            "cmpc.approx_opt.s": s["cmpc.approx_opt"],
            "cmpc.sweep.s": sweep_s,
            "polytope.maximal_invariant_set.calls": c["polytope.maximal_invariant_set"],
            "polytope.maximal_invariant_set.s": s["polytope.maximal_invariant_set"],
            "polytope.lp_solve.calls": c["polytope.lp_solve"],
            "polytope.lp_solve.s": s["polytope.lp_solve"],
            "polytope.volume.s": s["polytope.volume"],
            "polytope.contains.calls": c["polytope.contains"],
            "riccati.solve_dare.calls": c["riccati.solve_dare"],
            "riccati.solve_dare.s": s["riccati.solve_dare"],
            "riccati.zeta_dare.s": s["riccati.zeta_dare"],
            "bounds.full_report.calls": c["bounds.full_report"],
            "bounds.full_report.s": s["bounds.full_report"],
            "bounds.newton_gamma.s": s["bounds.newton_gamma"],
            "matcore.solve_dlyap.calls": c["matcore.solve_dlyap"],
            "matcore.solve_dlyap.s": s["matcore.solve_dlyap"],
        }
        out = {k: v / rounds for k, v in per_round.items()}
        out["cmpc.sweep_speedup"] = replay_s / sweep_s if sweep_s > 0 else 0.0
        return out

    def dump(self) -> dict:
        """Raw totals, for the trace file."""
        return {
            "spans": {n: {"calls": self.calls[n], "total_s": self.total_s[n],
                          "self_s": self.total_s[n] - self.child_s[n]} for n in self.calls},
            "edges": [{"parent": p, "child": ch, "calls": k} for (p, ch), k in self.edges.items()],
            "counts": dict(self.counts),
        }
