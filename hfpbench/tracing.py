"""Spans for the traced run, recorded from outside the library.

The tracer rebinds module-level names for the duration of a traced op and
restores them afterwards:

* the public functions the benchmark calls (``quadrature.t_hat``,
  ``harness.convergence_table_for``, ``ie_solver.solve_collocation``, ...);
* the names the library itself looks up at call time
  (``_kernels.singular_sum``, ``_kernels.dirichlet_dz``, ``harness.t_hat``,
  ``harness.integrand_norms``, ``ie_solver.t_hat``);
* the ``g_eval`` of every integrand passed to ``t_hat`` (through
  ``dataclasses.replace``) and the ``w_eval`` passed to ``build_*_system``.

A span is [name, start, end, parent index, op id, amount], where amount is
the work count of the call (nodes, terms, points, entries or bytes).  Spans
stay in memory and are written out when the run ends.  After each t_hat
call the tracer counts the distinct nodes it evaluated, inside a
bench.trace_bookkeeping span; that cost lands in the busy time of the
caller (e.g. ie_solver.rhs) and in trace_overhead_frac.
"""

from __future__ import annotations

import dataclasses
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from hfpquad import _kernels, cli, harness, ie_solver, integrands, oracles, quadrature

NAME, START, END, PARENT, OP, AMOUNT = range(6)

#: (metric, unit) reported by a traced run, in print order
LAYER_METRICS = (
    ("quadrature.t_hat.calls", "count"),
    ("quadrature.t_hat.busy_ms", "ms"),
    ("quadrature.t_hat.self_ms", "ms"),
    ("quadrature.err_to_floor_max", "ratio"),
    ("integrands.g_eval.calls", "count"),
    ("integrands.g_eval.points", "count"),
    ("integrands.g_eval.busy_ms", "ms"),
    ("integrands.g_eval.useful_frac", "ratio"),
    ("kernels.singular_sum.calls", "count"),
    ("kernels.singular_sum.terms", "count"),
    ("kernels.singular_sum.busy_ms", "ms"),
    ("kernels.singular_sum.bytes_computed", "B"),
    ("kernels.dirichlet_dz.calls", "count"),
    ("kernels.dirichlet_dz.points", "count"),
    ("kernels.dirichlet_dz.busy_ms", "ms"),
    ("oracles.hfp_reference.calls", "count"),
    ("oracles.hfp_reference.busy_ms", "ms"),
    ("harness.convergence_table_for.self_ms", "ms"),
    ("harness.integrand_norms.busy_ms", "ms"),
    ("harness.empirical_rate.busy_ms", "ms"),
    ("harness.rate_rel_err_p50", "ratio"),
    ("ie_solver.rhs.points", "count"),
    ("ie_solver.rhs.busy_ms", "ms"),
    ("ie_solver.rhs.t_hat_calls", "count"),
    ("ie_solver.assemble.self_ms", "ms"),
    ("ie_solver.assemble.entries", "count"),
    ("ie_solver.solve_collocation.busy_ms", "ms"),
    ("ie_solver.condition_max", "ratio"),
    ("ie_solver.max_node_err", "ratio"),
    ("cli.canonical_json.busy_ms", "ms"),
    ("cli.canonical_json.bytes", "B"),
    ("trace_overhead_frac", "ratio"),
    ("span_coverage_min", "ratio"),
)

#: bytes of computed input per singular-sum term: one g value, one offset
SUM_BYTES_PER_TERM = 16


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op_id = -1
        self.nodes_evaluated = 0
        self.nodes_distinct = 0

    # -- span bookkeeping -------------------------------------------------

    def _begin(self, name: str, amount=0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op_id, amount])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int):
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, amount=None):
        def traced(*args, **kwargs):
            idx = self._begin(name, amount(*args, **kwargs) if amount else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx)

        return traced

    # -- wrappers with extra bookkeeping ----------------------------------

    def _t_hat(self, real):
        def t_hat(spec, integrand):
            nodes = []
            g = integrand.g_eval

            def g_eval(x):
                nodes.append(x)
                idx = self._begin("integrands.g_eval", np.size(x))
                try:
                    return g(x)
                finally:
                    self._end(idx)

            wrapped = dataclasses.replace(integrand, g_eval=g_eval)
            idx = self._begin("quadrature.t_hat")
            try:
                return real(spec, wrapped)
            finally:
                self._end(idx)
                idx = self._begin("bench.trace_bookkeeping")
                if nodes:
                    self.nodes_evaluated += sum(np.size(x) for x in nodes)
                    self.nodes_distinct += np.unique(
                        np.concatenate([np.ravel(x) for x in nodes])
                    ).size
                self._end(idx)

        return t_hat

    def _assemble(self, real):
        def build(kernel, w_eval, lam, n):
            rhs = self._wrap("ie_solver.rhs", w_eval, lambda t: np.size(t))
            idx = self._begin("ie_solver.assemble")
            try:
                system = real(kernel, rhs, lam, n)
                self.spans[idx][AMOUNT] = system.matrix.size
                return system
            finally:
                self._end(idx)

        return build

    def _canonical_json(self, real):
        def canonical_json(obj):
            idx = self._begin("cli.canonical_json")
            try:
                text = real(obj)
                self.spans[idx][AMOUNT] = len(text.encode())
                return text
            finally:
                self._end(idx)

        return canonical_json

    def _patches(self):
        w = self._wrap
        return (
            (quadrature, "t_hat", self._t_hat),
            (harness, "t_hat", self._t_hat),
            (ie_solver, "t_hat", self._t_hat),
            (_kernels, "singular_sum",
             lambda f: w("kernels.singular_sum", f, lambda g, y, m: np.size(g))),
            (_kernels, "dirichlet_dz",
             lambda f: w("kernels.dirichlet_dz", f, lambda z, *rest: np.size(z))),
            (integrands, "singular_periodic_integrand",
             lambda f: w("integrands.singular_periodic_integrand", f)),
            (oracles, "exact_supersingular", lambda f: w("oracles.exact_supersingular", f)),
            (oracles, "hfp_reference", lambda f: w("oracles.hfp_reference", f)),
            (harness, "integrand_norms", lambda f: w("harness.integrand_norms", f)),
            (harness, "convergence_table_for",
             lambda f: w("harness.convergence_table_for", f)),
            (harness, "empirical_rate", lambda f: w("harness.empirical_rate", f)),
            (cli, "canonical_json", self._canonical_json),
            (ie_solver, "manufactured_rhs", lambda f: w("ie_solver.manufactured_rhs", f)),
            (ie_solver, "build_simple_system", self._assemble),
            (ie_solver, "build_advanced_system", self._assemble),
            (ie_solver, "solve_collocation", lambda f: w("ie_solver.solve_collocation", f)),
        )

    @contextmanager
    def op(self, op_id: int):
        """Trace one op: rebind the library names, record a bench.op span."""
        patches = self._patches()
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        for mod, attr, make in patches:
            setattr(mod, attr, make(getattr(mod, attr)))
        self._op_id = op_id
        idx = self._begin("bench.op")
        try:
            yield
        finally:
            self._end(idx)
            self._op_id = -1
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)

    # -- reduction ----------------------------------------------------------

    def coverage(self) -> list[float]:
        """Per op: share of its wall time inside its top-level spans."""
        child = self._child_time()
        return [
            child[i] / (s[END] - s[START])
            for i, s in enumerate(self.spans)
            if s[NAME] == "bench.op"
        ]

    def _child_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return child

    def layer_metrics(self) -> dict:
        """Per-layer totals over all traced ops (diagnostics are added by the runner)."""
        child = self._child_time()
        calls, busy, self_ms, amount = (defaultdict(int), defaultdict(float),
                                        defaultdict(float), defaultdict(int))
        rhs_t_hat = 0
        for i, s in enumerate(self.spans):
            name, dur = s[NAME], s[END] - s[START]
            calls[name] += 1
            busy[name] += 1e3 * dur
            self_ms[name] += 1e3 * (dur - child[i])
            amount[name] += s[AMOUNT]
            if name == "quadrature.t_hat" and s[PARENT] >= 0:
                rhs_t_hat += self.spans[s[PARENT]][NAME] == "ie_solver.rhs"
        evaluated = self.nodes_evaluated
        return {
            "quadrature.t_hat.calls": calls["quadrature.t_hat"],
            "quadrature.t_hat.busy_ms": busy["quadrature.t_hat"],
            "quadrature.t_hat.self_ms": self_ms["quadrature.t_hat"],
            "integrands.g_eval.calls": calls["integrands.g_eval"],
            "integrands.g_eval.points": amount["integrands.g_eval"],
            "integrands.g_eval.busy_ms": busy["integrands.g_eval"],
            "integrands.g_eval.useful_frac": self.nodes_distinct / evaluated if evaluated else 0.0,
            "kernels.singular_sum.calls": calls["kernels.singular_sum"],
            "kernels.singular_sum.terms": amount["kernels.singular_sum"],
            "kernels.singular_sum.busy_ms": busy["kernels.singular_sum"],
            "kernels.singular_sum.bytes_computed":
                SUM_BYTES_PER_TERM * amount["kernels.singular_sum"],
            "kernels.dirichlet_dz.calls": calls["kernels.dirichlet_dz"],
            "kernels.dirichlet_dz.points": amount["kernels.dirichlet_dz"],
            "kernels.dirichlet_dz.busy_ms": busy["kernels.dirichlet_dz"],
            "oracles.hfp_reference.calls": calls["oracles.hfp_reference"],
            "oracles.hfp_reference.busy_ms": busy["oracles.hfp_reference"],
            "harness.convergence_table_for.self_ms": self_ms["harness.convergence_table_for"],
            "harness.integrand_norms.busy_ms": busy["harness.integrand_norms"],
            "harness.empirical_rate.busy_ms": busy["harness.empirical_rate"],
            "ie_solver.rhs.points": amount["ie_solver.rhs"],
            "ie_solver.rhs.busy_ms": busy["ie_solver.rhs"],
            "ie_solver.rhs.t_hat_calls": rhs_t_hat,
            "ie_solver.assemble.self_ms": self_ms["ie_solver.assemble"],
            "ie_solver.assemble.entries": amount["ie_solver.assemble"],
            "ie_solver.solve_collocation.busy_ms": busy["ie_solver.solve_collocation"],
            "cli.canonical_json.busy_ms": busy["cli.canonical_json"],
            "cli.canonical_json.bytes": amount["cli.canonical_json"],
        }

    def write(self, path):
        """Spans as JSON lines, times in seconds relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
                    "parent": s[PARENT], "op": s[OP], "amount": int(s[AMOUNT]),
                }) + "\n")
