"""Span recorder that times hypercurv's layers from outside the package.

Every wrapped function records a span (id, parent id, name, start, end)
in memory.  A layer's self time is its span durations minus the time
covered by its child spans.  The package modules import each other by
name, so each function is patched at every binding its callers look up,
not only where it is defined.
"""

import time
from collections import Counter, defaultdict

# (module, attribute) bindings to patch, and the span name each one records.
# The same span name on several bindings means one function reached through
# several import sites.
BINDINGS = (
    ("kernels", "transport_value", "kernels.transport_value"),
    ("kernels", "transport_plan", "kernels.transport_plan"),
    ("transport", "w1_units", "wasserstein.w1_units"),
    ("transport", "w1", "wasserstein.w1"),
    ("transport", "wh_heuristic", "transport.wh_heuristic"),
    ("transport", "plan_cost", "transport.plan_cost"),
    ("transport", "wh_exact", "transport.wh_exact"),
    ("curvature", "wh_exact", "transport.wh_exact"),
    ("curvature", "w1", "wasserstein.w1"),
    ("curvature", "lazy_random_walk", "measure.lazy_random_walk"),
    ("curvature", "orc_alpha", "curvature.orc_alpha"),
    ("curvature", "orc_alpha_h", "curvature.orc_alpha_h"),
    ("curvature", "lly", "curvature.lly"),
    ("curvature", "hlly", "curvature.hlly"),
    ("cli", "main", "cli.main"),
    ("cli", "parse_hypergraph", "hypergraph.parse_hypergraph"),
    ("cli", "lazy_random_walk", "measure.lazy_random_walk"),
    ("cli", "w1", "wasserstein.w1"),
    ("cli", "wh_exact", "transport.wh_exact"),
    ("cli", "wh_heuristic", "transport.wh_heuristic"),
    ("cli", "plan_cost", "transport.plan_cost"),
    ("cli", "orc_alpha", "curvature.orc_alpha"),
    ("cli", "orc_alpha_h", "curvature.orc_alpha_h"),
    ("cli", "lly", "curvature.lly"),
    ("cli", "hlly", "curvature.hlly"),
)

KERNEL_SPANS = ("kernels.transport_value", "kernels.transport_plan")


class Tracer:
    """Install with `with tracer:`; the package is restored on exit."""

    def __init__(self, modules, cost_class, run_id):
        self.modules = modules
        self.cost_class = cost_class
        self.run_id = run_id
        self.spans = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.edges = Counter()  # (parent span name, child span name) -> calls
        self.cells = 0
        self.expansions = 0
        self.exact = 0
        self.eval_calls = 0
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        now = time.perf_counter
        is_kernel = name in KERNEL_SPANS
        is_search = name == "transport.wh_exact"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans) + len(stack), name, 0.0]
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                dur = t1 - t0
                self.calls[name] += 1
                self.self_s[name] += dur - frame[2]
                if parent is None:
                    self.edges[(None, name)] += 1
                    spans.append((frame[0], None, name, t0, t1))
                else:
                    parent[2] += dur
                    self.edges[(parent[1], name)] += 1
                    spans.append((frame[0], parent[0], name, t0, t1))
            if is_kernel:
                self.cells += args[3] * args[4]
            elif is_search:
                self.expansions += result.states_expanded
                self.exact += result.optimality == "exact"
            return result

        return wrapper

    def __enter__(self):
        wrapped = {}
        for mod_name, attr, span in BINDINGS:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(span, fn)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrapped[id(fn)])
        orig_eval = self.cost_class.eval

        def counted_eval(cost, lam):
            self.eval_calls += 1
            return orig_eval(cost, lam)

        self._saved.append((self.cost_class, "eval", orig_eval))
        self.cost_class.eval = counted_eval
        return self

    def __exit__(self, *exc):
        for obj, attr, fn in reversed(self._saved):
            setattr(obj, attr, fn)
        self._saved.clear()
        return False

    def layer_metrics(self):
        """Per-layer figures of everything recorded so far."""
        calls, self_s, edges = self.calls, self.self_s, self.edges
        k_calls = sum(calls[n] for n in KERNEL_SPANS)
        k_self = sum(self_s[n] for n in KERNEL_SPANS)
        wh_calls = calls["transport.wh_exact"]
        lazy = edges[("transport.wh_exact", "wasserstein.w1_units")]
        return {
            "kernels.calls": k_calls,
            "kernels.self_s": k_self,
            "kernels.mean_us": k_self / k_calls * 1e6 if k_calls else 0.0,
            "kernels.cells": self.cells,
            "transport.wh_exact.calls": wh_calls,
            "transport.wh_exact.self_s": self_s["transport.wh_exact"],
            "transport.wh_exact.expansions": self.expansions,
            "transport.wh_exact.lazy_w1": lazy,
            "transport.wh_exact.useful_ratio":
                self.expansions / lazy if lazy else 0.0,
            "transport.wh_exact.exact_share":
                self.exact / wh_calls if wh_calls else 0.0,
            "transport.wh_heuristic.calls": calls["transport.wh_heuristic"],
            "transport.wh_heuristic.self_s": self_s["transport.wh_heuristic"],
            "transport.plan_cost.calls": calls["transport.plan_cost"],
            "transport.plan_cost.self_s": self_s["transport.plan_cost"],
            "wasserstein.w1.calls": calls["wasserstein.w1"],
            "wasserstein.w1.self_s": self_s["wasserstein.w1"],
            "wasserstein.w1_units.calls": calls["wasserstein.w1_units"],
            "wasserstein.w1_units.self_s": self_s["wasserstein.w1_units"],
            "curvature.self_s": sum((s for n, s in self_s.items()
                                     if n.startswith("curvature.")), 0.0),
            "curvature.lly.points":
                edges[("curvature.lly", "curvature.orc_alpha")],
            "curvature.hlly.points":
                edges[("curvature.hlly", "curvature.orc_alpha_h")],
            "measure.lazy_random_walk.calls":
                calls["measure.lazy_random_walk"],
            "measure.lazy_random_walk.self_s":
                self_s["measure.lazy_random_walk"],
            "cost.eval.calls": self.eval_calls,
            "cli.calls": calls["cli.main"],
            "cli.self_s": self_s["cli.main"],
        }

    def dump(self):
        """Spans as a JSON-ready dict (names interned into a table)."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"run_id": self.run_id, "names": names,
                "fields": ["id", "parent", "name", "start", "end"],
                "spans": [(i, p, index[n], a, b)
                          for i, p, n, a, b in self.spans]}
