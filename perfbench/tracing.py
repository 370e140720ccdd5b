"""Spans and counters around troplift's layers, installed from outside.

Each traced function is replaced under every module attribute that holds
it (for example troplift.lifts.series_det and troplift.membership.trop_det),
so calls between modules go through the wrapper.  A span records its name,
start, end, parent span and operation id; spans stay in memory until the
run ends.  Hot methods (series products and sums, quadratic-extension
arithmetic, Fraction construction) are counted rather than spanned.

A layer's self time is its spans' time minus the time of their child
spans; the benchmark's own time is the self time of the operation span.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# span name -> per-layer metric that receives its self time
SPANNED = {
    "tropical": {
        "trop_det": "tropical.trop_det_ms",
        "sym_trop_det": "tropical.sym_trop_det_ms",
        "trop_rank": "tropical.rank_ms",
        "sym_trop_rank": "tropical.rank_ms",
        "barvinok_rank2": "tropical.barvinok_ms",
        "sym_barvinok_rank2": "tropical.barvinok_ms",
    },
    "trees": {
        "tree_from_rank2": "trees.tree_ms",
        "symbic_classify": "trees.tree_ms",
        "is_caterpillar": "trees.tree_ms",
    },
    "newton": {
        "is_polytope_edge": "newton.edge_ms",
        "edge_lattice_data": "newton.edge_ms",
        "edge_positive_ok": "newton.edge_ms",
        "birkhoff_edge": "newton.edge_ms",
    },
    "membership": {
        "member_rank2": "membership.rank2_ms",
        "member_sym_rank2": "membership.sym_rank2_ms",
        "member_corank1": "membership.corank1_ms",
        "member_sym_corank1": "membership.sym_corank1_ms",
        "sym_corank1_edges": "membership.sym_corank1_ms",
    },
    "lifts": {
        "lift_rank2_positive": "lifts.construct_ms",
        "lift_rank2_real": "lifts.construct_ms",
        "lift_sym_caterpillar": "lifts.construct_ms",
        "lift_sym_rank2_real": "lifts.construct_ms",
        "lift_corank1": "lifts.construct_ms",
        "lift_sym_corank1": "lifts.construct_ms",
        "verify_lift": "lifts.verify_ms",
        "series_det": "lifts.series_det_ms",
    },
    "puiseux": {
        "ps_inv": "puiseux.inv_ms",
        "ps_sqrt": "puiseux.quad_roots_ms",
        "quad_roots": "puiseux.quad_roots_ms",
    },
    "jsonio": {
        "encode_certificate": "jsonio.encode_ms",
        "dumps": "jsonio.encode_ms",
        "decode_certificate": "jsonio.decode_ms",
        "decode_matrix": "jsonio.decode_ms",
    },
    "cli": {"main": "cli.self_ms"},
}
OP_SPAN = "bench.op"
ANALYSES = {"tropical.trop_det", "tropical.sym_trop_det", "tropical.trop_rank", "tropical.sym_trop_rank"}
EDGE_TESTS = {"newton.is_polytope_edge", "newton.birkhoff_edge"}
QUADEXT_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "inverse", "__truediv__", "__rtruediv__",
)

# per-layer metrics, in report order, with units
PER_LAYER = (
    ("tropical.trop_det_ms", "ms"),
    ("tropical.sym_trop_det_ms", "ms"),
    ("tropical.rank_ms", "ms"),
    ("tropical.barvinok_ms", "ms"),
    ("tropical.analyses_per_input", "count"),
    ("monomials.class_fill_ms", "ms"),
    ("trees.tree_ms", "ms"),
    ("trees.trees_per_input", "count"),
    ("newton.edge_ms", "ms"),
    ("newton.edge_tests", "count"),
    ("membership.rank2_ms", "ms"),
    ("membership.sym_rank2_ms", "ms"),
    ("membership.corank1_ms", "ms"),
    ("membership.sym_corank1_ms", "ms"),
    ("lifts.construct_ms", "ms"),
    ("lifts.verify_ms", "ms"),
    ("lifts.series_det_ms", "ms"),
    ("lifts.series_det_calls", "count"),
    ("lifts.seeded_attempts", "count"),
    ("lifts.useful_attempt_ratio", "ratio"),
    ("puiseux.mul_calls", "count"),
    ("puiseux.add_calls", "count"),
    ("puiseux.terms_merged", "count"),
    ("puiseux.inv_ms", "ms"),
    ("puiseux.quad_roots_ms", "ms"),
    ("quadext.ops", "count"),
    ("fractions.created", "count"),
    ("jsonio.encode_ms", "ms"),
    ("jsonio.decode_ms", "ms"),
    ("jsonio.cert_bytes", "bytes"),
    ("cli.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("trace.op_ms", "ms"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.stack: list = []
        self.op = None
        self.counts = Counter()

    # -- recording ---------------------------------------------------------

    def _spanned(self, name, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def run_op(self, op_id, fn, *args):
        self.op = op_id
        return self._spanned(OP_SPAN, fn)(*args)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap troplift's layer functions wherever they are bound."""
        import fractions

        from troplift import puiseux, quadext, rng

        mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "troplift"]
        for layer, names in SPANNED.items():
            home = sys.modules[f"troplift.{layer}"]
            for attr in names:
                orig = getattr(home, attr)
                wrapped = self._spanned(f"{layer}.{attr}", orig)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)
        orig_stream = rng.stream
        rng.stream = self._counted("lifts.seeded_attempts", orig_stream)

        series = puiseux.PuiseuxSeries
        mul = self._counted("puiseux.mul_calls", series.__mul__)
        add = self._counted("puiseux.add_calls", series.__add__)
        series.__mul__ = series.__rmul__ = mul
        series.__add__ = series.__radd__ = add
        orig_make = series.make
        counts = self.counts

        def make(pairs, trunc=None):
            pairs = list(pairs)
            counts["puiseux.terms_merged"] += len(pairs)
            return orig_make(pairs, trunc)

        series.make = staticmethod(make)
        for attr in QUADEXT_OPS:
            setattr(quadext.QuadExt, attr, self._counted("quadext.ops", getattr(quadext.QuadExt, attr)))
        fractions.Fraction.__new__ = self._counted("fractions.created", fractions.Fraction.__new__)

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, ops: int, extra: dict) -> dict:
        """Per-operation layer metrics from the spans and counters."""
        self_time = [s[2] - s[1] for s in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        metric_of = {
            f"{layer}.{attr}": metric
            for layer, names in SPANNED.items()
            for attr, metric in names.items()
        }
        metric_of[OP_SPAN] = "bench.self_ms"
        totals = Counter()
        calls = Counter()
        op_time = 0.0
        for (name, start, end, parent, op), st in zip(self.spans, self_time):
            totals[metric_of[name]] += st
            calls[name] += 1
            if name == OP_SPAN:
                op_time += end - start
        out = {}
        for metric, unit in PER_LAYER:
            if unit == "ms":
                out[metric] = totals[metric] * 1000 / ops
        out["trace.op_ms"] = op_time * 1000 / ops
        out["tropical.analyses_per_input"] = sum(calls[k] for k in ANALYSES) / ops
        out["trees.trees_per_input"] = calls["trees.tree_from_rank2"] / ops
        out["newton.edge_tests"] = sum(calls[k] for k in EDGE_TESTS) / ops
        out["lifts.series_det_calls"] = calls["lifts.series_det"] / ops
        attempts = self.counts["lifts.seeded_attempts"]
        useful = extra.pop("certificates_from_attempts", 0)
        out["lifts.seeded_attempts"] = attempts / ops
        out["lifts.useful_attempt_ratio"] = useful / attempts if attempts else 0.0
        for key in ("puiseux.mul_calls", "puiseux.add_calls", "puiseux.terms_merged",
                    "quadext.ops", "fractions.created"):
            out[key] = self.counts[key] / ops
        out.update(extra)
        return {m: out[m] for m, _ in PER_LAYER}

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
