"""Span tracing at tlsekit's module boundaries, from outside the package.

install() replaces every public function of the layer modules, wherever a
tlsekit module holds a reference to it, by a wrapper that records a span
(name, start, end, parent, round, note). Calls from one tlsekit module into
another therefore nest as they do in the program, without a line of tracing
in src/. Spans stay in memory; write() saves them when the run ends.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("linalg", "core", "wtls", "conditioning", "bench", "cli")

#: Input validators called once per array argument: their spans would
#: measure the tracer more than the work.
UNWRAPPED = {"linalg.as_matrix", "linalg.as_vector"}

#: What a span keeps of its call's result, for the per-layer counts.
NOTES = {
    "linalg.kron": lambda out: int(out.size),
    "core.fast_gram_inverse": lambda out: out is not None,
    "bench.table1": len,
    "bench.table2": len,
    "bench.table3": len,
}

TABLES = ("bench.table1", "bench.table2", "bench.table3")

GENERATORS = (
    "bench.generate",
    "bench.gen_equilibratory",
    "bench.gen_householder_spectrum",
    "bench.gen_piecewise_poly",
)


class Tracer:
    """Spans in call order; `round` tags the spans opened while it is set."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, round, note]
        self.round = 0
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name):
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.round, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if note is not None:
                    rec[5] = note(out)
                return out
            finally:
                self._close(rec)

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        fields = ["name", "start", "end", "parent", "round", "note"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def install(tracer):
    """Wrap the layer functions; returns a callable that restores them."""
    originals = {}
    for layer in LAYERS:
        mod = sys.modules[f"tlsekit.{layer}"]
        for name, obj in vars(mod).items():
            span = f"{layer}.{name}"
            if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                    and obj.__module__ == mod.__name__ and span not in UNWRAPPED):
                originals[id(obj)] = tracer.wrap(span, obj)
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "tlsekit" and not modname.startswith("tlsekit."):
            continue
        for name, obj in list(vars(mod).items()):
            wrapper = originals.get(id(obj))
            if wrapper is not None and wrapper.__wrapped__ is obj:
                setattr(mod, name, wrapper)
                patched.append((mod, name, obj))

    def restore():
        for mod, name, obj in patched:
            setattr(mod, name, obj)

    return restore


def self_times(spans):
    """Per span: duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def round_summaries(spans):
    """Per round: self time and call count by span name, plus the counts."""
    own = self_times(spans)
    in_table = [False] * len(spans)
    rounds = defaultdict(lambda: {"self": defaultdict(float), "calls": defaultdict(int),
                                  "kron_entries": 0, "gram_fast": 0,
                                  "table_rows": 0, "table_solves": 0})
    for i, (name, _, _, parent, rnd, note) in enumerate(spans):
        r = rounds[rnd]
        r["self"][name] += own[i]
        r["calls"][name] += 1
        in_table[i] = name in TABLES or (parent >= 0 and in_table[parent])
        if name == "linalg.kron":
            r["kron_entries"] += note or 0  # None when the call raised
        elif name == "core.fast_gram_inverse":
            r["gram_fast"] += bool(note)
        elif name in TABLES:
            r["table_rows"] += note or 0
        elif name == "core.solve_qr_svd" and in_table[i]:
            r["table_solves"] += 1
    return rounds


def _self_metric(span):
    return lambda r: r["self"].get(span, 0.0)


def _calls_metric(span):
    return lambda r: r["calls"].get(span, 0)


def _gram_fallbacks(r):
    return r["calls"].get("core.fast_gram_inverse", 0) - r["gram_fast"]


def _gram_fast_ratio(r):
    tries = r["calls"].get("core.fast_gram_inverse", 0)
    return r["gram_fast"] / tries if tries else 0.0


def _solves_per_row(r):
    return r["table_solves"] / r["table_rows"] if r["table_rows"] else 0.0


#: Per-layer metrics read from the spans of each traced round:
#: name -> (unit, better, function of a round summary).
ROUND_METRICS = {
    "core.build_basis_s": ("s", "lower", _self_metric("core.build_basis")),
    "core.check_genericity_s": ("s", "lower", _self_metric("core.check_genericity")),
    "core.solve_qr_svd_self_s": ("s", "lower", _self_metric("core.solve_qr_svd")),
    "core.fast_gram_inverse_s": ("s", "lower", _self_metric("core.fast_gram_inverse")),
    "core.gram_fallbacks": ("count", "lower", _gram_fallbacks),
    "core.gram_fast_ratio": ("ratio", "higher", _gram_fast_ratio),
    "core.solve_closed_form_self_s": ("s", "lower", _self_metric("core.solve_closed_form")),
    "linalg.svd_s": ("s", "lower", _self_metric("linalg.svd")),
    "linalg.svd_calls": ("count", "lower", _calls_metric("linalg.svd")),
    "linalg.singular_values_s": ("s", "lower", _self_metric("linalg.singular_values")),
    "linalg.singular_values_calls": ("count", "lower", _calls_metric("linalg.singular_values")),
    "linalg.spectral_norm_s": ("s", "lower", _self_metric("linalg.spectral_norm")),
    "linalg.spectral_norm_calls": ("count", "lower", _calls_metric("linalg.spectral_norm")),
    "linalg.kron_s": ("s", "lower", _self_metric("linalg.kron")),
    "linalg.kron_entries": ("count", "lower", lambda r: r["kron_entries"]),
    "conditioning.build_k_operator_s": ("s", "lower", _self_metric("conditioning.build_k_operator")),
    "conditioning.kappa_normwise_upper_s": ("s", "lower", _self_metric("conditioning.kappa_normwise_upper")),
    "conditioning.kappa_mixed_componentwise_upper_s": (
        "s", "lower", _self_metric("conditioning.kappa_mixed_componentwise_upper")),
    "conditioning.kappa_normwise_compact_s": ("s", "lower", _self_metric("conditioning.kappa_normwise_compact")),
    "conditioning.kappa_normwise_exact_s": ("s", "lower", _self_metric("conditioning.kappa_normwise_exact")),
    "conditioning.kappa_mixed_componentwise_exact_s": (
        "s", "lower", _self_metric("conditioning.kappa_mixed_componentwise_exact")),
    "conditioning.materialize_k_s": ("s", "lower", _self_metric("conditioning.materialize_k")),
    "wtls.embed_s": ("s", "lower", _self_metric("wtls.embed")),
    "wtls.solve_nwtls_s": ("s", "lower", _self_metric("wtls.solve_nwtls")),
    "wtls.solve_wtls_direct_s": ("s", "lower", _self_metric("wtls.solve_wtls_direct")),
    "wtls.wtls_limit_diagnostics_s": ("s", "lower", _self_metric("wtls.wtls_limit_diagnostics")),
    "bench.run_experiment_self_s": ("s", "lower", _self_metric("bench.run_experiment")),
    "bench.perturb_s": ("s", "lower", _self_metric("bench.perturb")),
    "bench.apply_sample_s": ("s", "lower", _self_metric("bench.apply_sample")),
    "bench.table1_s": ("s", "lower", _self_metric("bench.table1")),
    "bench.table2_s": ("s", "lower", _self_metric("bench.table2")),
    "bench.table3_s": ("s", "lower", _self_metric("bench.table3")),
    "bench.emit_table_s": ("s", "lower", _self_metric("bench.emit_table")),
    "bench.parse_table_s": ("s", "lower", _self_metric("bench.parse_table")),
    "bench.solves_per_row": ("count", "lower", _solves_per_row),
    "bench.load_problem_s": ("s", "lower", _self_metric("bench.load_problem")),
    "cli.main_self_s": ("s", "lower", _self_metric("cli.main")),
}

#: Per-layer metrics of the set-up processes (median over them).
SETUP_METRICS = {
    "bench.generate_s": ("s", "lower"),
    "bench.save_problem_s": ("s", "lower"),
    "init.import_s": ("s", "lower"),
}

#: The traced pipeline and its excess over the untraced rounds of the run.
OVERHEAD_METRICS = {
    "trace.pipeline_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def setup_layer_times(spans):
    """Generator and save_problem self time of one set-up process."""
    own = self_times(spans)
    out = {"bench.generate_s": 0.0, "bench.save_problem_s": 0.0}
    for i, s in enumerate(spans):
        if s[0] in GENERATORS:
            out["bench.generate_s"] += own[i]
        elif s[0] == "bench.save_problem":
            out["bench.save_problem_s"] += own[i]
    return out


def layer_metrics(spans, traced_rounds):
    """Median over the traced rounds of every ROUND_METRICS entry."""
    summaries = round_summaries(spans)  # a round without spans reads as empty
    per_round = [summaries[r] for r in traced_rounds]
    return {
        name: (statistics.median(fn(r) for r in per_round), unit)
        for name, (unit, _, fn) in ROUND_METRICS.items()
    }
