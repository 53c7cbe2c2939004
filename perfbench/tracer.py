"""Spans around the calls into each paraferm layer, recorded from outside.

`install` replaces each traced function by a wrapper at every name its
callers look up: module attributes, including the names other modules bound
with ``from ... import``, and methods on their class.  The wrapper records a
span (name, start, end, parent span, request) plus the counts its result
carries.  A request is one ``cli.main`` call; its spans share the index of
that root span.  Spans stay in memory until `Recorder.dump` writes them out
once, when the traced pass ends.

`layer_metrics` turns one pass's spans into the per-layer metrics: calls,
self time (span minus the time its child spans cover) and counters.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer metrics: (traced function, metrics reported for it)
LAYERS = [
    ("lattice_fock.affine_module_basis", ("calls", "self_s")),
    ("lattice_fock.generated_subspace", ("self_s", "rank_per_candidate")),
    ("lattice_fock.mode_apply", ("calls", "self_s", "terms_out")),
    ("lattice_fock.exp_mode_apply", ("calls", "self_s")),
    ("lattice_fock.commutant_kernel", ("self_s", "kernel_dim")),
    ("lattice_fock.heisenberg_apply", ("calls", "self_s")),
    ("lattice_fock.nullspace", ("self_s", "cells", "nullity")),
    ("lattice_fock.conformal_vectors", ("calls", "self_s")),
    ("lattice_fock.virasoro_bracket_check", ("self_s",)),
    ("qseries.QSeries.__mul__", ("calls", "self_s", "terms_out")),
    ("qseries.QSeries.inverse", ("self_s",)),
    ("qseries.QSeries.divide", ("self_s",)),
    ("qseries.ZQSeries.mul_geometric_inverse", ("calls", "self_s")),
    ("qseries.lattice_coset_char", ("self_s",)),
    ("characters.affine_sl2_char", ("calls", "self_s")),
    ("characters.string_function", ("self_s",)),
    ("characters.decomposition_check_lki", ("self_s",)),
    ("characters.string_dual_route_check", ("self_s",)),
    ("fusion_identify.identify", ("calls", "self_s")),
    ("w1inf_symbols.generation_closure", ("self_s",)),
    ("w1inf_symbols.derivation_chains", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
    ("cli.run_check", ("calls", "self_s")),
    ("report.make_report", ("self_s",)),
    ("report.Report.to_json", ("self_s",)),
]

TRUNCATED_RESULTS = "lattice_fock.truncated_results"

UNITS = {
    "calls": "count",
    "self_s": "s",
    "terms_out": "count",
    "cells": "count",
    "nullity": "count",
    "kernel_dim": "count",
    "rank_per_candidate": "ratio",
}


def _truncated(args, res):
    return {"truncated": 1} if res.truncated else None


def _vector_out(args, res):
    out = {"terms_out": len(res.terms)}
    if res.truncated:
        out["truncated"] = 1
    return out


def _basis_out(args, res):
    out = {"dim": sum(len(rows) for rows in res.layers.values())}
    if res.truncated:
        out["truncated"] = 1
    return out


# what a span records about its call's result
OBSERVE = {
    "lattice_fock.affine_module_basis": _truncated,
    "lattice_fock.generated_subspace": _basis_out,
    "lattice_fock.mode_apply": _vector_out,
    "lattice_fock.exp_mode_apply": _truncated,
    "lattice_fock.heisenberg_apply": _truncated,
    "lattice_fock.commutant_kernel": lambda args, res: {
        "kernel_dim": sum(len(v) for v in res.values())
    },
    "lattice_fock.nullspace": lambda args, res: {
        "cells": len(args[0]) * args[1],
        "nullity": len(res),
    },
    "qseries.QSeries.__mul__": lambda args, res: {"terms_out": len(res.terms)},
}


class Recorder:
    """In-memory span store; one per traced pass."""

    def __init__(self):
        # [name, start, end, parent, request, attrs]
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, observe=None):
        spans = self.spans
        stack = self._stack
        # CPU time: the calibrator shares the pass's core
        clock = time.process_time
        root = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1]
            request = sid if root else (spans[parent][4] if parent >= 0 else -1)
            span = [name, 0.0, 0.0, parent, request, None]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[5] = observe(args, res)
            return res

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def install(recorder: Recorder) -> None:
    """Wrap every traced function of the loaded paraferm package."""
    modules = [
        m for n, m in sys.modules.items() if n == "paraferm" or n.startswith("paraferm.")
    ]
    for name, _ in LAYERS:
        modname, *path = name.split(".")
        owner = sys.modules["paraferm." + modname]
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        orig = getattr(owner, path[-1])
        wrapper = recorder.wrap(name, orig, OBSERVE.get(name))
        if isinstance(owner, type):
            setattr(owner, path[-1], wrapper)
            continue
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)


def load_spans(path: str) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one pass, keyed by metric name."""
    n = len(spans)
    covered = [0.0] * n
    # nearest generated_subspace span at or above each span
    under_gen = [-1] * n
    for sid, (name, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += end - start
            under_gen[sid] = under_gen[parent]
        if name == "lattice_fock.generated_subspace":
            under_gen[sid] = sid
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    attrs: dict[str, dict[str, int]] = {}
    gen_candidates = 0
    truncated = 0
    for sid, (name, start, end, parent, _, extra) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start - covered[sid])
        if name == "lattice_fock.mode_apply" and under_gen[sid] >= 0:
            gen_candidates += 1
        if extra:
            acc = attrs.setdefault(name, {})
            for key, value in extra.items():
                acc[key] = acc.get(key, 0) + value
            if name.startswith("lattice_fock.") and extra.get("truncated"):
                truncated += 1
    out: dict[str, float] = {}
    for name, wanted in LAYERS:
        for metric in wanted:
            if metric == "calls":
                value = calls.get(name, 0)
            elif metric == "self_s":
                value = self_s.get(name, 0.0)
            elif metric == "rank_per_candidate":
                dim = attrs.get(name, {}).get("dim", 0)
                value = dim / gen_candidates if gen_candidates else 0.0
            else:
                value = attrs.get(name, {}).get(metric, 0)
            out[f"{name}.{metric}"] = value
    out[TRUNCATED_RESULTS] = truncated
    return out


def metric_units() -> dict[str, str]:
    """Unit of every metric `layer_metrics` returns."""
    units = {
        f"{name}.{metric}": UNITS[metric] for name, wanted in LAYERS for metric in wanted
    }
    units[TRUNCATED_RESULTS] = "count"
    return units
