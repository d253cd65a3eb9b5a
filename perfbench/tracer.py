"""Span tracer that wraps treelab's public functions from outside the package.

`Tracer.install()` replaces each function listed in `TRACED` with a wrapper
in every treelab module that bound it (so `from .exactalg import
howell_array` in `halftree` is wrapped too, and calls inside `exactalg`
nest), and replaces the listed methods on their classes.  `restore()` puts
every original object back.  Spans are kept in memory as
`[name, start, end, parent]` lists and aggregated only at the end.

Only the traced benchmark run imports this module; untraced runs carry no
wrapper.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable

import numpy as np

# (module, attribute path) of every wrapped callable, grouped by layer
TRACED: tuple[tuple[str, str], ...] = (
    ("exactalg", "howell_array"),
    ("exactalg", "kernel_array"),
    ("exactalg", "RowSolver.__init__"),
    ("exactalg", "RowSolver.solve"),
    ("exactalg", "CanonicalBasis.reduce_rows"),
    ("exactalg", "preimage_kernel"),
    ("exactalg", "span_sum"),
    ("exactalg", "split_test"),
    ("halftree", "build_complex"),
    ("halftree", "ChainComplexData.boundary_span"),
    ("halftree", "ChainComplexData.h0_generator_matrix"),
    ("halftree", "fixed_classes"),
    ("halftree", "check_corrpro"),
    ("halftree", "sample_fixed_class"),
    ("halftree", "reduce_chain"),
    ("hecke", "build_hecke"),
    ("hecke", "check_flatness"),
    ("hecke", "check_vytastra"),
    ("hecke", "tensor_K"),
    ("hecke", "check_assoc"),
    ("grouprep", "invariants"),
    ("grouprep", "generated_submodule"),
    ("grouprep", "h1_procyclic"),
    ("lemmas", "check_comparison_map"),
    ("lemmas", "check_minimal_generators"),
    ("lemmas", "check_invariant_surjectivity"),
    ("lemmas", "check_inherited_generation"),
    ("catalog", "builtin_catalog"),
    ("cli", "run_suite"),
)

# callables whose input matrix size is recorded; value = index of the matrix argument
SIZED = {"exactalg.howell_array": 1, "exactalg.kernel_array": 1, "exactalg.RowSolver.init": 2}
HOWELL = "exactalg.howell_array"

# per-layer metric suffix -> (unit, better)
_TIME_STATS = {"calls": ("count", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower")}
_SIZE_STATS = {"cells": ("count", "lower"), "max_cells": ("count", "lower")}
_HOWELL_STATS = {
    "out_nnz_per_row": ("nnz/row", "lower"),
    "rank_ratio": ("ratio", "higher"),
    "ring_calls": ("count", "lower"),
}
TRACE_STATS = {
    "trace.setup_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__init__', 'init')}"


def declared_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name the traced run emits, with (unit, better)."""
    out: dict[str, tuple[str, str]] = {}
    for module, attr in TRACED:
        name = span_name(module, attr)
        stats = dict(_TIME_STATS)
        if name in SIZED:
            stats.update(_SIZE_STATS)
        if name == HOWELL:
            stats.update(_HOWELL_STATS)
        for stat, spec in stats.items():
            out[f"{name}.{stat}"] = spec
    out.update(TRACE_STATS)
    return out


def _matrix_shape(a: Any) -> tuple[int, int]:
    shape = np.shape(a)
    if len(shape) == 1:
        return 1, shape[0]
    return shape[0], shape[1]


class Tracer:
    """Wraps treelab callables, records nested spans, restores originals."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        # per sized callable: [cells, max_cells]; howell extras below
        self.sizes = {name: [0, 0] for name in SIZED}
        self.howell = {"in_rows": 0, "out_rows": 0, "ring_calls": 0, "largest_nnz_per_row": 0.0}

    # -- wrapping ------------------------------------------------------
    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        matrix_arg = SIZED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
            if matrix_arg is not None:
                self._record_size(name, args[matrix_arg], args[matrix_arg - 1], out)
            return out

        return wrapper

    def _record_size(self, name: str, matrix: Any, ring: Any, out: Any) -> None:
        rows, cols = _matrix_shape(matrix)
        cells = rows * cols
        acc = self.sizes[name]
        acc[0] += cells
        largest = cells > acc[1]
        acc[1] = max(acc[1], cells)
        if name != HOWELL:
            return
        h = self.howell
        h["in_rows"] += rows
        h["out_rows"] += out.nrows
        h["ring_calls"] += int(ring.e > 1)
        if largest:
            h["largest_nnz_per_row"] = float(np.count_nonzero(out.mat)) / max(out.nrows, 1)

    def install(self, package: str = "treelab") -> None:
        """Wrap every entry of TRACED in all loaded modules of the package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        for module_name, attr in TRACED:
            owner: Any = sys.modules[f"{package}.{module_name}"]
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)

    def _patch(self, target: Any, attr: str, new: Any) -> None:
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, new)

    def restore(self) -> None:
        for target, attr, orig in reversed(self._patches):
            setattr(target, attr, orig)

    def unrestored(self) -> list[str]:
        """Patched attributes that do not hold their original object."""
        return [
            f"{getattr(t, '__name__', t)}.{a}"
            for t, a, orig in self._patches
            if t.__dict__.get(a) is not orig
        ]

    # -- aggregation ---------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over all spans recorded so far."""
        stats = layer_stats(self.spans)
        out: dict[str, float] = {}
        for module_name, attr in TRACED:
            name = span_name(module_name, attr)
            calls, incl, self_s = stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
            if name in SIZED:
                out[f"{name}.cells"], out[f"{name}.max_cells"] = self.sizes[name]
        h = self.howell
        out[f"{HOWELL}.out_nnz_per_row"] = h["largest_nnz_per_row"]
        out[f"{HOWELL}.rank_ratio"] = h["out_rows"] / h["in_rows"] if h["in_rows"] else 0.0
        out[f"{HOWELL}.ring_calls"] = h["ring_calls"]
        return out

    def max_cells(self) -> int:
        return max(acc[1] for acc in self.sizes.values())


def layer_stats(spans: list[list]) -> dict[str, tuple[int, float, float]]:
    """name -> (calls, inclusive seconds, self seconds).

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, list] = {}
    for (name, t0, t1, _), covered in zip(spans, child_time):
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += t1 - t0
        acc[2] += (t1 - t0) - covered
    return {k: tuple(v) for k, v in out.items()}
