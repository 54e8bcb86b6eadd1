"""Spans and counters around numrange's public functions, from outside.

``Tracer.active()`` replaces, for the duration of a ``with`` block, every
public function of the numrange modules (and the numpy LAPACK entry points
numrange calls) with a wrapper that records a span: name, start, end and
the span it was called from.  A few wrappers also count work at the same
boundary: matrices per eigensolve, points in and out of the hull, points
emitted by the sweep, bytes written.  Spans stay in memory and are written
out as JSONL at the end; ``layer_metrics`` folds them into the per-layer
figures of the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "operators", "geometry", "sweep", "ellipse", "checks", "cli")
EIGENSOLVERS = ("eigh", "eigvalsh", "eig", "eigvals")
CHECK_NAMES = (
    "block_diagonalization",
    "eigenvector_lifting",
    "spectrum_union",
    "hull_convergence",
    "hull_containment",
    "selfadjoint_interval",
    "stadium_identity",
    "stadium_support_widths",
    "conjecture_hull",
    "conjecture_symmetry",
    "conjecture_ellipse_axes",
    "conjecture_negative_control",
)


def _eigensolve_counts(counts, args, kwargs, result):
    a = np.asarray(args[0])
    counts["linalg.matrices_solved"] += int(np.prod(a.shape[:-2], dtype=np.int64))
    counts["linalg.largest_batch_mb"] = max(counts["linalg.largest_batch_mb"], a.nbytes / 2**20)


def _boundary_points_counts(signature):
    def count(counts, args, kwargs, result):
        cfg = signature.bind(*args, **kwargs)
        cfg.apply_defaults()
        counts["sweep.points_emitted"] += result.size
        counts["sweep.degenerate_points"] += result.size - cfg.arguments["cfg"].num_theta

    return count


def _hull_counts(counts, args, kwargs, result):
    counts["geometry.hull_points_in"] += np.asarray(args[0]).size
    counts["geometry.hull_vertices_out"] += len(result)


def _csv_counts(counts, args, kwargs, result):
    counts["cli.bytes_written"] += os.path.getsize(args[1])


def _emit_counts(counts, args, kwargs, result):
    counts["cli.bytes_written"] += len(args[0].encode("utf-8"))


class Tracer:
    """Records spans of numrange calls made inside ``active()`` blocks."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.round = -1
        self._stack: list[int] = []
        self._targets = self._collect_targets()

    @staticmethod
    def _collect_targets():
        """(owner, attribute, span name, counter) for every function to wrap."""
        import numrange.cli  # imports every layer
        import numrange.sweep

        counters = {
            "sweep.boundary_points": _boundary_points_counts(
                inspect.signature(numrange.sweep.boundary_points)
            ),
            "geometry.convex_hull": _hull_counts,
            "geometry.polygon_to_csv": _csv_counts,
            "cli._emit": _emit_counts,
        }
        functions = {}
        for layer in LAYERS:
            module = sys.modules[f"numrange.{layer}"]
            names = [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]
            if layer == "cli":
                names.append("_emit")
            for name in names:
                functions[getattr(module, name)] = f"{layer}.{name}"
        targets = []
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "numrange"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in functions:
                    name = functions[value]
                    targets.append((module, attr, name, counters.get(name)))
        for name in EIGENSOLVERS:
            targets.append((np.linalg, name, f"numpy.linalg.{name}", _eigensolve_counts))
        return targets

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span] = (span, parent, name, start, end, self.round)
            if count is not None:
                count(counts, args, kwargs, result)
            if name.startswith("checks.check_"):
                counts[f"checks.{result.name}_s"] += end - start
            return result

        return traced

    @contextlib.contextmanager
    def active(self, round_index: int):
        """Trace numrange calls made inside the block, as round ``round_index``."""
        self.round = round_index
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in self._targets]
        wrapped = {}
        for (owner, attr, name, count), (_, _, fn) in zip(self._targets, originals):
            if fn not in wrapped:
                wrapped[fn] = self._wrap(name, fn, count)
            setattr(owner, attr, wrapped[fn])
        try:
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span, parent, name, start, end, rnd in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span, "parent": parent, "name": name, "start": start,
                         "end": end, "round": rnd}
                    )
                    + "\n"
                )

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures, per traced round.

        A layer's time sums its outermost spans (those not called from the
        same layer), so nested calls are not counted twice.  The sweep's
        ``boundary_points`` time is self time: its spans minus the spans
        they called.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time = defaultdict(float)
        for span, parent, name, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start

        def layer_of(name):
            return name.split(".")[0] if not name.startswith("numpy.") else "linalg.eig"

        out = defaultdict(float, self.counts)
        for span, parent, name, start, end, _ in self.spans:
            dur = end - start
            layer = layer_of(name)
            outer = parent < 0 or layer_of(by_id[parent][2]) != layer
            if layer == "linalg.eig":
                out["linalg.eigensolve_s"] += dur
            elif layer == "operators":
                out["operators.build_calls"] += 1
                out["operators.build_s"] += dur if outer else 0.0
            elif name == "sweep.boundary_points":
                out["sweep.boundary_points_s"] += dur - child_time[span]
            elif name == "sweep.symbol_union_hull":
                out["sweep.union_hull_calls"] += 1
            elif name == "sweep.truncation_range":
                out["sweep.truncation_range_calls"] += 1
            elif name == "geometry.convex_hull" and outer:
                out["geometry.hull_s"] += dur
            elif name == "geometry.hausdorff":
                out["geometry.hausdorff_s"] += dur
                out["geometry.hausdorff_calls"] += 1
            elif name == "ellipse.stadium_region":
                out["ellipse.stadium_s"] += dur
                out["ellipse.stadium_calls"] += 1
            elif name in ("cli._emit", "geometry.polygon_to_csv"):
                out["cli.write_s"] += dur
        metrics = {key: out[key] / rounds for key in PER_LAYER}
        metrics["linalg.largest_batch_mb"] = out["linalg.largest_batch_mb"]
        return metrics


PER_LAYER = {
    "operators.build_s": "s",
    "operators.build_calls": "count",
    "linalg.eigensolve_s": "s",
    "linalg.matrices_solved": "count",
    "linalg.largest_batch_mb": "MiB",
    "sweep.boundary_points_s": "s",
    "sweep.points_emitted": "count",
    "sweep.degenerate_points": "count",
    "sweep.union_hull_calls": "count",
    "sweep.truncation_range_calls": "count",
    "geometry.hull_s": "s",
    "geometry.hull_points_in": "count",
    "geometry.hull_vertices_out": "count",
    "geometry.hausdorff_s": "s",
    "geometry.hausdorff_calls": "count",
    "ellipse.stadium_s": "s",
    "ellipse.stadium_calls": "count",
    **{f"checks.{name}_s": "s" for name in CHECK_NAMES},
    "cli.write_s": "s",
    "cli.bytes_written": "B",
}
