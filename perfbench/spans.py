"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps the public functions of each ``intraday`` module from
outside the package: :func:`install` replaces every module global that
points at one of those functions (in its own module, in the modules that
imported it, and in ``intraday.cli``) with a wrapper that records a span.
Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, pass_id, counts]``: ``parent`` is the
index of the enclosing span in the same process (or ``None``) and ``counts``
holds the counts observed at that boundary.  Spans stay in memory and are
written once, when the process ends.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
import types
from contextlib import contextmanager

LAYERS = (
    "panel",
    "tableio",
    "synth",
    "robust_moments",
    "cross_section",
    "seasonality",
    "spectral",
    "conditioning",
)

# Called once per table cell: a span per call would cost more than the work.
UNTRACED = {"tableio.format_cell"}

CURVES = ("dispersion_vs_index", "skew_vs_index", "kurtosis_vs_index", "kurtosis_vs_dispersion")

# Flop count of a symmetric eigendecomposition with eigenvectors,
# about 9 N^3 (Golub & Van Loan, symmetric QR algorithm).
EIGH_FLOPS_PER_N3 = 9


def _size(path) -> int:
    if isinstance(path, (str, os.PathLike)):
        return os.path.getsize(path)
    return 0


def _table_rows(path) -> int:
    """Data rows of a written table: its lines minus schema and header."""
    if not isinstance(path, (str, os.PathLike)):
        return 0
    with open(path, "rb") as handle:
        return handle.read().count(b"\n") - 2


# Counts read at a function's boundary, from its arguments, its result and
# the files it touched: (args, kwargs, result) -> {metric: value}.
COUNTERS = {
    "panel.read_return_records": lambda a, k, r: {
        "panel.rows_parsed": len(r),
        "panel.bytes_read": _size(a[0]),
    },
    "panel.read_price_records": lambda a, k, r: {
        "panel.rows_parsed": len(r),
        "panel.bytes_read": _size(a[0]),
    },
    "panel.load_panel": lambda a, k, r: {
        "panel.stocks_dropped": len(r[1].stocks_dropped),
        "panel.days_dropped": len(r[1].days_dropped),
    },
    "panel.write_return_records": lambda a, k, r: {
        "panel.bytes_written": _size(a[1]),
    },
    "tableio.write_table": lambda a, k, r: {
        "tableio.rows_written": _table_rows(a[0]),
        "tableio.bytes_written": _size(a[0]),
    },
    "synth.generate_market": lambda a, k, r: {"synth.cells": r[0].returns.size},
    "robust_moments.stock_bin_moments": lambda a, k, r: {
        "robust_moments.degenerate_cells": int(r.degenerate.sum()),
    },
    "cross_section.dispersion_grid": lambda a, k, r: {
        "cross_section.degenerate_cells": int(r.degenerate.sum()),
    },
    "spectral.eigen_decompose": lambda a, k, r: {
        "spectral.eigh_flops_computed": EIGH_FLOPS_PER_N3 * r.n**3,
        "spectral.eigvec_bytes_computed": r.eigenvectors.nbytes,
    },
}
for _curve in CURVES:
    COUNTERS[f"conditioning.{_curve}"] = lambda a, k, r: {
        "conditioning.omitted_buckets": r.omitted_buckets,
    }


class SpanRecorder:
    """In-memory spans of one process; ``pass_id`` tags the spans opened."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; yields its counts dict."""
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.pass_id, {}]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record[5]
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts.update(counter(args, kwargs, result))
            return result

        return traced

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, **extra}, handle)


def install(recorder: SpanRecorder, cli_module=None) -> None:
    """Wrap the public functions of every layer module, and the stage
    functions of ``intraday.cli`` when it is given."""
    import importlib

    modules = [importlib.import_module(f"intraday.{m}") for m in LAYERS]
    wrapped = {}
    for module in modules:
        layer = module.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in UNTRACED
            ):
                wrapped[obj] = recorder.wrap(name, obj)
    if cli_module is not None:
        for attr, obj in vars(cli_module).items():
            if attr.startswith("stage_") and isinstance(obj, types.FunctionType):
                wrapped[obj] = recorder.wrap(f"cli.stage.{attr[6:]}", obj)
        modules.append(cli_module)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    # The CLI dispatches through a table built at import time.
    stages = getattr(cli_module, "_STAGES", None)
    if isinstance(stages, dict):
        for key, fn in stages.items():
            stages[key] = wrapped.get(fn, fn)


# --- aggregation -----------------------------------------------------------
#
# Each metric is a median over groups of spans.  A group is one timed pass,
# or the set-up (pass id 0).  A metric is taken over the groups where its
# span or count appears, and reads 0 where it appears in none: the layer did
# no work on that workload.

STAGES = ("synth", "ingest", "moments", "cross_section", "fit", "spectra", "condition")

# name -> (unit, kind, source).  kind "time" sums the inclusive time of the
# named spans, "self" their time minus their child spans, "calls" counts
# them, "count" sums the count of that name recorded at a boundary, and
# "each" takes the median of a count over the processes that recorded it.
# Every per-layer metric is better lower.


def _time(*names):
    return ("s", "time", names)


def _count(name, unit="count"):
    return (unit, "count", name)


LAYER_METRICS: dict[str, tuple] = {
    "cli.import_s": ("s", "each", "cli.import_s"),
    **{f"cli.stage.{s}_s": _time(f"cli.stage.{s}") for s in STAGES},
    "panel.read_return_records_s": _time("panel.read_return_records"),
    "panel.read_return_records.calls": ("count", "calls", "panel.read_return_records"),
    "panel.rows_parsed": _count("panel.rows_parsed"),
    "panel.read_price_records_s": _time("panel.read_price_records"),
    "panel.returns_from_prices_s": ("s", "self", ("panel.returns_from_prices",)),
    "panel.load_panel_s": ("s", "self", ("panel.load_panel",)),
    "panel.validate_panel_s": _time("panel.validate_panel"),
    "panel.panel_to_records_s": _time("panel.panel_to_records"),
    "panel.write_return_records_s": _time("panel.write_return_records"),
    "panel.bytes_read": _count("panel.bytes_read", "B"),
    "panel.bytes_written": _count("panel.bytes_written", "B"),
    "panel.stocks_dropped": _count("panel.stocks_dropped"),
    "panel.days_dropped": _count("panel.days_dropped"),
    "tableio.read_table_s": _time("tableio.read_table"),
    "tableio.write_table_s": _time("tableio.write_table"),
    "tableio.rows_written": _count("tableio.rows_written"),
    "tableio.bytes_written": _count("tableio.bytes_written", "B"),
    "synth.generate_market_s": _time("synth.generate_market"),
    "synth.cells": _count("synth.cells"),
    "robust_moments.stock_bin_moments_s": _time("robust_moments.stock_bin_moments"),
    "robust_moments.degenerate_cells": _count("robust_moments.degenerate_cells"),
    "cross_section.dispersion_grid_s": _time("cross_section.dispersion_grid"),
    "cross_section.dispersion_grid.calls": ("count", "calls", "cross_section.dispersion_grid"),
    "cross_section.normalize_panel_s": _time("cross_section.normalize_panel"),
    "cross_section.degenerate_cells": _count("cross_section.degenerate_cells"),
    "seasonality.profiles_s": _time(
        "seasonality.profile_over_days",
        "seasonality.profile_over_stocks",
        "seasonality.ratio_profile",
    ),
    "seasonality.fit_power_law_s": _time("seasonality.fit_power_law"),
    "spectral.correlation_matrix_s": _time("spectral.correlation_matrix"),
    "spectral.eigen_decompose_s": _time("spectral.eigen_decompose"),
    "spectral.eigh_calls": ("count", "calls", "spectral.eigen_decompose"),
    "spectral.eigh_flops_computed": _count("spectral.eigh_flops_computed", "flop"),
    "spectral.eigvec_bytes_computed": _count("spectral.eigvec_bytes_computed", "B"),
    "spectral.rank_deficient_bins": _count("spectral.rank_deficient_bins"),
    "spectral.overlap_singular_values_s": _time("spectral.overlap_singular_values"),
    "spectral.random_overlap_baseline_s": _time("spectral.random_overlap_baseline"),
    "conditioning.curves_s": _time(*(f"conditioning.{c}" for c in CURVES)),
    "conditioning.omitted_buckets": _count("conditioning.omitted_buckets"),
}


def _group_values(spans: list[list]) -> dict[str, float]:
    """Per-metric totals over one group of spans (one process or more)."""
    child_time: dict[tuple, float] = {}
    for span in spans:
        if span[3] is not None:
            key = (span[6], span[3])
            child_time[key] = child_time.get(key, 0.0) + span[2] - span[1]
    present: dict[str, float] = {}
    for metric, (_, kind, source) in LAYER_METRICS.items():
        if kind == "each":
            continue
        total, seen = 0.0, False
        for span in spans:
            if kind == "count":
                if source in span[5]:
                    total += span[5][source]
                    seen = True
            elif kind == "calls":
                if span[0] == source:
                    total += 1
                    seen = True
            elif span[0] in source:
                total += span[2] - span[1]
                if kind == "self":
                    total -= child_time.get((span[6], span[7]), 0.0)
                seen = True
        if seen:
            present[metric] = total
    return present


def layer_metrics(span_files: list) -> dict[str, float]:
    """Median of each per-layer metric over the groups it appears in.

    Span files are those written by :meth:`SpanRecorder.dump`; spans from
    different files that share a pass id belong to one group.
    """
    groups: dict[int, list[list]] = {}
    for file_index, path in enumerate(span_files):
        with open(path, encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
        for i, span in enumerate(spans):
            # tag with (file, index) so parents resolve within their file
            groups.setdefault(span[4], []).append(span + [file_index, i])
    per_group = [_group_values(spans) for _, spans in sorted(groups.items())]
    out = {}
    for metric, (_, kind, source) in LAYER_METRICS.items():
        if kind == "each":
            values = [s[5][source] for g in groups.values() for s in g if source in s[5]]
        else:
            values = [g[metric] for g in per_group if metric in g]
        out[metric] = statistics.median(values) if values else 0.0
    return out
