"""Per-axis delta tables over a sweep: how a metric moves along one axis.

For each swept axis, :func:`axis_table` pivots the grid so rows are
``(benchmark, fixed other-axis values)`` and columns are that axis's
values, with percentage deltas against the first (baseline) value —
the shape of the paper's ablation discussions ("disabling the JIT moves
X% of instruction fetches back into libdvm.so").
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping, TypeVar

from repro.core.results import RUN_METRICS
from repro.core.sweep import format_axis_value, variant_label
from repro.errors import AnalysisError

if TYPE_CHECKING:
    from repro.core.results import RunResult
    from repro.core.sweep import SweepResult

_T = TypeVar("_T")

#: Named metrics a delta table can pivot on: every run metric.
METRICS = RUN_METRICS

#: Per-core metric pattern: ``cpu<N>_refs`` (references retired on core
#: N), ``cpu<N>_share`` (their percent of all references) and
#: ``cpu<N>_busy`` (core N's busy ticks).
_CPU_METRIC = re.compile(r"cpu(\d+)_(refs|share|busy)")


def _cpu_metric(cpu_id: int, kind: str) -> "Callable[[RunResult], float]":
    if kind == "refs":
        return lambda run: float(run.refs_by_cpu().get(cpu_id, 0))
    if kind == "busy":
        return lambda run: float(run.busy_ticks_by_cpu.get(cpu_id, 0))

    def share(run: "RunResult") -> float:
        refs = run.refs_by_cpu()
        total = sum(refs.values())
        return 100.0 * refs.get(cpu_id, 0) / total if total else 0.0

    return share


def resolve_metric(name: str) -> "Callable[[RunResult], float]":
    """Look up a named metric, including the per-core ``cpuN_*`` family.

    The per-core metrics put one core's column into any delta table —
    e.g. ``--metric cpu0_share`` across a ``cpu_profile=none,2+2`` axis
    shows how much of the workload the first big core absorbs.
    """
    try:
        return METRICS[name]
    except KeyError:
        pass
    match = _CPU_METRIC.fullmatch(name)
    if match is not None:
        return _cpu_metric(int(match.group(1)), match.group(2))
    raise AnalysisError(
        f"unknown sweep metric {name!r}; known: {', '.join(sorted(METRICS))}, "
        f"cpu<N>_refs, cpu<N>_share, cpu<N>_busy"
    )


@dataclass(frozen=True)
class SweepRow:
    """One pivot row: a benchmark under one fixed context."""

    bench_id: str
    #: The other axes' values, e.g. ``seed=2`` (empty for single-axis sweeps).
    context: str
    #: The metric at each of the axis's values, in axis order.
    metrics: tuple[float, ...]
    #: Percent change vs the first value (first entry always 0.0).
    deltas: tuple[float, ...]


@dataclass(frozen=True)
class SweepTable:
    """A metric pivoted along one axis of a sweep."""

    axis: str
    #: Formatted labels of the axis's values, e.g. ``("on", "off")``.
    value_labels: tuple[str, ...]
    metric: str
    rows: tuple[SweepRow, ...]
    #: Rows omitted because at least one axis value's cell was missing
    #: (an unmerged shard, a partial grid).  Carried so renderers can
    #: say so — a table silently missing rows reads as a complete grid.
    dropped: int = 0


def _deltas(metrics: "tuple[float, ...]") -> "tuple[float, ...]":
    base = metrics[0]
    if base == 0.0:
        return tuple(0.0 for _ in metrics)
    return tuple(100.0 * (m - base) / base for m in metrics)


def pivot(
    result: "SweepResult",
    axis: str,
    cells: "Mapping[tuple[str, str], _T] | None" = None,
) -> "list[tuple[str, dict[str, object], dict[object, _T]]]":
    """The grid seen along *axis*: ``(bench_id, other-axis values,
    {axis value: cell})`` for every benchmark and every combination of
    the other axes, in grid order.

    *cells* maps ``(bench_id, variant)`` to what each cell holds: by
    default the runs of *result*, or one value per cell kept by a caller
    that did not keep the runs.  A cell it lacks (an unmerged shard, a
    partial grid) is absent from its dict."""
    if axis not in result.axes:
        raise AnalysisError(
            f"no axis {axis!r} in sweep; swept: {', '.join(result.axes) or '-'}"
        )
    if cells is None:
        cells = result.runs
    order = list(result.axes)
    others = [name for name in order if name != axis]
    out = []
    for bench_id in result.benches():
        for combo in itertools.product(*(result.axes[name] for name in others)):
            fixed = dict(zip(others, combo))
            row = {}
            for value in result.axes[axis]:
                key = (bench_id, variant_label({**fixed, axis: value}, order))
                if key in cells:
                    row[value] = cells[key]
            out.append((bench_id, fixed, row))
    return out


def axis_table(
    result: "SweepResult",
    axis: str,
    metric: str = "total_refs",
    values: "Mapping[tuple[str, str], float] | None" = None,
) -> SweepTable:
    """Pivot *metric* along *axis*, one row per (bench, other-axis combo).

    *values* holds *metric* of each ``(bench_id, variant)`` cell when
    the caller measured it already (the CLI sweep keeps one value per
    cell, not the runs); by default each run of *result* is measured.

    Rows with missing cells are dropped rather than raised: a sharded
    sweep holds only its slice of the grid, and a delta is only
    meaningful when every value of the axis is present for the row
    (merge the shards via :meth:`~repro.core.sweep.SweepResult.merge`
    to get the full table).  The drop is counted, never silent — the
    table carries :attr:`SweepTable.dropped` and renderers report it.
    """
    if values is None:
        measure = resolve_metric(metric)
        values = {key: measure(run) for key, run in result.runs.items()}
    groups = pivot(result, axis, values)
    rows = []
    for bench_id, fixed, cells in groups:
        if len(cells) != len(result.axes[axis]):
            continue
        metrics = tuple(cells.values())
        rows.append(
            SweepRow(
                bench_id=bench_id,
                context=variant_label(fixed, fixed) if fixed else "",
                metrics=metrics,
                deltas=_deltas(metrics),
            )
        )
    return SweepTable(
        axis=axis,
        value_labels=tuple(
            format_axis_value(v) for v in result.axes[axis]
        ),
        metric=metric,
        rows=tuple(rows),
        dropped=len(groups) - len(rows),
    )


def sweep_tables(
    result: "SweepResult",
    metric: str = "total_refs",
    values: "Mapping[tuple[str, str], float] | None" = None,
) -> list[SweepTable]:
    """One delta table per swept axis, in declaration order (*values* as
    for :func:`axis_table`)."""
    return [axis_table(result, axis, metric, values) for axis in result.axes]
