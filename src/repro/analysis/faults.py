"""Absorbed-vs-amplified fault analysis over a ``faults`` sweep.

A fault plan perturbs a run; the interesting question is whether the
stack *absorbs* the perturbation (oneway binder failures retry/drop and
the frame pipeline keeps its cadence) or *amplifies* it (killing
SurfaceFlinger's thread mid-window collapses composited frames until the
restart lands).  :func:`fault_report` pivots a sweep with a ``faults``
axis into per-plan rows against the fault-free baseline cell, and
:func:`evaluate_fault_claims` asserts the two headline behaviours as
:class:`~repro.analysis.claims.Claim` bands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.claims import Claim
from repro.analysis.sweep import pivot
from repro.core.sweep import AXIS_FAULTS, variant_label
from repro.errors import AnalysisError

if TYPE_CHECKING:
    from repro.core.sweep import SweepResult

#: A faulted cell keeping at least this fraction of the baseline's
#: composited frames counts as absorbed.
ABSORBED_FRAMES_RATIO = 0.9

#: Without a frame pipeline (SPEC benches), absorbed means total
#: references stayed within this percentage of the baseline.
ABSORBED_REFS_DELTA_PCT = 10.0


@dataclass(frozen=True)
class FaultRow:
    """One (benchmark, context, plan) cell measured against its baseline."""

    bench_id: str
    #: The other axes' values, e.g. ``seed=2`` (empty for faults-only sweeps).
    context: str
    #: Fault-plan name of the faulted cell.
    plan: str
    #: Percent change in total references vs the fault-free cell.
    refs_delta_pct: float
    #: Composited frames, faulted / baseline (None when the baseline
    #: drew no frames — SPEC benches have no frame pipeline).
    frames_ratio: "float | None"
    #: The faulted run's fault counters.
    counters: dict
    #: ``"absorbed"`` or ``"amplified"``.
    verdict: str


def _verdict(frames_ratio: "float | None", refs_delta_pct: float) -> str:
    if frames_ratio is not None:
        return (
            "absorbed" if frames_ratio >= ABSORBED_FRAMES_RATIO
            else "amplified"
        )
    return (
        "absorbed" if abs(refs_delta_pct) <= ABSORBED_REFS_DELTA_PCT
        else "amplified"
    )


def fault_report(sweep: "SweepResult") -> list[FaultRow]:
    """Every faulted cell measured against its fault-free baseline.

    Rows come out in grid order, one per (benchmark, context, plan),
    plans sorted by name within a context.  A context without its
    ``faults=none`` cell is skipped, since a delta needs its denominator
    (a sharded sweep may hold only faulted cells).  Raises when the
    sweep has no ``faults`` axis or no comparable baseline/faulted pair.
    """
    rows: list[FaultRow] = []
    for bench_id, fixed, cells in pivot(sweep, AXIS_FAULTS):
        baseline = cells.pop(None, None)
        if baseline is None:
            continue
        context = variant_label(fixed, fixed) if fixed else ""
        base_refs = baseline.total_refs
        base_frames = float(baseline.meta.get("sf_frames", 0))
        for plan, run in sorted(cells.items()):
            refs_delta = (
                100.0 * (run.total_refs - base_refs) / base_refs
                if base_refs else 0.0
            )
            frames_ratio = (
                float(run.meta.get("sf_frames", 0)) / base_frames
                if base_frames > 0 else None
            )
            rows.append(
                FaultRow(
                    bench_id=bench_id,
                    context=context,
                    plan=plan,
                    refs_delta_pct=refs_delta,
                    frames_ratio=frames_ratio,
                    counters=dict(run.fault_counters),
                    verdict=_verdict(frames_ratio, refs_delta),
                )
            )
    if not rows:
        raise AnalysisError(
            "fault report needs at least one (baseline, faulted) cell "
            "pair; merge shards or sweep faults=none,<plan>"
        )
    return rows


def render_fault_report(rows: "list[FaultRow]") -> str:
    """The report as an aligned text table."""
    header = (
        "benchmark", "context", "plan", "refs Δ%", "frames", "faults", "verdict"
    )
    body = []
    for row in rows:
        frames = (
            f"{row.frames_ratio:.2f}x" if row.frames_ratio is not None else "-"
        )
        fired = sum(row.counters.values())
        body.append((
            row.bench_id,
            row.context or "-",
            row.plan,
            f"{row.refs_delta_pct:+.1f}",
            frames,
            str(fired),
            row.verdict,
        ))
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body))
        for i in range(len(header))
    ]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(header)),
        "  ".join("-" * w for w in widths),
    ]
    lines += [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line))
        for line in body
    ]
    return "\n".join(lines)


def evaluate_fault_claims(sweep: "SweepResult") -> list[Claim]:
    """Assert the two headline fault behaviours over a ``faults`` sweep.

    - ``fault-binder-absorbed``: flaky binder transactions are retried
      or dropped without breaking the frame pipeline — every
      ``binder-flaky`` cell keeps (nearly) its baseline frame count.
    - ``fault-sf-kill-amplified``: killing SurfaceFlinger's composition
      thread amplifies one scheduled fault into a collapsed frame count
      for the rest of the window.

    Each claim only appears when the sweep actually ran its plan; an
    empty result means the sweep swept neither headline plan.
    """
    rows = fault_report(sweep)
    claims: list[Claim] = []

    flaky = [
        r.frames_ratio for r in rows
        if r.plan == "binder-flaky" and r.frames_ratio is not None
    ]
    if flaky:
        claims.append(Claim(
            "fault-binder-absorbed",
            "Flaky binder transactions are absorbed: the frame pipeline "
            "keeps its cadence (min frames ratio across binder-flaky cells)",
            "~1.0x",
            min(flaky),
            0.85, 1.15,
        ))

    kills = [
        r.frames_ratio for r in rows
        if r.plan == "sf-kill" and r.frames_ratio is not None
    ]
    if kills:
        claims.append(Claim(
            "fault-sf-kill-amplified",
            "Killing SurfaceFlinger's thread amplifies into dropped "
            "frames (max frames ratio across sf-kill cells)",
            "< 0.75x",
            max(kills),
            0.0, 0.75,
        ))

    if not claims:
        raise AnalysisError(
            "fault claims need android cells under the 'binder-flaky' "
            "or 'sf-kill' plans; sweep faults=none,binder-flaky,sf-kill"
        )
    return claims
