"""Scalar-claim checks: paper statements vs measured values.

Each claim from the paper's prose gets a :class:`Claim` with the paper's
value/band and the measured counterpart, so EXPERIMENTS.md and the claims
bench print an explicit pass/fail table.  :func:`evaluate_sweep_claims`
asserts the paper's *delta* statements (e.g. the JIT ablation) directly
over a :class:`~repro.core.sweep.SweepResult` instead of ad-hoc pairs of
runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.sweep import pivot
from repro.analysis.tables import table1
from repro.core.suite import AGAVE_IDS, SPEC_IDS
from repro.errors import AnalysisError

if TYPE_CHECKING:
    from repro.core.results import RunResult, SuiteResult
    from repro.core.sweep import SweepResult


@dataclass(frozen=True)
class Claim:
    """One paper statement and its measured value."""

    claim_id: str
    statement: str
    paper_value: str
    measured: float
    low: float
    high: float

    @property
    def holds(self) -> bool:
        """True when the measurement falls inside the accepted band."""
        return self.low <= self.measured <= self.high

    def describe(self) -> str:
        """One-line report."""
        status = "PASS" if self.holds else "FAIL"
        return (
            f"[{status}] {self.claim_id}: paper={self.paper_value} "
            f"measured={self.measured:.1f} band=[{self.low:g}, {self.high:g}]"
        )


def _union_regions(suite: "SuiteResult", ids, instr: bool) -> int:
    labels: set[str] = set()
    for bench_id in ids:
        run = suite.get(bench_id)
        labels |= set(run.instr_by_region if instr else run.data_by_region)
    return len(labels)


def evaluate_claims(suite: "SuiteResult") -> list[Claim]:
    """Evaluate every scalar claim the paper makes.

    Bands are deliberately loose where the paper gives a qualitative
    statement, and tight where it gives a number.
    """
    agave = [b for b in AGAVE_IDS if b in suite.runs]
    spec = [b for b in SPEC_IDS if b in suite.runs]
    claims: list[Claim] = []

    if agave:
        code_counts = [suite.get(b).code_region_count() for b in agave]
        data_counts = [suite.get(b).data_region_count() for b in agave]
        proc_counts = [suite.get(b).live_processes for b in agave]
        # Threads observed issuing references during the window (the
        # paper's trace-based census); the kernel-table census lives in
        # RunResult.threads_spawned_total.
        thread_counts = [suite.get(b).thread_count() for b in agave]

        claims.append(Claim(
            "agave-instr-regions",
            "Agave uses instructions from over 65 distinct regions",
            "> 65",
            float(_union_regions(suite, agave, instr=True)),
            55.0, 250.0,
        ))
        claims.append(Claim(
            "agave-data-regions",
            "Agave references almost 170 distinct data regions",
            "~170",
            float(_union_regions(suite, agave, instr=False)),
            100.0, 260.0,
        ))
        claims.append(Claim(
            "per-app-code-regions-min",
            "Individual apps use 42-55 code regions (minimum)",
            "42",
            float(min(code_counts)),
            30.0, 55.0,
        ))
        claims.append(Claim(
            "per-app-code-regions-max",
            "Individual apps use 42-55 code regions (maximum)",
            "55",
            float(max(code_counts)),
            42.0, 75.0,
        ))
        claims.append(Claim(
            "per-app-data-regions-min",
            "Individual apps use 32-104 data regions (minimum)",
            "32",
            float(min(data_counts)),
            22.0, 75.0,
        ))
        claims.append(Claim(
            "per-app-data-regions-max",
            "Individual apps use 32-104 data regions (maximum)",
            "104",
            float(max(data_counts)),
            60.0, 140.0,
        ))
        claims.append(Claim(
            "processes-min",
            "Agave applications run 20-34 processes (minimum)",
            "20",
            float(min(proc_counts)),
            18.0, 30.0,
        ))
        claims.append(Claim(
            "processes-max",
            "Agave applications run 20-34 processes (maximum)",
            "34",
            float(max(proc_counts)),
            24.0, 40.0,
        ))
        claims.append(Claim(
            "threads-min",
            "Executing Agave applications spawns 32-147 threads (minimum)",
            "32",
            float(min(thread_counts)),
            25.0, 70.0,
        ))
        claims.append(Claim(
            "threads-max",
            "Executing Agave applications spawns 32-147 threads (maximum)",
            "147",
            float(max(thread_counts)),
            60.0, 180.0,
        ))

        table = table1(suite)
        claims.append(Claim(
            "surfaceflinger-share",
            "SurfaceFlinger accounts for 43.4% of all references",
            "43.4%",
            table.percent_of("SurfaceFlinger"),
            30.0, 55.0,
        ))
        claims.append(Claim(
            "compiler-share",
            "The JIT Compiler thread contributes 7.1%",
            "7.1%",
            table.percent_of("Compiler"),
            2.0, 14.0,
        ))
        claims.append(Claim(
            "gc-share",
            "The GC thread contributes 5.3%",
            "5.3%",
            table.percent_of("GC"),
            1.5, 12.0,
        ))
        claims.append(Claim(
            "audiotrack-share",
            "AudioTrackThread contributes 5.9%",
            "5.9%",
            table.percent_of("AudioTrackThread"),
            1.5, 12.0,
        ))
        claims.append(Claim(
            "thread-share",
            "Generic Thread workers contribute 8.0%",
            "8.0%",
            table.percent_of("Thread"),
            2.5, 16.0,
        ))
        claims.append(Claim(
            "asynctask-share",
            "AsyncTask workers contribute 7.6%",
            "7.6%",
            table.percent_of("AsyncTask"),
            2.0, 15.0,
        ))

    if "gallery.mp4.view" in suite.runs:
        run = suite.get("gallery.mp4.view")
        claims.append(Claim(
            "gallery-mediaserver-instr",
            "mediaserver carries 81% of gallery.mp4.view instruction refs",
            "81%",
            100.0 * run.proc_share("mediaserver", instr=True),
            60.0, 95.0,
        ))
        claims.append(Claim(
            "gallery-mediaserver-data",
            "mediaserver carries 77% of gallery.mp4.view data refs",
            "77%",
            100.0 * run.proc_share("mediaserver", instr=False),
            55.0, 95.0,
        ))

    if spec:
        shares = []
        for bench_id in spec:
            run = suite.get(bench_id)
            share = run.region_share("app binary", instr=True)
            share += run.region_share("OS kernel", instr=True)
            shares.append(100.0 * share)
        claims.append(Claim(
            "spec-instr-concentration",
            "SPEC instruction references come almost entirely from the "
            "application binary and the OS kernel",
            "~100%",
            min(shares),
            85.0, 100.0,
        ))
        spec_regions = [
            suite.get(b).effective_region_count(0.99, instr=True) for b in spec
        ]
        claims.append(Claim(
            "spec-few-regions",
            "99% of SPEC instruction references come from a handful of "
            "regions (Agave needs dozens)",
            "qualitative",
            float(max(spec_regions)),
            1.0, 12.0,
        ))

    return claims


def failed_claims(suite: "SuiteResult") -> list[Claim]:
    """The claims that do not hold (empty means full reproduction)."""
    return [c for c in evaluate_claims(suite) if not c.holds]


# ---------------------------------------------------------------------------
# Sweep-aware claims: paper deltas measured over a SweepResult


def evaluate_sweep_claims(sweep: "SweepResult") -> list[Claim]:
    """Evaluate delta claims over a sweep's grid.

    Today that is the JIT ablation (the grid must sweep a ``jit`` axis
    over both values): disabling the trace JIT must *collapse* the
    ``dalvik-jit-code-cache`` instruction region to zero and retire the
    Compiler thread, while the JIT-on cells keep a visible code-cache
    share — asserted across every (benchmark, context) pair of the grid
    at once rather than over one hand-picked run pair.
    """
    # Complete on/off pairs, one per (benchmark, other-axis context).
    pairs = [
        cells for _, _, cells in pivot(sweep, "jit")
        if True in cells and False in cells
    ]
    if not pairs:
        raise AnalysisError(
            "sweep claims need a 'jit' axis with both on and off cells; "
            f"swept axes: {', '.join(sweep.axes) or '-'}"
        )
    jit_region = "dalvik-jit-code-cache"
    on_shares = [100.0 * p[True].region_share(jit_region) for p in pairs]
    off_shares = [100.0 * p[False].region_share(jit_region) for p in pairs]
    compiler_refs_off = [
        p[False].refs_by_thread.get((p[False].benchmark_comm, "Compiler"), 0)
        for p in pairs
    ]
    return [
        Claim(
            "sweep-jit-cache-collapse",
            "Disabling the JIT erases the dalvik-jit-code-cache "
            "instruction region (max share across the jit=off cells)",
            "0%",
            max(off_shares),
            0.0, 0.01,
        ),
        Claim(
            "sweep-jit-cache-present",
            "With the JIT on, traces execute from dalvik-jit-code-cache "
            "(max share across the jit=on cells)",
            "> 0%",
            max(on_shares),
            0.005, 40.0,
        ),
        Claim(
            "sweep-jit-compiler-retired",
            "Disabling the JIT retires the Compiler thread "
            "(max references across the jit=off cells)",
            "0",
            float(max(compiler_refs_off)),
            0.0, 0.0,
        ),
    ]
