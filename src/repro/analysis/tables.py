"""Table I: memory references from the most-executed threads.

Thread names are canonicalised the way the paper groups them: numbered
instances fold together (``Thread-12`` -> ``Thread``, ``AsyncTask #2`` ->
``AsyncTask``, ``Binder Thread #5`` -> ``Binder Thread``, ``AudioOut_1``
-> ``AudioOut``), and per-process main threads (named after their comm)
fold into ``main``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.core.results import SuiteResult

_NUMBER_SUFFIX = re.compile(r"[ _#-]*\d+$")

#: Non-app processes whose main threads keep their own identity.
_NATIVE_MAINS = frozenset(
    {"swapper", "init", "servicemanager", "vold", "netd", "rild", "adbd",
     "debuggerd", "installd", "keystore", "mediaserver", "dexopt"}
)


def canonical_thread_name(comm: str, thread_name: str) -> str:
    """Fold numbered thread instances into family names.

    Main threads keep their process identity (as they do in the paper's
    trace, where each benchmark's main thread carries the process name and
    therefore never aggregates into a suite-wide bucket).
    """
    if "/" in thread_name:  # kernel worker threads (ata_sff/0, ksoftirqd/0)
        return thread_name
    if thread_name == comm:
        return thread_name
    folded = _NUMBER_SUFFIX.sub("", thread_name)
    return folded if folded else thread_name


@dataclass(frozen=True)
class ThreadRow:
    """One row of Table I."""

    thread: str
    percent: float
    refs: int


@dataclass
class Table1:
    """The full thread ranking (the paper prints the top six)."""

    rows: list[ThreadRow]
    total_refs: int

    def top(self, n: int = 6) -> list[ThreadRow]:
        """The *n* highest-ranked threads."""
        return self.rows[:n]

    def percent_of(self, thread: str) -> float:
        """Share of one canonical thread name (0 when absent)."""
        for row in self.rows:
            if row.thread == thread:
                return row.percent
        return 0.0


def table1(
    suite: "SuiteResult", bench_ids: Iterable[str] | None = None
) -> Table1:
    """Aggregate thread references across the suite (Agave runs only by
    default — Table I characterises the Android workloads)."""
    from repro.core.suite import AGAVE_IDS

    ids = list(bench_ids) if bench_ids is not None else [
        b for b in AGAVE_IDS if b in suite.runs
    ]
    totals: dict[str, int] = {}
    grand_total = 0
    for bench_id in ids:
        run = suite.get(bench_id)
        for (comm, tname), refs in run.refs_by_thread.items():
            name = canonical_thread_name(comm, tname)
            totals[name] = totals.get(name, 0) + refs
            grand_total += refs
    rows = [
        ThreadRow(name, 100.0 * refs / grand_total if grand_total else 0.0, refs)
        for name, refs in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    return Table1(rows=rows, total_refs=grand_total)
