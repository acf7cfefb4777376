"""Pool execution (the ``--jobs N > 1`` backend): the calling thread
feeds a process pool and reports every run itself, in pull order.

Each benchmark boots a fully isolated :class:`~repro.sim.system.System`
with a seed derived only from ``(cfg.seed, bench_id)``, so runs are
embarrassingly parallel.  Workers receive ``(bench_id, cfg)`` — the
config (including any :class:`~repro.calibration.Calibration` override)
pickles across the process boundary, and
:func:`~repro.core.runner.execute_one` hands the override to the
worker's fresh ``System``, so no parent-process global state is relied
upon.

Reporting overlaps with simulation: cache writes and progress I/O for
finished runs happen while later runs still simulate, and with no
second thread, callbacks need no locks.  Pull order, the order
:class:`~repro.core.backends.serial.SerialBackend` reports in, makes
the output byte-identical whatever the completion order or job count.

Ctrl-C reaches every process in the terminal's group.  A worker keeps
SIGINT blocked except while it runs a unit, so an idle worker prints no
traceback and a unit it starts after the signal stops at once.  The
unit's ``KeyboardInterrupt`` comes back as its result, and the calling
thread, interrupted itself, shuts the pool down.
"""

from __future__ import annotations

import signal
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable

from repro.core.backends.base import BackendError, BatchProgress

if TYPE_CHECKING:
    from repro.core.results import RunResult
    from repro.core.runner import RunConfig

#: Runs allowed in the window per job: enough to keep the pool fed
#: across fast units.  A finished run waits there for older runs, at
#: about 40 KB decoded (tracemalloc), so a full window holds about
#: 320 KB per job and needs no sizing.  Cache hits never enter it.  The
#: pool itself has ``min(jobs, runs)`` workers.
INFLIGHT_PER_JOB = 8

_SIGINT = {signal.SIGINT}


def _block_sigint() -> None:
    """Pool initializer: a Ctrl-C stays pending while the worker idles."""
    signal.pthread_sigmask(signal.SIG_BLOCK, _SIGINT)


def _timed_worker(bench_id: str, cfg: "RunConfig") -> "tuple[RunResult, float]":
    """Top-level (picklable) worker: run one benchmark, report wall time.

    SIGINT is unblocked for the unit alone: a pending Ctrl-C stops it
    before it starts.
    """
    from repro.core.runner import execute_one

    try:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, _SIGINT)
        started = time.perf_counter()
        result = execute_one(bench_id, cfg)
        return result, time.perf_counter() - started
    finally:
        signal.pthread_sigmask(signal.SIG_BLOCK, _SIGINT)


class AsyncBackend:
    """Feeds a pool of up to *jobs* worker processes and reports every
    run in pull order, all from the calling thread.

    The pool starts once ``jobs`` items are pulled, or the stream ends,
    with one worker per pulled item: ``min(jobs, runs)`` workers, none
    for an empty stream.  Under the fork start method every worker forks
    at the first submit, so ``--jobs 64`` over one run would otherwise
    fork 64.  Each item is then submitted and its future joins one FIFO
    window.  After each pull, every finished run at the head is reported
    without waiting; a full window of ``INFLIGHT_PER_JOB * jobs`` runs
    waits on its oldest before the next pull.  That bound caps queued
    results however large the batch, and paces the cache lookups that
    ride the stream.  ``on_result`` runs on the calling thread, exactly
    once per run.
    """

    name = "async"

    def __init__(self, jobs: int = 2) -> None:
        if jobs < 1:
            raise BackendError(f"async backend needs jobs >= 1, got {jobs}")
        self.jobs = jobs
        #: Bench ids actually simulated, in pull order (cache hits never
        #: reach the backend, so tests count real work with it).
        self.executed: list[str] = []

    def execute_stream(
        self,
        items: "Iterable[tuple[str, RunConfig]]",
        on_result: BatchProgress,
    ) -> None:
        """Consume *items* lazily, keeping a bounded number in flight.

        An exception from a worker or from ``on_result`` stops
        consumption, cancels the units not yet started, and propagates
        once the pool has shut down.

        No result is retained after its ``on_result`` call returns: each
        future leaves the window as it is reported, so a
        streaming-reduction caller holds the only reference and peak
        memory stays bounded by the window however long the stream runs.
        """
        window = INFLIGHT_PER_JOB * self.jobs
        # (pull index, bench id, future) of each run not yet reported,
        # oldest first.
        running: deque = deque()

        def report_oldest() -> None:
            index, bench_id, future = running.popleft()
            result, elapsed = future.result()
            self.executed.append(bench_id)
            on_result(index, elapsed, result)

        items = iter(items)
        first = list(islice(items, self.jobs))
        if not first:
            return
        pool = ProcessPoolExecutor(
            max_workers=len(first), initializer=_block_sigint
        )
        try:
            for index, (bench_id, cfg) in enumerate(chain(first, items)):
                future = pool.submit(_timed_worker, bench_id, cfg)
                running.append((index, bench_id, future))
                while running and (len(running) == window or running[0][2].done()):
                    report_oldest()
            while running:
                report_oldest()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
