"""Pool execution (the ``--jobs N > 1`` backend): the calling thread
feeds a process pool and handles every completion itself.

Each benchmark boots a fully isolated :class:`~repro.sim.system.System`
with a seed derived only from ``(cfg.seed, bench_id)``, so runs are
embarrassingly parallel.  Workers receive ``(bench_id, cfg)`` — the
config (including any :class:`~repro.calibration.Calibration` override)
pickles across the process boundary, and
:func:`~repro.core.runner.execute_one` hands the override to the
worker's fresh ``System``, so no parent-process global state is relied
upon.

Dispatch and completion handling overlap with simulation, not with each
other.  While fewer than ``INFLIGHT_PER_JOB * jobs`` units are in
flight, the calling thread pulls and submits (capping queued-result
memory no matter how large the batch, and letting cache *lookups* for
later units ride the stream); otherwise it waits for the first
completions and reports them.  Cache writes and progress I/O for
finished units thus happen while later units are still simulating in
the workers, and with no second thread, callbacks need no locks.

Determinism is unchanged: results are reported by pull index, so the
output is byte-identical to
:class:`~repro.core.backends.serial.SerialBackend` regardless of
completion order or job count.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import TYPE_CHECKING, Iterable

from repro.core.backends.base import BackendError, BatchProgress

if TYPE_CHECKING:
    from repro.core.results import RunResult
    from repro.core.runner import RunConfig

#: In-flight units allowed per worker: enough to keep the pool fed across
#: fast units.  Pickled results measure 4-7 KB across the suite (1 CPU
#: and 2+2), so a full window queues under 64 KB of results per worker
#: and needs no sizing from observed results.
INFLIGHT_PER_JOB = 8


def _timed_worker(bench_id: str, cfg: "RunConfig") -> "tuple[RunResult, float]":
    """Top-level (picklable) worker: run one benchmark, report wall time."""
    from repro.core.runner import execute_one

    started = time.perf_counter()
    result = execute_one(bench_id, cfg)
    return result, time.perf_counter() - started


class AsyncBackend:
    """Feeds a pool of *jobs* worker processes and reports completions as
    they finish, all from the calling thread (as-completed streaming,
    not ordered blocking).

    At most ``INFLIGHT_PER_JOB * jobs`` units are in flight at once —
    pulled from the stream but not yet reported.  A full window is
    drained before the next pull, so that bound is also the
    backpressure that paces streamed cache lookups.  ``on_result`` runs
    on the calling thread, exactly once per unit.
    """

    name = "async"

    def __init__(self, jobs: int = 2) -> None:
        if jobs < 1:
            raise BackendError(f"async backend needs jobs >= 1, got {jobs}")
        self.jobs = jobs
        #: Bench ids actually simulated, in *completion* order (the only
        #: order this backend has; tests count real work with it).
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
        future is dropped as it is reported, so a streaming-reduction
        caller holds the only reference and peak memory stays bounded by
        the in-flight window however long the stream runs.
        """
        window = INFLIGHT_PER_JOB * self.jobs
        # Future -> (pull index, bench id) of each unit not yet reported.
        in_flight: dict = {}

        def report_first_done() -> None:
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in sorted(done, key=in_flight.get):
                index, bench_id = in_flight.pop(future)
                result, elapsed = future.result()
                self.executed.append(bench_id)
                on_result(index, elapsed, result)

        pool = ProcessPoolExecutor(max_workers=self.jobs)
        try:
            for index, (bench_id, cfg) in enumerate(items):
                future = pool.submit(_timed_worker, bench_id, cfg)
                in_flight[future] = (index, bench_id)
                if len(in_flight) == window:
                    report_first_done()
            while in_flight:
                report_first_done()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
