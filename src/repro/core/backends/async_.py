"""Pool execution (the ``--jobs N > 1`` backend): a streaming
orchestrator feeding a process pool.

Each benchmark boots a fully isolated :class:`~repro.sim.system.System`
with a seed derived only from ``(cfg.seed, bench_id)``, so runs are
embarrassingly parallel.  Workers receive ``(bench_id, cfg)`` — the
config (including any :class:`~repro.calibration.Calibration` override)
pickles across the process boundary, and
:func:`~repro.core.runner.execute_one` hands the override to the
worker's fresh ``System``, so no parent-process global state is relied
upon.

Dispatch and completion handling overlap.  The calling thread streams
work items into a bounded in-flight window (capping queued-result memory
no matter how large the batch), while a dedicated completion thread
drains finished futures as they complete and invokes ``on_result`` — so
cache writes and progress I/O for finished units happen while later
units are still simulating, and cache *lookups* for later units ride the
stream instead of blocking the first submission.

Determinism is unchanged: results are reported by pull index, so the
output is byte-identical to
:class:`~repro.core.backends.serial.SerialBackend` regardless of
completion order or job count.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
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
    """Feeds a pool of *jobs* worker processes from the calling thread
    while a completion thread handles results as they finish
    (as-completed streaming, not ordered blocking).

    At most ``INFLIGHT_PER_JOB * jobs`` units are in flight at once —
    pulled from the stream but not yet completed, stored, and reported.
    The calling thread takes a slot *before* pulling the next item, so
    that bound is also the backpressure that paces streamed cache
    lookups.  ``on_result`` is invoked from the completion thread,
    exactly once per unit; invocations are serialised (one completion
    thread), but they are concurrent with the *calling* thread, so
    callbacks shared with it must synchronise —
    :func:`~repro.core.runner.execute_with_cache` does.
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

        The iterable is pulled from the calling thread (so a generator
        that probes a cache per item runs its lookups while earlier
        misses simulate); completions are handled on a dedicated thread.
        A worker failure stops consumption, waits for in-flight units,
        and re-raises the original exception.

        No result is retained after its ``on_result`` invocation
        returns: each future is dropped the moment its completion is
        handled, so a streaming-reduction caller holds the only
        reference and peak memory stays bounded by the in-flight window
        however long the stream runs.
        """
        pulled = iter(items)
        slots = threading.Semaphore(INFLIGHT_PER_JOB * self.jobs)
        failure: list[BaseException] = []
        stop = threading.Event()
        #: Futures submitted but not yet completion-handled.  Tracked as
        #: a set (not an append-only list) so a handled future — and the
        #: result object it pins — is dropped immediately; the set also
        #: scopes failure-path cancellation to genuinely pending work.
        in_flight_futures: set = set()
        futures_lock = threading.Lock()

        pool = ProcessPoolExecutor(max_workers=self.jobs)
        completer = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="async-complete"
        )

        def complete(index: int, bench_id: str, future) -> None:
            try:
                result, elapsed = future.result()
                self.executed.append(bench_id)
                on_result(index, elapsed, result)
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                if not failure:
                    failure.append(exc)
                stop.set()
            finally:
                with futures_lock:
                    in_flight_futures.discard(future)
                slots.release()

        try:
            for index in itertools.count():
                slots.acquire()
                item = next(pulled, None)
                if item is None or stop.is_set():
                    slots.release()
                    break
                bench_id, cfg = item
                future = pool.submit(_timed_worker, bench_id, cfg)
                with futures_lock:
                    in_flight_futures.add(future)
                # Registered only after the future is tracked, so the
                # completion handler's discard always finds it.
                future.add_done_callback(
                    lambda fut, i=index, bid=bench_id: completer.submit(
                        complete, i, bid, fut
                    )
                )
        finally:
            if stop.is_set():
                with futures_lock:
                    doomed = list(in_flight_futures)
                for future in doomed:
                    future.cancel()
            # Shutdown order matters: the pool first (so every done
            # callback has handed its future to the completer), then the
            # completer (so every completion has run to the end).
            pool.shutdown(wait=True)
            completer.shutdown(wait=True)

        if failure:
            raise failure[0]
