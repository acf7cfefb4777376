"""Asynchronous (overlapped-I/O) execution: a streaming orchestrator
feeding a process pool.

:class:`~repro.core.backends.process.ProcessPoolBackend` already runs
simulations in parallel, but its orchestration is synchronous: the whole
batch is materialised up front, and completion handling — result
deserialisation, cache writes, progress printing — runs on the calling
thread between ``wait()`` wake-ups, in line with dispatch.  The async
backend overlaps the two.  The calling thread streams work items into a
bounded in-flight *window* (capping queued-result memory no matter how
large the batch), while a dedicated completion thread drains finished
futures as they complete and invokes ``on_result`` — so cache writes and
progress I/O for finished units happen while later units are still
simulating, and, through :class:`~repro.core.backends.base.StreamingBackend`,
cache *lookups* for later units ride the stream instead of blocking the
first submission.

The window is adaptive by default: it grows when observed results are
small (keeping the pool fed across fast units) and shrinks when they are
large (a suite of billion-reference runs must not queue dozens of them),
sized so queued results stay within a fixed memory budget.  An explicit
``window`` pins it.

Determinism is unchanged: results are reassembled by submission index,
so the output is byte-identical to
:class:`~repro.core.backends.serial.SerialBackend` regardless of
completion order, window size, adaptivity, or job count.
"""

from __future__ import annotations

import itertools
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import TYPE_CHECKING, Iterable, Sequence, TypeVar

from repro.core.backends.base import (
    BackendError,
    BatchProgress,
    ProgressCallback,
    execute_single_config,
)
from repro.core.backends.process import _timed_worker

if TYPE_CHECKING:
    from repro.core.results import RunResult
    from repro.core.runner import RunConfig

_T = TypeVar("_T")

#: Soft budget for completed-but-unprocessed result memory; the adaptive
#: window is sized so ``window * observed-result-size`` stays under it.
WINDOW_TARGET_BYTES = 32 * 1024 * 1024

#: Adaptive window ceiling, as a multiple of the job count.
WINDOW_MAX_FACTOR = 8


class _InflightGate:
    """A counting gate with a resizable limit (the adaptive window).

    ``threading.BoundedSemaphore`` bakes its bound in at construction;
    the completion thread needs to widen or narrow the bound mid-stream
    as it observes result sizes, so this keeps an explicit count under a
    condition variable instead.
    """

    def __init__(self, limit: int) -> None:
        self._cond = threading.Condition()
        self._limit = limit
        self._inflight = 0

    def acquire(self) -> None:
        with self._cond:
            while self._inflight >= self._limit:
                self._cond.wait()
            self._inflight += 1

    def release(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._cond.notify_all()

    def resize(self, limit: int) -> None:
        """Change the bound; waiters re-check (a wider bound admits them,
        a narrower one drains naturally as in-flight units complete)."""
        with self._cond:
            if limit != self._limit:
                self._limit = limit
                self._cond.notify_all()


class AsyncBackend:
    """Feeds a process pool from the calling thread while a completion
    thread handles results as they finish (as-completed streaming, not
    ordered blocking).

    *window* bounds how many units may be in flight at once — submitted
    to the pool but not yet fully completed, stored, and reported.  The
    calling thread blocks on that bound, which is also the backpressure
    that paces streamed cache lookups.  Passing ``window=None`` (the
    default) makes the bound adaptive: it starts at ``2 * jobs`` and is
    re-sized from observed pickled result sizes so queued results stay
    within :data:`WINDOW_TARGET_BYTES`, clamped to ``[jobs,
    WINDOW_MAX_FACTOR * jobs]``.  ``on_result`` is invoked from the
    completion thread, exactly once per unit, indexed by submission
    order; invocations are serialised (one completion thread), but they
    are concurrent with the *calling* thread, so callbacks shared with
    it must synchronise — :func:`~repro.core.runner.execute_with_cache`
    does.
    """

    name = "async"

    def __init__(self, jobs: int = 2, window: int | None = None) -> None:
        if jobs < 1:
            raise BackendError(f"async backend needs jobs >= 1, got {jobs}")
        if window is not None and window < 1:
            raise BackendError(
                f"async backend needs window >= 1, got {window}"
            )
        self.jobs = jobs
        self.adaptive = window is None
        #: Current in-flight bound (re-sized live in adaptive mode).
        self.window = window if window is not None else 2 * jobs
        self._avg_result_bytes: float | None = None
        #: Bench ids actually simulated, in *completion* order (the only
        #: order this backend has; tests count real work with it).
        self.executed: list[str] = []

    def plan(self, bench_ids: Sequence[str]) -> list[str]:
        return list(bench_ids)

    def plan_batch(self, items: Sequence[_T]) -> list[_T]:
        return list(items)

    def execute(
        self,
        bench_ids: Sequence[str],
        cfg: "RunConfig",
        on_result: ProgressCallback | None = None,
    ) -> "list[RunResult]":
        return execute_single_config(self, bench_ids, cfg, on_result)

    def execute_batch(
        self,
        items: "Sequence[tuple[str, RunConfig]]",
        on_result: BatchProgress | None = None,
    ) -> "list[RunResult]":
        return self.execute_stream(iter(items), on_result)

    def _observe(self, result: "RunResult", gate: _InflightGate) -> None:
        """Adapt the window to the result sizes actually coming back.

        Runs on the completion thread (off the submission critical
        path): measures the pickled result, folds it into a moving
        average, and re-sizes the gate so ``window * avg`` stays within
        the memory budget.
        """
        size = len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        avg = self._avg_result_bytes
        self._avg_result_bytes = avg = (
            float(size) if avg is None else (avg + size) / 2.0
        )
        fitted = int(WINDOW_TARGET_BYTES // max(avg, 1.0))
        self.window = max(self.jobs, min(WINDOW_MAX_FACTOR * self.jobs, fitted))
        gate.resize(self.window)

    def execute_stream(
        self,
        items: "Iterable[tuple[str, RunConfig]]",
        on_result: BatchProgress | None = None,
        collect: bool = True,
    ) -> "list[RunResult]":
        """Consume *items* lazily, keeping at most ``window`` in flight.

        The iterable is pulled from the calling thread (so a generator
        that probes a cache per item runs its lookups while earlier
        misses simulate); completions are handled on a dedicated thread.
        A worker failure stops consumption, waits for in-flight units,
        and re-raises the original exception.

        With *collect* off, no result is retained after its
        ``on_result`` invocation returns — neither in the returned list
        (which is empty) nor in a completed future (each future is
        dropped the moment its completion is handled) — so a
        streaming-reduction caller holds the only reference and peak
        memory stays bounded by the in-flight window however long the
        stream runs.
        """
        pulled = iter(items)
        try:
            first = next(pulled)
        except StopIteration:
            return []

        results: "list[RunResult | None]" = []
        in_flight = _InflightGate(self.window)
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
                if collect:
                    results[index] = result
                self.executed.append(bench_id)
                if self.adaptive:
                    self._observe(result, in_flight)
                if on_result is not None:
                    on_result(index, elapsed, result)
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                if not failure:
                    failure.append(exc)
                stop.set()
            finally:
                with futures_lock:
                    in_flight_futures.discard(future)
                in_flight.release()

        try:
            for index, (bench_id, cfg) in enumerate(
                itertools.chain([first], pulled)
            ):
                in_flight.acquire()
                if stop.is_set():
                    in_flight.release()
                    break
                if collect:
                    results.append(None)
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
        return [r for r in results if r is not None]
