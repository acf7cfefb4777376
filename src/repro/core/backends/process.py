"""Process-pool execution: fan benchmarks out across worker processes.

Each benchmark already boots a fully isolated :class:`~repro.sim.system.System`
with a seed derived only from ``(cfg.seed, bench_id)``, so runs are
embarrassingly parallel.  Workers receive ``(bench_id, cfg)`` — the config
(including any :class:`~repro.calibration.Calibration` override) pickles
across the process boundary, and :func:`~repro.core.runner.execute_one`
installs the override inside the worker, so no parent-process global
state is relied upon.

Batches may mix configs: a parameter sweep submits its whole flattened
grid at once, so points from different variants interleave in the pool
rather than executing config-by-config.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import TYPE_CHECKING, Sequence, TypeVar

from repro.core.backends.base import (
    BackendError,
    BatchProgress,
    ProgressCallback,
    execute_single_config,
)

if TYPE_CHECKING:
    from repro.core.results import RunResult
    from repro.core.runner import RunConfig

_T = TypeVar("_T")


def _timed_worker(bench_id: str, cfg: "RunConfig") -> "tuple[RunResult, float]":
    """Top-level (picklable) worker: run one benchmark, report wall time."""
    from repro.core.runner import execute_one

    started = time.perf_counter()
    result = execute_one(bench_id, cfg)
    return result, time.perf_counter() - started


class ProcessPoolBackend:
    """Executes the batch across *jobs* worker processes.

    Results are reassembled in submission order, so a suite run is
    byte-identical to the serial backend's regardless of completion
    order or job count.
    """

    name = "process"

    def __init__(self, jobs: int = 2) -> None:
        if jobs < 1:
            raise BackendError(f"process backend needs jobs >= 1, got {jobs}")
        self.jobs = jobs
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
        batch = list(items)
        if not batch:
            return []
        results: list[RunResult | None] = [None] * len(batch)
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(batch))) as pool:
            futures = {
                pool.submit(_timed_worker, bench_id, cfg): index
                for index, (bench_id, cfg) in enumerate(batch)
            }
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    result, elapsed = future.result()
                    results[index] = result
                    self.executed.append(batch[index][0])
                    if on_result is not None:
                        on_result(index, elapsed, result)
        return [r for r in results if r is not None]
