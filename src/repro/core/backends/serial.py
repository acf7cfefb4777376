"""In-process serial execution (the ``--jobs 1`` backend)."""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Iterable

from repro.core.backends.base import BatchProgress

if TYPE_CHECKING:
    from repro.core.runner import RunConfig


class SerialBackend:
    """Runs every benchmark in this process, one after another.

    Each item executes the moment it is pulled, so a cache probe for a
    later unit happens only after earlier units have run and been
    stored.  This is the reference implementation the pool is checked
    against.
    """

    name = "serial"

    def __init__(self) -> None:
        #: Bench ids actually simulated, in execution order (cache hits
        #: never reach the backend, so tests use this to count real work).
        self.executed: list[str] = []

    def execute_stream(
        self,
        items: "Iterable[tuple[str, RunConfig]]",
        on_result: BatchProgress,
    ) -> None:
        from repro.core.runner import execute_one

        for index, (bench_id, cfg) in enumerate(items):
            started = time.perf_counter()
            result = execute_one(bench_id, cfg)
            elapsed = time.perf_counter() - started
            self.executed.append(bench_id)
            on_result(index, elapsed, result)
