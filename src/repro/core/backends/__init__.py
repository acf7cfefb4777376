"""Execution backends for the suite, sweep and fleet runners.

The runners orchestrate *which* benchmarks to run (dedup, shard
planning, cache lookups, result assembly); a backend decides *how* the
cache misses execute:

- :class:`SerialBackend` — in-process, one at a time (``--jobs 1``).
- :class:`AsyncBackend` — a process pool the calling thread feeds
  through a bounded in-flight window; result I/O (cache writes,
  progress) overlaps in-flight simulations (``--jobs N > 1``).

``make_backend`` builds the one ``--jobs`` selects.
"""

from __future__ import annotations

from repro.core.backends.base import (
    BackendError,
    BatchProgress,
    ExecutionBackend,
    ProgressCallback,
)
from repro.core.backends.serial import SerialBackend
from repro.core.backends.sharded import parse_shard, shard_ids
from repro.errors import ConfigError
from repro.lazy import lazy_exports

# The pool (and with it multiprocessing) loads only when asked for.
__getattr__, __dir__ = lazy_exports(
    globals(), {"AsyncBackend": "repro.core.backends.async_"}
)


def make_backend(jobs: int = 1) -> ExecutionBackend:
    """Serial for ``jobs == 1``, the async pool of *jobs* workers above.

    Both produce byte-identical results, so the job count is the only
    execution choice there is.
    """
    if jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return SerialBackend()
    from repro.core.backends.async_ import AsyncBackend

    return AsyncBackend(jobs=jobs)


__all__ = [
    "AsyncBackend",
    "BackendError",
    "BatchProgress",
    "ExecutionBackend",
    "ProgressCallback",
    "SerialBackend",
    "make_backend",
    "parse_shard",
    "shard_ids",
]
