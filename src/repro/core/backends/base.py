"""The execution-backend contract.

A backend owns *how* a stream of benchmark runs is executed — serially in
this process, or fanned out across a pool of worker processes.  It does
not own *what* a run does: every backend funnels through the same
picklable :func:`repro.core.runner.execute_one`, so results are
byte-identical regardless of backend or job count.  Nor does it own
*which* runs happen: cache lookups and shard ownership are planned by the
runners before an item ever reaches a backend.

The primitive unit of work is a :data:`WorkItem` — one ``(bench_id,
config)`` pair.  Each item carries its own config, so a parameter sweep's
points interleave freely in a pool.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.core.results import RunResult
    from repro.core.runner import RunConfig

#: One unit of executable work: a benchmark id plus the config to run it
#: under.  Fully picklable, so a batch can be shipped to worker processes
#: (or, eventually, other machines).
WorkItem = Tuple[str, "RunConfig"]

#: Callback invoked as each run completes: ``(bench_id, elapsed_seconds,
#: result)``.  ``elapsed`` is ``None`` when the result came from a cache
#: (no simulation happened) — never conflate that with a fast run.
ProgressCallback = Callable[[str, "float | None", "RunResult"], None]

#: Stream-level callback: ``(index, elapsed_seconds, result)`` where
#: *index* is the position at which the backend pulled the item (bench
#: ids may repeat across a sweep's variants, so the position is the only
#: unambiguous key).
BatchProgress = Callable[[int, float, "RunResult"], None]


class BackendError(ReproError):
    """A backend was misconfigured or failed to execute a batch."""


def shortfall_error(
    backend: object, missing: Sequence[str], total: int
) -> BackendError:
    """The error raised when a backend lost results (crashed worker,
    buggy implementation): names every missing unit so the caller can
    see exactly what never completed."""
    return BackendError(
        f"backend {getattr(backend, 'name', '?')!r} returned no result "
        f"for: {', '.join(missing)} ({total - len(missing)}/{total} "
        f"completed)"
    )


@runtime_checkable
class ExecutionBackend(Protocol):
    """Executes a stream of benchmark runs.

    ``execute_stream`` pulls work items lazily and may begin executing
    early items while the iterable is still producing later ones — the
    hook :func:`~repro.core.runner.execute_with_cache` uses to overlap
    per-unit cache lookups with in-flight simulation.  Each result is
    reported exactly once, and only, through ``on_result``, indexed by
    the item's consumption order; nothing is returned, so a backend
    holds no result past its ``on_result`` call and a streaming
    reduction runs in bounded memory however many units pass through.
    ``on_result`` may be invoked concurrently with the calling thread,
    so shared callbacks must synchronise.  All run state must derive
    from the work item alone — no process state may leak into results.
    """

    #: Short name used in error messages.
    name: str

    def execute_stream(
        self,
        items: "Iterable[tuple[str, RunConfig]]",
        on_result: BatchProgress,
    ) -> None:
        """Run every streamed item, reporting each through *on_result*."""
        ...
