"""The suite runner: boots a fresh system per benchmark, opens the
measurement window, and snapshots results.

Methodology mirrors the paper: the stack boots and settles, the profiler
resets, then the workload launches *inside* the window (so the launch-time
``app_process`` and install-time ``dexopt``/``id.defcontainer`` references
are visible, as they are in Figures 3/4).

Execution is split in two layers: :func:`execute_one` is a pure, picklable
top-level function mapping ``(bench_id, config)`` to a :class:`RunResult`
(every bit of run state — seed, JIT flag, calibration override — travels
inside the config, so workers in other processes reproduce runs exactly),
and :class:`SuiteRunner` orchestrates batches: dedup, shard planning,
cache lookups, and delegation to an
:class:`~repro.core.backends.ExecutionBackend`.
"""

from __future__ import annotations

import threading
import warnings
import zlib
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.android.app import start_activity
from repro.android.boot import boot_android
from repro.calibration import Calibration, profile_cpu_count, use_calibration
from repro.core.backends.base import shortfall_error
from repro.core.backends.sharded import shard_ids
from repro.core.results import ResultCache, RunResult, SuiteResult
from repro.core.spec import BenchmarkSpec
from repro.core.suite import benchmarks, get_benchmark
from repro.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.kernel.layout import truncate_comm
from repro.sim.system import System
from repro.sim.ticks import millis, seconds

if TYPE_CHECKING:
    from repro.core.backends import ExecutionBackend, ProgressCallback


@dataclass(frozen=True)
class RunConfig:
    """Knobs for one benchmark execution.

    Fully serialisable (pickle for worker processes, JSON dict for cache
    keys): a config plus a bench id determines a run completely.
    """

    #: Measurement window length.
    duration_ticks: int = seconds(4)
    #: Boot settle time before the window opens.
    settle_ticks: int = millis(400)
    #: Base RNG seed (combined with the bench id for independence).
    seed: int = 1234
    #: Dalvik trace JIT on/off (ablation knob).
    jit_enabled: bool = True
    #: Optional calibration override (ablation knob).
    calibration: Calibration | None = None
    #: Simulated cores (the SMP dimension).
    cpus: int = 1
    #: big.LITTLE core profile (e.g. ``"2+2"``); selects asymmetric core
    #: speeds and the CFS vruntime scheduler.  ``None`` keeps the
    #: symmetric round-robin reproducibility path.
    cpu_profile: str | None = None
    #: Deterministic fault-injection plan (the dependability knob).
    #: ``None`` — the default — injects nothing and is omitted from the
    #: JSON form, so healthy configs keep their pre-fault cache keys.
    faults: FaultPlan | None = None

    def scaled(self, factor: float) -> "RunConfig":
        """A config with the window scaled by *factor*.

        Clamped to at least one tick: a tiny factor must shrink the
        window, never truncate it to a degenerate zero-tick run.
        """
        return replace(
            self, duration_ticks=max(1, int(self.duration_ticks * factor))
        )

    def to_json_dict(self) -> dict:
        """Plain-JSON representation (stable key order via dataclass order;
        ``asdict`` recurses into the nested calibration).

        ``cpus`` is omitted at its default of 1 so single-core configs
        keep the exact JSON — and therefore the exact cache keys — they
        had before the SMP dimension existed; ``cpu_profile`` is omitted
        at its default of None for the same reason (symmetric configs
        keep their pre-big.LITTLE keys).
        """
        raw = asdict(self)
        if self.cpus == 1:
            del raw["cpus"]
        if self.cpu_profile is None:
            del raw["cpu_profile"]
        if self.faults is None:
            del raw["faults"]
        return raw

    @classmethod
    def from_json_dict(cls, raw: dict) -> "RunConfig":
        """Inverse of :meth:`to_json_dict`.

        Validates the knobs a config deserialised from external JSON
        could smuggle in: a zero/negative measurement window, a negative
        settle, or a core count below one.
        """
        raw = dict(raw)
        cal = raw.pop("calibration", None)
        faults = raw.pop("faults", None)
        try:
            cfg = cls(
                calibration=Calibration(**cal) if cal else None,
                faults=FaultPlan.from_json_dict(faults) if faults else None,
                **raw,
            )
        except TypeError:
            # cls(**raw) raises a bare TypeError on keys no field matches;
            # name the offenders instead of leaking the constructor error.
            unknown = sorted(
                set(raw) - {f.name for f in cls.__dataclass_fields__.values()}
            )
            if unknown:
                raise ConfigError(
                    f"unknown config key(s) in JSON: {', '.join(unknown)}"
                ) from None
            raise
        if cfg.duration_ticks < 1:
            raise ConfigError(
                f"duration_ticks must be >= 1, got {cfg.duration_ticks}"
            )
        if cfg.settle_ticks < 0:
            raise ConfigError(
                f"settle_ticks must be >= 0, got {cfg.settle_ticks}"
            )
        if cfg.cpus < 1:
            raise ConfigError(f"cpus must be >= 1, got {cfg.cpus}")
        if cfg.cpu_profile is not None:
            count = profile_cpu_count(cfg.cpu_profile)  # parse-validates
            if count != cfg.cpus:
                raise ConfigError(
                    f"cpu_profile {cfg.cpu_profile!r} describes {count} "
                    f"cores but cpus={cfg.cpus}"
                )
        return cfg


#: A fast configuration for tests.
QUICK_CONFIG = RunConfig(duration_ticks=seconds(1), settle_ticks=millis(200))


def bench_seed(bench_id: str, cfg: RunConfig) -> int:
    """The per-benchmark RNG seed (base seed mixed with the id)."""
    return (cfg.seed * 2_654_435_761 + zlib.crc32(bench_id.encode())) & 0x7FFF_FFFF


def execute_one(bench_id: str, cfg: RunConfig) -> RunResult:
    """Execute one benchmark on a fresh system.

    Top-level and picklable so the pool backend can ship it to
    workers; the calibration override is installed here, inside whichever
    process runs the benchmark, rather than inherited ambiently.
    """
    spec = get_benchmark(bench_id)
    if cfg.calibration is not None:
        with use_calibration(cfg.calibration):
            return _run_spec(spec, cfg)
    return _run_spec(spec, cfg)


def _prepared_system(spec: BenchmarkSpec, cfg: RunConfig):
    """``(system, stack, model)`` booted, with the workload model built
    (and, for Android benchmarks, its app installed), ready to settle."""
    seed = bench_seed(spec.bench_id, cfg)
    system = System(seed=seed, cpus=cfg.cpus, cpu_profile=cfg.cpu_profile)
    stack = boot_android(system, jit_enabled=cfg.jit_enabled)
    model = spec.factory(seed)
    if spec.is_android:
        model.setup_files(system)
    return system, stack, model


def _run_spec(spec: BenchmarkSpec, cfg: RunConfig) -> RunResult:
    seed = bench_seed(spec.bench_id, cfg)
    system, stack, model = _prepared_system(spec, cfg)

    # Boot and settle stay fault-free: the injector arms at the window
    # edge, so faults only perturb the measured interval and a faulted
    # cell shares its boot and settle with its fault-free baseline.
    system.run_for(cfg.settle_ticks)
    system.profiler.reset()
    window = _open_window(system)
    injector = None
    if cfg.faults is not None:
        injector = FaultInjector(cfg.faults, seed, system, stack)
        injector.arm(system.clock.now)
    try:
        if spec.is_android:
            record = start_activity(stack, model, background=spec.background)
            system.run_for(cfg.duration_ticks)
            comm = model.benchmark_comm
            meta = {
                "package": model.package,
                "mode": "background" if spec.background else "foreground",
                "launched": record.proc is not None,
                "frames_drawn": record.app.frames_drawn if record.app else 0,
                "sf_frames": stack.sf.frames_composited,
                "gc_cycles": record.app.ctx.gc_cycles if record.app else 0,
                "jit_compiled": len(record.app.ctx.compiled) if record.app else 0,
            }
        else:
            proc = model.launch(system)
            system.run_for(cfg.duration_ticks)
            comm = truncate_comm(model.name)
            meta = {
                "profile_insts": model.profile.insts,
                "pid": proc.pid,
            }
    finally:
        if injector is not None:
            injector.disarm()

    reaped_at_open, busy_at_open, any_busy_at_open = window
    # "Threads spawned": every thread alive at window close plus the
    # transients that came and went inside the window.
    threads_observed = system.kernel.thread_count() + (
        system.kernel.threads_reaped - reaped_at_open
    )
    smp: dict = {}
    if cfg.cpus > 1:
        # Per-CPU busy/idle deltas over the measurement window.  Only
        # multi-core runs carry them: single-core results must stay
        # byte-identical to the pre-SMP engine's output.
        smp = {
            "cpus": cfg.cpus,
            "instr_by_cpu": dict(system.profiler.instr_by_cpu),
            "data_by_cpu": dict(system.profiler.data_by_cpu),
            "busy_ticks_by_cpu": {
                cpu.cpu_id: cpu.busy_ticks - busy_at_open[cpu.cpu_id]
                for cpu in system.cpus
            },
            "any_busy_ticks": system.engine.any_busy_ticks - any_busy_at_open,
        }
    if cfg.cpu_profile is not None:
        smp["cpu_profile"] = cfg.cpu_profile
    return RunResult.from_profiler(
        bench_id=spec.bench_id,
        benchmark_comm=comm,
        profiler=system.profiler,
        duration_ticks=cfg.duration_ticks,
        seed=seed,
        live_processes=system.kernel.process_count(),
        threads_spawned_total=threads_observed,
        meta=meta,
        fault_counters=injector.counters() if injector is not None else {},
        **smp,
    )


def _open_window(system: System) -> tuple[int, list[int], int]:
    """Census counters snapshotted as the measurement window opens."""
    return (
        system.kernel.threads_reaped,
        [cpu.busy_ticks for cpu in system.cpus],
        system.engine.any_busy_ticks,
    )


def dedup_ids(ids: Iterable[str]) -> list[str]:
    """Drop duplicate bench ids, preserving first-occurrence order.

    Duplicates used to run twice with the later result silently
    clobbering the earlier in :meth:`SuiteResult.add`; now they warn.
    """
    seen: set[str] = set()
    out: list[str] = []
    dupes: list[str] = []
    for bench_id in ids:
        if bench_id in seen:
            dupes.append(bench_id)
        else:
            seen.add(bench_id)
            out.append(bench_id)
    if dupes:
        warnings.warn(
            f"duplicate benchmark ids dropped: {', '.join(dupes)}",
            RuntimeWarning,
            stacklevel=3,
        )
    return out


class Reducer:
    """Consumes completed runs as they arrive off the execution stream.

    The aggregation half of :func:`execute_with_cache`: ``consume`` is
    invoked once per unit — cache hits and fresh completions alike, in
    arrival order, serialised under the orchestration lock — and
    ``finish`` returns whatever the reduction produced.  A reducer that
    only keeps summaries (see :class:`~repro.core.stats.SketchSet`)
    gives the whole pipeline O(metrics) aggregation memory; the
    materialising :class:`~repro.core.sweep.SweepResult` path is just
    another reducer.
    """

    def consume(self, unit: object, run: RunResult) -> None:
        raise NotImplementedError

    def finish(self) -> object:
        raise NotImplementedError


def execute_with_cache(
    backend: "ExecutionBackend",
    cache: ResultCache | None,
    items: "Sequence[tuple[str, RunConfig]]",
    labels: Sequence[str],
    units: Sequence[object],
    progress: "Callable[[object, float | None, RunResult], None] | None" = None,
    reducer: Reducer | None = None,
    retain_results: bool = True,
) -> "list[RunResult] | None":
    """Run a planned batch through *cache* then *backend*.

    The one cache-aware batch orchestration the suite, sweep and fleet
    runners all use: per-item cache lookup (hits reported through
    *progress* with ``elapsed=None``), misses executed with completed
    runs stored back, lost results raised as a
    :class:`~repro.core.backends.BackendError` naming the matching
    *labels*, and hit/miss counters flushed even on failure.  *units*
    are what *progress* and *reducer* receive for each item (bench ids
    for suites, :class:`~repro.core.sweep.SweepPoint` objects for
    sweeps, fleet work units).  Returns one result per item, in item
    order — unless *retain_results* is off, in which case results are
    handed to the *reducer*/*progress* callbacks as they arrive and
    **never retained** here (the streaming-reduction path: aggregation
    memory stays O(metrics) however large the batch) and the return
    value is ``None``.

    The backend is fed lazily: the cache probe for each item happens as
    the backend pulls it, so lookups for later units overlap simulations
    already in flight, and cache writes run inside the backend's
    completion handling (off the critical path for the pool).
    Completion callbacks may be concurrent with the probing thread, so
    result recording, *reducer* consumption and *progress* invocations
    are serialised under a lock — results stay a pure function of
    ``(bench_id, config)`` either way.
    """
    results: "list[RunResult | None] | None" = (
        [None] * len(items) if retain_results else None
    )
    done = bytearray(len(items))
    pending: list[int] = []
    lock = threading.Lock()

    def record(index: int, elapsed: "float | None", run: RunResult) -> None:
        """Account one completed unit (caller holds the lock)."""
        done[index] = 1
        if results is not None:
            results[index] = run
        if reducer is not None:
            reducer.consume(units[index], run)
        if progress is not None:
            progress(units[index], elapsed, run)

    def misses():
        """Probe lazily, yielding only the items the backend must run."""
        for index, (bench_id, cfg) in enumerate(items):
            hit = cache.get(bench_id, cfg) if cache is not None else None
            if hit is None:
                pending.append(index)
                yield bench_id, cfg
            else:
                with lock:
                    record(index, None, hit)

    def on_result(batch_index: int, elapsed: float, run: RunResult) -> None:
        index = pending[batch_index]
        # The cache write happens outside the lock: each key is written
        # at most once per batch, so puts only ever race the probes of
        # *other* keys, and keeping file I/O out of the critical section
        # is the point of the overlapped path.
        if cache is not None:
            bench_id, cfg = items[index]
            cache.put(bench_id, cfg, run)
        with lock:
            record(index, elapsed, run)

    try:
        backend.execute_stream(misses(), on_result)
        missing = [labels[index] for index in pending if not done[index]]
        if missing:
            raise shortfall_error(backend, missing, len(pending))
    finally:
        # Persist hit/miss counters even when the backend fails: the
        # hits already served this session happened either way.
        if cache is not None:
            cache.flush_stats()
    return results


class SuiteRunner:
    """Runs benchmarks and collects results.

    Batch execution is delegated to a *backend* (serial by default); an
    optional *cache* short-circuits runs whose ``(bench_id, config,
    version)`` key already has a stored result, and a *shard* ``(k, n)``
    restricts every batch to its k-th of n deterministic slices.
    """

    def __init__(
        self,
        config: RunConfig | None = None,
        backend: "ExecutionBackend | None" = None,
        cache: ResultCache | None = None,
        shard: "tuple[int, int] | None" = None,
    ) -> None:
        from repro.core.backends import SerialBackend

        self.config = config if config is not None else RunConfig()
        self.backend = backend if backend is not None else SerialBackend()
        self.cache = cache
        self.shard = shard

    # ------------------------------------------------------------------

    def run(self, bench_id: str, config: RunConfig | None = None) -> RunResult:
        """Execute one benchmark on a fresh system."""
        return execute_one(bench_id, config if config is not None else self.config)

    def run_suite(
        self,
        ids: Iterable[str] | None = None,
        config: RunConfig | None = None,
        progress: "ProgressCallback | None" = None,
    ) -> SuiteResult:
        """Execute a set of benchmarks (default: the whole suite).

        Cache hits are reported through *progress* with ``elapsed=None``
        (no simulation happened — distinct from a genuinely instantaneous
        run); misses go to the backend and are stored back on
        completion.
        """
        cfg = config if config is not None else self.config
        wanted = dedup_ids(
            spec.bench_id
            for spec in benchmarks(tuple(ids) if ids is not None else None)
        )
        # Shard the full deduplicated batch, then filter by cache: a
        # shard partition must depend only on the batch, never on which
        # results happen to be cached already.
        if self.shard is not None:
            wanted = list(shard_ids(wanted, *self.shard))

        results = execute_with_cache(
            self.backend,
            self.cache,
            [(bench_id, cfg) for bench_id in wanted],
            labels=wanted,
            units=wanted,
            progress=progress,
        )

        out = SuiteResult()
        for result in results:
            out.add(result)
        return out
