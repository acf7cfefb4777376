"""The suite runner: boots a fresh system per benchmark, opens the
measurement window, and snapshots results.

Methodology mirrors the paper: the stack boots and settles, the profiler
resets, then the workload launches *inside* the window (so the launch-time
``app_process`` and install-time ``dexopt``/``id.defcontainer`` references
are visible, as they are in Figures 3/4).

Execution is split in two layers: :func:`execute_one` is a pure, picklable
top-level function mapping ``(bench_id, config)`` to a :class:`RunResult`
(every bit of run state — seed, JIT flag, calibration override — travels
inside the config and onto the run's own :class:`~repro.sim.system.System`,
so workers in other processes, or threads of one, reproduce runs exactly),
and :class:`SuiteRunner` orchestrates batches: dedup, shard planning,
cache lookups, and delegation to an
:class:`~repro.core.backends.ExecutionBackend`.
"""

from __future__ import annotations

import time
import warnings
import zlib
from collections import deque
from dataclasses import asdict, dataclass, fields, replace
from typing import TYPE_CHECKING, Callable, Iterable, TypeVar

from repro.android.app import start_activity
from repro.android.boot import boot_android
from repro.calibration import Calibration, profile_cpu_count
from repro.core.backends.base import BackendError
from repro.core.backends.sharded import shard_ids
from repro.core.results import ResultCache, RunResult, SuiteResult
from repro.core.spec import BenchmarkSpec
from repro.core.suite import benchmarks, get_benchmark
from repro.errors import ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.jsonform import check_fields
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
    #: Optional calibration override (ablation knob), handed to the
    #: run's :class:`System`; ``None`` is the fitted default.
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

    def __post_init__(self) -> None:
        """Reject, as a :class:`ConfigError` naming the field, a config
        that would run as a silent wrong answer or die mid-simulation: a
        value of the wrong type (by the rules the JSON decoder applies),
        a zero/negative window, a negative settle, cpus below one, a
        ``cpu_profile`` that does not parse or describes another core
        count, or a throttle naming a CPU the machine lacks (it would
        run as a silent no-op)."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, cls in (("calibration", Calibration), ("faults", FaultPlan)):
            value = values.pop(name)
            if value is not None and not isinstance(value, cls):
                raise ConfigError(
                    f"config field {name} must be a {cls.__name__} or "
                    f"None, got {value!r}"
                )
        check_fields(values, RunConfig, "config")
        if self.duration_ticks < 1:
            raise ConfigError(
                f"duration_ticks must be >= 1, got {self.duration_ticks}"
            )
        if self.settle_ticks < 0:
            raise ConfigError(
                f"settle_ticks must be >= 0, got {self.settle_ticks}"
            )
        if self.cpus < 1:
            raise ConfigError(f"cpus must be >= 1, got {self.cpus}")
        if self.cpu_profile is not None:
            count = profile_cpu_count(self.cpu_profile)  # parse-validates
            if count != self.cpus:
                raise ConfigError(
                    f"cpu_profile {self.cpu_profile!r} describes {count} "
                    f"cores but cpus={self.cpus}"
                )
        if self.faults is None:
            return
        for i, window in enumerate(self.faults.throttles):
            for index in window.cpus or ():
                if index >= self.cpus:
                    raise ConfigError(
                        f"fault plan {self.faults.name!r} field "
                        f"throttles[{i}].cpus names CPU {index}, but "
                        f"cpus={self.cpus}"
                    )

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

        Validates what a config deserialised from external JSON could
        smuggle in, as a :class:`ConfigError` naming the field: an unknown
        key (top-level or inside ``calibration``) or a value of the wrong
        type; the constructor then checks the values' ranges.
        """
        raw = dict(raw)
        unknown = check_fields(raw, cls, "config")
        cal = raw.pop("calibration", None) or {}
        faults = raw.pop("faults", None)
        unknown += check_fields(cal, Calibration, "config", "calibration.")
        if unknown:
            raise ConfigError(
                f"unknown config key(s) in JSON: {', '.join(unknown)}"
            )
        return cls(
            calibration=Calibration(**cal) if cal else None,
            faults=FaultPlan.from_json_dict(faults) if faults else None,
            **raw,
        )


#: A fast configuration for tests.
QUICK_CONFIG = RunConfig(duration_ticks=seconds(1), settle_ticks=millis(200))


def bench_seed(bench_id: str, cfg: RunConfig) -> int:
    """The per-benchmark RNG seed (base seed mixed with the id)."""
    return (cfg.seed * 2_654_435_761 + zlib.crc32(bench_id.encode())) & 0x7FFF_FFFF


def execute_one(bench_id: str, cfg: RunConfig) -> RunResult:
    """Execute one benchmark on a fresh system.

    Top-level and picklable so the pool backend can ship it to
    workers.  Nothing is installed ambiently: the config's calibration
    rides on the fresh :class:`System`, so concurrent calls on threads
    of one process stay independent.
    """
    return _run_spec(get_benchmark(bench_id), cfg)


def _prepared_system(spec: BenchmarkSpec, cfg: RunConfig):
    """``(system, stack, model)`` booted, with the workload model built
    (and, for Android benchmarks, its app installed), ready to settle."""
    seed = bench_seed(spec.bench_id, cfg)
    system = System(
        seed=seed,
        cpus=cfg.cpus,
        cpu_profile=cfg.cpu_profile,
        calibration=cfg.calibration,
    )
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
        injector = FaultInjector(cfg.faults, seed, system)
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
            "instr_by_cpu": system.profiler.instr_by_cpu,
            "data_by_cpu": system.profiler.data_by_cpu,
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


@dataclass(frozen=True)
class SuiteUnit:
    """One benchmark of a suite batch, as :func:`execute_with_cache`
    takes it (sweep points and fleet units carry the same fields)."""

    bench_id: str
    config: RunConfig

    @property
    def label(self) -> str:
        """The name a shortfall error prints: the bench id."""
        return self.bench_id


_Unit = TypeVar("_Unit")


def execute_with_cache(
    backend: "ExecutionBackend",
    cache: ResultCache | None,
    units: "Iterable[_Unit]",
    on_done: "Callable[[_Unit, float | None, RunResult], None]",
) -> None:
    """Run *units* through *cache* then *backend*, reporting each once,
    in unit order.

    The one way a completed run leaves :mod:`repro.core`: the suite,
    sweep and fleet runners each fold results in their own *on_done*.
    Each unit carries ``bench_id``, ``config`` and ``label``, and
    ``on_done(unit, elapsed, run)`` fires exactly once per unit, in the
    order of *units*, on the calling thread: with ``elapsed=None`` for
    a cache hit (no simulation happened — never conflate that with a
    fast run), and after the run is stored in *cache* for a fresh one.
    Nothing is returned or retained here, so a caller that folds
    results into summaries aggregates in O(metrics) memory however
    large the batch.

    Only the misses reach the backend, which pulls *units* lazily: a
    probe overlaps the runs in flight, and only runs take window slots.
    A hit behind an unreported run waits as its unit and is read at its
    turn, so no decoded hit queues up (an entry gone or corrupt by then
    is simulated here).  A backend that reports out of pull order, or
    loses a run, raises a :class:`~repro.core.backends.BackendError`.
    """
    # Each unit pulled but not reported, oldest first, and whether the
    # cache holds it (only the others went to the backend).
    pulled: deque = deque()
    reported = 0

    def report_hits() -> None:
        """Report the hits at the head of *pulled*, reading each now."""
        while pulled and pulled[0][1]:
            unit = pulled.popleft()[0]
            run, elapsed = cache.get(unit.bench_id, unit.config), None
            if run is None:  # later runs may be in flight: run it here
                started = time.perf_counter()
                run = execute_one(unit.bench_id, unit.config)
                elapsed = time.perf_counter() - started
                cache.put(unit.bench_id, unit.config, run)
            on_done(unit, elapsed, run)

    def misses():
        for unit in units:
            hit = cache is not None and cache.has(unit.bench_id, unit.config)
            pulled.append((unit, hit))
            if hit:
                report_hits()
            else:
                yield unit.bench_id, unit.config

    def on_result(index: int, elapsed: float, run: RunResult) -> None:
        nonlocal reported
        if index != reported:
            raise BackendError(
                f"backend {backend.name!r} reported run {index} out of pull "
                f"order (expected run {reported})"
            )
        reported += 1
        unit = pulled.popleft()[0]
        if cache is not None:
            cache.put(unit.bench_id, unit.config, run)
        on_done(unit, elapsed, run)
        report_hits()

    backend.execute_stream(misses(), on_result)
    if pulled:
        # A crashed worker or a buggy backend lost these runs.
        lost = [unit.label for unit, hit in pulled if not hit]
        raise BackendError(
            f"backend {backend.name!r} returned no result for: "
            f"{', '.join(lost)} ({reported}/{reported + len(lost)} completed)"
        )


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

        Every benchmark is reported through *progress* in batch order,
        a cache hit with ``elapsed=None`` (no simulation happened —
        distinct from a genuinely instantaneous run); misses run on the
        backend and are stored back on completion.
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

        suite = SuiteResult()

        def on_done(
            unit: SuiteUnit, elapsed: "float | None", run: RunResult
        ) -> None:
            suite.add(run)
            if progress is not None:
                progress(unit.bench_id, elapsed, run)

        execute_with_cache(
            self.backend,
            self.cache,
            [SuiteUnit(bench_id, cfg) for bench_id in wanted],
            on_done,
        )
        return suite
