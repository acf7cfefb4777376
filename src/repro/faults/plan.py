"""Fault plans: deterministic, cache-keyed fault-injection schedules.

A :class:`FaultPlan` is part of :class:`~repro.core.runner.RunConfig` —
frozen, JSON-round-trippable, and omitted from the config's JSON form
when absent so every pre-existing cache key and golden anchor stays
byte-identical.  A plan only *names* faults; the injector derives every
probabilistic draw from ``bench_seed`` so the same ``(bench_id, config)``
reproduces the same fault sequence on any backend or host.

All event offsets are milliseconds relative to the start of the
measurement window: faults never fire during boot or settle, so they
perturb only the measured interval and a faulted cell shares its boot
and settle with its fault-free baseline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from repro.errors import ConfigError
from repro.jsonform import check_fields, check_instance


@dataclass(frozen=True)
class ThreadKill:
    """Kill one named service thread, optionally restarting it later.

    ``restart_ms`` is relative to the kill instant; ``0`` means the
    thread stays dead for the rest of the window.
    """

    at_ms: int
    proc: str
    thread: str
    restart_ms: int = 0

    def __post_init__(self) -> None:
        check_instance(self, "thread kill")
        if self.at_ms < 0:
            raise ConfigError(f"thread kill at_ms must be >= 0, got {self.at_ms}")
        if self.restart_ms < 0:
            raise ConfigError(
                f"thread kill restart_ms must be >= 0, got {self.restart_ms}"
            )
        if not self.proc or not self.thread:
            raise ConfigError("thread kill needs a process comm and thread name")


@dataclass(frozen=True)
class ThrottleWindow:
    """Multiply ticks-per-instruction on the chosen CPUs for a window.

    ``cpus=None`` throttles every CPU (a thermal cap); a tuple of CPU
    indices throttles just those cores.
    """

    at_ms: int
    duration_ms: int
    factor: int = 2
    cpus: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        check_instance(self, "throttle")
        if self.at_ms < 0:
            raise ConfigError(f"throttle at_ms must be >= 0, got {self.at_ms}")
        if self.duration_ms <= 0:
            raise ConfigError(
                f"throttle duration_ms must be > 0, got {self.duration_ms}"
            )
        if self.factor < 2:
            raise ConfigError(f"throttle factor must be an int >= 2, got {self.factor}")
        if self.cpus is not None:
            object.__setattr__(self, "cpus", tuple(self.cpus))
            if not self.cpus:
                raise ConfigError(
                    "throttle cpus must name at least one CPU "
                    "(null throttles every CPU)"
                )
            if min(self.cpus) < 0:
                raise ConfigError(
                    f"throttle cpus must be CPU indices >= 0, got {self.cpus}"
                )


@dataclass(frozen=True)
class FaultPlan:
    """One named, deterministic fault schedule for a run."""

    name: str = ""
    #: Per-transaction binder failure probability in [0, 1].  Failures on
    #: fire-and-forget codes are dropped (absorbed); failures on codes a
    #: sender waits on are retried (visible overhead, no breakage).
    binder_fail_rate: float = 0.0
    thread_kills: tuple[ThreadKill, ...] = ()
    #: Page-cache eviction storms: the whole cache drops at each offset.
    evict_at_ms: tuple[int, ...] = ()
    throttles: tuple[ThrottleWindow, ...] = ()

    def __post_init__(self) -> None:
        # Types first, by the JSON decoder's rules; each entry checks its
        # own fields.
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, cls in (("thread_kills", ThreadKill),
                          ("throttles", ThrottleWindow)):
            entries = values.pop(name)
            if not (isinstance(entries, (list, tuple))
                    and all(isinstance(e, cls) for e in entries)):
                raise ConfigError(f"fault plan field {name} must be a tuple "
                                  f"of {cls.__name__}, got {entries!r}")
        check_fields(values, FaultPlan, "fault plan")
        if not 0.0 <= self.binder_fail_rate <= 1.0:
            raise ConfigError(
                f"binder_fail_rate must be in [0, 1], got {self.binder_fail_rate}"
            )
        object.__setattr__(self, "thread_kills", tuple(self.thread_kills))
        object.__setattr__(self, "evict_at_ms", tuple(self.evict_at_ms))
        object.__setattr__(self, "throttles", tuple(self.throttles))
        for off in self.evict_at_ms:
            if off < 0:
                raise ConfigError(f"evict_at_ms offsets must be >= 0, got {off}")
        if not (
            self.binder_fail_rate
            or self.thread_kills
            or self.evict_at_ms
            or self.throttles
        ):
            raise ConfigError("a fault plan must schedule at least one fault")

    # ------------------------------------------------------------------
    # Serialisation (rides inside RunConfig's JSON form and cache key)

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, raw: dict) -> "FaultPlan":
        """Inverse of :meth:`to_json_dict`: an unknown key (nested entries
        too), a missing entry field or a value of the wrong type is a
        :class:`ConfigError` naming the field."""
        raw = dict(raw)
        unknown = check_fields(raw, cls, "fault plan")
        nested = {"thread_kills": ThreadKill, "throttles": ThrottleWindow}
        entries = {name: raw.pop(name, ()) for name in nested}
        for name, value in entries.items():
            for i, entry in enumerate(value):
                unknown += check_fields(
                    entry, nested[name], "fault plan", f"{name}[{i}]."
                )
        if unknown:
            raise ConfigError(
                f"unknown fault plan key(s) in JSON: {', '.join(unknown)}"
            )
        return cls(
            **raw,
            **{
                name: tuple(nested[name](**entry) for entry in value)
                for name, value in entries.items()
            },
        )


# ---------------------------------------------------------------------------
# Named plans: the `faults` axis and `--faults` flag resolve through here.

FAULT_PLANS: dict[str, FaultPlan] = {
    # Flaky binder: 30% of transactions fail.  Fire-and-forget codes are
    # dropped outright; sync calls pay a fail+retry detour.
    "binder-flaky": FaultPlan(name="binder-flaky", binder_fail_rate=0.3),
    # SurfaceFlinger dies 120ms into the window and stays dead:
    # composition stops, frames drop — the amplified failure mode.
    "sf-kill": FaultPlan(
        name="sf-kill",
        thread_kills=(ThreadKill(at_ms=120, proc="system_server",
                                 thread="SurfaceFlinger"),),
    ),
    # Same death, but the framework restarts the thread 120ms later.
    "sf-restart": FaultPlan(
        name="sf-restart",
        thread_kills=(ThreadKill(at_ms=120, proc="system_server",
                                 thread="SurfaceFlinger", restart_ms=120),),
    ),
    # mediaserver's mixer thread dies mid-playback, restarting 100ms on.
    "media-kill": FaultPlan(
        name="media-kill",
        thread_kills=(ThreadKill(at_ms=120, proc="mediaserver",
                                 thread="AudioOut_1", restart_ms=100),),
    ),
    # Page-cache eviction storms: every cached byte dropped, three times.
    "cache-storm": FaultPlan(name="cache-storm", evict_at_ms=(80, 160, 240)),
    # Thermal cap: every core runs 3x slower for 200ms.
    "throttle": FaultPlan(
        name="throttle",
        throttles=(ThrottleWindow(at_ms=80, duration_ms=200, factor=3),),
    ),
    # Everything at once.
    "chaos": FaultPlan(
        name="chaos",
        binder_fail_rate=0.15,
        thread_kills=(ThreadKill(at_ms=150, proc="system_server",
                                 thread="SurfaceFlinger", restart_ms=120),),
        evict_at_ms=(100,),
        throttles=(ThrottleWindow(at_ms=60, duration_ms=120, factor=2),),
    ),
}


def plan_names() -> list[str]:
    """Registered plan names, in registry order."""
    return list(FAULT_PLANS)


def fault_plan(name: str) -> FaultPlan:
    """Resolve a registered plan by name."""
    try:
        return FAULT_PLANS[name]
    except KeyError:
        raise ConfigError(
            f"unknown fault plan {name!r} (known: {', '.join(FAULT_PLANS)})"
        ) from None
