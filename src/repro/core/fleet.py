"""Fleet-scale Monte-Carlo: sample a device population, stream-reduce it.

The paper profiles one handset.  The question a vendor actually faces is
population-shaped: across *thousands* of devices — different core
layouts, device-class calibrations, app mixes, boot seeds — how do
launch-window metrics distribute, and what do the tails look like?
A :class:`FleetSpec` describes that population as independent sampling
mixes; :func:`run_fleet` draws the fleet deterministically, deduplicates
devices that landed on identical ``(bench, config)`` cells into
:class:`FleetUnit`\\ s (simulated once, counted per device), and streams
every unit through an execution backend into a
:class:`~repro.core.stats.SketchSet` — never materialising per-device
:class:`~repro.core.results.RunResult`\\ s, so aggregation memory is
O(metrics) at any fleet size.

Determinism is end-to-end: sampling is a pure function of the spec seed,
sketches are order-independent, and sharded runs merge into the exact
bytes of the unsharded run (``FleetResult.merge`` + ``save`` with sorted
keys), which CI verifies with ``cmp``.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.calibration import (
    Calibration,
    calibration_preset,
    profile_cpu_count,
)
from repro.core.backends.sharded import shard_ids
from repro.core.results import ResultCache, RunResult, load_json_file
from repro.core.runner import Reducer, RunConfig, execute_with_cache
from repro.core.stats import (
    DEFAULT_SAMPLE_CAPACITY,
    FLEET_METRICS,
    SketchSet,
)
from repro.core.suite import AGAVE_IDS, get_benchmark
from repro.errors import AnalysisError, ConfigError
from repro.faults.plan import fault_plan

if TYPE_CHECKING:
    from repro.core.backends import ExecutionBackend

#: How many distinct boot seeds a fleet draws from by default.  Sampling
#: seeds from a small pool (not one per device) is what lets thousands
#: of devices collapse into far fewer simulated units and share cache
#: entries: device diversity comes from the *cross product* of mixes,
#: not from unbounded seeds.  The pool size decides which devices draw
#: which seed, so changing it changes every fleet's result bytes.
DEFAULT_SEED_CHOICES = 8


def parse_mix(text: str, parse_value: Callable[[str], object] = str) -> tuple:
    """Parse a CLI mix spec ``v1=w1,v2=w2,...`` into weighted entries.

    Weights are optional (``lowend,highend`` is an even split); values
    go through *parse_value* (e.g. ``float`` for scale mixes, or a
    ``none``-aware profile parser).
    """
    entries = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        value_text, sep, weight_text = part.partition("=")
        weight = 1.0
        if sep:
            try:
                weight = float(weight_text)
            except ValueError:
                raise ConfigError(
                    f"bad mix weight {weight_text!r} in {text!r}"
                ) from None
        entries.append((parse_value(value_text), weight))
    if not entries:
        raise ConfigError(f"mix spec {text!r} has no entries")
    return tuple(entries)


def _check_mix(name: str, mix: tuple) -> None:
    if not mix:
        raise ConfigError(f"fleet {name} mix has no entries")
    for _value, weight in mix:
        if not isinstance(weight, (int, float)) or weight <= 0:
            raise ConfigError(
                f"fleet {name} mix weights must be positive, got {weight!r}"
            )


def _pick(rng: random.Random, mix: tuple):
    """One weighted draw from *mix* (cumulative scan — mixes are tiny)."""
    total = sum(weight for _, weight in mix)
    point = rng.random() * total
    acc = 0.0
    for value, weight in mix:
        acc += weight
        if point < acc:
            return value
    return mix[-1][0]


@dataclass(frozen=True)
class DeviceProfile:
    """One sampled device: where it landed on every mix."""

    device_id: int
    bench_id: str
    config: RunConfig
    preset: str
    profile: "str | None"
    scale: float
    #: Fault-plan name the device drew (None = fault-free).
    fault: "str | None" = None

    @property
    def key(self) -> str:
        """The stable sketch-sampling identity of this device."""
        return f"device:{self.device_id}"


@dataclass(frozen=True)
class FleetUnit:
    """One unique ``(bench, config)`` cell and every device on it.

    Devices that sampled identically collapse into one unit — simulated
    once, observed once *per device* — so fleet cost scales with the
    population's diversity, not its raw size.
    """

    bench_id: str
    config: RunConfig
    device_ids: tuple

    @property
    def label(self) -> str:
        """Human name: the bench plus how many devices ride this cell."""
        return f"{self.bench_id}[x{len(self.device_ids)}]"


@dataclass(frozen=True)
class FleetSpec:
    """A declarative device population: size, seed, and sampling mixes.

    Each device draws independently from every mix (benchmark, CPU
    profile, calibration preset, calibration scale, boot seed) with one
    shared :class:`random.Random` stream, so the whole fleet is a pure
    function of *seed* — two shards sampling the same spec agree on
    every device before partitioning a single unit.
    """

    #: Population size.
    devices: int
    #: Sampling seed (also the default base of the boot-seed pool).
    seed: int = 1234
    #: Benchmark mix; empty means uniform over the Agave app suite.
    bench_mix: tuple = ()
    #: CPU-profile mix (``None`` = the symmetric base-config machine).
    profile_mix: tuple = ((None, 1.0),)
    #: Calibration-preset mix (names from CAL_PRESETS).
    preset_mix: tuple = (("baseline", 1.0),)
    #: Per-device calibration scale factors (device-unit variation).
    scale_mix: tuple = ((1.0, 1.0),)
    #: Boot-seed pool; empty means ``seed .. seed+7``.
    seed_choices: tuple = ()
    #: The config every device starts from before mixes apply.
    base: RunConfig = field(default_factory=RunConfig)
    #: Bottom-k sample bound of every metric sketch.
    capacity: int = DEFAULT_SAMPLE_CAPACITY
    #: Fault-plan mix (names from FAULT_PLANS; ``None`` = fault-free).
    #: The all-None default draws nothing from the RNG stream, so every
    #: pre-existing spec samples the exact same fleet it always did.
    fault_mix: tuple = ((None, 1.0),)

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ConfigError(
                f"fleet needs devices >= 1, got {self.devices}"
            )
        if self.capacity < 1:
            raise ConfigError(
                f"fleet needs capacity >= 1, got {self.capacity}"
            )
        for name, mix in (
            ("profile", self.profile_mix),
            ("preset", self.preset_mix),
            ("scale", self.scale_mix),
            ("fault", self.fault_mix),
        ):
            _check_mix(name, mix)
        if self.bench_mix:
            _check_mix("bench", self.bench_mix)
        for bench_id, _ in self.effective_bench_mix():
            get_benchmark(bench_id)  # unknown ids fail before simulation
        for profile, _ in self.profile_mix:
            if profile is not None:
                profile_cpu_count(profile)
        for preset, _ in self.preset_mix:
            calibration_preset(preset)
        for scale, _ in self.scale_mix:
            if not isinstance(scale, (int, float)) or scale <= 0:
                raise ConfigError(
                    f"fleet scale mix values must be positive, got {scale!r}"
                )
        for plan, _ in self.fault_mix:
            if plan is not None:
                fault_plan(plan)  # validates the name

    # ------------------------------------------------------------------

    def effective_bench_mix(self) -> tuple:
        """The bench mix with the empty default expanded (uniform Agave)."""
        return self.bench_mix or tuple((b, 1.0) for b in AGAVE_IDS)

    def effective_seed_choices(self) -> tuple:
        """The boot-seed pool with the empty default expanded."""
        return self.seed_choices or tuple(
            self.seed + j for j in range(DEFAULT_SEED_CHOICES)
        )

    def sample(self) -> "list[DeviceProfile]":
        """Draw the whole fleet (pure function of the spec)."""
        rng = random.Random(self.seed)
        bench_mix = self.effective_bench_mix()
        seeds = self.effective_seed_choices()
        # An all-None fault mix skips its draw entirely, so specs that
        # predate the fault axis replay their historical RNG stream.
        faults_active = any(plan is not None for plan, _ in self.fault_mix)
        fleet: "list[DeviceProfile]" = []
        for device_id in range(self.devices):
            bench_id = _pick(rng, bench_mix)
            profile = _pick(rng, self.profile_mix)
            preset = _pick(rng, self.preset_mix)
            scale = float(_pick(rng, self.scale_mix))
            dev_seed = seeds[rng.randrange(len(seeds))]
            fault = _pick(rng, self.fault_mix) if faults_active else None
            cfg = replace(self.base, seed=dev_seed)
            if fault is not None:
                cfg = replace(cfg, faults=fault_plan(fault))
            if profile is not None:
                cfg = replace(
                    cfg,
                    cpu_profile=profile,
                    cpus=profile_cpu_count(profile),
                )
            cal = calibration_preset(preset)
            if scale != 1.0:
                cal = cal.scaled(scale)
            # The fitted default canonicalises to None, sharing cache
            # keys with non-fleet runs.
            cfg = replace(
                cfg, calibration=None if cal == Calibration() else cal
            )
            fleet.append(
                DeviceProfile(
                    device_id=device_id,
                    bench_id=bench_id,
                    config=cfg,
                    preset=preset,
                    profile=profile,
                    scale=scale,
                    fault=fault,
                )
            )
        return fleet

    def units(
        self, fleet: "Sequence[DeviceProfile] | None" = None
    ) -> "list[FleetUnit]":
        """Deduplicate the fleet into unique work units.

        First-occurrence order — deterministic, so sharding the unit
        list round-robin partitions devices identically everywhere.
        """
        if fleet is None:
            fleet = self.sample()
        groups: "dict[tuple[str, RunConfig], list[int]]" = {}
        for device in fleet:
            groups.setdefault(
                (device.bench_id, device.config), []
            ).append(device.device_id)
        return [
            FleetUnit(bench_id=bench_id, config=cfg, device_ids=tuple(ids))
            for (bench_id, cfg), ids in groups.items()
        ]

    def population(
        self, fleet: "Sequence[DeviceProfile] | None" = None
    ) -> dict:
        """Where the sampled devices actually landed, as count tables."""
        if fleet is None:
            fleet = self.sample()
        tables: "dict[str, dict[str, int]]" = {
            "bench": {},
            "profile": {},
            "preset": {},
            "scale": {},
        }
        # The fault table appears only when the axis is in play, so
        # fault-free fleet reports keep their historical byte shape.
        faults_active = any(plan is not None for plan, _ in self.fault_mix)
        if faults_active:
            tables["fault"] = {}
        for device in fleet:
            for table, value in (
                ("bench", device.bench_id),
                ("profile", device.profile or "none"),
                ("preset", device.preset),
                ("scale", format(device.scale, "g")),
            ):
                counts = tables[table]
                counts[value] = counts.get(value, 0) + 1
            if faults_active:
                counts = tables["fault"]
                value = device.fault or "none"
                counts[value] = counts.get(value, 0) + 1
        return tables

    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The spec's canonical JSON (the digest input — includes the
        metric names and sketch capacity, so two results only merge when
        their sketches mean the same thing)."""
        out = {
            "devices": self.devices,
            "seed": self.seed,
            "bench_mix": [[b, w] for b, w in self.bench_mix],
            "profile_mix": [[p, w] for p, w in self.profile_mix],
            "preset_mix": [[p, w] for p, w in self.preset_mix],
            "scale_mix": [[s, w] for s, w in self.scale_mix],
            "seed_choices": list(self.seed_choices),
            "base": self.base.to_json_dict(),
            "metrics": list(FLEET_METRICS),
            "capacity": self.capacity,
        }
        # Conditional, like RunConfig's "faults" key: specs that never
        # touch the fault axis keep their pre-change digests.
        if self.fault_mix != ((None, 1.0),):
            out["fault_mix"] = [[p, w] for p, w in self.fault_mix]
        return out

    def digest(self) -> str:
        """Content hash guarding shard merges."""
        payload = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class FleetResult:
    """One fleet run's (or shard's) entire output: sketches + census.

    Deliberately *not* a bag of RunResults — the whole point of the
    streaming reduction is that this object is O(metrics) regardless of
    fleet size.
    """

    #: The sampled spec, verbatim (provenance for the report).
    spec: dict
    #: The spec's content hash; merges require equality.
    spec_digest: str
    #: Population size the spec describes.
    devices: int
    #: Unique work units across the *full* fleet (pre-shard).
    units_total: int
    #: Devices aggregated into :attr:`sketches` (shard-local until merged).
    devices_done: int
    #: Sampled-population count tables (full fleet — census, not shard).
    population: dict
    #: The streamed aggregation state.
    sketches: SketchSet

    def merge(self, other: "FleetResult") -> None:
        """Fold another shard in (order-independent, so merged shards
        reproduce the unsharded result byte-for-byte)."""
        if other.spec_digest != self.spec_digest:
            raise AnalysisError(
                "cannot merge fleet results from different specs "
                f"({self.spec_digest[:12]} vs {other.spec_digest[:12]})"
            )
        self.devices_done += other.devices_done
        self.sketches.merge(other.sketches)

    @property
    def complete(self) -> bool:
        """Whether every sampled device has been aggregated."""
        return self.devices_done >= self.devices

    # ------------------------------------------------------------------
    # Serialisation

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec,
            "spec_digest": self.spec_digest,
            "devices": self.devices,
            "units_total": self.units_total,
            "devices_done": self.devices_done,
            "population": self.population,
            "sketches": self.sketches.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, raw: dict) -> "FleetResult":
        return cls(
            spec=dict(raw["spec"]),
            spec_digest=str(raw["spec_digest"]),
            devices=int(raw["devices"]),
            units_total=int(raw["units_total"]),
            devices_done=int(raw["devices_done"]),
            population={
                table: dict(counts)
                for table, counts in raw["population"].items()
            },
            sketches=SketchSet.from_json_dict(raw["sketches"]),
        )

    def save(self, path: str) -> None:
        """Write canonical JSON (sorted keys: equal results are equal
        bytes, which is what the sharded-equivalence CI check compares)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "FleetResult":
        return load_json_file(path, "fleet result", cls.from_json_dict)


class FleetReducer(Reducer):
    """Streams fleet units into a :class:`~repro.core.stats.SketchSet`.

    ``consume`` observes the unit's single simulated run once *per
    device riding it* — each device under its own sampling key — then
    drops the reference; nothing per-run survives the call.
    """

    def __init__(self, spec: FleetSpec, units_total: int, population: dict):
        self._spec = spec
        self._units_total = units_total
        self._population = population
        self.sketches = SketchSet(FLEET_METRICS, capacity=spec.capacity)
        self.devices_done = 0

    def consume(self, unit: FleetUnit, run: RunResult) -> None:
        for device_id in unit.device_ids:
            self.sketches.observe(f"device:{device_id}", run)
        self.devices_done += len(unit.device_ids)

    def finish(self) -> FleetResult:
        return FleetResult(
            spec=self._spec.to_json_dict(),
            spec_digest=self._spec.digest(),
            devices=self._spec.devices,
            units_total=self._units_total,
            devices_done=self.devices_done,
            population=self._population,
            sketches=self.sketches,
        )


#: Fleet progress callback, unit-keyed (mirrors SweepProgress).
FleetProgress = Callable[[FleetUnit, "float | None", RunResult], None]


class ProgressMeter:
    """Periodic one-line progress for streamed batches: every *every*
    completed units (and on the last), prints count, percentage,
    completion rate, and a naive remaining-time estimate.

    Callback-compatible with :data:`FleetProgress`/``SweepProgress``;
    invocations arrive serialised (the runner's record lock), so no
    locking here.  An injectable clock and writer keep it testable.
    """

    def __init__(
        self,
        total: int,
        every: int = 16,
        label: str = "fleet",
        clock: Callable[[], float] = time.monotonic,
        write: "Callable[[str], None] | None" = None,
    ) -> None:
        if every < 1:
            raise ConfigError(f"progress interval must be >= 1, got {every}")
        self.total = total
        self.every = every
        self.label = label
        self._clock = clock
        self._write = write if write is not None else self._default_write
        self._started = clock()
        self.done = 0

    @staticmethod
    def _default_write(line: str) -> None:
        print(line, flush=True)

    def __call__(self, unit, elapsed, run) -> None:
        self.done += 1
        if self.done % self.every and self.done != self.total:
            return
        now = self._clock()
        wall = now - self._started
        remaining = max(self.total - self.done, 0)
        percent = 100.0 * self.done / self.total if self.total else 100.0
        if wall <= 0.0:
            # A fast first batch on a coarse clock: no elapsed time yet,
            # so there is no meaningful rate — render placeholders
            # rather than dividing into a zero (or near-zero) wall.
            rate_eta = "-- units/s, eta --"
        else:
            rate = self.done / wall
            rate_eta = f"{rate:.1f} units/s, eta {remaining / rate:.0f}s"
        self._write(
            f"{self.label}: {self.done}/{self.total} units "
            f"({percent:.0f}%), {rate_eta}"
        )


def run_fleet(
    spec: FleetSpec,
    backend: "ExecutionBackend | None" = None,
    cache: ResultCache | None = None,
    make_progress: "Callable[[int], FleetProgress] | None" = None,
    shard: "tuple[int, int] | None" = None,
) -> FleetResult:
    """Sample, deduplicate, execute, and stream-reduce one fleet.

    The full fleet is sampled and deduplicated *before* a *shard*
    ``(k, n)`` takes its slice of the units, so every shard partitions
    identical unit lists and devices never overlap across shards.
    *make_progress*, given the number of units this run owns, returns
    the per-unit progress callback (e.g. a :class:`ProgressMeter`), so
    a meter is sized from this one plan.  Units stream through
    :func:`~repro.core.runner.execute_with_cache` with retention off and
    fold into sketches as they complete — per-device results are never
    held.
    """
    from repro.core.backends import SerialBackend

    if backend is None:
        backend = SerialBackend()
    fleet = spec.sample()
    units = spec.units(fleet)
    population = spec.population(fleet)
    del fleet  # the census is folded; no per-device objects persist
    owned = units
    if shard is not None:
        owned = list(shard_ids(units, *shard))

    reducer = FleetReducer(spec, units_total=len(units), population=population)
    execute_with_cache(
        backend,
        cache,
        [(unit.bench_id, unit.config) for unit in owned],
        labels=[unit.label for unit in owned],
        units=owned,
        progress=make_progress(len(owned)) if make_progress else None,
        reducer=reducer,
        retain_results=False,
    )
    return reducer.finish()
