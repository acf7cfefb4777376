"""Parameter-sweep driver: run a grid of configurations as one batch.

The paper's interesting results are *differences* — JIT on vs off,
foreground vs background, scaled calibrations — and before this module
every ablation hand-rolled its own serial loop over configs.  A
:class:`SweepSpec` declares the grid once: a set of benchmarks crossed
with ordered axes (seeds, the JIT flag, duration scaling, individual
calibration-field overrides), expanded deterministically into
:class:`SweepPoint`\\ s.  :class:`SweepRunner` flattens the whole grid
into a single batch and hands it to an
:class:`~repro.core.backends.ExecutionBackend` — points from different
configs interleave in the pool instead of executing config-by-config —
and reuses :class:`~repro.core.results.ResultCache` per point, so
re-running an enlarged sweep only simulates the new cells.

Every point is a picklable ``(bench_id, RunConfig)`` work item, which is
exactly the unit a future remote/multi-host backend ships across
machines.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.calibration import (
    CAL_PRESETS,
    Calibration,
    calibration_preset,
    profile_cpu_count,
)
from repro.core.backends.sharded import shard_ids
from repro.core.results import ResultCache, RunResult, load_json_file
from repro.core.runner import Reducer, RunConfig, dedup_ids, execute_with_cache
from repro.core.suite import get_benchmark
from repro.errors import AnalysisError, ConfigError
from repro.faults.plan import fault_plan

if TYPE_CHECKING:
    from repro.core.backends import ExecutionBackend

#: Axis names with fixed semantics (everything else must be ``cal.*``).
AXIS_SEED = "seed"
AXIS_JIT = "jit"
AXIS_DURATION = "duration"
AXIS_CPUS = "cpus"
AXIS_CPU_PROFILE = "cpu_profile"
AXIS_CAL_PRESET = "cal.preset"
AXIS_FAULTS = "faults"
CAL_PREFIX = "cal."

_CAL_FIELDS = {f.name for f in fields(Calibration)}


def format_axis_value(value: object) -> str:
    """The canonical short form of one axis value (used in labels)."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def variant_label(values: Mapping[str, object], axis_order: Iterable[str]) -> str:
    """The stable label of one grid variant, e.g. ``jit=on,seed=2``.

    The empty grid (no axes) has the single variant ``base``.
    """
    parts = [
        f"{name}={format_axis_value(values[name])}" for name in axis_order
    ]
    return ",".join(parts) if parts else "base"


@dataclass(frozen=True)
class SweepAxis:
    """One swept dimension: an axis name plus its ordered values.

    Supported names:

    - ``seed`` — integer base seeds.
    - ``jit`` — booleans (CLI spelling ``on``/``off``).
    - ``duration`` — positive scale factors applied to the base window.
    - ``cpus`` — simulated core counts (integers >= 1, the SMP axis).
    - ``cpu_profile`` — big.LITTLE profiles (``"2+2"``-style strings; a
      profile also sets ``cpus`` to its core count) or ``None``
      (CLI spelling ``none``) for the symmetric default.
    - ``cal.preset`` — named device-class calibrations from
      :data:`~repro.calibration.CAL_PRESETS`.  A preset replaces the
      config's calibration wholesale (it is a coherent bundle), so
      order it *before* any ``cal.<field>`` axis that should refine it.
      ``baseline`` canonicalises to the default calibration, sharing
      cache entries with unswept runs.
    - ``cal.<field>`` — numeric overrides of one
      :class:`~repro.calibration.Calibration` field.
    - ``faults`` — named fault plans from
      :data:`~repro.faults.plan.FAULT_PLANS`, or ``None`` (CLI spelling
      ``none``) for the fault-free baseline cell.
    """

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError(f"axis {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ConfigError(f"axis {self.name!r} repeats a value")
        if self.name == AXIS_SEED:
            if not all(isinstance(v, int) and not isinstance(v, bool)
                       for v in self.values):
                raise ConfigError("seed axis values must be integers")
        elif self.name == AXIS_JIT:
            if not all(isinstance(v, bool) for v in self.values):
                raise ConfigError("jit axis values must be booleans")
        elif self.name == AXIS_DURATION:
            if not all(isinstance(v, (int, float)) and v > 0
                       for v in self.values):
                raise ConfigError("duration axis values must be positive")
        elif self.name == AXIS_CPUS:
            if not all(isinstance(v, int) and not isinstance(v, bool) and v >= 1
                       for v in self.values):
                raise ConfigError("cpus axis values must be integers >= 1")
        elif self.name == AXIS_CPU_PROFILE:
            for v in self.values:
                if v is None:
                    continue
                if not isinstance(v, str):
                    raise ConfigError(
                        "cpu_profile axis values must be strings or None"
                    )
                profile_cpu_count(v)  # parse-validates the profile
        elif self.name == AXIS_CAL_PRESET:
            for v in self.values:
                if not isinstance(v, str):
                    raise ConfigError(
                        "cal.preset axis values must be preset names"
                    )
                calibration_preset(v)  # validates the name
        elif self.name == AXIS_FAULTS:
            for v in self.values:
                if v is None:
                    continue
                if not isinstance(v, str):
                    raise ConfigError(
                        "faults axis values must be plan names or None"
                    )
                fault_plan(v)  # validates the name
        elif self.name.startswith(CAL_PREFIX):
            cal_field = self.name[len(CAL_PREFIX):]
            if cal_field not in _CAL_FIELDS:
                raise ConfigError(
                    f"unknown calibration field {cal_field!r} in axis "
                    f"{self.name!r}"
                )
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in self.values):
                raise ConfigError(f"axis {self.name!r} values must be numeric")
        else:
            raise ConfigError(
                f"unknown axis {self.name!r}; known: {AXIS_SEED}, {AXIS_JIT}, "
                f"{AXIS_DURATION}, {AXIS_CPUS}, {AXIS_CPU_PROFILE}, "
                f"{AXIS_CAL_PRESET}, {AXIS_FAULTS}, {CAL_PREFIX}<field>"
            )

    def apply(self, cfg: RunConfig, value: object) -> RunConfig:
        """A config with this axis set to *value*."""
        if self.name == AXIS_SEED:
            return replace(cfg, seed=value)
        if self.name == AXIS_JIT:
            return replace(cfg, jit_enabled=value)
        if self.name == AXIS_DURATION:
            return cfg.scaled(value)
        if self.name == AXIS_CPUS:
            # A profile pins its own core count; silently keeping both
            # would mint a config that only explodes mid-simulation.
            if cfg.cpu_profile is not None \
                    and profile_cpu_count(cfg.cpu_profile) != value:
                raise ConfigError(
                    f"cpus axis value {value} conflicts with cpu_profile "
                    f"{cfg.cpu_profile!r} ({profile_cpu_count(cfg.cpu_profile)}"
                    f" cores); sweep one of the two, not both"
                )
            return replace(cfg, cpus=value)
        if self.name == AXIS_CPU_PROFILE:
            if value is None:
                return replace(cfg, cpu_profile=None)
            # A profile pins the core count too: "2+2" is a 4-core
            # machine whatever the base config said.
            return replace(cfg, cpu_profile=value,
                           cpus=profile_cpu_count(value))
        if self.name == AXIS_FAULTS:
            # ``none`` IS the default: the baseline cell keeps the exact
            # cache key (and bytes) an unswept run of the config has.
            return replace(
                cfg, faults=None if value is None else fault_plan(value)
            )
        if self.name == AXIS_CAL_PRESET:
            cal = calibration_preset(value)
            # ``baseline`` IS the default: canonicalise to None so the
            # cell shares its cache key with unswept runs of the config.
            return replace(
                cfg, calibration=None if cal == Calibration() else cal
            )
        base_cal = cfg.calibration if cfg.calibration is not None else Calibration()
        return replace(
            cfg,
            calibration=replace(base_cal, **{self.name[len(CAL_PREFIX):]: value}),
        )


def parse_axis(text: str) -> SweepAxis:
    """Parse a CLI ``name=v1,v2,...`` axis spec.

    ``jit`` accepts ``on/off/true/false``; ``seed`` and ``cpus`` parse
    integers; ``duration`` and ``cal.*`` parse numbers (int kept when
    exact); ``cpu_profile`` and ``faults`` keep their values as strings,
    with ``none`` naming the symmetric / fault-free default.
    """
    name, sep, values_text = text.partition("=")
    if not sep or not name or not values_text:
        raise ConfigError(
            f"bad axis spec {text!r}: expected NAME=V1,V2,... "
            f"(e.g. jit=on,off or seed=1,2,3)"
        )
    raw_values = [v.strip() for v in values_text.split(",") if v.strip()]
    if not raw_values:
        raise ConfigError(f"axis spec {text!r} has no values")
    parsed: list = []
    for raw in raw_values:
        if name in (AXIS_CPU_PROFILE, AXIS_FAULTS):
            parsed.append(None if raw.lower() == "none" else raw)
        elif name == AXIS_CAL_PRESET:
            parsed.append(raw)
        elif name == AXIS_JIT:
            lowered = raw.lower()
            if lowered in ("on", "true", "1"):
                parsed.append(True)
            elif lowered in ("off", "false", "0"):
                parsed.append(False)
            else:
                raise ConfigError(
                    f"bad jit value {raw!r}: expected on/off"
                )
        else:
            try:
                parsed.append(int(raw))
            except ValueError:
                try:
                    parsed.append(float(raw))
                except ValueError:
                    raise ConfigError(
                        f"bad numeric value {raw!r} in axis {name!r}"
                    ) from None
    return SweepAxis(name, tuple(parsed))


@dataclass(frozen=True)
class SweepPoint:
    """One grid cell: a benchmark run under one variant's config.

    The variant's axis-value assignment lives once, in
    :attr:`SweepResult.variant_values`, keyed by the label.
    """

    bench_id: str
    variant: str
    config: RunConfig

    @property
    def label(self) -> str:
        """``bench[variant]`` — the human name of this cell."""
        return f"{self.bench_id}[{self.variant}]"


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid: benchmarks × the Cartesian product of axes.

    Expansion is deterministic: benchmarks in given order (duplicates
    dropped with a warning), variants in axis-major order (the first
    axis varies slowest), applied left-to-right onto *base*.
    """

    benches: tuple[str, ...]
    axes: tuple[SweepAxis, ...] = ()
    base: RunConfig = RunConfig()

    def __post_init__(self) -> None:
        if not self.benches:
            raise ConfigError("sweep needs at least one benchmark")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate sweep axes: {', '.join(names)}")

    def axis_order(self) -> list[str]:
        """Axis names in declaration order."""
        return [axis.name for axis in self.axes]

    def variants(self) -> "list[tuple[str, dict[str, object], RunConfig]]":
        """Every grid variant as ``(label, axis values, config)``.

        Labels must be unique: two distinct float values that format
        identically (e.g. ``1.0000001`` and ``1.0000002`` both render as
        ``1``) would silently overwrite each other's cells.  Configs
        must be unique too: distinct duration factors can truncate/clamp
        to the same tick count, which would present two identical
        columns as a 0% ablation.  Both collisions are rejected here.
        """
        out = []
        seen_labels: dict[str, tuple] = {}
        seen_cfgs: dict[RunConfig, str] = {}
        for combo in itertools.product(*(axis.values for axis in self.axes)):
            values = dict(zip(self.axis_order(), combo))
            cfg = self.base
            for axis, value in zip(self.axes, combo):
                cfg = axis.apply(cfg, value)
            label = variant_label(values, self.axis_order())
            if label in seen_labels:
                raise ConfigError(
                    f"axis values {seen_labels[label]} and {combo} both "
                    f"label as {label!r}; use values that stay distinct "
                    f"when formatted"
                )
            if cfg in seen_cfgs:
                raise ConfigError(
                    f"variants {seen_cfgs[cfg]!r} and {label!r} produce "
                    f"identical configs (duration factors truncating to "
                    f"the same window?)"
                )
            seen_labels[label] = combo
            seen_cfgs[cfg] = label
            out.append((label, values, cfg))
        return out

    def expand(
        self,
        variants: "list[tuple[str, dict[str, object], RunConfig]] | None" = None,
    ) -> list[SweepPoint]:
        """The full deterministic grid, benchmark-major.

        Consecutive points differ in config, so a process pool naturally
        interleaves variants instead of draining one config at a time.
        Bench ids are validated here — an unknown id should fail before
        any simulation starts, not inside a pool worker.  Callers that
        already hold :meth:`variants` output may pass it to avoid
        recomputing the product.
        """
        bench_ids = dedup_ids(self.benches)
        for bench_id in bench_ids:
            get_benchmark(bench_id)
        if variants is None:
            variants = self.variants()
        return [
            SweepPoint(bench_id=bench_id, variant=label, config=cfg)
            for bench_id in bench_ids
            for label, _values, cfg in variants
        ]


@dataclass
class SweepResult:
    """Results of one sweep, keyed by ``(bench_id, variant_label)``."""

    #: Axis name -> the values it swept, in declaration order.
    axes: "dict[str, list]" = field(default_factory=dict)
    #: Variant label -> its axis-value assignment.
    variant_values: "dict[str, dict[str, object]]" = field(default_factory=dict)
    #: The grid's full benchmark order — carried even by a shard that
    #: holds none of a benchmark's cells, so merging can restore
    #: canonical order.
    bench_ids: "list[str]" = field(default_factory=list)
    #: Cell results, insertion-ordered (grid order when built by a runner).
    runs: "dict[tuple[str, str], RunResult]" = field(default_factory=dict)

    def add(self, bench_id: str, variant: str, run: RunResult) -> None:
        """Insert one cell."""
        self.runs[(bench_id, variant)] = run

    def get(self, bench_id: str, variant: str) -> RunResult:
        """Fetch one cell or raise."""
        try:
            return self.runs[(bench_id, variant)]
        except KeyError:
            raise AnalysisError(
                f"no sweep result for {bench_id!r} variant {variant!r}"
            ) from None

    def benches(self) -> list[str]:
        """The grid's benchmark order (declared when available, else
        first-occurrence order of the cells present)."""
        if self.bench_ids:
            return list(self.bench_ids)
        out: list[str] = []
        for bench_id, _ in self.runs:
            if bench_id not in out:
                out.append(bench_id)
        return out

    def variants(self) -> list[str]:
        """Variant labels present, first-occurrence order."""
        out: list[str] = []
        for _, variant in self.runs:
            if variant not in out:
                out.append(variant)
        return out

    def merge(self, other: "SweepResult") -> None:
        """Fold another sweep's cells into this one.

        The shard recombination step: run the same spec under
        ``shard=(1, N) .. (N, N)``, then merge the outputs to
        reconstitute the full grid.  Axis metadata must agree — merging
        results of different specs would produce tables that silently
        mix grids.

        Cells are re-ordered into canonical grid order (benchmark-major,
        variants in declaration order) so that merging a complete set of
        shards serialises byte-identically to an unsharded run,
        regardless of how the round-robin partition interleaved them.
        """
        if (
            other.axes != self.axes
            or other.variant_values != self.variant_values
            or other.bench_ids != self.bench_ids
        ):
            raise AnalysisError(
                "cannot merge sweep results from different specs "
                f"(axes {list(self.axes)} vs {list(other.axes)})"
            )
        combined = dict(self.runs)
        combined.update(other.runs)
        bench_order = self.benches()
        for bench_id in other.benches():
            if bench_id not in bench_order:
                bench_order.append(bench_id)
        variant_order = list(self.variant_values) or list(
            dict.fromkeys(self.variants() + other.variants())
        )
        self.runs = {
            (bench_id, variant): combined[(bench_id, variant)]
            for bench_id in bench_order
            for variant in variant_order
            if (bench_id, variant) in combined
        }

    # ------------------------------------------------------------------
    # Serialisation

    def to_json_dict(self) -> dict:
        """Plain-JSON representation (cells as an ordered list, since
        tuple keys don't survive JSON)."""
        return {
            "axes": {name: list(vals) for name, vals in self.axes.items()},
            "variants": {
                label: dict(vals) for label, vals in self.variant_values.items()
            },
            "benches": list(self.bench_ids),
            "cells": [
                {"bench_id": bid, "variant": var, "run": run.to_json_dict()}
                for (bid, var), run in self.runs.items()
            ],
        }

    @classmethod
    def from_json_dict(cls, raw: dict) -> "SweepResult":
        """Inverse of :meth:`to_json_dict`."""
        out = cls(
            axes={name: list(vals) for name, vals in raw["axes"].items()},
            variant_values={
                label: dict(vals) for label, vals in raw["variants"].items()
            },
            bench_ids=list(raw.get("benches", [])),
        )
        for cell in raw["cells"]:
            out.add(
                cell["bench_id"],
                cell["variant"],
                RunResult.from_json_dict(cell["run"]),
            )
        return out

    def save(self, path: str) -> None:
        """Write the sweep to a JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path: str) -> "SweepResult":
        """Read a sweep back from :meth:`save` output."""
        return load_json_file(path, "sweep result", cls.from_json_dict)


#: Sweep progress callback: ``(point, elapsed_seconds, result)`` with
#: ``elapsed=None`` for cache hits, mirroring the suite-level convention.
SweepProgress = Callable[[SweepPoint, "float | None", RunResult], None]


class MaterializingReducer(Reducer):
    """The reducer that rebuilds today's :class:`SweepResult`.

    Materialisation is just one reduction among several: this one keeps
    every cell (so it is O(grid) memory, exactly as before the reducer
    seam existed), while a fleet's :class:`~repro.core.stats.SketchSet`
    reduction keeps O(metrics).  Cells arrive in completion order —
    cache hits first, or an async pool racing ahead — and :meth:`finish`
    re-emits them in canonical grid order, so the resulting JSON is
    byte-identical to the historical non-streamed output whatever order
    execution took.
    """

    def __init__(
        self,
        spec: SweepSpec,
        variants: "list[tuple[str, dict[str, object], RunConfig]]",
        points: "Sequence[SweepPoint]",
        owned: "Sequence[SweepPoint]",
    ) -> None:
        self._spec = spec
        self._variants = variants
        self._points = points
        self._owned = owned
        self._runs: "dict[tuple[str, str], RunResult]" = {}

    def consume(self, unit: SweepPoint, run: RunResult) -> None:
        self._runs[(unit.bench_id, unit.variant)] = run

    def finish(self) -> SweepResult:
        out = SweepResult(
            axes={
                axis.name: list(axis.values) for axis in self._spec.axes
            },
            variant_values={
                label: dict(values) for label, values, _ in self._variants
            },
            bench_ids=list(
                dict.fromkeys(p.bench_id for p in self._points)
            ),
        )
        for point in self._owned:
            out.add(
                point.bench_id,
                point.variant,
                self._runs[(point.bench_id, point.variant)],
            )
        return out


class SweepRunner:
    """Expands a :class:`SweepSpec` and executes it as one flat batch.

    The grid is flattened before execution, so the backend sees a single
    heterogeneous batch: the pool keeps all workers busy across configs,
    and a *shard* ``(k, n)`` partitions *points* (not benchmarks).  A
    :class:`~repro.core.results.ResultCache` is consulted per point with
    exactly the keying suite runs use, so sweep cells and suite runs
    share cached results both ways.  The backend pulls the flattened
    grid lazily, so per-point cache lookups and result writes overlap
    points still simulating — without changing the result bytes.

    The run is three separable stages — :meth:`plan` (grid expansion and
    shard ownership), :meth:`execute` (cache-aware execution feeding
    an optional streaming :class:`~repro.core.runner.Reducer`), and
    reduction (the reducer's ``finish``).  :meth:`run` wires them with a
    :class:`MaterializingReducer` for the classic full-grid result;
    :meth:`run_reduced` wires any other reducer with per-run retention
    off, which is the fleet-scale O(metrics) path.
    """

    def __init__(
        self,
        backend: "ExecutionBackend | None" = None,
        cache: ResultCache | None = None,
        shard: "tuple[int, int] | None" = None,
    ) -> None:
        from repro.core.backends import SerialBackend

        self.backend = backend if backend is not None else SerialBackend()
        self.cache = cache
        self.shard = shard

    # ------------------------------------------------------------------
    # Stage 1: plan

    def plan(
        self, spec: SweepSpec
    ) -> "tuple[list[tuple[str, dict[str, object], RunConfig]], list[SweepPoint], list[SweepPoint]]":
        """Expand the grid and settle ownership.

        Returns ``(variants, points, owned)``: the variant table, the
        full canonical grid, and this runner's shard of it (the full
        grid unless *shard* is set).  Planning happens before cache
        filtering, so shard partitions never shift with cache contents.
        """
        variants = spec.variants()
        points = spec.expand(variants)
        owned = points
        if self.shard is not None:
            owned = list(shard_ids(points, *self.shard))
        return variants, points, owned

    # ------------------------------------------------------------------
    # Stage 2: execute

    def execute(
        self,
        owned: "Sequence[SweepPoint]",
        progress: SweepProgress | None = None,
        reducer: Reducer | None = None,
        retain_results: bool = True,
    ) -> "list[RunResult] | None":
        """Execute owned points (cache hits skip simulation).

        Returns one result per point in *owned* order.  Progress and
        reducer callbacks fire as units complete.  With *retain_results*
        off, returns ``None`` and holds no reference to any result once
        the reducer has consumed it.
        """
        return execute_with_cache(
            self.backend,
            self.cache,
            [(point.bench_id, point.config) for point in owned],
            labels=[point.label for point in owned],
            units=owned,
            progress=progress,
            reducer=reducer,
            retain_results=retain_results,
        )

    # ------------------------------------------------------------------
    # Stage 3: reduce (wired end-to-end)

    def run(
        self, spec: SweepSpec, progress: SweepProgress | None = None
    ) -> SweepResult:
        """Execute every grid cell into a materialised :class:`SweepResult`."""
        variants, points, owned = self.plan(spec)
        reducer = MaterializingReducer(spec, variants, points, owned)
        self.execute(
            owned, progress=progress, reducer=reducer, retain_results=False
        )
        return reducer.finish()

    def run_reduced(
        self,
        spec: SweepSpec,
        reducer: Reducer,
        progress: SweepProgress | None = None,
    ):
        """Execute the grid through *reducer* without materialising.

        The streaming-aggregation path: no :class:`SweepResult`, no
        per-cell retention — whatever the reducer's ``finish`` returns
        is the run's entire output.
        """
        _variants, _points, owned = self.plan(spec)
        self.execute(
            owned, progress=progress, reducer=reducer, retain_results=False
        )
        return reducer.finish()
