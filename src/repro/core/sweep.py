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
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    TextIO,
)

from repro.calibration import Calibration, calibration_preset, profile_cpu_count
from repro.core.backends.sharded import shard_ids
from repro.core.results import (
    ResultCache,
    RunResult,
    atomic_file,
    load_json_file,
)
from repro.core.runner import RunConfig, dedup_ids, execute_with_cache
from repro.core.suite import get_benchmark
from repro.errors import AnalysisError, ConfigError
from repro.faults.plan import fault_plan

if TYPE_CHECKING:
    from repro.core.backends import ExecutionBackend

#: The fault-plan axis, which the fault report pivots on.
AXIS_FAULTS = "faults"


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


def positive_finite(value: object) -> bool:
    """Whether *value* is an int or float in ``(0, inf)`` (a bool is
    never a number)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 < value < math.inf
    )


def with_calibration(cfg: RunConfig, cal: Calibration) -> RunConfig:
    """*cfg* running *cal*.  The fitted default becomes ``None``, so the
    config shares its cache key with runs that never set a calibration."""
    return replace(cfg, calibration=None if cal == Calibration() else cal)


class AxisKind(NamedTuple):
    """What one axis name means: how a CLI value parses (raising
    ``ValueError`` on bad text, as ``float`` does) and how a value sets
    a config."""

    parse: Callable[[str], object]
    apply: Callable[[RunConfig, object], RunConfig]


def _number(raw: str) -> "int | float":
    """An int when the text is one exactly, else a float."""
    try:
        return int(raw)
    except ValueError:
        return float(raw)


_ON_OFF = {"on": True, "true": True, "1": True,
           "off": False, "false": False, "0": False}


def _on_off(raw: str) -> bool:
    try:
        return _ON_OFF[raw.lower()]
    except KeyError:
        raise ValueError("expected on/off") from None


def _none_or_name(raw: str) -> "str | None":
    return None if raw.lower() == "none" else raw


def _scale_window(cfg: RunConfig, factor: object) -> RunConfig:
    # RunConfig.scaled clamps a tiny window to one tick instead of
    # rejecting it, and an infinite one cannot become ticks.
    if not (positive_finite(factor) and cfg.duration_ticks * factor < math.inf):
        raise ConfigError(
            f"duration axis values must be positive finite factors, "
            f"got {factor!r}"
        )
    return cfg.scaled(factor)


def _set_profile(cfg: RunConfig, profile: "str | None") -> RunConfig:
    if profile is None:
        return replace(cfg, cpu_profile=None)
    # A profile pins the core count too: "2+2" is a 4-core machine
    # whatever the base config said.
    return replace(cfg, cpu_profile=profile, cpus=profile_cpu_count(profile))


def _set_faults(cfg: RunConfig, plan: "str | None") -> RunConfig:
    # ``none`` IS the default: the baseline cell keeps the exact cache
    # key (and bytes) an unswept run of the config has.
    return replace(cfg, faults=None if plan is None else fault_plan(plan))


def _set_cal_field(name: str) -> "Callable[[RunConfig, object], RunConfig]":
    def apply(cfg: RunConfig, value: object) -> RunConfig:
        # Refines the config's calibration (or the default) and never
        # canonicalises to None: cache keys depend on that.
        cal = cfg.calibration if cfg.calibration is not None else Calibration()
        return replace(cfg, calibration=replace(cal, **{name: value}))

    return apply


#: Every sweep axis by name.  The values are checked where they land:
#: by :class:`RunConfig`, :class:`~repro.calibration.Calibration` and the
#: preset, profile and fault-plan registries.
AXES: "dict[str, AxisKind]" = {
    "seed": AxisKind(_number, lambda cfg, v: replace(cfg, seed=v)),
    "jit": AxisKind(_on_off, lambda cfg, v: replace(cfg, jit_enabled=v)),
    "duration": AxisKind(_number, _scale_window),
    "cpus": AxisKind(_number, lambda cfg, v: replace(cfg, cpus=v)),
    "cpu_profile": AxisKind(_none_or_name, _set_profile),
    "cal.preset": AxisKind(
        str, lambda cfg, v: with_calibration(cfg, calibration_preset(v))
    ),
    AXIS_FAULTS: AxisKind(_none_or_name, _set_faults),
    **{
        f"cal.{f.name}": AxisKind(_number, _set_cal_field(f.name))
        for f in fields(Calibration)
    },
}


def _axis_kind(name: str) -> AxisKind:
    try:
        return AXES[name]
    except KeyError:
        raise ConfigError(
            f"unknown axis {name!r}; known: {', '.join(AXES)}"
        ) from None


@dataclass(frozen=True)
class SweepAxis:
    """One swept dimension: an axis name plus its ordered values.

    Names, from :data:`AXES`:

    - ``seed`` — integer base seeds.
    - ``jit`` — booleans (CLI spelling ``on``/``off``).
    - ``duration`` — positive finite factors applied to the base window.
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
    - ``cal.<field>`` — overrides of one
      :class:`~repro.calibration.Calibration` field.
    - ``faults`` — named fault plans from
      :data:`~repro.faults.plan.FAULT_PLANS`, or ``None`` (CLI spelling
      ``none``) for the fault-free baseline cell.

    Each value is checked by applying it to ``RunConfig()``, so it
    obeys the config's own rules (``cal.jit_hot_threshold`` takes an
    int, ``cpus`` an int >= 1); only ``duration`` has a rule of its
    own, because :meth:`RunConfig.scaled` clamps instead of rejecting.
    A bad value is a :class:`ConfigError`.
    """

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError(f"axis {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise ConfigError(f"axis {self.name!r} repeats a value")
        apply = _axis_kind(self.name).apply
        for value in self.values:
            apply(RunConfig(), value)

    def apply(self, cfg: RunConfig, value: object) -> RunConfig:
        """A config with this axis set to *value*."""
        return AXES[self.name].apply(cfg, value)


def parse_axis(text: str) -> SweepAxis:
    """Parse a CLI ``name=v1,v2,...`` axis spec.

    ``jit`` accepts ``on/off/true/false``; ``seed``, ``cpus``,
    ``duration`` and ``cal.<field>`` parse numbers (int kept when
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
    parse = _axis_kind(name).parse
    parsed = []
    for raw in raw_values:
        try:
            parsed.append(parse(raw))
        except ValueError as exc:
            raise ConfigError(f"bad {name} value {raw!r}: {exc}") from None
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

    def _header(self) -> dict:
        """Every key of :meth:`to_json_dict` but the trailing ``cells``."""
        return {
            "axes": {name: list(vals) for name, vals in self.axes.items()},
            "variants": {
                label: dict(vals) for label, vals in self.variant_values.items()
            },
            "benches": list(self.bench_ids),
        }

    def to_json_dict(self) -> dict:
        """Plain-JSON representation (cells as an ordered list, since
        tuple keys don't survive JSON)."""
        return {
            **self._header(),
            "cells": [
                _cell_json(bench_id, variant, run)
                for (bench_id, variant), run in self.runs.items()
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
        """Write the sweep to a JSON file through :func:`write_sweep`,
        encoding one cell at a time."""
        with write_sweep(path, self, self.runs) as writer:
            for (bench_id, variant), run in self.runs.items():
                writer.add(bench_id, variant, run)

    @classmethod
    def load(cls, path: str) -> "SweepResult":
        """Read a sweep back from :meth:`save` output."""
        return load_json_file(path, "sweep result", cls.from_json_dict)


def _cell_json(bench_id: str, variant: str, run: RunResult) -> dict:
    return {"bench_id": bench_id, "variant": variant, "run": run.to_json_dict()}


class SweepWriter:
    """Writes a sweep file's cells as they are reported, in grid order.

    Built on an open file, it writes the header of *grid* (a
    :class:`SweepResult`, whose cells it ignores) at once.  :meth:`add`
    encodes a cell and appends it; each cell must be the next of *keys*
    (the ``(bench_id, variant)`` cells the file holds, in grid order),
    which is the order :func:`~repro.core.runner.execute_with_cache`
    reports them in.  So the writer holds no cell in memory, and the file
    holds the bytes ``json.dump`` writes for
    :meth:`SweepResult.to_json_dict` of the same cells.
    """

    def __init__(
        self,
        fh: TextIO,
        grid: SweepResult,
        keys: "Iterable[tuple[str, str]]",
    ) -> None:
        self._fh = fh
        self._keys = list(keys)
        self._written = 0
        # The header's closing brace gives way to the cells list.
        fh.write(json.dumps(grid._header())[:-1] + ', "cells": [')

    def add(self, bench_id: str, variant: str, run: RunResult) -> None:
        """Encode one cell and append it, if it is the next in grid order."""
        keys, written = self._keys, self._written
        if written == len(keys) or keys[written] != (bench_id, variant):
            raise AnalysisError(
                f"sweep cell {bench_id}[{variant}] is not the next of the "
                f"file's {len(keys)} cells in grid order ({written} written)"
            )
        if written:
            self._fh.write(", ")
        self._fh.write(json.dumps(_cell_json(bench_id, variant, run)))
        self._written += 1

    def close(self) -> None:
        """Close the cells list, once every cell has been written."""
        if self._written != len(self._keys):
            raise AnalysisError(
                f"sweep file got {self._written} of its "
                f"{len(self._keys)} cells in grid order"
            )
        self._fh.write("]}")


@contextlib.contextmanager
def write_sweep(
    path: str, grid: SweepResult, keys: "Iterable[tuple[str, str]]"
) -> "Iterator[SweepWriter]":
    """A :class:`SweepWriter` for the file *path*, published atomically.

    Entering checks *path* and writes the header (an unwritable path is
    a :class:`~repro.errors.ConfigError` before the block runs); the
    file appears when the block completes with every cell of *keys*
    added, and not at all if it raises.
    """
    with atomic_file(path) as fh:
        writer = SweepWriter(fh, grid, keys)
        yield writer
        writer.close()


#: Sweep progress callback: ``(point, elapsed_seconds, result)`` with
#: ``elapsed=None`` for cache hits, mirroring the suite-level convention.
SweepProgress = Callable[[SweepPoint, "float | None", RunResult], None]


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

    :meth:`plan` expands the grid and settles shard ownership;
    :meth:`run` streams the owned points through
    :func:`~repro.core.runner.execute_with_cache` and folds each result
    into a :class:`SweepResult` as it arrives.  A caller that wants
    another reduction passes the planned points to ``execute_with_cache``
    with its own callback, as ``repro sweep`` does to write its file
    through :func:`write_sweep` without holding the runs.
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

    def plan(
        self, spec: SweepSpec
    ) -> "tuple[SweepResult, list[SweepPoint], list[SweepPoint]]":
        """Expand the grid and settle ownership.

        Returns ``(grid, points, owned)``: the grid's :class:`SweepResult`
        with no cells yet (its axes, variants and benchmark order), the
        full canonical grid of points, and this runner's shard of it (the
        full grid unless *shard* is set).  Planning happens before cache
        filtering, so shard partitions never shift with cache contents.
        """
        variants = spec.variants()
        points = spec.expand(variants)
        owned = points
        if self.shard is not None:
            owned = list(shard_ids(points, *self.shard))
        grid = SweepResult(
            axes={axis.name: list(axis.values) for axis in spec.axes},
            variant_values={
                label: dict(values) for label, values, _ in variants
            },
            bench_ids=list(dict.fromkeys(p.bench_id for p in points)),
        )
        return grid, points, owned

    def run(
        self, spec: SweepSpec, progress: SweepProgress | None = None
    ) -> SweepResult:
        """Execute every owned grid cell into a :class:`SweepResult`.

        Cells arrive in canonical grid order whatever the backend, cache
        state or job count, and each is added as it arrives, so the
        result's bytes do not depend on the order execution took.
        """
        out, _points, owned = self.plan(spec)

        def on_done(
            point: SweepPoint, elapsed: "float | None", run: RunResult
        ) -> None:
            out.add(point.bench_id, point.variant, run)
            if progress is not None:
                progress(point, elapsed, run)

        execute_with_cache(self.backend, self.cache, owned, on_done)
        return out
