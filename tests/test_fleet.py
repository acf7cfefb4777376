"""Fleet-scale Monte-Carlo: sampling, streaming reduction, shard merge.

The contract under test: a fleet is a pure function of its spec (two
shards agree on every device before partitioning), the streaming
reduction produces exactly the statistics a materialised run would,
on the serial and pool backends, cold and warm caches, and sharded runs
merge into the bytes of the unsharded run.  The fleet path retains no per-device
RunResult — aggregation memory is O(metrics).
"""

from __future__ import annotations

import gc
import json
import math
import weakref

import pytest

from repro.core import (
    AsyncBackend,
    FleetResult,
    FleetSpec,
    ProgressMeter,
    ResultCache,
    RunConfig,
    SerialBackend,
    SketchSet,
    SweepAxis,
    SweepRunner,
    SweepSpec,
    run_fleet,
)
from repro.core.fleet import DeviceProfile, FleetUnit, parse_mix
from repro.core.runner import execute_with_cache
from repro.errors import AnalysisError, ConfigError, WorkloadError
from repro.sim.ticks import millis

FAST = RunConfig(duration_ticks=millis(300), settle_ticks=millis(150))

#: A small-but-mixed population: two cheap benches, two presets, a seed
#: pool kept tiny so units dedup heavily and the suite stays fast.
SPEC = FleetSpec(
    devices=24,
    seed=7,
    bench_mix=(("countdown.main", 2.0), ("999.specrand", 1.0)),
    preset_mix=(("baseline", 2.0), ("lowend", 1.0)),
    scale_mix=((1.0, 2.0), (1.2, 1.0)),
    base=FAST,
)


def _fleet_json(result: FleetResult) -> str:
    return json.dumps(result.to_json_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# (a) Spec parsing + validation


class TestFleetSpec:
    def test_sampling_is_deterministic(self):
        assert SPEC.sample() == SPEC.sample()

    def test_seed_changes_the_fleet(self):
        other = FleetSpec(
            devices=SPEC.devices,
            seed=SPEC.seed + 1,
            bench_mix=SPEC.bench_mix,
            preset_mix=SPEC.preset_mix,
            scale_mix=SPEC.scale_mix,
            base=FAST,
        )
        assert other.sample() != SPEC.sample()
        assert other.digest() != SPEC.digest()

    def test_units_partition_devices_exactly_once(self):
        fleet = SPEC.sample()
        units = SPEC.units(fleet)
        seen = [d for unit in units for d in unit.device_ids]
        assert sorted(seen) == list(range(SPEC.devices))
        # The seed pool bounds diversity: devices collapse into far
        # fewer unique units than the raw population size.
        assert len(units) < SPEC.devices

    def test_population_census_sums_to_devices(self):
        population = SPEC.population()
        for table in ("bench", "profile", "preset", "scale"):
            assert sum(population[table].values()) == SPEC.devices

    def test_default_mixes(self):
        spec = FleetSpec(devices=3)
        benches = [b for b, _ in spec.effective_bench_mix()]
        assert "music.mp3.view" in benches and len(benches) == 19
        assert len(spec.effective_seed_choices()) == 8

    def test_profile_mix_sets_cores(self):
        spec = FleetSpec(
            devices=16,
            seed=3,
            profile_mix=(("2+2", 1.0),),
            base=FAST,
        )
        for device in spec.sample():
            assert device.config.cpu_profile == "2+2"
            assert device.config.cpus == 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            FleetSpec(devices=0)
        with pytest.raises(ConfigError):
            FleetSpec(devices=1, preset_mix=(("nope", 1.0),))
        with pytest.raises(ConfigError):
            FleetSpec(devices=1, profile_mix=(("7", 1.0),))
        with pytest.raises(ConfigError):
            FleetSpec(devices=1, scale_mix=((-1.0, 1.0),))
        with pytest.raises(ConfigError):
            FleetSpec(devices=1, preset_mix=(("baseline", 0.0),))
        with pytest.raises(WorkloadError):
            FleetSpec(devices=1, bench_mix=(("no.such.bench", 1.0),))
        with pytest.raises(ConfigError):
            FleetSpec(devices=1, capacity=0)

    @pytest.mark.parametrize("value", (2.5, True))
    @pytest.mark.parametrize("name", ("devices", "seed", "capacity"))
    def test_counts_are_ints(self, name, value):
        """``devices=2.5`` used to raise a bare TypeError when sampled,
        and ``devices=True`` sampled one device."""
        with pytest.raises(ConfigError, match=f"fleet field {name} must be"):
            FleetSpec(**{"devices": 4, name: value})

    @pytest.mark.parametrize("weight", (math.nan, math.inf, True))
    def test_mix_weights_are_positive_finite_numbers(self, weight):
        """A NaN or infinite weight used to pass: ``_pick``'s cumulative
        scan never passes it, so ``none=nan,2+2=1`` put every device on
        2+2."""
        with pytest.raises(ConfigError, match="profile mix weights"):
            FleetSpec(devices=8, profile_mix=((None, weight), ("2+2", 1.0)))

    def test_parse_mix(self):
        assert parse_mix("a=2,b=1") == (("a", 2.0), ("b", 1.0))
        assert parse_mix("a,b") == (("a", 1.0), ("b", 1.0))
        assert parse_mix("1=3,1.5=1", float) == ((1.0, 3.0), (1.5, 1.0))
        with pytest.raises(ConfigError):
            parse_mix("")
        with pytest.raises(ConfigError):
            parse_mix("a=x")
        with pytest.raises(ConfigError):
            parse_mix("x=1", float)     # was a bare ValueError


# ----------------------------------------------------------------------
# (b) Backend equivalence + shard merge (the streaming contract)


class TestFleetExecution:
    @pytest.fixture(scope="class")
    def serial_result(self) -> FleetResult:
        return run_fleet(SPEC, SerialBackend())

    def test_complete_and_counted(self, serial_result):
        assert serial_result.complete
        assert serial_result.devices_done == SPEC.devices
        assert serial_result.sketches["total_refs"].count == SPEC.devices

    def test_pool_matches_serial_bytes(self, serial_result):
        result = run_fleet(SPEC, AsyncBackend(jobs=2))
        assert _fleet_json(result) == _fleet_json(serial_result)

    def test_merged_shards_equal_unsharded(self, serial_result):
        one = run_fleet(SPEC, shard=(1, 2))
        two = run_fleet(SPEC, AsyncBackend(jobs=2), shard=(2, 2))
        assert not one.complete and not two.complete
        assert one.devices_done + two.devices_done == SPEC.devices
        one.merge(two)
        assert one.complete
        assert _fleet_json(one) == _fleet_json(serial_result)

    def test_merge_order_does_not_matter(self, serial_result):
        a1, a2 = run_fleet(SPEC, shard=(1, 2)), run_fleet(SPEC, shard=(2, 2))
        b1, b2 = run_fleet(SPEC, shard=(1, 2)), run_fleet(SPEC, shard=(2, 2))
        a1.merge(a2)
        b2.merge(b1)
        assert _fleet_json(a1) == _fleet_json(b2)

    def test_merge_rejects_different_specs(self, serial_result):
        other = FleetSpec(devices=4, seed=99, base=FAST,
                          bench_mix=(("countdown.main", 1.0),))
        with pytest.raises(AnalysisError):
            serial_result.merge(run_fleet(other, SerialBackend()))

    def test_warm_cache_matches_cold_bytes(self, serial_result, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cold = run_fleet(SPEC, SerialBackend(), cache=cache)
        warm = run_fleet(SPEC, SerialBackend(), cache=cache)
        assert cache.hits > 0
        assert _fleet_json(cold) == _fleet_json(serial_result)
        assert _fleet_json(warm) == _fleet_json(serial_result)

    def test_result_json_roundtrip(self, serial_result, tmp_path):
        path = str(tmp_path / "fleet.json")
        serial_result.save(path)
        back = FleetResult.load(path)
        assert _fleet_json(back) == _fleet_json(serial_result)


# ----------------------------------------------------------------------
# (c) Differential: a streaming fold vs the materialised SweepResult


def _sketch_sweep(runner: SweepRunner) -> SketchSet:
    """Fold the runner's planned points into sketches through the one
    completion callback, unit-keyed by cell label."""
    sketches = SketchSet(
        {"total_refs": lambda run: float(run.total_refs)}, capacity=64
    )
    _variants, _points, owned = runner.plan(_sweep_spec())
    execute_with_cache(
        runner.backend,
        runner.cache,
        owned,
        lambda point, elapsed, run: sketches.observe(point.label, run),
    )
    return sketches


def _sweep_spec() -> SweepSpec:
    return SweepSpec(
        benches=("countdown.main", "999.specrand"),
        axes=(SweepAxis("seed", (1, 2, 3)),),
        base=FAST,
    )


def _sketch_of(result) -> SketchSet:
    """The reference reduction: fold the *materialised* grid."""
    sketches = SketchSet(
        {"total_refs": lambda run: float(run.total_refs)}, capacity=64
    )
    for (bench_id, variant), run in result.runs.items():
        sketches.observe(f"{bench_id}[{variant}]", run)
    return sketches


class TestStreamingVsMaterialized:
    @pytest.fixture(scope="class")
    def materialized(self):
        return SweepRunner(SerialBackend()).run(_sweep_spec())

    @pytest.mark.parametrize(
        "make_backend_under_test",
        [SerialBackend, lambda: AsyncBackend(jobs=2)],
        ids=["serial", "pool"],
    )
    def test_reducer_matches_materialized(
        self, materialized, make_backend_under_test
    ):
        sketches = _sketch_sweep(SweepRunner(make_backend_under_test()))
        assert json.dumps(sketches.to_json_dict(), sort_keys=True) == \
            json.dumps(_sketch_of(materialized).to_json_dict(), sort_keys=True)

    def test_sharded_reducers_merge_to_materialized(self, materialized):
        parts = [_sketch_sweep(SweepRunner(shard=(k, 2))) for k in (1, 2)]
        parts[0].merge(parts[1])
        assert json.dumps(parts[0].to_json_dict(), sort_keys=True) == \
            json.dumps(_sketch_of(materialized).to_json_dict(), sort_keys=True)

    def test_reducer_matches_on_warm_cache(self, materialized, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        SweepRunner(SerialBackend(), cache=cache).run(_sweep_spec())
        sketches = _sketch_sweep(SweepRunner(SerialBackend(), cache=cache))
        assert cache.hits > 0
        assert json.dumps(sketches.to_json_dict(), sort_keys=True) == \
            json.dumps(_sketch_of(materialized).to_json_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# (d) O(metrics) memory: nothing per-run survives the stream


@pytest.mark.parametrize(
    "make_backend_under_test",
    [SerialBackend, lambda: AsyncBackend(jobs=2)],
    ids=["serial", "pool"],
)
def test_no_retention_path_holds_no_results(make_backend_under_test):
    spec = FleetSpec(
        devices=6,
        seed=3,
        bench_mix=(("countdown.main", 1.0),),
        base=FAST,
    )
    units = spec.units()
    # The callback keeps only weak references to the runs it is handed.
    refs: "list[weakref.ref]" = []
    returned = execute_with_cache(
        make_backend_under_test(),
        None,
        units,
        lambda unit, elapsed, run: refs.append(weakref.ref(run)),
    )
    assert returned is None
    assert len(refs) == len(units)
    gc.collect()
    assert all(ref() is None for ref in refs)


# ----------------------------------------------------------------------
# (e) Progress meter


class TestProgressMeter:
    def test_periodic_lines_with_rate_and_eta(self):
        ticks = iter(range(100))
        lines: "list[str]" = []
        meter = ProgressMeter(
            total=5, every=2, clock=lambda: float(next(ticks)),
            write=lines.append,
        )
        for _ in range(5):
            meter(None, 0.1, None)
        # Fires at 2, 4 (every K) and 5 (the last unit).
        assert len(lines) == 3
        assert "2/5" in lines[0] and "(40%)" in lines[0]
        assert "5/5" in lines[2] and "(100%)" in lines[2]
        assert all("units/s" in line and "eta" in line for line in lines)

    def test_interval_validated(self):
        with pytest.raises(ConfigError):
            ProgressMeter(total=5, every=0)

    def test_zero_elapsed_first_tick_renders_placeholders(self):
        # A fast first batch on a coarse clock: every tick reads the
        # same instant, so elapsed is exactly zero.  The meter used to
        # divide into a near-zero wall (absurd rates, inf-shaped ETAs);
        # now it renders placeholders until time actually passes.
        lines: "list[str]" = []
        meter = ProgressMeter(
            total=4, every=2, clock=lambda: 5.0, write=lines.append
        )
        for _ in range(4):
            meter(None, 0.0, None)
        assert len(lines) == 2
        assert "2/4" in lines[0] and "4/4" in lines[1]
        for line in lines:
            assert "-- units/s" in line and "eta --" in line
            assert "inf" not in line

    def test_rate_resumes_once_clock_advances(self):
        times = iter([0.0, 0.0, 2.0])  # start, first flush, second flush
        lines: "list[str]" = []
        meter = ProgressMeter(
            total=4, every=2, clock=lambda: next(times), write=lines.append
        )
        for _ in range(4):
            meter(None, 0.0, None)
        assert "-- units/s" in lines[0]
        assert "2.0 units/s" in lines[1] and "eta 0s" in lines[1]


# ----------------------------------------------------------------------
# (f) CLI


class TestFleetCli:
    def test_fleet_command_runs_and_saves(self, tmp_path, capsys):
        from repro.__main__ import main

        out = str(tmp_path / "fleet.json")
        code = main([
            "--duration", "0.3", "--settle-ms", "150",
            "fleet", "--devices", "6",
            "--bench-mix", "countdown.main=1",
            "--out", out,
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Fleet of 6 devices" in printed
        assert "total_refs" in printed
        assert FleetResult.load(out).complete

    def test_fleet_merge_command(self, tmp_path, capsys):
        from repro.__main__ import main

        shard_args = [
            "--duration", "0.3", "--settle-ms", "150",
            "fleet", "--devices", "6",
            "--bench-mix", "countdown.main=1",
        ]
        s1, s2 = str(tmp_path / "s1.json"), str(tmp_path / "s2.json")
        assert main(shard_args + ["--shard", "1/2", "--out", s1]) == 0
        assert main(shard_args + ["--shard", "2/2", "--out", s2]) == 0
        capsys.readouterr()
        assert main(["fleet", "--merge", s1, s2]) == 0
        printed = capsys.readouterr().out
        assert "Fleet of 6 devices" in printed
        assert "NOTE: partial" not in printed

    @pytest.mark.parametrize("shard", ([], ["--shard", "2/2"]),
                             ids=("unsharded", "sharded"))
    def test_progress_samples_the_fleet_once(
        self, shard, monkeypatch, capsys
    ):
        """``--progress`` sizes its meter from the plan ``run_fleet``
        already made, instead of sampling and deduplicating the whole
        fleet a second time."""
        from repro.__main__ import main

        calls = []
        sample = FleetSpec.sample

        def counted(spec):
            calls.append(spec.devices)
            return sample(spec)

        monkeypatch.setattr(FleetSpec, "sample", counted)
        assert main([
            "--duration", "0.3", "--settle-ms", "150",
            "fleet", "--devices", "6", "--bench-mix", "countdown.main=1",
            "--progress", "--progress-every", "1", *shard,
        ]) == 0
        assert calls == [6]
        units = FleetSpec(devices=6, bench_mix=(("countdown.main", 1.0),)).units()
        owned = len(units[1::2]) if shard else len(units)
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("fleet: ")]
        assert len(lines) == owned
        assert lines[-1].startswith(f"fleet: {owned}/{owned} units (100%)")

    def test_fleet_needs_devices(self, capsys):
        from repro.__main__ import main

        assert main(["fleet"]) == 2
        assert "needs --devices" in capsys.readouterr().err
