"""The pluggable execution-backend subsystem.

The contract under test: a run is a pure function of (bench id, config),
so both backends — serial and the async pool, at any job count, over any
shard split — produce byte-identical results, and the content-addressed
cache can stand in for either of them.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import sys
import threading
from dataclasses import replace

import pytest

from repro.calibration import Calibration
from repro.core import (
    FIGURE_ORDER,
    QUICK_CONFIG,
    AsyncBackend,
    BackendError,
    FleetSpec,
    ResultCache,
    RunConfig,
    SuiteRunner,
    SerialBackend,
    SweepAxis,
    SweepRunner,
    SweepSpec,
    make_backend,
    parse_shard,
    run_fleet,
    shard_ids,
)
from repro.core.backends.async_ import INFLIGHT_PER_JOB
from repro.core.results import RunResult
from repro.core.runner import SuiteUnit, execute_one, execute_with_cache
from repro.errors import ConfigError, WorkloadError
from repro.sim.ticks import millis, seconds

SUBSET = ["countdown.main", "music.mp3.view", "401.bzip2", "999.specrand"]


def _suite_json(suite) -> str:
    """Normalised JSON for whole-suite comparison."""
    return json.dumps(
        {bid: run.to_json_dict() for bid, run in suite.runs.items()},
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# (a) Backend equivalence


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def serial_json(self) -> str:
        return _suite_json(
            SuiteRunner(QUICK_CONFIG, backend=SerialBackend()).run_suite(SUBSET)
        )

    @pytest.mark.parametrize("jobs", (1, 2, 3))
    def test_pool_matches_serial_bytes_at_every_job_count(
        self, jobs, serial_json
    ):
        pool = SuiteRunner(QUICK_CONFIG, backend=AsyncBackend(jobs=jobs))
        suite = pool.run_suite(SUBSET)
        assert suite.ids() == SUBSET                  # submission order
        assert _suite_json(suite) == serial_json

    def test_progress_fires_per_run_under_both_backends(self):
        for backend in (SerialBackend(), AsyncBackend(jobs=2)):
            seen = []
            runner = SuiteRunner(QUICK_CONFIG, backend=backend)
            runner.run_suite(
                SUBSET[:2],
                progress=lambda bid, secs, res: seen.append((bid, secs, res)),
            )
            assert sorted(bid for bid, _, _ in seen) == sorted(SUBSET[:2])
            assert all(secs > 0 for _, secs, _ in seen)
            assert all(res.total_refs > 0 for _, _, res in seen)


# ----------------------------------------------------------------------
# (b) Sharding


class TestSharding:
    def test_shards_exactly_partition_figure_order(self):
        first = shard_ids(FIGURE_ORDER, 1, 2)
        second = shard_ids(FIGURE_ORDER, 2, 2)
        assert set(first) | set(second) == set(FIGURE_ORDER)
        assert not set(first) & set(second)
        assert len(first) + len(second) == len(FIGURE_ORDER)

    def test_shards_preserve_figure_order_within_shard(self):
        for k in (1, 2, 3):
            owned = shard_ids(FIGURE_ORDER, k, 3)
            positions = [FIGURE_ORDER.index(i) for i in owned]
            assert positions == sorted(positions)

    def test_single_shard_is_the_whole_suite(self):
        assert shard_ids(FIGURE_ORDER, 1, 1) == FIGURE_ORDER

    def test_sharded_runner_runs_only_its_slice(self):
        runner = SuiteRunner(QUICK_CONFIG, shard=(2, 2))
        suite = runner.run_suite(SUBSET)
        assert suite.ids() == list(shard_ids(SUBSET, 2, 2))
        assert runner.backend.executed == suite.ids()

    def test_parse_shard(self):
        assert parse_shard("1/4") == (1, 4)
        assert parse_shard("4/4") == (4, 4)
        for bad in ("0/4", "5/4", "x/4", "3", "1/0"):
            with pytest.raises(BackendError):
                parse_shard(bad)

    def test_invalid_shard_rejected_before_anything_runs(self):
        runner = SuiteRunner(QUICK_CONFIG, shard=(3, 2))
        with pytest.raises(BackendError):
            runner.run_suite(SUBSET)
        assert runner.backend.executed == []
        with pytest.raises(BackendError):
            shard_ids(FIGURE_ORDER, 0, 2)

    def test_warm_cache_does_not_shift_the_suite_partition(self, tmp_path):
        """The shard plan is made before cache filtering: with one result
        already cached, each shard still owns exactly its cold-cache
        slice, so concurrent shards collectively cover every benchmark
        exactly once."""
        SuiteRunner(QUICK_CONFIG, cache=ResultCache(str(tmp_path))).run_suite(
            SUBSET[:1]
        )
        covered = []
        for k in (1, 2):
            runner = SuiteRunner(
                QUICK_CONFIG, cache=ResultCache(str(tmp_path)), shard=(k, 2)
            )
            owned = runner.run_suite(SUBSET).ids()
            assert owned == list(shard_ids(SUBSET, k, 2))
            assert runner.backend.executed == [
                bid for bid in owned if bid != SUBSET[0]
            ]
            covered += owned
        assert sorted(covered) == sorted(SUBSET)

    def test_warm_cache_does_not_shift_the_sweep_partition(self, tmp_path):
        spec = SweepSpec(
            benches=("countdown.main", "999.specrand"),
            axes=(SweepAxis("seed", (1, 2)),),
            base=QUICK_CONFIG,
        )
        points = spec.expand()
        # Warm the first cell only: a partition planned after cache
        # filtering would hand that cell's shard a different slice.
        SweepRunner(cache=ResultCache(str(tmp_path))).run(
            SweepSpec(benches=("countdown.main",),
                      axes=(SweepAxis("seed", (1,)),), base=QUICK_CONFIG)
        )
        for k in (1, 2):
            result = SweepRunner(
                cache=ResultCache(str(tmp_path)), shard=(k, 2)
            ).run(spec)
            assert [f"{b}[{v}]" for b, v in result.runs] == [
                p.label for p in shard_ids(points, k, 2)
            ]

    def test_warm_cache_does_not_shift_the_fleet_partition(self, tmp_path):
        spec = FleetSpec(
            devices=8, seed=5, base=QUICK_CONFIG.scaled(0.3),
            bench_mix=(("countdown.main", 1.0), ("999.specrand", 1.0)),
        )
        units = spec.units()
        cold = [run_fleet(spec, shard=(k, 2)) for k in (1, 2)]
        # Warm shard 1's units: shard 2 must still own exactly its slice.
        cache = ResultCache(str(tmp_path))
        run_fleet(spec, cache=cache, shard=(1, 2))
        for k in (1, 2):
            warm = run_fleet(spec, cache=ResultCache(str(tmp_path)),
                             shard=(k, 2))
            owned = shard_ids(units, k, 2)
            assert warm.devices_done == sum(len(u.device_ids) for u in owned)
            assert warm.to_json_dict() == cold[k - 1].to_json_dict()


# ----------------------------------------------------------------------
# (b2) Async backend plumbing (cross-backend equivalence lives in
# test_backend_equivalence.py)


class TestAsyncBackend:
    def test_rejects_bad_jobs(self):
        with pytest.raises(BackendError):
            AsyncBackend(jobs=0)

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_at_most_eight_units_per_job_in_flight(self, jobs):
        """A unit is in flight from the moment the pool pulls it until
        its result has been reported; the pool never holds more than
        ``INFLIGHT_PER_JOB * jobs`` of them, however long the stream."""
        bound = INFLIGHT_PER_JOB * jobs
        cfg = RunConfig(duration_ticks=millis(50), settle_ticks=millis(50))
        completed: "list[int]" = []
        peak = 0

        def stream():
            nonlocal peak
            for pulled in range(1, bound + 5):
                peak = max(peak, pulled - len(completed))
                yield ("countdown.main", cfg)

        AsyncBackend(jobs=jobs).execute_stream(
            stream(), lambda i, secs, res: completed.append(i)
        )
        assert sorted(completed) == list(range(bound + 4))
        assert jobs < peak <= bound

    def test_empty_stream_is_a_noop(self):
        backend = AsyncBackend(jobs=2)
        seen = []
        backend.execute_stream(iter(()), lambda *args: seen.append(args))
        assert seen == [] and backend.executed == []

    def test_worker_failure_propagates_and_stops_the_stream(self):
        backend = AsyncBackend(jobs=1)
        tail = 2 * INFLIGHT_PER_JOB
        with pytest.raises(WorkloadError, match="unknown benchmark"):
            backend.execute_stream(
                iter([("no.such.bench", QUICK_CONFIG)]
                     + [("countdown.main", QUICK_CONFIG)] * tail),
                lambda i, secs, res: None,
            )
        # The bounded window plus the failure stop keep most of the tail
        # from ever being submitted.
        assert len(backend.executed) < tail

    @pytest.mark.parametrize("failing", ("on_done", "cache_put"))
    def test_failing_callback_propagates_and_stops_the_stream(
        self, tmp_path, failing
    ):
        """A completion callback that raises on its second call — the
        caller's ``on_done`` or the cache write before it — ends the
        batch with that very exception, leaves most of the stream
        unsimulated, and leaves no worker process behind."""
        error = OSError("disk full")
        calls = 0

        def second_call_fails(*args) -> None:
            nonlocal calls
            calls += 1
            if calls == 2:
                raise error

        class FailingCache(ResultCache):
            def put(self, bench_id, cfg, result):
                second_call_fails()
                super().put(bench_id, cfg, result)

        cache = None
        if failing == "cache_put":
            cache = FailingCache(str(tmp_path))
        on_done = second_call_fails if cache is None else (lambda *a: None)
        units = [
            SuiteUnit("countdown.main", RunConfig(
                duration_ticks=millis(50), settle_ticks=millis(50), seed=seed))
            for seed in range(2 * INFLIGHT_PER_JOB + 4)
        ]
        backend = AsyncBackend(jobs=2)
        with pytest.raises(OSError) as raised:
            execute_with_cache(backend, cache, units, on_done)
        assert raised.value is error
        assert len(backend.executed) < len(units)
        assert multiprocessing.active_children() == []

    def test_hits_behind_a_slow_miss_take_no_window_slot(self, tmp_path):
        """A slow miss, then more cache hits than the pool's window
        holds, then a few fast misses: ``on_done`` fires in unit order,
        each hit with ``elapsed=None`` and unrun.  The hits take no slot
        of the window, so every unit is pulled, and every fast miss
        submitted, while the slow miss still runs; and each hit's entry
        is read only at its turn, so no decoded hit queues up."""
        jobs = 2
        fast = RunConfig(duration_ticks=millis(50), settle_ticks=millis(50))
        done: "list[tuple[SuiteUnit, float | None]]" = []
        reads: "list[int]" = []   # units reported before each entry read

        class ReadCountingCache(ResultCache):
            def get(self, bench_id, cfg):
                reads.append(len(done))
                return super().get(bench_id, cfg)

        cache = ReadCountingCache(str(tmp_path))
        hits = [SuiteUnit("countdown.main", replace(fast, seed=seed))
                for seed in range(1, 41)]
        assert len(hits) > INFLIGHT_PER_JOB * jobs
        for unit in hits:
            cache.put(unit.bench_id, unit.config, RunResult(
                bench_id=unit.bench_id, benchmark_comm="countdown",
                duration_ticks=1, seed=unit.config.seed))
        units = (
            # About 0.13 s of simulation on a 2-vCPU host, where pulling
            # the other 43 units takes about 2 ms.
            [SuiteUnit("vlc.mp4.view", RunConfig(
                duration_ticks=seconds(20), settle_ticks=millis(50)))]
            + hits
            + [SuiteUnit("999.specrand", replace(fast, seed=seed))
               for seed in (1, 2, 3)]
        )
        pulled: "list[SuiteUnit]" = []
        pulled_at_first_report: "list[int]" = []

        def stream():
            for unit in units:
                pulled.append(unit)
                yield unit

        def on_done(unit, elapsed, run):
            if not done:
                pulled_at_first_report.append(len(pulled))
            done.append((unit, elapsed))

        backend = AsyncBackend(jobs=jobs)
        execute_with_cache(backend, cache, stream(), on_done)
        assert [unit for unit, _ in done] == units
        assert [elapsed is None for _, elapsed in done] == (
            [False] + [True] * len(hits) + [False] * 3
        )
        assert backend.executed == ["vlc.mp4.view"] + ["999.specrand"] * 3
        assert pulled_at_first_report == [len(units)]
        assert reads == list(range(1, len(hits) + 1))

    def test_an_entry_gone_bad_by_its_turn_is_run_in_order(self, tmp_path):
        """A hit whose entry is corrupt when its turn comes, behind a
        miss still in flight, is simulated in the calling process and
        reported in its place with a real elapsed time; the cache heals.
        """
        cache = ResultCache(str(tmp_path))
        bad = SuiteUnit("countdown.main", QUICK_CONFIG)
        good = SuiteUnit("999.specrand", QUICK_CONFIG)
        for unit in (bad, good):
            cache.put(unit.bench_id, unit.config,
                      execute_one(unit.bench_id, unit.config))
        expected = cache.get(bad.bench_id, bad.config).to_json_dict()
        path = tmp_path / (ResultCache.key(bad.bench_id, bad.config) + ".json")
        path.write_text("{not json")
        units = [SuiteUnit("music.mp3.view", QUICK_CONFIG), bad, good]
        done = []
        backend = AsyncBackend(jobs=2)
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            execute_with_cache(
                backend, cache, units,
                lambda unit, elapsed, run: done.append((unit, elapsed, run)),
            )
        assert [unit for unit, _, _ in done] == units
        assert [elapsed is None for _, elapsed, _ in done] == [
            False, False, True,
        ]
        assert done[1][2].to_json_dict() == expected
        assert backend.executed == ["music.mp3.view"]
        assert cache.get(bad.bench_id, bad.config).to_json_dict() == expected

    def test_executed_tracks_only_real_simulations(self, tmp_path):
        SuiteRunner(QUICK_CONFIG, cache=ResultCache(str(tmp_path))).run_suite(
            SUBSET[:1]
        )
        backend = AsyncBackend(jobs=2)
        SuiteRunner(
            QUICK_CONFIG, backend=backend, cache=ResultCache(str(tmp_path))
        ).run_suite(SUBSET[:2])
        assert backend.executed == [SUBSET[1]]


# ----------------------------------------------------------------------
# (c) Result cache


class TestResultCache:
    def test_second_run_hits_and_skips_simulation(self, tmp_path):
        first = SuiteRunner(QUICK_CONFIG, cache=ResultCache(str(tmp_path)))
        baseline = first.run_suite(SUBSET[:2])
        assert first.backend.executed == SUBSET[:2]

        cache = ResultCache(str(tmp_path))
        second = SuiteRunner(QUICK_CONFIG, cache=cache)
        replay = second.run_suite(SUBSET[:2])
        assert second.backend.executed == []          # zero new simulations
        assert cache.hits == 2 and cache.misses == 0
        assert _suite_json(replay) == _suite_json(baseline)

    def test_config_change_misses(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        SuiteRunner(QUICK_CONFIG, cache=cache).run_suite(SUBSET[:1])
        changed = SuiteRunner(QUICK_CONFIG.scaled(0.5), cache=cache)
        changed.run_suite(SUBSET[:1])
        assert changed.backend.executed == SUBSET[:1]
        assert len(cache) == 2

    def test_key_covers_every_knob(self):
        base = QUICK_CONFIG
        variants = [
            base.scaled(2.0),
            RunConfig(duration_ticks=base.duration_ticks,
                      settle_ticks=base.settle_ticks, seed=base.seed + 1),
            RunConfig(duration_ticks=base.duration_ticks,
                      settle_ticks=base.settle_ticks, jit_enabled=False),
            RunConfig(duration_ticks=base.duration_ticks,
                      settle_ticks=base.settle_ticks,
                      calibration=Calibration().scaled(2.0)),
        ]
        keys = {ResultCache.key("countdown.main", cfg)
                for cfg in [base] + variants}
        assert len(keys) == len(variants) + 1
        assert ResultCache.key("doom.main", base) != ResultCache.key(
            "countdown.main", base
        )

    def test_corrupt_entry_is_a_miss_and_is_deleted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = tmp_path / (ResultCache.key(SUBSET[0], QUICK_CONFIG) + ".json")
        bodies = (b"{not json", b"\xff\xfe\x00garbage")   # bad JSON, bad UTF-8
        for misses, body in enumerate(bodies, start=1):
            path.write_bytes(body)
            with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
                assert cache.get(SUBSET[0], QUICK_CONFIG) is None
            assert cache.misses == misses
            # The bad file is gone, so the next put() heals this key.
            assert not path.exists()

    def test_has_probes_without_reading(self, tmp_path):
        """``has`` counts an absent key as a miss and reads nothing, so a
        corrupt entry reads as stored until ``get`` trips over it."""
        cache = ResultCache(str(tmp_path))
        assert not cache.has(SUBSET[0], QUICK_CONFIG)
        assert (cache.hits, cache.misses) == (0, 1)
        path = tmp_path / (ResultCache.key(SUBSET[0], QUICK_CONFIG) + ".json")
        path.write_text("{not json")
        assert cache.has(SUBSET[0], QUICK_CONFIG)
        assert (cache.hits, cache.misses) == (0, 1) and path.exists()

    def test_valid_json_wrong_shape_is_discarded(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = tmp_path / (ResultCache.key(SUBSET[0], QUICK_CONFIG) + ".json")
        path.write_text('{"bench_id": "half-written"}')
        with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
            assert cache.get(SUBSET[0], QUICK_CONFIG) is None
        assert not path.exists()

    def test_stale_tmp_files_are_swept_on_open(self, tmp_path):
        key = ResultCache.key(SUBSET[0], QUICK_CONFIG)
        dead = tmp_path / f"{key}.json.tmp.999999999"
        dead.write_text("{")
        alive = tmp_path / f"{key}.json.tmp.{os.getpid()}"
        alive.write_text("{")
        # Per-writer names carry the writer's thread id after its pid.
        dead_thread = tmp_path / f"{key}.json.tmp.999999999.140000"
        dead_thread.write_text("{")
        alive_thread = tmp_path / f"{key}.json.tmp.{os.getpid()}.12345"
        alive_thread.write_text("{")
        foreign = tmp_path / "notes.tmp.bak"
        foreign.write_text("mine")
        ResultCache(str(tmp_path))
        assert not dead.exists()          # writer long gone
        assert not dead_thread.exists()
        assert alive.exists()             # in-flight writer is left alone
        assert alive_thread.exists()
        assert foreign.exists()           # not our naming -> not our file

    def test_concurrent_same_key_puts_never_collide_or_tear(self, tmp_path):
        """Several writers may share one cache directory: 4 threads of
        this process and 2 other processes put the same key at once.
        Each writer writes its own tmp file and publishes it with an
        atomic rename, so nothing raises, every read in between decodes
        to the written result, and no tmp file outlives its writer."""
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(6)
        errors: "list[Exception]" = []

        def in_thread() -> None:
            try:
                _put_same_key(str(tmp_path), barrier)
            except Exception as exc:
                errors.append(exc)

        procs = [
            ctx.Process(target=_put_same_key, args=(str(tmp_path), barrier))
            for _ in range(2)
        ]
        threads = [threading.Thread(target=in_thread) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)   # interleave the threads' puts finely
        try:
            for worker in procs + threads:
                worker.start()
            for worker in threads + procs:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in threads + procs)
        assert errors == []
        assert [proc.exitcode for proc in procs] == [0, 0]
        stored = ResultCache(str(tmp_path)).get(SUBSET[0], QUICK_CONFIG)
        assert stored is not None
        assert stored.to_json_dict() == _shared_run().to_json_dict()
        assert list(tmp_path.glob("*.tmp.*")) == []

    def test_progress_distinguishes_cache_hits_from_fast_runs(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        SuiteRunner(QUICK_CONFIG, cache=cache).run_suite(SUBSET[:1])
        seen = []
        SuiteRunner(QUICK_CONFIG, cache=ResultCache(str(tmp_path))).run_suite(
            SUBSET[:1],
            progress=lambda bid, secs, res: seen.append((bid, secs)),
        )
        assert seen == [(SUBSET[0], None)]   # None = cached, not elapsed==0

    def test_cache_stats_persist_across_instances(self, tmp_path):
        SuiteRunner(QUICK_CONFIG, cache=ResultCache(str(tmp_path))).run_suite(
            SUBSET[:2]
        )
        warm = ResultCache(str(tmp_path))
        SuiteRunner(QUICK_CONFIG, cache=warm).run_suite(SUBSET[:2])
        assert warm.hits == 2 and warm.misses == 0
        stats = ResultCache(str(tmp_path)).stats()
        names = sorted(os.listdir(tmp_path))
        assert names == sorted(
            ResultCache.key(bid, QUICK_CONFIG) + ".json" for bid in SUBSET[:2]
        )                                 # the entries are the only files
        assert stats.entries == 2
        assert stats.total_bytes == sum(
            os.path.getsize(tmp_path / name) for name in names
        )


def _shared_run():
    """The one result every concurrent writer stores under one key."""
    from repro.core import RunResult

    return RunResult(bench_id=SUBSET[0], benchmark_comm=SUBSET[0],
                     duration_ticks=1, seed=0,
                     instr_by_region={"binary": 1},
                     meta={"pad": "x" * 4096})


def _put_same_key(root: str, barrier, rounds: int = 25) -> None:
    """Put :func:`_shared_run` into the cache at *root* *rounds* times
    once every writer is ready, reading the entry back after each put."""
    cache = ResultCache(root)
    run = _shared_run()
    barrier.wait(timeout=30)
    for _ in range(rounds):
        cache.put(SUBSET[0], QUICK_CONFIG, run)
        stored = cache.get(SUBSET[0], QUICK_CONFIG)
        assert stored is not None
        assert stored.to_json_dict() == run.to_json_dict()


# ----------------------------------------------------------------------
# (c2) Cache GC


def _plant_entry(cache: ResultCache, bench_id: str, mtime: float,
                 pad: int = 0) -> str:
    """Store a fabricated run and backdate its file to *mtime*."""
    from repro.core import RunResult

    run = RunResult(bench_id=bench_id, benchmark_comm=bench_id,
                    duration_ticks=1, seed=0,
                    instr_by_region={"binary": 1},
                    meta={"pad": "x" * pad})
    cache.put(bench_id, QUICK_CONFIG, run)
    path = os.path.join(cache.root, ResultCache.key(bench_id, QUICK_CONFIG)
                        + ".json")
    os.utime(path, (mtime, mtime))
    return path


class TestCacheGc:
    def test_max_bytes_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        paths = [
            _plant_entry(cache, bid, mtime=float(100 * (i + 1)))
            for i, bid in enumerate(
                ["countdown.main", "999.specrand", "401.bzip2"]
            )
        ]
        newest_size = os.path.getsize(paths[2])
        report = cache.gc(max_bytes=newest_size + 1)
        # Evicted in mtime order until the newest alone fits.
        assert not os.path.exists(paths[0])
        assert not os.path.exists(paths[1])
        assert os.path.exists(paths[2])
        assert report.removed_entries == 2 and report.kept_entries == 1
        assert report.kept_bytes == newest_size

    def test_no_bounds_is_a_noop(self, tmp_path):
        """A budget the cache already fits bounds nothing: the pass
        evicts no entry and only reports."""
        cache = ResultCache(str(tmp_path))
        path = _plant_entry(cache, "countdown.main", mtime=1.0)
        report = cache.gc(max_bytes=os.path.getsize(path))
        assert report.removed_entries == 0 and report.kept_entries == 1
        assert len(cache) == 1

    def test_equal_age_prefers_least_recently_used(self, tmp_path):
        """Among entries written together, the never-hit ones go first:
        a hit refreshes its entry's mtime, so a warm entry outlives cold
        ones written in the same batch."""
        cache = ResultCache(str(tmp_path))
        planted = {
            bid: _plant_entry(cache, bid, mtime=100.0)
            for bid in ("countdown.main", "999.specrand", "401.bzip2")
        }
        assert cache.get("999.specrand", QUICK_CONFIG) is not None  # warm it
        report = cache.gc(max_bytes=os.path.getsize(planted["999.specrand"]))
        assert report.removed_entries == 2
        assert os.path.exists(planted["999.specrand"])
        assert not os.path.exists(planted["countdown.main"])
        assert not os.path.exists(planted["401.bzip2"])

    def test_lru_order_breaks_ties_among_hit_entries(self, tmp_path):
        """Eviction order is last use, not last write: an entry written
        first but hit since outlives a later one never hit."""
        cache = ResultCache(str(tmp_path))
        first = _plant_entry(cache, "countdown.main", mtime=100.0)
        second = _plant_entry(cache, "999.specrand", mtime=200.0)
        assert cache.get("countdown.main", QUICK_CONFIG) is not None
        report = cache.gc(max_bytes=os.path.getsize(first))
        assert report.removed_entries == 1
        assert os.path.exists(first)
        assert not os.path.exists(second)

    def test_hits_steer_eviction_by_a_fresh_instance(self, tmp_path):
        """Hits recorded by one cache instance steer eviction by a later
        one: the entry's mtime carries the hit, and the cache writes no
        file but its entries."""
        cache = ResultCache(str(tmp_path))
        planted = {
            bid: _plant_entry(cache, bid, mtime=100.0)
            for bid in ("countdown.main", "999.specrand")
        }
        assert cache.get("999.specrand", QUICK_CONFIG) is not None
        assert sorted(os.listdir(tmp_path)) == sorted(
            os.path.basename(path) for path in planted.values()
        )

        fresh = ResultCache(str(tmp_path))
        report = fresh.gc(max_bytes=os.path.getsize(planted["999.specrand"]))
        assert report.removed_entries == 1
        assert os.path.exists(planted["999.specrand"])
        assert not os.path.exists(planted["countdown.main"])

    def test_hit_is_served_when_its_mtime_cannot_be_refreshed(
        self, tmp_path, monkeypatch
    ):
        """Refreshing the mtime is best effort: a hit whose ``utime``
        fails (a read-only directory) still returns the stored run."""
        cache = ResultCache(str(tmp_path))
        path = _plant_entry(cache, "countdown.main", mtime=100.0)

        def utime(*args, **kwargs):
            raise PermissionError("read-only file system")

        monkeypatch.setattr(os, "utime", utime)
        run = cache.get("countdown.main", QUICK_CONFIG)
        assert run is not None and run.bench_id == "countdown.main"
        assert cache.hits == 1 and cache.misses == 0
        assert os.path.getmtime(path) == 100.0

    def test_gc_preserves_stats_and_foreign_files(self, tmp_path):
        """Eviction removes run entries only: a ``_stats.json`` left by
        older versions of the cache and files the cache does not own
        survive untouched."""
        SuiteRunner(QUICK_CONFIG, cache=ResultCache(str(tmp_path))).run_suite(
            SUBSET[:2]
        )
        old_stats = tmp_path / "_stats.json"
        old_stats.write_text('{"hits": 2, "misses": 2, "last_hit": {}}')
        foreign = tmp_path / "notes.txt"
        foreign.write_text("mine")
        # A user parking a results file in the cache dir must never see
        # gc eat it — .json alone does not make a file a cache entry.
        parked = tmp_path / "suite.json"
        parked.write_text("{}")

        cache = ResultCache(str(tmp_path))
        assert len(cache) == 2                         # parked not counted
        report = cache.gc(max_bytes=0)
        assert report.removed_entries == 2
        stats = cache.stats()
        assert stats.entries == 0 and stats.total_bytes == 0
        assert foreign.exists()
        assert parked.exists()
        assert old_stats.exists()

    def test_failed_unlink_is_reported_as_kept(self, tmp_path, monkeypatch):
        """An entry gc cannot delete is still on disk, so the report must
        count it as kept — never as removed, never as vanished."""
        cache = ResultCache(str(tmp_path))
        stuck = _plant_entry(cache, "countdown.main", mtime=10.0)
        gone = _plant_entry(cache, "999.specrand", mtime=20.0)
        real_unlink = os.unlink

        def unlink(path, *args, **kwargs):
            if path == stuck:
                raise OSError("device busy")
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "unlink", unlink)
        report = cache.gc(max_bytes=0)
        assert report.removed_entries == 1
        assert report.kept_entries == 1
        assert report.kept_bytes == os.path.getsize(stuck)
        assert os.path.exists(stuck) and not os.path.exists(gone)

    def test_evicted_key_is_a_miss_then_heals(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        SuiteRunner(QUICK_CONFIG, cache=cache).run_suite(SUBSET[:1])
        cache.gc(max_bytes=0)
        runner = SuiteRunner(QUICK_CONFIG, cache=cache)
        runner.run_suite(SUBSET[:1])
        assert runner.backend.executed == SUBSET[:1]   # re-simulated
        assert len(cache) == 1                         # and stored again


# ----------------------------------------------------------------------
# (d) Config / calibration serialisation


class TestSerialisation:
    def test_calibration_pickle_round_trip(self):
        cal = Calibration().scaled(1.7)
        assert pickle.loads(pickle.dumps(cal)) == cal

    def test_run_config_pickle_round_trip(self):
        cfg = RunConfig(seed=77, jit_enabled=False,
                        calibration=Calibration().scaled(0.5))
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_run_config_json_round_trip(self):
        cfg = RunConfig(seed=9, calibration=Calibration().scaled(3.0))
        raw = json.loads(json.dumps(cfg.to_json_dict()))
        assert RunConfig.from_json_dict(raw) == cfg
        plain = RunConfig(seed=9)
        assert RunConfig.from_json_dict(plain.to_json_dict()) == plain

    def test_calibration_override_reaches_workers(self):
        """A scaled calibration must change results *through* the pool."""
        hot = QUICK_CONFIG
        cold = RunConfig(duration_ticks=hot.duration_ticks,
                         settle_ticks=hot.settle_ticks,
                         calibration=Calibration().scaled(4.0))
        backend = AsyncBackend(jobs=2)
        runner = SuiteRunner(hot, backend=backend)
        base = runner.run_suite(["doom.main"]).get("doom.main")
        scaled = runner.run_suite(["doom.main"], config=cold).get("doom.main")
        assert scaled.total_refs != base.total_refs


# ----------------------------------------------------------------------
# Dedup + backend factory


class TestRunnerOrchestration:
    def test_duplicate_ids_run_once_and_warn(self):
        runner = SuiteRunner(QUICK_CONFIG)
        with pytest.warns(RuntimeWarning, match="duplicate"):
            suite = runner.run_suite(["countdown.main", "999.specrand",
                                      "countdown.main"])
        assert suite.ids() == ["countdown.main", "999.specrand"]
        assert runner.backend.executed == ["countdown.main", "999.specrand"]

    def test_make_backend_selection(self):
        """``--jobs`` alone picks the path: 1 is serial, N > 1 the pool."""
        assert isinstance(make_backend(1), SerialBackend)
        pool = make_backend(3)
        assert isinstance(pool, AsyncBackend) and pool.jobs == 3
        for bad in (0, -1):
            with pytest.raises(ConfigError, match=str(bad)):
                make_backend(bad)

    def test_backend_shortfall_raises_naming_the_missing(self):
        """A backend that silently loses results (crashed pool worker)
        must surface as a BackendError naming the missing bench ids, not
        a bare KeyError during result assembly."""

        class LossyBackend(SerialBackend):
            name = "lossy"

            def execute_stream(self, items, on_result):
                super().execute_stream(list(items)[:-1], on_result)

        runner = SuiteRunner(QUICK_CONFIG, backend=LossyBackend())
        with pytest.raises(BackendError, match="999.specrand"):
            runner.run_suite(["countdown.main", "999.specrand"])

    def test_execute_stream_mixes_configs_in_one_stream(self):
        """The stream primitive carries a config per item, so one call
        can execute the same benchmark under different configs."""
        backend = SerialBackend()
        cold = QUICK_CONFIG
        hot = RunConfig(duration_ticks=cold.duration_ticks // 2,
                        settle_ticks=cold.settle_ticks)
        results = {}
        backend.execute_stream(
            iter([("countdown.main", cold), ("countdown.main", hot)]),
            lambda i, secs, res: results.setdefault(i, res),
        )
        assert sorted(results) == [0, 1]
        assert results[0].duration_ticks == cold.duration_ticks
        assert results[1].duration_ticks == hot.duration_ticks


# ----------------------------------------------------------------------
# CLI wiring


class TestCli:
    def test_suite_jobs_cache_progress(self, tmp_path, capsys):
        from repro.__main__ import main

        cache_dir = str(tmp_path / "cache")
        argv = ["--duration", "0.4", "--settle-ms", "200", "suite",
                "--jobs", "2", "--cache", cache_dir, "--progress",
                "--bench", "countdown.main", "--bench", "999.specrand"]
        assert main(argv + ["--out", str(tmp_path / "a.json")]) == 0
        first = capsys.readouterr().out
        assert "countdown.main" in first and "cached" not in first

        assert main(argv + ["--out", str(tmp_path / "b.json")]) == 0
        second = capsys.readouterr().out
        assert second.count("cached") == 2
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()

    @pytest.mark.parametrize("command", ("suite", "sweep", "fleet"))
    @pytest.mark.parametrize("flag", (
        ("--backend", "serial"),
        ("--window", "4"),
        ("--cache-url", "http://127.0.0.1:8750"),
        ("--cache-revalidate",),
    ), ids=("backend", "window", "cache-url", "cache-revalidate"))
    def test_parser_rejects_removed_flags(self, command, flag, capsys):
        """``--jobs`` is the only execution choice and ``--cache DIR`` the
        only result cache: the flags that picked a backend, pinned the
        pool's window or reached a networked result service are gone,
        not silently ignored."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main([command, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_serve_subcommand_is_gone(self, tmp_path, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["serve", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err

    def test_cache_gc_lru_flag_is_gone(self, tmp_path, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["cache", "gc", str(tmp_path), "--max-bytes", "0", "--lru"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --lru" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", (
        ("--max-age", "1"), ("--max-entries", "1"), ("--dry-run",),
    ), ids=("max-age", "max-entries", "dry-run"))
    def test_cache_gc_takes_only_a_byte_budget(self, tmp_path, flag, capsys):
        """``--max-bytes`` is the one bound: the age and count bounds and
        the preview flag are gone, not silently ignored."""
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["cache", "gc", str(tmp_path), "--max-bytes", "0", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ("0", "-1"))
    @pytest.mark.parametrize("command", (
        ["suite", "--bench", "countdown.main"],
        ["sweep", "--bench", "countdown.main"],
        ["fleet", "--devices", "2"],
    ), ids=("suite", "sweep", "fleet"))
    def test_jobs_below_one_is_a_clean_error(self, command, jobs, capsys):
        """``--jobs`` below 1 used to run serially without a word."""
        from repro.__main__ import main

        assert main([*command, "--jobs", jobs]) == 2
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err

    def test_suite_shard_flag(self, capsys):
        from repro.__main__ import main

        argv = ["--duration", "0.4", "--settle-ms", "200", "suite",
                "--shard", "1/2",
                "--bench", "countdown.main", "--bench", "999.specrand"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "countdown.main" in out and "999.specrand" not in out

    def test_bad_shard_spec_is_a_clean_error(self, capsys):
        from repro.__main__ import main

        assert main(["suite", "--shard", "0/2", "--bench",
                     "countdown.main"]) == 2
        assert "bad shard spec" in capsys.readouterr().err

    def test_artifact_commands_reject_shard(self):
        """Figures/table1/claims over a partial suite would be silently
        wrong, so --shard stays off them (suite and sweep only)."""
        from repro.__main__ import main

        for command in ("figures", "table1", "claims"):
            with pytest.raises(SystemExit):
                main([command, "--shard", "1/2"])

    def test_suite_pool_matches_serial_bytes(self, tmp_path):
        from repro.__main__ import main

        base = ["--duration", "0.4", "--settle-ms", "200", "suite",
                "--bench", "countdown.main", "--bench", "999.specrand"]
        a, b = str(tmp_path / "pool.json"), str(tmp_path / "serial.json")
        assert main(base + ["--jobs", "2", "--out", a]) == 0
        assert main(base + ["--jobs", "1", "--out", b]) == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_cache_gc_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        cache_dir = str(tmp_path / "cache")
        argv = ["--duration", "0.4", "--settle-ms", "200", "suite",
                "--cache", cache_dir,
                "--bench", "countdown.main", "--bench", "999.specrand"]
        assert main(argv) == 0
        capsys.readouterr()

        assert main(["cache", "gc", cache_dir, "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "evicted: 2 entries" in out
        assert "kept:    0 entries" in out

        assert main(["cache", "stats", cache_dir]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"cache:   {cache_dir}", "entries: 0", "bytes:   0",
        ]

    def test_cache_gc_rejects_a_negative_budget(self, tmp_path, capsys):
        """A negative ``--max-bytes`` evicted every entry and exited 0."""
        from repro.__main__ import main

        cache = ResultCache(str(tmp_path))
        path = _plant_entry(cache, "countdown.main", mtime=100.0)
        assert main(["cache", "gc", str(tmp_path), "--max-bytes", "-5"]) == 2
        assert "error: --max-bytes must be >= 0, got -5" in \
            capsys.readouterr().err
        assert os.path.exists(path)

    def test_cache_gc_requires_a_bound_and_an_existing_dir(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main

        missing = str(tmp_path / "nope")
        assert main(["cache", "gc", missing, "--max-bytes", "0"]) == 2
        assert "no cache directory" in capsys.readouterr().err
        assert not (tmp_path / "nope").exists()     # gc stayed read-only

        present = tmp_path / "cache"
        present.mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["cache", "gc", str(present)])
        assert exc.value.code == 2
        assert "the following arguments are required: --max-bytes" in \
            capsys.readouterr().err
