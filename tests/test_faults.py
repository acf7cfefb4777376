"""Fault injection: plans, injector determinism, the sweep/fleet axes,
and the absorbed-vs-amplified analysis.

The load-bearing contracts:

- a :class:`FaultPlan` is part of the config's identity (cache-keyed,
  JSON-round-trippable) and *absent* plans leave every pre-existing
  config byte-identical;
- every probabilistic draw derives from ``bench_seed``, so a faulted run
  is still a pure function of ``(bench_id, RunConfig)``;
- the armed injector belongs to its own system, so concurrent runs in
  one process never fire each other's faults (nor, since the calibration
  rides on the system too, cost each other's work);
- the analysis layer can tell faults the stack absorbs from faults it
  amplifies.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading

import pytest

from repro.analysis import (
    evaluate_fault_claims,
    fault_report,
    render_fault_report,
)
from repro.core import (
    FleetSpec,
    ResultCache,
    RunConfig,
    SerialBackend,
    SweepAxis,
    SweepRunner,
    SweepSpec,
)
from repro.android.app import start_activity
from repro.android.boot import boot_android
from repro.calibration import Calibration, calibration_preset
from repro.core.runner import _prepared_system, bench_seed, execute_one
from repro.core.suite import get_benchmark
from repro.core.sweep import parse_axis
from repro.errors import AnalysisError, ConfigError
from repro.faults import (
    COUNTER_KEYS,
    FAULT_PLANS,
    FaultPlan,
    ThreadKill,
    ThrottleWindow,
    channel_rng,
    fault_plan,
    plan_names,
)
from repro.faults.injector import RESTARTED_THREADS, FaultInjector
from repro.sim.system import System
from repro.sim.ticks import millis

FAST = RunConfig(duration_ticks=millis(400), settle_ticks=millis(200))


def _faulted(plan: str) -> RunConfig:
    return RunConfig(
        duration_ticks=millis(400),
        settle_ticks=millis(200),
        faults=fault_plan(plan),
    )


def _bytes(result) -> bytes:
    return json.dumps(result.to_json_dict(), sort_keys=True).encode()


# ----------------------------------------------------------------------
# Plans: registry, validation, serialisation


class TestPlans:
    def test_registry_names_and_lookup(self):
        assert plan_names() == list(FAULT_PLANS)
        for name in plan_names():
            assert fault_plan(name).name == name

    def test_unknown_plan_name_is_a_config_error(self):
        with pytest.raises(ConfigError, match="warp-core"):
            fault_plan("warp-core")

    @pytest.mark.parametrize("name", sorted(FAULT_PLANS))
    def test_every_registered_plan_round_trips_through_json(self, name):
        plan = fault_plan(name)
        wire = json.loads(json.dumps(plan.to_json_dict()))
        assert FaultPlan.from_json_dict(wire) == plan

    def test_empty_plan_is_rejected(self):
        with pytest.raises(ConfigError, match="at least one fault"):
            FaultPlan(name="noop")

    def test_field_validation(self):
        with pytest.raises(ConfigError, match="binder_fail_rate"):
            FaultPlan(binder_fail_rate=1.5)
        with pytest.raises(ConfigError, match="at_ms"):
            ThreadKill(at_ms=-1, proc="p", thread="t")
        with pytest.raises(ConfigError, match="restart_ms"):
            ThreadKill(at_ms=0, proc="p", thread="t", restart_ms=-5)
        with pytest.raises(ConfigError, match="duration_ms"):
            ThrottleWindow(at_ms=0, duration_ms=0)
        with pytest.raises(ConfigError, match="factor"):
            ThrottleWindow(at_ms=0, duration_ms=10, factor=1)
        with pytest.raises(ConfigError, match="evict_at_ms"):
            FaultPlan(evict_at_ms=(-10,))

    def test_unknown_json_key_is_named_in_the_error(self):
        wire = fault_plan("binder-flaky").to_json_dict()
        wire["blast_radius"] = 9000
        with pytest.raises(ConfigError, match="blast_radius"):
            FaultPlan.from_json_dict(wire)
        # Keys inside a thread-kill or throttle entry are named with
        # their entry, and listed with unknown top-level keys.
        for entries in ("thread_kills", "throttles"):
            wire = json.loads(json.dumps(fault_plan("chaos").to_json_dict()))
            wire[entries][0]["bogus"] = 1
            with pytest.raises(ConfigError, match=(
                rf"unknown fault plan key\(s\) in JSON: {entries}\[0\]\.bogus$"
            )):
                FaultPlan.from_json_dict(wire)
            wire["blast_radius"] = 9000
            with pytest.raises(ConfigError, match=(
                rf"blast_radius, {entries}\[0\]\.bogus$"
            )):
                FaultPlan.from_json_dict(wire)

    @pytest.mark.parametrize("field, value, named", (
        ("binder_fail_rate", "x", "binder_fail_rate"),
        ("binder_fail_rate", True, "binder_fail_rate"),
        ("name", 7, "name"),
        ("evict_at_ms", [100, "200"], "evict_at_ms"),
        ("thread_kills", {"at_ms": 1}, "thread_kills"),
    ))
    def test_mistyped_json_value_is_named_in_the_error(
        self, field, value, named
    ):
        wire = json.loads(json.dumps(fault_plan("chaos").to_json_dict()))
        wire[field] = value
        with pytest.raises(ConfigError, match=rf"fault plan field {named} "):
            FaultPlan.from_json_dict(wire)

    @pytest.mark.parametrize("entries, field, value", (
        ("thread_kills", "at_ms", "150"),
        ("thread_kills", "proc", None),
        ("throttles", "factor", 2.0),
        ("throttles", "cpus", [0, "1"]),
        ("thread_kills", "thread", ...),  # ... deletes the field
        ("throttles", "duration_ms", ...),
    ))
    def test_bad_entry_field_is_named_in_the_error(self, entries, field, value):
        wire = json.loads(json.dumps(fault_plan("chaos").to_json_dict()))
        if value is ...:
            del wire[entries][0][field]
        else:
            wire[entries][0][field] = value
        with pytest.raises(
            ConfigError, match=rf"fault plan field {entries}\[0\]\.{field} "
        ):
            FaultPlan.from_json_dict(wire)


# ----------------------------------------------------------------------
# Config identity: absent plans change nothing, present plans key runs


class TestConfigIdentity:
    def test_faultless_config_json_has_no_faults_key(self):
        assert "faults" not in RunConfig().to_json_dict()
        assert "faults" not in FAST.to_json_dict()

    def test_config_with_plan_round_trips(self):
        cfg = _faulted("chaos")
        wire = json.loads(json.dumps(cfg.to_json_dict()))
        assert RunConfig.from_json_dict(wire) == cfg

    def test_plan_changes_the_cache_key(self):
        base = ResultCache.key("countdown.main", FAST)
        assert ResultCache.key("countdown.main", _faulted("chaos")) != base
        assert ResultCache.key(
            "countdown.main", _faulted("sf-kill")
        ) != ResultCache.key("countdown.main", _faulted("sf-restart"))


# ----------------------------------------------------------------------
# Injector determinism and per-plan effects


class TestInjection:
    def test_channel_rng_is_a_pure_function_of_seed_and_channel(self):
        a = [channel_rng(7, "binder").random() for _ in range(5)]
        b = [channel_rng(7, "binder").random() for _ in range(5)]
        c = [channel_rng(7, "evict").random() for _ in range(5)]
        d = [channel_rng(8, "binder").random() for _ in range(5)]
        assert a == b
        assert a != c and a != d

    @pytest.mark.parametrize("plan", ("binder-flaky", "sf-restart", "chaos"))
    def test_faulted_runs_are_deterministic(self, plan):
        cfg = _faulted(plan)
        assert _bytes(execute_one("vlc.mp4.view", cfg)) == \
            _bytes(execute_one("vlc.mp4.view", cfg))

    def test_counters_report_the_full_vocabulary(self):
        run = execute_one("vlc.mp4.view", _faulted("binder-flaky"))
        assert tuple(run.fault_counters) == COUNTER_KEYS
        assert run.fault_counters["binder_failed"] > 0
        assert run.fault_counters["binder_failed"] == (
            run.fault_counters["binder_dropped"]
            + run.fault_counters["binder_retried"]
        )

    def test_faultless_runs_report_no_counters(self):
        run = execute_one("vlc.mp4.view", FAST)
        assert run.fault_counters == {}
        assert "faults" not in run.to_json_dict()

    def test_kill_restart_and_frame_collapse_ordering(self):
        """sf-kill collapses composited frames; sf-restart recovers some
        of them; the baseline keeps them all."""
        base = execute_one("vlc.mp4.view", FAST)
        kill = execute_one("vlc.mp4.view", _faulted("sf-kill"))
        restart = execute_one("vlc.mp4.view", _faulted("sf-restart"))
        assert kill.fault_counters["threads_killed"] == 1
        assert kill.fault_counters["threads_restarted"] == 0
        assert restart.fault_counters["threads_killed"] == 1
        assert restart.fault_counters["threads_restarted"] == 1
        frames = lambda run: run.meta.get("sf_frames", 0)  # noqa: E731
        assert frames(kill) < frames(restart) <= frames(base)

    def test_a_kill_that_finds_no_target_is_counted(self):
        """A typo'd kill target does not read as a fault-free run: the
        kill is counted as unmatched, while the kills of named plans
        land and keep the fixed vocabulary."""
        typo = FaultPlan(name="typo", thread_kills=(
            ThreadKill(at_ms=10, proc="nosuchproc", thread="nothread"),))
        cfg = RunConfig(duration_ticks=millis(400), settle_ticks=millis(200),
                        faults=typo)
        run = execute_one("countdown.main", cfg)
        assert run.fault_counters == {
            **dict.fromkeys(COUNTER_KEYS, 0), "kills_unmatched": 1,
        }
        assert run.to_json_dict()["faults"]["kills_unmatched"] == 1
        landed = execute_one("vlc.mp4.view", _faulted("sf-kill"))
        assert tuple(landed.fault_counters) == COUNTER_KEYS

    def test_eviction_storm_counts_every_storm(self):
        run = execute_one("osmand.map.view", _faulted("cache-storm"))
        assert run.fault_counters["evictions"] == 3
        assert run.fault_counters["evicted_bytes"] > 0

    def test_throttle_slows_the_run(self):
        base = execute_one("vlc.mp4.view", FAST)
        slow = execute_one("vlc.mp4.view", _faulted("throttle"))
        assert slow.fault_counters["throttle_events"] >= 1
        assert slow.total_refs < base.total_refs


#: Kill targets of the restart matrix, as ``(process, thread, restarts)``:
#: the framework threads a restart respawns, and a binder thread whose
#: restart does nothing.
RESTART_TARGETS = (
    ("system_server", "SurfaceFlinger", 1),
    ("system_server", "InputReader", 1),
    ("system_server", "InputDispatcher", 1),
    ("system_server", "watchdog", 1),
    ("mediaserver", "AudioOut_1", 1),
    ("system_server", "Binder Thread #1", 0),
)

RESTART_MACHINES = {"1": {"cpus": 1}, "2+2": {"cpus": 4, "cpu_profile": "2+2"}}

#: sha256 of ``json.dumps(run.to_json_dict())`` per ``(thread, machine)``
#: for vlc.mp4.view with the thread killed at 40 ms and restarted 60 ms
#: later.  A restart respawns the thread exactly as boot spawned it, so
#: a restart path that changes a thread's behaviour, pin or nice value
#: moves a digest.
RESTART_DIGESTS = {
    ("SurfaceFlinger", "1"):
        "e9f1aa276b30fbd99e16c37a9b0c1a6f48fd605d612021399b81144d2b77bbd5",
    ("SurfaceFlinger", "2+2"):
        "735467064d5245bc68232a5779c6f849cb75e65588039d7daf99d307130575fb",
    ("InputReader", "1"):
        "e3ad118f92ebc849d755f3c3802ac3c291493df296c13056886b73e5719109e8",
    ("InputReader", "2+2"):
        "a27ccff1f0ae887f6295afb53f45acc1443449e32a0f1c8b1904f6662720765a",
    ("InputDispatcher", "1"):
        "9f42cdbc34c48f65125187da898f4dafdda1d071d62585e2224c4d46ccc596b2",
    ("InputDispatcher", "2+2"):
        "20634a991e68addea96c5089deac3bba03a8c6cb7c79c71c3394f1de30931ce4",
    ("watchdog", "1"):
        "15060781e995712e81c624c47f25ec7774a6d3d0746dcc327d71c86e8dc1853f",
    ("watchdog", "2+2"):
        "1f11e6a8874a8b87339e27d28a0472fd6865e31053c7ac9dedd3cff22d5ebc20",
    ("AudioOut_1", "1"):
        "1e7aba63e2c02e7828c975424d7f3c7baf83d030afc24f0e301b681fd2597e86",
    ("AudioOut_1", "2+2"):
        "3848661398efb839a2f18b6752c59da6de8938f6abe37f2bc0f28c9ddc07acf7",
    ("Binder Thread #1", "1"):
        "87c33ed1ce684df48ce4472c05dbc38839ea9ac847a951073f29cb63d86f0c85",
    ("Binder Thread #1", "2+2"):
        "e3f2ec71fbf300db99a34f509c8ec4905fe7d1bf5f28c5f8f98d8b63ad6f88a5",
}


class TestRestarts:
    @pytest.mark.parametrize("machine", tuple(RESTART_MACHINES))
    @pytest.mark.parametrize("proc, thread, restarts", RESTART_TARGETS)
    def test_a_restart_respawns_the_thread_boot_spawned(
        self, proc, thread, restarts, machine
    ):
        plan = FaultPlan(name="kill", thread_kills=(
            ThreadKill(at_ms=40, proc=proc, thread=thread, restart_ms=60),))
        cfg = RunConfig(
            duration_ticks=millis(300), settle_ticks=millis(100), seed=7,
            faults=plan, **RESTART_MACHINES[machine],
        )
        run = execute_one("vlc.mp4.view", cfg)
        assert run.fault_counters["threads_killed"] == 1
        assert run.fault_counters["threads_restarted"] == restarts
        digest = hashlib.sha256(json.dumps(run.to_json_dict()).encode())
        assert digest.hexdigest() == RESTART_DIGESTS[thread, machine]

    def test_every_restarted_thread_records_its_spawn(self):
        assert RESTARTED_THREADS == {
            (proc, thread) for proc, thread, restarts in RESTART_TARGETS
            if restarts
        }
        system = System(seed=7)
        boot_android(system)
        system.run_for(millis(100))         # system_server takes its name
        for proc, thread in RESTARTED_THREADS:
            task, = (
                task for task in system.kernel.find_process(proc).live_tasks()
                if task.name == thread
            )
            assert task.factory is not None


# ----------------------------------------------------------------------
# Concurrency: the injector and the calibration are per-system state,
# not process globals

#: One cell per thread: three plans plus a fault-free run that must not
#: fire anyone else's faults.  The 300 ms window covers every event of
#: these plans, including the chaos plan's restart.
THREADED_CELLS = (
    ("vlc.mp4.view", "chaos"),
    ("music.mp3.view", "binder-flaky"),
    ("vlc.mp4.view", "sf-kill"),
    ("doom.main", None),
)


#: One cell per thread: two device-class presets, a scaled calibration
#: and the fitted default, each of which must cost only its own run.
CALIBRATED_CELLS = (
    ("music.mp3.view", "lowend", calibration_preset("lowend")),
    ("vlc.mp4.view", "highend", calibration_preset("highend")),
    ("countdown.main", "scaled(3.0)", Calibration().scaled(3.0)),
    ("doom.main", "default", None),
)


def _threaded_config(
    plan: "str | None", calibration: "Calibration | None" = None
) -> RunConfig:
    return RunConfig(
        duration_ticks=millis(300),
        settle_ticks=millis(100),
        calibration=calibration,
        faults=fault_plan(plan) if plan is not None else None,
    )


def _assert_threads_match_serial(cells) -> None:
    """Run every ``(bench, cfg, label)`` cell on its own thread, three
    rounds over, and compare each with its serial run's bytes."""
    reference = [_bytes(execute_one(bench, cfg)) for bench, cfg, _ in cells]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _round in range(3):
            out: "list[bytes | Exception | None]" = [None] * len(cells)

            def work(index: int) -> None:
                bench, cfg, _ = cells[index]
                try:
                    out[index] = _bytes(execute_one(bench, cfg))
                except Exception as exc:  # reported by the assert below
                    out[index] = exc

            threads = [
                threading.Thread(target=work, args=(index,))
                for index in range(len(cells))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            for (bench, _, label), got, want in zip(cells, out, reference):
                assert got == want, f"{bench} under {label}: {got!r:.200}"
    finally:
        sys.setswitchinterval(interval)


def test_concurrent_runs_in_one_process_keep_their_own_faults():
    """Four runs on four threads, switching every 10 us, each reproduce
    the bytes of the same run done serially."""
    _assert_threads_match_serial([
        (bench, _threaded_config(plan), plan or "none")
        for bench, plan in THREADED_CELLS
    ])


def test_concurrent_runs_in_one_process_keep_their_own_calibration():
    """Four runs under four calibrations on four threads, switching every
    10 us, each reproduce the bytes of the same run done serially."""
    _assert_threads_match_serial([
        (bench, _threaded_config(None, calibration=cal), label)
        for bench, label, cal in CALIBRATED_CELLS
    ])


class _SlicedRun:
    """One benchmark driven the way the runner drives it (boot, settle,
    arm, launch), with the window advanced in caller-sized slices so a
    test can interleave several systems in one thread."""

    def __init__(self, bench_id: str, cfg: RunConfig) -> None:
        spec = get_benchmark(bench_id)
        self.system, stack, model = _prepared_system(spec, cfg)
        self.system.run_for(cfg.settle_ticks)
        self.injector = None
        if cfg.faults is not None:
            self.injector = FaultInjector(
                cfg.faults, bench_seed(bench_id, cfg), self.system
            )
            self.injector.arm(self.system.now)
        if spec.is_android:
            start_activity(stack, model, background=spec.background)
        else:
            model.launch(self.system)

    def finish(self) -> tuple:
        counters = None
        if self.injector is not None:
            counters = self.injector.counters()
            self.injector.disarm()
        profiler = self.system.profiler
        return (
            self.system.now,
            sorted(profiler.refs_by_thread.items()),
            sorted(profiler.instr_by_proc.items()),
            counters,
        )


def _run_sliced(cells, slices: int = 30, step: int = millis(10)) -> list:
    """Build every cell's run, then advance them round-robin, one slice
    each per round; returns each run's final state."""
    runs = [_SlicedRun(bench, cfg) for bench, cfg in cells]
    for _ in range(slices):
        for run in runs:
            run.system.run_for(step)
    return [run.finish() for run in runs]


class TestInjectorOwnership:
    def test_system_starts_with_no_injector(self):
        system = System(seed=5)
        assert system.faults is None
        boot_android(system)
        system.run_for(millis(50))
        assert system.faults is None

    def test_arm_attaches_to_its_system_and_disarm_detaches(self):
        system = System(seed=5)
        boot_android(system)
        injector = FaultInjector(fault_plan("chaos"), 5, system)
        injector.arm(system.now)
        assert system.faults is injector
        assert injector.next_due is not None
        injector.disarm()
        assert system.faults is None
        assert injector.next_due is None

    def test_arming_one_system_leaves_another_untouched(self):
        armed, bystander = System(seed=5), System(seed=5)
        boot_android(armed)
        boot_android(bystander)
        injector = FaultInjector(fault_plan("chaos"), 5, armed)
        injector.arm(armed.now)
        assert armed.faults is injector
        assert bystander.faults is None
        bystander.run_for(millis(300))
        assert bystander.faults is None
        assert injector.counters() == dict.fromkeys(COUNTER_KEYS, 0)
        injector.disarm()

    def test_disarm_undoes_an_open_throttle(self):
        system = System(seed=5, cpus=2)
        boot_android(system)
        before = [cpu.ticks_per_inst for cpu in system.cpus]
        injector = FaultInjector(fault_plan("throttle"), 5, system)
        injector.arm(system.now)
        system.run_for(millis(120))           # inside the 80..280 ms window
        assert [cpu.ticks_per_inst for cpu in system.cpus] == \
            [tpi * 3 for tpi in before]
        injector.disarm()
        assert [cpu.ticks_per_inst for cpu in system.cpus] == before

    @pytest.mark.parametrize("plan", plan_names())
    def test_interleaved_systems_match_their_solo_runs(self, plan):
        """A faulted system and a fault-free one, alternating 10 ms
        slices in one thread, each end exactly where they end alone:
        the engine and binder threads of each system see only that
        system's injector."""
        faulted = ("music.mp3.view", _threaded_config(plan))
        healthy = ("doom.main", _threaded_config(None))
        solo = [_run_sliced([faulted])[0], _run_sliced([healthy])[0]]
        assert sum(solo[0][3].values()) > 0    # the plan really fires
        assert _run_sliced([faulted, healthy]) == solo
        assert _run_sliced([healthy, faulted]) == solo[::-1]


def test_time_is_conserved_across_run_for_calls_under_faults():
    """Busy plus idle ticks equal the elapsed time on every CPU after
    every ``run_for`` call of a faulted window.  A task killed mid-block
    leaves its CPU without a task but busy to that block's end; when the
    end lies past a call's deadline, the clock must still land there."""
    cfg = RunConfig(
        duration_ticks=millis(300), settle_ticks=millis(100), seed=7, cpus=2,
        faults=fault_plan("chaos"),
    )
    run = _SlicedRun("odr.xls.view", cfg)
    system = run.system
    engine = system.engine
    start = system.clock.now
    busy = [cpu.busy_ticks for cpu in system.cpus]
    idle = list(engine.cpu_idle_ticks)
    for _ in range(6):
        system.run_for(millis(50))
        elapsed = system.clock.now - start
        assert [
            (cpu.busy_ticks - busy[i]) + (engine.cpu_idle_ticks[i] - idle[i])
            for i, cpu in enumerate(system.cpus)
        ] == [elapsed] * len(system.cpus)
    assert run.finish()[3]["threads_killed"] == 1


# ----------------------------------------------------------------------
# The sweep axis


class TestFaultsAxis:
    def test_parse_axis_maps_none_and_plan_names(self):
        axis = parse_axis("faults=none,binder-flaky,sf-kill")
        assert axis.name == "faults"
        assert axis.values == (None, "binder-flaky", "sf-kill")

    def test_unknown_plan_value_is_rejected_up_front(self):
        with pytest.raises(ConfigError, match="warp-core"):
            SweepAxis("faults", (None, "warp-core"))

    def test_apply_resolves_names_to_plans(self):
        axis = SweepAxis("faults", (None, "sf-kill"))
        assert axis.apply(FAST, None).faults is None
        assert axis.apply(FAST, "sf-kill").faults == fault_plan("sf-kill")


# ----------------------------------------------------------------------
# The fleet mix


class TestFleetFaultMix:
    def test_default_mix_keeps_historical_spec_bytes_and_fleet(self):
        """A spec that predates the fault axis must serialise (and
        digest) exactly as it always did, and its population report must
        keep its historical table shape."""
        spec = FleetSpec(devices=16)
        assert "fault_mix" not in spec.to_json_dict()
        assert spec.digest() == FleetSpec(
            devices=16, fault_mix=((None, 1.0),)
        ).digest()
        fleet = spec.sample()
        assert all(device.fault is None for device in fleet)
        assert all(device.config.faults is None for device in fleet)
        assert "fault" not in spec.population(fleet)

    def test_mixed_fleet_draws_plans_deterministically(self):
        spec = FleetSpec(
            devices=40,
            fault_mix=(("binder-flaky", 0.5), (None, 0.5)),
        )
        fleet = spec.sample()
        assert [d.fault for d in fleet] == [d.fault for d in spec.sample()]
        flaky = [d for d in fleet if d.fault == "binder-flaky"]
        clean = [d for d in fleet if d.fault is None]
        assert flaky and clean
        assert all(
            d.config.faults == fault_plan("binder-flaky") for d in flaky
        )
        assert all(d.config.faults is None for d in clean)
        table = spec.population(fleet)["fault"]
        assert table == {
            "binder-flaky": len(flaky), "none": len(clean)
        }
        assert "fault_mix" in spec.to_json_dict()

    def test_unknown_plan_in_mix_is_rejected(self):
        with pytest.raises(ConfigError, match="warp-core"):
            FleetSpec(devices=4, fault_mix=(("warp-core", 1.0),))

    def test_none_draws_keep_the_base_plan_and_machine(self):
        """``--faults chaos fleet ...`` with the default all-none fault
        and profile mixes runs chaos on every device's base machine."""
        base = RunConfig(
            duration_ticks=millis(400), settle_ticks=millis(200),
            cpus=4, cpu_profile="2+2", faults=fault_plan("chaos"),
        )
        for device in FleetSpec(devices=8, base=base).sample():
            assert device.config.faults == fault_plan("chaos")
            assert device.config.cpu_profile == "2+2"
            assert device.config.cpus == 4


# ----------------------------------------------------------------------
# Analysis: the absorbed-vs-amplified report and headline claims


@pytest.fixture(scope="module")
def fault_sweep():
    spec = SweepSpec(
        benches=("vlc.mp4.view",),
        axes=(SweepAxis("faults", (None, "binder-flaky", "sf-kill")),),
        base=FAST,
    )
    return SweepRunner(backend=SerialBackend()).run(spec)


class TestFaultAnalysis:
    def test_report_rows_and_verdicts(self, fault_sweep):
        rows = fault_report(fault_sweep)
        assert [row.plan for row in rows] == ["binder-flaky", "sf-kill"]
        by_plan = {row.plan: row for row in rows}
        assert by_plan["binder-flaky"].verdict == "absorbed"
        assert by_plan["sf-kill"].verdict == "amplified"
        assert by_plan["sf-kill"].frames_ratio < 0.75
        for row in rows:
            assert row.bench_id == "vlc.mp4.view"
            assert sum(row.counters.values()) > 0

    def test_render_is_a_table(self, fault_sweep):
        text = render_fault_report(fault_report(fault_sweep))
        lines = text.splitlines()
        assert lines[0].split()[:3] == ["benchmark", "context", "plan"]
        assert any("binder-flaky" in line for line in lines)
        assert any("amplified" in line for line in lines)

    def test_headline_claims_hold(self, fault_sweep):
        claims = evaluate_fault_claims(fault_sweep)
        assert [claim.claim_id for claim in claims] == [
            "fault-binder-absorbed", "fault-sf-kill-amplified",
        ]
        assert all(claim.holds for claim in claims)

    def test_spec_benches_fall_back_to_refs_delta(self):
        """No frame pipeline: the verdict comes from total references."""
        sweep = SweepRunner(backend=SerialBackend()).run(SweepSpec(
            benches=("999.specrand",),
            axes=(SweepAxis("faults", (None, "binder-flaky")),),
            base=FAST,
        ))
        (row,) = fault_report(sweep)
        assert row.frames_ratio is None
        assert row.verdict == "absorbed"
        with pytest.raises(AnalysisError, match="binder-flaky.*sf-kill"):
            evaluate_fault_claims(sweep)

    def test_report_labels_contexts_as_variants_do(self):
        """The context column used to print raw values (``jit=True``)
        where the variant labels and delta tables print ``jit=on``."""
        sweep = SweepRunner(backend=SerialBackend()).run(SweepSpec(
            benches=("999.specrand",),
            axes=(SweepAxis("jit", (True, False)),
                  SweepAxis("faults", (None, "binder-flaky"))),
            base=FAST,
        ))
        rows = fault_report(sweep)
        assert [row.context for row in rows] == ["jit=on", "jit=off"]
        assert "jit=off" in render_fault_report(rows)

    def test_report_needs_a_faults_axis(self):
        sweep = SweepRunner(backend=SerialBackend()).run(SweepSpec(
            benches=("countdown.main",),
            axes=(SweepAxis("seed", (1, 2)),),
            base=FAST,
        ))
        with pytest.raises(AnalysisError, match="faults"):
            fault_report(sweep)

    def test_report_needs_a_baseline_cell(self):
        sweep = SweepRunner(backend=SerialBackend()).run(SweepSpec(
            benches=("countdown.main",),
            axes=(SweepAxis("faults", ("binder-flaky",)),),
            base=FAST,
        ))
        with pytest.raises(AnalysisError, match="baseline"):
            fault_report(sweep)
