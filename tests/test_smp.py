"""SMP simulation: multi-core determinism, single-core byte-identity,
per-CPU accounting, and the cpus sweep/CLI dimension."""

import hashlib
import json

import pytest

from repro.core import ResultCache, RunConfig, SuiteRunner, execute_one
from repro.core.sweep import SweepAxis, SweepRunner, SweepSpec, parse_axis
from repro.errors import ConfigError
from repro.sim.ops import ExecBlock, Sleep
from repro.sim.system import System
from repro.sim.ticks import millis, seconds

QUICK = RunConfig(duration_ticks=millis(600), settle_ticks=millis(200))


def _result_sha(run) -> str:
    payload = json.dumps(run.to_json_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# cpus=1 equivalence: the SMP engine must replay the single-core engine
# byte-for-byte, and single-core configs must hit the same cache keys.


def test_cpus_default_omitted_from_config_json():
    """cpus=1 must serialise to the pre-SMP config JSON (same cache keys)."""
    raw = RunConfig().to_json_dict()
    assert "cpus" not in raw
    assert RunConfig(cpus=1).to_json_dict() == raw
    assert "cpus" in RunConfig(cpus=2).to_json_dict()


def test_cpus1_cache_key_matches_pre_smp_engine():
    """The exact key the pre-SMP engine produced for this config.

    Locks the key format: a cpus=1 run must keep hitting cache entries
    written before the SMP dimension existed.
    """
    cfg = RunConfig(
        duration_ticks=seconds(1), settle_ticks=millis(200), seed=4242
    )
    assert ResultCache.key("countdown.main", cfg) == (
        "3d8e8f5367c9ce3e61e257858c6a2991f2782d8ca087038a78aefd154c8f2252"
    )


def test_cpus1_results_match_pre_smp_engine_golden():
    """Byte-identity with the seed (pre-refactor) engine, via recorded
    result hashes."""
    cfg = RunConfig(
        duration_ticks=seconds(1), settle_ticks=millis(200), seed=4242
    )
    golden = {
        "countdown.main":
            "eb2444f9e8e17285f5356e9488660506061424e9199e75eced1342c4d5843e0e",
        "music.mp3.view":
            "c638a9c7e43ef54dac3854d82e6cf8c369c0a265806e54d636ac47c40b354e0e",
    }
    for bench_id, want in golden.items():
        assert _result_sha(execute_one(bench_id, cfg)) == want, bench_id


def test_cpus1_result_json_carries_no_smp_keys(quick_suite):
    run = quick_suite.get("countdown.main")
    raw = run.to_json_dict()
    for key in ("cpus", "instr_by_cpu", "data_by_cpu",
                "busy_ticks_by_cpu", "any_busy_ticks"):
        assert key not in raw
    # ... but the derived views still answer sensibly.
    assert run.refs_by_cpu() == {0: run.total_refs}
    assert run.tlp() == 1.0


def test_system_rejects_zero_cpus():
    with pytest.raises(ValueError):
        System(cpus=0)
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"cpus": 0})


# ---------------------------------------------------------------------------
# Symmetric-default equivalence: the CFS/big.LITTLE refactor must leave
# the default (no cpu_profile) path byte-identical at every core count.


def test_symmetric_cpus4_results_match_pre_cfs_golden():
    """Byte-identity of the default symmetric 4-core path with the PR 4
    engine, via recorded result hashes (the round-robin policy is the
    default; CFS only engages under a cpu_profile)."""
    cfg = RunConfig(
        duration_ticks=seconds(1), settle_ticks=millis(200), seed=4242,
        cpus=4,
    )
    golden = {
        "countdown.main":
            "87d448695a4c20a7eae86995ee6a9968b45eb851ac0f10e65f5dc602647409f1",
        "music.mp3.view":
            "8f9b8eec87ef48031ba68b2471db46051a96950b233e136371b5187d47278849",
    }
    for bench_id, want in golden.items():
        assert _result_sha(execute_one(bench_id, cfg)) == want, bench_id


def test_symmetric_cpus4_cache_key_matches_pre_cfs_engine():
    """A profile-less cpus=4 config keeps hitting the cache entries the
    PR 4 engine wrote (cpu_profile omitted from the config JSON)."""
    cfg = RunConfig(
        duration_ticks=seconds(1), settle_ticks=millis(200), seed=4242,
        cpus=4,
    )
    assert ResultCache.key("countdown.main", cfg) == (
        "26c127bc3a9b5716879e86670e3aff356f35abc2ff9df38b0509997e9f52aa71"
    )


#: ``(sorted digest, saved-bytes digest)`` per machine and benchmark,
#: recorded before the engine's idle path parked every due idle CPU in
#: one pass.  The second digest hashes ``json.dumps`` without
#: ``sort_keys``: the bytes ``SuiteResult.save`` writes.  It is the only
#: one that sees the first-charge order of ``instr_by_cpu`` and
#: ``refs_by_thread``, which moves if idle CPUs are charged out of turn.
_IDLE_PATH_GOLDEN = {
    "2+2 chaos": {
        "countdown.main": (
            "290c3c1c1a047a340502d055008201b10874862eb1d9c38490dfeb4a11dd123f",
            "7bc02bbf163004c8bd12e73aaea3e4177037432edaccf3ff59873f6012964cf4",
        ),
        "music.mp3.view": (
            "31a346d34fbbf0a798b3f1e05278f9c16d50307866838ad4fdc449da8581adcc",
            "7d7230d50cb6ad931287882425e6db1be0c8f087600b2521ad1e1840fe87449e",
        ),
    },
    "cpus=1": {
        "countdown.main": (
            "eb2444f9e8e17285f5356e9488660506061424e9199e75eced1342c4d5843e0e",
            "057727aa03d0ac1dea0635fd0153a40289b977ebefb03fab650c4ef30a3231bd",
        ),
        "music.mp3.view": (
            "c638a9c7e43ef54dac3854d82e6cf8c369c0a265806e54d636ac47c40b354e0e",
            "d9e9c4047eab67235fdcbfd660be0c14a89e9eb9e1626a1bc34baf800f6ab35c",
        ),
    },
    "cpus=3": {
        "countdown.main": (
            "b6824427f5515e1ece4c5da7184ec305b54e42bf7f3fcb1b283944773ac2ec14",
            "6a7fbcbdadccc665146de1a1b222d98984ce133fb102fe723584b28fc9251f2f",
        ),
        "music.mp3.view": (
            "104f27580cd96849000f88175ece8d792e5d65e0ad9d0135f44c840a6ff614a5",
            "b637e1a7b2964e1a8d4f96e4bf2d4a5bbc674b74ef9de80d0c489f0dc418af6a",
        ),
    },
}


@pytest.mark.parametrize("machine", sorted(_IDLE_PATH_GOLDEN))
def test_smp_idle_path_results_match_golden(machine):
    """Byte-identity of SMP runs, CFS big.LITTLE under faults and
    symmetric round-robin, and of single-CPU runs, down to the dict
    order of the saved JSON.  Never skipped: a change that moves these
    results must re-record them with an explanation."""
    from repro.faults.plan import fault_plan

    base = dict(duration_ticks=seconds(1), settle_ticks=millis(200),
                seed=4242)
    cfg = {
        "2+2 chaos": RunConfig(**base, cpus=4, cpu_profile="2+2",
                               faults=fault_plan("chaos")),
        "cpus=1": RunConfig(**base),
        "cpus=3": RunConfig(**base, cpus=3),
    }[machine]
    for bench_id, (want_sorted, want_saved) in _IDLE_PATH_GOLDEN[machine].items():
        run = execute_one(bench_id, cfg)
        saved = json.dumps(run.to_json_dict()).encode("utf-8")
        assert _result_sha(run) == want_sorted, bench_id
        assert hashlib.sha256(saved).hexdigest() == want_saved, bench_id


def test_cpu_profile_default_omitted_from_config_json():
    """cpu_profile=None must serialise to the pre-big.LITTLE JSON (same
    cache keys), at every core count."""
    for cfg in (RunConfig(), RunConfig(cpus=4)):
        assert "cpu_profile" not in cfg.to_json_dict()
    raw = RunConfig(cpus=4, cpu_profile="2+2").to_json_dict()
    assert raw["cpu_profile"] == "2+2"
    assert RunConfig.from_json_dict(raw) == RunConfig(cpus=4, cpu_profile="2+2")


def test_config_rejects_profile_cpus_mismatch():
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"cpus": 2, "cpu_profile": "2+2"})
    with pytest.raises(ConfigError):
        RunConfig.from_json_dict({"cpus": 4, "cpu_profile": "banana"})
    with pytest.raises(ValueError):
        System(cpus=2, cpu_profile="2+2")


# ---------------------------------------------------------------------------
# cpu_profile: asymmetric cores shift attribution, deterministically


@pytest.fixture(scope="module")
def biglittle_agave():
    """One multithreaded Agave benchmark on a 2+2 big.LITTLE machine."""
    cfg = RunConfig(duration_ticks=QUICK.duration_ticks,
                    settle_ticks=QUICK.settle_ticks, cpus=4,
                    cpu_profile="2+2")
    return execute_one("music.mp3.view", cfg)


def test_biglittle_run_is_deterministic(biglittle_agave):
    cfg = RunConfig(duration_ticks=QUICK.duration_ticks,
                    settle_ticks=QUICK.settle_ticks, cpus=4,
                    cpu_profile="2+2")
    again = execute_one("music.mp3.view", cfg)
    assert json.dumps(again.to_json_dict(), sort_keys=True) == json.dumps(
        biglittle_agave.to_json_dict(), sort_keys=True
    )


def test_biglittle_attribution_differs_from_symmetric(smp_agave,
                                                      biglittle_agave):
    """Same benchmark, same core count: the asymmetric profile produces
    a measurably different per-CPU attribution, with the big cluster
    (twice the clock + pinned service threads) carrying the bulk."""
    assert biglittle_agave.cpus == smp_agave.cpus == 4
    assert biglittle_agave.refs_by_cpu() != smp_agave.refs_by_cpu()
    assert biglittle_agave.busy_ticks_by_cpu != smp_agave.busy_ticks_by_cpu
    assert biglittle_agave.big_cpu_ids() == [0, 1]
    assert biglittle_agave.big_refs_share() > 0.6
    # References stay a partition of the totals under CFS too.
    assert sum(biglittle_agave.instr_by_cpu.values()) == \
        biglittle_agave.total_instr
    assert sum(biglittle_agave.data_by_cpu.values()) == \
        biglittle_agave.total_data


def test_biglittle_result_roundtrips_with_profile(biglittle_agave):
    from repro.core import RunResult

    raw = biglittle_agave.to_json_dict()
    assert raw["cpu_profile"] == "2+2" and raw["cpus"] == 4
    back = RunResult.from_json_dict(json.loads(json.dumps(raw)))
    assert back == biglittle_agave
    assert back.big_refs_share() == biglittle_agave.big_refs_share()


def test_profile_changes_cache_key():
    sym = RunConfig(duration_ticks=seconds(1), cpus=4)
    asym = RunConfig(duration_ticks=seconds(1), cpus=4, cpu_profile="2+2")
    assert ResultCache.key("countdown.main", sym) != \
        ResultCache.key("countdown.main", asym)


def test_system_big_cpu_helper():
    assert System(cpus=4).big_cpu() is None                      # symmetric
    assert System(cpus=2, cpu_profile="2+0").big_cpu() is None   # all big
    assert System(cpus=2, cpu_profile="0+2").big_cpu() is None   # all LITTLE
    bl = System(cpus=4, cpu_profile="2+2")
    assert bl.big_cpu(0) == 0 and bl.big_cpu(1) == 1
    assert bl.big_cpu(2) == 0                                    # wraps


# ---------------------------------------------------------------------------
# cpus>1: determinism, conservation, and per-CPU accounting


@pytest.fixture(scope="module")
def smp_agave():
    """One multithreaded Agave benchmark at cpus=4."""
    cfg = RunConfig(duration_ticks=QUICK.duration_ticks,
                    settle_ticks=QUICK.settle_ticks, cpus=4)
    return execute_one("music.mp3.view", cfg)


@pytest.fixture(scope="module")
def smp_spec():
    """One SPEC baseline at cpus=4 (short window: SPEC is ref-dense)."""
    cfg = RunConfig(duration_ticks=millis(150), settle_ticks=millis(100),
                    cpus=4)
    return execute_one("999.specrand", cfg)


def test_smp_run_is_deterministic(smp_agave):
    cfg = RunConfig(duration_ticks=QUICK.duration_ticks,
                    settle_ticks=QUICK.settle_ticks, cpus=4)
    again = execute_one("music.mp3.view", cfg)
    assert json.dumps(again.to_json_dict(), sort_keys=True) == json.dumps(
        smp_agave.to_json_dict(), sort_keys=True
    )


def test_smp_references_conserved(smp_agave):
    """Per-CPU attribution is a partition of the totals, never a leak."""
    assert sum(smp_agave.instr_by_cpu.values()) == smp_agave.total_instr
    assert sum(smp_agave.data_by_cpu.values()) == smp_agave.total_data
    assert sum(smp_agave.refs_by_cpu().values()) == smp_agave.total_refs


def test_smp_busy_accounting_is_coherent(smp_agave):
    """The busy-interval union is bounded by the per-CPU sum (they are
    equal only when nothing ever overlapped) and no single CPU is busy
    longer than the union."""
    busy = smp_agave.busy_ticks_by_cpu
    assert set(busy) == {0, 1, 2, 3}
    assert 0 < smp_agave.any_busy_ticks <= sum(busy.values())
    assert max(busy.values()) <= smp_agave.any_busy_ticks
    assert 1.0 <= smp_agave.tlp() <= 4.0


def test_agave_workload_spreads_across_cpus(smp_agave):
    """The multithreaded Android stack shows real TLP at cpus=4."""
    refs = smp_agave.refs_by_cpu()
    assert sum(1 for v in refs.values() if v > 0) >= 2
    assert smp_agave.tlp() > 1.0
    # No one CPU owns everything: the stack's helper threads moved off
    # the boot CPU.
    assert max(refs.values()) < smp_agave.total_refs


def test_spec_workload_stays_serial(smp_spec):
    """A single-threaded SPEC binary cannot use the extra cores."""
    refs = smp_spec.refs_by_cpu()
    assert max(refs.values()) / sum(refs.values()) > 0.95
    assert smp_spec.tlp() < 1.1


def test_concurrency_varies_with_core_count():
    """Core count is a real dimension of the result, not a label: the
    same workload behaves differently at cpus=2 vs cpus=4."""
    base = dict(duration_ticks=QUICK.duration_ticks,
                settle_ticks=QUICK.settle_ticks)
    two = execute_one("music.mp3.view", RunConfig(cpus=2, **base))
    four = execute_one("music.mp3.view", RunConfig(cpus=4, **base))
    assert two.cpus == 2 and four.cpus == 4
    assert set(two.refs_by_cpu()) == {0, 1}
    assert two.refs_by_cpu() != four.refs_by_cpu()
    assert two.busy_ticks_by_cpu != four.busy_ticks_by_cpu


def test_smp_result_roundtrips_through_json(smp_agave, tmp_path):
    from repro.core import RunResult

    raw = smp_agave.to_json_dict()
    assert raw["cpus"] == 4
    back = RunResult.from_json_dict(json.loads(json.dumps(raw)))
    assert back == smp_agave
    assert back.busy_ticks_by_cpu == smp_agave.busy_ticks_by_cpu


def test_smp_engine_throughput_scales():
    """Four CPU-bound spinners finish ~4x the work on four cores."""

    def spin(task):
        for _ in range(4_000):
            yield ExecBlock(0xC010_0000, 1_000)

    def run(cpus):
        system = System(seed=3, cpus=cpus)
        system.boot_kernel()
        for i in range(4):
            system.kernel.spawn_process(f"spin{i}", behavior=spin)
        system.run_for(millis(3))
        return system

    one = run(1)
    four = run(4)
    assert four.profiler.total_instr > 3 * one.profiler.total_instr
    # All four cores pulled weight, and idle shrank with the added cores.
    busy = [cpu.busy_ticks for cpu in four.cpus]
    assert all(b > 0 for b in busy)
    assert four.engine.any_busy_ticks >= max(busy)


# ---------------------------------------------------------------------------
# Scheduler policy: placement, affinity, pulls


def test_affinity_pins_placement_and_blocks_stealing():
    from repro.kernel.sched import Scheduler
    from repro.kernel.task import Process, Task, TaskState

    sched = Scheduler(cpus=2)
    proc = Process(1, "p", mm=None)

    def make(name, affinity=None):
        task = Task(1, name, proc, behavior=None, sched=sched)
        task.affinity = affinity
        task.state = TaskState.RUNNABLE
        proc.tasks.append(task)
        return task

    pinned = make("pinned", affinity=1)
    sched.enqueue(pinned)
    assert sched.runq_len(1) == 1 and sched.runq_len(0) == 0
    # CPU 0 idles but may not steal a task pinned to CPU 1.
    assert sched.pick(0) is None
    assert sched.pick(1) is pinned

    free = make("free")
    sched.enqueue(free)          # idlest placement: both empty -> cpu 0
    assert sched.runq_len(0) == 1
    # CPU 1 pulls the unpinned waiter when its own queue runs dry.
    assert sched.pick(1) is free
    assert sched.migrations == 1


def test_idlest_queue_placement_prefers_last_cpu():
    from repro.kernel.sched import Scheduler
    from repro.kernel.task import Process, Task, TaskState

    sched = Scheduler(cpus=3)
    proc = Process(1, "p", mm=None)
    task = Task(1, "t", proc, behavior=None, sched=sched)
    proc.tasks.append(task)
    task.state = TaskState.RUNNABLE
    task.last_cpu = 2
    sched.enqueue(task)          # all queues tie at 0 -> warm cpu 2 wins
    assert sched.runq_len(2) == 1


def test_periodic_balance_evens_queues():
    from repro.kernel.sched import Scheduler
    from repro.kernel.task import Process, Task, TaskState

    sched = Scheduler(cpus=2)
    proc = Process(1, "p", mm=None)
    for i in range(4):
        task = Task(i, f"t{i}", proc, behavior=None, sched=sched)
        proc.tasks.append(task)
        task.state = TaskState.RUNNABLE
        task.affinity = 0        # force them all onto cpu 0 first
        sched.enqueue(task)
        task.affinity = None     # ... then let the balancer move them
    assert sched.runq_len(0) == 4
    moved = sched.balance()
    assert moved == 1 or sched.runq_len(0) - sched.runq_len(1) <= 1
    while sched.runq_len(0) - sched.runq_len(1) >= 2:
        assert sched.balance() > 0
    assert abs(sched.runq_len(0) - sched.runq_len(1)) <= 1


def test_out_of_range_affinity_degrades_to_unpinned():
    """A 4-core pin carried onto a 2-core machine must behave like a
    free task everywhere: idlest placement AND stealable, never placed
    free but unmigratable."""
    from repro.kernel.sched import Scheduler
    from repro.kernel.task import Process, Task, TaskState

    sched = Scheduler(cpus=2)
    proc = Process(1, "p", mm=None)
    task = Task(1, "t", proc, behavior=None, sched=sched)
    proc.tasks.append(task)
    task.state = TaskState.RUNNABLE
    task.affinity = 7
    sched.enqueue(task)
    assert sched.runq_len(0) == 1            # idlest placement, not cpu 7
    assert sched.pick(1) is task             # and still pullable
    assert sched.migrations == 1


def test_single_cpu_scheduler_never_balances():
    from repro.kernel.sched import Scheduler

    sched = Scheduler(cpus=1)
    assert sched.balance() == 0
    assert sched.migrations == 0


# ---------------------------------------------------------------------------
# The cpus sweep axis


def test_cpus_axis_parses_and_validates():
    axis = parse_axis("cpus=1,2,4")
    assert axis.name == "cpus" and axis.values == (1, 2, 4)
    with pytest.raises(ConfigError):
        SweepAxis("cpus", (0,))
    with pytest.raises(ConfigError):
        SweepAxis("cpus", (1.5,))
    with pytest.raises(ConfigError):
        SweepAxis("cpus", (True,))


def test_cpu_profile_axis_parses_and_applies():
    axis = parse_axis("cpu_profile=none,2+2")
    assert axis.name == "cpu_profile" and axis.values == (None, "2+2")
    base = RunConfig(cpus=4)
    sym = axis.apply(base, None)
    assert sym.cpu_profile is None and sym.cpus == 4
    asym = axis.apply(base, "2+2")
    # A profile pins the core count to its own total.
    assert asym.cpu_profile == "2+2" and asym.cpus == 4
    assert axis.apply(RunConfig(), "1+2").cpus == 3
    with pytest.raises(ConfigError):
        SweepAxis("cpu_profile", ("nonsense",))
    with pytest.raises(ConfigError):
        SweepAxis("cpu_profile", (4,))


def test_cpu_profile_axis_sweep_labels_and_cells(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = SweepSpec(
        benches=("countdown.main",),
        axes=(SweepAxis("cpu_profile", (None, "1+1")),),
        base=RunConfig(duration_ticks=millis(300), settle_ticks=millis(150),
                       cpus=2),
    )
    result = SweepRunner(cache=cache).run(spec)
    assert set(result.variants()) == {"cpu_profile=none", "cpu_profile=1+1"}
    sym = result.get("countdown.main", "cpu_profile=none")
    asym = result.get("countdown.main", "cpu_profile=1+1")
    assert sym.cpu_profile is None and asym.cpu_profile == "1+1"
    assert cache.misses == 2          # distinct keys per profile
    rerun = SweepRunner(cache=ResultCache(str(tmp_path))).run(spec)
    assert rerun.to_json_dict() == result.to_json_dict()


def test_per_cpu_sweep_metrics_resolve():
    from repro.analysis.sweep import resolve_metric
    from repro.errors import AnalysisError

    run = execute_one(
        "countdown.main",
        RunConfig(duration_ticks=millis(300), settle_ticks=millis(150),
                  cpus=2, cpu_profile="1+1"),
    )
    refs = run.refs_by_cpu()
    total = sum(refs.values())
    assert resolve_metric("cpu0_refs")(run) == float(refs.get(0, 0))
    assert resolve_metric("cpu1_share")(run) == pytest.approx(
        100.0 * refs.get(1, 0) / total
    )
    assert resolve_metric("cpu0_busy")(run) == float(
        run.busy_ticks_by_cpu.get(0, 0)
    )
    assert resolve_metric("big_refs_share")(run) == pytest.approx(
        100.0 * run.big_refs_share()
    )
    with pytest.raises(AnalysisError):
        resolve_metric("cpu_share")
    with pytest.raises(AnalysisError):
        resolve_metric("nonsense")


def test_cpus_axis_sweep_runs_and_caches_per_core_count(tmp_path):
    cache = ResultCache(str(tmp_path))
    spec = SweepSpec(
        benches=("countdown.main",),
        axes=(SweepAxis("cpus", (1, 2)),),
        base=RunConfig(duration_ticks=millis(300), settle_ticks=millis(150)),
    )
    result = SweepRunner(cache=cache).run(spec)
    assert set(result.variants()) == {"cpus=1", "cpus=2"}
    one = result.get("countdown.main", "cpus=1")
    two = result.get("countdown.main", "cpus=2")
    assert one.cpus == 1 and two.cpus == 2
    assert "cpus" not in one.to_json_dict() and two.to_json_dict()["cpus"] == 2
    # Distinct cache keys per core count, and both were stored.
    assert cache.misses == 2
    rerun = SweepRunner(cache=ResultCache(str(tmp_path))).run(spec)
    assert rerun.to_json_dict() == result.to_json_dict()


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_cpus_flag_and_smp_report(tmp_path, capsys):
    from repro.__main__ import main

    out_path = str(tmp_path / "smp.json")
    assert main([
        "--duration", "0.3", "--settle-ms", "150", "--cpus", "2",
        "suite", "--bench", "countdown.main", "--out", out_path,
    ]) == 0
    capsys.readouterr()
    assert main(["smp", "--results", out_path]) == 0
    report = capsys.readouterr().out
    assert "TLP" in report and "cpu1" in report
    assert "countdown.main" in report


def test_cli_rejects_bad_cpus(capsys):
    from repro.__main__ import main

    assert main(["--cpus", "0", "suite", "--bench", "countdown.main"]) == 2
    assert "--cpus" in capsys.readouterr().err


def test_cli_cpu_profile_flag_and_smp_report(tmp_path, capsys):
    from repro.__main__ import main

    out_path = str(tmp_path / "bl.json")
    # --cpus derives from the profile when omitted.
    assert main([
        "--duration", "0.3", "--settle-ms", "150", "--cpu-profile", "2+2",
        "suite", "--bench", "countdown.main", "--out", out_path,
    ]) == 0
    capsys.readouterr()
    assert main(["smp", "--results", out_path]) == 0
    report = capsys.readouterr().out
    assert "profile" in report and "2+2" in report and "big %" in report


def test_cli_rejects_profile_cpus_mismatch(capsys):
    from repro.__main__ import main

    assert main([
        "--cpus", "2", "--cpu-profile", "2+2",
        "suite", "--bench", "countdown.main",
    ]) == 2
    err = capsys.readouterr().err
    assert "--cpu-profile" in err

    assert main([
        "--cpu-profile", "banana", "suite", "--bench", "countdown.main",
    ]) == 2
    assert "profile" in capsys.readouterr().err
