"""Every run boots its own system: seed derivation, isolation between
systems in one process, boot determinism, and same-seed runs in one
process.

A run is a pure function of ``(bench_id, RunConfig)``.  Within one
process that rests on four properties pinned here: the per-benchmark
seed depends only on the base seed and the bench id; two booted systems
share no mutable object, so driving one never moves another; the run's
calibration rides on its own system, so a run driven step by step from
``_prepared_system`` matches :func:`execute_one`; and a run of one
(bench, seed) under a variant config retires the same bytes whether or
not a base-config run of that (bench, seed) came first in the process.
"""

from __future__ import annotations

import json

import pytest

from repro.android.app import start_activity
from repro.calibration import Calibration, calibration_preset
from repro.core import RunConfig, execute_one
from repro.core.runner import _prepared_system, bench_seed
from repro.core.suite import benchmarks, get_benchmark
from repro.faults import fault_plan
from repro.sim.ticks import millis

FAST = RunConfig(duration_ticks=millis(50), settle_ticks=millis(20))
AGAVE = "music.mp3.view"
SPEC = "429.mcf"
BENCHES = (AGAVE, SPEC)


def _result_bytes(bench_id: str, cfg: RunConfig) -> bytes:
    return json.dumps(execute_one(bench_id, cfg).to_json_dict(),
                      sort_keys=True).encode()


def _boot(bench_id: str, cfg: RunConfig = FAST):
    return _prepared_system(get_benchmark(bench_id), cfg)


def _state(system) -> tuple:
    """A value-level picture of a system: clock, process and task
    tables, every mapping, and the profiler's per-thread counts."""
    procs = system.kernel.processes
    return (
        system.now,
        [(p.pid, p.full_name, p.alive) for p in procs],
        [(t.tid, t.name, t.state.name, t.cpu_ticks, t.vruntime)
         for p in procs for t in p.tasks],
        [(v.start, v.end, v.label) for p in procs if p.mm is not None
         for v in p.mm],
        sorted(system.profiler.refs_by_thread.items()),
    )


# ----------------------------------------------------------------------
# (a) The per-benchmark seed: base seed and bench id, nothing else


def test_bench_seed_differs_for_every_benchmark():
    seeds = {bench_seed(spec.bench_id, FAST) for spec in benchmarks()}
    assert len(seeds) == len(benchmarks())


def test_bench_seed_follows_the_base_seed():
    seeds = {bench_seed(AGAVE, RunConfig(seed=s)) for s in range(1, 9)}
    assert len(seeds) == 8


@pytest.mark.parametrize(
    "variant",
    [
        FAST.scaled(4.0),
        RunConfig(duration_ticks=FAST.duration_ticks, settle_ticks=0),
        RunConfig(jit_enabled=False),
        RunConfig(cpus=4),
        RunConfig(cpus=4, cpu_profile="2+2"),
        RunConfig(calibration=Calibration().scaled(2.0)),
        RunConfig(faults=fault_plan("chaos")),
    ],
    ids=["duration", "settle", "jit", "cpus", "cpu_profile", "calibration",
         "faults"],
)
def test_bench_seed_ignores_non_seed_knobs(variant):
    """Non-seed variants of one (bench, seed) boot from the same seed:
    that is why a faulted cell shares its boot with the fault-free
    baseline, and why the same-seed runs below calibrate alike."""
    assert variant.seed == FAST.seed
    for bench_id in BENCHES:
        assert bench_seed(bench_id, variant) == bench_seed(bench_id, FAST)


# ----------------------------------------------------------------------
# (b) Isolation: two booted systems share nothing mutable


@pytest.mark.parametrize("bench_id", BENCHES)
def test_two_boots_are_distinct_graphs(bench_id):
    sys_a, stack_a, model_a = _boot(bench_id)
    sys_b, stack_b, model_b = _boot(bench_id)
    for attr in ("kernel", "clock", "profiler", "engine", "fs"):
        assert getattr(sys_a, attr) is not getattr(sys_b, attr), attr
    assert stack_a is not stack_b
    assert model_a is not model_b
    procs_a = [p.full_name for p in sys_a.kernel.live_processes()]
    procs_b = [p.full_name for p in sys_b.kernel.live_processes()]
    assert procs_a == procs_b and len(procs_a) >= 20


@pytest.mark.parametrize("bench_id", BENCHES)
def test_two_boots_share_no_mutable_state(bench_id):
    """Processes, address spaces, mappings, tasks, behaviour generators
    and CPUs are all private to their system: no object of one boot is
    reachable from the other's tables."""
    sys_a, _, _ = _boot(bench_id)
    sys_b, _, _ = _boot(bench_id)

    def objects(system):
        found = {id(cpu) for cpu in system.cpus}
        for proc in system.kernel.processes:
            found.add(id(proc))
            for task in proc.tasks:
                found.update((id(task), id(task.behavior)))
            if proc.mm is not None:
                found.add(id(proc.mm))
                found.update(id(vma) for vma in proc.mm)
        found.discard(id(None))
        return found

    assert not objects(sys_a) & objects(sys_b)


@pytest.mark.parametrize("bench_id", BENCHES)
def test_running_one_boot_leaves_its_sibling_untouched(bench_id):
    sys_a, _, _ = _boot(bench_id)
    sys_b, _, _ = _boot(bench_id)
    t0 = sys_b.now
    before = _state(sys_b)
    sys_a.run_for(millis(30))
    assert sys_a.now > t0
    assert _state(sys_b) == before
    # A third boot still starts from the same point.
    sys_c, _, _ = _boot(bench_id)
    assert _state(sys_c) == before


@pytest.mark.parametrize("bench_id", BENCHES)
def test_run_after_sibling_mutation_matches_fresh(bench_id):
    """Driving a system forward moves no module-level state a later
    run could see."""
    fresh = _result_bytes(bench_id, FAST)
    sys_a, _, _ = _boot(bench_id)
    sys_a.run_for(millis(40))
    assert _result_bytes(bench_id, FAST) == fresh


# ----------------------------------------------------------------------
# (c) Determinism: boot and settle are a pure function of the config


@pytest.mark.parametrize(
    "cfg",
    [FAST, RunConfig(duration_ticks=FAST.duration_ticks,
                     settle_ticks=FAST.settle_ticks, cpus=4,
                     cpu_profile="2+2")],
    ids=["cpus1", "biglittle"],
)
@pytest.mark.parametrize("bench_id", BENCHES)
def test_two_boots_match_at_the_settle_point(bench_id, cfg):
    states = []
    for _ in range(2):
        system, _, _ = _boot(bench_id, cfg)
        system.run_for(cfg.settle_ticks)
        states.append(_state(system))
    assert states[0] == states[1]
    assert states[0][0] >= cfg.settle_ticks


def test_stepwise_run_from_prepared_system_matches_execute_one():
    """``_prepared_system`` boots under ``cfg.calibration`` itself, so a
    run driven step by step from it retires what :func:`execute_one`
    does under a calibration preset."""
    cfg = RunConfig(duration_ticks=millis(300), settle_ticks=millis(200),
                    calibration=calibration_preset("lowend"))
    spec = get_benchmark(AGAVE)
    system, stack, model = _prepared_system(spec, cfg)
    system.run_for(cfg.settle_ticks)
    system.profiler.reset()
    start_activity(stack, model, background=spec.background)
    system.run_for(cfg.duration_ticks)
    assert (dict(system.profiler.refs_by_thread)
            == execute_one(AGAVE, cfg).refs_by_thread)


# ----------------------------------------------------------------------
# (d) Same-seed runs: a base run first leaves nothing a variant sees


@pytest.mark.parametrize(
    "variant",
    [
        RunConfig(duration_ticks=FAST.duration_ticks,
                  settle_ticks=FAST.settle_ticks, jit_enabled=False),
        FAST.scaled(2.0),
        RunConfig(duration_ticks=FAST.duration_ticks, settle_ticks=0),
        RunConfig(duration_ticks=FAST.duration_ticks,
                  settle_ticks=FAST.settle_ticks,
                  calibration=Calibration().scaled(2.0)),
        RunConfig(duration_ticks=FAST.duration_ticks,
                  settle_ticks=FAST.settle_ticks, cpus=4),
        RunConfig(duration_ticks=FAST.duration_ticks,
                  settle_ticks=FAST.settle_ticks, cpus=4, cpu_profile="2+2"),
        RunConfig(duration_ticks=FAST.duration_ticks,
                  settle_ticks=FAST.settle_ticks, faults=fault_plan("chaos")),
    ],
    ids=["jit", "duration", "settle", "calibration", "cpus", "cpu_profile",
         "faults"],
)
@pytest.mark.parametrize("bench_id", BENCHES)
def test_memo_hit_under_a_variant_matches_a_cold_run(bench_id, variant):
    """Run the variant on its own, then the base config at the same
    (bench, seed), then the variant again: both variant runs retire the
    same bytes.  The name is kept from the SPEC calibration memo such
    runs once shared."""
    cold = _result_bytes(bench_id, variant)
    execute_one(bench_id, FAST)
    assert _result_bytes(bench_id, variant) == cold
