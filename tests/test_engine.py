"""Engine semantics: execution, blocking, sleeping, idle accounting."""

from repro.kernel.syscalls import kernel_exec
from repro.sim.ops import Block, ExecBlock, Sleep, SleepUntil, YIELD
from repro.sim.system import System
from repro.sim.ticks import millis, seconds


def test_execblock_advances_clock(cold_system):
    sys_ = cold_system
    sys_.boot_kernel()

    def worker(task):
        yield ExecBlock(0xC010_0000, 1_000)

    sys_.kernel.spawn_process("w", behavior=worker)
    sys_.run_for(millis(1))
    assert sys_.cpu.insts_retired >= 1_000


def test_sleep_wakes_at_deadline(cold_system):
    sys_ = cold_system
    sys_.boot_kernel()
    seen = []

    def worker(task):
        yield Sleep(millis(5))
        seen.append(sys_.clock.now)

    sys_.kernel.spawn_process("w", behavior=worker)
    sys_.run_for(millis(10))
    assert seen and seen[0] >= millis(5)


def test_sleep_until_past_is_noop(cold_system):
    sys_ = cold_system
    sys_.boot_kernel()
    steps = []

    def worker(task):
        yield SleepUntil(0)  # already past
        steps.append("ran")

    sys_.kernel.spawn_process("w", behavior=worker)
    sys_.run_for(millis(1))
    assert steps == ["ran"]


def test_block_and_wake(cold_system):
    sys_ = cold_system
    sys_.boot_kernel()
    q = sys_.kernel.new_waitq("test")
    order = []

    def sleeper(task):
        order.append("block")
        yield Block(q)
        order.append("woken")

    def waker(task):
        yield Sleep(millis(2))
        q.wake_all()
        order.append("woke-them")

    sys_.kernel.spawn_process("sleeper", behavior=sleeper)
    sys_.kernel.spawn_process("waker", behavior=waker)
    sys_.run_for(millis(5))
    assert order == ["block", "woke-them", "woken"]


def test_yield_keeps_task_runnable(cold_system):
    sys_ = cold_system
    sys_.boot_kernel()
    counts = {"a": 0, "b": 0}

    def spin(name):
        def behavior(task):
            for _ in range(5):
                counts[name] += 1
                yield YIELD
        return behavior

    sys_.kernel.spawn_process("a", behavior=spin("a"))
    sys_.kernel.spawn_process("b", behavior=spin("b"))
    sys_.run_for(millis(1))
    assert counts == {"a": 5, "b": 5}


def test_idle_charges_swapper(cold_system):
    sys_ = cold_system
    sys_.boot_kernel()
    sys_.run_for(seconds(1))
    assert sys_.engine.idle_ticks > 0
    assert sys_.profiler.instr_by_proc.get("swapper", 0) > 0


def test_exhausted_behavior_reaps_task(cold_system):
    sys_ = cold_system
    sys_.boot_kernel()

    def ends(task):
        yield ExecBlock(0xC010_0000, 10)

    proc = sys_.kernel.spawn_process("short", behavior=ends)
    sys_.run_for(millis(1))
    assert not proc.alive
    assert proc.main_task.state.value == "zombie"


def test_run_until_is_idempotent_past_deadline(cold_system):
    sys_ = cold_system
    sys_.boot_kernel()
    sys_.run_until(millis(2))
    t = sys_.clock.now
    sys_.run_until(millis(1))
    assert sys_.clock.now == t


def test_deterministic_execution():
    def build():
        sys_ = System(seed=5)
        sys_.boot_kernel()

        def worker(task):
            for i in range(50):
                yield ExecBlock(0xC010_0000, 1_000, ((0xC800_0000, 50),))
                yield Sleep(millis(1))

        sys_.kernel.spawn_process("w", behavior=worker)
        sys_.run_for(millis(120))
        return dict(sys_.profiler.refs_by_thread)

    assert build() == build()


def test_timer_due_exactly_at_deadline_wakes_but_does_not_run(cold_system):
    """A sleep ending exactly on the run deadline fires on the final
    timer sweep: the task wakes runnable but gets no cycles this run."""
    sys_ = cold_system
    sys_.boot_kernel()
    ran = []

    def worker(task):
        yield Sleep(millis(5))
        ran.append(sys_.clock.now)
        yield ExecBlock(0xC010_0000, 10)

    proc = sys_.kernel.spawn_process("w", behavior=worker)
    sys_.run_until(millis(5))
    assert sys_.clock.now == millis(5)
    assert not ran                                   # woken, not yet run
    assert proc.main_task.state.value == "runnable"
    sys_.run_for(millis(1))
    assert ran == [millis(5)]


def test_zero_span_idle_accrues_nothing(cold_system):
    """run_until(now) must not charge idle time or move the clock."""
    sys_ = cold_system
    sys_.boot_kernel()
    sys_.run_for(millis(2))                          # accrue some idle
    idle_before = sys_.engine.idle_ticks
    swapper_before = sys_.profiler.instr_by_proc.get("swapper", 0)
    sys_.run_until(sys_.clock.now)                   # zero-span window
    sys_.run_until(sys_.clock.now - 1)               # already-past deadline
    assert sys_.engine.idle_ticks == idle_before
    assert sys_.profiler.instr_by_proc.get("swapper", 0) == swapper_before


def test_idle_without_idle_task_keeps_time_but_charges_nobody(cold_system):
    """Before boot_kernel there is no swapper: idling must still advance
    the clock and count idle ticks without attributing references."""
    sys_ = cold_system
    assert sys_.kernel.idle_task is None
    sys_.run_for(millis(3))
    assert sys_.clock.now == millis(3)
    assert sys_.engine.idle_ticks == millis(3)
    assert sys_.profiler.total_refs == 0


def test_kernel_exec_attributed_to_kernel_region(cold_system):
    sys_ = cold_system
    sys_.boot_kernel()

    def worker(task):
        yield kernel_exec("test_entry", 5_000, 100)

    sys_.kernel.spawn_process("w", behavior=worker)
    sys_.run_for(millis(1))
    assert sys_.profiler.instr_by_region.get("OS kernel", 0) >= 5_000
    assert sys_.profiler.data_by_region.get("OS kernel", 0) >= 100


def test_smp_idle_cpus_never_pick_from_empty_runqueues():
    """On a booted 2+2 Android stack, no CPU calls ``pick`` while no
    runqueue holds an entry: such a pick fails on every CPU and changes
    nothing, so the engine parks instead."""
    from repro.core.runner import RunConfig, _prepared_system
    from repro.core.suite import get_benchmark

    cfg = RunConfig(cpus=4, cpu_profile="2+2")
    system, _, _ = _prepared_system(get_benchmark("music.mp3.view"), cfg)
    sched = system.kernel.sched
    pick = sched.pick
    calls = {"all": 0, "empty": 0}

    def watched_pick(cpu_id=0):
        calls["all"] += 1
        calls["empty"] += len(sched) == 0
        return pick(cpu_id)

    sched.pick = watched_pick
    idle_before = system.engine.idle_ticks
    system.run_for(millis(300))
    assert calls["empty"] == 0
    assert calls["all"] > 0 and system.engine.idle_ticks > idle_before


def test_parked_cpus_charge_idle_at_most_twice_per_run():
    """On a booted 2+2 Android stack, one ``run_for`` hands each CPU's
    idle work to the profiler at most twice: the first idle charge,
    which creates the swapper's keys when it always did, and one charge
    of the rest as the call returns."""
    from collections import Counter

    from repro.core.runner import RunConfig, _prepared_system
    from repro.core.suite import get_benchmark

    cfg = RunConfig(cpus=4, cpu_profile="2+2")
    system, _, _ = _prepared_system(get_benchmark("music.mp3.view"), cfg)
    profiler = system.profiler
    charge_idle = profiler.charge_idle
    calls = Counter()

    def watched_charge_idle(comm, tname, insts, cpu_id=0):
        calls[cpu_id] += 1
        charge_idle(comm, tname, insts, cpu_id)

    profiler.charge_idle = watched_charge_idle
    system.run_for(millis(300))
    assert sorted(calls) == [0, 1, 2, 3]
    assert max(calls.values()) <= 2
    assert profiler.instr_by_proc["swapper"] > 0


def test_cpu_that_loses_its_task_to_a_fault_parks_alone():
    """CPUs 0 and 1 finish a block at the same tick while CPU 2 idles
    until then; a fault kills CPU 0's task at that tick.  CPU 0 parks,
    but CPU 1, still busy, acts before the idle CPU 2 (the tie-break),
    and CPU 2 then picks the thread CPU 1 spawned, at that same tick."""
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan, ThreadKill

    system = System(seed=1, cpus=3)
    kernel = system.kernel
    host = kernel.spawn_process("host", behavior=None)
    block = millis(1)
    started = []

    def spin(task):
        while True:
            yield ExecBlock(0xC010_0000, block)

    def spawn_then_spin(task):
        yield ExecBlock(0xC010_0000, block)
        kernel.spawn_thread(host, "late", record_start)
        yield from spin(task)

    def record_start(task):
        started.append((system.clock.now, task.last_cpu))
        yield ExecBlock(0xC010_0000, block)

    kernel.spawn_thread(host, "victim", spin, affinity=0)
    kernel.spawn_thread(host, "spawner", spawn_then_spin, affinity=1)
    plan = FaultPlan(name="kill-victim", thread_kills=(
        ThreadKill(at_ms=1, proc="host", thread="victim"),))
    injector = FaultInjector(plan, 1, system)
    injector.arm(system.clock.now)
    system.run_for(millis(5))
    injector.disarm()
    assert injector.counters()["threads_killed"] == 1
    assert started == [(block, 2)]
