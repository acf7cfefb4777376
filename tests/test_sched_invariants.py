"""Scheduler-invariant property tests.

Randomized (seeded, fully deterministic) task mixes drive both scheduler
policies and the engine, and the properties that keep every backend and
core count byte-deterministic are asserted directly:

* **no starvation** — every runnable task eventually runs;
* **vruntime monotonicity** — a CFS queue's virtual clock only ratchets
  forward, whatever interleaving of enqueues, picks, accounts,
  migrations and balances hits it;
* **pinned tasks never migrate** — an affinity hint is honoured by
  placement, stealing and balancing alike;
* **quantum conservation** — the CPU time the scheduler accounts equals
  the engine's busy ticks, per CPU, so no tick is double-charged or
  dropped across preemptions and migrations;
* **time conservation** — each CPU's busy plus idle ticks equal the
  elapsed time, however the engine batches idle CPUs;
* **futile picks** — while no runqueue holds an entry, a pick on any
  CPU fails and changes nothing, so the engine may skip it.
"""

import random
from collections import Counter

import pytest

from repro.errors import SchedulerError
from repro.kernel.sched import (
    NICE_0_WEIGHT,
    CfsScheduler,
    Scheduler,
    weight_for_nice,
)
from repro.kernel.task import Process, Task, TaskState
from repro.sim.ops import ExecBlock, Sleep, Yield
from repro.sim.system import System
from repro.sim.ticks import millis

# ---------------------------------------------------------------------------
# Unit level: randomized operation sequences against the CFS queues


def _make_tasks(sched, rng, count, cpus):
    proc = Process(1, "p", mm=None)
    tasks = []
    for i in range(count):
        task = Task(i, f"t{i}", proc, behavior=None, sched=sched)
        proc.tasks.append(task)
        if rng.random() < 0.4:
            task.set_nice(rng.choice([-15, -5, 5, 15]))
        if rng.random() < 0.25:
            task.affinity = rng.randrange(cpus)
        task.state = TaskState.RUNNABLE
        sched.enqueue(task)
        tasks.append(task)
    return tasks


def _sched_state(sched, cpus):
    """Everything a pick could change: counters, queue contents and, under
    CFS, each queue's load and virtual clock."""
    state = [sched.context_switches, sched.migrations, sched.snapshot()]
    if isinstance(sched, CfsScheduler):
        state += [(sched.queue_load(c), sched.min_vruntime(c))
                  for c in range(cpus)]
    return state


def _drive_random_ops(sched, seed, cpus=3):
    """2000 random pick/account/requeue/block/wake/kill/balance steps.

    At every step: ``queued()`` agrees with ``len(sched) > 0``; while no
    runqueue holds an entry, a pick on every CPU fails and changes
    nothing (the engine skips those picks); pinned tasks only ever
    dispatch on their pin; under CFS, queue virtual clocks never run
    backwards.  At the end nobody starved, and the run both emptied
    every queue and left dead entries behind."""
    rng = random.Random(seed)
    cfs = isinstance(sched, CfsScheduler)
    tasks = _make_tasks(sched, rng, count=10, cpus=cpus)
    running: dict[int, Task] = {}
    blocked: list[Task] = []
    picked: Counter = Counter()
    empty_steps = dead_entries = 0
    prev_min = [sched.min_vruntime(c) for c in range(cpus)] if cfs else []

    for _ in range(2000):
        cpu = rng.randrange(cpus)
        task = running.pop(cpu, None)
        if task is not None:
            sched.account(task, cpu, rng.randrange(1_000, 2_000_000))
            if rng.random() < 0.3:
                task.state = TaskState.BLOCKED
                blocked.append(task)
            else:
                sched.requeue(task, cpu)
        if blocked and rng.random() < 0.3:
            woken = blocked.pop(rng.randrange(len(blocked)))
            woken.state = TaskState.RUNNABLE
            sched.enqueue(woken)
        if dead_entries < 3 and rng.random() < 0.01:
            # A queued task that already ran dies without leaving its
            # queue: a dead entry that only a pick (or pull) prunes.
            waiting = [t for t in sched.snapshot()
                       if t.state is TaskState.RUNNABLE and picked[t.tid]]
            if waiting:
                rng.choice(waiting).state = TaskState.ZOMBIE
                dead_entries += 1
        if rng.random() < 0.1:
            sched.balance()
        assert sched.queued() == (len(sched) > 0)
        if not sched.queued():
            empty_steps += 1
            before = _sched_state(sched, cpus)
            assert [sched.pick(c) for c in range(cpus)] == [None] * cpus
            assert _sched_state(sched, cpus) == before
        got = sched.pick(cpu)
        if got is not None:
            assert got.state is TaskState.RUNNING
            assert got.last_cpu == cpu
            if got.affinity is not None:
                assert cpu == got.affinity, "pinned task migrated"
            running[cpu] = got
            picked[got.tid] += 1
        for c in range(len(prev_min)):
            now_min = sched.min_vruntime(c)
            assert now_min >= prev_min[c], "queue virtual clock ran backwards"
            prev_min[c] = now_min

    assert all(picked[task.tid] > 0 for task in tasks), "a task starved"
    assert empty_steps > 0 and dead_entries > 0


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_random_ops_hold_cfs_invariants(seed):
    """The random steps on an asymmetric 3-CPU CFS machine."""
    _drive_random_ops(CfsScheduler(cpus=3, capacities=(1024, 1024, 512)), seed)


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_random_ops_hold_rr_invariants(seed):
    """The same random steps on a 3-CPU round-robin machine."""
    _drive_random_ops(Scheduler(cpus=3), seed)


def test_weight_table_matches_linux_shape():
    assert weight_for_nice(0) == NICE_0_WEIGHT
    assert weight_for_nice(-20) == 88761
    assert weight_for_nice(19) == 15
    # Each nice step shifts weight by ~25% in the right direction.
    for nice in range(-20, 19):
        assert weight_for_nice(nice) > weight_for_nice(nice + 1)
    with pytest.raises(SchedulerError):
        weight_for_nice(-21)
    with pytest.raises(SchedulerError):
        weight_for_nice(20)


def test_vruntime_accrues_inversely_to_weight():
    sched = CfsScheduler(cpus=1)
    proc = Process(1, "p", mm=None)
    light = Task(1, "light", proc, behavior=None, sched=sched)
    heavy = Task(2, "heavy", proc, behavior=None, sched=sched)
    heavy.set_nice(-10)  # weight 9548
    sched.account(light, 0, 1_000_000)
    sched.account(heavy, 0, 1_000_000)
    assert light.vruntime == 1_000_000
    assert heavy.vruntime == (1_000_000 * NICE_0_WEIGHT) // 9548
    assert heavy.vruntime < light.vruntime  # heavier -> more entitled


def test_quantum_remainder_survives_preemption_and_migration():
    """A task preempted mid-slice and pulled to another CPU resumes the
    remainder of its quantum there, not a fresh one."""
    sched = CfsScheduler(cpus=2)
    proc = Process(1, "p", mm=None)
    task = Task(1, "t", proc, behavior=None, sched=sched)
    proc.tasks.append(task)
    task.state = TaskState.RUNNABLE
    sched.enqueue(task)
    assert sched.pick(0) is task
    used = 4 * sched.MIN_GRANULARITY_TICKS
    sched.account(task, 0, used)
    sched.requeue(task, 0)            # preemption: slice not exhausted
    assert task.quantum_used == used
    assert sched.pick(1) is task      # idle CPU 1 steals it
    assert sched.migrations == 1
    assert sched.timeslice(task) == sched.quantum - used
    # Exhausting the slice resets it on the next requeue.
    sched.account(task, 1, sched.quantum)
    sched.requeue(task, 1)
    assert task.quantum_used == 0
    assert sched.timeslice(task) == sched.quantum


def test_wakeup_vruntime_clamped_to_queue_clock():
    """A long sleeper re-enters at the queue's virtual clock: its stale
    (tiny) vruntime cannot monopolise the CPU on wakeup."""
    sched = CfsScheduler(cpus=1)
    proc = Process(1, "p", mm=None)
    runner_task = Task(1, "r", proc, behavior=None, sched=sched)
    sleeper = Task(2, "s", proc, behavior=None, sched=sched)
    for task in (runner_task, sleeper):
        proc.tasks.append(task)
        task.state = TaskState.RUNNABLE
        sched.enqueue(task)
    # Cycle the queue until its virtual clock has ratcheted forward
    # (min_vruntime only advances when an advanced entry is popped).
    for _ in range(4):
        task = sched.pick(0)
        sched.account(task, 0, 10_000_000)
        sched.requeue(task, 0)
    floor = sched.min_vruntime(0)
    assert floor > 0
    sleeper.state = TaskState.SLEEPING
    sched.remove(sleeper)
    sleeper.vruntime = 0              # pretend it slept through an era
    sleeper.state = TaskState.RUNNABLE
    sched.enqueue(sleeper)
    assert sleeper.vruntime >= floor


def test_preemption_requires_a_full_granularity_lead():
    sched = CfsScheduler(cpus=1)
    proc = Process(1, "p", mm=None)
    running = Task(1, "run", proc, behavior=None, sched=sched)
    waiter = Task(2, "wait", proc, behavior=None, sched=sched)
    proc.tasks.extend([running, waiter])
    running.state = TaskState.RUNNING
    waiter.state = TaskState.RUNNABLE
    running.vruntime = sched.PREEMPT_GRANULARITY_TICKS  # waiter at 0: no lead
    sched.enqueue(waiter)
    assert not sched.should_preempt(running, 0)
    running.vruntime = sched.PREEMPT_GRANULARITY_TICKS + 1
    assert sched.should_preempt(running, 0)


def test_capacity_aware_placement_is_capacity_proportional():
    """Free tasks fill a 2x-capacity big core twice as fast as the
    LITTLE core (scaled-load placement), big preferred on ties."""
    sched = CfsScheduler(cpus=2, capacities=(1024, 512))
    proc = Process(1, "p", mm=None)
    for i in range(6):
        task = Task(i, f"t{i}", proc, behavior=None, sched=sched)
        proc.tasks.append(task)
        task.state = TaskState.RUNNABLE
        sched.enqueue(task)
    assert sched.runq_len(0) == 4 and sched.runq_len(1) == 2


def test_renice_while_queued_keeps_load_accounting_exact():
    """The load decrement uses the weight recorded at push time, so a
    task reniced while waiting cannot leave phantom load behind."""
    sched = CfsScheduler(cpus=2)
    proc = Process(1, "p", mm=None)
    task = Task(1, "t", proc, behavior=None, sched=sched)
    proc.tasks.append(task)
    task.set_nice(-10)
    task.state = TaskState.RUNNABLE
    sched.enqueue(task)
    heavy = weight_for_nice(-10)
    assert sched.queue_load(0) == heavy
    task.set_nice(0)                       # reniced while queued
    assert sched.pick(0) is task
    assert sched.queue_load(0) == 0        # no drift
    sched.requeue(task, 0)
    assert sched.queue_load(0) == task.weight == NICE_0_WEIGHT
    sched.remove(task)
    assert sched.queue_load(0) == 0


def test_cfs_scheduler_validates_capacities():
    with pytest.raises(SchedulerError):
        CfsScheduler(cpus=2, capacities=(1024,))
    with pytest.raises(SchedulerError):
        CfsScheduler(cpus=2, capacities=(1024, 0))


def test_rr_policy_is_not_preemptive_and_grants_full_quanta():
    sched = Scheduler(cpus=1)
    proc = Process(1, "p", mm=None)
    task = Task(1, "t", proc, behavior=None, sched=sched)
    assert sched.preemptive is False
    assert sched.should_preempt(task, 0) is False
    sched.account(task, 0, 123_456)
    assert sched.timeslice(task) == sched.quantum  # remainder ignored
    assert sched.quantum_ticks_by_cpu[0] == 123_456


# ---------------------------------------------------------------------------
# Engine level: randomized mixes through the full event loop


def _spawn_random_mix(system, seed, ntasks=10):
    """Deterministically random spinner/sleeper/yielder threads, some
    pinned, some niced.  Returns (tasks, per-task dispatch-CPU traces)."""
    rng = random.Random(seed)
    kernel = system.kernel
    host = kernel.spawn_process("mixhost", behavior=None)
    cpus = len(system.cpus)
    tasks, traces = [], []

    def make_factory(kind, blocks, insts, trace):
        def factory(task):
            def gen():
                for j in range(blocks):
                    trace.append(task.last_cpu)
                    yield ExecBlock(0xC010_0000, insts)
                    if kind == "sleepy" and j % 7 == 6:
                        yield Sleep(50_000)
                    elif kind == "yieldy" and j % 5 == 4:
                        yield Yield()
            return gen()
        return factory

    for i in range(ntasks):
        kind = rng.choice(["spin", "sleepy", "yieldy"])
        pin = rng.randrange(cpus) if rng.random() < 0.3 else None
        nice = rng.choice([0, 0, 0, -8, 7])
        blocks = rng.randrange(40, 120)
        insts = rng.randrange(500, 5_000)
        trace: list = []
        task = kernel.spawn_thread(
            host, f"mix{i}", make_factory(kind, blocks, insts, trace),
            affinity=pin, nice=nice,
        )
        tasks.append(task)
        traces.append(trace)
    return tasks, traces


@pytest.mark.parametrize("profile,cpus", [("2+2", 4), (None, 4), ("1+2", 3)])
@pytest.mark.parametrize("seed", [3, 42])
def test_engine_mix_holds_global_invariants(profile, cpus, seed):
    system = System(seed=seed, cpus=cpus, cpu_profile=profile)
    system.boot_kernel()
    tasks, traces = _spawn_random_mix(system, seed)
    system.run_for(millis(120))

    sched = system.kernel.sched
    # No starvation: every task dispatched at least once and retired work.
    for task, trace in zip(tasks, traces):
        assert trace, f"{task.name} never ran"
        assert task.cpu_ticks > 0, f"{task.name} retired nothing"
    # Pinned tasks never migrate: every dispatch on the pin.
    for task, trace in zip(tasks, traces):
        if task.affinity is not None:
            assert set(trace) == {task.affinity}, task.name
    # Quantum conservation, per CPU: what the scheduler accounted is
    # exactly what each CPU spent retiring blocks.
    for cpu in system.cpus:
        assert sched.quantum_ticks_by_cpu[cpu.cpu_id] == cpu.busy_ticks
    assert sum(sched.quantum_ticks_by_cpu) == sum(
        cpu.busy_ticks for cpu in system.cpus
    )
    # Time conservation, per CPU: busy plus idle covers every tick of
    # the run, so no idle span is dropped or charged twice (the mix
    # finishes before the deadline, so no block runs past it).
    for cpu in system.cpus:
        idle = system.engine.cpu_idle_ticks[cpu.cpu_id]
        assert cpu.busy_ticks + idle == system.clock.now, cpu.cpu_id


def test_engine_mix_is_deterministic_under_cfs():
    """The CFS engine is as replayable as the round-robin one: the same
    seed yields the same dispatch traces and counters."""

    def run():
        system = System(seed=99, cpus=4, cpu_profile="2+2")
        system.boot_kernel()
        tasks, traces = _spawn_random_mix(system, 99)
        system.run_for(millis(120))
        return (
            [tuple(trace) for trace in traces],
            [cpu.busy_ticks for cpu in system.cpus],
            system.kernel.sched.migrations,
            system.kernel.sched.context_switches,
        )

    assert run() == run()


def test_little_cores_run_slower():
    """The same block costs a 2x-slower LITTLE core twice the ticks."""
    system = System(seed=5, cpus=2, cpu_profile="1+1")
    big, little = system.cpus
    assert big.ticks_per_inst == 1 and little.ticks_per_inst == 2
    assert big.capacity == 1024 and little.capacity == 512
    proc = system.kernel.spawn_process("x", behavior=None)
    block = ExecBlock(0xC010_0000, 1_000)
    assert big.execute(proc.main_task, block) == 1_000
    assert little.execute(proc.main_task, block) == 2_000
