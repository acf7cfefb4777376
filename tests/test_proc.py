"""Kernel process/thread lifecycle: spawn, fork, clone, exit."""

import inspect

import pytest

from repro.errors import TaskError
from repro.kernel.task import TaskState
from repro.libs.object import SharedObject
from repro.sim.ops import Sleep
from repro.sim.ticks import millis


def test_spawn_process_has_main_stack(system):
    proc = system.kernel.spawn_process("com.example.thing")
    assert proc.comm == "m.example.thing"
    assert proc.main_task.stack_vma is not None
    assert proc.main_task.stack_vma.label == "stack"


def test_pid_allocation_monotonic(system):
    a = system.kernel.spawn_process("a")
    b = system.kernel.spawn_process("b")
    assert b.pid > a.pid


def test_spawn_thread_shares_mm(system):
    proc = system.kernel.spawn_process("app")

    def loop(task):
        while True:
            yield Sleep(millis(10))

    t = system.kernel.spawn_thread(proc, "worker", loop)
    assert t.process is proc
    assert t.stack_vma is not None
    assert t.stack_vma in list(proc.mm)


def test_fork_clones_libmap_and_regions(system):
    kernel = system.kernel
    parent = kernel.spawn_process("parent")
    so = SharedObject("libx.so", 8192, 4096, (("f", 10),))
    kernel.loader.map_shared_object(parent, so)
    parent.mm.mmap(4096, "special")
    parent.add_region("special", parent.mm.find_vma_or_none(
        next(v for v in parent.mm if v.label == "special").start))

    child = kernel.fork(parent, "childname")
    assert "libx.so" in child.libmap
    child_mapped = child.libmap["libx.so"]
    parent_mapped = parent.libmap["libx.so"]
    assert child_mapped.text_vma is not parent_mapped.text_vma
    assert child_mapped.text_vma.start == parent_mapped.text_vma.start
    assert "special" in child.regions


def test_fork_keeps_parent_comm_by_default(system):
    parent = system.kernel.spawn_process("zygoteish")
    child = system.kernel.fork(parent)
    assert child.full_name == parent.full_name


def test_fork_kernel_thread_rejected(system):
    kthread = system.kernel.find_process("ata_sff/0")
    with pytest.raises(TaskError):
        system.kernel.fork(kthread)


def test_attach_forked_main_reuses_stack(system):
    kernel = system.kernel
    parent = kernel.spawn_process("parent")

    def loop(task):
        while True:
            yield Sleep(millis(10))

    child = kernel.fork(parent)
    task = kernel.attach_forked_main(child, loop)
    assert task.stack_vma is not None
    assert task.stack_vma.start == parent.main_task.stack_vma.start


def test_set_comm_renames_main_thread(system):
    proc = system.kernel.spawn_process("app_process")
    proc.set_comm("com.android.music")
    assert proc.comm == "m.android.music"
    assert proc.main_task.name == "m.android.music"


def test_reap_last_task_retires_process(system):
    proc = system.kernel.spawn_process("p")
    system.kernel.reap_task(proc.main_task)
    assert not proc.alive
    assert proc.exit_time is not None


def test_kill_process_reaps_all_threads(system):
    proc = system.kernel.spawn_process("p")

    def loop(task):
        while True:
            yield Sleep(millis(10))

    system.kernel.spawn_thread(proc, "w1", loop)
    system.kernel.spawn_thread(proc, "w2", loop)
    system.kernel.kill_process(proc)
    assert not proc.alive
    assert all(t.state is TaskState.ZOMBIE for t in proc.tasks)


def test_waking_zombie_raises(system):
    proc = system.kernel.spawn_process("p")
    system.kernel.reap_task(proc.main_task)
    with pytest.raises(TaskError):
        proc.main_task.make_runnable()


def test_thread_census_counters(system):
    before_spawned = system.kernel.threads_spawned
    proc = system.kernel.spawn_process("p")

    def loop(task):
        while True:
            yield Sleep(millis(10))

    t = system.kernel.spawn_thread(proc, "w", loop)
    assert system.kernel.threads_spawned == before_spawned + 1
    before_reaped = system.kernel.threads_reaped
    system.kernel.reap_task(t)
    assert system.kernel.threads_reaped == before_reaped + 1


def test_find_process_by_comm(system):
    system.kernel.spawn_process("com.android.systemui")
    assert system.kernel.find_process("ndroid.systemui") is not None
    assert system.kernel.find_process("nonexistent") is None



# ---------------------------------------------------------------------------
# Behaviour binding: a callable behaviour is called at spawn, not deferred
# to the task's first dispatch


def _recording_factory(calls):
    """A behaviour factory that logs each task it is called for."""
    def loop():
        while True:
            yield Sleep(millis(10))

    def factory(task):
        calls.append(task)
        return loop()

    return factory


def test_spawn_thread_binds_behavior_at_spawn(system):
    proc = system.kernel.spawn_process("app")
    calls = []
    task = system.kernel.spawn_thread(proc, "worker", _recording_factory(calls))
    assert calls == [task]
    assert inspect.isgenerator(task.behavior)
    assert task.state is TaskState.RUNNABLE


def test_spawn_process_binds_main_behavior_at_spawn(system):
    calls = []
    proc = system.kernel.spawn_process("app", _recording_factory(calls))
    assert calls == [proc.main_task]
    assert inspect.isgenerator(proc.main_task.behavior)
    assert proc.main_task.state is TaskState.RUNNABLE


def test_spawn_without_behavior_sleeps_unbound(system):
    proc = system.kernel.spawn_process("idle-app")
    assert proc.main_task.behavior is None
    assert proc.main_task.state is TaskState.SLEEPING


def test_set_main_behavior_binds_and_wakes(system):
    proc = system.kernel.spawn_process("late-app")
    calls = []
    task = system.kernel.set_main_behavior(proc, _recording_factory(calls))
    assert task is proc.main_task and calls == [task]
    assert inspect.isgenerator(task.behavior)
    assert task.state is TaskState.RUNNABLE


def test_ready_made_generator_is_bound_as_is(system):
    proc = system.kernel.spawn_process("app")
    gen = _recording_factory([])(None)
    task = system.kernel.spawn_thread(proc, "worker", gen)
    assert task.behavior is gen
    assert task.state is TaskState.RUNNABLE


def test_factory_runs_once_per_task(system):
    """Dispatching a bound task resumes its generator; the factory is
    never called a second time."""
    proc = system.kernel.spawn_process("app")
    calls, wakeups = [], []

    def factory(task):
        calls.append(task)

        def loop():
            while True:
                yield Sleep(millis(10))
                wakeups.append(system.now)

        return loop()

    task = system.kernel.spawn_thread(proc, "worker", factory)
    system.run_for(millis(35))
    assert calls == [task]
    assert len(wakeups) == 3 and task.alive
