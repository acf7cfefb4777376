"""Process/thread lifecycle management — the kernel object.

:class:`Kernel` owns the process table, the scheduler, the timer queue and
the loader.  It implements the Linux primitives the Android stack is built
from: ``fork`` (address-space clone), ``clone(CLONE_VM)`` (thread spawn
sharing the mm), comm renaming, and exit/reaping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import TaskError
from repro.kernel.addrspace import AddressSpace
from repro.kernel.loader import Loader
from repro.kernel.sched import CfsScheduler, Scheduler, TimerQueue
from repro.kernel.task import Process, Task, TaskState
from repro.kernel.waitq import WaitQueue

if TYPE_CHECKING:
    from repro.sim.ops import Op
    from repro.sim.system import System

BehaviorFactory = Callable[[Task], Iterator["Op"]]
BehaviorLike = "Iterator[Op] | BehaviorFactory | None"


class Kernel:
    """The simulated Linux kernel: processes, scheduling, timers."""

    def __init__(self, system: "System") -> None:
        self.system = system
        # A named cpu_profile selects the CFS vruntime policy with the
        # profile's per-core capacities; the default stays round-robin
        # (the byte-identity contract with pre-profile results).
        specs = getattr(system, "cpu_specs", None)
        if specs is not None:
            self.sched: Scheduler = CfsScheduler(
                cpus=len(system.cpus),
                capacities=tuple(spec.capacity for spec in specs),
            )
        else:
            self.sched = Scheduler(cpus=len(system.cpus))
        self.timers = TimerQueue()
        self.loader = Loader()
        self.processes: list[Process] = []
        self._pid_index: dict[int, Process] = {}
        self._next_id = 0
        self.idle_task: Task | None = None
        self.threads_spawned = 0
        self.threads_reaped = 0

    # ------------------------------------------------------------------
    # Identity helpers

    def _alloc_id(self) -> int:
        pid = self._next_id
        self._next_id += 1
        return pid

    def new_waitq(self, name: str) -> WaitQueue:
        """Create a wait queue (kept as a method for discoverability)."""
        return WaitQueue(name)

    def find_process(self, comm: str) -> Process | None:
        """First live process whose comm matches."""
        for proc in self.processes:
            if proc.alive and proc.comm == comm:
                return proc
        return None

    def live_processes(self) -> list[Process]:
        """Processes that have not fully exited."""
        return [p for p in self.processes if p.alive]

    def process_count(self) -> int:
        """Number of live processes (idle/swapper included)."""
        return len(self.live_processes())

    def thread_count(self) -> int:
        """Number of live tasks across all processes."""
        return sum(len(p.live_tasks()) for p in self.processes)

    # ------------------------------------------------------------------
    # Creation primitives

    def create_idle_task(self) -> Task:
        """pid 0 / ``swapper``: the idle loop the engine charges."""
        if self.idle_task is not None:
            return self.idle_task
        proc = Process(self._alloc_id(), "swapper", mm=None)
        task = Task(proc.pid, "swapper", proc, behavior=None, sched=self.sched)
        task.state = TaskState.SLEEPING  # never on the run queue
        proc.tasks.append(task)
        self._register(proc)
        self.idle_task = task
        return task

    def spawn_kthread(self, name: str, behavior: BehaviorLike = None) -> Process:
        """Create a kernel thread (no user address space)."""
        proc = Process(self._alloc_id(), name, mm=None)
        self._register(proc)
        self._attach_main(proc, name, behavior)
        return proc

    def spawn_process(
        self,
        full_name: str,
        behavior: BehaviorLike = None,
        mm: AddressSpace | None = None,
    ) -> Process:
        """Create a user process with a fresh address space + main stack."""
        space = mm if mm is not None else AddressSpace(full_name)
        proc = Process(self._alloc_id(), full_name, mm=space)
        self._register(proc)
        stack = space.map_main_stack() if not space.labels() else None
        task = self._attach_main(proc, proc.comm, behavior)
        if stack is not None:
            task.stack_vma = stack
        return proc

    def fork(self, parent: Process, full_name: str | None = None) -> Process:
        """fork(): duplicate the parent's address space and tables.

        The child starts with the parent's comm (Android children stay
        ``app_process`` until they specialise) unless *full_name* is given.
        No main task is attached — callers attach the child's behaviour via
        :meth:`spawn_thread` so it can close over the new process.
        """
        if parent.mm is None:
            raise TaskError(f"cannot fork kernel thread {parent.comm}")
        name = full_name if full_name is not None else parent.full_name
        child_mm = parent.mm.clone(name)
        child = Process(self._alloc_id(), name, mm=child_mm, parent=parent)
        # Mapped objects and named regions carry over: rebuild views onto
        # the cloned VMAs by matching start addresses.
        by_start = {vma.start: vma for vma in child_mm}
        for so_name, mapped in parent.libmap.items():
            text = by_start[mapped.text_vma.start]  # type: ignore[attr-defined]
            data = by_start[mapped.data_vma.start]  # type: ignore[attr-defined]
            child.libmap[so_name] = type(mapped)(mapped.so, text, data)  # type: ignore[attr-defined]
        for label, vma in parent.regions.items():
            child.regions[label] = by_start.get(vma.start, vma)
        self._register(child)
        return child

    def set_main_behavior(self, proc: Process, behavior: BehaviorLike) -> Task:
        """Bind (or replace) the main thread's behaviour and wake it."""
        task = proc.main_task
        self._bind_behavior(task, behavior)
        if task.behavior is not None and task.state is TaskState.SLEEPING:
            task.make_runnable()
        return task

    def attach_forked_main(self, child: Process, behavior: BehaviorLike) -> Task:
        """Give a forked process its main thread (reusing the cloned stack)."""
        task = self._attach_main(child, child.comm, behavior)
        if child.mm is not None:
            from repro.kernel import layout
            from repro.kernel.vma import VMAKind

            for vma in child.mm:
                if vma.kind is VMAKind.STACK and vma.start >= layout.MMAP_TOP:
                    task.stack_vma = vma
                    break
        self.threads_spawned += 1
        return task

    def spawn_thread(
        self,
        proc: Process,
        name: str,
        behavior: BehaviorLike,
        with_stack: bool = True,
        affinity: int | None = None,
        nice: int = 0,
    ) -> Task:
        """clone(CLONE_VM): add a thread to *proc* sharing its mm.

        *affinity* pins the thread to one CPU: wakeups always land on
        that CPU's runqueue and load balancing never migrates it.
        *nice* sets the CFS weight (inert under the round-robin policy,
        so default runs are unaffected by niced service threads).
        """
        stack_vma = None
        if with_stack and proc.mm is not None:
            stack_vma = proc.mm.map_thread_stack()
        task = Task(self._alloc_id(), name, proc, None, self.sched, stack_vma)
        task.affinity = affinity
        if nice:
            task.set_nice(nice)
        proc.tasks.append(task)
        self.threads_spawned += 1
        self._bind_behavior(task, behavior)
        if task.behavior is not None:
            task.state = TaskState.RUNNABLE
            self.sched.enqueue(task)
        return task

    # ------------------------------------------------------------------
    # Exit

    def reap_task(self, task: Task) -> None:
        """Mark a task dead and retire its process when it was the last."""
        if task.state is TaskState.ZOMBIE:
            return
        if task.waitq is not None:
            task.waitq.remove(task)
            task.waitq = None
        self.sched.remove(task)
        task.state = TaskState.ZOMBIE
        task.exit_time = self.system.clock.now
        self.threads_reaped += 1
        proc = task.process
        if proc.alive and not proc.live_tasks():
            proc.alive = False
            proc.exit_time = self.system.clock.now

    def kill_process(self, proc: Process) -> None:
        """Force-exit every task of *proc*."""
        for task in list(proc.live_tasks()):
            self.reap_task(task)

    # ------------------------------------------------------------------
    # Internals

    def _register(self, proc: Process) -> None:
        self.processes.append(proc)
        self._pid_index[proc.pid] = proc

    def _attach_main(self, proc: Process, name: str, behavior: BehaviorLike) -> Task:
        task = Task(proc.pid, name, proc, None, self.sched)
        proc.tasks.append(task)
        self._bind_behavior(task, behavior)
        if task.behavior is not None:
            task.state = TaskState.RUNNABLE
            self.sched.enqueue(task)
        else:
            task.state = TaskState.SLEEPING
        return task

    @staticmethod
    def _bind_behavior(task: Task, behavior: BehaviorLike) -> None:
        if behavior is None:
            return
        if callable(behavior):
            task.factory = behavior
            task.behavior = behavior(task)
        else:
            task.behavior = behavior
