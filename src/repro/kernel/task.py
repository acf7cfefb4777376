"""Tasks and processes (``task_struct`` / thread groups).

A :class:`Task` is a schedulable thread.  A :class:`Process` is a thread
group: it owns the address space, the mapped-object table, named special
regions (mspace, dalvik-heap, ...) and the list of member tasks.  Kernel
threads are processes whose ``mm`` is ``None``; they only ever execute
kernel addresses.

The profiler reads ``task.process.comm`` and ``task.name`` at charge time,
so references issued before a forked child renames itself are attributed to
``app_process`` — exactly the effect visible in the paper's Figures 3/4.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterator

from repro.errors import TaskError
from repro.kernel.addrspace import AddressSpace
from repro.kernel.layout import truncate_comm
from repro.kernel.vma import VMA

if TYPE_CHECKING:
    from repro.kernel.proc import BehaviorFactory
    from repro.kernel.sched import Scheduler
    from repro.kernel.waitq import WaitQueue
    from repro.sim.ops import Op


class TaskState(enum.Enum):
    """Lifecycle states of a task."""

    NEW = "new"
    RUNNABLE = "runnable"
    RUNNING = "running"
    SLEEPING = "sleeping"
    BLOCKED = "blocked"
    ZOMBIE = "zombie"


class Task:
    """One schedulable thread."""

    __slots__ = (
        "tid",
        "name",
        "process",
        "state",
        "behavior",
        "factory",
        "stack_vma",
        "sched",
        "waitq",
        "wake_deadline",
        "exit_time",
        "cpu_ticks",
        "affinity",
        "last_cpu",
        "nice",
        "weight",
        "vruntime",
        "quantum_used",
    )

    def __init__(
        self,
        tid: int,
        name: str,
        process: "Process",
        behavior: Iterator["Op"] | None,
        sched: "Scheduler",
        stack_vma: VMA | None = None,
    ) -> None:
        self.tid = tid
        # Thread names are kept in full: the paper's Table I prints
        # complete thread names (e.g. AudioTrackThread), while process
        # comms are /proc-truncated in its process figures.
        self.name = name
        self.process = process
        self.state = TaskState.NEW
        self.behavior = behavior
        #: The callable the kernel built ``behavior`` from, when it was
        #: given one: calling it again restarts the thread from scratch.
        self.factory: "BehaviorFactory | None" = None
        self.stack_vma = stack_vma
        self.sched = sched
        self.waitq: WaitQueue | None = None
        self.wake_deadline: int | None = None
        self.exit_time: int | None = None
        self.cpu_ticks = 0
        #: Hard placement hint: wakeups always land on this CPU's runqueue
        #: and load balancing never migrates the task away from it.
        self.affinity: int | None = None
        #: CPU the task last ran on (warm-placement tie-break).
        self.last_cpu: int | None = None
        #: CFS niceness (-20..19); the scheduler derives ``weight`` from it.
        self.nice: int = 0
        #: CFS load weight (nice 0 = 1024); consulted only by the
        #: vruntime scheduler, inert under the round-robin policy.
        self.weight: int = 1024
        #: Weighted virtual runtime in ticks (CFS ordering key).
        self.vruntime: int = 0
        #: Ticks consumed of the current timeslice.  Survives preemption
        #: and migration — a task pulled to another CPU resumes the
        #: remainder of its quantum, not a fresh one.
        self.quantum_used: int = 0

    # ------------------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True until the task's behaviour generator is exhausted."""
        return self.state is not TaskState.ZOMBIE

    def set_name(self, name: str) -> None:
        """Rename the thread (names kept in full, unlike process comms)."""
        self.name = name

    def set_nice(self, nice: int) -> None:
        """Set the CFS niceness and re-derive the load weight."""
        from repro.kernel.sched import weight_for_nice

        self.nice = nice
        self.weight = weight_for_nice(nice)

    def make_runnable(self) -> None:
        """Move the task onto the run queue (wakeup path)."""
        if self.state is TaskState.ZOMBIE:
            raise TaskError(f"cannot wake zombie task {self!r}")
        if self.state in (TaskState.RUNNABLE, TaskState.RUNNING):
            return
        self.state = TaskState.RUNNABLE
        self.waitq = None
        self.wake_deadline = None
        self.sched.enqueue(self)

    def stack_addr(self) -> int:
        """An address inside this thread's stack, for data references."""
        if self.stack_vma is not None:
            return self.stack_vma.start + (self.stack_vma.size // 2)
        return 0

    def __repr__(self) -> str:
        return (
            f"Task(tid={self.tid}, name={self.name!r}, "
            f"proc={self.process.comm!r}, state={self.state.value})"
        )


class Process:
    """A thread group and its resources."""

    def __init__(
        self,
        pid: int,
        full_name: str,
        mm: AddressSpace | None,
        parent: "Process | None" = None,
    ) -> None:
        self.pid = pid
        self.full_name = full_name
        self.comm = truncate_comm(full_name)
        self.mm = mm
        self.parent = parent
        self.tasks: list[Task] = []
        #: Mapped shared objects by SO name -> MappedObject (set by loader).
        self.libmap: dict[str, object] = {}
        #: Named special regions (mspace, dalvik-heap, ...) -> VMA.
        self.regions: dict[str, VMA] = {}
        #: Upper layers hang their per-process context here (Dalvik, app...).
        self.context: dict[str, object] = {}
        self.alive = True
        self.exit_time: int | None = None

    # ------------------------------------------------------------------

    @property
    def main_task(self) -> Task:
        """The first (group leader) task."""
        if not self.tasks:
            raise TaskError(f"process {self.comm!r} has no tasks")
        return self.tasks[0]

    def live_tasks(self) -> list[Task]:
        """Tasks that have not exited."""
        return [t for t in self.tasks if t.alive]

    def set_comm(self, full_name: str) -> None:
        """Rename the process (Android-style tail truncation).

        The main thread's name follows the process comm, as it does when
        Android calls ``pthread_setname_np`` after specialising a fork.
        """
        self.full_name = full_name
        self.comm = truncate_comm(full_name)
        if self.tasks:
            self.tasks[0].set_name(self.comm)

    def add_region(self, label: str, vma: VMA) -> VMA:
        """Register a named special region for address lookups by helpers."""
        self.regions[label] = vma
        return vma

    def region_addr(self, label: str) -> int:
        """Address inside the named region (midpoint, stable per process)."""
        vma = self.regions[label]
        return vma.start + vma.size // 2

    def has_region(self, label: str) -> bool:
        """True when the process registered a region under *label*."""
        return label in self.regions

    def __repr__(self) -> str:
        kind = "kthread" if self.mm is None else "user"
        return f"Process(pid={self.pid}, comm={self.comm!r}, {kind})"
