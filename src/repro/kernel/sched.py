"""CPU schedulers and the timer queue.

Two scheduling policies share one interface:

* :class:`Scheduler` — the reproducibility baseline: one deterministic
  round-robin FIFO runqueue per CPU (affinity hints, idlest-queue
  placement, idle pulls, periodic balancing).  This is the policy every
  default run uses, and it is kept byte-for-byte identical to the
  pre-CFS engine so historical results, golden anchors and cache
  entries stay valid.
* :class:`CfsScheduler` — the realism policy, selected whenever a
  :class:`~repro.core.runner.RunConfig` names a ``cpu_profile``: a
  CFS-style weighted-vruntime queue per CPU (min-vruntime pick, the
  Linux nice→weight table, wakeup placement clamped to the queue's
  virtual clock, vruntime-lead preemption) with capacity-aware
  placement and balancing for big.LITTLE machines.  Timeslice
  accounting lives on the task (``quantum_used``), so a task preempted
  mid-quantum and migrated by the balancer resumes the remainder of
  its slice on the new CPU rather than a fresh one.

Both policies are fully deterministic: any ``(bench_id, RunConfig)``
pair maps to exactly one result regardless of backend or host.  The
timer queue drives sleeps, vsync loops and device completion callbacks.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import deque
from typing import TYPE_CHECKING

from repro.errors import SchedulerError
from repro.kernel.task import Task, TaskState

if TYPE_CHECKING:
    from collections.abc import Sequence


#: CFS load weight of a nice-0 task (Linux's NICE_0_LOAD >> SCHED_LOAD_SHIFT).
NICE_0_WEIGHT = 1024

#: Linux ``sched_prio_to_weight``: nice -20 (index 0) through +19, each
#: step ~1.25x so one nice level shifts CPU share by ~10%.
PRIO_TO_WEIGHT = (
    88761, 71755, 56483, 46273, 36291,
    29154, 23254, 18705, 14949, 11916,
    9548, 7620, 6100, 4904, 3906,
    3121, 2501, 1991, 1586, 1277,
    1024, 820, 655, 526, 423,
    335, 272, 215, 172, 137,
    110, 87, 70, 56, 45,
    36, 29, 23, 18, 15,
)

#: Capacity of a full-speed core (Linux's SCHED_CAPACITY_SCALE).
CAPACITY_SCALE = 1024


def weight_for_nice(nice: int) -> int:
    """The CFS load weight of a task at *nice* (-20..19)."""
    if not -20 <= nice <= 19:
        raise SchedulerError(f"nice must be in [-20, 19], got {nice}")
    return PRIO_TO_WEIGHT[nice + 20]


class Scheduler:
    """Deterministic per-CPU round-robin runqueues."""

    #: Default timeslice: 10ms of simulated time.
    QUANTUM_TICKS = 10_000_000

    #: Simulated time between periodic :meth:`balance` passes (engine-driven).
    BALANCE_TICKS = 4 * QUANTUM_TICKS

    #: Whether the engine should poll :meth:`should_preempt` between ops.
    preemptive = False

    def __init__(self, quantum: int | None = None, cpus: int = 1) -> None:
        if cpus < 1:
            raise SchedulerError(f"scheduler needs cpus >= 1, got {cpus}")
        self.quantum = quantum if quantum is not None else self.QUANTUM_TICKS
        self.balance_period = self.BALANCE_TICKS
        self.cpus = cpus
        #: Per-CPU relative capacity (uniform for the symmetric policy).
        self.capacities: "Sequence[int]" = (CAPACITY_SCALE,) * cpus
        self._runqs: list[deque[Task]] = [deque() for _ in range(cpus)]
        self.context_switches = 0
        #: Tasks moved between runqueues (idle pulls + periodic balancing).
        self.migrations = 0
        #: Ticks of CPU time charged through :meth:`account`, per CPU.
        #: Matches the engine's per-CPU busy ticks exactly (the
        #: scheduler-invariant tests pin the equality).
        self.quantum_ticks_by_cpu = [0] * cpus

    # ------------------------------------------------------------------
    # CPU-time accounting (shared by both policies)

    def account(self, task: Task, cpu_id: int, ticks: int) -> None:
        """Charge *ticks* of CPU time a task just consumed on *cpu_id*.

        Advances the task's weighted vruntime and timeslice consumption
        and the per-CPU quantum totals.  Pure bookkeeping for the
        round-robin policy (which ignores vruntime when picking), the
        ordering key for :class:`CfsScheduler`.
        """
        task.quantum_used += ticks
        task.vruntime += (ticks * NICE_0_WEIGHT) // task.weight
        self.quantum_ticks_by_cpu[cpu_id] += ticks

    def timeslice(self, task: Task) -> int:
        """Ticks the engine should let *task* run before requeueing it.

        The round-robin policy always grants a full quantum; the CFS
        policy grants the unconsumed remainder (see
        :meth:`CfsScheduler.timeslice`).
        """
        return self.quantum

    def should_preempt(self, task: Task, cpu_id: int) -> bool:
        """Whether a queued task should preempt the running *task* now.

        Never, under round-robin (tasks run to quantum expiry); the
        engine only polls this when :attr:`preemptive` is set.
        """
        return False

    def __len__(self) -> int:
        return sum(len(q) for q in self._runqs)

    def runq_len(self, cpu_id: int) -> int:
        """Queued (waiting) tasks on one CPU's runqueue."""
        return len(self._runqs[cpu_id])

    def queued(self) -> bool:
        """Whether any runqueue holds an entry, live or dead.  When none
        does, :meth:`pick` returns None on every CPU and changes nothing,
        so the engine parks without calling it."""
        return any(self._runqs)

    # ------------------------------------------------------------------
    # Placement

    def _pin(self, task: Task) -> int | None:
        """The CPU a task is validly pinned to, or None.

        An out-of-range hint (a 4-core pin carried onto a 2-core
        machine) must degrade to "unpinned" *consistently* — both for
        placement and for migration — or the task would place like a
        free task yet be unstealable from a backed-up queue.
        """
        hint = task.affinity
        if hint is not None and 0 <= hint < self.cpus:
            return hint
        return None

    def _place(self, task: Task) -> int:
        """The runqueue a waking task lands on.

        Affinity wins outright; otherwise the idlest queue, preferring
        the task's last CPU among equally idle queues (warm placement),
        then the lowest CPU id.
        """
        if self.cpus == 1:
            return 0
        hint = self._pin(task)
        if hint is not None:
            return hint
        runqs = self._runqs
        best = 0
        best_len = len(runqs[0])
        for cpu_id in range(1, self.cpus):
            qlen = len(runqs[cpu_id])
            if qlen < best_len:
                best, best_len = cpu_id, qlen
        last = task.last_cpu
        if last is not None and 0 <= last < self.cpus and len(runqs[last]) == best_len:
            return last
        return best

    def enqueue(self, task: Task) -> None:
        """Add a runnable task to the back of its placement queue."""
        if task.state is not TaskState.RUNNABLE:
            raise SchedulerError(f"enqueue of non-runnable {task!r}")
        self._runqs[self._place(task)].append(task)

    def pick(self, cpu_id: int = 0) -> Task | None:
        """Pop the next runnable task for *cpu_id*, skipping any that died
        in the queue; an empty queue pulls from the busiest other CPU."""
        q = self._runqs[cpu_id]
        while q:
            task = q.popleft()
            if task.state is TaskState.RUNNABLE:
                return self._dispatch(task, cpu_id)
        if self.cpus > 1:
            return self._pull(cpu_id)
        return None

    def _dispatch(self, task: Task, cpu_id: int) -> Task:
        task.state = TaskState.RUNNING
        task.last_cpu = cpu_id
        self.context_switches += 1
        return task

    def _pull(self, cpu_id: int) -> Task | None:
        """Idle balancing: steal the oldest migratable waiter from the
        longest other queue (ties broken by lowest CPU id).  Tasks pinned
        elsewhere by affinity never migrate; dead entries are left for
        their own queue's pick to prune."""
        order = sorted(
            (src for src in range(self.cpus) if src != cpu_id and self._runqs[src]),
            key=lambda src: (-len(self._runqs[src]), src),
        )
        for src in order:
            q = self._runqs[src]
            for i, task in enumerate(q):
                if task.state is not TaskState.RUNNABLE:
                    continue
                pin = self._pin(task)
                if pin is not None and pin != cpu_id:
                    continue
                del q[i]
                self.migrations += 1
                return self._dispatch(task, cpu_id)
        return None

    def balance(self) -> int:
        """Periodic pull pass: move waiters from the longest to the
        shortest runqueue until lengths differ by at most one.  Returns
        the number of tasks moved.  A no-op on a single-CPU machine."""
        moved = 0
        if self.cpus < 2:
            return moved
        while True:
            lens = [len(q) for q in self._runqs]
            src = max(range(self.cpus), key=lambda c: (lens[c], -c))
            dst = min(range(self.cpus), key=lambda c: (lens[c], c))
            if lens[src] - lens[dst] < 2:
                return moved
            q = self._runqs[src]
            for i, task in enumerate(q):
                if task.state is not TaskState.RUNNABLE:
                    continue
                pin = self._pin(task)
                if pin is not None and pin != dst:
                    continue
                del q[i]
                self._runqs[dst].append(task)
                self.migrations += 1
                moved += 1
                break
            else:
                return moved

    def requeue(self, task: Task, cpu_id: int = 0) -> None:
        """Put a preempted/yielding task back on the queue of the CPU it
        ran on (it does not re-run placement — its cache state is there)."""
        task.state = TaskState.RUNNABLE
        self._runqs[cpu_id].append(task)

    def remove(self, task: Task) -> None:
        """Drop a task from whichever queue holds it (exit path)."""
        for q in self._runqs:
            try:
                q.remove(task)
                return
            except ValueError:
                continue

    def snapshot(self, cpu_id: int | None = None) -> tuple[Task, ...]:
        """Current queue contents in order (diagnostics): one CPU's queue,
        or every queue concatenated in CPU-id order."""
        if cpu_id is not None:
            return tuple(self._runqs[cpu_id])
        return tuple(task for q in self._runqs for task in q)


class _CfsQueue:
    """One CPU's CFS runqueue: ``(vruntime, seq, task, weight)`` entries
    sorted by (vruntime, seq).

    Queued tasks' vruntimes are frozen (they only accrue while running),
    so the sort key assigned at enqueue time stays valid; ``seq`` makes
    equal-vruntime ordering FIFO and keeps tuple comparison from ever
    reaching the (incomparable) task.  The weight is recorded at push
    time and used for the matching ``load`` decrement, so a task reniced
    *while queued* cannot skew the accounting.  ``min_vruntime`` is the
    queue's monotonic virtual clock: it only ever ratchets forward, and
    wakeups are clamped up to it so a long sleeper cannot starve the
    queue on re-entry with an ancient vruntime.
    """

    __slots__ = ("entries", "min_vruntime", "load")

    def __init__(self) -> None:
        self.entries: list[tuple[int, int, Task, int]] = []
        self.min_vruntime = 0
        #: Sum of queued (waiting) task weights — the placement load.
        self.load = 0

    def __len__(self) -> int:
        return len(self.entries)


class CfsScheduler(Scheduler):
    """CFS-style weighted-vruntime runqueues with capacity awareness.

    Selected by the kernel whenever the system runs under a named
    ``cpu_profile``.  Differences from the round-robin baseline:

    * **pick** takes the minimum-vruntime runnable task, so CPU time
      converges to each task's weight share (nice→weight table);
    * **placement** minimises post-placement scaled load
      ``(queue_load + task_weight) * 1024 / capacity``, so heavy tasks
      prefer big cores and a loaded big core still beats an idle LITTLE
      core for heavy work, with ties broken toward higher capacity,
      then the task's last CPU, then the lowest id;
    * **preemption**: between ops the engine asks whether the leftmost
      waiter's vruntime leads the running task's by more than
      :data:`PREEMPT_GRANULARITY_TICKS`; a preempted task keeps its
      partially-consumed timeslice (``task.quantum_used``) and resumes
      the remainder after any migration;
    * **balancing** (idle pulls and the periodic pass) moves the
      most-entitled (min-vruntime) migratable waiter from the highest
      scaled-load queue, and only when the move strictly shrinks the
      pair's load spread.
    """

    preemptive = True

    #: Floor on a resumed timeslice (Linux's sched_min_granularity).
    MIN_GRANULARITY_TICKS = 1_500_000
    #: Vruntime lead a waiter needs before it preempts the running task
    #: (Linux's sched_wakeup_granularity).
    PREEMPT_GRANULARITY_TICKS = 2_000_000

    def __init__(
        self,
        quantum: int | None = None,
        cpus: int = 1,
        capacities: "Sequence[int] | None" = None,
    ) -> None:
        super().__init__(quantum, cpus)
        if capacities is not None:
            if len(capacities) != cpus:
                raise SchedulerError(
                    f"{cpus} cpus but {len(capacities)} capacities"
                )
            if any(cap < 1 for cap in capacities):
                raise SchedulerError(f"capacities must be >= 1: {capacities}")
            self.capacities = tuple(capacities)
        self._runqs: list[_CfsQueue] = [  # type: ignore[assignment]
            _CfsQueue() for _ in range(cpus)
        ]
        self._seq = 0

    # ------------------------------------------------------------------
    # Queue plumbing

    def __len__(self) -> int:
        return sum(len(q.entries) for q in self._runqs)

    def runq_len(self, cpu_id: int) -> int:
        return len(self._runqs[cpu_id].entries)

    def queued(self) -> bool:
        # The entry lists, not the queues: a queue's truth would call the
        # Python-level _CfsQueue.__len__ on every idle pass.
        for q in self._runqs:
            if q.entries:
                return True
        return False

    def min_vruntime(self, cpu_id: int) -> int:
        """The queue's virtual clock (monotonic; invariant-test hook)."""
        return self._runqs[cpu_id].min_vruntime

    def queue_load(self, cpu_id: int) -> int:
        """Sum of queued task weights on one CPU."""
        return self._runqs[cpu_id].load

    def _push(self, cpu_id: int, task: Task) -> None:
        q = self._runqs[cpu_id]
        self._seq += 1
        weight = task.weight
        insort(q.entries, (task.vruntime, self._seq, task, weight))
        q.load += weight

    def _pop_min(self, cpu_id: int) -> Task | None:
        """Pop the min-vruntime runnable task, pruning dead entries and
        ratcheting the queue's virtual clock forward."""
        # The engine calls this once per dispatch; hot names (the entry
        # list, the runnable sentinel, the running load total) are bound
        # locally and the load written back once on exit.
        q = self._runqs[cpu_id]
        entries = q.entries
        runnable = TaskState.RUNNABLE
        load = q.load
        while entries:
            vruntime, _, task, weight = entries.pop(0)
            load -= weight
            if task.state is runnable:
                q.load = load
                if vruntime > q.min_vruntime:
                    q.min_vruntime = vruntime
                return task
        q.load = load
        return None

    def _scaled_load(self, cpu_id: int) -> int:
        """Queue load normalised by core capacity (big cores look
        emptier than LITTLE cores carrying the same weight)."""
        return (self._runqs[cpu_id].load * CAPACITY_SCALE) // self.capacities[cpu_id]

    # ------------------------------------------------------------------
    # Placement

    def _place(self, task: Task) -> int:
        if self.cpus == 1:
            return 0
        hint = self._pin(task)
        if hint is not None:
            return hint
        last = task.last_cpu
        best = 0
        best_key: tuple[int, int, int, int] | None = None
        for cpu_id in range(self.cpus):
            cap = self.capacities[cpu_id]
            score = ((self._runqs[cpu_id].load + task.weight) * CAPACITY_SCALE) // cap
            key = (score, -cap, 0 if cpu_id == last else 1, cpu_id)
            if best_key is None or key < best_key:
                best, best_key = cpu_id, key
        return best

    def enqueue(self, task: Task) -> None:
        """Wake/spawn path: place, clamp vruntime to the destination
        queue's virtual clock, and grant a fresh timeslice."""
        if task.state is not TaskState.RUNNABLE:
            raise SchedulerError(f"enqueue of non-runnable {task!r}")
        cpu_id = self._place(task)
        floor = self._runqs[cpu_id].min_vruntime
        if task.vruntime < floor:
            task.vruntime = floor
        task.quantum_used = 0
        self._push(cpu_id, task)

    def requeue(self, task: Task, cpu_id: int = 0) -> None:
        """Preemption/yield/expiry path: back onto the CPU it ran on.

        An exhausted quantum starts a fresh slice; a preempted task
        keeps its remainder (and keeps it across any later migration).
        """
        task.state = TaskState.RUNNABLE
        if task.quantum_used >= self.quantum:
            task.quantum_used = 0
        self._push(cpu_id, task)

    # ------------------------------------------------------------------
    # Pick / preemption

    def pick(self, cpu_id: int = 0) -> Task | None:
        task = self._pop_min(cpu_id)
        if task is not None:
            return self._dispatch(task, cpu_id)
        if self.cpus > 1:
            return self._pull(cpu_id)
        return None

    def timeslice(self, task: Task) -> int:
        return max(self.MIN_GRANULARITY_TICKS, self.quantum - task.quantum_used)

    def should_preempt(self, task: Task, cpu_id: int) -> bool:
        """True when the leftmost runnable waiter on this CPU's queue is
        more entitled than the running task by a full wakeup granularity
        (prevents ping-ponging between near-equal tasks)."""
        # Polled between ops on every busy CPU — the hottest scheduler
        # entry point under the CFS policy, hence the local bindings.
        q = self._runqs[cpu_id]
        entries = q.entries
        runnable = TaskState.RUNNABLE
        while entries:
            vruntime, _, waiter, weight = entries[0]
            if waiter.state is runnable:
                return vruntime + self.PREEMPT_GRANULARITY_TICKS < task.vruntime
            entries.pop(0)
            q.load -= weight
        return False

    # ------------------------------------------------------------------
    # Balancing

    def _pull(self, cpu_id: int) -> Task | None:
        """Idle balancing: steal the most-entitled migratable waiter
        from the highest scaled-load queue (ties by lowest CPU id)."""
        order = sorted(
            (src for src in range(self.cpus)
             if src != cpu_id and self._runqs[src].entries),
            key=lambda src: (-self._scaled_load(src), src),
        )
        for src in order:
            q = self._runqs[src]
            for i, (_, _, task, weight) in enumerate(q.entries):
                if task.state is not TaskState.RUNNABLE:
                    continue
                pin = self._pin(task)
                if pin is not None and pin != cpu_id:
                    continue
                del q.entries[i]
                q.load -= weight
                self.migrations += 1
                dst = self._runqs[cpu_id]
                if task.vruntime < dst.min_vruntime:
                    task.vruntime = dst.min_vruntime
                return self._dispatch(task, cpu_id)
        return None

    def balance(self) -> int:
        """Periodic pass: move min-vruntime migratable waiters from the
        highest to the lowest scaled-load queue while each move strictly
        shrinks the pair's load spread.  Returns tasks moved."""
        moved = 0
        if self.cpus < 2:
            return moved
        while True:
            loads = [self._scaled_load(c) for c in range(self.cpus)]
            src = max(range(self.cpus), key=lambda c: (loads[c], -c))
            dst = min(range(self.cpus), key=lambda c: (loads[c], c))
            if src == dst or loads[src] <= loads[dst]:
                return moved
            q = self._runqs[src]
            dst_q = self._runqs[dst]
            for i, (_, _, task, weight) in enumerate(q.entries):
                if task.state is not TaskState.RUNNABLE:
                    continue
                pin = self._pin(task)
                if pin is not None and pin != dst:
                    continue
                delta_src = (weight * CAPACITY_SCALE) // self.capacities[src]
                delta_dst = (task.weight * CAPACITY_SCALE) // self.capacities[dst]
                if max(loads[src] - delta_src, loads[dst] + delta_dst) >= loads[src]:
                    continue
                del q.entries[i]
                q.load -= weight
                if task.vruntime < dst_q.min_vruntime:
                    task.vruntime = dst_q.min_vruntime
                self._push(dst, task)
                self.migrations += 1
                moved += 1
                break
            else:
                return moved

    # ------------------------------------------------------------------
    # Bookkeeping shared with the engine/kernel

    def remove(self, task: Task) -> None:
        for q in self._runqs:
            for i, (_, _, queued, weight) in enumerate(q.entries):
                if queued is task:
                    del q.entries[i]
                    q.load -= weight
                    return

    def snapshot(self, cpu_id: int | None = None) -> tuple[Task, ...]:
        if cpu_id is not None:
            return tuple(
                task for _, _, task, _ in self._runqs[cpu_id].entries
            )
        return tuple(
            task for q in self._runqs for _, _, task, _ in q.entries
        )


class TimerQueue:
    """Min-heap of (deadline, seq, task) wakeups."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Task]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def add(self, deadline: int, task: Task) -> None:
        """Schedule *task* to wake at absolute tick *deadline*."""
        self._seq += 1
        task.wake_deadline = deadline
        heapq.heappush(self._heap, (deadline, self._seq, task))

    def next_deadline(self) -> int | None:
        """Earliest pending deadline, or None when empty."""
        self._prune()
        return self._heap[0][0] if self._heap else None

    def fire_due(self, now: int) -> list[Task]:
        """Wake every task whose deadline has passed.

        An entry only fires if the task is still sleeping *on that entry*
        (``wake_deadline`` matches), so stale entries left behind by early
        wakeups never trigger a spurious wake.
        """
        woken: list[Task] = []
        while self._heap and self._heap[0][0] <= now:
            deadline, _, task = heapq.heappop(self._heap)
            if task.state is TaskState.SLEEPING and task.wake_deadline == deadline:
                task.make_runnable()
                woken.append(task)
        return woken

    def _prune(self) -> None:
        """Drop stale heap entries (woken early, exited, or rescheduled)."""
        while self._heap:
            deadline, _, task = self._heap[0]
            if task.state is TaskState.SLEEPING and task.wake_deadline == deadline:
                return
            heapq.heappop(self._heap)
