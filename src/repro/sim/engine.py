"""The simulation engine: an N-core SMP event loop dispatching ops.

This is gem5's event loop in miniature, generalised to symmetric
multiprocessing.  Each CPU pulls ops from the task its per-CPU runqueue
picked; blocking/sleeping ops park the task; the timer queue drives
periodic threads; a CPU with nothing runnable idles (the ``swapper``
task accrues a trickle of kernel references — which is why the paper's
SPEC bars show a sliver of ``swapper``).

Determinism rules (the invariant the whole backend/cache fleet relies
on — a run is a pure function of ``(bench_id, RunConfig)``):

* CPUs interleave in global tick order: the engine always acts on the
  CPU whose next action is earliest, breaking timestamp ties in favour
  of CPUs mid-dispatch (so wakeup side effects land before an idle CPU
  re-picks) and then by lowest CPU id.
* Wake placement, idle pulls and periodic balancing are deterministic
  functions of runqueue state (see :class:`~repro.kernel.sched.Scheduler`).
* Timeslices, CPU-time accounting and the between-ops preemption poll
  come from the scheduler policy: the round-robin default grants full
  quanta and never preempts (byte-identical to the pre-CFS engine),
  while a ``cpu_profile`` machine's :class:`~repro.kernel.sched.CfsScheduler`
  grants slice remainders and preempts on vruntime lead.
* With ``cpus > 1``, a CPU selected idle skips the pick when no
  runqueue holds an entry, live or dead: under either policy that pick
  would return None and change nothing.  It parks instead, together
  with every other CPU due now with no task, in CPU-id order, all to
  one target.  The loop's next passes would park those CPUs one at a
  time, in that order and to that target: no CPU with a task is due now
  (the tie-break would have selected it), parking binds no task and
  enqueues nothing, and no timer or fault can come due before the clock
  moves.
* A parked CPU's first nonzero idle charge in each :meth:`Engine.run_until`
  call goes to the profiler when it is made; later ones add to a
  per-CPU count that is charged once, in CPU-id order, as the call
  returns.  The first charge creates the swapper's profiler keys for
  that CPU, and the later ones only add to those keys, so every
  counter keeps its first-charge key order and its sum.  Nothing reads
  the profiler inside ``run_until``.
* With ``cpus=1`` the loop replays the original single-CPU engine
  op-for-op, so single-core results stay byte-identical.

The inner loop is the dominant cost of every run, so it binds hot
attributes to locals and probes the timer heap inline instead of paying
a method call per retired block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SchedulerError
from repro.kernel.task import TaskState
from repro.sim.ops import Block, ExecBlock, Sleep, SleepUntil, Yield

if TYPE_CHECKING:
    from repro.kernel.task import Task
    from repro.sim.cpu import AtomicCPU
    from repro.sim.system import System

#: Idle-loop intensity: kernel instructions per tick while idling.
IDLE_INSTS_PER_TICK = 0.0005


class _CpuSlot:
    """One CPU's execution state inside the event loop."""

    __slots__ = ("cpu", "index", "task", "quantum_end", "next_at", "idle_owed")

    def __init__(self, cpu: "AtomicCPU", index: int) -> None:
        self.cpu = cpu
        self.index = index
        #: The RUNNING task bound to this CPU (None while picking/idling).
        self.task: "Task | None" = None
        self.quantum_end = 0
        #: Absolute tick of this CPU's next action: the end of the block
        #: it is retiring, the instant it should re-pick, or (while idle)
        #: the next event that could hand it work.
        self.next_at = 0
        #: Idle instructions parked but not yet charged in this
        #: ``run_until`` call; None until its first idle charge.
        self.idle_owed: "int | None" = None


class Engine:
    """Runs the system forward in time across every CPU."""

    def __init__(self, system: "System") -> None:
        self.system = system
        self.clock = system.clock
        self.cpus = system.cpus
        self.profiler = system.profiler
        self.sched = system.kernel.sched
        self.timers = system.kernel.timers
        self.ops_dispatched = 0
        #: Idle ticks summed across CPUs (single-CPU: the old counter).
        self.idle_ticks = 0
        #: Idle ticks per CPU, indexed by CPU id.
        self.cpu_idle_ticks = [0] * len(system.cpus)
        #: Measure of the union of busy intervals across CPUs: ticks
        #: during which at least one CPU was retiring a block.  Paired
        #: with per-CPU busy ticks this yields the TLP-style concurrency
        #: metric (average CPUs busy while any CPU is busy).
        self.any_busy_ticks = 0
        self._busy_until = 0
        self._slots = [_CpuSlot(cpu, i) for i, cpu in enumerate(system.cpus)]

    # ------------------------------------------------------------------

    def run_until(self, deadline: int) -> None:
        """Advance simulated time to *deadline* (absolute tick)."""
        try:
            self._run_until(deadline)
        finally:
            self._charge_owed_idle()

    def _run_until(self, deadline: int) -> None:
        clock = self.clock
        timers = self.timers
        timer_heap = timers._heap  # hot-loop: probe before paying fire_due
        sched = self.sched
        account = sched.account
        timeslice = sched.timeslice
        queued = sched.queued
        # The preemption poll only exists under the CFS policy; binding
        # None keeps the round-robin hot loop at a single comparison.
        preempt = sched.should_preempt if sched.preemptive else None
        kernel = self.system.kernel
        slots = self._slots
        others = slots[1:]
        smp = len(slots) > 1
        idle = False
        # Fault injection: an armed injector exposes the tick of its
        # earliest pending event; no plan means one None comparison.
        injector = self.system.faults
        fault_due = injector.next_due if injector is not None else None

        now = clock.now
        if now >= deadline:
            timers.fire_due(now)
            return
        for slot in slots:
            slot.task = None
            slot.next_at = now
        next_balance = now + sched.balance_period

        while True:
            # Select the next acting CPU: earliest next_at; ties prefer a
            # CPU mid-dispatch over one about to pick, then lowest id via
            # scan order.
            best = slots[0]
            t = best.next_at
            if smp:
                for slot in others:
                    at = slot.next_at
                    if at < t or (
                        at == t and best.task is None and slot.task is not None
                    ):
                        best, t = slot, at
                # Selected idle means no CPU with a task is due at t.  A
                # CPU selected busy may still lose its task to a fault
                # below; it then parks alone.
                idle = best.task is None
            if t >= deadline:
                break
            if t > now:
                now = clock.advance_to(t)
                if smp and now >= next_balance:
                    sched.balance()
                    next_balance = now + sched.balance_period
            if timer_heap and timer_heap[0][0] <= now:
                timers.fire_due(now)
            if fault_due is not None and now >= fault_due:
                injector.fire_due(now, slots)
                fault_due = injector.next_due

            task = best.task
            if task is not None and (
                now >= best.quantum_end
                or (preempt is not None and preempt(task, best.index))
            ):
                sched.requeue(task, best.index)
                best.task = task = None
            if task is None:
                if idle and not queued():
                    # Every pick would fail: park all idle CPUs due now.
                    self._park(now, deadline)
                    continue
                task = sched.pick(best.index)
                if task is None:
                    self._park(now, deadline, best)
                    continue
                best.task = task
                best.quantum_end = now + timeslice(task)

            # Dispatch exactly one op; the loop re-selects between ops so
            # CPUs interleave at block granularity.
            behavior = task.behavior
            if behavior is None:
                kernel.reap_task(task)
                best.task = None
                best.next_at = now
                continue
            try:
                op = next(behavior)
            except StopIteration:
                kernel.reap_task(task)
                best.task = None
                best.next_at = now
                continue
            self.ops_dispatched += 1

            kind = type(op)
            if kind is ExecBlock:
                ticks = best.cpu.execute(task, op)
                account(task, best.index, ticks)
                end = now + ticks
                if end > self._busy_until:
                    start = now if now > self._busy_until else self._busy_until
                    self.any_busy_ticks += end - start
                    self._busy_until = end
                best.next_at = end
            elif kind is Block:
                task.state = TaskState.BLOCKED
                task.waitq = op.waitq
                op.waitq.add(task)
                best.task = None
                best.next_at = now
            elif kind is Sleep:
                self._sleep_until(task, now + op.duration)
                best.task = None
                best.next_at = now
            elif kind is SleepUntil:
                if op.deadline > now:
                    self._sleep_until(task, op.deadline)
                    best.task = None
                best.next_at = now
            elif kind is Yield:
                sched.requeue(task, best.index)
                best.task = None
                best.next_at = now
            else:
                raise SchedulerError(f"unknown op {op!r} from {task!r}")

        # Wind down: every CPU's next action is at or past the deadline.
        # Blocks already charged run to completion, so the clock lands on
        # the latest in-flight block end (or the deadline when the
        # machine idled there).  A CPU whose task a fault killed
        # mid-block holds no task but stays busy to that block's end, so
        # its end counts too.  Every CPU idles from its next action to
        # there, credited as idle ticks but not charged as idle
        # instructions, so busy + idle stays the elapsed time across
        # calls; due timers fire; still-running tasks unbind back to
        # their runqueues in CPU-id order.
        end = deadline
        for slot in slots:
            if slot.next_at > end:
                end = slot.next_at
        for slot in slots:
            span = end - slot.next_at
            if span > 0:
                self.idle_ticks += span
                self.cpu_idle_ticks[slot.index] += span
        clock.advance_to(end)
        timers.fire_due(clock.now)
        for slot in slots:
            if slot.task is not None:
                sched.requeue(slot.task, slot.index)
                slot.task = None

    def run_for(self, duration: int) -> None:
        """Advance simulated time by *duration* ticks."""
        self.run_until(self.clock.now + duration)

    # ------------------------------------------------------------------

    def _sleep_until(self, task: "Task", deadline: int) -> None:
        task.state = TaskState.SLEEPING
        self.timers.add(deadline, task)

    def _park(
        self, now: int, deadline: int, only: "_CpuSlot | None" = None
    ) -> None:
        """Idle *only*, or with None every CPU due now with no task, in
        CPU-id order, until the next event that could hand it work: a
        timer firing, or any busy CPU's next action (ops are where
        wakeups, spawns and queue placement happen), capped at
        *deadline*.  The target is strictly in the future (timers due now
        already fired; zero-length blocks keep their CPU ahead in the
        tie-break), so a parked CPU always makes progress."""
        target = deadline
        next_timer = self.timers.next_deadline()
        if next_timer is not None and now < next_timer < target:
            target = next_timer
        parked = [] if only is None else [only]
        for other in self._slots:
            if other.task is not None:
                if now < other.next_at < target:
                    target = other.next_at
            elif only is None and other.next_at == now:
                parked.append(other)
        span = target - now
        insts = int(span * IDLE_INSTS_PER_TICK)
        idle = self.system.kernel.idle_task
        for slot in parked:
            # A slow (LITTLE) core retires proportionally fewer idle
            # instructions in the same span; the symmetric default
            # divides by 1 and stays bit-exact.
            tpi = slot.cpu.ticks_per_inst
            charged = insts // tpi if tpi > 1 else insts
            if idle is not None and charged > 0:
                if slot.idle_owed is None:
                    self.profiler.charge_idle(
                        idle.process.comm, idle.name, charged, slot.index
                    )
                    slot.idle_owed = 0
                else:
                    slot.idle_owed += charged
            self.idle_ticks += span
            self.cpu_idle_ticks[slot.index] += span
            slot.next_at = target

    def _charge_owed_idle(self) -> None:
        """Charge each CPU's deferred idle instructions, in CPU-id order,
        and clear the deferral for the next ``run_until`` call."""
        idle = self.system.kernel.idle_task
        for slot in self._slots:
            if slot.idle_owed:
                self.profiler.charge_idle(
                    idle.process.comm, idle.name, slot.idle_owed, slot.index
                )
            slot.idle_owed = None
