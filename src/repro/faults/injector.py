"""The fault injector: turns a :class:`FaultPlan` into engine events.

Armed by the runner after boot and settle, so faults only ever fire
inside the measurement window: a faulted run and its fault-free
baseline share their boot and settle.  Arming attaches the injector to
its system (``system.faults``), where the engine and binder threads
find it; disarming detaches it.  Every probabilistic draw comes
from an RNG stream derived from ``bench_seed`` mixed with a channel
name, so the fault sequence is a pure function of ``(bench_id,
RunConfig)`` — the same determinism contract the backends and caches
already rely on.

Scheduled events (kills, restarts, evictions, throttle edges) live in a
heap keyed by absolute tick; the engine probes ``next_due`` once per
loop pass (one comparison when no plan is armed) and calls
:meth:`FaultInjector.fire_due` when an event comes due.  Events fire at
the engine's next time-advance at or after their scheduled tick —
late-but-deterministic, like timer wheels everywhere.
"""

from __future__ import annotations

import heapq
import random
import zlib
from typing import TYPE_CHECKING

from repro.faults.plan import FaultPlan, ThreadKill, ThrottleWindow
from repro.sim.ticks import millis

if TYPE_CHECKING:
    from repro.android.binder import Transaction
    from repro.kernel.task import Task
    from repro.sim.system import System

#: Codes whose senders never read the reply: a failed delivery can be
#: dropped outright (the stack absorbs it).  Every other code has a
#: sender blocked on the reply payload, so failures retry instead.
DROP_SAFE_CODES = frozenset({"activity_idle", "relayout"})

#: The fixed counter vocabulary every faulted RunResult reports, plus
#: ``kills_unmatched`` (kills that found no live target) only when
#: nonzero: a typo'd target never reads as a fault-free run.
COUNTER_KEYS = (
    "binder_failed",
    "binder_dropped",
    "binder_retried",
    "threads_killed",
    "threads_restarted",
    "evictions",
    "evicted_bytes",
    "throttle_events",
)

#: The framework threads a ``restart`` respawns, as ``(process comm,
#: thread name)``: each is spawned again exactly as boot spawned it.  A
#: restart of any other thread does nothing; its kill still counts in
#: ``threads_killed``, and ``threads_restarted`` does not move.
RESTARTED_THREADS = frozenset({
    ("system_server", "SurfaceFlinger"),
    ("system_server", "InputReader"),
    ("system_server", "InputDispatcher"),
    ("system_server", "watchdog"),
    ("mediaserver", "AudioOut_1"),
})

_SEED_MIX = 2_654_435_761


def channel_rng(seed: int, channel: str) -> random.Random:
    """A per-channel RNG stream derived from the bench seed."""
    return random.Random((seed * _SEED_MIX + zlib.crc32(channel.encode())) & 0xFFFF_FFFF)


class FaultInjector:
    """Executes one plan against one prepared system."""

    def __init__(self, plan: FaultPlan, seed: int, system: "System") -> None:
        self.plan = plan
        self.system = system
        self._binder_rng = channel_rng(seed, "binder")
        self._counters = {key: 0 for key in COUNTER_KEYS}
        self._kills_unmatched = 0
        self._events: list[tuple[int, int, str, object]] = []
        self._seq = 0
        self._saved_tpi: dict[int, int] = {}
        #: Absolute tick of the earliest pending event (None when idle);
        #: the engine binds this so an armed-but-quiet injector costs one
        #: integer comparison per loop pass.
        self.next_due: int | None = None

    # ------------------------------------------------------------------
    # Scheduling

    def _push(self, tick: int, kind: str, payload: object = None) -> None:
        heapq.heappush(self._events, (tick, self._seq, kind, payload))
        self._seq += 1

    def arm(self, window_start: int) -> None:
        """Schedule the plan's events relative to the window start and
        attach to the system."""
        for kill in self.plan.thread_kills:
            self._push(window_start + millis(kill.at_ms), "kill", kill)
        for off in self.plan.evict_at_ms:
            self._push(window_start + millis(off), "evict")
        for window in self.plan.throttles:
            self._push(window_start + millis(window.at_ms), "throttle_on", window)
            self._push(
                window_start + millis(window.at_ms + window.duration_ms),
                "throttle_off",
                window,
            )
        self.next_due = self._events[0][0] if self._events else None
        self.system.faults = self

    def disarm(self) -> None:
        """Detach from the system, drop pending events and undo any
        still-open throttle."""
        self.system.faults = None
        self._events.clear()
        self.next_due = None
        for index, saved in self._saved_tpi.items():
            self.system.cpus[index].unthrottle(saved)
        self._saved_tpi.clear()

    # ------------------------------------------------------------------
    # Engine hook

    def fire_due(self, now: int, slots) -> None:
        """Fire every event due at *now*; unbind any slot whose task died."""
        events = self._events
        while events and events[0][0] <= now:
            _tick, _seq, kind, payload = heapq.heappop(events)
            if kind == "kill":
                self._fire_kill(payload, now)
            elif kind == "restart":
                self._fire_restart(payload)
            elif kind == "evict":
                self._fire_evict()
            elif kind == "throttle_on":
                self._throttle_on(payload)
            elif kind == "throttle_off":
                self._throttle_off(payload)
        self.next_due = events[0][0] if events else None
        # A killed task may still be bound to a CPU mid-block; its ticks
        # were charged at dispatch, so unbinding is the only cleanup.
        for slot in slots:
            task = slot.task
            if task is not None and not task.alive:
                slot.task = None

    # ------------------------------------------------------------------
    # Event bodies

    def _fire_kill(self, kill: ThreadKill, now: int) -> None:
        proc = self.system.kernel.find_process(kill.proc)
        live = proc.live_tasks() if proc is not None and proc.alive else ()
        victim = next((t for t in live if t.name == kill.thread), None)
        if victim is None:
            self._kills_unmatched += 1
            return
        self.system.kernel.reap_task(victim)
        self._counters["threads_killed"] += 1
        if kill.restart_ms > 0:
            self._push(now + millis(kill.restart_ms), "restart", victim)

    def _fire_restart(self, victim: "Task") -> None:
        """Repeat the spawn the kernel recorded for a framework thread."""
        if (victim.process.comm, victim.name) not in RESTARTED_THREADS:
            return
        self.system.kernel.spawn_thread(
            victim.process, victim.name, victim.factory,
            affinity=victim.affinity, nice=victim.nice,
        )
        self._counters["threads_restarted"] += 1

    def _fire_evict(self) -> None:
        evicted = self.system.fs.evict_all()
        self._counters["evictions"] += 1
        self._counters["evicted_bytes"] += evicted

    def _throttle_on(self, window: ThrottleWindow) -> None:
        cpus = self.system.cpus
        indices = (
            range(len(cpus)) if window.cpus is None
            else (i for i in window.cpus if 0 <= i < len(cpus))
        )
        fired = False
        for index in indices:
            if index not in self._saved_tpi:
                self._saved_tpi[index] = cpus[index].throttle(window.factor)
                fired = True
        if fired:
            self._counters["throttle_events"] += 1

    def _throttle_off(self, window: ThrottleWindow) -> None:
        cpus = self.system.cpus
        indices = (
            range(len(cpus)) if window.cpus is None
            else (i for i in window.cpus if 0 <= i < len(cpus))
        )
        for index in indices:
            saved = self._saved_tpi.pop(index, None)
            if saved is not None:
                cpus[index].unthrottle(saved)

    # ------------------------------------------------------------------
    # Binder hook

    def binder_outcome(self, txn: "Transaction") -> str:
        """Classify one popped transaction: deliver, drop, or retry."""
        rate = self.plan.binder_fail_rate
        if rate <= 0.0 or self._binder_rng.random() >= rate:
            return "deliver"
        self._counters["binder_failed"] += 1
        if txn.code in DROP_SAFE_CODES:
            self._counters["binder_dropped"] += 1
            return "drop"
        self._counters["binder_retried"] += 1
        return "retry"

    # ------------------------------------------------------------------

    def counters(self) -> dict:
        """A snapshot of the fixed counter vocabulary (always all keys),
        plus ``kills_unmatched`` when a kill found no target."""
        out = dict(self._counters)
        if self._kills_unmatched:
            out["kills_unmatched"] = self._kills_unmatched
        return out
