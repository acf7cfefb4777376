"""Dalvik heap service threads: ``GC`` and ``HeapWorker``.

The GC thread performs mark/sweep proportional to live heap when the
context's allocation accounting trips the trigger; HeapWorker runs
finalisers/reference enqueueing on a small periodic budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.dalvik.vm import DalvikContext
from repro.libs.registry import mapped_object
from repro.sim.ops import Block, Op, Sleep
from repro.sim.ticks import millis

if TYPE_CHECKING:
    from repro.kernel.task import Task


def gc_thread(ctx: DalvikContext):
    """Behaviour factory for a process's GC thread."""

    def behavior(task: "Task") -> Iterator[Op]:
        libdvm = mapped_object(ctx.proc, "libdvm.so")
        while True:
            if not ctx.gc_pending:
                yield Block(ctx.gc_waitq)
                continue
            ctx.gc_pending = False
            cal = ctx.cal
            live_kb = max(ctx.live_bytes // 1024, 64)
            total = int(live_kb * cal.gc_insts_per_kb)
            heap = ctx.heap_addr
            yield libdvm.call(
                "dvmGcMark",
                insts=max(int(total * 0.62), 256),
                data=((heap(11), live_kb * 400), (ctx.linear_addr(), live_kb * 30)),
            )
            yield libdvm.call(
                "dvmGcSweep",
                insts=max(int(total * 0.38), 128),
                data=((heap(23), live_kb * 200),),
            )
            ctx.live_bytes = int(ctx.live_bytes * cal.gc_survivor_ratio)
            ctx.gc_cycles += 1

    return behavior


def heap_worker_thread(ctx: DalvikContext):
    """Behaviour factory for HeapWorker (finalisers, ref enqueueing)."""

    def behavior(task: "Task") -> Iterator[Op]:
        libdvm = mapped_object(ctx.proc, "libdvm.so")
        while True:
            yield Sleep(millis(700))
            yield libdvm.call(
                "dvmAllocObject", insts=900, data=((ctx.heap_addr(5), 80),)
            )

    return behavior


def idle_vm_thread(name: str):
    """Behaviour factory for near-idle VM threads (Signal Catcher, JDWP).

    They exist for the paper's thread-count claims and park immediately
    after a tiny startup burst.
    """

    def behavior(task: "Task") -> Iterator[Op]:
        from repro.kernel.syscalls import kernel_exec

        yield kernel_exec(f"vm_thread_start:{name}", 400, 40)
        while True:
            yield Sleep(millis(5_000))

    return behavior
