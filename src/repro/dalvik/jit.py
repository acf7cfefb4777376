"""The trace JIT's ``Compiler`` thread.

One per Dalvik process.  It drains the context's hot-method queue,
charging compilation work to ``libdvm.so`` (instruction side) and emitting
the trace into ``dalvik-jit-code-cache`` (data side) — the combination the
paper observes as the Compiler thread's 7.1% suite share and the
jit-code-cache instruction region.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.dalvik.vm import DalvikContext
from repro.libs.registry import mapped_object
from repro.sim.ops import Block, Op, merge_data

if TYPE_CHECKING:
    from repro.kernel.task import Task


def compiler_thread(ctx: DalvikContext):
    """Behaviour factory for a process's Compiler thread."""

    def behavior(task: "Task") -> Iterator[Op]:
        libdvm = mapped_object(ctx.proc, "libdvm.so")
        while True:
            if not ctx.jit_queue:
                yield Block(ctx.jit_waitq)
                continue
            method = ctx.jit_queue.popleft()
            if method in ctx.compiled:
                continue
            insts = max(
                int(method.bytecodes * ctx.cal.jit_compile_insts_per_bytecode), 512
            )
            ctx.mark_compiled(method)
            yield libdvm.call(
                "dvmJitCompile",
                insts=insts,
                data=merge_data(
                    (ctx.jit_vma.start + ctx.compiled[method], method.bytecodes * 90),
                    (ctx.dex_addr(), method.bytecodes * 60),
                    (ctx.heap_addr(3), method.bytecodes * 150),
                ),
            )

    return behavior
