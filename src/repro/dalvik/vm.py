"""The Dalvik virtual machine: per-process runtime context.

:class:`DalvikContext` owns the regions the paper's data axis keys on —
``dalvik-heap``, ``dalvik-LinearAlloc``, ``dalvik-jit-code-cache`` — and
implements interpretation with trace-JIT promotion:

* interpreted execution fetches instructions from ``libdvm.so`` and reads
  bytecode *as data* from the owning dex mapping;
* once a method crosses the hotness threshold it is queued for the
  ``Compiler`` thread; compiled traces thereafter fetch instructions from
  ``dalvik-jit-code-cache`` at a much lower expansion factor.

Allocation pressure accumulates per context and wakes the ``GC`` thread —
both threads rank in the paper's Table I.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.dalvik.dex import BOOT_CLASSPATH, DexFile, map_dex
from repro.dalvik.method import JavaMethod
from repro.kernel.vma import (
    LABEL_DALVIK_HEAP,
    LABEL_JIT_CACHE,
    LABEL_LINEARALLOC,
    PERM_RW,
    PERM_RWX,
    VMAKind,
)
from repro.libs.registry import mapped_object
from repro.sim.ops import ExecBlock, merge_data

if TYPE_CHECKING:
    from repro.calibration import Calibration
    from repro.kernel.task import Process, Task
    from repro.kernel.waitq import WaitQueue

DALVIK_HEAP_SIZE = 24 * 1024 * 1024
LINEARALLOC_SIZE = 8 * 1024 * 1024
JIT_CACHE_SIZE = 1_536 * 1024

#: Key under which the context is stored on the process.
CONTEXT_KEY = "dalvik"


class DalvikContext:
    """Per-process Dalvik runtime state.

    *cal* is the owning system's calibration, passed in by the zygote.
    Interpretation, JIT and GC costs read it here, and app code hands it
    on to the Skia, Stagefright and AudioTrack cost helpers.
    """

    def __init__(
        self,
        proc: "Process",
        waitq_factory,
        cal: "Calibration",
        jit_enabled: bool = True,
        primary_dex: DexFile | None = None,
    ) -> None:
        self.proc = proc
        self.cal = cal
        self.jit_enabled = jit_enabled
        # Zygote-forked children inherit the VM arenas from the parent's
        # map; only fresh (non-forked) runtimes create them.
        if proc.has_region(LABEL_DALVIK_HEAP):
            self.heap_vma = proc.regions[LABEL_DALVIK_HEAP]
        else:
            self.heap_vma = proc.mm.mmap(
                DALVIK_HEAP_SIZE, LABEL_DALVIK_HEAP, VMAKind.ASHMEM, PERM_RW
            )
            proc.add_region(LABEL_DALVIK_HEAP, self.heap_vma)
        if proc.has_region(LABEL_LINEARALLOC):
            self.linear_vma = proc.regions[LABEL_LINEARALLOC]
        else:
            self.linear_vma = proc.mm.mmap(
                LINEARALLOC_SIZE, LABEL_LINEARALLOC, VMAKind.ASHMEM, PERM_RW
            )
            proc.add_region(LABEL_LINEARALLOC, self.linear_vma)
        if proc.has_region(LABEL_JIT_CACHE):
            self.jit_vma = proc.regions[LABEL_JIT_CACHE]
        else:
            self.jit_vma = proc.mm.mmap(
                JIT_CACHE_SIZE, LABEL_JIT_CACHE, VMAKind.ANON, PERM_RWX
            )
            proc.add_region(LABEL_JIT_CACHE, self.jit_vma)
        for dex in BOOT_CLASSPATH:
            map_dex(proc, dex)
        self.primary_dex_vma = (
            map_dex(proc, primary_dex) if primary_dex is not None else None
        )

        self.method_heat: dict[JavaMethod, int] = {}
        self.compiled: dict[JavaMethod, int] = {}
        self._next_trace_slot = 64
        self.jit_queue: deque[JavaMethod] = deque()
        self.jit_waitq: "WaitQueue" = waitq_factory(f"jit:{proc.comm}")
        self.gc_waitq: "WaitQueue" = waitq_factory(f"gc:{proc.comm}")
        self.live_bytes = 2 * 1024 * 1024
        self.allocated_since_gc = 0
        self.gc_pending = False
        self.gc_cycles = 0
        self.jit_flushes = 0
        proc.context[CONTEXT_KEY] = self

    # ------------------------------------------------------------------
    # Addresses

    def heap_addr(self, salt: int = 0) -> int:
        """Address inside the dalvik heap."""
        return self.heap_vma.start + (salt * 1_664_525 + 1013) % (
            self.heap_vma.size - 64
        )

    def linear_addr(self) -> int:
        """Address inside the LinearAlloc arena."""
        return self.linear_vma.start + self.linear_vma.size // 3

    def trace_addr(self, method: JavaMethod) -> int:
        """Code-cache address of a compiled trace."""
        return self.jit_vma.start + self.compiled[method]

    def dex_addr(self) -> int:
        """Bytecode address inside the primary (or framework) dex."""
        vma = self.primary_dex_vma
        if vma is None:
            vma = self.proc.regions["framework.dex"]
        return vma.start + vma.size // 2

    def boot_dex_pairs(self, refs_each: int) -> tuple[tuple[int, int], ...]:
        """Data pairs spread across every boot-classpath dex mapping."""
        pairs = []
        for dex in BOOT_CLASSPATH:
            vma = self.proc.regions.get(dex.name)
            if vma is not None:
                pairs.append((vma.start + vma.size // 3, refs_each))
        return tuple(pairs)

    # ------------------------------------------------------------------
    # Execution

    def interpret(
        self, method: JavaMethod, reps: int = 1, task: "Task | None" = None
    ) -> ExecBlock:
        """Execute *reps* invocations of *method* (interpreted or JIT)."""
        cal = self.cal
        stack_pairs = (
            ((task.stack_addr(), method.stack_refs * reps),)
            if task is not None
            else ()
        )
        self._account_alloc(method.alloc_bytes * reps)

        if method in self.compiled:
            insts = max(int(method.bytecodes * cal.jit_insts_per_bytecode), 8) * reps
            return ExecBlock(
                self.trace_addr(method),
                insts,
                merge_data(
                    (self.heap_addr(id(method) & 0xFFFF), method.heap_refs * reps),
                    *stack_pairs,
                ),
            )

        heat = self.method_heat.get(method, 0) + reps
        self.method_heat[method] = heat
        if (
            self.jit_enabled
            and heat >= cal.jit_hot_threshold
            and method not in self.compiled
            and method not in self.jit_queue
        ):
            self.jit_queue.append(method)
            self.jit_waitq.wake_all()

        libdvm = mapped_object(self.proc, "libdvm.so")
        insts = max(int(method.bytecodes * cal.interp_insts_per_bytecode), 16) * reps
        return libdvm.call(
            "dvmInterpret",
            insts=insts,
            data=merge_data(
                (self.dex_addr(), max(method.bytecodes, 1) * reps),
                (self.heap_addr(id(method) & 0xFFFF), method.heap_refs * reps),
                (self.linear_addr(), method.linear_refs * reps),
                *stack_pairs,
            ),
        )

    def jni_call(self, reps: int = 1) -> ExecBlock:
        """JNI bridge crossing cost (libdvm)."""
        libdvm = mapped_object(self.proc, "libdvm.so")
        return libdvm.call("dvmJniCall", reps=reps)

    def resolve_classes(self, count: int) -> ExecBlock:
        """Class loading: libdvm instructions + LinearAlloc writes.

        Resolution walks the whole boot classpath, so every boot dex
        mapping shows up as a referenced data region.
        """
        libdvm = mapped_object(self.proc, "libdvm.so")
        return libdvm.call(
            "dvmResolveClass",
            reps=count,
            data=merge_data(
                (self.linear_addr(), count * 22),
                (self.dex_addr(), count * 30),
                (self.heap_addr(7), count * 9),
                *self.boot_dex_pairs(max(count, 2)),
            ),
        )

    # ------------------------------------------------------------------
    # Allocation / GC plumbing

    def alloc(self, nbytes: int) -> ExecBlock:
        """Explicit allocation burst (e.g. bitmap/object churn)."""
        self._account_alloc(nbytes)
        libdvm = mapped_object(self.proc, "libdvm.so")
        return libdvm.call(
            "dvmAllocObject",
            insts=max(nbytes // 12, 60),
            data=((self.heap_addr(nbytes & 0xFFF), max(nbytes // 48, 2)),),
        )

    def _account_alloc(self, nbytes: int) -> None:
        if nbytes <= 0:
            return
        self.allocated_since_gc += nbytes
        self.live_bytes = min(self.live_bytes + nbytes, self.heap_vma.size)
        if self.allocated_since_gc >= self.cal.gc_trigger_bytes and not self.gc_pending:
            self.gc_pending = True
            self.allocated_since_gc = 0
            self.gc_waitq.wake_all()

    # ------------------------------------------------------------------

    def mark_compiled(self, method: JavaMethod) -> None:
        """Install a compiled trace for *method* in the code cache.

        Gingerbread's JIT handles cache pressure with a full flush: when
        the cache fills, every trace is discarded and heat restarts.  The
        resulting steady recompilation churn is what keeps the Compiler
        thread visible in Table I.
        """
        if method in self.compiled:
            return
        trace_bytes = max(method.bytecodes * 4, 128)
        flush_limit = min(self.cal.jit_cache_flush_bytes, self.jit_vma.size - 4_096)
        if self._next_trace_slot + trace_bytes >= flush_limit:
            self.compiled.clear()
            self.method_heat.clear()
            self.jit_queue.clear()
            self._next_trace_slot = 64
            self.jit_flushes += 1
        slot = self._next_trace_slot
        self._next_trace_slot = slot + trace_bytes
        self.compiled[method] = slot


def dalvik_context(proc: "Process") -> DalvikContext:
    """Fetch the Dalvik context attached to *proc*."""
    ctx = proc.context.get(CONTEXT_KEY)
    if ctx is None:
        raise LookupError(f"{proc.comm}: process is not Dalvik-hosted")
    return ctx  # type: ignore[return-value]
