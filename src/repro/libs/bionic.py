"""bionic libc behaviour helpers: the dlmalloc heap and memory primitives.

Allocation placement follows dlmalloc: requests under ``MMAP_THRESHOLD``
come from the brk heap (region ``heap``), larger ones from fresh anonymous
mappings (region ``anonymous``) — the split responsible for the paper's two
biggest SPEC data regions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel.layout import MMAP_THRESHOLD, page_align_up
from repro.kernel.syscalls import syscall
from repro.kernel.vma import LABEL_ANONYMOUS, VMAKind
from repro.libs.registry import mapped_object
from repro.sim.ops import ExecBlock, merge_data

if TYPE_CHECKING:
    from repro.kernel.task import Process


def alloc_buffer(proc: "Process", nbytes: int) -> int:
    """Reserve *nbytes* and return its address (no simulated cost).

    Small requests bump the brk heap; large ones get an anonymous mapping,
    exactly as dlmalloc would place them.  Use :func:`malloc_cost` to charge
    the allocator work where it matters.
    """
    if proc.mm is None:
        raise ValueError(f"{proc.comm}: kernel threads have no heap")
    if nbytes < MMAP_THRESHOLD:
        proc.mm.ensure_brk()
        addr = proc.mm.sbrk(page_align_up(max(nbytes, 16)))
        return addr
    vma = proc.mm.mmap(nbytes, LABEL_ANONYMOUS, VMAKind.ANON)
    return vma.start


def malloc_cost(proc: "Process", addr: int, nbytes: int) -> ExecBlock:
    """Allocator bookkeeping for a buffer at *addr* (libc instructions)."""
    libc = mapped_object(proc, "libc.so")
    touch = max(nbytes // 512, 2)
    return libc.call("malloc", data=((addr, touch),))


def mmap_cost() -> ExecBlock:
    """Kernel-side cost of an anonymous mmap."""
    return syscall("mmap2", insts=700, data_words=110)


def memcpy(proc: "Process", dst: int, src: int, nbytes: int) -> ExecBlock:
    """A bulk copy: libc instructions, reads from *src*, writes to *dst*."""
    libc = mapped_object(proc, "libc.so")
    words = max(nbytes // 4, 1)
    insts = max(nbytes // 8, 8)
    refs = max(words // 8, 1)
    return libc.call(
        "memcpy", insts=insts, data=merge_data((src, refs), (dst, refs))
    )


def memset(proc: "Process", dst: int, nbytes: int) -> ExecBlock:
    """A bulk fill."""
    libc = mapped_object(proc, "libc.so")
    insts = max(nbytes // 16, 8)
    return libc.call("memset", insts=insts, data=((dst, max(nbytes // 32, 1)),))

