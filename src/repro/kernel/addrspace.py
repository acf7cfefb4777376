"""Per-process address spaces (``mm_struct``).

An :class:`AddressSpace` owns a sorted, non-overlapping collection of VMAs
and implements the subset of Linux mm semantics the stack above needs:

* ``mmap``/``munmap`` with a top-down allocator (like ARM Linux 2.6.35),
* ``brk`` growing the ``[heap]`` region,
* ``find_vma`` — the hot path used to attribute every memory reference,
* fork-style duplication.

Lookups use :mod:`bisect` over VMA start addresses, giving O(log n)
``find_vma`` with plain lists.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Iterable, Iterator

from repro.errors import AddressSpaceError, SegmentationFault
from repro.kernel import layout
from repro.kernel.layout import page_align_up
from repro.kernel.vma import (
    LABEL_HEAP,
    LABEL_STACK,
    PERM_RW,
    VMA,
    Permissions,
    VMAKind,
)


class AddressSpace:
    """A process's virtual memory map.

    Parameters
    ----------
    name:
        Diagnostic name (usually the owning process comm).
    """

    def __init__(self, name: str = "mm") -> None:
        self.name = name
        self._starts: list[int] = []
        self._vmas: list[VMA] = []
        self._mmap_cursor = layout.MMAP_TOP
        self._brk_base = 0
        self._brk = 0
        self._heap_vma: VMA | None = None

    # ------------------------------------------------------------------
    # Introspection

    def __len__(self) -> int:
        return len(self._vmas)

    def __iter__(self) -> Iterator[VMA]:
        return iter(self._vmas)

    @property
    def vmas(self) -> tuple[VMA, ...]:
        """Snapshot of the current mappings in address order."""
        return tuple(self._vmas)

    def labels(self) -> set[str]:
        """The distinct region labels currently mapped."""
        return {vma.label for vma in self._vmas}

    def total_mapped(self) -> int:
        """Total bytes currently mapped."""
        return sum(vma.size for vma in self._vmas)

    def maps(self) -> str:
        """A /proc/pid/maps-style dump (for debugging and tests)."""
        return "\n".join(vma.describe() for vma in self._vmas)

    # ------------------------------------------------------------------
    # Core lookup

    def find_vma(self, addr: int) -> VMA:
        """Return the VMA containing *addr* or raise SegmentationFault."""
        vma = self.find_vma_or_none(addr)
        if vma is None:
            raise SegmentationFault(addr, self.name)
        return vma

    def find_vma_or_none(self, addr: int) -> VMA | None:
        """Return the VMA containing *addr*, or None when unmapped."""
        idx = bisect_right(self._starts, addr) - 1
        if idx < 0:
            return None
        vma = self._vmas[idx]
        return vma if addr < vma.end else None

    def label_at(self, addr: int) -> str:
        """Region label for *addr* (kernel addresses short-circuit)."""
        if layout.is_kernel_addr(addr):
            return "OS kernel"
        return self.find_vma(addr).label

    # ------------------------------------------------------------------
    # Mapping primitives

    def map_fixed(
        self,
        start: int,
        size: int,
        label: str,
        kind: VMAKind,
        perms: Permissions = PERM_RW,
        shared: bool = False,
        tag: str = "",
    ) -> VMA:
        """Map ``[start, start+size)`` at a fixed address."""
        end = page_align_up(start + size)
        if start % layout.PAGE_SIZE:
            raise AddressSpaceError(f"map_fixed: start {start:#x} not aligned")
        self._check_free(start, end, label)
        vma = VMA(start, end, label, kind, perms, shared, tag)
        self._insert(vma)
        return vma

    def mmap(
        self,
        size: int,
        label: str,
        kind: VMAKind = VMAKind.ANON,
        perms: Permissions = PERM_RW,
        shared: bool = False,
        tag: str = "",
    ) -> VMA:
        """Allocate a mapping top-down from the mmap area."""
        if size <= 0:
            raise AddressSpaceError(f"mmap: bad size {size}")
        length = page_align_up(size)
        start = self._find_gap_topdown(length)
        vma = VMA(start, start + length, label, kind, perms, shared, tag)
        self._insert(vma)
        return vma

    def munmap(self, vma: VMA) -> None:
        """Remove a whole mapping previously returned by mmap/map_fixed."""
        try:
            idx = self._vmas.index(vma)
        except ValueError:
            raise AddressSpaceError(
                f"munmap: {vma!r} is not mapped in {self.name}"
            ) from None
        del self._vmas[idx]
        del self._starts[idx]
        if vma is self._heap_vma:
            self._heap_vma = None

    # ------------------------------------------------------------------
    # brk heap

    def setup_brk(self, base: int) -> None:
        """Place the program break immediately after the data segment."""
        self._brk_base = page_align_up(base)
        self._brk = self._brk_base

    def ensure_brk(self, default_base: int = 0x0200_0000) -> None:
        """Initialise the break lazily (processes that never exec'd a
        binary get a default heap placement, as the dynamic linker does)."""
        if self._brk_base == 0:
            self.setup_brk(default_base)

    def brk(self, new_brk: int) -> int:
        """Grow (never shrink, like most allocators in practice) the heap."""
        if self._brk_base == 0:
            raise AddressSpaceError("brk before setup_brk")
        if new_brk <= self._brk:
            return self._brk
        new_end = page_align_up(new_brk)
        if self._heap_vma is None:
            self._heap_vma = self.map_fixed(
                self._brk_base,
                new_end - self._brk_base,
                LABEL_HEAP,
                VMAKind.HEAP,
                PERM_RW,
            )
        else:
            self._grow(self._heap_vma, new_end)
        self._brk = new_end
        return self._brk

    def sbrk(self, increment: int) -> int:
        """Grow the heap by *increment* bytes; returns the old break."""
        old = self._brk if self._brk else self._brk_base
        self.brk(old + increment)
        return old

    @property
    def heap_vma(self) -> VMA | None:
        """The [heap] VMA, if the process ever extended its break."""
        return self._heap_vma

    # ------------------------------------------------------------------
    # Stacks

    def map_main_stack(self) -> VMA:
        """Map the main-thread stack just below STACK_TOP."""
        size = 1024 * 1024
        return self.map_fixed(
            layout.STACK_TOP - size, size, LABEL_STACK, VMAKind.STACK, PERM_RW
        )

    def map_thread_stack(self, size: int = 1024 * 1024) -> VMA:
        """Allocate a thread stack in the mmap area (label still "stack")."""
        return self.mmap(size, LABEL_STACK, VMAKind.STACK, PERM_RW)

    # ------------------------------------------------------------------
    # fork

    def clone(self, name: str) -> AddressSpace:
        """Duplicate the map for fork().

        Shared mappings keep pointing at the same VMA objects (so shared
        buffers really are shared); private mappings are copied.
        """
        child = AddressSpace(name)
        for vma in self._vmas:
            if vma.shared:
                copy = vma
            else:
                copy = VMA(
                    vma.start,
                    vma.end,
                    vma.label,
                    vma.kind,
                    vma.perms,
                    vma.shared,
                    vma.tag,
                )
                copy.cursor = vma.cursor
            child._vmas.append(copy)
            child._starts.append(copy.start)
        child._mmap_cursor = self._mmap_cursor
        child._brk_base = self._brk_base
        child._brk = self._brk
        if self._heap_vma is not None:
            idx = self._vmas.index(self._heap_vma)
            child._heap_vma = child._vmas[idx]
        return child

    # ------------------------------------------------------------------
    # Internals

    def _insert(self, vma: VMA) -> None:
        idx = bisect_right(self._starts, vma.start)
        self._starts.insert(idx, vma.start)
        self._vmas.insert(idx, vma)

    def _check_free(self, start: int, end: int, label: str) -> None:
        idx = bisect_right(self._starts, start) - 1
        for probe in (idx, idx + 1):
            if 0 <= probe < len(self._vmas) and self._vmas[probe].overlaps(start, end):
                raise AddressSpaceError(
                    f"{self.name}: mapping {label!r} {start:#x}..{end:#x} "
                    f"overlaps {self._vmas[probe]!r}"
                )

    def _grow(self, vma: VMA, new_end: int) -> None:
        idx = self._vmas.index(vma)
        if idx + 1 < len(self._vmas) and self._vmas[idx + 1].start < new_end:
            raise AddressSpaceError(
                f"{self.name}: cannot grow {vma.label!r} to {new_end:#x}: "
                f"would hit {self._vmas[idx + 1]!r}"
            )
        vma.end = new_end

    def _find_gap_topdown(self, length: int) -> int:
        """First-fit search downward from the mmap cursor."""
        candidate = self._mmap_cursor - length
        while candidate >= layout.USER_MIN:
            blocker = self._highest_overlap(candidate, candidate + length)
            if blocker is None:
                self._mmap_cursor = candidate
                return candidate
            candidate = blocker.start - length
        raise AddressSpaceError(
            f"{self.name}: out of mmap space for {length:#x} bytes"
        )

    def _highest_overlap(self, start: int, end: int) -> VMA | None:
        idx = bisect_right(self._starts, end - 1) - 1
        while idx >= 0:
            vma = self._vmas[idx]
            if vma.end <= start:
                return None
            if vma.overlaps(start, end):
                return vma
            idx -= 1
        return None
