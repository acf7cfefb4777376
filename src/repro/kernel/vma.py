"""Virtual memory areas.

A :class:`VMA` models one entry of ``/proc/<pid>/maps``: a half-open address
range with permissions and a *label*.  The label is what the paper's figures
aggregate by — ``libdvm.so``, ``mspace``, ``dalvik-heap``, ``anonymous`` and
so on — so attribution of a memory reference is purely an address lookup.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.kernel.layout import PAGE_SIZE


class VMAKind(enum.Enum):
    """Broad provenance classes for a mapping (used by tooling, not by
    attribution, which goes through the label)."""

    FILE_TEXT = "file-text"
    FILE_DATA = "file-data"
    ANON = "anon"
    HEAP = "heap"
    STACK = "stack"
    DEVICE = "device"
    ASHMEM = "ashmem"
    KERNEL = "kernel"


@dataclass(frozen=True, slots=True)
class Permissions:
    """rwx permission bits of a mapping."""

    read: bool = True
    write: bool = False
    execute: bool = False

    def __str__(self) -> str:
        return "".join(
            (
                "r" if self.read else "-",
                "w" if self.write else "-",
                "x" if self.execute else "-",
            )
        )


PERM_R = Permissions(read=True)
PERM_RW = Permissions(read=True, write=True)
PERM_RX = Permissions(read=True, execute=True)
PERM_RWX = Permissions(read=True, write=True, execute=True)


@dataclass(slots=True)
class VMA:
    """One virtual memory area: ``[start, end)`` with a report label.

    ``label`` is the region name the analysis aggregates by.  Several VMAs
    may share a label (e.g. a library's text and data segments both report
    as ``libfoo.so``), matching how the paper groups regions.
    """

    start: int
    end: int
    label: str
    kind: VMAKind
    perms: Permissions = PERM_RW
    shared: bool = False
    #: Optional free-form tag linking the VMA to its creator (buffer id...).
    tag: str = ""
    #: Bump cursor used by region allocators layered on this VMA.
    cursor: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"VMA {self.label!r} has non-positive size "
                f"({self.start:#x}..{self.end:#x})"
            )
        if self.start % PAGE_SIZE or self.end % PAGE_SIZE:
            raise ValueError(
                f"VMA {self.label!r} is not page aligned "
                f"({self.start:#x}..{self.end:#x})"
            )

    @property
    def size(self) -> int:
        """Size of the mapping in bytes."""
        return self.end - self.start

    def contains(self, addr: int) -> bool:
        """True when *addr* falls inside the half-open range."""
        return self.start <= addr < self.end

    def overlaps(self, start: int, end: int) -> bool:
        """True when ``[start, end)`` intersects this VMA."""
        return start < self.end and self.start < end

    def describe(self) -> str:
        """A /proc/maps-style one-line description."""
        share = "s" if self.shared else "p"
        return f"{self.start:08x}-{self.end:08x} {self.perms}{share} {self.label}"

    def __repr__(self) -> str:
        return f"VMA({self.describe()})"


#: Canonical labels used by the paper's figures.  Defined centrally so the
#: stack and the analysis layer cannot drift apart on spelling.
LABEL_MSPACE = "mspace"
LABEL_LIBDVM = "libdvm.so"
LABEL_LIBSKIA = "libskia.so"
LABEL_OS_KERNEL = "OS kernel"
LABEL_APP_BINARY = "app binary"
LABEL_LIBSTAGEFRIGHT = "libstagefright.so"
LABEL_JIT_CACHE = "dalvik-jit-code-cache"
LABEL_LIBC = "libc.so"
LABEL_CR3ENGINE = "libcr3engine-3-1-1.so"
LABEL_ANONYMOUS = "anonymous"
LABEL_HEAP = "heap"
LABEL_STACK = "stack"
LABEL_GRALLOC = "gralloc-buffer"
LABEL_DALVIK_HEAP = "dalvik-heap"
LABEL_FB0 = "fb0 (frame buffer)"
LABEL_LINEARALLOC = "dalvik-LinearAlloc"
LABEL_BINDER = "binder-mapping"
LABEL_ASHMEM = "ashmem"
LABEL_PROPERTY = "property-space"
LABEL_DEX = "dex-file"
