"""Virtual address-space layout constants.

The layout mirrors a 32-bit ARM Linux 2.6.35 process as used by Android
Gingerbread: application text low, brk heap above it, an mmap area growing
downward below the main stack, and the kernel mapped at the top 1GB.
"""

from __future__ import annotations

PAGE_SHIFT: int = 12
PAGE_SIZE: int = 1 << PAGE_SHIFT
PAGE_MASK: int = ~(PAGE_SIZE - 1)

#: Lowest mappable user address; everything below is a NULL guard.
USER_MIN: int = 0x0000_8000
#: Default base for the main executable's text segment.
TEXT_BASE: int = 0x0000_8000
#: Top of the user portion of the address space.
USER_MAX: int = 0xBF00_0000
#: Top of the main-thread stack (grows down from here).
STACK_TOP: int = 0xBE80_0000
#: Maximum size reserved for the main stack.
STACK_RESERVE: int = 8 * 1024 * 1024
#: mmap allocations grow downward starting just below the stack reserve.
MMAP_TOP: int = STACK_TOP - STACK_RESERVE
#: Kernel direct mapping starts here; any address >= this is kernel space.
KERNEL_BASE: int = 0xC000_0000
#: End of the modelled kernel region.
KERNEL_END: int = 0xFFFF_F000

#: glibc/bionic dlmalloc threshold above which allocations use mmap rather
#: than the brk heap; such mappings appear as "anonymous" regions.
MMAP_THRESHOLD: int = 128 * 1024

#: Linux TASK_COMM_LEN - 1: the kernel stores at most 15 bytes of a task
#: name.  Android sets the *full* package name, so /proc shows the final 15
#: characters ("com.android.systemui" -> "ndroid.systemui").
TASK_COMM_LEN: int = 15


def page_align_up(addr: int) -> int:
    """Round *addr* up to the next page boundary."""
    return (addr + PAGE_SIZE - 1) & PAGE_MASK


def is_kernel_addr(addr: int) -> bool:
    """True when *addr* falls in the kernel's part of the address space."""
    return addr >= KERNEL_BASE


def truncate_comm(name: str) -> str:
    """Truncate a process/thread name the way Android's /proc shows it.

    The kernel keeps only TASK_COMM_LEN-1 bytes; Android writes the full
    component name, so the *tail* survives (this is why the paper's figures
    list ``ndroid.systemui`` and ``id.defcontainer``).
    """
    if len(name) <= TASK_COMM_LEN:
        return name
    return name[-TASK_COMM_LEN:]
