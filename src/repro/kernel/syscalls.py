"""Synthesised kernel-space execution.

User tasks entering the kernel (syscalls, page faults, the Binder driver)
execute at stable per-entry-point kernel addresses; the profiler folds all
of them into the single ``OS kernel`` region, matching the paper's
treatment.  Address synthesis keeps the attribution path identical to user
code — it is still an address that gets classified, not a magic label.
"""

from __future__ import annotations

import functools
import zlib

from repro.kernel import layout
from repro.sim.ops import ExecBlock

#: Kernel text window used for synthesised entry points.
KERNEL_TEXT_BASE = layout.KERNEL_BASE + 0x0010_0000
KERNEL_TEXT_SPAN = 0x0100_0000
#: Kernel data window (slab, page tables, driver state).
KERNEL_DATA_BASE = layout.KERNEL_BASE + 0x0800_0000
KERNEL_DATA_SPAN = 0x0400_0000

#: Baseline instruction cost of crossing the user/kernel boundary.
SYSCALL_OVERHEAD_INSTS = 260


@functools.cache
def _entry_addr(name: str, base: int, span: int) -> int:
    """A stable, word-aligned address in ``[base, base + span)`` for
    *name*, computed once.  Any stable spread will do: every address at
    or above ``KERNEL_BASE`` resolves to the ``OS kernel`` label."""
    return base + (zlib.crc32(name.encode()) % span & ~0x3)


def kernel_text_addr(entry: str) -> int:
    """Stable synthetic address for a named kernel entry point."""
    return _entry_addr(entry, KERNEL_TEXT_BASE, KERNEL_TEXT_SPAN)


def kernel_data_addr(entry: str) -> int:
    """Stable synthetic address for a kernel data structure family."""
    return _entry_addr(entry, KERNEL_DATA_BASE, KERNEL_DATA_SPAN)


def kernel_exec(
    entry: str,
    insts: int,
    data_words: int = 0,
    user_data: tuple[tuple[int, int], ...] = (),
) -> ExecBlock:
    """Execute *insts* kernel instructions at the named entry point.

    ``data_words`` counts kernel-side data references; ``user_data`` adds
    user-space targets (e.g. the destination of ``copy_to_user``).
    """
    data: tuple[tuple[int, int], ...] = user_data
    if data_words > 0:
        data = data + ((kernel_data_addr(entry), data_words),)
    return ExecBlock(kernel_text_addr(entry), insts, data)


def syscall(
    name: str,
    insts: int = 400,
    data_words: int = 60,
    user_data: tuple[tuple[int, int], ...] = (),
) -> ExecBlock:
    """One syscall: boundary crossing plus the handler body."""
    return kernel_exec(
        "sys_" + name, SYSCALL_OVERHEAD_INSTS + insts, data_words, user_data
    )

