"""Shared-object (ELF) model for native libraries and executables.

A :class:`SharedObject` describes an on-disk library: its text/data sizes
and a symbol table.  Mapping it into a process yields a
:class:`MappedObject` holding the two VMAs; calling a symbol produces an
:class:`~repro.sim.ops.ExecBlock` whose code address lies inside the text
VMA — so the profiler attributes the fetches to the library's region label
purely by address lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import LoaderError
from repro.kernel.layout import page_align_up
from repro.sim.ops import ExecBlock

if TYPE_CHECKING:
    from repro.kernel.task import Process
    from repro.kernel.vma import VMA


@dataclass(frozen=True, slots=True)
class Symbol:
    """One callable entry point of a shared object."""

    name: str
    offset: int
    insts: int

    def __post_init__(self) -> None:
        if self.insts <= 0:
            raise ValueError(f"symbol {self.name!r} has non-positive insts")


class SharedObject:
    """An ELF image: name, segment sizes, and a symbol table.

    Symbols are given as ``(name, insts)`` pairs; offsets are assigned
    evenly through the text segment so distinct symbols resolve to distinct
    (but stable) addresses.
    """

    def __init__(
        self,
        name: str,
        text_size: int,
        data_size: int,
        symbols: Iterable[tuple[str, int]] = (),
        label: str | None = None,
    ) -> None:
        if text_size <= 0:
            raise LoaderError(f"{name}: text_size must be positive")
        self.name = name
        self.label = label if label is not None else name
        self.text_size = page_align_up(text_size)
        self.data_size = page_align_up(max(data_size, 4096))
        self.symbols: dict[str, Symbol] = {}
        sym_list = list(symbols)
        stride = self.text_size // (len(sym_list) + 1) if sym_list else 0
        for i, (sym_name, insts) in enumerate(sym_list):
            offset = min(stride * (i + 1), self.text_size - 4)
            self.symbols[sym_name] = Symbol(sym_name, offset, insts)

    def symbol(self, name: str) -> Symbol:
        """Look up a symbol, raising LoaderError on a miss."""
        try:
            return self.symbols[name]
        except KeyError:
            raise LoaderError(f"{self.name}: undefined symbol {name!r}") from None

    def __repr__(self) -> str:
        return (
            f"SharedObject({self.name!r}, text={self.text_size:#x}, "
            f"data={self.data_size:#x}, syms={len(self.symbols)})"
        )


class MappedObject:
    """A shared object mapped into one process's address space."""

    __slots__ = ("so", "text_vma", "data_vma")

    def __init__(self, so: SharedObject, text_vma: "VMA", data_vma: "VMA") -> None:
        self.so = so
        self.text_vma = text_vma
        self.data_vma = data_vma

    @property
    def text_base(self) -> int:
        """Base address of the text segment."""
        return self.text_vma.start

    def sym_addr(self, name: str) -> int:
        """Absolute address of a symbol in this mapping."""
        return self.text_vma.start + self.so.symbol(name).offset

    def data_addr(self, offset: int = 0) -> int:
        """An address inside the data segment."""
        return self.data_vma.start + (offset % self.data_vma.size)

    def call(
        self,
        sym_name: str,
        reps: int = 1,
        data: tuple[tuple[int, int], ...] = (),
        insts: int | None = None,
    ) -> ExecBlock:
        """Build an ExecBlock for *reps* invocations of a symbol.

        ``insts`` overrides the per-call cost when the caller computed a
        workload-dependent count.
        """
        sym = self.so.symbol(sym_name)
        per_call = insts if insts is not None else sym.insts
        return ExecBlock(self.text_vma.start + sym.offset, per_call * reps, data)

    def __repr__(self) -> str:
        return f"MappedObject({self.so.name!r} @ {self.text_vma.start:#x})"


def lib(proc: "Process", so_name: str) -> MappedObject:
    """Fetch the MappedObject for *so_name* in *proc* or raise LoaderError."""
    try:
        mapped = proc.libmap[so_name]
    except KeyError:
        raise LoaderError(
            f"{proc.comm}: shared object {so_name!r} is not mapped"
        ) from None
    return mapped  # type: ignore[return-value]
