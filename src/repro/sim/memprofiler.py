"""Memory-reference profiler — the paper's "modified gem5 + kernel".

Every retired :class:`~repro.sim.ops.ExecBlock` is attributed here to:

* the VMA region label of the code address (instruction reads),
* the VMA region label of each data target (data references),
* the process comm and thread name *at retire time*,
* the CPU that retired it.

Attribution is address-based: user addresses are resolved through the
owning process's :meth:`AddressSpace.find_vma`; kernel addresses
short-circuit to the ``OS kernel`` region, matching the paper's single
kernel bucket.

The profiler keeps one table per reference kind, instruction reads and
data references, each keyed by ``(comm, thread, region label, cpu)``, so
a retired block costs one table update for its code address and one per
data pair.  The paper's axes (``instr_by_region``, ``data_by_proc``,
``refs_by_thread``, ...) are read-only projections summed from the
tables in insertion order.  The first table key holding an axis key was
inserted by the first charge of that axis key, so every axis lists its
keys in first-charge order, the order the saved JSON has always had.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import TYPE_CHECKING, Callable

from repro.kernel.layout import KERNEL_BASE
from repro.kernel.vma import LABEL_OS_KERNEL

if TYPE_CHECKING:
    from repro.kernel.task import Task
    from repro.sim.ops import ExecBlock

#: Region label used for instruction fetches by tasks with no user mm.
_KERNEL = LABEL_OS_KERNEL

#: A table key: (process comm, thread name, region label, CPU id).
RefKey = tuple[str, str, str, int]

_COMM = itemgetter(0)
_THREAD = itemgetter(0, 1)
_REGION = itemgetter(2)
_PROC_REGION = itemgetter(0, 2)
_CPU = itemgetter(3)


def _project(table: "dict[RefKey, int]", axis: Callable) -> dict:
    """Sum *table* onto *axis* keys, in the table's insertion order."""
    out: dict = {}
    get = out.get
    for key, n in table.items():
        k = axis(key)
        out[k] = get(k, 0) + n
    return out


class MemProfiler:
    """Accumulates reference counts along every axis the paper reports."""

    def __init__(self) -> None:
        #: (comm, thread, region label, cpu) -> instruction reads.
        self.instr_refs: dict[RefKey, int] = defaultdict(int)
        #: (comm, thread, region label, cpu) -> data references.
        self.data_refs: dict[RefKey, int] = defaultdict(int)

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter (called when the measurement window opens)."""
        self.instr_refs.clear()
        self.data_refs.clear()

    def charge(self, task: "Task", block: "ExecBlock", cpu_id: int = 0) -> None:
        """Attribute one retired block to the task's process/thread/VMAs
        and the retiring CPU."""
        proc = task.process
        comm = proc.comm
        tname = task.name
        mm = proc.mm

        addr = block.code_addr
        if mm is None or addr >= KERNEL_BASE:
            label = _KERNEL
        else:
            label = mm.find_vma(addr).label
        self.instr_refs[(comm, tname, label, cpu_id)] += block.insts

        data = block.data
        if data:
            table = self.data_refs
            for addr, count in data:
                if count <= 0:
                    continue
                if mm is None or addr >= KERNEL_BASE:
                    label = _KERNEL
                else:
                    label = mm.find_vma(addr).label
                table[(comm, tname, label, cpu_id)] += count

    def charge_idle(self, comm: str, tname: str, insts: int, cpu_id: int = 0) -> None:
        """Attribute idle-loop kernel work (the ``swapper`` task)."""
        if insts > 0:
            self.instr_refs[(comm, tname, _KERNEL, cpu_id)] += insts

    # ------------------------------------------------------------------
    # The paper's axes, projected from the tables

    @property
    def instr_by_region(self) -> dict[str, int]:
        """Region label -> instruction reads."""
        return _project(self.instr_refs, _REGION)

    @property
    def data_by_region(self) -> dict[str, int]:
        """Region label -> data references."""
        return _project(self.data_refs, _REGION)

    @property
    def instr_by_proc(self) -> dict[str, int]:
        """Process comm -> instruction reads."""
        return _project(self.instr_refs, _COMM)

    @property
    def data_by_proc(self) -> dict[str, int]:
        """Process comm -> data references."""
        return _project(self.data_refs, _COMM)

    @property
    def instr_by_proc_region(self) -> dict[tuple[str, str], int]:
        """(process comm, region label) -> instruction reads."""
        return _project(self.instr_refs, _PROC_REGION)

    @property
    def data_by_proc_region(self) -> dict[tuple[str, str], int]:
        """(process comm, region label) -> data references."""
        return _project(self.data_refs, _PROC_REGION)

    @property
    def instr_by_cpu(self) -> dict[int, int]:
        """CPU id -> instruction reads retired on that CPU (SMP axis)."""
        return _project(self.instr_refs, _CPU)

    @property
    def data_by_cpu(self) -> dict[int, int]:
        """CPU id -> data references issued from that CPU (SMP axis)."""
        return _project(self.data_refs, _CPU)

    @property
    def refs_by_thread(self) -> dict[tuple[str, str], int]:
        """(process comm, thread name) -> instruction + data references.

        Every charge inserts its instruction key before any data key of
        the same thread, so the instruction table alone fixes the order.
        """
        out = _project(self.instr_refs, _THREAD)
        for key, n in self.data_refs.items():
            out[key[:2]] += n
        return out

    @property
    def total_instr(self) -> int:
        """Instruction reads."""
        return sum(self.instr_refs.values())

    @property
    def total_data(self) -> int:
        """Data references."""
        return sum(self.data_refs.values())

    @property
    def total_refs(self) -> int:
        """Instruction reads plus data references."""
        return self.total_instr + self.total_data
