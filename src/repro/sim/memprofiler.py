"""Memory-reference profiler — the paper's "modified gem5 + kernel".

Every retired :class:`~repro.sim.ops.ExecBlock` is attributed here to:

* the VMA region label of the code address (instruction reads),
* the VMA region label of each data target (data references),
* the process comm and thread name *at retire time*.

Attribution is address-based: user addresses are resolved through the
owning process's :meth:`AddressSpace.find_vma`; kernel addresses
short-circuit to the ``OS kernel`` region, matching the paper's single
kernel bucket.  Counters are plain dicts so a whole-suite run stays cheap.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from repro.kernel.layout import is_kernel_addr
from repro.kernel.vma import LABEL_OS_KERNEL

if TYPE_CHECKING:
    from repro.kernel.task import Task
    from repro.sim.ops import ExecBlock

#: Region label used for instruction fetches by tasks with no user mm.
_KERNEL = LABEL_OS_KERNEL


class MemProfiler:
    """Accumulates reference counts along every axis the paper reports."""

    def __init__(self) -> None:
        self.enabled = True
        self.instr_by_region: dict[str, int] = defaultdict(int)
        self.data_by_region: dict[str, int] = defaultdict(int)
        self.instr_by_proc: dict[str, int] = defaultdict(int)
        self.data_by_proc: dict[str, int] = defaultdict(int)
        #: (process comm, thread name) -> instruction + data references.
        self.refs_by_thread: dict[tuple[str, str], int] = defaultdict(int)
        #: (process comm, region label) -> instruction reads (detail axis).
        self.instr_by_proc_region: dict[tuple[str, str], int] = defaultdict(int)
        #: (process comm, region label) -> data references (detail axis).
        self.data_by_proc_region: dict[tuple[str, str], int] = defaultdict(int)
        #: CPU id -> instruction reads retired on that CPU (SMP axis).
        self.instr_by_cpu: dict[int, int] = defaultdict(int)
        #: CPU id -> data references issued from that CPU (SMP axis).
        self.data_by_cpu: dict[int, int] = defaultdict(int)
        self.total_instr = 0
        self.total_data = 0
        self.blocks_retired = 0

    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter (called when the measurement window opens)."""
        self.instr_by_region.clear()
        self.data_by_region.clear()
        self.instr_by_proc.clear()
        self.data_by_proc.clear()
        self.refs_by_thread.clear()
        self.instr_by_proc_region.clear()
        self.data_by_proc_region.clear()
        self.instr_by_cpu.clear()
        self.data_by_cpu.clear()
        self.total_instr = 0
        self.total_data = 0
        self.blocks_retired = 0

    def charge(self, task: "Task", block: "ExecBlock", cpu_id: int = 0) -> None:
        """Attribute one retired block to the task's process/thread/VMAs
        and the retiring CPU."""
        if not self.enabled:
            return
        proc = task.process
        comm = proc.comm
        tname = task.name
        mm = proc.mm
        insts = block.insts

        if is_kernel_addr(block.code_addr) or mm is None:
            code_label = _KERNEL
        else:
            code_label = mm.find_vma(block.code_addr).label

        self.blocks_retired += 1
        self.total_instr += insts
        self.instr_by_region[code_label] += insts
        self.instr_by_proc[comm] += insts
        self.instr_by_proc_region[(comm, code_label)] += insts
        self.instr_by_cpu[cpu_id] += insts

        data_total = 0
        for addr, count in block.data:
            if count <= 0:
                continue
            if is_kernel_addr(addr) or mm is None:
                label = _KERNEL
            else:
                label = mm.find_vma(addr).label
            data_total += count
            self.data_by_region[label] += count
            self.data_by_proc_region[(comm, label)] += count

        if data_total:
            self.total_data += data_total
            self.data_by_proc[comm] += data_total
            self.data_by_cpu[cpu_id] += data_total

        self.refs_by_thread[(comm, tname)] += insts + data_total

    def charge_idle(self, comm: str, tname: str, insts: int, cpu_id: int = 0) -> None:
        """Attribute idle-loop kernel work (the ``swapper`` task)."""
        if not self.enabled or insts <= 0:
            return
        self.total_instr += insts
        self.instr_by_region[_KERNEL] += insts
        self.instr_by_proc[comm] += insts
        self.instr_by_proc_region[(comm, _KERNEL)] += insts
        self.instr_by_cpu[cpu_id] += insts
        self.refs_by_thread[(comm, tname)] += insts

    # ------------------------------------------------------------------
    # Derived views

    @property
    def total_refs(self) -> int:
        """Instruction reads plus data references."""
        return self.total_instr + self.total_data

    def instruction_region_count(self) -> int:
        """Distinct regions that served instruction fetches."""
        return len(self.instr_by_region)

    def data_region_count(self) -> int:
        """Distinct regions that served data references."""
        return len(self.data_by_region)

    def snapshot(self) -> dict[str, dict]:
        """Plain-dict copy of every counter (JSON-friendly keys applied
        later by :mod:`repro.core.results`)."""
        return {
            "instr_by_region": dict(self.instr_by_region),
            "data_by_region": dict(self.data_by_region),
            "instr_by_proc": dict(self.instr_by_proc),
            "data_by_proc": dict(self.data_by_proc),
            "refs_by_thread": dict(self.refs_by_thread),
            "instr_by_proc_region": dict(self.instr_by_proc_region),
            "data_by_proc_region": dict(self.data_by_proc_region),
        }
