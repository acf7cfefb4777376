"""MemProfiler attribution."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.addrspace import AddressSpace
from repro.kernel.layout import KERNEL_BASE, is_kernel_addr
from repro.kernel.sched import Scheduler
from repro.kernel.task import Process, Task
from repro.kernel.vma import LABEL_OS_KERNEL
from repro.sim.memprofiler import MemProfiler
from repro.sim.ops import ExecBlock


def make_user_task(label="libfoo.so"):
    mm = AddressSpace("app")
    vma = mm.mmap(8192, label)
    data_vma = mm.mmap(8192, "heap-like")
    proc = Process(10, "com.example.app", mm=mm)
    sched = Scheduler()
    task = Task(11, "worker", proc, None, sched)
    proc.tasks.append(task)
    return task, vma, data_vma


def test_charges_code_and_data_to_labels():
    task, code, data = make_user_task()
    prof = MemProfiler()
    prof.charge(task, ExecBlock(code.start, 100, ((data.start, 40),)))
    assert prof.instr_by_region["libfoo.so"] == 100
    assert prof.data_by_region["heap-like"] == 40
    assert prof.total_instr == 100
    assert prof.total_data == 40


def test_charges_process_comm_at_charge_time():
    task, code, _ = make_user_task()
    prof = MemProfiler()
    prof.charge(task, ExecBlock(code.start, 10))
    task.process.set_comm("renamed.app")
    prof.charge(task, ExecBlock(code.start, 10))
    assert prof.instr_by_proc["com.example.app"] == 10
    assert prof.instr_by_proc["renamed.app"] == 10


def test_kernel_addresses_fold_to_os_kernel():
    task, code, _ = make_user_task()
    prof = MemProfiler()
    prof.charge(task, ExecBlock(KERNEL_BASE + 64, 5, ((KERNEL_BASE + 128, 3),)))
    assert prof.instr_by_region["OS kernel"] == 5
    assert prof.data_by_region["OS kernel"] == 3


def test_thread_axis_counts_instr_plus_data():
    task, code, data = make_user_task()
    prof = MemProfiler()
    prof.charge(task, ExecBlock(code.start, 100, ((data.start, 40),)))
    assert prof.refs_by_thread[("com.example.app", "worker")] == 140


def test_zero_count_data_ignored():
    task, code, data = make_user_task()
    prof = MemProfiler()
    prof.charge(task, ExecBlock(code.start, 1, ((data.start, 0),)))
    assert "heap-like" not in prof.data_by_region


def test_reset_zeroes_everything():
    task, code, data = make_user_task()
    prof = MemProfiler()
    prof.charge(task, ExecBlock(code.start, 100, ((data.start, 40),)))
    prof.reset()
    assert prof.total_refs == 0
    assert not prof.instr_by_region
    assert not prof.refs_by_thread


def test_charge_idle():
    prof = MemProfiler()
    prof.charge_idle("swapper", "swapper", 500)
    assert prof.instr_by_proc["swapper"] == 500
    assert prof.instr_by_region["OS kernel"] == 500


def test_region_counts():
    task, code, data = make_user_task()
    prof = MemProfiler()
    prof.charge(task, ExecBlock(code.start, 1, ((data.start, 1),)))
    prof.charge(task, ExecBlock(KERNEL_BASE + 4, 1))
    assert len(prof.instr_by_region) == 2
    assert len(prof.data_by_region) == 1


def test_unmapped_address_raises():
    task, code, _ = make_user_task()
    prof = MemProfiler()
    from repro.errors import SegmentationFault

    with pytest.raises(SegmentationFault):
        prof.charge(task, ExecBlock(0x0400_0000, 1))


def test_snapshot_is_plain_dicts():
    """The projections the results layer encodes are plain dicts."""
    task, code, data = make_user_task()
    prof = MemProfiler()
    prof.charge(task, ExecBlock(code.start, 2, ((data.start, 2),)))
    assert prof.instr_by_region["libfoo.so"] == 2
    assert isinstance(prof.refs_by_thread, dict)


# ---------------------------------------------------------------------------
# The two tables project to the nine paper axes exactly: the same values in
# the same first-charge key order as one counter dict per axis.

AXES = (
    "instr_by_region", "data_by_region", "instr_by_proc", "data_by_proc",
    "instr_by_proc_region", "data_by_proc_region", "instr_by_cpu",
    "data_by_cpu", "refs_by_thread",
)


class NineDicts:
    """Reference accounting: one counter dict per axis, each updated by
    every charge, as the profiler kept them before its two tables."""

    def __init__(self):
        for axis in AXES:
            setattr(self, axis, defaultdict(int))
        self.total_instr = 0
        self.total_data = 0

    def charge(self, task, block, cpu_id=0):
        proc = task.process
        comm = proc.comm
        mm = proc.mm
        insts = block.insts
        if is_kernel_addr(block.code_addr) or mm is None:
            code_label = LABEL_OS_KERNEL
        else:
            code_label = mm.find_vma(block.code_addr).label
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
                label = LABEL_OS_KERNEL
            else:
                label = mm.find_vma(addr).label
            data_total += count
            self.data_by_region[label] += count
            self.data_by_proc_region[(comm, label)] += count
        if data_total:
            self.total_data += data_total
            self.data_by_proc[comm] += data_total
            self.data_by_cpu[cpu_id] += data_total
        self.refs_by_thread[(comm, task.name)] += insts + data_total

    def charge_idle(self, comm, tname, insts, cpu_id=0):
        if insts <= 0:
            return
        self.total_instr += insts
        self.instr_by_region[LABEL_OS_KERNEL] += insts
        self.instr_by_proc[comm] += insts
        self.instr_by_proc_region[(comm, LABEL_OS_KERNEL)] += insts
        self.instr_by_cpu[cpu_id] += insts
        self.refs_by_thread[(comm, tname)] += insts


def _population():
    """Two user processes (three labels each, shared between them) with
    two threads each, and a kernel thread with no mm."""
    sched = Scheduler()
    tasks = []
    for pid, name in ((10, "com.example.app"), (20, "system_server")):
        mm = AddressSpace(name)
        for label in ("libc.so", "heap", f"{name}.odex"):
            mm.mmap(8192, label)
        proc = Process(pid, name, mm=mm)
        for tid, tname in ((pid + 1, "main"), (pid + 2, "Binder_1")):
            task = Task(tid, tname, proc, None, sched)
            proc.tasks.append(task)
            tasks.append(task)
    kproc = Process(30, "kswapd0", mm=None)
    ktask = Task(31, "kswapd0", kproc, None, sched)
    kproc.tasks.append(ktask)
    tasks.append(ktask)
    return tasks


#: An address: ("vma", i) is the start of the task's i-th mapping (any
#: address for a task with no mm), ("kernel", k) is a kernel address.
_ADDR = st.one_of(
    st.tuples(st.just("vma"), st.integers(0, 2)),
    st.tuples(st.just("kernel"), st.integers(0, 4096)),
)
_CPU = st.integers(0, 3)
_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("charge"), st.integers(0, 4), _ADDR, st.integers(0, 40),
            st.lists(st.tuples(_ADDR, st.integers(-3, 30)), max_size=4), _CPU,
        ),
        st.tuples(
            st.just("idle"), st.sampled_from(["swapper", "kswapd0"]),
            st.sampled_from(["swapper", "kswapd0"]), st.integers(-3, 60), _CPU,
        ),
        st.tuples(
            st.just("rename_proc"), st.integers(0, 4),
            st.sampled_from(["com.example.app", "renamed.app", "system_server"]),
        ),
        st.tuples(
            st.just("rename_thread"), st.integers(0, 4),
            st.sampled_from(["main", "Binder_1", "GC", "RenderThread"]),
        ),
    ),
    max_size=40,
)


def _address(task, choice):
    kind, n = choice
    if kind == "kernel":
        return KERNEL_BASE + 4 * n
    mm = task.process.mm
    if mm is None:
        return 0x1000 * (n + 1)  # unmapped, but no mm folds to the kernel
    return list(mm)[n].start


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_tables_project_to_the_nine_axes_in_first_charge_order(ops):
    tasks = _population()
    prof, ref = MemProfiler(), NineDicts()
    for op in ops:
        if op[0] == "charge":
            _, who, code, insts, data, cpu = op
            task = tasks[who]
            block = ExecBlock(
                _address(task, code), insts,
                tuple((_address(task, addr), n) for addr, n in data),
            )
            prof.charge(task, block, cpu)
            ref.charge(task, block, cpu)
        elif op[0] == "idle":
            _, comm, tname, insts, cpu = op
            prof.charge_idle(comm, tname, insts, cpu)
            ref.charge_idle(comm, tname, insts, cpu)
        elif op[0] == "rename_proc":
            tasks[op[1]].process.set_comm(op[2])
        else:
            tasks[op[1]].set_name(op[2])
    assert prof.total_instr == ref.total_instr
    assert prof.total_data == ref.total_data
    assert prof.total_refs == ref.total_instr + ref.total_data
    for axis in AXES:
        assert list(getattr(prof, axis).items()) == \
            list(getattr(ref, axis).items()), axis
