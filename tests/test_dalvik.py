"""Dalvik VM: interpreter, JIT promotion + cache flush, GC, zygote fork."""

import pytest

from repro.dalvik.method import MethodTable, make_method
from repro.dalvik.vm import DalvikContext, dalvik_context
from repro.dalvik.zygote import Zygote
from repro.kernel.vma import (
    LABEL_DALVIK_HEAP,
    LABEL_JIT_CACHE,
    LABEL_LINEARALLOC,
)
from repro.libs.registry import DALVIK_RUNTIME_LIBS, resolve
from repro.sim.ops import Sleep
from repro.sim.ticks import millis, seconds


@pytest.fixture
def dalvik_proc(system):
    proc = system.kernel.spawn_process("com.example.vm")
    system.kernel.loader.map_many(proc, resolve(DALVIK_RUNTIME_LIBS))
    ctx = DalvikContext(proc, system.kernel.new_waitq, system.calibration)
    return system, proc, ctx


def test_context_creates_vm_regions(dalvik_proc):
    _, proc, ctx = dalvik_proc
    for label in (LABEL_DALVIK_HEAP, LABEL_LINEARALLOC, LABEL_JIT_CACHE):
        assert proc.has_region(label)


def test_boot_classpath_mapped(dalvik_proc):
    _, proc, _ = dalvik_proc
    assert proc.has_region("core.dex")
    assert proc.has_region("framework.dex")


def test_interpret_charges_libdvm_and_dex(dalvik_proc):
    _, proc, ctx = dalvik_proc
    method = make_method("m", 100)
    block = ctx.interpret(method)
    assert proc.mm.find_vma(block.code_addr).label == "libdvm.so"
    labels = {proc.mm.find_vma(a).label for a, _ in block.data}
    assert "framework.dex" in labels
    assert LABEL_DALVIK_HEAP in labels


def test_interpretation_cost_scales_with_bytecodes(dalvik_proc):
    _, _, ctx = dalvik_proc
    small = ctx.interpret(make_method("s", 50))
    large = ctx.interpret(make_method("l", 500))
    assert large.insts > small.insts


def test_hot_method_enqueued_for_jit(dalvik_proc):
    _, _, ctx = dalvik_proc
    method = make_method("hot", 100)
    for _ in range(50):
        ctx.interpret(method)
    assert method in ctx.jit_queue


def test_compiled_method_executes_from_jit_cache(dalvik_proc):
    _, proc, ctx = dalvik_proc
    method = make_method("hot", 100)
    ctx.mark_compiled(method)
    block = ctx.interpret(method)
    assert proc.mm.find_vma(block.code_addr).label == LABEL_JIT_CACHE


def test_compiled_method_cheaper_than_interpreted(dalvik_proc):
    _, _, ctx = dalvik_proc
    method = make_method("hot", 200)
    interp = ctx.interpret(method)
    ctx.mark_compiled(method)
    jitted = ctx.interpret(method)
    assert jitted.insts < interp.insts


def test_jit_cache_flush_churns(dalvik_proc):
    _, _, ctx = dalvik_proc
    methods = [make_method(f"m{i}", 900) for i in range(400)]
    for m in methods:
        ctx.mark_compiled(m)
    assert ctx.jit_flushes >= 1
    # After a flush, previously compiled methods are evicted.
    assert len(ctx.compiled) < len(methods)


def test_allocation_triggers_gc_pending(dalvik_proc):
    _, _, ctx = dalvik_proc
    ctx.alloc(10 * 1024 * 1024)
    assert ctx.gc_pending


def test_disabled_jit_never_queues(system):
    proc = system.kernel.spawn_process("nojit")
    system.kernel.loader.map_many(proc, resolve(DALVIK_RUNTIME_LIBS))
    ctx = DalvikContext(
        proc, system.kernel.new_waitq, system.calibration, jit_enabled=False
    )
    method = make_method("hot", 100)
    for _ in range(100):
        ctx.interpret(method)
    assert not ctx.jit_queue


def test_dalvik_context_lookup(dalvik_proc):
    _, proc, ctx = dalvik_proc
    assert dalvik_context(proc) is ctx
    with pytest.raises(LookupError):
        dalvik_context(type(proc)(999, "x", None))


# ---------------------------------------------------------------------------
# MethodTable

@pytest.mark.parametrize("build", ("generate",))
def test_method_table_deterministic(build):
    """Two tables generated from one seed hold the same methods and make
    the same runtime draws."""
    ref = MethodTable.generate(seed=7, prefix="x")
    table = MethodTable.generate(seed=7, prefix="x")
    assert [m.name for m in table.methods] == [m.name for m in ref.methods]
    assert table.methods == ref.methods
    assert table.pick_batch(32) == ref.pick_batch(32)


def test_method_table_pick_batch_size():
    table = MethodTable.generate(seed=1, prefix="x", count=10)
    assert len(table.pick_batch(25)) == 25


def test_method_table_rejects_empty():
    import random

    with pytest.raises(ValueError):
        MethodTable([], random.Random(0))


def test_method_zero_bytecodes_rejected():
    with pytest.raises(ValueError):
        make_method("bad", 0)


# ---------------------------------------------------------------------------
# Zygote fork integration

def test_zygote_fork_renames_after_specialisation(system):
    zygote = Zygote(system)
    zygote.boot()

    def main(task):
        while True:
            yield Sleep(millis(100))

    child, ctx = zygote.fork_dalvik("com.example.game", main)
    assert child.comm == "app_process"
    system.run_for(millis(400))
    assert child.comm == "om.example.game"
    # Pre-rename work was attributed to app_process.
    assert system.profiler.instr_by_proc.get("app_process", 0) > 0


def test_zygote_children_inherit_preloaded_libs(system):
    zygote = Zygote(system)
    zygote.boot()

    def main(task):
        while True:
            yield Sleep(millis(100))

    child, _ = zygote.fork_dalvik("com.example.app", main)
    assert "libskia.so" in child.libmap
    assert "libdvm.so" in child.libmap
    assert child.has_region("mspace")


def test_zygote_fork_spawns_vm_threads(system):
    zygote = Zygote(system)
    zygote.boot()

    def main(task):
        while True:
            yield Sleep(millis(100))

    child, _ = zygote.fork_dalvik("com.example.app", main)
    names = {t.name for t in child.tasks}
    assert {"GC", "Compiler", "HeapWorker", "Signal Catcher", "JDWP"} <= names


def test_zygote_app_binary_inherited(system):
    zygote = Zygote(system)
    zygote.boot()

    def main(task):
        while True:
            yield Sleep(millis(100))

    child, _ = zygote.fork_dalvik("com.example.app", main)
    assert "app_process" in child.libmap
    labels = child.mm.labels()
    assert "app binary" in labels


def test_gc_thread_collects_under_pressure(system):
    zygote = Zygote(system)
    zygote.boot()
    box = {}

    def main(task):
        ctx = dalvik_context(task.process)
        box["ctx"] = ctx
        for _ in range(40):
            yield ctx.alloc(256 * 1024)
            yield Sleep(millis(5))
        while True:
            yield Sleep(seconds(1))

    zygote.fork_dalvik("com.example.churn", main)
    system.run_for(seconds(1))
    assert box["ctx"].gc_cycles >= 1
    assert system.profiler.refs_by_thread.get(("m.example.churn", "GC"), 0) > 0
