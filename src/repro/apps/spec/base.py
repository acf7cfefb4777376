"""SPEC CPU2006 workload substrate.

Each SPEC model wraps a small *real* algorithm (implemented in its module)
that is executed once at calibration time with operation counting; the
simulated process then replays that footprint at scale: a single Linux
process executing from its ``app binary`` region with data split across
``heap``/``anonymous``/``stack`` exactly as dlmalloc would place it.

This reproduces the paper's contrast: SPEC instruction references come
almost entirely from the binary + OS kernel, data references from the
classic text/stack/heap trio, and the only visibly competing process is
``ata_sff/0`` servicing the input-file reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.kernel.vma import LABEL_ANONYMOUS, VMAKind
from repro.libs import bionic
from repro.libs.object import SharedObject
from repro.libs.registry import resolve, run_ctors
from repro.sim.ops import ExecBlock, Op, merge_data

if TYPE_CHECKING:
    from repro.kernel.task import Process, Task
    from repro.sim.system import System

#: SPEC binaries link little beyond libc.
SPEC_LIBS: tuple[str, ...] = ("linker", "libc.so", "libm.so")


@dataclass(frozen=True)
class IterationProfile:
    """Per-iteration footprint derived from the calibrated algorithm."""

    insts: int
    heap_refs: int
    anon_refs: int
    stack_refs: int

    def __post_init__(self) -> None:
        if self.insts <= 0:
            raise ValueError("iteration profile must retire instructions")


class SpecModel:
    """Base class for the six SPEC workload models."""

    name = "000.spec"
    #: (file name, bytes) inputs read before the compute loop.
    input_files: tuple[tuple[str, int], ...] = ()
    binary_text_kb = 120
    binary_data_kb = 64
    #: Bytes of small-object (brk heap) state.
    heap_bytes = 512 * 1024
    #: Bytes of large-array (anonymous mmap) state.
    anon_bytes = 4 * 1024 * 1024
    #: Native instructions represented by one counted algorithm operation.
    insts_per_op = 6

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._profile: IterationProfile | None = None

    # ------------------------------------------------------------------

    def calibrate(self) -> IterationProfile:
        """Run the real algorithm once and derive the footprint (abstract)."""
        raise NotImplementedError

    @property
    def profile(self) -> IterationProfile:
        """The calibration result: :meth:`calibrate` runs on the first read
        and the result is kept on this instance, never shared with another."""
        if self._profile is None:
            self._profile = self.calibrate()
        return self._profile

    # ------------------------------------------------------------------

    def launch(self, system: "System") -> "Process":
        """Spawn the SPEC process and schedule its behaviour."""
        kernel = system.kernel
        for fname, size in self.input_files:
            system.fs.create(fname, size)
        proc = kernel.spawn_process(self.name)
        binary = SharedObject(
            self.name,
            self.binary_text_kb * 1024,
            self.binary_data_kb * 1024,
            (("main_loop", 1), ("init", 5_000)),
            label="app binary",
        )
        kernel.loader.map_binary(proc, binary)
        kernel.loader.map_many(proc, resolve(SPEC_LIBS))
        kernel.set_main_behavior(proc, lambda task: self._main(system, proc, task))
        return proc

    def _main(self, system: "System", proc: "Process", task: "Task") -> Iterator[Op]:
        yield from run_ctors(proc, SPEC_LIBS)
        binary = proc.libmap[self.name]
        yield binary.call("init")  # type: ignore[union-attr]

        # Input slurp: cold reads keep ata_sff/0 busy at the start.
        in_buf = bionic.alloc_buffer(proc, 256 * 1024)
        for fname, size in self.input_files:
            f = system.fs.get(fname)
            yield from system.fs.read(task, f, size, in_buf)

        heap_addr = bionic.alloc_buffer(proc, min(self.heap_bytes, 96 * 1024))
        proc.mm.sbrk(self.heap_bytes)
        anon_vma = proc.mm.mmap(self.anon_bytes, LABEL_ANONYMOUS, VMAKind.ANON)
        yield bionic.malloc_cost(proc, anon_vma.start, self.anon_bytes)
        yield bionic.mmap_cost()

        profile = self.profile
        code_addr = binary.sym_addr("main_loop")  # type: ignore[union-attr]
        stack_addr = task.stack_addr()
        while True:
            yield ExecBlock(
                code_addr,
                profile.insts,
                merge_data(
                    (heap_addr, profile.heap_refs),
                    (anon_vma.start + 8_192, profile.anon_refs),
                    (stack_addr, profile.stack_refs),
                ),
            )
            yield from self.per_iteration_extras(system, proc, task)

    def per_iteration_extras(
        self, system: "System", proc: "Process", task: "Task"
    ) -> Iterator[Op]:
        """Hook for per-iteration syscalls/IO (default: none)."""
        return
        yield  # pragma: no cover
