"""Package installation: PackageManager -> defcontainer -> dexopt.

The flow reproduces the process choreography behind the paper's
``pm.apk.view`` bars: the PackageManagerService (system_server) verifies,
``com.android.defcontainer`` (comm ``id.defcontainer``) copies and
inspects the APK, and a ``dexopt`` process verifies + optimises the dex —
by far the heaviest step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.dalvik.dex import DexFile, map_dex
from repro.dalvik.zygote import Zygote
from repro.kernel.pagecache import File
from repro.kernel.syscalls import kernel_exec
from repro.libs import bionic
from repro.libs.registry import mapped_object, resolve, run_ctors
from repro.sim.ops import Block, ExecBlock, Op

if TYPE_CHECKING:
    from repro.kernel.task import Process, Task
    from repro.sim.system import System

DEXOPT_LIBS: tuple[str, ...] = (
    "linker",
    "libc.so",
    "liblog.so",
    "libcutils.so",
    "libz.so",
    "libdvm.so",
)


@dataclass
class InstallRequest:
    """One package install."""

    package: str
    apk: File
    dex_kb: int


class Installer:
    """Drives the multi-process install pipeline."""

    def __init__(self, system: "System", zygote: Zygote) -> None:
        self.system = system
        self.zygote = zygote
        self.installs_completed = 0

    # ------------------------------------------------------------------

    def install_flow(self, request: InstallRequest) -> Iterator[Op]:
        """Behaviour fragment run inside a PackageManager binder thread."""
        kernel = self.system.kernel

        # Stage 1: defcontainer copies + inspects the APK.
        dc_done = kernel.new_waitq(f"install:dc:{request.package}")
        self._spawn_defcontainer(request, dc_done)
        yield Block(dc_done)

        # Stage 2: dexopt verifies + optimises the dex.
        opt_done = kernel.new_waitq(f"install:dexopt:{request.package}")
        self._spawn_dexopt(request, opt_done)
        yield Block(opt_done)

        self.installs_completed += 1

    # ------------------------------------------------------------------

    def _spawn_defcontainer(self, request: InstallRequest, done_q) -> "Process":
        """Fork com.android.defcontainer to copy/inspect the APK."""
        system = self.system

        def main(task: "Task") -> Iterator[Op]:
            proc = task.process
            buf = bionic.alloc_buffer(proc, 256 * 1024)
            yield from system.fs.read(task, request.apk, request.apk.size, buf)
            # Unzip the APK and hash it for signature verification.
            apk_kb = max(request.apk.size // 1024, 1)
            libz = mapped_object(proc, "libz.so")
            yield libz.call(
                "inflate_block",
                insts=apk_kb * system.calibration.inflate_insts_per_kb // 4,
                data=((buf, apk_kb * 6),),
            )
            libcrypto = mapped_object(proc, "libcrypto.so")
            yield libcrypto.call("sha1_block", reps=apk_kb // 4 + 1, data=((buf, apk_kb),))
            done_q.wake_all()
            # Transient helper: tear down the whole process on completion.
            system.kernel.kill_process(proc)

        proc, _ctx = self.zygote.fork_dalvik(
            "com.android.defcontainer",
            main,
            extra_libs=("libcrypto.so",),
            jit_enabled=False,
            nice_threads=False,
        )
        return proc

    def _spawn_dexopt(self, request: InstallRequest, done_q) -> "Process":
        """Spawn the dexopt process for the package's classes.dex."""
        system = self.system
        kernel = system.kernel
        dex = DexFile(f"{request.package}@classes.dex", request.dex_kb)

        def main(task: "Task") -> Iterator[Op]:
            proc = task.process
            yield from run_ctors(proc, DEXOPT_LIBS)
            dex_vma = map_dex(proc, dex)
            libdvm = mapped_object(proc, "libdvm.so")
            total = request.dex_kb * system.calibration.dexopt_insts_per_kb
            # Verify + optimise in chunks so the scheduler can interleave.
            chunks = 16
            for i in range(chunks):
                yield libdvm.call(
                    "dvmJitCompile",
                    insts=total // chunks,
                    data=(
                        (dex_vma.start + (i * dex_vma.size) // chunks, request.dex_kb * 120),
                    ),
                )
            odex = system.fs.create(f"{request.package}@classes.odex", dex.size_bytes)
            yield from system.fs.write(task, odex, dex.size_bytes // 2, dex_vma.start)
            done_q.wake_all()

        proc = kernel.spawn_process("dexopt", behavior=main)
        kernel.loader.map_many(proc, resolve(DEXOPT_LIBS))
        return proc
