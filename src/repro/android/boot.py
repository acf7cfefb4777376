"""Full Android boot: assembles the Gingerbread process roster.

``boot_android`` brings up the kernel threads, the native daemons, zygote,
system_server (with SurfaceFlinger), mediaserver (with AudioFlinger), the
launcher and systemui, plus the quiet Dalvik residents — reproducing the
20-34 process environment every Agave benchmark runs inside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.android.binder import ServiceRegistry
from repro.android.installer import Installer
from repro.android.looper import Looper
from repro.android.mediaserver import MediaServerHandle, boot_mediaserver
from repro.android.system_server import SystemServerHandle, boot_system_server
from repro.dalvik.vm import dalvik_context
from repro.dalvik.zygote import Zygote
from repro.kernel.syscalls import kernel_exec
from repro.libs import skia
from repro.libs.registry import framework_veneer, resolve, run_ctors
from repro.sim.ops import Op, Sleep
from repro.sim.ticks import millis, seconds

if TYPE_CHECKING:
    from repro.kernel.task import Process, Task
    from repro.sim.system import System

#: Minimal library set for native daemons.
DAEMON_LIBS: tuple[str, ...] = (
    "linker",
    "libc.so",
    "liblog.so",
    "libcutils.so",
)

#: Native daemons of the Gingerbread base system:
#: (name, period_ms, insts, extra libraries).
DAEMON_SPECS: tuple[tuple[str, int, int, tuple[str, ...]], ...] = (
    ("init", 2_000, 300, ()),
    ("servicemanager", 1_200, 250, ("libbinder.so",)),
    ("vold", 1_500, 280, ("libsysutils.so", "libdiskconfig.so")),
    ("netd", 1_300, 300, ("libsysutils.so", "libnetutils.so")),
    ("rild", 900, 350, ("libril.so", "libreference-ril.so")),
    ("adbd", 700, 400, ("libcrypto.so",)),
    ("debuggerd", 2_500, 120, ()),
    ("installd", 2_200, 150, ()),
    ("keystore", 2_600, 130, ("libssl.so", "libcrypto.so")),
)


@dataclass
class AndroidStack:
    """Handles into a booted Android system."""

    system: "System"
    zygote: Zygote
    registry: ServiceRegistry
    system_server: SystemServerHandle
    mediaserver: MediaServerHandle
    installer: Installer
    launcher_proc: "Process"
    launcher_looper: Looper
    jit_enabled: bool = True

    @property
    def sf(self):
        """The SurfaceFlinger instance (lives in system_server)."""
        return self.system_server.sf

    @property
    def af(self):
        """The AudioFlinger instance (lives in mediaserver)."""
        return self.mediaserver.af


def boot_android(system: "System", jit_enabled: bool = True) -> AndroidStack:
    """Boot the full stack onto *system* and return the handles.

    The returned stack has scheduled all boot work as task behaviours; run
    the engine (e.g. ``system.run_for(settle)``) to let init complete
    before opening a measurement window.
    """
    system.boot_kernel()
    _spawn_daemons(system)

    registry = ServiceRegistry()
    zygote = Zygote(system)
    zygote.boot()

    ss = boot_system_server(system, registry, zygote, jit_enabled)
    ms = boot_mediaserver(system, ss.sf, registry)
    installer = Installer(system, zygote)
    ss.installer = installer

    launcher_proc, launcher_looper = _boot_launcher(system, zygote, ss, jit_enabled)
    _boot_systemui(zygote, ss, jit_enabled)
    _boot_residents(zygote, jit_enabled)

    return AndroidStack(
        system=system,
        zygote=zygote,
        registry=registry,
        system_server=ss,
        mediaserver=ms,
        installer=installer,
        launcher_proc=launcher_proc,
        launcher_looper=launcher_looper,
        jit_enabled=jit_enabled,
    )


# ---------------------------------------------------------------------------
#
# Boot-time behaviour factories: plain callables the kernel invokes with
# the spawned task to get the thread's op generator.


def _daemon_main(
    proc: "Process", period_ms: int, insts: int, libs: tuple[str, ...]
):
    """A native daemon's ctor run + periodic poll loop."""

    def behavior(task: "Task") -> Iterator[Op]:
        yield from run_ctors(proc, libs)
        while True:
            yield Sleep(millis(period_ms))
            yield kernel_exec(f"daemon_poll:{proc.comm}", insts, 40)
            yield from framework_veneer(proc, nlibs=2, insts_each=90)

    return behavior


def _spawn_daemons(system: "System") -> None:
    kernel = system.kernel
    for name, period_ms, insts, extra in DAEMON_SPECS:
        proc = kernel.spawn_process(name)
        libs = DAEMON_LIBS + extra
        kernel.loader.map_many(proc, resolve(libs))
        kernel.set_main_behavior(proc, _daemon_main(proc, period_ms, insts, libs))


def _boot_launcher(
    system: "System", zygote: Zygote, ss: SystemServerHandle,
    jit_enabled: bool = True,
) -> tuple["Process", Looper]:
    """The home screen: draws once, then serves launch messages."""

    def main(task: "Task") -> Iterator[Op]:
        proc = task.process
        ctx = dalvik_context(proc)
        surface = ss.sf.create_surface(proc, "home", 800, 480, z=0)
        yield ctx.resolve_classes(220)
        # Wallpaper + icon grid.
        yield skia.decode_image(proc, ctx.cal, 384_000, ctx.heap_addr(1))
        yield skia.canvas_setup(proc)
        yield from skia.raster(proc, ctx.cal, 384_000, surface.canvas_addr)
        yield from surface.post()
        yield from looper.behavior(task)

    proc, _ctx = zygote.fork_dalvik(
        "com.android.launcher", main, jit_enabled=jit_enabled
    )
    # The Looper needs the forked process, so it is bound after the fork;
    # main's body first runs at the thread's first dispatch, after boot.
    looper = Looper(system.kernel, proc, "main")
    return proc, looper


def _boot_systemui(
    zygote: Zygote, ss: SystemServerHandle, jit_enabled: bool = True
) -> None:
    """Status bar: 1Hz clock updates keep a small SF layer live."""

    def main(task: "Task") -> Iterator[Op]:
        proc = task.process
        ctx = dalvik_context(proc)
        surface = ss.sf.create_surface(proc, "statusbar", 800, 38, z=10)
        yield ctx.resolve_classes(160)
        yield skia.canvas_setup(proc)
        yield from skia.raster(proc, ctx.cal, surface.pixels, surface.canvas_addr)
        yield from surface.post()
        while True:
            yield Sleep(seconds(1))
            yield ctx.alloc(96)
            yield skia.canvas_setup(proc)
            yield from skia.raster(proc, ctx.cal, 6_000, surface.canvas_addr)
            yield from surface.post()

    zygote.fork_dalvik("com.android.systemui", main, jit_enabled=jit_enabled)


def _resident_main(classes: int, period_ms: int):
    """A quiet Dalvik resident: resolve classes, then idle allocations."""

    def behavior(task: "Task") -> Iterator[Op]:
        ctx = dalvik_context(task.process)
        yield ctx.resolve_classes(classes)
        while True:
            yield Sleep(millis(period_ms))
            yield ctx.alloc(128)

    return behavior


def _boot_residents(zygote: Zygote, jit_enabled: bool = True) -> None:
    """Quiet Dalvik residents: acore and phone."""
    zygote.fork_dalvik(
        "android.process.acore", _resident_main(140, 3_000), jit_enabled=jit_enabled
    )
    zygote.fork_dalvik(
        "com.android.phone", _resident_main(120, 2_000),
        extra_libs=("libril.so",),
        jit_enabled=jit_enabled,
    )
