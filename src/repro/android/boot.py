"""Full Android boot: assembles the Gingerbread process roster.

``boot_android`` brings up the kernel threads, the native daemons, zygote,
system_server (with SurfaceFlinger), mediaserver (with AudioFlinger), the
launcher and systemui, plus the quiet Dalvik residents — reproducing the
20-34 process environment every Agave benchmark runs inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.android.binder import ServiceRegistry
from repro.android.installer import Installer
from repro.android.looper import Looper
from repro.android.mediaserver import MediaServerHandle, boot_mediaserver
from repro.android.surfaceflinger import Surface
from repro.android.system_server import SystemServerHandle, boot_system_server
from repro.dalvik.vm import dalvik_context
from repro.dalvik.zygote import Zygote
from repro.kernel.syscalls import kernel_exec
from repro.libs import regions, skia
from repro.libs.registry import framework_veneer, resolve, run_ctors
from repro.sim.ops import Op, Sleep
from repro.sim.ticks import millis, seconds

if TYPE_CHECKING:
    from repro.android.binder import BinderHost
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
    systemui_proc: "Process"
    daemons: list["Process"] = field(default_factory=list)
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
    kernel = system.kernel
    system.boot_kernel()
    daemons = _spawn_daemons(system)

    registry = ServiceRegistry()
    zygote = Zygote(system)
    zygote.boot()

    ss = boot_system_server(system, registry, zygote, jit_enabled)
    ms = boot_mediaserver(system, ss.sf, registry)
    installer = Installer(system, zygote)
    ss.installer = installer

    launcher_proc, launcher_looper = _boot_launcher(
        system, registry, zygote, ss, jit_enabled
    )
    systemui_proc = _boot_systemui(system, registry, zygote, ss, jit_enabled)
    _boot_residents(system, zygote, jit_enabled)

    stack = AndroidStack(
        system=system,
        zygote=zygote,
        registry=registry,
        system_server=ss,
        mediaserver=ms,
        installer=installer,
        launcher_proc=launcher_proc,
        launcher_looper=launcher_looper,
        systemui_proc=systemui_proc,
        daemons=daemons,
        jit_enabled=jit_enabled,
    )
    return stack


# ---------------------------------------------------------------------------
#
# Boot-time behaviour factories: plain callables the kernel invokes with
# the spawned task to get the thread's op generator.


class _DaemonMain:
    """A native daemon's ctor run + periodic poll loop."""

    def __init__(
        self, proc: "Process", period_ms: int, insts: int, libs: tuple[str, ...]
    ) -> None:
        self.proc = proc
        self.period_ms = period_ms
        self.insts = insts
        self.libs = libs

    def __call__(self, task: "Task") -> Iterator[Op]:
        proc = self.proc
        yield from run_ctors(proc, self.libs)
        while True:
            yield Sleep(millis(self.period_ms))
            yield kernel_exec(f"daemon_poll:{proc.comm}", self.insts, 40)
            yield from framework_veneer(proc, nlibs=2, insts_each=90)


def _spawn_daemons(system: "System") -> list["Process"]:
    kernel = system.kernel
    procs: list["Process"] = []
    for name, period_ms, insts, extra in DAEMON_SPECS:
        proc = kernel.spawn_process(name)
        libs = DAEMON_LIBS + extra
        kernel.loader.map_many(proc, resolve(libs))
        kernel.set_main_behavior(proc, _DaemonMain(proc, period_ms, insts, libs))
        procs.append(proc)
    return procs


class _LauncherMain:
    """The home screen: draws once, then serves launch messages.

    ``looper`` is attached after construction (the Looper needs the
    forked process, which needs this behaviour first).
    """

    def __init__(self, ss: SystemServerHandle) -> None:
        self.ss = ss
        self.looper: Looper | None = None

    def __call__(self, task: "Task") -> Iterator[Op]:
        proc = task.process
        ctx = dalvik_context(proc)
        surface = self.ss.sf.create_surface(proc, "home", 800, 480, z=0)
        yield ctx.resolve_classes(220)
        # Wallpaper + icon grid.
        yield skia.decode_image(proc, ctx.cal, 384_000, ctx.heap_addr(1))
        yield skia.canvas_setup(proc)
        yield from skia.raster(proc, ctx.cal, 384_000, surface.canvas_addr)
        yield from surface.post()
        assert self.looper is not None
        yield from self.looper.behavior(task)


def _boot_launcher(
    system: "System", registry: ServiceRegistry, zygote: Zygote,
    ss: SystemServerHandle, jit_enabled: bool = True,
) -> tuple["Process", Looper]:
    """The home screen: draws once, then serves launch messages."""
    kernel = system.kernel
    main = _LauncherMain(ss)
    proc, _ctx = zygote.fork_dalvik(
        "com.android.launcher", main, jit_enabled=jit_enabled
    )
    looper = Looper(kernel, proc, "main")
    main.looper = looper
    return proc, looper


class _SystemUiMain:
    """Status bar: 1Hz clock updates keep a small SF layer live."""

    def __init__(self, ss: SystemServerHandle) -> None:
        self.ss = ss

    def __call__(self, task: "Task") -> Iterator[Op]:
        proc = task.process
        ctx = dalvik_context(proc)
        surface = self.ss.sf.create_surface(proc, "statusbar", 800, 38, z=10)
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


def _boot_systemui(
    system: "System", registry: ServiceRegistry, zygote: Zygote,
    ss: SystemServerHandle, jit_enabled: bool = True,
) -> "Process":
    """Status bar: 1Hz clock updates keep a small SF layer live."""
    proc, _ctx = zygote.fork_dalvik(
        "com.android.systemui", _SystemUiMain(ss), jit_enabled=jit_enabled
    )
    return proc


class _ResidentMain:
    """A quiet Dalvik resident: resolve classes, then idle allocations."""

    def __init__(self, classes: int, period_ms: int) -> None:
        self.classes = classes
        self.period_ms = period_ms

    def __call__(self, task: "Task") -> Iterator[Op]:
        proc = task.process
        ctx = dalvik_context(proc)
        yield ctx.resolve_classes(self.classes)
        while True:
            yield Sleep(millis(self.period_ms))
            yield ctx.alloc(128)


def _boot_residents(
    system: "System", zygote: Zygote, jit_enabled: bool = True
) -> None:
    """Quiet Dalvik residents: acore and phone."""
    zygote.fork_dalvik(
        "android.process.acore", _ResidentMain(140, 3_000), jit_enabled=jit_enabled
    )
    zygote.fork_dalvik(
        "com.android.phone", _ResidentMain(120, 2_000),
        extra_libs=("libril.so",),
        jit_enabled=jit_enabled,
    )
