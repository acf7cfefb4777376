"""SurfaceFlinger: the display compositor thread.

SurfaceFlinger runs as a thread of ``system_server`` (as it did in
Gingerbread).  Every vsync it composites the dirty visible layers from
their gralloc buffers into the fb0 mapping.  Pixel work executes from
system_server's ``mspace`` arena (specialised blitters) — the combination
that makes SurfaceFlinger the paper's top thread (43.4%) and ``mspace``
the top instruction region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.android.gralloc import GrallocAllocator, GrallocBuffer
from repro.kernel.vma import LABEL_FB0, PERM_RW, VMA, VMAKind
from repro.libs import regions
from repro.libs.registry import framework_veneer, mapped_object
from repro.sim.ops import ExecBlock, Op, Sleep, merge_data

if TYPE_CHECKING:
    from repro.kernel.task import Process, Task
    from repro.sim.devices import FramebufferDevice
    from repro.sim.system import System

#: 60Hz vsync period in ticks.
VSYNC_TICKS = 16_666_667


@dataclass
class Layer:
    """One composited window."""

    name: str
    buffer: GrallocBuffer
    z: int = 0
    visible: bool = True
    dirty: bool = False
    #: Overlay layers (video) reach the panel through the hardware overlay
    #: engine: SurfaceFlinger only flips them, it never touches pixels.
    overlay: bool = False
    frames_posted: int = field(default=0)


class Surface:
    """Client-side handle to a SurfaceFlinger layer."""

    def __init__(self, sf: "SurfaceFlinger", layer: Layer, client: "Process") -> None:
        self.sf = sf
        self.layer = layer
        self.client = client

    @property
    def width(self) -> int:
        """Surface width in pixels."""
        return self.layer.buffer.width

    @property
    def height(self) -> int:
        """Surface height in pixels."""
        return self.layer.buffer.height

    @property
    def pixels(self) -> int:
        """Pixel count of the surface."""
        return self.layer.buffer.pixels

    @property
    def canvas_addr(self) -> int:
        """Address the client rasterises into."""
        return self.layer.buffer.client_addr

    def post(self) -> Iterator[Op]:
        """Queue the back buffer for composition (client-side cost + flag)."""
        sfc = mapped_object(self.client, "libsurfaceflinger_client.so")
        yield sfc.call("surface_post")
        self.layer.dirty = True
        self.layer.frames_posted += 1


class SurfaceFlinger:
    """The compositor service."""

    def __init__(self, system: "System", proc: "Process") -> None:
        self.system = system
        self.proc = proc
        self.allocator = GrallocAllocator(proc)
        self.layers: dict[str, Layer] = {}
        fb = system.devices.framebuffer
        self.fb_vma: VMA = proc.mm.mmap(
            fb.frame_bytes * 2, LABEL_FB0, VMAKind.DEVICE, PERM_RW
        )
        proc.add_region(LABEL_FB0, self.fb_vma)
        regions.ensure_mspace(proc)
        self.frames_composited = 0

    # ------------------------------------------------------------------

    def create_surface(
        self,
        client: "Process",
        name: str,
        width: int,
        height: int,
        z: int = 0,
        overlay: bool = False,
    ) -> Surface:
        """Allocate a layer + buffer for *client*."""
        buf = self.allocator.allocate(client, name, width, height)
        layer = Layer(name=name, buffer=buf, z=z, overlay=overlay)
        self.layers[name] = layer
        return Surface(self, layer, client)

    def remove_surface(self, surface: Surface) -> None:
        """Tear down a layer (window destroyed)."""
        self.layers.pop(surface.layer.name, None)
        self.allocator.release(surface.layer.buffer, surface.client)

    def visible_layers(self) -> list[Layer]:
        """Visible layers in z order."""
        return sorted(
            (l for l in self.layers.values() if l.visible), key=lambda l: l.z
        )

    # ------------------------------------------------------------------

    def thread_behavior(self, task: "Task") -> Iterator[Op]:
        """The SurfaceFlinger thread: composite dirty layers every vsync."""
        libsf = mapped_object(self.proc, "libsurfaceflinger.so")
        while True:
            yield Sleep(VSYNC_TICKS)
            dirty = [l for l in self.visible_layers() if l.dirty]
            if not dirty:
                continue
            cal = self.system.calibration
            yield libsf.call("composite_setup")
            yield from framework_veneer(self.proc, nlibs=3, insts_each=110)
            fb_addr = self.fb_vma.start + 4_096
            code = regions.mspace_code_addr(self.proc)
            for layer in dirty:
                layer.dirty = False
                if layer.overlay:
                    # Hardware overlay: program the engine, no pixel work.
                    yield libsf.call(
                        "handle_transaction",
                        insts=cal.overlay_flip_insts,
                        data=((fb_addr, 40),),
                    )
                    continue
                npix = layer.buffer.pixels
                insts = max(int(npix * cal.sf_insts_per_pixel), 64)
                refs = max(int(npix * cal.sf_refs_per_pixel), 8)
                yield ExecBlock(
                    code,
                    insts,
                    merge_data(
                        (layer.buffer.server_addr, (refs * 3) // 5),
                        (fb_addr, (refs * 2) // 5),
                    ),
                )
            self.frames_composited += 1
            self.system.devices.framebuffer.post()
