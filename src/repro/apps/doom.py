"""doom.main — Doom (prboom port, NDK).

Workload: the classic 35Hz game loop running in native code: world think,
software renderer into an off-screen buffer, blit to the window surface,
plus the sound engine feeding an in-process AudioTrack.  Heavy ``app
binary``-adjacent native instruction share (libprboom) and mspace/gralloc
data traffic at a high frame rate — SurfaceFlinger works hard here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.apps.base import AgaveAppModel
from repro.libs import regions, skia
from repro.libs.registry import mapped_object
from repro.sim.ops import Op, Sleep
from repro.sim.ticks import millis

if TYPE_CHECKING:
    from repro.android.app import AndroidApp
    from repro.kernel.task import Task


class DoomModel(AgaveAppModel):
    """doom.main."""

    package = "org.prboom.doom"
    extra_libs = ("libprboom.so", "libsonivox.so")
    dex_kb = 260
    method_count = 35
    avg_bytecodes = 260
    startup_classes = 150
    input_files = (("doom1.wad", 4 * 1024 * 1024),)

    #: Doom's fixed tic rate.
    fps = 35
    render_pixels = 320 * 200

    def run(self, app: "AndroidApp", task: "Task") -> Iterator[Op]:
        wad = self.file("doom1.wad")
        system = app.stack.system
        prboom = mapped_object(app.proc, "libprboom.so")
        frame_ticks = int(1_000_000_000 / self.fps)

        # Load the WAD: mmap'd lumps plus decompressed level data.
        wad_vma = regions.map_asset(app.proc, "doom1.wad", wad.size)
        yield from system.fs.read(task, wad, 2 * 1024 * 1024, app.scratch_addr)
        yield prboom.call(
            "wad_read",
            insts=3_000_000,
            data=((app.scratch_addr, 20_000), (wad_vma.start + 4_096, 9_000)),
        )

        app.start_game_audio(
            synth_lib="libprboom.so", synth_sym="s_updatesound",
            insts_per_cycle=45_000,
        )

        frame = 0
        while True:
            frame += 1
            # World simulation.
            yield prboom.call(
                "p_think", insts=650_000,
                data=((app.scratch_addr, 150_000), (prboom.data_addr(4096), 60_000)),
            )
            # Software renderer into the engine's column buffer.
            yield prboom.call(
                "r_renderframe",
                insts=self.render_pixels * 3,
                data=((app.scratch_addr, self.render_pixels),),
            )
            # Scale/blit to the window surface (mspace blitters).
            yield from skia.raster(
                app.proc, app.ctx.cal, app.surface.pixels, app.surface.canvas_addr
            )
            yield from app.surface.post()
            app.frames_drawn += 1
            if frame % 10 == 0:
                yield from app.touch_event(task)
            yield Sleep(frame_ticks)
