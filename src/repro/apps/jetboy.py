"""jetboy.main — the JetBoy SDK sample game (JET audio engine).

Workload: a 30fps Java game loop on a worker thread synchronised to JET
music events, with the EAS synthesizer (``libsonivox.so``) rendering the
soundtrack into an in-process AudioTrack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.apps.base import AgaveAppModel
from repro.libs import skia
from repro.libs.registry import mapped_object
from repro.sim.ops import Op, Sleep
from repro.sim.ticks import millis

if TYPE_CHECKING:
    from repro.android.app import AndroidApp
    from repro.kernel.task import Task


class JetBoyModel(AgaveAppModel):
    """jetboy.main."""

    package = "com.example.android.jetboy"
    extra_libs = ("libsonivox.so",)
    dex_kb = 210
    method_count = 40
    avg_bytecodes = 380
    startup_classes = 140
    input_files = (("jetboy.jet", 160 * 1024),)

    fps = 30

    def run(self, app: "AndroidApp", task: "Task") -> Iterator[Op]:
        jetfile = self.file("jetboy.jet")
        system = app.stack.system
        sonivox = mapped_object(app.proc, "libsonivox.so")

        # Load the JET content and sprite sheets.
        yield from system.fs.read(task, jetfile, jetfile.size, app.scratch_addr)
        yield sonivox.call("jet_queue", reps=8)
        yield from app.decode_bitmap(200_000)

        frame_ticks = int(1_000_000_000 / self.fps)

        def game_loop(worker: "Task") -> Iterator[Op]:
            frame = 0
            while True:
                frame += 1
                # Asteroid field scroll + hit testing.
                yield app.hot_loop(0, reps=8, task=worker)
                yield from app.interpret_batch(3, worker)
                yield skia.canvas_setup(app.proc)
                yield from skia.raster(
                    app.proc, app.ctx.cal, int(app.surface.pixels * 0.8),
                    app.surface.canvas_addr,
                )
                yield from app.surface.post()
                app.frames_drawn += 1
                if frame % 30 == 0:
                    # JET event callback -> game state sync.
                    yield sonivox.call("jet_queue", reps=2)
                    yield from app.interpret_batch(4, worker)
                yield Sleep(frame_ticks)

        app.spawn_worker(game_loop)  # Thread-8
        app.start_game_audio(insts_per_cycle=70_000)

        while True:
            yield Sleep(millis(200))
            yield from app.touch_event(task)
