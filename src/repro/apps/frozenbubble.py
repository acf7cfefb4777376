"""frozenbubble.main — Frozen Bubble (pure-Java game).

Workload: the GameView worker thread ("Thread-8") runs a 30fps loop of
interpreted/JIT'd physics and sprite drawing.  As a Java game it exercises
the Dalvik interpreter + JIT hard (hot methods get compiled into the
dalvik-jit-code-cache) while sprite blits stream through mspace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.apps.base import AgaveAppModel
from repro.libs import skia
from repro.sim.ops import Op, Sleep
from repro.sim.ticks import millis

if TYPE_CHECKING:
    from repro.android.app import AndroidApp
    from repro.kernel.task import Task


class FrozenBubbleModel(AgaveAppModel):
    """frozenbubble.main."""

    package = "org.jfedor.frozenbubble"
    extra_libs = ("libsonivox.so",)
    dex_kb = 340
    method_count = 48
    avg_bytecodes = 420
    startup_classes = 170

    fps = 30
    sprite_coverage = 0.9

    def run(self, app: "AndroidApp", task: "Task") -> Iterator[Op]:
        # Load sprite sheets once.
        for npix in (160_000, 96_000, 64_000):
            yield from app.decode_bitmap(npix)

        frame_ticks = int(1_000_000_000 / self.fps)
        done_q = app.stack.system.kernel.new_waitq("fb:game-over")

        def game_loop(worker: "Task") -> Iterator[Op]:
            frame = 0
            while True:
                frame += 1
                # Physics + collision on hot methods (JIT fodder).
                yield app.hot_loop(0, reps=10, task=worker)
                yield app.hot_loop(1, reps=6, task=worker)
                yield from app.interpret_batch(4, worker)
                # Sprite pass onto the surface from the game thread.
                yield skia.canvas_setup(app.proc)
                npix = int(app.surface.pixels * self.sprite_coverage)
                yield from skia.raster(
                    app.proc, app.ctx.cal, npix, app.surface.canvas_addr
                )
                yield from app.surface.post()
                app.frames_drawn += 1
                if frame % 45 == 0:
                    # Bubble pop: burst of allocations + sound effect.
                    yield app.ctx.alloc(48 * 1024)
                yield Sleep(frame_ticks)

        app.spawn_worker(game_loop)  # Thread-8
        app.start_game_audio(insts_per_cycle=25_000)

        # Main thread: input sampling and HUD updates.
        while True:
            yield Sleep(millis(250))
            yield from app.touch_event(task)
