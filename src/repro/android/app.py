"""Application runtime: activities, workers, AsyncTasks, media clients.

:class:`AndroidApp` is the handle a benchmark workload programs against —
a thin ActivityThread: it owns the process's Dalvik context, the window
surface, the worker/AsyncTask pools and audio tracks.  The launch
protocol mirrors Android's: launcher -> ActivityManager (binder) ->
zygote fork -> specialisation (as ``app_process``) -> window add ->
first frame -> ``activity_idle``.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Protocol

from repro.android.audioflinger import AudioTrack, audiotrack_thread
from repro.android.binder import transact
from repro.android.surfaceflinger import Surface
from repro.dalvik.dex import app_dex
from repro.dalvik.method import MethodTable
from repro.dalvik.vm import DalvikContext, dalvik_context
from repro.kernel.pagecache import File
from repro.libs import bionic, regions, skia
from repro.libs import registry
from repro.libs.registry import mapped_object
from repro.sim.ops import Block, ExecBlock, Op, Sleep
from repro.sim.ticks import millis, seconds

if TYPE_CHECKING:
    from repro.android.boot import AndroidStack
    from repro.kernel.task import Process, Task


class AppModel(Protocol):
    """What a benchmark application must describe."""

    package: str
    extra_libs: tuple[str, ...]
    dex_kb: int
    window: tuple[int, int] | None
    method_count: int
    avg_bytecodes: int
    startup_classes: int
    startup_methods: int

    def run(self, app: "AndroidApp", task: "Task") -> Iterator[Op]:
        """The workload body, executed on the app's main thread."""
        ...


@dataclass
class LaunchRecord:
    """Filled in as the launch pipeline progresses."""

    package: str = ""
    proc: "Process | None" = None
    app: "AndroidApp | None" = None
    finished: bool = False


class AsyncTaskPool:
    """The app's AsyncTask executor (threads named ``AsyncTask #N``)."""

    MAX_THREADS = 5

    def __init__(self, app: "AndroidApp") -> None:
        self.app = app
        self.queue: deque[Callable[["Task"], Iterator[Op]]] = deque()
        self.waitq = app.stack.system.kernel.new_waitq(f"asynctask:{app.proc.comm}")
        self.threads: list["Task"] = []

    def submit(self, work: Callable[["Task"], Iterator[Op]]) -> None:
        """Queue background work, growing the pool on demand."""
        self.queue.append(work)
        if len(self.threads) < self.MAX_THREADS and len(self.queue) > len(
            [t for t in self.threads if t.alive]
        ):
            self._grow()
        self.waitq.wake_all()

    def _grow(self) -> None:
        kernel = self.app.stack.system.kernel
        name = f"AsyncTask #{len(self.threads) + 1}"
        task = kernel.spawn_thread(self.app.proc, name, self._worker)
        self.threads.append(task)

    def _worker(self, task: "Task") -> Iterator[Op]:
        while True:
            if not self.queue:
                yield Block(self.waitq)
                continue
            work = self.queue.popleft()
            yield from work(task)


class AndroidApp:
    """Runtime handle for one launched application."""

    def __init__(
        self,
        stack: "AndroidStack",
        proc: "Process",
        ctx: DalvikContext,
        methods: MethodTable,
        surface: Surface | None,
    ) -> None:
        self.stack = stack
        self.proc = proc
        self.ctx = ctx
        self.methods = methods
        self.surface = surface
        self.asynctasks = AsyncTaskPool(self)
        self.audio_tracks: list[AudioTrack] = []
        self.frames_drawn = 0
        self._next_worker = 8
        self._scratch = bionic.alloc_buffer(proc, 192 * 1024)

    # ------------------------------------------------------------------
    # Java execution

    #: Invocations represented by one method pick (real UI work executes
    #: thousands of small methods per event).
    REPS_PER_PICK = 12

    def interpret_batch(
        self, n: int, task: "Task | None" = None, reps: int | None = None
    ) -> Iterator[Op]:
        """Execute *n* method picks from the app's method table."""
        per_pick = reps if reps is not None else self.REPS_PER_PICK
        for method in self.methods.pick_batch(n):
            yield self.ctx.interpret(method, reps=per_pick, task=task)

    def hot_loop(self, method_idx: int, reps: int, task: "Task | None" = None) -> ExecBlock:
        """Repeatedly run one hot method (drives JIT promotion)."""
        method = self.methods.methods[method_idx % len(self.methods.methods)]
        return self.ctx.interpret(method, reps=reps, task=task)

    # ------------------------------------------------------------------
    # Rendering

    def draw_frame(
        self,
        task: "Task | None" = None,
        coverage: float = 1.0,
        glyphs: int = 0,
        view_methods: int = 6,
    ) -> Iterator[Op]:
        """One UI frame: view traversal, rasterisation, post."""
        if self.surface is None:
            return
        yield from self.interpret_batch(view_methods, task)
        yield from registry.framework_veneer(self.proc)
        yield self._resource_read()
        yield skia.canvas_setup(self.proc)
        npix = int(self.surface.pixels * max(min(coverage, 1.0), 0.0))
        if npix:
            yield from skia.raster(
                self.proc, self.ctx.cal, npix, self.surface.canvas_addr
            )
        if glyphs:
            yield from skia.draw_text(
                self.proc, self.ctx.cal, glyphs, self.surface.canvas_addr
            )
        # Frame-local garbage: iterators, text buffers, temporary rects.
        yield self.ctx.alloc(9_000 + glyphs * 8 + npix // 64)
        yield from self.surface.post()
        self.frames_drawn += 1

    def _resource_read(self) -> ExecBlock:
        """Resource table lookups against the apk + framework-res maps."""
        androidfw = mapped_object(self.proc, "libandroidfw.so")
        data: list[tuple[int, int]] = []
        apk_addr = regions.asset_addr(self.proc, f"{self.proc.full_name}.apk")
        if apk_addr:
            data.append((apk_addr, 14))
        fw_addr = regions.asset_addr(self.proc, "framework-res.apk")
        if fw_addr:
            data.append((fw_addr, 10))
        return androidfw.call("parse_resources", insts=700, data=tuple(data))

    def decode_bitmap(self, npix: int) -> Iterator[Op]:
        """Decode an image into the dalvik heap (BitmapFactory path)."""
        yield self.ctx.jni_call()
        yield skia.decode_image(
            self.proc, self.ctx.cal, npix, self.ctx.heap_addr(npix & 0xFFF)
        )
        yield self.ctx.alloc(npix * 2)

    # ------------------------------------------------------------------
    # Concurrency

    def spawn_worker(
        self, behavior: Callable[["Task"], Iterator[Op]], name: str | None = None
    ) -> "Task":
        """Start a plain Java thread (named ``Thread-N`` by default)."""
        if name is None:
            name = f"Thread-{self._next_worker}"
            self._next_worker += 1
        return self.stack.system.kernel.spawn_thread(self.proc, name, behavior)

    def run_async(self, work: Callable[["Task"], Iterator[Op]]) -> None:
        """Submit work to the AsyncTask pool."""
        self.asynctasks.submit(work)

    # ------------------------------------------------------------------
    # Media

    def play_media(
        self, file: File, kind: str, task: "Task | None" = None
    ) -> Iterator[Op]:
        """Start playback through mediaserver (binder round-trip)."""
        kernel = self.stack.system.kernel
        ref = self.stack.registry.lookup("media.player")
        yield from transact(
            kernel, self.proc, ref, "play", payload_words=96,
            args={"file": file, "kind": kind},
        )

    def start_game_audio(
        self, synth_lib: str = "libsonivox.so", synth_sym: str = "eas_render",
        insts_per_cycle: int = 60_000,
    ) -> AudioTrack:
        """In-process audio: a synth feeding an AudioTrackThread."""
        af = self.stack.mediaserver.af
        track = af.create_track(self.proc, f"game:{self.proc.comm}")
        track.active = True
        self.audio_tracks.append(track)
        synth_buf = self._scratch

        def synth(task: "Task") -> Iterator[Op]:
            lib = mapped_object(self.proc, synth_lib)
            while track.active:
                yield Sleep(millis(20))
                yield lib.call(
                    synth_sym, insts=insts_per_cycle,
                    data=((synth_buf, 420), (track.producer_addr, 220)),
                )
                track.pending_pcm += 3_528

        self.spawn_worker(synth, name="Thread-7")
        kernel = self.stack.system.kernel
        kernel.spawn_thread(
            self.proc, "AudioTrackThread",
            audiotrack_thread(track, self.ctx.cal, synth_buf),
        )
        return track

    # ------------------------------------------------------------------

    def touch_event(self, task: "Task | None" = None) -> Iterator[Op]:
        """Handle one input event on the main thread."""
        yield from self.interpret_batch(2, task)

    @property
    def scratch_addr(self) -> int:
        """A per-app scratch buffer in the ``anonymous`` region."""
        return self._scratch


# ---------------------------------------------------------------------------
# Launch pipeline

def start_activity(
    stack: "AndroidStack", model: AppModel, background: bool = False
) -> LaunchRecord:
    """Launch *model* through the full framework path.

    Returns immediately; the record's fields fill in as the simulated
    pipeline executes.  ``background=True`` uses startService semantics
    (no window).
    """
    record = LaunchRecord(package=model.package)
    kernel = stack.system.kernel
    code = "start_service" if background else "start_activity"

    def launch_msg(task: "Task") -> Iterator[Op]:
        ref = stack.registry.lookup("activity")
        yield from transact(
            kernel, stack.launcher_proc, ref, code,
            args={"on_start": lambda: _fork_app(stack, model, record, background)},
        )

    stack.launcher_looper.post(launch_msg)
    return record


def _fork_app(
    stack: "AndroidStack", model: AppModel, record: LaunchRecord, background: bool
) -> None:
    kernel = stack.system.kernel
    dex = app_dex(model.package, model.dex_kb)

    def main(task: "Task") -> Iterator[Op]:
        proc = task.process
        ctx = dalvik_context(proc)
        methods = MethodTable.generate(
            seed=stack.system.seed ^ zlib.crc32(model.package.encode()) & 0xFFFF,
            prefix=model.package,
            count=model.method_count,
            avg_bytecodes=model.avg_bytecodes,
        )
        surface: Surface | None = None
        if model.window is not None and not background:
            width, height = model.window
            txn = yield from transact(
                kernel, proc, stack.registry.lookup("window"), "add_window",
                payload_words=128,
                args={"width": width, "height": height,
                      "name": f"app:{model.package}", "z": 2},
            )
            surface = txn.reply["surface"]
        app = AndroidApp(stack, proc, ctx, methods, surface)
        record.app = app
        # Map the package's resources; onCreate: class loading, resource
        # parsing, layout inflation.
        regions.map_asset(proc, f"{model.package}.apk", model.dex_kb * 2 * 1024)
        yield ctx.resolve_classes(model.startup_classes)
        yield from app.interpret_batch(model.startup_methods, task)
        if surface is not None:
            yield from app.draw_frame(task)
        yield from transact(
            kernel, proc, stack.registry.lookup("activity"), "activity_idle",
            payload_words=16,
        )
        yield from model.run(app, task)
        record.finished = True
        while True:
            yield Sleep(seconds(5))

    proc, _ctx = stack.zygote.fork_dalvik(
        model.package,
        main,
        primary_dex=dex,
        extra_libs=model.extra_libs,
        jit_enabled=stack.jit_enabled,
    )
    record.proc = proc
