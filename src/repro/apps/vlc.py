"""vlc.{mp3,mp4}.view / vlc.mp3.view.bkg — VLC for Android (NDK decode).

Unlike the stock players, VLC decodes *in-process* with ``libvlccore.so``:
its decode worker and AudioTrackThread live in the benchmark process, so
the app bar (not mediaserver) carries the codec work — the contrast with
music.mp3.view/gallery.mp4.view the suite is designed to expose.  The mp4
variant renders software video frames into its own surface, which
SurfaceFlinger then composites (no overlay path).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.android.audioflinger import audiotrack_thread
from repro.apps.base import AgaveAppModel
from repro.libs import regions, skia
from repro.libs.registry import mapped_object
from repro.sim.ops import Op, Sleep
from repro.sim.ticks import millis, seconds

if TYPE_CHECKING:
    from repro.android.app import AndroidApp
    from repro.kernel.task import Task

#: MP3 frames decoded per worker wakeup.
MP3_BATCH = 8
MP3_FRAME_PCM = 4_608


class VlcMp3Model(AgaveAppModel):
    """vlc.mp3.view."""

    package = "org.videolan.vlc"
    extra_libs = ("libvlccore.so", "libvlcjni.so", "libOpenSLES.so")
    dex_kb = 980
    method_count = 65
    avg_bytecodes = 320
    startup_classes = 280
    input_files = (("podcast.mp3", 9 * 1024 * 1024),)

    ui_refresh_ms = 250

    def _start_decode(self, app: "AndroidApp", media_name: str) -> None:
        """Spawn the in-process decode worker + AudioTrackThread."""
        system = app.stack.system
        track = app.stack.af.create_track(app.proc, f"vlc:{app.proc.comm}")
        track.active = True
        app.audio_tracks.append(track)
        media = self.file(media_name)
        media_vma = regions.map_asset(app.proc, media_name, media.size)
        cal = app.ctx.cal

        def decode_loop(worker: "Task") -> Iterator[Op]:
            vlccore = mapped_object(app.proc, "libvlccore.so")
            while track.active:
                yield from system.fs.read_warm(worker, media, 12 * 1024, app.scratch_addr)
                yield vlccore.call(
                    "input_demux",
                    insts=30_000,
                    data=((app.scratch_addr, 90), (media_vma.start + 8_192, 70)),
                )
                for _ in range(MP3_BATCH):
                    yield vlccore.call(
                        "mp3_decode",
                        insts=cal.mp3_insts_per_frame,
                        data=(
                            (app.scratch_addr, 8_000),
                            (vlccore.data_addr(2048), 56_000),
                        ),
                    )
                    track.pending_pcm += MP3_FRAME_PCM
                yield Sleep(int(MP3_BATCH * 26.12 * 1_000_000))

        app.spawn_worker(decode_loop)  # Thread-8
        kernel = system.kernel
        kernel.spawn_thread(
            app.proc, "AudioTrackThread",
            audiotrack_thread(track, cal, app.scratch_addr),
        )

    def run(self, app: "AndroidApp", task: "Task") -> Iterator[Op]:
        self._start_decode(app, "podcast.mp3")
        while True:
            yield Sleep(millis(self.ui_refresh_ms))
            # Waveform visualiser + position updates.
            yield from app.interpret_batch(2, task)
            yield from app.draw_frame(task, coverage=0.15, glyphs=16, view_methods=2)


class VlcMp3BackgroundModel(VlcMp3Model):
    """vlc.mp3.view.bkg — headless playback service."""

    background = True
    window = None

    def run(self, app: "AndroidApp", task: "Task") -> Iterator[Op]:
        self._start_decode(app, "podcast.mp3")
        while True:
            yield Sleep(seconds(2))
            yield from app.interpret_batch(1, task)


class VlcMp4Model(AgaveAppModel):
    """vlc.mp4.view — software video decode + SF composition."""

    package = "org.videolan.vlc"
    extra_libs = ("libvlccore.so", "libvlcjni.so", "libOpenSLES.so")
    dex_kb = 980
    method_count = 65
    avg_bytecodes = 320
    startup_classes = 280
    input_files = (("clip.mp4", 30 * 1024 * 1024),)

    fps = 24

    def run(self, app: "AndroidApp", task: "Task") -> Iterator[Op]:
        system = app.stack.system
        media = self.file("clip.mp4")
        cal = app.ctx.cal
        track = app.stack.af.create_track(app.proc, "vlc-video-audio")
        track.active = True
        app.audio_tracks.append(track)
        media_vma = regions.map_asset(app.proc, "clip.mp4", media.size)
        frame_ticks = int(1_000_000_000 / self.fps)

        def video_loop(worker: "Task") -> Iterator[Op]:
            vlccore = mapped_object(app.proc, "libvlccore.so")
            npix = app.surface.pixels
            frame = 0
            while track.active:
                frame += 1
                yield from system.fs.read_warm(worker, media, 64 * 1024, app.scratch_addr)
                yield vlccore.call(
                    "input_demux",
                    insts=40_000,
                    data=((app.scratch_addr, 120), (media_vma.start + 8_192, 90)),
                )
                yield vlccore.call(
                    "h264_decode",
                    insts=max(int(npix * cal.avc_insts_per_pixel), 1_000),
                    data=(
                        (app.scratch_addr, npix // 24),
                        (app.surface.canvas_addr, npix // 2),
                        (vlccore.data_addr(4096), npix // 8),
                    ),
                )
                yield from app.surface.post()
                app.frames_drawn += 1
                if frame % 2 == 0:
                    yield vlccore.call(
                        "mp3_decode",
                        insts=cal.aac_insts_per_frame,
                        data=((app.scratch_addr, 60_000),),
                    )
                    track.pending_pcm += 8_192
                yield Sleep(frame_ticks)

        app.spawn_worker(video_loop)  # Thread-8
        kernel = system.kernel
        kernel.spawn_thread(
            app.proc, "AudioTrackThread",
            audiotrack_thread(track, cal, app.scratch_addr),
        )

        while True:
            yield Sleep(seconds(3))
            yield from app.interpret_batch(2, task)
            yield from app.draw_frame(task, coverage=0.05, glyphs=10, view_methods=2)
