"""mediaserver: MediaPlayerService + AudioFlinger host process.

Playback sessions created over Binder run their decode loops on worker
threads *inside mediaserver* (named ``Thread-N`` as anonymous pool threads
are), feed PCM through an AudioTrackThread into AudioFlinger's mixer, and
— for video — write decoded frames into overlay gralloc buffers flipped
straight to fb0 (the Gingerbread overlay path, which is why the paper sees
mediaserver dominate gallery.mp4.view instead of SurfaceFlinger).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.android.audioflinger import AudioFlinger, AudioTrack, audiotrack_thread
from repro.android.binder import BinderHost, ServiceRegistry, Transaction
from repro.android.surfaceflinger import Surface, SurfaceFlinger
from repro.errors import ServiceError
from repro.kernel.pagecache import File
from repro.kernel.syscalls import kernel_exec
from repro.kernel.vma import LABEL_FB0, PERM_RW, VMAKind
from repro.libs import bionic, regions, stagefright
from repro.libs.registry import framework_veneer, mapped_object, resolve, run_ctors
from repro.sim.ops import Op, Sleep, merge_data
from repro.sim.ticks import millis

if TYPE_CHECKING:
    from repro.kernel.task import Process, Task
    from repro.sim.system import System

#: Native libraries of the mediaserver process.
MEDIASERVER_LIBS: tuple[str, ...] = (
    "linker",
    "libc.so",
    "libm.so",
    "libstdc++.so",
    "liblog.so",
    "libcutils.so",
    "libbinder.so",
    "libutils.so",
    "libmedia.so",
    "libstagefright.so",
    "libstagefright_omx.so",
    "libaudioflinger.so",
    "libvorbisidec.so",
    "libsonivox.so",
    "libhardware.so",
    "libui.so",
    "libsurfaceflinger_client.so",
    "libskia.so",
    "libz.so",
)

#: Batch of MP3 frames decoded per scheduling quantum.
MP3_BATCH = 8


@dataclass
class MediaSession:
    """One active playback."""

    session_id: int
    file: File
    kind: str
    track: AudioTrack
    video_surface: Surface | None
    decode_buf: int
    in_buf: int
    active: bool = True
    frames_decoded: int = field(default=0)
    video_frames: int = field(default=0)


class MediaPlayerService:
    """The ``media.player`` binder service."""

    def __init__(
        self,
        system: "System",
        proc: "Process",
        host: BinderHost,
        af: AudioFlinger,
        sf: SurfaceFlinger,
        registry: ServiceRegistry,
    ) -> None:
        self.system = system
        self.proc = proc
        self.host = host
        self.af = af
        self.sf = sf
        self.sessions: list[MediaSession] = []
        self._next_id = 1
        self._next_worker = 10
        registry.add("media.player", host, self.handle)

    # ------------------------------------------------------------------

    def handle(self, txn: Transaction) -> Iterator[Op]:
        """Dispatch one binder call."""
        if txn.code == "play":
            yield from self._handle_play(txn)
        elif txn.code == "stop":
            yield from self._handle_stop(txn)
        else:
            raise ServiceError(f"media.player: unknown code {txn.code!r}")

    def _handle_play(self, txn: Transaction) -> Iterator[Op]:
        file: File = txn.args["file"]
        kind: str = txn.args["kind"]
        kernel = self.system.kernel
        proc = self.proc

        in_buf = bionic.alloc_buffer(proc, 256 * 1024)
        decode_buf = bionic.alloc_buffer(proc, 512 * 1024)
        yield bionic.malloc_cost(proc, decode_buf, 512 * 1024)
        # Stagefright's FileSource mmaps the media; sniff the container.
        media_vma = regions.map_asset(proc, file.name, file.size)
        yield from self.system.fs.read(
            self.host.threads[0], file, 64 * 1024, in_buf
        )
        yield stagefright.parse_metadata(proc, media_vma.start + 4_096)

        track = self.af.create_track(proc, f"session{self._next_id}")
        track.active = True
        video_surface: Surface | None = None
        if kind == "mp4":
            self._ensure_overlay_fb(proc)
            video_surface = self.sf.create_surface(
                proc, f"video:{self._next_id}", 800, 480, z=5, overlay=True
            )
            video_surface.layer.dirty = False

        session = MediaSession(
            session_id=self._next_id,
            file=file,
            kind=kind,
            track=track,
            video_surface=video_surface,
            decode_buf=decode_buf,
            in_buf=in_buf,
        )
        self._next_id += 1
        self.sessions.append(session)

        # Stagefright decode runs on a TimedEventQueue thread.
        self._next_worker += 1
        kernel.spawn_thread(proc, "TimedEventQueue", self._decode_loop(session))
        # The PCM feeder follows the mixer onto the big cluster (audio
        # underruns are what big.LITTLE pinning exists to prevent).
        kernel.spawn_thread(
            proc, "AudioTrackThread",
            audiotrack_thread(track, self.system.calibration, session.decode_buf),
            affinity=self.system.big_cpu(1), nice=-16,
        )
        txn.reply["session"] = session

    def _handle_stop(self, txn: Transaction) -> Iterator[Op]:
        session: MediaSession = txn.args["session"]
        session.active = False
        session.track.active = False
        yield kernel_exec("binder_session_teardown", 600, 60)

    # ------------------------------------------------------------------

    def _ensure_overlay_fb(self, proc: "Process") -> None:
        """Map fb0 into mediaserver for the video overlay path."""
        if proc.has_region(LABEL_FB0):
            return
        fb = self.system.devices.framebuffer
        vma = proc.mm.mmap(fb.frame_bytes * 2, LABEL_FB0, VMAKind.DEVICE, PERM_RW)
        proc.add_region(LABEL_FB0, vma)

    def _decode_loop(self, session: MediaSession):
        """Behaviour factory for a session's decode worker."""

        def behavior(task: "Task") -> Iterator[Op]:
            proc = self.proc
            fs = self.system.fs
            cal = self.system.calibration
            while session.active:
                yield from framework_veneer(proc, nlibs=3)
                if session.kind == "mp3":
                    yield from fs.read_warm(
                        task, session.file, 12 * 1024, session.in_buf
                    )
                    for _ in range(MP3_BATCH):
                        yield stagefright.mp3_decode_frame(
                            proc, cal, session.in_buf, session.decode_buf
                        )
                        session.frames_decoded += 1
                        session.track.pending_pcm += stagefright.MP3_FRAME_PCM_BYTES
                    yield Sleep(int(MP3_BATCH * stagefright.MP3_FRAME_MS * 1_000_000))
                elif session.kind == "mp4":
                    yield from fs.read_warm(
                        task, session.file, 48 * 1024, session.in_buf
                    )
                    yield stagefright.demux_sample(proc, cal, session.in_buf)
                    surface = session.video_surface
                    npix = surface.pixels if surface is not None else 384_000
                    out_addr = (
                        surface.canvas_addr if surface is not None else session.decode_buf
                    )
                    yield stagefright.avc_decode_frame(
                        proc, cal, npix, session.in_buf, out_addr
                    )
                    session.video_frames += 1
                    # Overlay flip: decoded frame goes straight to fb0.
                    if proc.has_region(LABEL_FB0):
                        fb_addr = proc.region_addr(LABEL_FB0)
                        libui = mapped_object(proc, "libui.so")
                        yield libui.call(
                            "gralloc_lock",
                            insts=max(npix // 12, 256),
                            data=merge_data(
                                (out_addr, npix // 24), (fb_addr, npix // 24)
                            ),
                        )
                    if surface is not None:
                        surface.layer.dirty = True
                    # Audio side: one AAC frame batch every other video frame.
                    if session.video_frames % 2 == 0:
                        yield stagefright.aac_decode_frame(
                            proc, cal, session.in_buf, session.decode_buf
                        )
                        session.track.pending_pcm += 8_192
                    yield Sleep(millis(33))
                else:
                    raise ServiceError(f"unknown media kind {session.kind!r}")

        return behavior


@dataclass
class MediaServerHandle:
    """Everything the stack needs to talk to mediaserver."""

    proc: "Process"
    host: BinderHost
    af: AudioFlinger
    mps: MediaPlayerService


def boot_mediaserver(
    system: "System", sf: SurfaceFlinger, registry: ServiceRegistry
) -> MediaServerHandle:
    """Create the mediaserver process, its services and threads."""
    kernel = system.kernel
    proc = kernel.spawn_process("mediaserver", behavior=None)
    kernel.loader.map_many(proc, resolve(MEDIASERVER_LIBS))
    regions.ensure_property_space(proc)

    def main(task: "Task") -> Iterator[Op]:
        yield from run_ctors(proc, MEDIASERVER_LIBS)
        while True:
            yield Sleep(millis(2_000))
            yield kernel_exec("mediaserver_housekeeping", 500, 40)

    kernel.set_main_behavior(proc, main)

    host = BinderHost(kernel, proc, nthreads=3)
    af = AudioFlinger(system, proc)
    # The mixer is the audio pipeline's deadline thread: BSPs park it on
    # a big core (the second one, away from SurfaceFlinger) at elevated
    # priority.  big_cpu() is None on symmetric machines — no pin.
    kernel.spawn_thread(
        proc, "AudioOut_1", af.mixer_behavior,
        affinity=system.big_cpu(1), nice=-16,
    )
    mps = MediaPlayerService(system, proc, host, af, sf, registry)
    return MediaServerHandle(proc, host, af, mps)
