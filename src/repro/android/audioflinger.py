"""AudioFlinger and AudioTrack.

AudioFlinger's mixer thread (``AudioOut_1``) lives in mediaserver and mixes
active tracks into the audio device every 20ms.  Each playing client owns
an ``AudioTrackThread`` that moves decoded PCM from the producer's buffer
into the track's shared memory — the thread the paper ranks at 5.9% of
suite references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.kernel.syscalls import kernel_exec
from repro.libs import regions
from repro.libs.registry import mapped_object
from repro.sim.ops import Op, Sleep, merge_data
from repro.sim.ticks import millis

if TYPE_CHECKING:
    from repro.calibration import Calibration
    from repro.kernel.task import Process, Task
    from repro.kernel.vma import VMA
    from repro.sim.devices import AudioDevice
    from repro.sim.system import System

#: Mixer period: 20ms of PCM per cycle.
MIX_PERIOD_TICKS = millis(20)
#: Sample-frames per mix cycle at 44.1kHz.
FRAMES_PER_MIX = 882
#: Bytes per stereo 16-bit sample-frame.
BYTES_PER_FRAME = 4


@dataclass
class AudioTrack:
    """Shared-memory PCM channel between one producer and the mixer.

    The ashmem buffer is mapped into *both* the producer process and
    mediaserver (as real AudioTrack cblk memory is), so each side's
    references resolve in its own address space.
    """

    name: str
    producer: "Process"
    producer_vma: "VMA"
    server_vma: "VMA"
    active: bool = False
    #: Bytes of decoded PCM waiting to be fed into shared memory.
    pending_pcm: int = 0
    #: Bytes fed and not yet mixed.
    buffered: int = 0
    bytes_played: int = field(default=0)

    @property
    def producer_addr(self) -> int:
        """The shared buffer as seen by the producer process."""
        return self.producer_vma.start + 1_024

    @property
    def server_addr(self) -> int:
        """The shared buffer as seen by mediaserver (the mixer side)."""
        return self.server_vma.start + 1_024


class AudioFlinger:
    """The mixer service living in mediaserver."""

    def __init__(self, system: "System", proc: "Process") -> None:
        self.system = system
        self.proc = proc
        self.tracks: list[AudioTrack] = []
        self.mix_cycles = 0

    def create_track(self, producer: "Process", name: str) -> AudioTrack:
        """Allocate a track; its ashmem maps into producer + mediaserver."""
        producer_vma = regions.ashmem_region(producer, f"audiotrack:{name}", 64 * 1024)
        if producer is self.proc:
            server_vma = producer_vma
        else:
            server_vma = regions.ashmem_region(
                self.proc, f"audiotrack:{name}", 64 * 1024
            )
        track = AudioTrack(
            name=name, producer=producer,
            producer_vma=producer_vma, server_vma=server_vma,
        )
        self.tracks.append(track)
        return track

    def mixer_behavior(self, task: "Task") -> Iterator[Op]:
        """The ``AudioOut_1`` thread."""
        libaf = mapped_object(self.proc, "libaudioflinger.so")
        device: "AudioDevice" = self.system.devices.audio
        while True:
            yield Sleep(MIX_PERIOD_TICKS)
            active = [t for t in self.tracks if t.active and t.buffered > 0]
            if not active:
                continue
            cal = self.system.calibration
            out_bytes = FRAMES_PER_MIX * BYTES_PER_FRAME
            insts = max(int(FRAMES_PER_MIX * cal.mix_insts_per_frame * len(active)), 64)
            data = [(t.server_addr, FRAMES_PER_MIX // 4) for t in active]
            yield libaf.call(
                "mix_buffer",
                insts=insts,
                data=merge_data(*data, (libaf.data_addr(256), FRAMES_PER_MIX // 8)),
            )
            yield kernel_exec("audio_hw_write", 900, out_bytes // 32)
            for t in active:
                consumed = min(t.buffered, out_bytes)
                t.buffered -= consumed
                t.bytes_played += consumed
            device.write(out_bytes)
            self.mix_cycles += 1


def audiotrack_thread(track: AudioTrack, cal: "Calibration", source_addr: int):
    """Behaviour factory for a client's AudioTrackThread.

    Moves pending PCM from the producer's decode buffer into the track's
    shared memory (resampling + volume), 20ms at a time, at *cal*'s
    per-byte cost.
    """

    def behavior(task: "Task") -> Iterator[Op]:
        libmedia = mapped_object(track.producer, "libmedia.so")
        while True:
            yield Sleep(MIX_PERIOD_TICKS)
            if not track.active or track.pending_pcm <= 0:
                continue
            chunk = min(track.pending_pcm, FRAMES_PER_MIX * BYTES_PER_FRAME * 2)
            insts = max(int(chunk * cal.audiotrack_insts_per_byte), 64)
            yield libmedia.call(
                "audiotrack_cb",
                insts=insts,
                data=merge_data(
                    (source_addr, max(chunk // 16, 8)),
                    (track.producer_addr, max(chunk // 16, 8)),
                ),
            )
            track.pending_pcm -= chunk
            track.buffered += chunk

    return behavior
