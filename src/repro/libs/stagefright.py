"""Stagefright codec behaviours (mediaserver's decode engine).

Per-frame costs come from the *cal* argument, the calibration of the
system mediaserver runs on; data references touch the compressed input
buffer, the PCM/pixel output, and the codec's working state in
``libstagefright.so``'s data segment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.libs.registry import mapped_object
from repro.sim.ops import ExecBlock, merge_data

if TYPE_CHECKING:
    from repro.calibration import Calibration
    from repro.kernel.task import Process

#: MP3: 1152 samples @44.1kHz -> 26.12ms per frame.
MP3_FRAME_MS = 26.12
#: PCM bytes produced per MP3 frame (stereo 16-bit).
MP3_FRAME_PCM_BYTES = 1152 * 2 * 2
#: AAC: 1024 samples @48kHz -> 21.3ms per frame.
AAC_FRAME_MS = 21.33


def mp3_decode_frame(
    proc: "Process", cal: "Calibration", in_addr: int, out_addr: int
) -> ExecBlock:
    """Decode one MP3 frame to PCM."""
    sf = mapped_object(proc, "libstagefright.so")
    return sf.call(
        "mp3_decode_frame",
        insts=cal.mp3_insts_per_frame,
        data=merge_data(
            (in_addr, 6_000),
            (out_addr, MP3_FRAME_PCM_BYTES * 3),
            (sf.data_addr(2048), 56_000),
        ),
    )


def aac_decode_frame(
    proc: "Process", cal: "Calibration", in_addr: int, out_addr: int
) -> ExecBlock:
    """Decode one AAC frame to PCM."""
    sf = mapped_object(proc, "libstagefright.so")
    return sf.call(
        "aac_decode_frame",
        insts=cal.aac_insts_per_frame,
        data=merge_data((in_addr, 7_000), (out_addr, 16_000), (sf.data_addr(2048), 62_000)),
    )


def avc_decode_frame(
    proc: "Process", cal: "Calibration", npix: int, in_addr: int, out_addr: int
) -> ExecBlock:
    """Decode one H.264 frame of *npix* output pixels."""
    sf = mapped_object(proc, "libstagefright.so")
    insts = max(int(npix * cal.avc_insts_per_pixel), 1_000)
    return sf.call(
        "avc_decode_frame",
        insts=insts,
        data=merge_data(
            (in_addr, max(npix // 24, 16)),
            (out_addr, max(npix // 2, 32)),
            (sf.data_addr(4096), max(npix // 8, 32)),
        ),
    )


def demux_sample(proc: "Process", cal: "Calibration", in_addr: int) -> ExecBlock:
    """Pull one sample out of an MP4/OGG container."""
    sf = mapped_object(proc, "libstagefright.so")
    return sf.call(
        "mp4_extract_sample",
        insts=cal.demux_insts_per_sample,
        data=((in_addr, 1_400), (sf.data_addr(1024), 1_100)),
    )


def parse_metadata(proc: "Process", in_addr: int) -> ExecBlock:
    """ID3/moov metadata scan at stream-open time."""
    sf = mapped_object(proc, "libstagefright.so")
    return sf.call("id3_parse", data=((in_addr, 600),))
