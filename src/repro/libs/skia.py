"""Skia software rendering.

Gingerbread UIs rasterise with Skia in software.  The hot blitters are
specialised routines living in the process's executable ``mspace`` arena —
so *instruction* fetches for pixel work land in the ``mspace`` region (the
paper's top instruction region), while setup/shaping/decoding execute from
``libskia.so`` proper.

The per-pixel and per-glyph costs come from the *cal* argument, the
calibration of the system the calling process runs on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.libs import regions
from repro.libs.registry import mapped_object
from repro.sim.ops import ExecBlock, Op, merge_data

if TYPE_CHECKING:
    from repro.calibration import Calibration
    from repro.kernel.task import Process


def raster_pixels(
    proc: "Process", cal: "Calibration", npix: int, target_addr: int | None = None
) -> ExecBlock:
    """Blit *npix* pixels from the mspace staging buffer to *target_addr*.

    Instructions execute from mspace (specialised blitters); data
    references hit the target surface and the staging buffer.
    """
    code = regions.mspace_code_addr(proc)
    staging = regions.mspace_buffer_addr(proc)
    if target_addr is None:
        target_addr = staging
    insts = max(int(npix * cal.blit_insts_per_pixel), 32)
    refs = max(int(npix * cal.blit_refs_per_pixel), 4)
    return ExecBlock(
        code,
        insts,
        merge_data((target_addr, (refs * 2) // 3), (staging, refs // 3)),
    )


def raster(
    proc: "Process", cal: "Calibration", npix: int, target_addr: int | None = None
) -> Iterator[Op]:
    """Full rasterisation pass: SkDraw span walking (libskia) followed by
    the specialised inner-loop blit (mspace).

    This split matches where real Skia spends instructions — the outer
    draw machinery lives in ``libskia.so`` while the hot blitters are the
    mspace-resident specialisations.
    """
    skia = mapped_object(proc, "libskia.so")
    yield skia.call(
        "path_fill",
        insts=max(int(npix * cal.skdraw_insts_per_pixel), 32),
        data=((skia.data_addr(768), max(npix // 64, 2)),),
    )
    yield raster_pixels(proc, cal, npix, target_addr)


def canvas_setup(proc: "Process") -> ExecBlock:
    """Per-frame canvas/matrix/clip setup (libskia text region)."""
    skia = mapped_object(proc, "libskia.so")
    return skia.call("canvas_setup")


def draw_text(
    proc: "Process", cal: "Calibration", nglyphs: int, target_addr: int,
    glyph_pixels: int = 140,
) -> Iterator[Op]:
    """Shape then rasterise *nglyphs* glyphs onto the target surface.

    Shaping reads glyph outlines straight out of the mapped font file, so
    text-heavy apps light up the font regions on the data axis.
    """
    skia = mapped_object(proc, "libskia.so")
    data: list[tuple[int, int]] = [(skia.data_addr(512), max(nglyphs, 2))]
    font_addr = regions.asset_addr(proc, "DroidSans.ttf")
    if font_addr:
        data.append((font_addr, max(nglyphs // 2, 1)))
    fallback_addr = regions.asset_addr(proc, "DroidSansFallback.ttf")
    if fallback_addr and nglyphs > 200:
        data.append((fallback_addr, nglyphs // 40))
    yield skia.call(
        "text_shape",
        insts=max(nglyphs * cal.text_insts_per_glyph, 64),
        data=tuple(data),
    )
    yield raster_pixels(proc, cal, nglyphs * glyph_pixels, target_addr)


def decode_image(
    proc: "Process", cal: "Calibration", npix: int, out_addr: int
) -> ExecBlock:
    """Decode a compressed image into a pixel buffer (libskia codecs)."""
    skia = mapped_object(proc, "libskia.so")
    insts = max(int(npix * cal.decode_insts_per_pixel), 128)
    return skia.call(
        "decode_image",
        insts=insts,
        data=((out_addr, max(npix // 8, 4)), (skia.data_addr(1024), npix // 64)),
    )

