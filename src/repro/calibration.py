"""Workload calibration constants.

Every size-dependent instruction/reference cost in the stack reads from the
run's :class:`Calibration`, which :class:`~repro.sim.system.System` carries
as ``system.calibration`` (set from ``RunConfig.calibration``), so the whole
model can be re-scaled (or ablated) from one place.  Defaults were fitted so
the suite-wide shapes match the paper's figures (see EXPERIMENTS.md); none
of the *reported* percentages are hard-coded anywhere — they emerge from
these per-unit costs and the workload structure.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields, replace

from repro.errors import CalibrationError, ConfigError
from repro.jsonform import check_instance


@dataclass(frozen=True)
class Calibration:
    """Per-unit costs of the simulated stack (instructions unless noted)."""

    # Graphics -----------------------------------------------------------
    #: SurfaceFlinger software-composition cost per pixel per layer.
    sf_insts_per_pixel: float = 5.0
    #: SurfaceFlinger data references per composited pixel (read + write).
    sf_refs_per_pixel: float = 0.9
    #: Per-frame cost of flipping an overlay (video) layer: no pixel work.
    overlay_flip_insts: int = 2_400
    #: Skia software rasterisation cost per pixel (blitters in mspace).
    blit_insts_per_pixel: float = 1.6
    #: SkDraw outer-loop cost per pixel (libskia.so proper).
    skdraw_insts_per_pixel: float = 0.55
    #: Data references per rasterised pixel.
    blit_refs_per_pixel: float = 0.5
    #: Skia text shaping cost per glyph (libskia text).
    text_insts_per_glyph: int = 260
    #: Image decode cost per output pixel (libskia).
    decode_insts_per_pixel: float = 2.2

    # Dalvik ---------------------------------------------------------------
    #: Interpreter expansion factor: native insts per bytecode op.
    interp_insts_per_bytecode: float = 14.0
    #: JIT-compiled expansion factor (traces run near-native).
    jit_insts_per_bytecode: float = 2.4
    #: Method invocations before a trace is considered hot.
    jit_hot_threshold: int = 40
    #: Compile cost per bytecode op of the hot method.
    jit_compile_insts_per_bytecode: float = 1_500.0
    #: Code-cache bytes before Gingerbread's flush-everything policy hits
    #: (real: 1.5MB cache, full flush, recompile from scratch).
    jit_cache_flush_bytes: int = 320 * 1024
    #: GC cost per KB of live dalvik heap per collection (full-heap
    #: stop-the-world mark/sweep on Gingerbread).
    gc_insts_per_kb: float = 2_600.0
    #: Fraction of the heap surviving a collection.
    gc_survivor_ratio: float = 0.55
    #: Allocation bytes triggering a GC cycle.
    gc_trigger_bytes: int = 768 * 1024

    # Media ----------------------------------------------------------------
    #: MP3 decode cost per 26.1ms frame (stagefright / vlc).
    mp3_insts_per_frame: int = 230_000
    #: AAC decode cost per 21.3ms frame.
    aac_insts_per_frame: int = 260_000
    #: H.264 decode cost per pixel of output frame.
    avc_insts_per_pixel: float = 4.2
    #: Container demux cost per extracted sample.
    demux_insts_per_sample: int = 9_000
    #: AudioFlinger mixing cost per PCM output sample-frame.
    mix_insts_per_frame: float = 14.0
    #: AudioTrack client thread cost per PCM byte moved: SRC_44->48
    #: polyphase resampling + volume/effects per sample.
    audiotrack_insts_per_byte: float = 45.0

    # Misc workload ----------------------------------------------------------
    #: sqlite row-step cost.
    sql_step_insts: int = 1_700
    #: XML parse cost per KB of document.
    xml_insts_per_kb: int = 5_200
    #: zlib inflate cost per KB of compressed input.
    inflate_insts_per_kb: int = 8_000
    #: dexopt verification+optimisation cost per KB of dex.
    dexopt_insts_per_kb: int = 9_000

    # Idle / housekeeping ------------------------------------------------
    #: Kernel idle-loop intensity already lives in repro.sim.engine.

    def __post_init__(self) -> None:
        """Every field has its annotated type, by the rules the JSON
        decoder applies; every cost is a finite number >= 0 (zero is
        legal: it switches the cost off) and the survivor ratio is at
        most 1.  A negative cost would subtract work and an infinite one
        would overflow mid-run, so both fail here, naming the field."""
        check_instance(self, "calibration")
        for f in fields(self):
            value = getattr(self, f.name)
            # An int past the float range is no finite cost either.
            if not 0 <= value <= sys.float_info.max:
                raise CalibrationError(
                    f"calibration field {f.name} must be a finite number "
                    f">= 0, got {value!r}"
                )
        if self.gc_survivor_ratio > 1:
            raise CalibrationError(
                f"calibration field gc_survivor_ratio must be <= 1, "
                f"got {self.gc_survivor_ratio!r}"
            )

    def scaled(self, factor: float) -> "Calibration":
        """A copy with all graphics/media costs scaled by *factor*."""
        return replace(
            self,
            sf_insts_per_pixel=self.sf_insts_per_pixel * factor,
            blit_insts_per_pixel=self.blit_insts_per_pixel * factor,
            avc_insts_per_pixel=self.avc_insts_per_pixel * factor,
        )


# ---------------------------------------------------------------------------
# Named calibration presets (device-class ablations)

#: Named device-class calibrations, selectable as the ``cal.preset``
#: sweep/fleet axis.  Each is a coherent bundle of per-unit costs rather
#: than a single-field override: ``lowend`` models a cheaper handset
#: (slower pixel pipeline, weaker interpreter, half the JIT code cache,
#: earlier GC pressure), ``highend`` a flagship (faster pixels, larger
#: code cache, later GC).  ``baseline`` is the fitted paper calibration.
CAL_PRESETS: dict[str, Calibration] = {
    "baseline": Calibration(),
    "lowend": replace(
        Calibration().scaled(1.4),
        interp_insts_per_bytecode=16.0,
        jit_cache_flush_bytes=160 * 1024,
        gc_trigger_bytes=512 * 1024,
    ),
    "highend": replace(
        Calibration().scaled(0.7),
        interp_insts_per_bytecode=12.0,
        jit_cache_flush_bytes=640 * 1024,
        gc_trigger_bytes=1024 * 1024,
    ),
}


def calibration_preset(name: str) -> Calibration:
    """Look up a named preset (``ConfigError`` on an unknown name)."""
    try:
        return CAL_PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown calibration preset {name!r}; "
            f"known: {', '.join(CAL_PRESETS)}"
        ) from None


# ---------------------------------------------------------------------------
# CPU profiles (big.LITTLE-style asymmetric core speeds)


@dataclass(frozen=True)
class CpuSpec:
    """One simulated core's speed and scheduling capacity.

    *ticks_per_inst* is the integer cycle time of the atomic CPU (the
    symmetric default is 1 tick per instruction — 1 GHz in the tick
    base); *capacity* is the Linux-style relative capacity the
    capacity-aware scheduler weighs placement with (1024 = a big core).
    """

    ticks_per_inst: int = 1
    capacity: int = 1024

    @property
    def is_big(self) -> bool:
        """True for full-capacity (big-cluster) cores."""
        return self.capacity >= BIG_CAPACITY


#: Scheduling capacity of a big core (Linux's SCHED_CAPACITY_SCALE).
BIG_CAPACITY = 1024
#: A LITTLE core: half the clock of a big core, half the capacity —
#: the in-order/OoO gap of e.g. an A53/A57 pair, coarsely.
LITTLE_TICKS_PER_INST = 2
LITTLE_CAPACITY = 512

_BIG_SPEC = CpuSpec(ticks_per_inst=1, capacity=BIG_CAPACITY)
_LITTLE_SPEC = CpuSpec(
    ticks_per_inst=LITTLE_TICKS_PER_INST, capacity=LITTLE_CAPACITY
)


def _core_counts(profile: str) -> "tuple[int, int]":
    """The big and LITTLE core counts of a ``"B+L"`` profile, checked."""
    if not isinstance(profile, str) or "+" not in profile:
        raise ConfigError(
            f"bad cpu profile {profile!r}: expected BIG+LITTLE core counts "
            f"(e.g. 4+4 or 2+2)"
        )
    big_text, _, little_text = profile.partition("+")
    try:
        big, little = int(big_text), int(little_text)
    except ValueError:
        raise ConfigError(
            f"bad cpu profile {profile!r}: core counts must be integers"
        ) from None
    if big < 0 or little < 0 or big + little < 1:
        raise ConfigError(
            f"bad cpu profile {profile!r}: needs at least one core"
        )
    return big, little


def parse_cpu_profile(profile: str) -> tuple[CpuSpec, ...]:
    """Expand a ``"B+L"`` big.LITTLE profile into per-CPU specs.

    ``"4+4"`` is four big cores followed by four LITTLE cores (big cores
    take the low CPU ids, matching the common vendor numbering); ``"2+2"``
    is the classic quad big.LITTLE half.  ``"0+4"`` (all LITTLE) and
    ``"4+0"`` (all big, i.e. symmetric speeds but scheduled by the CFS
    queue) are valid degenerate forms.
    """
    big, little = _core_counts(profile)
    return (_BIG_SPEC,) * big + (_LITTLE_SPEC,) * little


def profile_cpu_count(profile: str) -> int:
    """The number of cores a profile describes (counted, not expanded:
    every config check calls this before it can reject a huge profile)."""
    return sum(_core_counts(profile))

