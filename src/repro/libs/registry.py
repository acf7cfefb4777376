"""Catalog of the Gingerbread native libraries.

Each entry describes one shared object of the Android 2.3.7 userland (plus
the NDK libraries shipped by the Agave applications).  Mapping a library
into a process creates VMAs labelled with the library name, so the paper's
region axis (``libdvm.so``, ``libskia.so``, ``libcr3engine-3-1-1.so``...)
falls out of the address-space contents.

Library constructors model ELF init: a burst of instructions in the
library's text plus GOT/relocation writes in its data segment — this is
what makes "mapped" imply "referenced" for region-count claims, just as
the dynamic linker does on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import LoaderError
from repro.libs.object import MappedObject, SharedObject
from repro.sim.ops import ExecBlock, Op

if TYPE_CHECKING:
    from repro.kernel.task import Process

KB = 1024


@dataclass(frozen=True)
class LibSpec:
    """Catalog entry for one shared object."""

    name: str
    text_kb: int
    data_kb: int
    ctor_insts: int = 1_200
    has_reloc: bool = True
    symbols: tuple[tuple[str, int], ...] = field(default_factory=tuple)


#: The Gingerbread system image, NDK app libraries included.  Symbol
#: instruction costs are per-call baselines; helpers override with
#: workload-derived counts where the work is size-dependent.
_CATALOG: tuple[LibSpec, ...] = (
    # Core runtime -----------------------------------------------------
    LibSpec("linker", 60, 8, 2_000, False, (("dl_resolve", 350),)),
    LibSpec(
        "libc.so",
        280,
        32,
        1_500,
        True,
        (
            ("malloc", 140),
            ("free", 90),
            ("memcpy", 12),
            ("memset", 8),
            ("strcmp", 25),
            ("pthread_create", 2_200),
            ("pthread_mutex", 45),
            ("gettimeofday", 90),
            ("snprintf", 300),
        ),
    ),
    LibSpec("libm.so", 90, 4, 500, True, (("sin_cos", 60), ("sqrt", 40))),
    LibSpec("libstdc++.so", 40, 4, 300, True, (("operator_new", 160),)),
    LibSpec("liblog.so", 12, 4, 200, False, (("log_print", 420),)),
    LibSpec("libcutils.so", 40, 8, 400, True, (("property_get", 260), ("atrace", 80))),
    # Dalvik / runtime ---------------------------------------------------
    LibSpec(
        "libdvm.so",
        420,
        64,
        6_000,
        True,
        (
            ("dvmInterpret", 1),
            ("dvmJitCompile", 1),
            ("dvmGcMark", 1),
            ("dvmGcSweep", 1),
            ("dvmAllocObject", 180),
            ("dvmResolveClass", 900),
            ("dvmLockObject", 60),
            ("dvmJniCall", 220),
        ),
    ),
    LibSpec("libnativehelper.so", 40, 8, 500, True, (("jni_env", 90),)),
    LibSpec(
        "libandroid_runtime.so",
        540,
        48,
        4_500,
        True,
        (("android_jni_bridge", 240), ("view_draw_native", 500)),
    ),
    # Binder / IPC -------------------------------------------------------
    LibSpec(
        "libbinder.so",
        110,
        12,
        900,
        True,
        (("transact", 650), ("parcel_marshal", 9), ("ipc_thread_loop", 400)),
    ),
    LibSpec("libutils.so", 90, 12, 700, True, (("refbase", 40), ("looper_poll", 320))),
    # Graphics -----------------------------------------------------------
    LibSpec(
        "libskia.so",
        900,
        72,
        3_500,
        True,
        (
            ("canvas_setup", 800),
            ("decode_image", 1),
            ("text_shape", 1),
            ("path_fill", 1),
            ("blit_prepare", 420),
        ),
    ),
    LibSpec("libui.so", 70, 8, 600, True, (("gralloc_lock", 380),)),
    LibSpec(
        "libsurfaceflinger_client.so",
        60,
        8,
        500,
        True,
        (("surface_lock", 420), ("surface_post", 520)),
    ),
    LibSpec(
        "libsurfaceflinger.so",
        180,
        16,
        1_400,
        True,
        (("handle_transaction", 700), ("composite_setup", 520)),
    ),
    LibSpec("libEGL.so", 50, 8, 400, True, (("egl_swap", 600),)),
    LibSpec("libGLESv1_CM.so", 60, 8, 350, True, (("gl_draw_array", 1),)),
    LibSpec("libGLESv2.so", 60, 8, 350, True, (("gl_draw", 1),)),
    LibSpec("libpixelflinger.so", 90, 8, 450, True, (("scanline", 1),)),
    LibSpec("libhardware.so", 10, 4, 150, False, (("hw_get_module", 200),)),
    LibSpec("libhardware_legacy.so", 30, 4, 200, True, ()),
    # Media --------------------------------------------------------------
    LibSpec(
        "libmedia.so",
        200,
        24,
        1_600,
        True,
        (
            ("mediaplayer_api", 420),
            ("audiotrack_write", 11),
            ("audiotrack_cb", 900),
        ),
    ),
    LibSpec(
        "libstagefright.so",
        640,
        48,
        2_800,
        True,
        (
            ("mp3_decode_frame", 1),
            ("aac_decode_frame", 1),
            ("avc_decode_frame", 1),
            ("mp4_extract_sample", 1),
            ("id3_parse", 2_400),
        ),
    ),
    LibSpec("libstagefright_omx.so", 90, 12, 700, True, (("omx_fill_buffer", 380),)),
    LibSpec(
        "libaudioflinger.so",
        140,
        16,
        1_100,
        True,
        (("mix_buffer", 1), ("resample", 1)),
    ),
    LibSpec("libsoundpool.so", 30, 4, 250, True, (("play_sample", 500),)),
    LibSpec("libvorbisidec.so", 110, 8, 500, True, (("vorbis_decode", 1),)),
    LibSpec(
        "libsonivox.so", 160, 24, 800, True, (("eas_render", 1), ("jet_queue", 300))
    ),
    LibSpec("libspeech.so", 40, 8, 250, False, ()),
    # System services ----------------------------------------------------
    LibSpec("libinput.so", 80, 8, 600, True, (("dispatch_event", 650),)),
    LibSpec("libsensorservice.so", 50, 8, 350, True, (("sensor_poll", 280),)),
    LibSpec("libcamera_client.so", 40, 8, 250, True, ()),
    LibSpec("libcameraservice.so", 60, 8, 300, True, ()),
    # Data / text / misc ---------------------------------------------------
    LibSpec(
        "libsqlite.so",
        300,
        24,
        1_800,
        True,
        (("sql_prepare", 2_600), ("sql_step", 1), ("btree_search", 700)),
    ),
    LibSpec("libssl.so", 180, 16, 900, True, ()),
    LibSpec("libcrypto.so", 680, 32, 1_500, True, (("sha1_block", 900),)),
    LibSpec(
        "libicuuc.so", 600, 64, 2_200, True, (("ubrk_next", 180), ("ucnv_convert", 1))
    ),
    LibSpec("libicui18n.so", 700, 64, 1_800, True, (("coll_compare", 240),)),
    LibSpec("libexpat.so", 60, 8, 400, True, (("xml_parse_chunk", 1),)),
    LibSpec("libz.so", 50, 4, 300, True, (("inflate_block", 1), ("crc32", 1))),
    LibSpec(
        "libxml2.so", 400, 32, 1_200, True, (("xml_read", 1), ("xpath_eval", 800))
    ),
    LibSpec("libwebcore.so", 3_200, 256, 8_000, True, (("layout_page", 1),)),
    LibSpec("libdbus.so", 80, 8, 400, True, ()),
    LibSpec("libnetutils.so", 20, 4, 150, False, ()),
    LibSpec("libsysutils.so", 40, 8, 250, True, (("socket_listener", 300),)),
    LibSpec("libwpa_client.so", 10, 4, 100, False, ()),
    LibSpec("libril.so", 40, 8, 250, True, ()),
    LibSpec("libreference-ril.so", 30, 4, 200, True, ()),
    LibSpec("libdiskconfig.so", 10, 4, 80, False, ()),
    LibSpec("libsystem_server.so", 40, 8, 400, True, (("init_services", 2_000),)),
    LibSpec("libandroidfw.so", 90, 12, 700, True, (("parse_resources", 1),)),
    LibSpec("libemoji.so", 10, 4, 80, False, ()),
    LibSpec("libjnigraphics.so", 8, 4, 90, False, (("bitmap_lock", 120),)),
    LibSpec("libOpenSLES.so", 50, 8, 300, True, (("sles_enqueue", 260),)),
    # Agave NDK application libraries -------------------------------------
    LibSpec(
        "libcr3engine-3-1-1.so",
        1_400,
        96,
        3_000,
        True,
        (
            ("epub_parse", 1),
            ("layout_paragraphs", 1),
            ("render_page", 1),
            ("hyphenate", 420),
        ),
    ),
    LibSpec(
        "libprboom.so",
        900,
        128,
        2_500,
        True,
        (
            ("d_gameloop", 1),
            ("r_renderframe", 1),
            ("p_think", 1),
            ("wad_read", 1),
            ("s_updatesound", 1),
        ),
    ),
    LibSpec(
        "libvlccore.so",
        1_800,
        128,
        4_000,
        True,
        (
            ("input_demux", 1),
            ("mp3_decode", 1),
            ("h264_decode", 1),
            ("aout_play", 1),
            ("vout_display", 1),
        ),
    ),
    LibSpec("libvlcjni.so", 300, 32, 1_000, True, (("jni_event", 200),)),
    LibSpec(
        "libosmrender.so",
        500,
        64,
        1_500,
        True,
        (("tile_rasterize", 1), ("route_astar", 1), ("pbf_parse", 1)),
    ),
)

_CATALOG_BY_NAME: dict[str, LibSpec] = {spec.name: spec for spec in _CATALOG}
_SHARED_OBJECTS: dict[str, SharedObject] = {}


def lib_spec(name: str) -> LibSpec:
    """Catalog entry for *name* (LoaderError when unknown)."""
    try:
        return _CATALOG_BY_NAME[name]
    except KeyError:
        raise LoaderError(f"unknown library {name!r}") from None


def shared_object(name: str) -> SharedObject:
    """The singleton SharedObject for a catalog entry."""
    so = _SHARED_OBJECTS.get(name)
    if so is None:
        spec = lib_spec(name)
        so = SharedObject(
            spec.name, spec.text_kb * KB, spec.data_kb * KB, spec.symbols
        )
        _SHARED_OBJECTS[name] = so
    return so


def catalog_names() -> tuple[str, ...]:
    """All library names in the catalog."""
    return tuple(spec.name for spec in _CATALOG)


# ---------------------------------------------------------------------------
# Standard library sets

#: Every Dalvik-hosted process maps these.
DALVIK_RUNTIME_LIBS: tuple[str, ...] = (
    "linker",
    "libc.so",
    "libm.so",
    "libstdc++.so",
    "liblog.so",
    "libcutils.so",
    "libdvm.so",
    "libnativehelper.so",
    "libandroid_runtime.so",
    "libbinder.so",
    "libutils.so",
    "libandroidfw.so",
)

#: UI-facing processes additionally map the graphics stack.
GRAPHICS_LIBS: tuple[str, ...] = (
    "libskia.so",
    "libui.so",
    "libsurfaceflinger_client.so",
    "libEGL.so",
    "libGLESv1_CM.so",
    "libGLESv2.so",
    "libpixelflinger.so",
    "libhardware.so",
    "libjnigraphics.so",
    "libemoji.so",
)

#: Client-side media stack (MediaPlayer, SoundPool, AudioTrack).
MEDIA_CLIENT_LIBS: tuple[str, ...] = (
    "libmedia.so",
    "libsoundpool.so",
)

#: mediaserver's full decode stack.
MEDIA_SERVER_LIBS: tuple[str, ...] = (
    "libmedia.so",
    "libstagefright.so",
    "libstagefright_omx.so",
    "libaudioflinger.so",
    "libvorbisidec.so",
    "libsonivox.so",
    "libhardware.so",
    "libui.so",
    "libsurfaceflinger_client.so",
)

#: system_server hosts these on top of the Dalvik runtime.
SYSTEM_SERVER_LIBS: tuple[str, ...] = (
    "libsystem_server.so",
    "libsurfaceflinger.so",
    "libinput.so",
    "libsensorservice.so",
    "libsqlite.so",
    "libskia.so",
    "libui.so",
    "libsurfaceflinger_client.so",
    "libEGL.so",
    "libpixelflinger.so",
    "libhardware.so",
    "libhardware_legacy.so",
    "libmedia.so",
    "libcamera_client.so",
    "libicuuc.so",
    "libicui18n.so",
    "libexpat.so",
    "libz.so",
    "libnetutils.so",
)

#: Common extras many applications pull in.
APP_COMMON_LIBS: tuple[str, ...] = (
    "libsqlite.so",
    "libicuuc.so",
    "libexpat.so",
    "libz.so",
)


def resolve(names: Iterable[str]) -> list[SharedObject]:
    """Resolve a list of names to shared objects (deduplicated, ordered)."""
    seen: set[str] = set()
    objects: list[SharedObject] = []
    for name in names:
        if name not in seen:
            seen.add(name)
            objects.append(shared_object(name))
    return objects


# ---------------------------------------------------------------------------
# ELF constructors

def run_ctors(proc: "Process", names: Iterable[str]) -> Iterator[Op]:
    """Behaviour fragment: run the dynamic linker + each library's ctor.

    Instruction fetches land in each library's text region and GOT fixups
    in its data region, so every mapped library becomes a *referenced*
    region — the mechanism behind the paper's per-app region counts.
    """
    linker = proc.libmap.get("linker")
    for name in names:
        mapped = proc.libmap.get(name)
        if mapped is None:
            continue
        spec = lib_spec(name)
        if linker is not None and linker is not mapped:
            yield linker.call("dl_resolve")  # type: ignore[union-attr]
        data: tuple[tuple[int, int], ...] = ()
        if spec.has_reloc:
            data = ((mapped.data_addr(64), max(spec.data_kb * 2, 8)),)  # type: ignore[union-attr]
        yield ExecBlock(mapped.text_base, spec.ctor_insts, data)  # type: ignore[union-attr]


def mapped_object(proc: "Process", name: str) -> MappedObject:
    """Typed accessor for a mapped library."""
    mapped = proc.libmap.get(name)
    if mapped is None:
        raise LoaderError(f"{proc.comm}: {name!r} not mapped")
    return mapped  # type: ignore[return-value]


#: Per-process rotation cursor for the framework veneer.
_VENEER_CURSOR_KEY = "_veneer_cursor"


def framework_veneer(
    proc: "Process", nlibs: int = 6, insts_each: int = 140
) -> Iterator[Op]:
    """Glue-code execution across the process's mapped libraries.

    Every high-level framework operation on real Android crosses a dozen
    thin layers (JNI bridges, RefBase, Parcel, property reads, logging...).
    This fragment charges a small instruction burst in a rotating window of
    the process's mapped libraries plus a GOT/static read in each — it is
    what keeps every *mapped* library a *live* region during measurement,
    reproducing the paper's per-app region counts.
    """
    objects = list(proc.libmap.values())
    if not objects:
        return
    cursor = proc.context.get(_VENEER_CURSOR_KEY, 0)
    for i in range(min(nlibs, len(objects))):
        mapped = objects[(cursor + i) % len(objects)]
        yield ExecBlock(
            mapped.text_base + 64,  # type: ignore[union-attr]
            insts_each,
            ((mapped.data_addr(128), 6),),  # type: ignore[union-attr]
        )
    proc.context[_VENEER_CURSOR_KEY] = (cursor + nlibs) % len(objects)
