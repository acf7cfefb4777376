"""SurfaceFlinger, gralloc, skia and the mspace pixel path."""

import pytest

from repro.android.boot import boot_android
from repro.libs import regions, skia
from repro.sim.system import System
from repro.sim.ops import Sleep
from repro.sim.ticks import millis, seconds


@pytest.fixture
def stack():
    system = System(seed=31)
    return system, boot_android(system)


def test_gralloc_buffer_maps_into_both_processes(stack):
    system, st = stack
    client = system.kernel.spawn_process("winclient")
    surface = st.sf.create_surface(client, "win", 320, 240)
    buf = surface.layer.buffer
    assert client.mm.find_vma(buf.client_addr).label == "gralloc-buffer"
    assert st.system_server.proc.mm.find_vma(buf.server_addr).label == "gralloc-buffer"


def test_composition_only_when_dirty(stack):
    system, st = stack
    system.run_for(millis(600))  # boot: launcher + statusbar post once
    frames_after_boot = st.sf.frames_composited
    system.run_for(millis(300))  # nothing new posted except 1Hz statusbar
    assert st.sf.frames_composited - frames_after_boot <= 20


def test_post_triggers_composition(stack):
    system, st = stack
    system.run_for(millis(600))
    client = system.kernel.spawn_process("winclient")
    system.kernel.loader.map_many(
        client,
        __import__("repro.libs.registry", fromlist=["resolve"]).resolve(
            ("linker", "libc.so", "libsurfaceflinger_client.so", "libskia.so")
        ),
    )
    regions.ensure_mspace(client)
    surface = st.sf.create_surface(client, "win", 320, 240)
    before = st.sf.frames_composited

    def drawer(task):
        yield skia.raster_pixels(
            client, system.calibration, surface.pixels, surface.canvas_addr
        )
        yield from surface.post()
        yield Sleep(seconds(1))

    system.kernel.spawn_thread(client, "drawer", drawer)
    system.run_for(millis(100))
    assert st.sf.frames_composited > before


def test_sf_pixel_work_fetches_from_mspace(stack):
    system, st = stack
    system.run_for(millis(600))
    sf_refs = system.profiler.instr_by_proc_region.get(
        ("system_server", "mspace"), 0
    )
    assert sf_refs > 0


def test_sf_writes_fb0(stack):
    system, st = stack
    system.run_for(millis(600))
    assert system.profiler.data_by_region.get("fb0 (frame buffer)", 0) > 0
    assert system.devices.framebuffer.frames_posted > 0


def test_overlay_layer_skips_pixel_compositing(stack):
    system, st = stack
    system.run_for(millis(600))
    base = system.profiler.instr_by_proc_region.get(("system_server", "mspace"), 0)
    client = system.kernel.spawn_process("videoclient")
    surface = st.sf.create_surface(client, "video", 800, 480, z=5, overlay=True)

    def poster(task):
        for _ in range(30):
            surface.layer.dirty = True
            yield Sleep(millis(16))

    system.kernel.spawn_thread(client, "poster", poster, with_stack=False)
    system.run_for(millis(600))
    after = system.profiler.instr_by_proc_region.get(("system_server", "mspace"), 0)
    # Statusbar may still composite a little; overlay flips must not add
    # full-screen pixel work (30 frames x 384k pixels would be >50M insts).
    assert after - base < 10_000_000


def test_remove_surface_releases_buffers(stack):
    system, st = stack
    client = system.kernel.spawn_process("winclient")
    surface = st.sf.create_surface(client, "win", 320, 240)
    n_buffers = len(st.sf.allocator.buffers)
    st.sf.remove_surface(surface)
    assert len(st.sf.allocator.buffers) == n_buffers - 1
    assert surface.layer.name not in st.sf.layers


def test_visible_layers_sorted_by_z(stack):
    system, st = stack
    client = system.kernel.spawn_process("winclient")
    st.sf.create_surface(client, "a", 16, 16, z=5)
    st.sf.create_surface(client, "b", 16, 16, z=1)
    zs = [l.z for l in st.sf.visible_layers()]
    assert zs == sorted(zs)


# ---------------------------------------------------------------------------
# Skia

def test_raster_executes_from_mspace(system):
    proc = system.kernel.spawn_process("painter")
    regions.ensure_mspace(proc)
    block = skia.raster_pixels(proc, system.calibration, 1_000)
    assert proc.mm.find_vma(block.code_addr).label == "mspace"


def test_raster_cost_scales_with_pixels(system):
    proc = system.kernel.spawn_process("painter")
    regions.ensure_mspace(proc)
    small = skia.raster_pixels(proc, system.calibration, 1_000)
    large = skia.raster_pixels(proc, system.calibration, 100_000)
    assert large.insts > small.insts * 50


def test_draw_text_reads_font_when_mapped(system):
    proc = system.kernel.spawn_process("painter")
    regions.ensure_mspace(proc)
    system.kernel.loader.map_many(
        proc,
        __import__("repro.libs.registry", fromlist=["resolve"]).resolve(
            ("libskia.so",)
        ),
    )
    regions.map_asset(proc, "DroidSans.ttf", 192 * 1024)
    ops = list(skia.draw_text(
        proc, system.calibration, 100, regions.mspace_buffer_addr(proc)
    ))
    shape = ops[0]
    labels = {proc.mm.find_vma(a).label for a, _ in shape.data}
    assert "DroidSans.ttf" in labels
