"""Full Android boot: the process roster and service wiring."""

import inspect

import pytest

from repro.android.boot import boot_android
from repro.kernel.task import TaskState
from repro.sim.system import System
from repro.sim.ticks import millis, seconds


@pytest.fixture(scope="module")
def booted():
    system = System(seed=13)
    stack = boot_android(system)
    system.run_for(seconds(1))
    return system, stack


EXPECTED_PROCESSES = (
    "swapper",
    "kthreadd",
    "ksoftirqd/0",
    "kswapd0",
    "ata_sff/0",
    "init",
    "servicemanager",
    "vold",
    "netd",
    "rild",
    "adbd",
    "zygote",
    "system_server",
    "mediaserver",
    "ndroid.launcher",
    "ndroid.systemui",
    "d.process.acore",
    "m.android.phone",
)


def test_roster_contains_expected_processes(booted):
    system, _ = booted
    comms = {p.comm for p in system.kernel.live_processes()}
    for expected in EXPECTED_PROCESSES:
        assert expected in comms, f"missing {expected}"


def test_process_count_in_paper_band(booted):
    system, _ = booted
    assert 20 <= system.kernel.process_count() <= 34


def test_services_registered(booted):
    _, stack = booted
    for name in ("activity", "window", "package", "media.player", "power"):
        assert stack.registry.lookup(name) is not None


def test_surfaceflinger_thread_lives_in_system_server(booted):
    system, stack = booted
    names = {t.name for t in stack.system_server.proc.tasks}
    assert "SurfaceFlinger" in names
    assert system.profiler.refs_by_thread.get(
        ("system_server", "SurfaceFlinger"), 0
    ) > 0


def test_system_server_main_thread_named_serverthread(booted):
    _, stack = booted
    names = {t.name for t in stack.system_server.proc.tasks}
    assert "android.server.ServerThread" in names


def test_binder_pool_sizes(booted):
    _, stack = booted
    ss_names = {t.name for t in stack.system_server.proc.tasks}
    assert "Binder Thread #8" in ss_names
    ms_names = {t.name for t in stack.mediaserver.proc.tasks}
    assert "Binder Thread #3" in ms_names


def test_launcher_and_systemui_have_surfaces(booted):
    _, stack = booted
    assert "home" in stack.sf.layers
    assert "statusbar" in stack.sf.layers


def test_statusbar_updates_keep_sf_alive(booted):
    system, stack = booted
    before = stack.sf.frames_composited
    system.run_for(seconds(2))
    assert stack.sf.frames_composited > before


def test_zygote_preload_happened(booted):
    _, stack = booted
    assert stack.zygote.proc is not None
    assert "libdvm.so" in stack.zygote.proc.libmap
    assert stack.zygote.proc.has_region("framework-res.apk")


def test_daemons_tick(booted):
    system, _ = booted
    assert system.profiler.instr_by_proc.get("adbd", 0) > 0
    assert system.profiler.instr_by_proc.get("rild", 0) > 0


def test_boot_is_deterministic():
    def roster(seed):
        system = System(seed=seed)
        boot_android(system)
        system.run_for(millis(700))
        return sorted(system.profiler.refs_by_thread.items())

    assert roster(21) == roster(21)


def test_boot_binds_every_runnable_task():
    """Before the first tick, every task boot made runnable already
    holds its behaviour generator, and the few tasks without one
    (swapper and the idle kernel helpers) sleep off the run queue."""
    system = System(seed=21)
    boot_android(system)
    tasks = [t for p in system.kernel.live_processes() for t in p.live_tasks()]
    runnable = [t for t in tasks if t.state is TaskState.RUNNABLE]
    assert len(runnable) >= 50
    assert all(inspect.isgenerator(t.behavior) for t in runnable)
    unbound = [t for t in tasks if t.behavior is None]
    assert unbound and all(t.state is TaskState.SLEEPING for t in unbound)
