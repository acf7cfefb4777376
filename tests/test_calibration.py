"""Calibration plumbing and ablation hooks."""

import pytest

from repro.calibration import CAL_PRESETS, Calibration
from repro.sim.system import System


def test_system_carries_its_calibration():
    """A run's calibration lives on its System: the fitted default unless
    one is passed in."""
    assert System().calibration == Calibration()
    custom = CAL_PRESETS["lowend"]
    assert System(calibration=custom).calibration is custom


def test_scaled_multiplies_graphics_costs():
    base = Calibration()
    doubled = base.scaled(2.0)
    assert doubled.sf_insts_per_pixel == pytest.approx(base.sf_insts_per_pixel * 2)
    assert doubled.blit_insts_per_pixel == pytest.approx(
        base.blit_insts_per_pixel * 2
    )
    # Non-graphics knobs untouched.
    assert doubled.mp3_insts_per_frame == base.mp3_insts_per_frame


def test_calibration_is_frozen():
    with pytest.raises(Exception):
        Calibration().sf_insts_per_pixel = 1.0


def test_calibration_domain_is_checked_however_it_is_built():
    """Not only decoded JSON: a direct or scaled construction out of the
    domain raises a CalibrationError, which is a ConfigError, naming the
    field.  A survivor ratio of exactly 1 is legal."""
    from repro.errors import CalibrationError, ConfigError

    assert issubclass(CalibrationError, ConfigError)
    with pytest.raises(CalibrationError, match="field mix_insts_per_frame must"):
        Calibration(mix_insts_per_frame=float("-inf"))
    with pytest.raises(CalibrationError, match="field sf_insts_per_pixel must"):
        Calibration().scaled(-1.0)
    assert Calibration(gc_survivor_ratio=1.0).gc_survivor_ratio == 1.0


@pytest.mark.parametrize("field", ["gc_trigger_bytes", "jit_cache_flush_bytes",
                                   "jit_hot_threshold"])
def test_zero_costs_stay_legal_and_run(field):
    """Zero switches a knob off; it is in the domain and a run completes."""
    from repro.core import RunConfig, execute_one
    from repro.sim.ticks import millis

    cfg = RunConfig(duration_ticks=millis(300), settle_ticks=millis(100),
                    calibration=Calibration(**{field: 0}))
    assert execute_one("music.mp3.view", cfg).total_refs > 0


def test_jit_ablation_changes_profile():
    """Running with the JIT off must remove jit-code-cache references."""
    from repro.core import RunConfig, SuiteRunner
    from repro.sim.ticks import millis

    runner = SuiteRunner()
    on = runner.run(
        "frozenbubble.main",
        RunConfig(duration_ticks=millis(800), settle_ticks=millis(200),
                  jit_enabled=True),
    )
    off = runner.run(
        "frozenbubble.main",
        RunConfig(duration_ticks=millis(800), settle_ticks=millis(200),
                  jit_enabled=False),
    )
    assert on.instr_by_region.get("dalvik-jit-code-cache", 0) > 0
    assert off.instr_by_region.get("dalvik-jit-code-cache", 0) == 0
    assert off.meta["jit_compiled"] == 0


def test_calibration_override_through_runconfig():
    from repro.core import RunConfig, SuiteRunner
    from repro.sim.ticks import millis

    runner = SuiteRunner()
    cheap = runner.run(
        "countdown.main",
        RunConfig(duration_ticks=millis(600), settle_ticks=millis(200),
                  calibration=Calibration().scaled(0.25)),
    )
    expensive = runner.run(
        "countdown.main",
        RunConfig(duration_ticks=millis(600), settle_ticks=millis(200),
                  calibration=Calibration().scaled(4.0)),
    )
    cheap_sf = cheap.refs_by_thread.get(("system_server", "SurfaceFlinger"), 0)
    costly_sf = expensive.refs_by_thread.get(("system_server", "SurfaceFlinger"), 0)
    assert costly_sf > cheap_sf


def test_counting_a_huge_profile_allocates_nothing():
    """The core count comes from the profile's two integers.  Counting
    used to expand one CpuSpec per core: 76 MB for ``10000000+0``, paid
    by every config check before it could reject the profile."""
    import tracemalloc

    from repro.calibration import profile_cpu_count
    from repro.core.runner import RunConfig
    from repro.errors import ConfigError

    tracemalloc.start()
    try:
        assert profile_cpu_count("10000000+0") == 10_000_000
        with pytest.raises(ConfigError, match="describes 10000000 cores"):
            RunConfig(cpus=1, cpu_profile="10000000+0")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
