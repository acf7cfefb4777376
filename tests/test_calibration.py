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
