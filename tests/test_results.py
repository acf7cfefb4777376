"""RunResult / SuiteResult serialisation and determinism."""

import os
import warnings

import pytest

from repro.core import QUICK_CONFIG, RunConfig, SuiteRunner
from repro.core.results import ResultCache, RunResult, SuiteResult
from repro.errors import AnalysisError
from repro.sim.ticks import millis


def test_json_roundtrip(quick_suite):
    run = quick_suite.get("countdown.main")
    clone = RunResult.from_json_dict(run.to_json_dict())
    assert clone.instr_by_region == run.instr_by_region
    assert clone.refs_by_thread == run.refs_by_thread
    assert clone.bench_id == run.bench_id
    assert clone.meta == run.meta


def test_suite_save_load(tmp_path, quick_suite):
    path = str(tmp_path / "suite.json")
    quick_suite.save(path)
    loaded = SuiteResult.load(path)
    assert set(loaded.ids()) == set(quick_suite.ids())
    for bid in quick_suite.ids():
        assert loaded.get(bid).total_refs == quick_suite.get(bid).total_refs


def test_subset_errors_on_missing(quick_suite):
    with pytest.raises(AnalysisError):
        quick_suite.subset(["not.a.benchmark"])


def test_same_seed_same_result():
    config = RunConfig(duration_ticks=millis(500), settle_ticks=millis(200), seed=5)
    runner = SuiteRunner(config)
    a = runner.run("countdown.main")
    b = runner.run("countdown.main")
    assert a.instr_by_region == b.instr_by_region
    assert a.refs_by_thread == b.refs_by_thread


def test_different_seed_different_result():
    runner = SuiteRunner()
    a = runner.run("aard.main", RunConfig(duration_ticks=millis(500), seed=1))
    b = runner.run("aard.main", RunConfig(duration_ticks=millis(500), seed=2))
    assert a.instr_by_region != b.instr_by_region or a.refs_by_thread != b.refs_by_thread


def test_run_config_scaled():
    cfg = RunConfig(duration_ticks=1_000)
    assert cfg.scaled(2.0).duration_ticks == 2_000
    assert cfg.duration_ticks == 1_000  # frozen original


def test_run_config_scaled_clamps_to_one_tick():
    cfg = RunConfig(duration_ticks=1_000)
    # int() truncation used to produce a degenerate zero-tick window.
    assert cfg.scaled(1e-9).duration_ticks == 1
    assert cfg.scaled(0.0).duration_ticks == 1
    assert RunConfig(duration_ticks=3).scaled(0.5).duration_ticks == 1


def test_run_config_from_json_rejects_degenerate_windows():
    from repro.errors import ConfigError

    good = RunConfig().to_json_dict()
    for field, bad in (("duration_ticks", 0), ("duration_ticks", -5),
                       ("settle_ticks", -1)):
        raw = dict(good)
        raw[field] = bad
        with pytest.raises(ConfigError):
            RunConfig.from_json_dict(raw)
    assert RunConfig.from_json_dict(good) == RunConfig()


def test_run_config_from_json_names_unknown_keys():
    """An unrecognised key used to surface as a bare ``TypeError`` from
    the dataclass constructor; it must be a ConfigError naming the key."""
    from repro.errors import ConfigError

    raw = {**RunConfig().to_json_dict(), "warp_factor": 9}
    with pytest.raises(ConfigError, match="warp_factor"):
        RunConfig.from_json_dict(raw)


def test_quick_config_sane():
    assert QUICK_CONFIG.duration_ticks > 0
    assert QUICK_CONFIG.settle_ticks > 0


# ----------------------------------------------------------------------
# ResultCache write/discard hygiene


class ExplodingResult(RunResult):
    """A result whose serialisation raises mid-:meth:`ResultCache.put`."""

    def to_json_dict(self) -> dict:
        raise RuntimeError("serialisation boom")


def cache_droppings(root) -> "list[str]":
    return [name for name in os.listdir(root) if ".tmp." in name]


def test_put_unlinks_tmp_when_serialisation_raises(tmp_path):
    cache = ResultCache(str(tmp_path))
    bad = ExplodingResult(bench_id="x", benchmark_comm="x",
                          duration_ticks=1, seed=1)
    with pytest.raises(RuntimeError, match="boom"):
        cache.put("x", RunConfig(), bad)
    # The regression: the tmp file used to leak, and because its pid is
    # this (live) process, sweep_stale_tmp correctly refused to touch it.
    assert cache_droppings(tmp_path) == []
    assert cache.sweep_stale_tmp() == 0
    assert cache.get("x", RunConfig()) is None


def test_put_unlinks_tmp_when_json_dump_fails_midwrite(tmp_path):
    cache = ResultCache(str(tmp_path))
    # Serialisable attributes, but a payload json.dump chokes on partway
    # through writing — the torn tmp must still be cleaned up.
    bad = RunResult(bench_id="x", benchmark_comm="x", duration_ticks=1,
                    seed=1, meta={"unserialisable": object()})
    with pytest.raises(TypeError):
        cache.put("x", RunConfig(), bad)
    assert cache_droppings(tmp_path) == []
    assert cache.get("x", RunConfig()) is None


def test_corrupt_discard_race_loser_stays_silent(tmp_path, monkeypatch):
    """Two readers race to discard one corrupt entry; the loser's unlink
    hits FileNotFoundError and must neither raise nor warn again."""
    cache = ResultCache(str(tmp_path))
    cfg = RunConfig()
    path = cache._path("x", cfg)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{torn")

    real_unlink = os.unlink

    def racing_unlink(target, *args, **kwargs):
        # The other reader's unlink wins between our read and discard...
        real_unlink(target, *args, **kwargs)
        # ...so our own attempt finds nothing.
        return real_unlink(target, *args, **kwargs)

    monkeypatch.setattr("repro.core.results.os.unlink", racing_unlink)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cache.get("x", cfg) is None
    assert cache.misses == 1
    assert not os.path.exists(path)
    # The winner warned; the loser (us) stays silent.
    assert [w for w in caught if "corrupt" in str(w.message)] == []


def test_corrupt_discard_still_warns_when_unlink_wins(tmp_path):
    cache = ResultCache(str(tmp_path))
    cfg = RunConfig()
    with open(cache._path("x", cfg), "w", encoding="utf-8") as fh:
        fh.write("{torn")
    with pytest.warns(RuntimeWarning, match="corrupt cache entry"):
        assert cache.get("x", cfg) is None
    assert cache.misses == 1
    # The heal: the next put serves future readers again.
    good = RunResult(bench_id="x", benchmark_comm="x", duration_ticks=1,
                     seed=1)
    cache.put("x", cfg, good)
    assert cache.get("x", cfg) == good


# ----------------------------------------------------------------------
# Malformed saved-result files are a clean ConfigError naming the path

#: The four ways a saved result file goes wrong, each with the phrase the
#: error must carry.  ``None`` content means the file does not exist; the
#: missing-key payload is per loader (see MISSING_KEY below).
MALFORMED = {
    "missing-file": (None, "cannot read"),
    "not-json": ("{not json", "is not valid JSON"),
    "top-level-list": ("[1, 2]", "expected a JSON object, got list"),
    "missing-key": ("", "missing key"),
}

#: A payload lacking one required key, and that key, per loader.
MISSING_KEY = {
    "suite": ('{"countdown.main": {"bench_id": "countdown.main"}}',
              "'benchmark_comm'"),
    "sweep": ('{"variants": {}, "cells": []}', "'axes'"),
    "fleet": ('{"spec_digest": "0"}', "'spec'"),
}


def _write_malformed(tmp_path, loader: str, case: str) -> "tuple[str, str]":
    """The malformed file for *case* and the phrase its error must carry."""
    content, phrase = MALFORMED[case]
    if case == "missing-key":
        content, key = MISSING_KEY[loader]
        phrase = f"{phrase} {key}"
    path = tmp_path / f"{loader}.json"
    if content is not None:
        path.write_text(content)
    return str(path), phrase


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_suite_load_rejects_malformed_file(tmp_path, case):
    from repro.errors import ConfigError

    path, phrase = _write_malformed(tmp_path, "suite", case)
    with pytest.raises(ConfigError) as exc:
        SuiteResult.load(path)
    assert path in str(exc.value) and phrase in str(exc.value)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_sweep_load_rejects_malformed_file(tmp_path, case):
    from repro.core.sweep import SweepResult
    from repro.errors import ConfigError

    path, phrase = _write_malformed(tmp_path, "sweep", case)
    with pytest.raises(ConfigError) as exc:
        SweepResult.load(path)
    assert path in str(exc.value) and phrase in str(exc.value)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_fleet_load_rejects_malformed_file(tmp_path, case):
    from repro.core.fleet import FleetResult
    from repro.errors import ConfigError

    path, phrase = _write_malformed(tmp_path, "fleet", case)
    with pytest.raises(ConfigError) as exc:
        FleetResult.load(path)
    assert path in str(exc.value) and phrase in str(exc.value)
