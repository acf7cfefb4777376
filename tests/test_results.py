"""RunResult / SuiteResult serialisation and determinism."""

import io
import json
import os
import re
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import Calibration, calibration_preset
from repro.core import QUICK_CONFIG, RunConfig, SuiteRunner
from repro.core.results import ResultCache, RunResult, SuiteResult
from repro.errors import AnalysisError, ConfigError
from repro.faults import FaultPlan, ThreadKill, ThrottleWindow, fault_plan
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


def _json_dump_bytes(payload) -> bytes:
    buf = io.StringIO()
    json.dump(payload, buf)
    return buf.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def faulted_smp_run():
    """A short 2+2 run under chaos: CPU-keyed axes and fault counters."""
    from repro.core import execute_one

    cfg = RunConfig(duration_ticks=millis(300), settle_ticks=millis(100),
                    cpus=4, cpu_profile="2+2", faults=fault_plan("chaos"))
    return execute_one("countdown.main", cfg)


@pytest.mark.parametrize("ids", ((), ("countdown.main",), (
    "countdown.main", "music.mp3.view", "osmand.map.view", "999.specrand",
)), ids=("empty", "one", "several"))
def test_suite_save_writes_the_bytes_json_dump_writes(
        tmp_path, quick_suite, faulted_smp_run, ids):
    """save encodes one run at a time; the file must still hold exactly
    the bytes json.dump writes for the whole {bench_id: run} object."""
    suite = quick_suite.subset(ids)
    if ids:
        suite.runs["countdown.main.smp"] = faulted_smp_run
    path = tmp_path / "suite.json"
    suite.save(str(path))
    payload = {bid: run.to_json_dict() for bid, run in suite.runs.items()}
    assert path.read_bytes() == _json_dump_bytes(payload)


def test_sweep_save_writes_the_bytes_json_dump_writes(
        tmp_path, quick_suite, faulted_smp_run):
    """Likewise for sweeps, with cells, with axes but no cells (a shard
    that drew none), and empty."""
    from repro.core.sweep import SweepResult

    variants = {
        "a": {"jit": False, "faults": None, "cal.gc_survivor_ratio": 0.25},
        "b": {"jit": True, "faults": "chaos", "cal.gc_survivor_ratio": 1e-3},
    }
    axes = {"jit": [False, True], "faults": [None, "chaos"],
            "cal.gc_survivor_ratio": [0.25, 1e-3]}
    full = SweepResult(axes=axes, variant_values=variants,
                       bench_ids=["countdown.main", "999.specrand"])
    full.add("countdown.main", "a", quick_suite.get("countdown.main"))
    full.add("countdown.main", "b", faulted_smp_run)
    full.add("999.specrand", "a", quick_suite.get("999.specrand"))
    no_cells = SweepResult(axes=axes, variant_values=variants,
                           bench_ids=["countdown.main"])
    for name, sweep in (("full", full), ("no-cells", no_cells),
                        ("empty", SweepResult())):
        path = tmp_path / f"{name}.json"
        sweep.save(str(path))
        assert path.read_bytes() == _json_dump_bytes(sweep.to_json_dict()), name
        assert json.loads(path.read_text()) == sweep.to_json_dict(), name


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


@pytest.mark.parametrize("kwargs, field", (
    ({"duration_ticks": 0}, "duration_ticks"),
    ({"duration_ticks": -5}, "duration_ticks"),
    ({"settle_ticks": -1}, "settle_ticks"),
    ({"cpus": 0}, "cpus"),
    ({"cpus": 2, "cpu_profile": "2+2"}, "cpu_profile"),
    ({"cpus": 4, "cpu_profile": "banana"}, "cpu profile"),
    ({"duration_ticks": "1"}, "duration_ticks"),
    ({"cpus": 2.5}, "cpus"),
), ids=("zero-window", "negative-window", "negative-settle", "no-cpus",
        "profile-mismatch", "profile-unparsed", "string-window",
        "fractional-cpus"))
def test_run_config_rejects_out_of_range_values_when_built_directly(
        kwargs, field):
    """The range and type checks hold for every RunConfig, not only
    decoded ones: a zero window used to run and report 0 references, a
    negative settle ran with it in its cache key, a cpus/profile
    mismatch died at run time with a bare ValueError from System, a
    string window raised a bare TypeError, and fractional cpus built a
    config that died in System."""
    with pytest.raises(ConfigError) as exc:
        RunConfig(**kwargs)
    assert field in str(exc.value)
    with pytest.raises(ConfigError):
        replace(RunConfig(), **kwargs)


@pytest.mark.parametrize("build, field", (
    (lambda: Calibration(sf_insts_per_pixel="5"), "sf_insts_per_pixel"),
    (lambda: Calibration(jit_hot_threshold=2.5), "jit_hot_threshold"),
    (lambda: ThreadKill(at_ms="10", proc="x", thread="y"), "at_ms"),
    (lambda: ThrottleWindow(at_ms=1, duration_ms=20, cpus=(0.5,)), "cpus"),
    (lambda: FaultPlan(binder_fail_rate="x"), "binder_fail_rate"),
    (lambda: FaultPlan(evict_at_ms=("5",)), "evict_at_ms"),
    (lambda: FaultPlan(evict_at_ms=(1.5,)), "evict_at_ms"),
    (lambda: FaultPlan(name=7, binder_fail_rate=0.1), "name"),
    (lambda: FaultPlan(thread_kills=({"at_ms": 1},)), "thread_kills"),
), ids=("string-cost", "fractional-threshold", "string-kill-time",
        "fractional-throttle-cpu", "string-fail-rate", "string-evict-time",
        "fractional-evict-time", "int-plan-name", "dict-thread-kill"))
def test_nested_configs_reject_wrong_types_when_built_directly(build, field):
    """A calibration, thread kill, throttle or fault plan built in code
    has its field types checked by the JSON decoder's rules: a string
    cost, kill time, fail rate or eviction time raised a bare TypeError,
    a fractional JIT threshold or eviction time and an int plan name ran
    with them in the cache key, a fractional throttle CPU passed
    RunConfig's check and died mid-window indexing the CPU list, and a
    plan whose kill entry was a dict built and would die when it fired."""
    with pytest.raises(ConfigError, match=rf"field {field} must be "):
        build()


def test_run_config_from_json_names_unknown_keys():
    """An unrecognised key, top-level or inside ``calibration``, used to
    surface as a bare ``TypeError`` from a dataclass constructor; it must
    be a ConfigError naming the key."""
    from repro.errors import ConfigError

    raw = {**RunConfig().to_json_dict(), "warp_factor": 9}
    with pytest.raises(ConfigError, match="warp_factor"):
        RunConfig.from_json_dict(raw)
    with pytest.raises(ConfigError, match="calibration.bogus"):
        RunConfig.from_json_dict({"calibration": {"bogus": 1}})


_MISTYPED = (
    ({"jit_enabled": "no"}, "jit_enabled"),
    ({"cpus": 2.5}, "cpus"),
    ({"seed": True}, "seed"),
    ({"calibration": {"sf_insts_per_pixel": "x"}},
     "calibration.sf_insts_per_pixel"),
    ({"calibration": {"overlay_flip_insts": 2.5}},
     "calibration.overlay_flip_insts"),
    ({"duration_ticks": "abc"}, "duration_ticks"),
    ({"cpus": "2"}, "cpus"),
    ({"cpu_profile": 4}, "cpu_profile"),
    ({"faults": {"binder_fail_rate": "x"}}, "binder_fail_rate"),
)


@pytest.mark.parametrize("raw, field", _MISTYPED,
                         ids=[json.dumps(raw) for raw, _ in _MISTYPED])
def test_run_config_from_json_names_a_mistyped_field(raw, field):
    """A value of the wrong type used to decode (``"no"`` turned the JIT
    on) or raise a bare ``TypeError``; it must be a ConfigError naming
    the field."""
    with pytest.raises(ConfigError, match=rf" field {re.escape(field)} must "):
        RunConfig.from_json_dict(raw)


def _chaos_throttling(cpus):
    """The chaos plan's JSON form with its throttle on *cpus*."""
    form = fault_plan("chaos").to_json_dict()
    form["throttles"][0]["cpus"] = cpus
    return form


_OUT_OF_DOMAIN = (
    ("negative-cost", {"calibration": {"sf_insts_per_pixel": -5.0}},
     "calibration field sf_insts_per_pixel must be a finite number >= 0"),
    ("negative-int-cost", {"calibration": {"mp3_insts_per_frame": -1}},
     "calibration field mp3_insts_per_frame must be a finite number >= 0"),
    ("infinite-cost", {"calibration": {"interp_insts_per_bytecode": float("inf")}},
     "calibration field interp_insts_per_bytecode must be a finite number"),
    ("nan-cost", {"calibration": {"gc_insts_per_kb": float("nan")}},
     "calibration field gc_insts_per_kb must be a finite number"),
    ("survivors-over-1", {"calibration": {"gc_survivor_ratio": 1.5}},
     "calibration field gc_survivor_ratio must be <= 1"),
    ("throttle-cpu-99", {"faults": _chaos_throttling([99])},
     "fault plan 'chaos' field throttles[0].cpus names CPU 99, but cpus=1"),
    ("throttle-cpu-4-of-4", {"cpus": 4, "cpu_profile": "2+2",
                             "faults": _chaos_throttling([0, 4])},
     "fault plan 'chaos' field throttles[0].cpus names CPU 4, but cpus=4"),
    ("throttle-cpu-negative", {"faults": _chaos_throttling([-1])},
     "throttle cpus must be CPU indices >= 0"),
    ("throttle-no-cpus", {"faults": _chaos_throttling([])},
     "throttle cpus must name at least one CPU"),
)


@pytest.mark.parametrize("raw, message", [case[1:] for case in _OUT_OF_DOMAIN],
                         ids=[case[0] for case in _OUT_OF_DOMAIN])
def test_run_config_from_json_names_an_out_of_domain_field(raw, message):
    """A well-typed value outside its domain used to decode: a negative
    cost silently subtracted work, an infinite one overflowed mid-run,
    and a throttle on a CPU the machine lacks changed nothing.  Each must
    be a ConfigError naming the field."""
    with pytest.raises(ConfigError, match=re.escape(message)):
        RunConfig.from_json_dict(raw)


def _positions(node, path=()):
    """The path of every value nested in a JSON form."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _positions(child, path + (key,))


def _replaced(form, path, value):
    """A copy of the JSON form *form* with the value at *path* replaced."""
    form = json.loads(json.dumps(form))
    node = form
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return form


_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=False, allow_infinity=False)
                 | st.text(max_size=6))
# Half scalars: ``st.recursive`` alone draws mostly lists and objects,
# which nearly every field rejects before its decoder's value checks.
_JSON_VALUES = _JSON_SCALARS | st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize("decoder, valid", (
    (RunConfig, RunConfig(calibration=calibration_preset("lowend"), cpus=4,
                          cpu_profile="2+2", faults=fault_plan("chaos"))),
    (FaultPlan, fault_plan("chaos")),
), ids=("RunConfig", "FaultPlan"))
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_decoder_rejects_or_round_trips_any_one_field(decoder, valid, data):
    """Replace one value anywhere in a valid JSON form with any JSON
    value: the decoder raises ConfigError or returns an object whose JSON
    form decodes back to an equal object, never a TypeError, KeyError or
    ValueError."""
    form = json.loads(json.dumps(valid.to_json_dict()))
    path = data.draw(st.sampled_from(list(_positions(form))))
    broken = _replaced(form, path, data.draw(_JSON_VALUES))
    try:
        decoded = decoder.from_json_dict(broken)
    except ConfigError:
        return
    assert decoder.from_json_dict(
        json.loads(json.dumps(decoded.to_json_dict()))
    ) == decoded


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


def test_suite_save_publishes_whole_or_not_at_all(tmp_path):
    """A save that fails midway leaves the previous file as it was and
    no tmp file beside it."""
    path = tmp_path / "suite.json"
    path.write_text("previous")
    good = RunResult(bench_id="a", benchmark_comm="a", duration_ticks=1,
                     seed=1)
    bad = ExplodingResult(bench_id="b", benchmark_comm="b",
                          duration_ticks=1, seed=1)
    with pytest.raises(RuntimeError, match="boom"):
        SuiteResult(runs={"a": good, "b": bad}).save(str(path))
    assert os.listdir(tmp_path) == ["suite.json"]
    assert path.read_text() == "previous"


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
