"""Toy-size self-test of the benchmark.

Run from the root of the repository::

    python3 -m pytest -q perfbench/selftest.py

Each workload runs at a few units against goldens recorded on the spot.
Every run must finish, print every metric ``BENCHMARK.json`` names with
its unit, and count a corrupted output as failed units.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from record_goldens import record  # noqa: E402
from sandbox import Sandbox  # noqa: E402
from workloads import TOY_WORKLOADS  # noqa: E402

#: Variants the toy runs below reach: seed 0, three repetitions.
TOY_VARIANTS = range(3)


@pytest.fixture(scope="module")
def toy_goldens(tmp_path_factory) -> str:
    work = tmp_path_factory.mktemp("work")
    goldens = record(TOY_WORKLOADS, str(work), os.path.join(ROOT, "src"),
                     TOY_VARIANTS)
    path = work / "goldens.json"
    path.write_text(json.dumps(goldens))
    return str(path)


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TOY_WORKLOADS))
def test_toy_run_reports_every_metric(toy_goldens: str, name: str, trace: int):
    done = _run(ROOT, "--toy", "--goldens", toy_goldens, "--workload", name,
                "--seed", "0", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def _corrupt_one_unit(payload: dict) -> None:
    if "cells" in payload:
        run = payload["cells"][0]["run"]
    elif "units_total" in payload:
        payload["devices_done"] += 1
        return
    else:
        run = next(iter(payload.values()))
    run["live_processes"] += 1


@pytest.mark.parametrize("name", sorted(TOY_WORKLOADS))
def test_corrupted_output_counts_as_failed(toy_goldens: str, name: str, tmp_path):
    workload = TOY_WORKLOADS[name]
    with open(toy_goldens, encoding="utf-8") as fh:
        goldens = json.load(fh)[name]
    with Sandbox(str(tmp_path), os.path.join(ROOT, "src")) as box:
        cache = box.path("cache")
        setup = workload.setup_argv(0, cache)
        if setup is not None:
            assert box.run(setup, 120, "setup").returncode == 0
        out = box.path("out.json")
        assert box.run(workload.body_argv(0, out, cache), 120,
                       "body").returncode == 0
        clean = workload.check(0, out, goldens)
        assert clean.failed == 0 and clean.attempted >= 2

        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        _corrupt_one_unit(payload)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        corrupted = workload.check(0, out, goldens)
        per_unit = workload.unit_keys(0) is not None
        assert corrupted.failed == (1 if per_unit else clean.attempted)

        with open(out, "w", encoding="utf-8") as fh:
            fh.write("{")
        assert workload.check(0, out, goldens).failed == clean.attempted


def test_missing_entry_points_are_reported_not_fatal():
    probe = (
        "import sys; sys.path.insert(0, {here!r}); import tracer as t; "
        "t.ENTRY_POINTS += (('x', 'repro.core.runner', 'Gone.method'), "
        "('y', 'repro.no_such_module', 'f'), ('z', 'repro.core.runner', 'gone')); "
        "print(sorted(t.install()))"
    ).format(here=HERE)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(sorted([
        "repro.core.runner:Gone.method", "repro.no_such_module:f",
        "repro.core.runner:gone",
    ]))


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
