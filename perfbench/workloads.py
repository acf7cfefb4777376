"""The benchmark's workloads, their golden digests and their output checks.

Every workload is a ``python -m repro`` command line run in a fresh
sandbox (see ``sandbox.py``).  Each one exists to load some layers of
``src/repro`` heavily and to bypass others, so that a change to one layer
moves one workload and leaves another as the control.

Inputs come from the benchmark seed: repetition ``i`` of a run with seed
``s`` uses input variant ``(s + i) % VARIANTS``.  A variant shifts the
simulation seeds the command line passes, and every variant's outputs
were recorded at the commit that defined the benchmark (``goldens.json``,
written by ``record_goldens.py``).  Cycling through variants inside a run
keeps one variant's cost from deciding a whole run's median.

Host-noise profile (2-vCPU shared virtual machine, measured while the
benchmark was defined).  Most of the noise is host CPU speed drifting
over seconds to minutes: a fixed pure-Python loop's 2-second medians
ranged from 16.4 to 24.5 ms (IQR 14% of the median), and ``cpu_s`` moves
with ``wall_s``.  One repetition of any workload has a 13-20% IQR, so a
run reports the median of its repetitions; over 10 runs of 44 s the IQR
of those medians was mostly 4-14% of their median, and ``peak_rss_mb``
repeated within 0.4%.  Normalising by a reference Python loop run beside
each repetition did not narrow the spread (it tracks the drift too
loosely).  In episodes of a few minutes the hypervisor also stole 10% or
more of the CPU time (``/proc/stat``): sweep-extend's wall time then rose
by half while its ``cpu_s`` rose by a fifth, and its run medians spread
30%.  Subtracting the stolen share from wall time was tried and dropped:
``/proc/stat`` cannot tell which CPU's steal delayed the command, and the
result fell below ``cpu_s`` for the serial suite.  Every output digest is
identical across runs, backends and cache states.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

#: Input variants with recorded goldens; repetitions cycle through them.
VARIANTS = 8

#: The 19 Agave application benchmarks, in ``repro list`` order.
AGAVE_IDS = (
    "aard.main",
    "coolreader.epub.view",
    "countdown.main",
    "doom.main",
    "frozenbubble.main",
    "gallery.mp4.view",
    "jetboy.main",
    "music.mp3.view",
    "music.mp3.view.bkg",
    "odr.ppt.view",
    "odr.txt.view",
    "odr.xls.view",
    "osmand.map.view",
    "osmand.nav.view",
    "pm.apk.view",
    "pm.apk.view.bkg",
    "vlc.mp3.view",
    "vlc.mp3.view.bkg",
    "vlc.mp4.view",
)

#: The six SPEC CPU2006 models.
SPEC_IDS = (
    "401.bzip2",
    "429.mcf",
    "456.hmmer",
    "458.sjeng",
    "462.libquantum",
    "999.specrand",
)

ALL_IDS = AGAVE_IDS + SPEC_IDS

#: Base simulation seed of the suite and fleet workloads (the CLI default).
BASE_SEED = 1234


def unit_digest(run: dict) -> str:
    """Digest of one unit's encoded result, independent of key order."""
    text = json.dumps(run, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def file_digest(path: str) -> str:
    """sha256 of a whole output file."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass(frozen=True)
class Check:
    """The verdict on one repetition's output."""

    attempted: int
    failed: int
    reason: str = ""


class Workload:
    """One benchmark workload: command lines, expected units, checks.

    Each subclass's docstring records why the workload exists, the layers
    it loads and bypasses, and its host-noise profile.
    """

    name = ""
    #: Worker processes the timed command asks for.
    jobs = 1

    def setup_argv(self, variant: int, cache_dir: str) -> "list[str] | None":
        """The untimed preparation command, or None."""
        return None

    def body_argv(self, variant: int, out: str, cache_dir: str) -> list[str]:
        """The timed command; writes its output to *out*."""
        raise NotImplementedError

    def unit_keys(self, variant: int) -> "list[str] | None":
        """Keys of the per-unit results the output holds (None: no
        per-unit results in the output)."""
        return None

    def output_units(self, payload: object, variant: int) -> "dict[str, dict]":
        """The per-unit results in a parsed output, by unit key."""
        return {}

    def executed_units(self, variant: int, goldens: dict) -> int:
        """Units the timed command simulates (cache hits excluded)."""
        return self.expected_units(variant, goldens)

    def expected_units(self, variant: int, goldens: dict) -> int:
        keys = self.unit_keys(variant)
        if keys is not None:
            return len(keys)
        return goldens["variants"][str(variant)]["units"]

    # ------------------------------------------------------------------

    def record(self, variant: int, out: str) -> dict:
        """The golden entry for a trusted output of *variant*."""
        entry = {"file": file_digest(out)}
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        units = self.output_units(payload, variant)
        keys = self.unit_keys(variant)
        if keys is None:
            entry["units"] = payload["units_total"]
            return {"variant": entry, "units": {}}
        if sorted(units) != sorted(keys):
            raise ValueError(f"{self.name}: output units differ from plan")
        entry["units"] = len(keys)
        return {
            "variant": entry,
            "units": {key: unit_digest(units[key]) for key in keys},
        }

    def check(self, variant: int, out: str, goldens: dict) -> Check:
        """Count failed units in *out* against the recorded goldens.

        A unit fails when its result is missing or its digest differs.
        When every unit matches but the file digest does not (the output
        is wrong elsewhere, or holds no per-unit results), every unit of
        the repetition fails.
        """
        want = goldens["variants"][str(variant)]
        attempted = self.expected_units(variant, goldens)
        try:
            digest = file_digest(out)
            with open(out, encoding="utf-8") as fh:
                payload = json.load(fh)
            units = self.output_units(payload, variant)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return Check(attempted, attempted, f"unreadable output: {exc}")
        failed = 0
        for key in self.unit_keys(variant) or ():
            run = units.get(key)
            if run is None or unit_digest(run) != goldens["units"].get(key):
                failed += 1
        if failed:
            return Check(attempted, failed, f"{failed} unit digests differ")
        if digest != want["file"]:
            return Check(attempted, attempted, "output file digest differs")
        return Check(attempted, 0)


def _repro(*args: str) -> list[str]:
    return ["-m", "repro", *args]


def _benches(ids: "tuple[str, ...]") -> list[str]:
    out: list[str] = []
    for bench_id in ids:
        out += ["--bench", bench_id]
    return out


class SuiteCold(Workload):
    """``repro suite``: all 25 benchmarks, default config, serial, no cache.

    Why: the paper's workflow, and the only workload where SPEC
    calibration runs.  ``458.sjeng``'s ``minimax_reference`` self-check is
    most of it (7.1 s of 8.0 s traced when the benchmark was defined);
    without it the single-CPU round-robin window dominates.
    Loads: ``apps/spec`` calibration, the 1-CPU ``sim/engine`` window,
    ``android/boot``, ``core/results`` save.
    Bypasses: the result cache, the pool backends, ``core/stats``,
    ``faults``, ``analysis``.  Host noise: a repetition took 6.1-10.8 s,
    so a 44 s run gets only 4-6 of them; run medians spread 7-12% (IQR).
    """

    name = "suite-cold"

    def __init__(self, benches: "tuple[str, ...]" = ALL_IDS,
                 duration: "float | None" = None) -> None:
        self.benches = benches
        self.duration = duration

    def _seed(self, variant: int) -> int:
        return BASE_SEED + variant

    def body_argv(self, variant: int, out: str, cache_dir: str) -> list[str]:
        window = ["--duration", str(self.duration)] if self.duration else []
        bench = _benches(self.benches) if self.benches != ALL_IDS else []
        return _repro(*window, "--seed", str(self._seed(variant)),
                      "suite", "--out", out, *bench)

    def unit_keys(self, variant: int) -> list[str]:
        return [f"{b}@{self._seed(variant)}" for b in self.benches]

    def output_units(self, payload: object, variant: int) -> "dict[str, dict]":
        # The suite file does not hold the base seed; all its runs share
        # the variant's.
        return {f"{bid}@{self._seed(variant)}": run
                for bid, run in payload.items()}


class SweepExtend(Workload):
    """An incremental launch-window seed sweep over the 19 Agave apps.

    Setup fills a result cache with an 8-seed sweep; the timed body
    reruns it with 16 seeds on the same cache, so half of its units are
    cache reads and half are fresh runs plus cache writes.  The output is
    byte-identical to a cold 16-seed sweep.
    Why: with a 50 ms window the per-unit fixed costs dominate (app
    launch inside the window ~40%, boot ~29%, settle ~27% when the
    benchmark was defined), no SPEC calibration runs, and the cache and
    the default ``--jobs 2`` pool backend do one operation per unit.
    Loads: ``android/boot``, ``sim/engine`` settle, ``core/results`` cache
    reads and writes and encode/decode, ``core/backends`` process pool,
    ``core/sweep`` save, ``analysis`` sweep tables.
    Bypasses: ``apps/spec``, ``faults``, ``core/stats``, multi-core
    scheduling.  Host noise: body ~2.0 s and setup ~2.0 s, 9-12
    repetitions a run; run medians spread 4-14% (IQR), 30% while the
    hypervisor stole CPU time.
    """

    name = "sweep-extend"
    jobs = 2

    def __init__(self, benches: "tuple[str, ...]" = AGAVE_IDS,
                 setup_seeds: int = 8, body_seeds: int = 16,
                 duration: float = 0.05) -> None:
        self.benches = benches
        self.setup_seeds = setup_seeds
        self.body_seeds = body_seeds
        self.duration = duration

    def _seeds(self, variant: int, count: int) -> list[int]:
        # Variants overlap by half so their units share golden digests.
        first = 1 + variant * (self.body_seeds - self.setup_seeds)
        return list(range(first, first + count))

    def _argv(self, variant: int, count: int, cache_dir: str) -> list[str]:
        seeds = ",".join(str(s) for s in self._seeds(variant, count))
        return _repro("--duration", str(self.duration), "sweep",
                      "--axis", f"seed={seeds}", *_benches(self.benches),
                      "--jobs", str(self.jobs), "--cache", cache_dir)

    def setup_argv(self, variant: int, cache_dir: str) -> list[str]:
        return self._argv(variant, self.setup_seeds, cache_dir)

    def body_argv(self, variant: int, out: str, cache_dir: str) -> list[str]:
        return self._argv(variant, self.body_seeds, cache_dir) + ["--out", out]

    def unit_keys(self, variant: int) -> list[str]:
        return [f"{b}@seed={s}" for b in self.benches
                for s in self._seeds(variant, self.body_seeds)]

    def output_units(self, payload: object, variant: int) -> "dict[str, dict]":
        return {f"{cell['bench_id']}@{cell['variant']}": cell["run"]
                for cell in payload["cells"]}

    def executed_units(self, variant: int, goldens: dict) -> int:
        return len(self.benches) * (self.body_seeds - self.setup_seeds)


class FleetSmp(Workload):
    """A 64-device fleet, half on a 2+2 big.LITTLE profile, a quarter
    with the ``chaos`` fault plan, streamed through the async backend.

    Why: the 4 s window is 85-90% of each unit, and the 2+2 CFS window
    costs ~3x per op what the 1-CPU round-robin window does (33 against
    10.7 us/op when the benchmark was defined), so an engine or scheduler
    change shows here and not on ``sweep-extend``.  It is also the only
    workload that runs the fault injector and the streaming fleet path.
    Loads: ``sim/engine`` and ``kernel/sched`` (SMP + CFS), ``faults``,
    ``core/backends`` async pool, ``core/fleet`` and ``core/stats``.
    Bypasses: ``apps/spec``, the result cache, encode/decode.  Host
    noise: ~3.3-4 s a repetition, 9-11 a run; run medians spread 5-11%
    (IQR).  The sampled fleet differs per variant (29-36 of ~60 units on
    2+2), which cycling variants within a run evens out.
    """

    name = "fleet-smp"
    jobs = 2

    def __init__(self, devices: int = 64, duration: "float | None" = None) -> None:
        self.devices = devices
        self.duration = duration

    def body_argv(self, variant: int, out: str, cache_dir: str) -> list[str]:
        window = ["--duration", str(self.duration)] if self.duration else []
        return _repro(*window, "--seed", str(BASE_SEED + variant), "fleet",
                      "--devices", str(self.devices),
                      "--profile-mix", "none,2+2",
                      "--fault-mix", "none=3,chaos=1",
                      "--jobs", str(self.jobs), "--out", out)


WORKLOADS: "dict[str, Workload]" = {
    w.name: w for w in (SuiteCold(), SweepExtend(), FleetSmp())
}

#: Toy-size versions for the self-test: the same shapes at a few units.
TOY_WORKLOADS: "dict[str, Workload]" = {
    w.name: w for w in (
        SuiteCold(benches=("countdown.main", "999.specrand"), duration=0.05),
        SweepExtend(benches=("countdown.main", "doom.main"),
                    setup_seeds=1, body_seeds=2),
        FleetSmp(devices=3, duration=0.05),
    )
}

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "goldens.json")


def load_goldens(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
