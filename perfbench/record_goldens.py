"""Record the golden output digests of every workload variant.

Run from the root of a checkout at the commit whose outputs are trusted::

    python3 perfbench/record_goldens.py

It runs each variant of each workload exactly as a benchmark repetition
does (sandbox, setup, timed command) and writes the sha256 of each output
file and the digest of each per-unit result to ``goldens.json``.  The
sweep variants overlap, so a unit recorded twice must agree with itself.
"""

from __future__ import annotations

import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from sandbox import Sandbox  # noqa: E402
from workloads import GOLDENS_PATH, VARIANTS, WORKLOADS, Workload  # noqa: E402

TIMEOUT_S = 900.0


def record(workloads: "dict[str, Workload]", work: str, src: str,
           variants: "range" = range(VARIANTS)) -> dict:
    """Goldens of *variants* of every workload, run from *src*."""
    goldens = {}
    for workload in workloads.values():
        entry: dict = {"variants": {}, "units": {}}
        for variant in variants:
            with Sandbox(work, src) as box:
                cache = box.path("cache")
                setup = workload.setup_argv(variant, cache)
                if setup is not None:
                    _require(box.run(setup, TIMEOUT_S, "setup"), workload, variant)
                out = box.path("out.json")
                _require(box.run(workload.body_argv(variant, out, cache),
                                 TIMEOUT_S, "body"), workload, variant)
                recorded = workload.record(variant, out)
            entry["variants"][str(variant)] = recorded["variant"]
            for key, digest in recorded["units"].items():
                if entry["units"].setdefault(key, digest) != digest:
                    raise RuntimeError(f"{workload.name}: unit {key} differs "
                                       f"between variants")
            print(f"{workload.name} variant {variant}: "
                  f"{recorded['variant']['file'][:16]}", file=sys.stderr)
        goldens[workload.name] = entry
    return goldens


def _require(outcome, workload: Workload, variant: int) -> None:
    if outcome.returncode != 0:
        raise RuntimeError(f"{workload.name} variant {variant} exited "
                           f"{outcome.returncode}: {outcome.stderr[-2000:]}")


def main() -> int:
    root = os.getcwd()
    goldens = record(WORKLOADS, os.path.join(root, ".perfbench-work"),
                     os.path.join(root, "src"))
    with open(GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
