"""Run results: the serialisable output of one benchmark execution.

A :class:`RunResult` snapshots the profiler's counters plus process/thread
census data; a :class:`SuiteResult` collects one per benchmark and feeds
the analysis layer.  Both round-trip through JSON so results can be cached
("plug-and-play" artifacts, standing in for the paper's prepackaged VMs).
:class:`ResultCache` makes that caching automatic: a content-addressed
directory of completed runs keyed by (bench id, config, package version),
so regenerating figures/tables/claims never re-simulates a run it has
already seen.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import threading
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, TextIO, TypeVar

from repro.errors import AnalysisError, ConfigError, ReproError

if TYPE_CHECKING:
    from repro.core.runner import RunConfig
    from repro.sim.memprofiler import MemProfiler


_T = TypeVar("_T")


def load_json_file(path: str, what: str, decode: "Callable[[dict], _T]") -> _T:
    """Read a saved result file and decode it with *decode*.

    Every way the file can be unusable — missing or unreadable, not
    JSON, not a JSON object, a missing or mistyped field — raises a
    :class:`~repro.errors.ConfigError` naming *path* and the problem,
    so the CLI reports it as a clean error instead of a traceback.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(
            f"{path} is not a saved {what}: expected a JSON object, "
            f"got {type(raw).__name__}"
        )
    try:
        return decode(raw)
    except KeyError as exc:
        raise ConfigError(
            f"{path} is not a saved {what}: missing key {exc}"
        ) from None
    except (TypeError, ValueError, AttributeError, ReproError) as exc:
        raise ConfigError(f"{path} is not a saved {what}: {exc}") from None


def _open_private(path: str) -> "tuple[str, TextIO]":
    """Open a tmp file beside *path*, private to this writer, as
    ``(tmp path, file)``.  A *path* no file can be published at is a
    :class:`ConfigError` naming it."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    tmp = _tmp_path(path)
    try:
        return tmp, open(tmp, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


@contextlib.contextmanager
def atomic_file(path: str) -> "Iterator[TextIO]":
    """A text file that appears at *path* whole or not at all.

    The block writes ``<path>.tmp.<pid>.<tid>``, which ``os.replace``
    publishes when the block completes and which is unlinked when it
    raises, so a reader (or a later run) never sees a torn file.  A
    *path* that cannot be written fails on entry, before the block runs,
    as a :class:`ConfigError` naming it.
    """
    tmp, fh = _open_private(path)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        # The pid in the name is this live process, so nothing else
        # would ever clean the dropping up.
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def check_writable(path: str) -> None:
    """Raise the :class:`ConfigError` :func:`atomic_file` would raise for
    *path*: a command checks its ``--out`` this way before it simulates
    anything, instead of failing once every unit has run."""
    tmp, fh = _open_private(path)
    fh.close()
    os.unlink(tmp)


def dump_streamed(fh, head: str, items: "Iterable[str]", tail: str) -> None:
    """Write *head*, the JSON texts *items* joined by ``", "``, then *tail*.

    With each item a ``json.dumps`` text (the C encoder) and *head* and
    *tail* the container's framing, this writes the bytes ``json.dump``
    (the pure-Python encoder) writes for the whole container, holding one
    item's text at a time instead of the whole document.
    """
    fh.write(head)
    sep = ""
    for item in items:
        fh.write(sep)
        fh.write(item)
        sep = ", "
    fh.write(tail)


def _encode_pairs(d: dict[tuple[str, str], int]) -> dict[str, int]:
    return {f"{a}\x00{b}": v for (a, b), v in d.items()}


def _decode_pairs(d: dict[str, int]) -> dict[tuple[str, str], int]:
    out: dict[tuple[str, str], int] = {}
    for key, v in d.items():
        a, _, b = key.partition("\x00")
        out[(a, b)] = v
    return out


def _encode_cpus(d: dict[int, int]) -> dict[str, int]:
    """JSON object keys must be strings; CPU ids round-trip as decimals."""
    return {str(cpu_id): v for cpu_id, v in d.items()}


def _decode_cpus(d: dict[str, int]) -> dict[int, int]:
    return {int(cpu_id): v for cpu_id, v in d.items()}


@dataclass
class RunResult:
    """Everything measured during one benchmark's window."""

    bench_id: str
    benchmark_comm: str
    duration_ticks: int
    seed: int
    instr_by_region: dict[str, int] = field(default_factory=dict)
    data_by_region: dict[str, int] = field(default_factory=dict)
    instr_by_proc: dict[str, int] = field(default_factory=dict)
    data_by_proc: dict[str, int] = field(default_factory=dict)
    refs_by_thread: dict[tuple[str, str], int] = field(default_factory=dict)
    instr_by_proc_region: dict[tuple[str, str], int] = field(default_factory=dict)
    data_by_proc_region: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Census data from the kernel at window close.
    live_processes: int = 0
    threads_spawned_total: int = 0
    meta: dict = field(default_factory=dict)
    #: SMP axes, populated only for ``cpus > 1`` runs (single-core
    #: results keep the exact shape — and bytes — they had before the
    #: SMP dimension existed).
    cpus: int = 1
    instr_by_cpu: dict[int, int] = field(default_factory=dict)
    data_by_cpu: dict[int, int] = field(default_factory=dict)
    #: CPU id -> ticks that CPU spent retiring blocks in the window.
    busy_ticks_by_cpu: dict[int, int] = field(default_factory=dict)
    #: Ticks during which at least one CPU was busy (union of busy
    #: intervals) — the denominator of the TLP metric.
    any_busy_ticks: int = 0
    #: big.LITTLE profile the run executed under (None = symmetric).
    cpu_profile: str | None = None
    #: Fault-injection counters, populated only when the run executed
    #: under a fault plan (empty dict = fault-free, serialised away).
    fault_counters: dict = field(default_factory=dict)

    # ------------------------------------------------------------------

    @classmethod
    def from_profiler(
        cls,
        bench_id: str,
        benchmark_comm: str,
        profiler: "MemProfiler",
        duration_ticks: int,
        seed: int,
        live_processes: int,
        threads_spawned_total: int,
        meta: dict | None = None,
        cpus: int = 1,
        instr_by_cpu: dict[int, int] | None = None,
        data_by_cpu: dict[int, int] | None = None,
        busy_ticks_by_cpu: dict[int, int] | None = None,
        any_busy_ticks: int = 0,
        cpu_profile: str | None = None,
        fault_counters: dict | None = None,
    ) -> "RunResult":
        """Snapshot the profiler into a result."""
        return cls(
            bench_id=bench_id,
            benchmark_comm=benchmark_comm,
            duration_ticks=duration_ticks,
            seed=seed,
            instr_by_region=profiler.instr_by_region,
            data_by_region=profiler.data_by_region,
            instr_by_proc=profiler.instr_by_proc,
            data_by_proc=profiler.data_by_proc,
            refs_by_thread=profiler.refs_by_thread,
            instr_by_proc_region=profiler.instr_by_proc_region,
            data_by_proc_region=profiler.data_by_proc_region,
            live_processes=live_processes,
            threads_spawned_total=threads_spawned_total,
            meta=dict(meta or {}),
            cpus=cpus,
            instr_by_cpu=dict(instr_by_cpu or {}),
            data_by_cpu=dict(data_by_cpu or {}),
            busy_ticks_by_cpu=dict(busy_ticks_by_cpu or {}),
            any_busy_ticks=any_busy_ticks,
            cpu_profile=cpu_profile,
            fault_counters=dict(fault_counters or {}),
        )

    # ------------------------------------------------------------------
    # Derived metrics

    @property
    def total_instr(self) -> int:
        """Instruction reads in the window."""
        return sum(self.instr_by_region.values())

    @property
    def total_data(self) -> int:
        """Data references in the window."""
        return sum(self.data_by_region.values())

    @property
    def total_refs(self) -> int:
        """All memory references in the window."""
        return self.total_instr + self.total_data

    def code_region_count(self) -> int:
        """Distinct regions serving instruction fetches."""
        return len(self.instr_by_region)

    def data_region_count(self) -> int:
        """Distinct regions serving data references."""
        return len(self.data_by_region)

    def process_count(self) -> int:
        """Distinct process comms that issued references."""
        return len(set(self.instr_by_proc) | set(self.data_by_proc))

    def thread_count(self) -> int:
        """Distinct (process, thread) pairs that issued references."""
        return len(self.refs_by_thread)

    def benchmark_share_instr(self) -> float:
        """Fraction of instruction reads from the benchmark's own process."""
        total = self.total_instr
        return self.instr_by_proc.get(self.benchmark_comm, 0) / total if total else 0.0

    def proc_share(self, comm: str, instr: bool = True) -> float:
        """One process's share of instruction (or data) references."""
        table = self.instr_by_proc if instr else self.data_by_proc
        total = sum(table.values())
        return table.get(comm, 0) / total if total else 0.0

    def region_share(self, label: str, instr: bool = True) -> float:
        """One region's share of instruction (or data) references."""
        table = self.instr_by_region if instr else self.data_by_region
        total = sum(table.values())
        return table.get(label, 0) / total if total else 0.0

    # ------------------------------------------------------------------
    # SMP metrics (meaningful for cpus > 1; single-core runs degenerate
    # to one implicit CPU owning everything)

    def refs_by_cpu(self) -> dict[int, int]:
        """CPU id -> instruction + data references retired there.

        A single-core run (no per-CPU tables) reports everything on
        CPU 0, so per-core analysis renders uniformly across core counts.
        """
        if not self.instr_by_cpu and not self.data_by_cpu:
            return {0: self.total_refs}
        out = dict(self.instr_by_cpu)
        for cpu_id, data in self.data_by_cpu.items():
            out[cpu_id] = out.get(cpu_id, 0) + data
        return out

    def tlp(self) -> float:
        """Thread-level parallelism: average CPUs busy while any is.

        ``sum(per-CPU busy ticks) / union-of-busy-intervals`` — 1.0 for
        a perfectly serial run, approaching the core count when every
        core stays busy together.  Single-core runs report 1.0 (when
        anything ran at all).
        """
        if not self.busy_ticks_by_cpu:
            return 1.0 if self.total_refs else 0.0
        if self.any_busy_ticks <= 0:
            return 0.0
        return sum(self.busy_ticks_by_cpu.values()) / self.any_busy_ticks

    def big_cpu_ids(self) -> list[int]:
        """CPU ids of the big cores under this run's profile.

        Every CPU counts as big on a symmetric run (no profile), so
        big-share metrics degrade to 1.0 rather than 0/0.
        """
        if self.cpu_profile is None:
            return list(range(self.cpus))
        from repro.calibration import parse_cpu_profile

        return [
            cpu_id
            for cpu_id, spec in enumerate(parse_cpu_profile(self.cpu_profile))
            if spec.is_big
        ]

    def big_refs_share(self) -> float:
        """Fraction of references retired on big cores."""
        refs = self.refs_by_cpu()
        total = sum(refs.values())
        if not total:
            return 0.0
        bigs = set(self.big_cpu_ids())
        return sum(v for cpu_id, v in refs.items() if cpu_id in bigs) / total

    def effective_region_count(
        self, coverage: float = 0.99, instr: bool = True
    ) -> int:
        """Regions needed to cover *coverage* of references.

        SPEC programs have dozens of regions with a trickle of background
        references but only a handful doing real work; this is the metric
        behind the paper's "vast majority from the binary and kernel".
        """
        table = self.instr_by_region if instr else self.data_by_region
        total = sum(table.values())
        if total <= 0:
            return 0
        needed = 0
        accumulated = 0
        for count in sorted(table.values(), reverse=True):
            needed += 1
            accumulated += count
            if accumulated >= coverage * total:
                break
        return needed

    # ------------------------------------------------------------------
    # Serialisation

    def to_json_dict(self) -> dict:
        """Plain-JSON representation.

        The SMP axes are appended only for multi-core runs: a ``cpus=1``
        result serialises to exactly the bytes the pre-SMP engine
        produced, keeping historical suite files, cache entries and the
        cross-backend differential matrix stable.
        """
        out = {
            "bench_id": self.bench_id,
            "benchmark_comm": self.benchmark_comm,
            "duration_ticks": self.duration_ticks,
            "seed": self.seed,
            "instr_by_region": self.instr_by_region,
            "data_by_region": self.data_by_region,
            "instr_by_proc": self.instr_by_proc,
            "data_by_proc": self.data_by_proc,
            "refs_by_thread": _encode_pairs(self.refs_by_thread),
            "instr_by_proc_region": _encode_pairs(self.instr_by_proc_region),
            "data_by_proc_region": _encode_pairs(self.data_by_proc_region),
            "live_processes": self.live_processes,
            "threads_spawned_total": self.threads_spawned_total,
            "meta": self.meta,
        }
        if self.cpus > 1:
            out["cpus"] = self.cpus
            out["instr_by_cpu"] = _encode_cpus(self.instr_by_cpu)
            out["data_by_cpu"] = _encode_cpus(self.data_by_cpu)
            out["busy_ticks_by_cpu"] = _encode_cpus(self.busy_ticks_by_cpu)
            out["any_busy_ticks"] = self.any_busy_ticks
        if self.cpu_profile is not None:
            out["cpu_profile"] = self.cpu_profile
        if self.fault_counters:
            out["faults"] = self.fault_counters
        return out

    @classmethod
    def from_json_dict(cls, raw: dict) -> "RunResult":
        """Inverse of :meth:`to_json_dict`."""
        return cls(
            bench_id=raw["bench_id"],
            benchmark_comm=raw["benchmark_comm"],
            duration_ticks=raw["duration_ticks"],
            seed=raw["seed"],
            instr_by_region=dict(raw["instr_by_region"]),
            data_by_region=dict(raw["data_by_region"]),
            instr_by_proc=dict(raw["instr_by_proc"]),
            data_by_proc=dict(raw["data_by_proc"]),
            refs_by_thread=_decode_pairs(raw["refs_by_thread"]),
            instr_by_proc_region=_decode_pairs(raw["instr_by_proc_region"]),
            data_by_proc_region=_decode_pairs(raw["data_by_proc_region"]),
            live_processes=raw["live_processes"],
            threads_spawned_total=raw["threads_spawned_total"],
            meta=dict(raw.get("meta", {})),
            cpus=raw.get("cpus", 1),
            instr_by_cpu=_decode_cpus(raw.get("instr_by_cpu", {})),
            data_by_cpu=_decode_cpus(raw.get("data_by_cpu", {})),
            busy_ticks_by_cpu=_decode_cpus(raw.get("busy_ticks_by_cpu", {})),
            any_busy_ticks=raw.get("any_busy_ticks", 0),
            cpu_profile=raw.get("cpu_profile"),
            fault_counters=dict(raw.get("faults", {})),
        )


#: A named metric over one run, e.g. ``lambda run: float(run.total_refs)``.
MetricFn = Callable[[RunResult], float]

#: Every named run metric: a sweep's delta tables pivot on any of them
#: (``repro sweep --metric``), and a fleet aggregates the ones it names.
RUN_METRICS: "dict[str, MetricFn]" = {
    "total_refs": lambda run: float(run.total_refs),
    "total_instr": lambda run: float(run.total_instr),
    "total_data": lambda run: float(run.total_data),
    "threads": lambda run: float(run.thread_count()),
    "processes": lambda run: float(run.process_count()),
    "code_regions": lambda run: float(run.code_region_count()),
    # SMP axes: concurrency and the busy-interval union (ticks with at
    # least one CPU retiring); pair either with a cpus=... sweep axis.
    # Both degenerate gracefully on single-core runs.
    "tlp": lambda run: run.tlp(),
    "any_busy_ticks": lambda run: float(run.any_busy_ticks),
    # big.LITTLE axis: percent of references retired on big cores
    # (100 on a symmetric machine); pair with a cpu_profile=... axis.
    "big_refs_share": lambda run: 100.0 * run.big_refs_share(),
    # App metrics from the run's meta; they read 0 for SPEC workloads.
    "frames_drawn": lambda run: float(run.meta.get("frames_drawn", 0)),
    "gc_cycles": lambda run: float(run.meta.get("gc_cycles", 0)),
    # Fault axes: composited frames in the window (the fault-amplification
    # observable) and total fault events fired; pair with faults=... .
    "sf_frames": lambda run: float(run.meta.get("sf_frames", 0)),
    "faults_total": lambda run: float(sum(run.fault_counters.values())),
}


@dataclass
class SuiteResult:
    """Results for a set of benchmarks, keyed by bench id."""

    runs: dict[str, RunResult] = field(default_factory=dict)

    def add(self, result: RunResult) -> None:
        """Insert one run."""
        self.runs[result.bench_id] = result

    def get(self, bench_id: str) -> RunResult:
        """Fetch one run or raise."""
        try:
            return self.runs[bench_id]
        except KeyError:
            raise AnalysisError(f"no result for benchmark {bench_id!r}") from None

    def ids(self) -> list[str]:
        """Bench ids present, insertion-ordered."""
        return list(self.runs)

    def subset(self, ids: Iterable[str]) -> "SuiteResult":
        """A SuiteResult restricted to *ids* (missing ids are errors)."""
        out = SuiteResult()
        for bench_id in ids:
            out.add(self.get(bench_id))
        return out

    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Write all runs to a JSON file, a ``{bench_id: run}`` object,
        encoding one run at a time; the file appears whole or not at
        all (:func:`atomic_file`)."""
        with atomic_file(path) as fh:
            dump_streamed(fh, "{", (
                f"{json.dumps(bid)}: {json.dumps(run.to_json_dict())}"
                for bid, run in self.runs.items()
            ), "}")

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SuiteResult":
        """Inverse of the JSON :meth:`save` writes."""
        out = cls()
        for raw in payload.values():
            out.add(RunResult.from_json_dict(raw))
        return out

    @classmethod
    def load(cls, path: str) -> "SuiteResult":
        """Read runs back from :meth:`save` output."""
        return load_json_file(path, "suite result", cls.from_json_dict)


@dataclass(frozen=True)
class GcReport:
    """What one :meth:`ResultCache.gc` pass evicted and kept."""

    #: Entries removed, and the bytes they occupied.
    removed_entries: int
    removed_bytes: int
    #: Entries surviving the pass, and the bytes they occupy.
    kept_entries: int
    kept_bytes: int


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of one cache directory's size."""

    #: Stored run entries on disk.
    entries: int
    #: Total bytes those entries occupy.
    total_bytes: int


class ResultCache:
    """Content-addressed store of completed runs.

    The key is a stable hash of (bench id, the config's JSON form, the
    package version): any knob that can change a run's output — window,
    settle, seed, JIT flag, calibration override — changes the key, and
    bumping ``repro.__version__`` invalidates everything at once, since
    a model change can shift results without any config change.

    The entry files are the cache's only state.  A hit refreshes its
    entry's mtime, so an entry's mtime is its last write or hit, the
    order :meth:`gc` evicts by.  The ``hits`` and ``misses`` attributes
    count this instance's lookups only.

    Several processes, and several threads of one process, may share
    one directory: each writer writes its own ``*.tmp.<pid>.<tid>``
    file and publishes it with an atomic rename, so a reader sees a
    whole entry or none.  Opening a cache sweeps up stale tmp droppings
    left by writers that were killed mid-:meth:`put` (a tmp file is
    kept only while its writer pid is still alive).  Corrupt entries
    are deleted the moment a read trips over them, so one bad file can
    never turn every future lookup of that key into a silent
    re-simulation.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.sweep_stale_tmp()

    # ------------------------------------------------------------------

    @staticmethod
    def key(bench_id: str, cfg: "RunConfig") -> str:
        """The content hash addressing one run."""
        import hashlib  # here, so a run that never keys a cache skips OpenSSL

        from repro import __version__

        payload = json.dumps(
            {"bench": bench_id, "config": cfg.to_json_dict(), "version": __version__},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _path(self, bench_id: str, cfg: "RunConfig") -> str:
        return os.path.join(self.root, self.key(bench_id, cfg) + ".json")

    # ------------------------------------------------------------------

    def has(self, bench_id: str, cfg: "RunConfig") -> bool:
        """Whether an entry is stored for this key, without reading it (a
        key with none counts as a miss; :meth:`get` counts the others)."""
        if os.path.exists(self._path(bench_id, cfg)):
            return True
        self.misses += 1
        return False

    def get(self, bench_id: str, cfg: "RunConfig") -> RunResult | None:
        """The stored run for this key, or ``None`` on a miss.

        A hit refreshes the entry's mtime, marking it recently used for
        :meth:`gc`; where that fails (a read-only directory) the hit is
        served all the same.  A corrupt entry (truncated write, bad
        UTF-8 or JSON, missing fields) is deleted — not left in place to
        shadow the key forever — and counted as a miss, so the
        subsequent :meth:`put` heals the cache.
        """
        path = self._path(bench_id, cfg)
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except ValueError:  # JSONDecodeError or UnicodeDecodeError
            self._discard_corrupt(path, "not valid UTF-8 JSON")
            self.misses += 1
            return None
        try:
            result = RunResult.from_json_dict(raw)
        except (KeyError, TypeError, ValueError, AttributeError):
            self._discard_corrupt(path, "not a RunResult payload")
            self.misses += 1
            return None
        self.hits += 1
        with contextlib.suppress(OSError):
            os.utime(path)
        return result

    def put(self, bench_id: str, cfg: "RunConfig", result: RunResult) -> None:
        """Store one completed run (atomically, for concurrent writers)."""
        # json.dumps (the C encoder) writes the bytes json.dump(x, fh)
        # (the pure-Python one) would, about twice as fast.  It builds the
        # whole text first: cheap for one result; the savers of whole
        # suites and sweeps stream it one run at a time.
        with atomic_file(self._path(bench_id, cfg)) as fh:
            fh.write(json.dumps(result.to_json_dict()))

    def __len__(self) -> int:
        return len(self._entry_names())

    # ------------------------------------------------------------------
    # Hygiene + stats

    def _entry_names(self) -> list[str]:
        """Stored run entries (hex-keyed ``.json`` files only).

        The strict name match matters: :meth:`gc` destructively unlinks
        these, so a foreign ``*.json`` a user parked in the directory
        (``suite --out cache/suite.json``) must never be counted as an
        entry, let alone evicted.
        """
        return [
            name
            for name in os.listdir(self.root)
            if _ENTRY_NAME.fullmatch(name)
        ]

    @staticmethod
    def _discard_corrupt(path: str, why: str) -> None:
        """Unlink one corrupt entry, racing safely with other readers.

        Two readers tripping over the same corrupt entry both race to
        unlink it; whoever loses sees ``FileNotFoundError`` and stays
        silent (the winner already warned) — each reader still counts
        its own miss, and neither ever raises.
        """
        try:
            os.unlink(path)
        except FileNotFoundError:
            return
        except OSError:
            pass
        warnings.warn(
            f"discarded corrupt cache entry {path} ({why})",
            RuntimeWarning,
            stacklevel=4,
        )

    def sweep_stale_tmp(self) -> int:
        """Delete this cache's ``*.json.tmp.<pid>[.<tid>]`` files whose
        writer is gone.

        A writer killed between the tmp write and the atomic rename
        leaves its tmp file behind forever; a tmp file whose pid is
        still a live process belongs to an in-flight :meth:`put` and is
        left alone.  Only files matching the cache's own tmp naming (a
        hex entry key, ``.json.tmp.`` then the pid and an optional
        thread id) are candidates — anything else in the directory is
        not ours to delete.  Returns the number of files removed.
        """
        removed = 0
        for name in os.listdir(self.root):
            match = _TMP_NAME.fullmatch(name)
            if match is None or _pid_alive(int(match.group(1))):
                continue
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(self.root, name))
                removed += 1
        return removed

    def gc(self, max_bytes: int) -> GcReport:
        """Evict run entries, least recently used first, until the rest
        fit in *max_bytes*.

        Eviction runs in ``(mtime, name)`` order: an entry's mtime is
        its last write or hit, and the name breaks ties, so repeated
        passes evict deterministically.  Only run entries (hex-keyed
        ``.json`` files) are candidates: in-flight tmp files and foreign
        files parked in the directory are never touched.  An entry
        whose unlink fails is reported as kept.
        """
        entries: list[tuple[float, str, int]] = []
        for name in self._entry_names():
            try:
                info = os.stat(os.path.join(self.root, name))
            except OSError:
                continue
            entries.append((info.st_mtime, name, info.st_size))
        entries.sort()

        excess = sum(size for *_, size in entries) - max_bytes
        removed_entries = removed_bytes = 0
        survivors: list[tuple[float, str, int]] = []
        for entry in entries:
            _, name, size = entry
            if excess <= 0:
                survivors.append(entry)
                continue
            excess -= size
            try:
                os.unlink(os.path.join(self.root, name))
            except OSError:
                # Still on disk (permissions, concurrent replace): report
                # it as kept, so the caller sees the true directory state.
                survivors.append(entry)
                continue
            removed_entries += 1
            removed_bytes += size
        return GcReport(
            removed_entries=removed_entries,
            removed_bytes=removed_bytes,
            kept_entries=len(survivors),
            kept_bytes=sum(size for *_, size in survivors),
        )

    def stats(self) -> CacheStats:
        """The entries on disk and the bytes they occupy."""
        total_bytes = 0
        entries = self._entry_names()
        for name in entries:
            with contextlib.suppress(OSError):
                total_bytes += os.path.getsize(os.path.join(self.root, name))
        return CacheStats(entries=len(entries), total_bytes=total_bytes)


#: A stored run entry this cache owns: a 64-hex-digit key plus ``.json``.
_ENTRY_NAME = re.compile(r"[0-9a-f]{64}\.json")

#: In-flight write droppings this cache may own: a hex entry key, then
#: ``.json.tmp.<pid>.<tid>`` (or ``.json.tmp.<pid>``, the form older
#: writers used).
_TMP_NAME = re.compile(r"[0-9a-f]{64}\.json\.tmp\.(\d+)(?:\.\d+)?")


def _tmp_path(path: str) -> str:
    """A tmp name private to one writer: the pid alone would let two
    threads of one process putting the same key clobber one file."""
    return f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"


def _pid_alive(pid: int) -> bool:
    """Whether *pid* names a live process (EPERM counts as alive)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True
