"""Base class for Agave application workload models.

An :class:`AgaveAppModel` describes one benchmark: its package identity,
native libraries, dex size, window, method-table shape, input files, and —
the heart of it — :meth:`run`, the generator that drives the framework API
the way the real application does (render loops, decode sessions, document
parsing, installs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.errors import WorkloadError
from repro.sim.ops import Op

if TYPE_CHECKING:
    from repro.android.app import AndroidApp
    from repro.kernel.pagecache import File
    from repro.kernel.task import Task
    from repro.sim.system import System


class AgaveAppModel:
    """One Agave benchmark workload."""

    #: Android package name (comm derives from its last 15 chars).
    package: str = "com.example.app"
    #: NDK libraries beyond the zygote-preloaded set.
    extra_libs: tuple[str, ...] = ()
    #: classes.dex size (drives dexopt and class-loading costs).
    dex_kb: int = 600
    #: Window size, or None for pure background components.
    window: tuple[int, int] | None = (800, 480)
    #: Method-table shape.
    method_count: int = 60
    avg_bytecodes: int = 320
    #: onCreate costs.
    startup_classes: int = 260
    startup_methods: int = 40
    #: Input files created before launch: (name, size_bytes) pairs.
    input_files: tuple[tuple[str, int], ...] = ()
    #: True when the workload runs as a started service (no UI).
    background: bool = False

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.files: dict[str, "File"] = {}

    # ------------------------------------------------------------------

    def setup_files(self, system: "System") -> dict[str, "File"]:
        """Create the benchmark's input files on the simulated flash."""
        for name, size in self.input_files:
            self.files[name] = system.fs.create(name, size)
        return self.files

    def file(self, name: str) -> "File":
        """Fetch an input file created by :meth:`setup_files`."""
        try:
            return self.files[name]
        except KeyError:
            raise WorkloadError(
                f"{self.package}: input file {name!r} not set up"
            ) from None

    def run(self, app: "AndroidApp", task: "Task") -> Iterator[Op]:
        """The workload body (abstract)."""
        raise NotImplementedError

    # ------------------------------------------------------------------

    @property
    def benchmark_comm(self) -> str:
        """The comm the app's process will carry after specialisation."""
        from repro.kernel.layout import truncate_comm

        return truncate_comm(self.package)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(package={self.package!r})"
