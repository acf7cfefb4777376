"""Exception hierarchy for the repro package.

Every error raised by the simulated stack derives from :class:`ReproError`
so callers can catch simulator faults without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class AddressSpaceError(ReproError):
    """A virtual-memory operation failed (overlap, exhaustion, bad range)."""


class SegmentationFault(AddressSpaceError):
    """An address was dereferenced that no VMA maps."""

    def __init__(self, addr: int, space_name: str = "?") -> None:
        super().__init__(f"segfault: address {addr:#x} unmapped in {space_name}")
        self.addr = addr
        self.space_name = space_name


class TaskError(ReproError):
    """Illegal task-state transition (e.g. waking a zombie)."""


class SchedulerError(ReproError):
    """The scheduler was driven into an impossible state."""


class LoaderError(ReproError):
    """A binary or shared object could not be mapped."""


class BinderError(ReproError):
    """A Binder transaction could not be delivered."""


class ServiceError(ReproError):
    """A framework service rejected a request."""


class WorkloadError(ReproError):
    """A benchmark workload was misconfigured."""


class ConfigError(ReproError):
    """A run configuration or sweep specification is invalid."""


class AnalysisError(ReproError):
    """Post-processing of run results failed."""


class CalibrationError(ConfigError):
    """A calibration constant is out of its legal domain."""
