"""Top-level simulated system: clock + CPU + profiler + kernel + devices.

A :class:`System` is one simulated phone (or, for SPEC, the same phone
running a console workload).  Construction is cheap; the Android stack is
layered on by :func:`repro.android.boot.boot_android`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.calibration import Calibration, CpuSpec, parse_cpu_profile
from repro.kernel.kthreads import spawn_standard_kthreads
from repro.kernel.pagecache import Filesystem
from repro.kernel.proc import Kernel
from repro.sim.cpu import AtomicCPU
from repro.sim.devices import DeviceSet
from repro.sim.engine import Engine
from repro.sim.memprofiler import MemProfiler
from repro.sim.ticks import Clock

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector


class System:
    """One simulated machine (``cpus`` cores sharing one memory system).

    *cpu_profile* selects a big.LITTLE-style asymmetric machine (e.g.
    ``"2+2"``: two full-speed big cores then two half-speed LITTLE
    cores) and switches the kernel onto the CFS vruntime scheduler.
    ``None`` — the default — is the symmetric reproducibility path:
    uniform cores under the round-robin policy, byte-identical to the
    pre-profile engine.

    *calibration* is the run's per-unit cost model; ``None`` means the
    fitted default.  Every cost site reads it from this system (directly,
    through a process's Dalvik context, or as an argument from a caller
    holding either), so concurrent simulations in one process never see
    each other's calibration.
    """

    def __init__(
        self,
        seed: int = 1234,
        devices: DeviceSet | None = None,
        cpus: int = 1,
        cpu_profile: str | None = None,
        calibration: Calibration | None = None,
    ) -> None:
        if cpus < 1:
            raise ValueError(f"system needs cpus >= 1, got {cpus}")
        self.seed = seed
        self.calibration = calibration if calibration is not None else Calibration()
        self.clock = Clock()
        self.profiler = MemProfiler()
        self.cpu_profile = cpu_profile
        #: Per-CPU speed/capacity specs, or None on the symmetric default.
        self.cpu_specs: tuple[CpuSpec, ...] | None = None
        if cpu_profile is not None:
            specs = parse_cpu_profile(cpu_profile)
            if len(specs) != cpus:
                raise ValueError(
                    f"cpu profile {cpu_profile!r} describes {len(specs)} "
                    f"cores but cpus={cpus}"
                )
            self.cpu_specs = specs
            self.cpus = [
                AtomicCPU(self.clock, self.profiler, cpu_id=i, spec=spec)
                for i, spec in enumerate(specs)
            ]
        else:
            self.cpus = [
                AtomicCPU(self.clock, self.profiler, cpu_id=i)
                for i in range(cpus)
            ]
        #: The boot CPU — also *the* CPU on a single-core machine.
        self.cpu = self.cpus[0]
        self.devices = devices if devices is not None else DeviceSet()
        self.kernel = Kernel(self)
        self.engine = Engine(self)
        self.fs = Filesystem(self.kernel, self.devices.storage)
        #: The armed fault injector, if any.  Set by
        #: :meth:`~repro.faults.injector.FaultInjector.arm` and cleared
        #: by ``disarm``; the engine and binder threads consult it here,
        #: so concurrent simulations in one process never see each
        #: other's faults.
        self.faults: FaultInjector | None = None
        self._booted = False

    def big_cpu(self, index: int = 0) -> int | None:
        """The *index*-th big core's CPU id on an asymmetric machine.

        ``None`` on the symmetric default and on degenerate profiles
        (all-big or all-LITTLE), where there is no meaningful big/LITTLE
        split to pin service threads against — so callers can pass the
        result straight to ``spawn_thread(affinity=...)`` without
        changing default-path placement.
        """
        if self.cpu_specs is None:
            return None
        bigs = [i for i, spec in enumerate(self.cpu_specs) if spec.is_big]
        if not bigs or len(bigs) == len(self.cpu_specs):
            return None
        return bigs[index % len(bigs)]

    def boot_kernel(self) -> None:
        """Bring up the idle task and the standard kernel threads."""
        if self._booted:
            return
        spawn_standard_kthreads(self.kernel, self.devices.storage)
        self._booted = True

    @property
    def now(self) -> int:
        """Current simulated time in ticks."""
        return self.clock.now

    def run_for(self, duration: int) -> None:
        """Advance the simulation by *duration* ticks."""
        self.engine.run_for(duration)

    def run_until(self, deadline: int) -> None:
        """Advance the simulation to the absolute tick *deadline*."""
        self.engine.run_until(deadline)

    def __repr__(self) -> str:
        return (
            f"System(now={self.clock.now}, procs={self.kernel.process_count()}, "
            f"refs={self.profiler.total_refs})"
        )
