"""Fault injection: deterministic, cache-keyed fault plans.

See :mod:`repro.faults.plan` for the plan vocabulary and the
``FAULT_PLANS`` registry, and :mod:`repro.faults.injector` for
execution: an armed injector hangs off its
:class:`~repro.sim.system.System` as ``system.faults``, where the engine
and binder threads consult it.
"""

from repro.faults.injector import (
    COUNTER_KEYS,
    DROP_SAFE_CODES,
    FaultInjector,
    channel_rng,
)
from repro.faults.plan import (
    FAULT_PLANS,
    FaultPlan,
    ThreadKill,
    ThrottleWindow,
    fault_plan,
    plan_names,
)

__all__ = [
    "COUNTER_KEYS",
    "DROP_SAFE_CODES",
    "FAULT_PLANS",
    "FaultInjector",
    "FaultPlan",
    "ThreadKill",
    "ThrottleWindow",
    "channel_rng",
    "fault_plan",
    "plan_names",
]
