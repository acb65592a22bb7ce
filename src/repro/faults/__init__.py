"""Deterministic fault injection for the NVM device.

This package is the first-class replacement for the ad-hoc
``device.write`` monkeypatching the failure tests used to do.  A
:class:`~repro.common.config.FaultConfig` on :class:`SystemConfig`
selects, at :class:`~repro.txn.system.MemorySystem` construction time,
between the plain :class:`~repro.nvm.device.NVMDevice` (faults disabled
— bit-identical to a build without this package) and
:class:`FaultyNVMDevice`, which layers three seeded fault models over the
same byte/timing planes:

* power loss (:class:`PowerLossError`) at each cut of the plan's fault
  schedule (:class:`~repro.common.config.Cut`): after the Nth timed
  write, at a simulated instant, or — for a crash *during recovery* —
  after the Nth mutation of either plane;
* torn writes at 8-byte word granularity inside a cut's fatal write;
* transient media read errors, retried with bounded exponential
  backoff in *simulated* time by :class:`~repro.memctrl.port.MemoryPort`.

Everything is driven by ``random.Random(config.seed)`` so a fault plan
replays exactly; :mod:`repro.faults.plan` serializes plans and the
crash-sweep repro artifacts built from them.
"""

from repro.common.errors import (
    MediaError,
    PowerLossError,
    ReadRetryExhaustedError,
    TransientReadError,
)
from repro.faults.injector import (
    FaultInjector,
    FaultStats,
    FaultyNVMDevice,
    make_device,
)
from repro.faults.plan import (
    CrashArtifact,
    load_artifact,
    plan_from_dict,
    plan_to_dict,
    save_artifact,
)

__all__ = [
    "FaultInjector",
    "FaultStats",
    "FaultyNVMDevice",
    "make_device",
    "CrashArtifact",
    "plan_to_dict",
    "plan_from_dict",
    "save_artifact",
    "load_artifact",
    "PowerLossError",
    "TransientReadError",
    "MediaError",
    "ReadRetryExhaustedError",
]
