"""Fault-plan and crash-artifact (de)serialization.

A *fault plan* is just a :class:`~repro.common.config.FaultConfig` — a
pure value object — rendered to/from a JSON-safe dict.  A *crash
artifact* bundles a plan with everything else needed to replay one
crash-sweep case exactly: the scheme, the generated workload's
parameters, the recovery thread count, and the observed outcome.  The
sweep harness writes an artifact for every failing case; ``python -m
repro.crashtest --replay <artifact.json>`` re-runs it bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass
from typing import Optional

from repro.common.config import FaultConfig
from repro.common.units import MB

# Version 2 added the nested-fault fields (phase / nested_after_ops /
# nested_torn / idempotence_k); version-1 artifacts still load, with the
# nested stage absent (a plain forward-crash case).  Version 3 moved a
# gc case's boundary from a free-text note into its plan's
# ``power_loss_after_write``; a version-2 gc artifact is converted on
# load.
ARTIFACT_VERSION = 3

# The sweep phase that produced a case: the forward sweep, or one of the
# nested sweep's three.
PHASES = ("forward", "recovery", "gc", "gc-media")


def plan_to_dict(plan: FaultConfig) -> dict:
    """JSON-safe dict of a fault plan."""
    return dataclasses.asdict(plan)


# Bad-block remap fields that plans written before the remap model was
# retired still carry, each with the only value a loadable plan may have:
# the old default, under which the model never ran.
_RETIRED_FIELDS = {
    "stuck_blocks": [],
    "spare_blocks": 4,
    "fault_block_bytes": 2 * MB,
    "remap_penalty_ns": 10_000.0,
}


def plan_from_dict(payload: dict) -> FaultConfig:
    """Rebuild a :class:`FaultConfig` from :func:`plan_to_dict` output."""
    kwargs = dict(payload)
    for name, default in _RETIRED_FIELDS.items():
        if kwargs.pop(name, default) != default:
            raise ValueError(
                f"fault-plan field {name!r} is retired (bad-block remap is"
                f" no longer modelled); only its old default {default!r}"
                " loads"
            )
    known = {f.name for f in dataclasses.fields(FaultConfig)}
    unknown = set(kwargs) - known
    if unknown:
        raise ValueError(f"unknown fault-plan fields: {sorted(unknown)}")
    return FaultConfig(**kwargs)


@dataclass
class CrashArtifact:
    """A minimal, exactly-replayable crash-sweep case."""

    scheme: str
    faults: FaultConfig
    workload_seed: int = 7
    transactions: int = 80
    addresses: int = 12
    recovery_threads: int = 2
    # What the original run observed: None = passed, else the failure
    # message.  Replay checks it reproduces the same outcome.
    failure: Optional[str] = None
    fingerprint: str = ""
    # Nested-fault stage: which sweep phase produced the case
    # ("forward", "recovery", "gc", or "gc-media"), the recovery-op
    # boundary of the second cut (None = no nested fault), whether that
    # cut was torn, and how many extra crash+recover cycles the
    # idempotence oracle ran.  ``faults`` is the plan armed at the
    # phase's start point: a gc case's ``power_loss_after_write`` counts
    # the GC pass's writes from the completed workload.
    phase: str = "forward"
    nested_after_ops: Optional[int] = None
    nested_torn: bool = False
    idempotence_k: int = 0
    version: int = ARTIFACT_VERSION

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["faults"] = plan_to_dict(self.faults)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CrashArtifact":
        payload = dict(payload)
        version = payload.get("version", ARTIFACT_VERSION)
        if version > ARTIFACT_VERSION:
            raise ValueError(
                f"artifact version {version} is newer than supported "
                f"{ARTIFACT_VERSION}"
            )
        if payload.get("phase", "forward") not in PHASES:
            raise ValueError(f"unknown artifact phase {payload['phase']!r}")
        payload["faults"] = plan_from_dict(payload["faults"])
        if version < 3 and payload.get("phase") == "gc":
            # Version 2 kept the gc boundary in a note only.
            for note in payload.get("notes", []):
                if note.startswith("gc write boundary "):
                    payload["faults"] = dataclasses.replace(
                        payload["faults"],
                        power_loss_after_write=int(note.rsplit(" ", 1)[1]),
                    )
        payload["version"] = ARTIFACT_VERSION
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


def save_artifact(artifact: CrashArtifact, path) -> pathlib.Path:
    """Write one artifact as pretty JSON; returns the path written."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(artifact.to_dict(), indent=1, sort_keys=True) + "\n"
    )
    return path


def load_artifact(path) -> CrashArtifact:
    return CrashArtifact.from_dict(json.loads(pathlib.Path(path).read_text()))
