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
from typing import Optional, Tuple

from repro.common.config import OPS, WRITES, Cut, FaultConfig, FaultSchedule
from repro.common.units import MB

# Version 4 keeps every cut of a case in its plan's ``schedule``;
# versions 1-3 named them by plan and artifact fields (version 2 a gc
# cut by a note) and convert on load.
ARTIFACT_VERSION = 4

# The sweep phase that produced a case: the forward sweep, or one of the
# nested sweep's three.
PHASES = ("forward", "recovery", "gc", "gc-media")


def phase_schedule(
    phase: str,
    boundary: Optional[int] = None,
    torn: bool = False,
    after_ops: Optional[int] = None,
    ops_torn: bool = False,
) -> FaultSchedule:
    """A crash case's cuts, from the numbers its sweep prints.

    ``boundary`` is its timed-write cut, ``after_ops`` its recovery-op
    cut (``None``: none).  A gc ``boundary`` names the GC pass's fatal
    write, one past the writes its cut lets land, where any other
    phase's counts them: the one conversion between the two meanings.
    """
    cuts = []
    if boundary is not None:
        cuts.append(Cut(WRITES, boundary - (phase == "gc"), torn))
    if after_ops is not None:
        cuts.append(Cut(OPS, after_ops, ops_torn))
    return tuple(cuts)


def phase_coordinates(
    phase: str, schedule: FaultSchedule
) -> Tuple[Optional[int], Optional[int], bool, bool]:
    """``(boundary, after_ops, torn, ops_torn)``: inverts phase_schedule."""
    by_trigger = {cut.trigger: cut for cut in schedule}
    writes, ops = by_trigger.get(WRITES), by_trigger.get(OPS)
    return (
        writes and writes.at + (phase == "gc"),
        ops and ops.at,
        bool(writes and writes.torn),
        bool(ops and ops.torn),
    )


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
    kwargs["schedule"] = tuple(
        Cut(**{**cut, "target": cut.get("target") and tuple(cut["target"])})
        for cut in kwargs.get("schedule", ())
    )
    return FaultConfig(**kwargs)


def _convert_v3(payload: dict) -> None:
    """Rewrite a version 1-3 artifact payload's cut fields in place."""
    plan = payload["faults"] = dict(payload["faults"])
    boundary = plan.pop("power_loss_after_write", None)
    for note in payload.get("notes", []):  # a version-2 gc boundary
        if note.startswith("gc write boundary "):
            boundary = int(note.rsplit(" ", 1)[1])
    cuts = phase_schedule(
        payload.get("phase", "forward"),
        boundary,
        plan.pop("torn", False),
        payload.pop("nested_after_ops", None),
        payload.pop("nested_torn", False),
    )
    plan["schedule"] = [dataclasses.asdict(cut) for cut in cuts]


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
    # Which sweep phase produced the case ("forward", "recovery", "gc",
    # or "gc-media") — the start point ``faults.schedule`` cuts from —
    # and how many extra crash+recover cycles the idempotence oracle
    # ran.  A gc case's first cut counts the GC pass's writes from the
    # completed workload.
    phase: str = "forward"
    idempotence_k: int = 0
    version: int = ARTIFACT_VERSION

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["faults"] = plan_to_dict(self.faults)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "CrashArtifact":
        payload = dict(payload)
        payload.setdefault("version", ARTIFACT_VERSION)
        if payload["version"] > ARTIFACT_VERSION:
            raise ValueError(
                f"artifact version {payload['version']} is newer than "
                f"supported {ARTIFACT_VERSION}"
            )
        if payload.get("phase", "forward") not in PHASES:
            raise ValueError(f"unknown artifact phase {payload['phase']!r}")
        if payload["version"] < 4:
            _convert_v3(payload)
        payload["faults"] = plan_from_dict(payload["faults"])
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
