"""Every crash case's verdict and recovery report, pinned by digest.

For every sweep scheme, an exhaustive forked sweep (``python -m
repro.crashtest --schemes all --sample 0 --transactions 60 --seed 11``)
records every case's ``CaseResult`` and
the ``RecoveryReport`` / ``RecoveryOutcome`` its ``MemorySystem.recover``
returned, ``elapsed_ns`` included (it is computed from counted bytes,
not timed).  ``tests/data/recovery_golden.json`` holds the SHA-256 of
each scheme's records.  Recovery work that a case reuses from an
earlier one must land on exactly these reports.

Print a fresh record with ``PYTHONPATH=src python
tests/test_recovery_digest.py``; re-record only in a change that means
to alter what recovery reports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from unittest import mock

import pytest

from repro import crashtest
from repro.txn.system import MemorySystem

GOLDEN = Path(__file__).parent / "data" / "recovery_golden.json"
SWEEP = {"seed": 11, "transactions": 60, "sample": 0}
SCHEMES = sorted(crashtest.SWEEP_SCHEMES.values())


def recovery_records(scheme: str) -> list:
    """``[case, report fields, elapsed_ns]`` for every case of the sweep."""
    reports = []
    real_recover = MemorySystem.recover

    def recover(self, **kwargs):
        report = real_recover(self, **kwargs)
        reports.append(report)
        return report

    with mock.patch.object(MemorySystem, "recover", recover):
        sweep = crashtest.sweep_scheme(scheme, **SWEEP)
    assert len(reports) == len(sweep.cases)
    return [
        [dataclasses.astuple(case), dataclasses.asdict(report),
         report.elapsed_ns]
        for case, report in zip(sweep.cases, reports)
    ]


def digest(records: list) -> str:
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


_GOLDEN = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


@pytest.mark.parametrize("scheme", sorted(_GOLDEN.get("schemes", {})))
def test_recovery_reports_match_golden(scheme):
    want = _GOLDEN["schemes"][scheme]
    records = recovery_records(scheme)
    assert not [r for r in records if r[0][2]], "a case failed its verdict"
    assert len(records) == want["cases"]
    assert digest(records) == want["sha256"]


def test_golden_covers_the_recovery_schemes():
    assert sorted(_GOLDEN["schemes"]) == SCHEMES


if __name__ == "__main__":
    schemes = {}
    for name in SCHEMES:
        records = recovery_records(name)
        schemes[name] = {"cases": len(records), "sha256": digest(records)}
    print(json.dumps({"sweep": SWEEP, "schemes": schemes}, indent=2))
