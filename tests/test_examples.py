"""The example scripts run end-to-end (small arguments)."""

import pathlib
import re
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_quickstart():
    result = run_example("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "atomic durability held" in result.stdout


def test_kvstore_ycsb():
    result = run_example(
        "kvstore_ycsb.py", "--transactions", "120", "--records", "256"
    )
    assert result.returncode == 0, result.stderr
    assert "hoop" in result.stdout
    assert "HOOP vs Opt-Redo" in result.stdout


def test_crash_recovery_demo():
    result = run_example("crash_recovery_demo.py", "--rounds", "2")
    assert result.returncode == 0, result.stderr
    assert "all committed data survived" in result.stdout


def test_gc_coalescing():
    result = run_example("gc_coalescing.py", "--window", "10", "200")
    assert result.returncode == 0, result.stderr
    assert "reduction" in result.stdout
    assert "wear" in result.stdout


def test_trace_replay():
    result = run_example("trace_replay.py", "--transactions", "60")
    assert result.returncode == 0, result.stderr
    match = re.search(r"recorded 60 transactions: (\d+) stores", result.stdout)
    assert match and int(match.group(1)) > 0, result.stdout
    assert "byte-identical event stream" in result.stdout
    assert "hoop" in result.stdout
