"""A snapshot fork shares nothing mutable with the machine it came from.

The engine shares an object between a source and its clone only when
the object's class says that is safe (``repro.snapshot``): an immutable
value, a ``__shared__`` memo, or an ``__atom__`` record.  The crash
sweep now forks its live machine *inside* a timed write, so the check
runs for every registry scheme both between transactions and at a
mid-write fork point (the device's fork hook).  An object reachable
from both graphs must be one of:

* a base atom (numbers, strings, bytes, functions, classes, enums);
* an instance of a ``__shared__`` class (its contents are not walked);
* a tuple, or an ``__atom__`` instance that is frozen (a frozen
  dataclass or a tuple) — walked, so a mutable field still shows;
* an NVM page both sides registered as shared copy-on-write.

``unregistered_classes()`` must stay empty along the way.
``tests/test_crash_image.py`` runs the same check on crash images.
"""

from __future__ import annotations

import dataclasses
import enum
import random
import types
from collections import deque

import pytest

from repro import FaultConfig, snapshot
from repro.check.oracle import build_system
from repro.check.sanitizer import PersistOrderSanitizer
from repro.trace import generate_trace
from repro.nvm.device import NVMDevice
from repro.schemes import ALL_SCHEME_NAMES

# Atoms the engine never walks into: immutable, identity-irrelevant.
_BASE_ATOMS = (
    int, float, bool, str, bytes, complex, type(None), type, frozenset,
    types.FunctionType, types.BuiltinFunctionType,
)
_MISSING = object()


def _spec(cls):
    return getattr(cls, "__snapshot_state__", None)


def _reachable(root) -> dict:
    """``id -> object`` for every non-atom object the engine could reach."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        cls = obj.__class__
        if isinstance(obj, _BASE_ATOMS) or isinstance(obj, enum.Enum):
            continue
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if _spec(cls) == "__shared__":
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, deque)):
            stack.extend(obj)
        elif isinstance(obj, types.MethodType):
            stack.append(obj.__self__)
        elif isinstance(obj, (bytearray, random.Random)):
            continue
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for name in snapshot._collect_slots(cls):
                value = getattr(obj, name, _MISSING)
                if value is not _MISSING:
                    stack.append(value)
    return seen


def _frozen(cls) -> bool:
    if issubclass(cls, tuple):
        return True
    return dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen


def _cow_registered(graph: dict) -> set:
    """Ids of the pages an NVM device in ``graph`` shares copy-on-write."""
    return {
        id(page)
        for obj in graph.values()
        if isinstance(obj, NVMDevice)
        for base, page in obj._pages.items()
        if base in obj._cow_shared
    }


def shared_between(root, other) -> list:
    """What both graphs reach that may change (class names)."""
    source, forked = _reachable(root), _reachable(other)
    allowed = _cow_registered(source) & _cow_registered(forked)
    bad = []
    for key in source.keys() & forked.keys():
        obj = source[key]
        cls = obj.__class__
        if key in allowed or _spec(cls) == "__shared__":
            continue
        if isinstance(obj, tuple) or (_spec(cls) == "__atom__" and _frozen(cls)):
            continue
        bad.append(cls.__qualname__)
    return sorted(set(bad))


def shared_mutables(root) -> list:
    """Clone ``root`` and list what both graphs reach that may change."""
    return shared_between(root, snapshot.clone_state(root))


def _machine(scheme, checker=True):
    faults = FaultConfig(enabled=True, seed=3)
    system = build_system(
        scheme, faults=faults,
        checker=PersistOrderSanitizer() if checker else None,
    )
    trace = generate_trace(9, transactions=16, slots=6)
    addrs = [system.allocate(64) for _ in range(trace.slots)]
    # More lines than the LLC holds, so every scheme evicts and writes.
    lines = system.config.llc.size // 64 + 64
    spill = [system.allocate(64) for _ in range(lines)]
    return system, addrs, spill, trace.txns


def _run(system, addrs, spill, txns):
    for txn in txns:
        with system.transaction(txn.core) as tx:
            for store in txn.stores:
                tx.store(
                    addrs[store.slot] + 8 * store.offset,
                    store.value.to_bytes(8, "little"),
                )
        if txn is txns[len(txns) // 2]:
            for start in range(0, len(spill), 40):
                with system.transaction(0) as tx:
                    for addr in spill[start : start + 40]:
                        tx.store(addr, b"\x5a" * 8)


@pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
def test_a_fork_between_transactions_shares_nothing_mutable(scheme):
    snapshot.reset_unregistered()
    system, *run = _machine(scheme)
    _run(system, *run)
    assert shared_mutables(system) == []
    assert snapshot.unregistered_classes() == frozenset()


@pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
def test_a_fork_inside_a_write_shares_nothing_mutable(scheme):
    snapshot.reset_unregistered()
    system, *run = _machine(scheme)
    injector = system.device.injector
    found = []

    def check(addr, data, now_ns, queued):
        # Every 7th write: inside stores, evictions, commits, GC ticks.
        found.append(shared_mutables(system))
        injector.fork_at += 7

    injector.fork_at = system.device.stats.writes
    injector.fork_hook = check
    _run(system, *run)
    assert len(found) > 3
    assert all(bad == [] for bad in found), found
    assert snapshot.unregistered_classes() == frozenset()


class _MutableMarker:
    """A mutable class wrongly declared ``__atom__``."""

    __snapshot_state__ = "__atom__"

    def __init__(self):
        self.value = 0


def test_the_check_catches_a_mutable_atom():
    state = {"marker": _MutableMarker(), "values": [1, 2]}
    assert shared_mutables(state) == ["_MutableMarker"]
