"""A crash image is a clone followed by ``crash()``, field for field.

``repro.snapshot.crash_image`` copies only what survives power loss —
the device, each class's ``__durable__`` fields, the ``__shared__``
memos — and takes every volatile field from a crashed fresh machine.
The contract that makes that safe is checked here for every registry
scheme, between transactions and at fork points inside writes (the
device's fork hook): a structural walk of the image and of
``clone_state(m)`` then ``crash()`` must find no difference, the image
must share nothing mutable with the live machine or with its template,
and leaving a durable field undeclared must make the walk fail.
"""

from __future__ import annotations

import dataclasses
import enum
import random
import types
from collections import deque

import pytest

from repro import snapshot
from repro.check.oracle import build_system
from repro.check.sanitizer import PersistOrderSanitizer
from repro.core.oop_region import OOPRegion
from repro.schemes import ALL_SCHEME_NAMES

from tests.test_fork_isolation import (
    _BASE_ATOMS,
    _MISSING,
    _machine,
    _run,
    shared_between,
)


def _fields(obj) -> dict:
    fields = dict(getattr(obj, "__dict__", {}))
    for name in snapshot._collect_slots(obj.__class__):
        value = getattr(obj, name, _MISSING)
        if value is not _MISSING:
            fields[name] = value
    return fields


def graph_diff(a, b, limit: int = 10) -> list:
    """Paths where two object graphs differ in value, type or aliasing.

    Objects are paired as the walk meets them, so a pair must stay a
    pair (an object aliased on one side is aliased on the other); a
    ``__shared__`` object must be the very same one on both sides.
    Dict keys that are object ids (the sanitizer's port ids) match
    through the pairing once the rest of the walk is done.
    """
    pairs, back, out, by_id = {}, {}, [], []
    stack = [(a, b, "system")]
    while (stack or by_id) and len(out) < limit:
        if not stack:
            x, y, path = by_id.pop()
            if [pairs.get(k, k) for k in x] != list(y):
                out.append(f"{path}: keys {list(x)[:4]} != {list(y)[:4]}")
            continue
        x, y, path = stack.pop()
        cls = x.__class__
        if cls is not y.__class__:
            out.append(f"{path}: {cls.__qualname__} != {y.__class__.__qualname__}")
            continue
        if isinstance(x, _BASE_ATOMS) or isinstance(x, enum.Enum):
            if isinstance(x, (type, types.FunctionType, types.BuiltinFunctionType)):
                same = x is y
            else:
                same = x == y or (x != x and y != y)  # NaN
            if not same:
                out.append(f"{path}: {x!r} != {y!r}")
            continue
        if pairs.get(id(x), id(y)) != id(y) or back.get(id(y), id(x)) != id(x):
            out.append(f"{path}: aliased differently")
            continue
        if id(x) in pairs:
            continue
        pairs[id(x)], back[id(y)] = id(y), id(x)
        if getattr(cls, "__snapshot_state__", None) == "__shared__":
            if x is not y:
                out.append(f"{path}: a different {cls.__qualname__}")
        elif isinstance(x, dict):
            if getattr(x, "default_factory", None) is not getattr(
                y, "default_factory", None
            ):
                out.append(f"{path}: default factory differs")
            elif list(x) != list(y):
                by_id.append((x, y, path))
            else:
                stack.extend((x[k], y[k], f"{path}[{k!r}]") for k in x)
        elif isinstance(x, (list, tuple, deque)):
            if len(x) != len(y):
                out.append(f"{path}: length {len(x)} != {len(y)}")
            else:
                stack.extend(
                    (u, v, f"{path}[{i}]") for i, (u, v) in enumerate(zip(x, y))
                )
        elif isinstance(x, (set, bytearray)):
            if x != y:
                out.append(f"{path}: {cls.__name__} differs")
        elif isinstance(x, random.Random):
            if x.getstate() != y.getstate():
                out.append(f"{path}: PRNG state differs")
        elif isinstance(x, types.MethodType):
            if x.__func__ is not y.__func__:
                out.append(f"{path}: bound to another function")
            stack.append((x.__self__, y.__self__, f"{path}.__self__"))
        else:
            fx, fy = _fields(x), _fields(y)
            if fx.keys() != fy.keys():
                out.append(f"{path}: fields {sorted(fx.keys() ^ fy.keys())}")
            else:
                stack.extend((fx[k], fy[k], f"{path}.{k}") for k in fx)
    return out


def _fell_back(system):
    raise AssertionError("the machine's shape has no image plan")


def _image(system):
    """``crash_image(system)``, failing if it fell back to a whole clone."""
    whole, snapshot.clone_state = snapshot.clone_state, _fell_back
    try:
        return snapshot.crash_image(system)
    finally:
        snapshot.clone_state = whole


def contract_breaks(system) -> list:
    """Where ``crash_image`` and clone-then-``crash()`` disagree."""
    reference = snapshot.clone_state(system)
    reference.crash()
    return graph_diff(_image(system), reference)


def _plain_machine(scheme):
    """The fork-isolation machine without a checker, as sweeps build it."""
    return _machine(scheme, checker=False)


def _inside_writes(system, run, check) -> list:
    """``check(system)`` at every 7th timed write of ``run``."""
    injector = system.device.injector
    found = []

    def hook(addr, data, now_ns, queued):
        found.append(check(system))
        injector.fork_at += 7

    injector.fork_at = system.device.stats.writes
    injector.fork_hook = hook
    _run(system, *run)
    injector.fork_at = injector.fork_hook = None
    assert len(found) > 3
    return found


@pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
def test_between_transactions_the_image_is_clone_then_crash(scheme):
    system, *run = _plain_machine(scheme)
    assert contract_breaks(system) == []
    _run(system, *run)
    assert contract_breaks(system) == []


@pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
def test_inside_a_write_the_image_is_clone_then_crash(scheme):
    system, *run = _plain_machine(scheme)
    found = _inside_writes(system, run, contract_breaks)
    assert all(bad == [] for bad in found), found


@pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
def test_an_image_shares_nothing_mutable(scheme):
    system, *run = _plain_machine(scheme)
    _image(system)  # builds the template
    template, _ = snapshot._TEMPLATES[type(system.scheme), system.config]

    def isolation(system):
        image = _image(system)
        return shared_between(system, image) + shared_between(template, image)

    found = _inside_writes(system, run, isolation)
    assert all(bad == [] for bad in found), found
    assert isolation(system) == []


def test_a_machine_of_another_shape_is_cloned_whole():
    system = build_system("hoop", checker=PersistOrderSanitizer())
    reference = snapshot.clone_state(system)
    reference.crash()
    assert graph_diff(snapshot.crash_image(system), reference) == []


def test_an_undeclared_durable_field_breaks_the_contract(monkeypatch):
    system, *run = _plain_machine("hoop")
    _run(system, *run)
    assert system.scheme.controller.region.stats.slices_allocated
    durable = tuple(name for name in OOPRegion.__durable__ if name != "stats")
    monkeypatch.setattr(OOPRegion, "__durable__", durable)
    monkeypatch.setattr(snapshot, "_TEMPLATES", {})
    assert any("region.stats" in line for line in contract_breaks(system))


def test_a_volatile_field_crash_keeps_breaks_the_contract(monkeypatch):
    system, *run = _plain_machine("opt-redo")
    _run(system, *run)
    monkeypatch.setattr(type(system.scheme), "crash", lambda self: None)
    system.scheme._shadow[0] = b"\x01" * 64
    assert any("_shadow" in line for line in contract_breaks(system))


def test_the_walk_sees_a_changed_stat():
    system, *run = _plain_machine("opt-redo")
    _run(system, *run)
    image = _image(system)
    twin = _image(system)
    assert graph_diff(image, twin) == []
    twin.scheme.stats = dataclasses.replace(
        twin.scheme.stats, transactions=twin.scheme.stats.transactions + 1
    )
    assert graph_diff(image, twin) != []
