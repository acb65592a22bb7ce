"""Simulator snapshots: capture and restore full system state.

The crash-point sweep and the differential oracle replay long, mostly
identical workload prefixes once per crash boundary.  A snapshot freezes
the *entire* simulator state — sparse NVM pages, cache hierarchy, scheme
and controller structures, transaction system, fault injector, RNG
streams — so a crash case can start from a fork of the one machine that
already ran the prefix, taken inside the very write its boundary cuts.
The hard contract (enforced by the round-trip tests) is that
restore-then-run is **bit-identical** to a cold rerun: same content
fingerprint, same stats, same sanitizer verdicts.

Design: a typed deep-clone engine, much faster than :func:`copy.deepcopy`
because every class declares its snapshot behaviour up front:

``__snapshot_state__ = "__shared__"``
    Share the instance between the source and every clone.  For
    immutable values (frozen config dataclasses), and for memos of pure
    functions of durable bytes: the slice codec's decode memos (keyed
    on all of a slice's raw bytes) and the append log's scan memo
    (reused only after a ``peek`` finds its span byte-equal).  A fork
    may add to such a memo, but every answer it gives is checked
    against, or keyed on, the bytes the asking fork holds, so no fork
    can see another's state through it.

``__snapshot_state__ = "__atom__"``
    Like ``__shared__`` but for high-volume frozen records (log entries,
    address-slice entries, checker events): the class joins the atom set
    on first encounter, so later instances are shared straight from the
    container loops with no per-object engine call or memo entry.  Only
    for deeply immutable values whose identity is never used as a key.

``__snapshot_state__ = "__all__"``
    Deep-clone every attribute (dict and/or slots) through the engine.

``__snapshot_state__ = "__atoms__"``
    Every attribute is an immutable scalar (stats records, triggers);
    copy the attribute dict in one C-level call.

``__snapshot_state__ = ("attr", ...)``
    Deep-clone exactly the named attributes; share the rest by
    reference.

``__snapshot_clone__(self, memo, clone)``
    Full custom control (the NVM device uses it for copy-on-write page
    sharing).  Must insert its result into ``memo`` before recursing.

``__snapshot_fixup__(self, memo)``
    Post-pass hook on the *clone*, called after the whole graph is
    copied, with the ``id(old) -> new`` memo — for state keyed by object
    identity (the sanitizer's per-port ids).

A single memo dict spans the whole clone, so aliasing invariants
(`device._wear_writes is device.wear._writes`, bound-method handlers,
shared LineFlags between LLC buckets and the flag index) survive by
construction.  Bound methods are re-bound to the cloned ``__self__``;
``random.Random`` streams are forked via ``getstate``/``setstate`` into
an unseeded instance.

Classes the engine has never been told about are still cloned (deep,
attribute by attribute) but recorded in :func:`unregistered_classes`;
the test suite asserts that set stays empty for every registry scheme,
which is how new simulator state is forced to declare itself.
"""

from __future__ import annotations

import enum
import random
import sys
import types
from collections import OrderedDict, defaultdict, deque
from typing import Any, Dict, List

__all__ = [
    "Snapshot",
    "capture",
    "clone_state",
    "unregistered_classes",
    "reset_unregistered",
]

# Types shared without memoization: immutable, identity-irrelevant.
# Mutable set: classes declaring ``__snapshot_state__ = "__atom__"``, and
# enum classes, join on first encounter (hot-path loops alias this set,
# and see additions because it is mutated in place, never rebound).
_ATOMS = {
    int,
    float,
    bool,
    str,
    bytes,
    complex,
    type(None),
    type,
    frozenset,
    types.FunctionType,
    types.BuiltinFunctionType,
}

_MISSING = object()

# Clone plans, derived lazily from __snapshot_state__ declarations.
_SHARE = 0
_ALL = 1
_ATTR_ATOMS = 2
_PARTIAL = 3
_FALLBACK = 4
_CUSTOM = 5
_NAMEDTUPLE = 6

# repro classes cloned without a declaration (should stay empty).
_UNREGISTERED: set = set()


def unregistered_classes() -> frozenset:
    """Classes deep-cloned without a ``__snapshot_state__`` declaration."""
    return frozenset(_UNREGISTERED)


def reset_unregistered() -> None:
    """Clear the unregistered-class record (test isolation)."""
    _UNREGISTERED.clear()


class _Plan:
    """Cached per-class clone strategy."""

    __slots__ = ("mode", "deep", "slots", "has_fixup")

    def __init__(self, mode: int, deep, slots, has_fixup: bool) -> None:
        self.mode = mode
        self.deep = deep
        self.slots = slots
        self.has_fixup = has_fixup


_PLANS: Dict[type, _Plan] = {}


def _collect_slots(cls: type):
    names: List[str] = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            if name not in ("__dict__", "__weakref__") and name not in names:
                names.append(name)
    return tuple(names)


def _build_plan(cls: type) -> _Plan:
    spec = getattr(cls, "__snapshot_state__", _MISSING)
    has_fixup = hasattr(cls, "__snapshot_fixup__")
    slots = _collect_slots(cls)
    if getattr(cls, "__snapshot_clone__", None) is not None:
        mode, deep = _CUSTOM, None
    elif spec == "__atom__" or issubclass(cls, enum.Enum):
        # Joins the atom set: future instances never reach the engine.
        # (An enum's members are singletons, so sharing them is exact.)
        _ATOMS.add(cls)
        mode, deep = _SHARE, None
    elif issubclass(cls, tuple):
        mode, deep = _NAMEDTUPLE, None
    elif spec is _MISSING:
        mode = _FALLBACK
        deep = None
        module = getattr(cls, "__module__", "")
        if module.startswith("repro"):
            _UNREGISTERED.add(cls)
    elif spec == "__shared__":
        mode, deep = _SHARE, None
    elif spec == "__all__":
        mode, deep = _ALL, None
    elif spec == "__atoms__":
        mode, deep = _ATTR_ATOMS, None
    else:
        mode, deep = _PARTIAL, frozenset(spec)
    plan = _Plan(mode, deep, slots, has_fixup)
    _PLANS[cls] = plan
    return plan


def _clone(obj: Any, memo: dict, fixups: list) -> Any:
    cls = obj.__class__
    if cls in _ATOMS:
        return obj
    key = id(obj)
    existing = memo.get(key, _MISSING)
    if existing is not _MISSING:
        return existing
    handler = _HANDLERS.get(cls)
    if handler is not None:
        return handler(obj, memo, fixups)
    return _clone_object(obj, memo, fixups, cls, key)


def _clone_object(obj: Any, memo: dict, fixups: list, cls: type, key: int):
    plan = _PLANS.get(cls)
    if plan is None:
        plan = _build_plan(cls)
    mode = plan.mode
    if mode == _SHARE:
        memo[key] = obj
        return obj
    if mode == _CUSTOM:
        out = obj.__snapshot_clone__(
            memo, lambda v, m=memo, f=fixups: _clone(v, m, f)
        )
        if plan.has_fixup:
            fixups.append(out)
        return out
    if mode == _NAMEDTUPLE:
        # NamedTuple (plain tuples have a dedicated handler): clone the
        # items; when every item survives unchanged, share the original.
        items = [_clone(v, memo, fixups) for v in obj]
        if all(a is b for a, b in zip(items, obj)):
            memo[key] = obj
            return obj
        make = getattr(cls, "_make", None)
        out = make(items) if make is not None else cls(*items)
        memo[key] = out
        return out
    out = cls.__new__(cls)
    memo[key] = out
    d = getattr(obj, "__dict__", None)
    if mode == _ATTR_ATOMS:
        if d is not None:
            out.__dict__.update(d)
        for name in plan.slots:
            value = getattr(obj, name, _MISSING)
            if value is not _MISSING:
                setattr(out, name, value)
    elif mode == _PARTIAL:
        deep = plan.deep
        if d is not None:
            nd = out.__dict__
            for k, v in d.items():
                if k in deep and v.__class__ not in _ATOMS:
                    nd[k] = _clone(v, memo, fixups)
                else:
                    nd[k] = v
        for name in plan.slots:
            value = getattr(obj, name, _MISSING)
            if value is _MISSING:
                continue
            if name in deep and value.__class__ not in _ATOMS:
                value = _clone(value, memo, fixups)
            setattr(out, name, value)
    else:  # _ALL and _FALLBACK clone everything
        if d is not None:
            nd = out.__dict__
            for k, v in d.items():
                nd[k] = v if v.__class__ in _ATOMS else _clone(v, memo, fixups)
        for name in plan.slots:
            value = getattr(obj, name, _MISSING)
            if value is _MISSING:
                continue
            if value.__class__ not in _ATOMS:
                value = _clone(value, memo, fixups)
            setattr(out, name, value)
    if plan.has_fixup:
        fixups.append(out)
    return out


# -- container handlers -------------------------------------------------------


def _clone_dict(obj, memo, fixups):
    out = {}
    memo[id(obj)] = out
    if not obj:
        return out
    atoms = _ATOMS
    for k, v in obj.items():
        if k.__class__ not in atoms:
            k = _clone(k, memo, fixups)
        out[k] = v if v.__class__ in atoms else _clone(v, memo, fixups)
    return out


def _clone_list(obj, memo, fixups):
    out: list = []
    memo[id(obj)] = out
    atoms = _ATOMS
    out.extend(
        v if v.__class__ in atoms else _clone(v, memo, fixups) for v in obj
    )
    return out


def _clone_set(obj, memo, fixups):
    out: set = set()
    memo[id(obj)] = out
    atoms = _ATOMS
    out.update(
        v if v.__class__ in atoms else _clone(v, memo, fixups) for v in obj
    )
    return out


def _clone_tuple(obj, memo, fixups):
    # Single pass: most tuples are all-atom records — share them without
    # building an item list (no memo entry either: sharing is idempotent).
    atoms = _ATOMS
    for index, v in enumerate(obj):
        if v.__class__ not in atoms:
            break
    else:
        return obj
    items = list(obj[:index])
    for v in obj[index:]:
        items.append(v if v.__class__ in atoms else _clone(v, memo, fixups))
    if all(a is b for a, b in zip(items, obj)):
        memo[id(obj)] = obj
        return obj
    out = tuple(items)
    memo[id(obj)] = out
    return out


def _clone_bytearray(obj, memo, fixups):
    out = bytearray(obj)
    memo[id(obj)] = out
    return out


def _clone_ordered_dict(obj, memo, fixups):
    out: OrderedDict = OrderedDict()
    memo[id(obj)] = out
    if not obj:
        return out
    atoms = _ATOMS
    for k, v in obj.items():
        if k.__class__ not in atoms:
            k = _clone(k, memo, fixups)
        out[k] = v if v.__class__ in atoms else _clone(v, memo, fixups)
    return out


def _clone_defaultdict(obj, memo, fixups):
    out = defaultdict(obj.default_factory)
    memo[id(obj)] = out
    atoms = _ATOMS
    for k, v in obj.items():
        if k.__class__ not in atoms:
            k = _clone(k, memo, fixups)
        out[k] = v if v.__class__ in atoms else _clone(v, memo, fixups)
    return out


def _clone_deque(obj, memo, fixups):
    atoms = _ATOMS
    out = deque(
        (v if v.__class__ in atoms else _clone(v, memo, fixups) for v in obj),
        obj.maxlen,
    )
    memo[id(obj)] = out
    return out


def _clone_random(obj, memo, fixups):
    # ``Random()`` would seed itself from the OS only to be overwritten.
    cls = obj.__class__
    out = cls.__new__(cls)
    out.setstate(obj.getstate())
    memo[id(obj)] = out
    return out


def _clone_method(obj, memo, fixups):
    # Bound method: re-bind the function to the cloned receiver so
    # callbacks like hierarchy._fill / oop_buffer._on_slice_written keep
    # pointing inside the clone, not back into the live system.
    out = types.MethodType(obj.__func__, _clone(obj.__self__, memo, fixups))
    memo[id(obj)] = out
    return out


_HANDLERS: Dict[type, Any] = {
    dict: _clone_dict,
    list: _clone_list,
    set: _clone_set,
    tuple: _clone_tuple,
    bytearray: _clone_bytearray,
    OrderedDict: _clone_ordered_dict,
    defaultdict: _clone_defaultdict,
    deque: _clone_deque,
    random.Random: _clone_random,
    types.MethodType: _clone_method,
}


def clone_state(obj: Any) -> Any:
    """Deep-clone an arbitrary simulator object graph.

    One memo spans the whole clone (aliasing preserved); ``__snapshot_fixup__``
    hooks run after the graph is complete, with the ``id(old) -> new`` memo.
    """
    memo: dict = {}
    fixups: list = []
    limit = sys.getrecursionlimit()
    bumped = limit < 20_000
    if bumped:
        # Deep linked structures (skip-list forward chains) recurse one
        # engine frame per node.
        sys.setrecursionlimit(20_000)
    try:
        out = _clone(obj, memo, fixups)
        for clone in fixups:
            clone.__snapshot_fixup__(memo)
    finally:
        if bumped:
            sys.setrecursionlimit(limit)
    return out


class Snapshot:
    """A frozen copy of a :class:`~repro.txn.system.MemorySystem`.

    The snapshot owns a private clone of the system; :meth:`restore`
    clones it again, so one snapshot can seed any number of independent
    replays.  NVM pages are shared copy-on-write between the live
    system, the snapshot, and every restore — writers clone a page on
    first touch (see ``NVMDevice.__snapshot_clone__``).
    """

    __slots__ = ("_system",)

    def __init__(self, system: Any):
        self._system = system

    def restore(self) -> Any:
        """Materialize a fresh, runnable system from this snapshot."""
        return clone_state(self._system)


def capture(system: Any) -> Snapshot:
    """Snapshot a memory system (between transactions)."""
    return Snapshot(clone_state(system))
