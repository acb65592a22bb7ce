"""Simulator snapshots: capture and restore full system state.

A snapshot freezes the *entire* simulator state — sparse NVM pages,
cache hierarchy, scheme and controller structures, transaction system,
fault injector, RNG streams — and restore-then-run is **bit-identical**
to a cold rerun (enforced by the round-trip tests).  A crash case needs
less: :func:`crash_image` copies only what survives power loss (see
*crash images* below), and the crash sweeps fork their one forward
machine that way, inside the very write each boundary cuts.

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
    Shared like ``__shared__`` (both join the atom set on first
    encounter, so later instances are shared straight from the container
    loops with no per-object engine call or memo entry), for high-volume
    frozen records: log entries, address-slice entries, checker events.
    Only for deeply immutable values whose identity is never a key.

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
import operator
import random
import sys
import types
from collections import OrderedDict, defaultdict, deque
from typing import Any, Dict, List

__all__ = [
    "Snapshot",
    "capture",
    "clone_state",
    "crash_image",
    "power_cut",
    "reset_volatile",
    "unregistered_classes",
    "reset_unregistered",
]

# Types shared without memoization: immutable, identity-irrelevant.
# Mutable set: classes declaring ``"__atom__"`` or ``"__shared__"``, and
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
    elif spec in ("__atom__", "__shared__") or issubclass(cls, enum.Enum):
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


# -- crash images ---------------------------------------------------------------
# What survives power loss has one home per class: ``__durable__`` names
# the fields a power cut keeps (structure, ``__shared__`` memos, stats and
# clocks that reports read); the rest read after ``crash()`` as a fresh
# machine's do.  LAD's ``__persist_domain__`` is kept for ``crash()`` to
# drain.  A class that declares neither loses nothing.

# (scheme class, config) -> (crashed fresh machine, its image plan).
_TEMPLATES: Dict[Any, tuple] = {}


def reset_volatile(obj: Any) -> None:
    """``crash()`` of a pure reset: empty each field not ``__durable__``."""
    for name in obj.__dict__.keys() - obj.__durable__:
        value = obj.__dict__[name]
        if value.__class__ is int:
            obj.__dict__[name] = 0
        else:
            value.clear()


def _component(obj: Any) -> bool:
    cls = obj.__class__
    mode = (_PLANS.get(cls) or _build_plan(cls)).mode
    return cls not in _ATOMS and cls not in _HANDLERS and (
        hasattr(cls, "__durable__") or mode in (_ALL, _FALLBACK))


def _compile(template: Any) -> list:
    """One step per component of ``template``, reached from an earlier
    one by a field (``at`` None), a list index or a method's receiver
    (-1), with what the image holds per field: the live atom, the twin
    of a component (``ref``), a copy of the live value, or the
    template's (``set``, ``new``, ``tmpl``)."""
    steps, index, plan = [(template, None, None, None)], {id(template): 0}, []

    def reach(obj, parent, name, at) -> int:
        if id(obj) not in index:
            index[id(obj)] = len(steps)
            steps.append((obj, parent, name, at))
        return index[id(obj)]

    for obj, parent, name, at in steps:  # reach() appends while this walks
        keep = getattr(obj, "__durable__", None)
        if keep is not None:
            keep = {*keep, *getattr(obj, "__persist_domain__", ())}
        atoms, fields = [], []
        for field, value in vars(obj).items():
            kind = value.__class__
            if kind not in _PLANS:
                _build_plan(kind)  # enums and __atom__ classes join _ATOMS
            if keep is not None and field not in keep:
                if kind in _ATOMS:
                    fields.append((field, "set", value))
                elif not value and kind in (dict, set, list, OrderedDict, defaultdict):
                    fields.append((field, "new", value.copy))
                else:
                    fields.append((field, "tmpl", value))
            elif kind in _ATOMS:
                atoms.append(field)
            elif _component(value):
                fields.append((field, "ref", reach(value, obj, field, None)))
            else:
                for i, item in enumerate(value if kind is list else ()):
                    if _component(item):
                        reach(item, obj, field, i)
                if kind is types.MethodType and _component(value.__self__):
                    reach(value.__self__, obj, field, -1)
                fields.append((field, "atoms" if _PLANS[kind].mode == _ATTR_ATOMS
                               else "clone", kind))
        # One C-level check that fields holding atoms here hold atoms on the
        # live machine too (a one-name itemgetter returns no tuple: pad it).
        atom_get = operator.itemgetter(*atoms, *atoms[:1]) if atoms else None
        fixup = (_PLANS.get(obj.__class__) or _build_plan(obj.__class__)).has_fixup
        plan.append((index.get(id(parent)), name, at, obj.__class__, id(obj),
                     frozenset(vars(obj)), atom_get, fields, fixup))
    return plan


class _Mismatch(Exception):
    """The live machine's shape differs from its template's."""


def _run_plan(plan: list, system: Any, memo: dict, fixups: list) -> Any:
    atoms, lives, news = _ATOMS, [], []
    # Every component first: the clones below map references onto twins.
    for parent, name, at, cls, tmpl_id, keys, atom_get, _, fixup in plan:
        live = system if parent is None else vars(lives[parent]).get(name)
        if at is not None:
            live = live.__self__ if at < 0 else live[at]
        d = getattr(live, "__dict__", None)
        if live.__class__ is not cls or d.keys() != keys or id(live) in memo or (
            atom_get and not atoms.issuperset(map(type, atom_get(d)))
        ):
            raise _Mismatch
        out = cls.__new__(cls)
        out.__dict__.update(d)
        memo[id(live)] = memo[tmpl_id] = out
        lives.append(live)
        news.append(out)
        if fixup:
            fixups.append(out)
    for step, live, out in zip(plan, lives, news):
        d, nd = live.__dict__, out.__dict__
        for name, kind, arg in step[7]:
            value = d[name]
            if kind == "ref":
                if value is not lives[arg]:
                    raise _Mismatch
                nd[name] = news[arg]
            elif kind == "atoms" and value.__class__ is arg:
                nd[name] = copy = arg.__new__(arg)
                copy.__dict__.update(value.__dict__)
            elif kind in ("atoms", "clone"):
                if value.__class__ not in atoms:
                    nd[name] = _clone(value, memo, fixups)
            elif kind == "new":
                nd[name] = arg()
            else:
                nd[name] = arg if kind == "set" else _clone(arg, memo, fixups)
    return news[0]


def power_cut(system: Any) -> Any:
    """A copy of ``system`` at the instant its power fails.

    Copies only what survives: the device (pages copy-on-write), every
    ``__durable__`` field, the ``__shared__`` memos; each volatile field
    copies the template's, a crashed fresh machine of the same scheme
    class and config built on first use.  The persist domain is not
    drained yet and power is as ``system`` left it: ``power_cut(m)``
    then ``crash()`` equals ``clone_state(m)`` then ``crash()``.  A
    machine shaped unlike its template (say, with a checker) is cloned.
    """
    key = (system.scheme.__class__, system.config)
    template = _TEMPLATES.get(key)
    if template is None:
        from repro.faults import make_device
        from repro.txn.system import MemorySystem

        cls, config = key
        template = MemorySystem(config, cls(config, make_device(config)))
        template.crash()
        template = _TEMPLATES[key] = (template, _compile(template))
    memo: dict = {}
    fixups: list = []
    try:
        image = _run_plan(template[1], system, memo, fixups)
    except (_Mismatch, LookupError):  # e.g. a shorter list of components
        return clone_state(system)
    for clone in fixups:
        clone.__snapshot_fixup__(memo)
    return image


def crash_image(system: Any) -> Any:
    """``system`` after a power failure, copying only what survives it.

    Equal to ``clone_state(system)`` then ``crash()``, which here only
    restores power and drains the persist domain.
    """
    image = power_cut(system)
    image.crash()
    return image
