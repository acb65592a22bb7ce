"""Crash-consistency schemes: HOOP plus the paper's five comparison points.

Every scheme implements :class:`repro.schemes.base.PersistenceScheme` —
the contract the memory system uses to route fills, evictions, and
transaction events — and carries a :class:`repro.schemes.base.SchemeTraits`
describing its Table I row.

====================  ==========================================
``native``            no persistence (the Ideal bar)
``hoop``              hardware out-of-place update (this paper)
``opt-redo``          hardware redo logging (WrAP-style)
``opt-undo``          hardware undo logging (ATOM-style)
``osp``               optimized cache-line shadow paging (SSP)
``lsm``               software log-structured NVM (LSNVMM)
``lad``               logless atomic durability (LAD)
====================  ==========================================

Scheme classes are imported lazily by :func:`make_scheme` so importing the
transactional API never pays for schemes an experiment does not use.
"""

from repro.schemes.base import PersistenceScheme, SchemeTraits

_SCHEME_MODULES = {
    "native": ("repro.schemes.native", "NativeScheme"),
    "hoop": ("repro.core.controller", "HoopScheme"),
    "hoop-mc": ("repro.core.multi_controller", "MultiControllerHoopScheme"),
    "opt-redo": ("repro.schemes.redo", "OptRedoScheme"),
    "opt-undo": ("repro.schemes.undo", "OptUndoScheme"),
    "osp": ("repro.schemes.osp", "OSPScheme"),
    "lsm": ("repro.schemes.lsm", "LSMScheme"),
    "lad": ("repro.schemes.lad", "LADScheme"),
}

ALL_SCHEME_NAMES = tuple(_SCHEME_MODULES)
# Every scheme that promises durability, in registry order: all but
# ``native``.  The oracle's crash checks, the fuzzer's ``--schemes all``
# and the serving layer take exactly these.
PERSISTENT_SCHEME_NAMES = tuple(n for n in ALL_SCHEME_NAMES if n != "native")


def scheme_class(name: str):
    """Resolve a scheme name to its class."""
    try:
        module_name, class_name = _SCHEME_MODULES[name]
    except KeyError:
        known = ", ".join(sorted(_SCHEME_MODULES))
        raise KeyError(f"unknown scheme {name!r}; known: {known}") from None
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, class_name)


def make_scheme(name: str, config, device) -> PersistenceScheme:
    """Instantiate a scheme by registry name."""
    return scheme_class(name)(config, device)


__all__ = [
    "PersistenceScheme",
    "SchemeTraits",
    "ALL_SCHEME_NAMES",
    "PERSISTENT_SCHEME_NAMES",
    "scheme_class",
    "make_scheme",
]
