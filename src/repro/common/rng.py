"""Deterministic random-number utilities.

Every stochastic component (workload key choice, value bytes, crash points)
takes an explicit seed so experiments and failing property tests reproduce
exactly.  ``derive`` lets one experiment seed fan out into independent
streams for each thread or component without correlated sequences.
"""

from __future__ import annotations

import hashlib
import random
from typing import Optional


def make_rng(seed: Optional[int]) -> random.Random:
    """Create a :class:`random.Random` from an optional seed."""
    return random.Random(seed)


def derive(seed: int, *labels) -> int:
    """Derive a child seed from ``seed`` and a label path.

    Hash-based so that ``derive(s, "ycsb", 3)`` is stable across runs and
    uncorrelated with ``derive(s, "ycsb", 4)``.
    """
    h = hashlib.sha256()
    h.update(str(seed).encode())
    for label in labels:
        h.update(b"/")
        h.update(str(label).encode())
    return int.from_bytes(h.digest()[:8], "little")


def random_bytes(rng: random.Random, n: int) -> bytes:
    """``n`` random bytes from ``rng`` (Python's randbytes, 3.9+)."""
    if n < 0:
        raise ValueError("byte count must be non-negative")
    return rng.randbytes(n)
