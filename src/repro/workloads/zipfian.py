"""Zipfian key-popularity generator (YCSB's request distribution).

Implements the Gray et al. rejection-free inverse-CDF approximation used
by the original YCSB client ("ScrambledZipfianGenerator" minus the
scrambling, which callers add by hashing).  The paper's YCSB runs follow
the Zipfian distribution [11]; theta defaults to YCSB's 0.99.
"""

from __future__ import annotations

import functools
import random
from typing import Optional


class ZipfianGenerator:
    """Draws integers in ``[0, n)`` with Zipfian popularity skew."""

    def __init__(
        self,
        n: int,
        theta: float = 0.99,
        *,
        rng: Optional[random.Random] = None,
    ) -> None:
        if n <= 0:
            raise ValueError("population must be positive")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self.rng = rng or random.Random()
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        denominator = 1.0 - self._zeta2 / self._zetan
        # n <= 2 degenerates Gray et al.'s eta to 0/0; next() resolves
        # every draw in its first two branches there (u*zeta(n) never
        # exceeds 1 + 0.5**theta == zeta(2)), so eta is unreachable and
        # any finite value is correct.
        self._eta = (
            (1.0 - (2.0 / n) ** (1.0 - theta)) / denominator
            if denominator
            else 0.0
        )

    @staticmethod
    @functools.lru_cache(maxsize=64)
    def _zeta(n: int, theta: float) -> float:
        # Exact for small n; integral approximation keeps big populations
        # O(1) (the error is far below anything the experiments resolve).
        # Memoized: a pure function, and every client of a serve run
        # asks it for the same (n, theta).
        if n <= 10_000:
            return sum(1.0 / (i**theta) for i in range(1, n + 1))
        head = sum(1.0 / (i**theta) for i in range(1, 10_001))
        tail = (n ** (1.0 - theta) - 10_000 ** (1.0 - theta)) / (1.0 - theta)
        return head + tail

    def next(self) -> int:
        """Draw one rank (0 = most popular)."""
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        return int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)

    def next_scrambled(self, salt: int = 0x9E3779B97F4A7C15) -> int:
        """Rank hashed across the keyspace (hot keys spread out)."""
        rank = self.next()
        x = (rank + 1) * salt
        x ^= x >> 31
        x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 27
        return x % self.n

    def expected_top_fraction(self, k: int) -> float:
        """Analytic probability mass of the ``k`` most popular keys."""
        return self._zeta(min(k, self.n), self.theta) / self._zetan
