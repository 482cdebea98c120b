"""Exact integer-partition computations behind the square-root law.

p(n) comes from the pentagonal-number recurrence on exact integers.  The
count of partitions of n whose largest embedded square (Durfee square) has
side d is the x^n coefficient of x^(d^2) / prod_{j<=d} (1-x^j)^2, extracted
by dynamic programming; summed over d it must reproduce p(n), and for small
n it must match brute-force enumeration.  The distribution's exact mode,
mean, and variance anchor the 0.5404446*sqrt(n) normal approximation that
the citation estimators rely on.
"""

from __future__ import annotations

import math
import os
import threading
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction

from .constants import DURFEE_MODE_COEFF
from .errors import NegativeArgument, ResourceLimit

DEFAULT_MAX_N = 5000
DEFAULT_ENUM_MAX_N = 45


def _max_n() -> int:
    value = os.environ.get("CITEST_MAX_N", "")
    try:
        return int(value)
    except ValueError:
        return DEFAULT_MAX_N


class Partition(namedtuple("Partition", "parts")):
    """A non-increasing sequence of positive integer parts."""

    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]):
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be non-increasing")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)


def durfee_size(part: Partition | tuple[int, ...] | list[int]) -> int:
    """Side of the largest square in the diagram: max i with part_i >= i."""
    parts = part.parts if isinstance(part, Partition) else tuple(part)
    d = 0
    for i, value in enumerate(parts, start=1):
        if value >= i:
            d = i
        else:
            break
    return d


_pentagonal_cache: list[int] = [1]
_pentagonal_lock = threading.Lock()


def partition_count(n: int) -> int:
    """Exact p(n) via the pentagonal-number recurrence; p(0) = 1."""
    if n < 0:
        raise NegativeArgument(f"n must be >= 0, got {n}")
    cache = _pentagonal_cache
    if len(cache) > n:
        return cache[n]
    with _pentagonal_lock:
        _grow_pentagonal_cache(n)
    return cache[n]


def _grow_pentagonal_cache(n: int) -> None:
    cache = _pentagonal_cache
    while len(cache) <= n:
        m = len(cache)
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 == 1 else -1
            total += sign * cache[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * cache[m - g2]
            k += 1
        cache.append(total)


class DurfeeDistribution(
    namedtuple("DurfeeDistribution", "n counts total mode mode_tied mean variance")
):
    """Exact counts of partitions of n by Durfee-square side."""

    __slots__ = ()

    def probability(self, d: int) -> Fraction:
        return Fraction(self.counts.get(d, 0), self.total)

    def csv_rows(self) -> Iterator[tuple[int, int, float]]:
        for d in sorted(self.counts):
            yield d, self.counts[d], self.counts[d] / self.total


def count_by_durfee(n: int) -> DurfeeDistribution:
    """Exact distribution of Durfee-square sides over all partitions of n.

    Coefficients of prod_{j<=d} (1-x^j)^(-2) are grown incrementally in d;
    the count for side d is the x^(n-d^2) coefficient at stage d.
    """
    if n < 0:
        raise NegativeArgument(f"n must be >= 0, got {n}")
    ceiling = _max_n()
    if n > ceiling:
        raise ResourceLimit(n, ceiling)
    if n == 0:
        return DurfeeDistribution(
            n=0, counts={0: 1}, total=1, mode=0, mode_tied=False,
            mean=Fraction(0), variance=Fraction(0),
        )

    counts: dict[int, int] = {}
    coeffs = [1] + [0] * n
    d = 1
    while d * d <= n:
        # multiply by 1/(1-x^d)^2: two prefix-sum passes with stride d; this
        # and every later stage read no coefficient past n - d^2
        top = n - d * d
        for _ in range(2):
            for i in range(d, top + 1):
                coeffs[i] += coeffs[i - d]
        counts[d] = coeffs[top]
        d += 1

    total = sum(counts.values())
    mode = max(counts, key=lambda side: (counts[side], -side))
    mode_tied = sum(1 for c in counts.values() if c == counts[mode]) > 1
    mean = Fraction(sum(d * c for d, c in counts.items()), total)
    second = Fraction(sum(d * d * c for d, c in counts.items()), total)
    return DurfeeDistribution(
        n=n, counts=counts, total=total, mode=mode, mode_tied=mode_tied,
        mean=mean, variance=second - mean * mean,
    )


def enumerate_partitions(n: int, max_n: int = DEFAULT_ENUM_MAX_N) -> Iterator[Partition]:
    """Every partition of n exactly once, parts descending, lexicographically.

    Brute-force oracle, capped at ``max_n`` because p(n) grows exponentially.
    """
    if n < 0:
        raise NegativeArgument(f"n must be >= 0, got {n}")
    if n > max_n:
        raise ResourceLimit(n, max_n)

    def _descend(remaining: int, cap: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from _descend(remaining - part, part, prefix)
            prefix.pop()

    yield from _descend(n, n, [])


def durfee_mode_formula(n: int) -> float:
    """Asymptotic most-likely Durfee side: 0.5404446394667307 * sqrt(n)."""
    if n < 0:
        raise NegativeArgument(f"n must be >= 0, got {n}")
    return DURFEE_MODE_COEFF * math.sqrt(n)


def durfee_moment_estimates(n: int) -> tuple[float, float]:
    """Numerically fitted asymptotics for the mean and variance of the side."""
    if n < 1:
        raise NegativeArgument(f"n must be >= 1, got {n}")
    root = math.sqrt(n)
    mean_est = 0.540446395 * root + 0.085691 + 0.0374788 / root
    var_est = 0.081057 * root + 0.018459 - 0.018015 / root
    return mean_est, var_est


def hardy_ramanujan(n: int) -> float:
    """First-order asymptotic for p(n): exp(pi*sqrt(2n/3)) / (4n*sqrt(3))."""
    if n < 1:
        raise NegativeArgument(f"n must be >= 1, got {n}")
    return math.exp(math.pi * math.sqrt(2.0 * n / 3.0)) / (4.0 * n * math.sqrt(3.0))
