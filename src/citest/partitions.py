"""Exact integer-partition computations behind the square-root law.

The count of partitions of n whose largest embedded square (Durfee square)
has side d is the x^n coefficient of x^(d^2) / prod_{j<=d} (1-x^j)^2,
extracted by dynamic programming on exact integers.  Every partition has
exactly one Durfee side, so p(n) is the total of these counts; for small n
they must match brute-force enumeration.  The distribution's exact mode,
mean, and variance anchor the 0.5404446*sqrt(n) normal approximation,
``estimators.h_na``, that the citation estimators rely on.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import accumulate

from .errors import ResourceLimit, at_least
from .indices import suffix_h

MAX_N = 5000  # ceiling on n for the exact Durfee counts
ENUM_MAX_N = 45  # brute-force enumeration yields all p(n) partitions


def _bounded(n: int, ceiling: int) -> None:
    at_least("n", n, 0)
    if n > ceiling:
        raise ResourceLimit(n, ceiling)


def durfee_size(parts: tuple[int, ...] | list[int]) -> int:
    """Side of the largest square in the diagram: max i with part_i >= i,
    which is the h-index of the parts read as a citation profile.  The parts
    must be non-increasing, as ``enumerate_partitions`` yields them."""
    return suffix_h(parts)


def _durfee_counts(n: int) -> dict[int, int]:
    """Exact count of partitions of n for each Durfee side d.

    Coefficients of prod_{j<=d} (1-x^j)^(-2) are grown incrementally in d;
    the count for side d is the x^(n-d^2) coefficient at stage d.
    """
    _bounded(n, MAX_N)
    counts: dict[int, int] = {} if n else {0: 1}  # n = 0: the empty partition, side 0
    coeffs = [1] + [0] * n
    d = 1
    while d * d <= n:
        # multiply by 1/(1-x^d)^2: two prefix-sum passes with stride d; this
        # and every later stage read no coefficient past n - d^2
        top = n - d * d
        for r in range(d):
            coeffs[r:top + 1:d] = accumulate(accumulate(coeffs[r:top + 1:d]))
        counts[d] = coeffs[top]
        d += 1
    return counts


def partition_count(n: int) -> int:
    """Exact p(n) as the total of the Durfee counts; p(0) = 1."""
    return sum(_durfee_counts(n).values())


DurfeeDistribution = namedtuple("DurfeeDistribution", "counts total mode mode_tied mean variance")
DurfeeDistribution.__doc__ = """Exact counts of partitions of n by Durfee-square side."""


def count_by_durfee(n: int) -> DurfeeDistribution:
    """Exact distribution of Durfee-square sides over all partitions of n,
    with its mode and exact rational mean and variance."""
    from fractions import Fraction  # only the exact moments need it

    counts = _durfee_counts(n)
    total = sum(counts.values())
    mode = max(counts, key=lambda side: (counts[side], -side))
    mode_tied = sum(1 for c in counts.values() if c == counts[mode]) > 1
    mean = Fraction(sum(d * c for d, c in counts.items()), total)
    second = Fraction(sum(d * d * c for d, c in counts.items()), total)
    return DurfeeDistribution(
        counts=counts, total=total, mode=mode, mode_tied=mode_tied,
        mean=mean, variance=second - mean * mean,
    )


def enumerate_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Every partition of n exactly once as a tuple, parts descending, lexicographically.

    Brute-force oracle, capped at ``ENUM_MAX_N`` because p(n) grows exponentially.
    """
    _bounded(n, ENUM_MAX_N)

    def _descend(remaining: int, cap: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield tuple(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            yield from _descend(remaining - part, part, prefix)
            prefix.pop()

    yield from _descend(n, n, [])


def durfee_moment_estimates(n: int) -> tuple[float, float]:
    """Numerically fitted asymptotics for the mean and variance of the side."""
    at_least("n", n, 1)
    root = math.sqrt(n)
    mean_est = 0.540446395 * root + 0.085691 + 0.0374788 / root
    var_est = 0.081057 * root + 0.018459 - 0.018015 / root
    return mean_est, var_est

