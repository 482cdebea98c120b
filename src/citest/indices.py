"""The core index family computed from a citation profile.

All indices derive from the h-core sum N_cit(h): the average A, the root
R = sqrt(N_cit(h)), the excess e = sqrt(N_cit(h) - h^2), the floor-based r
and its continuous analogue q = 2*N_cit(h)/h^2 - 1, the square-root indices
H = h*sqrt(r) and D = sqrt(2*N_cit(h) - h^2), and q' = N_cit(h)/h^2.
Sums and floors are carried in exact integer arithmetic.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import EmptyCore, InsufficientTail, RankOutOfRange
from .profile import CitationProfile


def suffix_h(entries: tuple[int, ...] | list[int], shift: int, complete: bool = True) -> int:
    """h-index of the suffix starting after rank ``shift`` (0 = whole profile).

    For an incomplete prefix the result is only returned when it is certified:
    either a failing rank was observed inside the window, or the last known
    value bounds every later entry below the next candidate.
    """
    n = len(entries)
    m = 1
    while shift + m <= n and entries[shift + m - 1] >= m:
        m += 1
    v = m - 1
    if not complete and shift + v >= n:
        # window exhausted without seeing a failing rank
        if n == 0 or entries[-1] > v:
            raise InsufficientTail(n, n + 1, what=f"the h-index at shift {shift}")
    return v


CoreIndices = namedtuple(
    "CoreIndices",
    "h g n_cit_h a_index r_index e_index r_floor q q_prime h_cap_index d_index",
)


def h_index(profile: CitationProfile) -> int:
    """Highest rank m with cit_m >= m, or 0 when no rank qualifies."""
    return suffix_h(profile.citations, 0, profile.complete)


def core_sum(profile: CitationProfile, s: int) -> int:
    """Total citations up to rank ``s`` (N_cit(s)); core_sum(p, h) = N_cit(h)."""
    if s < 1 or s > profile.p:
        raise RankOutOfRange(f"rank s={s} outside 1..{profile.p}")
    return sum(profile.citations[:s])


def g_index(profile: CitationProfile) -> int:
    """Largest k with the top-k citation sum >= k^2, searched over k <= p."""
    entries = profile.citations
    if not profile.complete:
        raise InsufficientTail(
            len(entries), len(entries) + 1, what="the g-index (needs the full profile)"
        )
    # Exact early stop for non-increasing entries: once N(k) < k^2,
    # cit_{k+1} <= N(k)/k < k, so N(k+1) < k^2 + k < (k+1)^2, and so on.
    running = 0
    for k, value in enumerate(entries, start=1):
        running += value
        if running < k * k:
            return k - 1
    return len(entries)


def compute_core_indices(profile: CitationProfile) -> CoreIndices:
    """All core indices for a profile with h >= 1; raises ``EmptyCore`` otherwise."""
    h = h_index(profile)
    if h == 0:
        raise EmptyCore("h = 0: A, R, e and q are undefined")
    g = g_index(profile)
    n_cit_h = core_sum(profile, h)
    # floor argument kept integral: no float rounding may leak into r
    r_floor = (2 * n_cit_h) // (h * (h + 1)) - 1
    a_index = n_cit_h / h
    r_index = math.sqrt(n_cit_h)
    e_index = math.sqrt(n_cit_h - h * h)
    q = 2.0 * n_cit_h / (h * h) - 1.0
    q_prime = n_cit_h / (h * h)
    h_cap_index = h * math.sqrt(r_floor)
    d_index = math.sqrt(2 * n_cit_h - h * h)
    return CoreIndices(
        h=h,
        g=g,
        n_cit_h=n_cit_h,
        a_index=a_index,
        r_index=r_index,
        e_index=e_index,
        r_floor=r_floor,
        q=q,
        q_prime=q_prime,
        h_cap_index=h_cap_index,
        d_index=d_index,
    )
