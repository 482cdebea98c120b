"""Shifted h-indices, the fast ladder recurrences, and the defect classifier.

The shifted index h_k is the h-index of the profile with its top k entries
removed.  Rows are produced by the constant-work recurrences

    h_{k+1} = h_k            if cit_{h_k+k+1} = h_k, else h_k - 1
    N_h^{k+1} = N_h^{k} - cit_{k+1} + delta_k * cit_{h_k+k+1}

and always agree with direct recomputation from the suffix (the oracle the
test suite enforces).  The stay/drop indicator delta_k comes from one read of
rank h_k+k+1 per row.  The defect d is the removal depth at which the excess
e_k first crosses the shifted index h_k; the crossing direction fixes the
case tag consumed by the estimator module.  A blind scan of a p-rank prefix
reads ranks up to min(p, h_k+k+1) of the last row it scans, reported as
``ranks_consumed``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import islice

from .errors import EmptyCore, IndexUnderflow, InsufficientTail, RankOutOfRange
from .indices import suffix_h
from .profile import CitationProfile

CASE_TAGS = (
    "case1a",
    "case1b",
    "case2a_2c",
    "case2a_2d",
    "case2b_2c",
    "case2b_2d",
    "case3a",
    "case3b",
    "case4",
)


class ShiftedRow(
    namedtuple("ShiftedRow", "k h_k n_h_k e_k q_k n_cit_k delta_k", defaults=(None, None))
):
    """One ladder row: the shifted index of order k and its core statistics.

    ``n_cit_k`` (the tail total) and ``delta_k`` (the stay/drop indicator for
    the next step) are ``None`` when the profile is a prefix that cannot pin
    them down.
    """

    __slots__ = ()


class DefectAnalysis(
    namedtuple(
        "DefectAnalysis",
        "d case_tag defect_core an_domain rows ranks_consumed",
        defaults=(0,),
    )
):
    """Defect depth d, its case tag, and the ladder rows 0..d+1.

    ``defect_core`` holds cit_1..cit_d (empty when d = 0); ``an_domain`` the
    h_d entries that follow it.  ``ranks_consumed`` is the highest rank the
    classification had to read, which blind estimation reports back.
    """

    __slots__ = ()

    @property
    def row_d(self) -> ShiftedRow:
        return self.rows[self.d]

    @property
    def row_d1(self) -> ShiftedRow:
        return self.rows[self.d + 1]


def shifted_h(profile: CitationProfile, k: int) -> int:
    """h-index of the suffix cit_{k+1}..cit_p, computed directly."""
    if k < 0 or k > profile.p - 1:
        raise RankOutOfRange(f"shift k={k} outside 0..{profile.p - 1}")
    return suffix_h(profile.citations, k, profile.complete)


def _step(h_k: int, n_h_k: int, delta_k: int, cit_next: int) -> tuple[int, int]:
    """(h_{k+1}, N_h^{k+1}) from row k, removing cit_{k+1} = ``cit_next``."""
    # on a stay the boundary entry, equal to h_k, re-enters the core.  h_k is
    # reused rather than rebuilt as h_k - 1 + delta_k, which would allocate a
    # new int per row once h exceeds the small-int cache.
    if delta_k:
        return h_k, n_h_k - cit_next + h_k
    return h_k - 1, n_h_k - cit_next


def _walk(profile: CitationProfile) -> Iterator[ShiftedRow]:
    """Ladder rows 0, 1, 2, ... by the recurrences.

    Each row reads rank h_k+k+1 once for its ``delta_k``.  Where a prefix
    cannot certify it, the row carries ``None`` and asking for the next row
    raises ``InsufficientTail``.
    """
    citations = profile.citations
    known = len(citations)
    h_k = suffix_h(citations, 0, profile.complete)
    if h_k == 0:
        raise EmptyCore("h = 0: the shifted ladder is undefined")
    n_h_k = sum(citations[:h_k])
    n_cit_k = profile.n_cit if profile.complete else None
    k = 0
    while True:
        if h_k <= 0:
            raise IndexUnderflow(f"suffix at shift {k} has no cited entries")
        rank = h_k + k + 1
        delta_k: int | None
        if rank <= known:
            delta_k = 1 if citations[rank - 1] == h_k else 0
        elif profile.complete or citations[-1] < h_k:
            delta_k = 0  # every later entry is below h_k
        else:
            delta_k = None
        e_k = math.sqrt(n_h_k - h_k * h_k)
        q_k = 2.0 * n_h_k / (h_k * h_k) - 1.0
        yield ShiftedRow(k, h_k, n_h_k, e_k, q_k, n_cit_k, delta_k)
        if delta_k is None:
            raise InsufficientTail(known, rank, what=f"the value at rank {rank}")
        cit_next = citations[k]
        h_k, n_h_k = _step(h_k, n_h_k, delta_k, cit_next)
        if n_cit_k is not None:
            n_cit_k -= cit_next
        k += 1


def shifted_ladder(profile: CitationProfile, k_max: int) -> list[ShiftedRow]:
    """Rows 0..k_max via the recurrences; each equals direct recomputation."""
    if k_max < 0 or k_max > profile.p - 1:
        raise RankOutOfRange(f"k_max={k_max} outside 0..{profile.p - 1}")
    return list(islice(_walk(profile), k_max + 1))


def _excess_sq(row: ShiftedRow) -> int:
    return row.n_h_k - row.h_k * row.h_k


def _refine_case2(row_d: ShiftedRow, row_d1: ShiftedRow) -> str:
    # thresholds compared on exact integers: e > h+1  <=>  e^2 > (h+1)^2
    prime = "2a" if _excess_sq(row_d) > (row_d.h_k + 1) ** 2 else "2b"
    second = "2c" if (row_d1.h_k - 1) ** 2 > _excess_sq(row_d1) else "2d"
    return f"case{prime}_{second}"


def h_defect(profile: CitationProfile) -> DefectAnalysis:
    """Classify the profile per the four-case defect definition.

    Scans rows k = 0..h.  The first row whose e/h relation flips against
    row 0's fixes d and the case; ties count with row 0's side, so a run may
    pass through e_k = h_k without ending.  The scanned rows 0..d+1 are the
    returned ladder.  Raises ``InsufficientTail`` when a prefix cannot
    certify the scan.
    """
    entries = profile.citations
    walk = _walk(profile)
    rows = [next(walk)]
    h0 = rows[0].h_k
    # row-0 side, on exact integers: e_0 >= h_0  <=>  N_h >= 2 h^2
    above = _excess_sq(rows[0]) >= h0 * h0
    d: int | None = None

    # rows whose suffix has no cited entries have e_k = h_k = 0 and can never
    # cross, so the k <= h scan bound is clamped at the last cited rank.  The
    # h0 top entries are cited, so that rank is h0 exactly when rank h0+1 is
    # uncited: a zero (which bounds everything after it, even in a prefix) or
    # past the end of a complete profile.
    uncited_next = entries[h0] == 0 if h0 < len(entries) else profile.complete
    k_last = h0 - 1 if uncited_next else h0
    for row in islice(walk, k_last):
        rows.append(row)
        ex, hsq = _excess_sq(row), row.h_k * row.h_k
        crossed = (ex < hsq) if above else (ex > hsq)
        if crossed:
            d = row.k - 1
            break

    if d is None:
        d = 0
        ex0 = _excess_sq(rows[0])
        if above:
            tag = "case1a" if ex0 > (h0 + 1) ** 2 else "case1b"
        else:
            tag = "case3a" if ex0 >= (h0 - 1) ** 2 else "case3b"
    else:
        tag = _refine_case2(rows[d], rows[d + 1]) if above else "case4"

    h_d = rows[d].h_k
    # h_{k+1} >= h_k - 1, so h_k + k never decreases along the ladder: the
    # last scanned row read the highest rank, h_k + k + 1
    last = rows[-1]
    return DefectAnalysis(
        d=d,
        case_tag=tag,
        defect_core=entries[:d],
        an_domain=entries[d : d + h_d],
        rows=tuple(rows[: d + 2]),
        ranks_consumed=min(profile.p, last.h_k + last.k + 1),
    )


def check_transition(row_k: ShiftedRow, cit_next: int) -> str:
    """Predicted relation of e_{k+1} to h_{k+1} from row k alone.

    ``cit_next`` is cit_{k+1}, the entry about to be removed; the stay/drop
    branch comes from ``row_k.delta_k``.  Returns ``"below"`` when the next
    excess must fall under the next shifted index, else ``"at_or_above"``.
    The threshold comparison is carried on exact integers.
    """
    if row_k.delta_k is None:
        raise ValueError("row does not carry the stay/drop indicator delta_k")
    next_h, next_n_h = _step(row_k.h_k, row_k.n_h_k, row_k.delta_k, cit_next)
    next_e_sq = next_n_h - next_h * next_h
    return "below" if next_e_sq < next_h * next_h else "at_or_above"
