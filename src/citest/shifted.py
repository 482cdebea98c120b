"""Shifted h-indices, the fast ladder recurrences, and the defect classifier.

The shifted index h_k is the h-index of the profile with its top k entries
removed.  Rows are produced by the constant-work recurrences

    h_{k+1} = h_k            if cit_{h_k+k+1} = h_k, else h_k - 1
    N_h^{k+1} = N_h^{k} - cit_{k+1} + delta_k * cit_{h_k+k+1}

and always agree with direct recomputation from the suffix (the oracle the
test suite enforces).  The defect d is the removal depth at which the excess
e_k first crosses the shifted index h_k; the crossing direction fixes the
case tag consumed by the estimator module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ShiftedRow:
    """One ladder row: the shifted index of order k and its core statistics.

    ``n_cit_k`` (the tail total) and ``delta_k`` (the stay/drop indicator for
    the next step) are ``None`` when the profile is a prefix that cannot pin
    them down.
    """

    k: int
    h_k: int
    n_h_k: int
    e_k: float
    q_k: float
    n_cit_k: int | None = None
    delta_k: int | None = None


@dataclass(frozen=True)
class DefectAnalysis:
    """Defect depth d, its case tag, and the ladder rows 0..d+1.

    ``defect_core`` holds cit_1..cit_d (empty when d = 0); ``an_domain`` the
    h_d entries that follow it.  ``ranks_consumed`` is the highest rank the
    classification had to read, which blind estimation reports back.
    """

    d: int
    case_tag: str
    defect_core: tuple[int, ...]
    an_domain: tuple[int, ...]
    rows: tuple[ShiftedRow, ...]
    ranks_consumed: int = 0

    @property
    def row_d(self) -> ShiftedRow:
        return self.rows[self.d]

    @property
    def row_d1(self) -> ShiftedRow:
        return self.rows[self.d + 1]


class _RankReader:
    """Rank-indexed access to a (possibly partial) citation sequence.

    Records the highest rank consulted so blind estimation can report how
    much of the prefix it consumed.  Reads past the end of a complete
    profile yield 0; past the end of a prefix they raise
    ``InsufficientTail`` unless the monotone bound decides the comparison.
    """

    def __init__(self, citations: tuple[int, ...], complete: bool):
        self.citations = citations
        self.complete = complete
        self.max_rank = 0

    def _touch(self, rank: int) -> None:
        self.max_rank = max(self.max_rank, min(rank, len(self.citations)))

    def value_at(self, rank: int) -> int:
        self._touch(rank)
        if rank <= len(self.citations):
            return self.citations[rank - 1]
        if self.complete:
            return 0
        raise InsufficientTail(len(self.citations), rank, what=f"the value at rank {rank}")

    def equals(self, rank: int, target: int) -> bool:
        """Whether cit_rank == target (target >= 1), certified where possible."""
        self._touch(rank)
        if rank <= len(self.citations):
            return self.citations[rank - 1] == target
        if self.complete:
            return target == 0
        if self.citations and self.citations[-1] < target:
            return False  # later entries are bounded below target
        raise InsufficientTail(len(self.citations), rank, what=f"the value at rank {rank}")


def shifted_h(profile: CitationProfile, k: int) -> int:
    """h-index of the suffix cit_{k+1}..cit_p, computed directly."""
    if k < 0 or k > profile.p - 1:
        raise RankOutOfRange(f"shift k={k} outside 0..{profile.p - 1}")
    return suffix_h(profile.citations, k, profile.complete)


def _make_row(
    k: int,
    h_k: int,
    n_h_k: int,
    n_cit_k: int | None,
    delta_k: int | None,
) -> ShiftedRow:
    if h_k <= 0:
        raise IndexUnderflow(f"suffix at shift {k} has no cited entries")
    e_k = math.sqrt(n_h_k - h_k * h_k)
    q_k = 2.0 * n_h_k / (h_k * h_k) - 1.0
    return ShiftedRow(k=k, h_k=h_k, n_h_k=n_h_k, e_k=e_k, q_k=q_k, n_cit_k=n_cit_k, delta_k=delta_k)


class _LadderWalk:
    """Stateful ladder driven by the recurrences, one row at a time."""

    def __init__(self, profile: CitationProfile):
        self.citations = profile.citations
        self.complete = profile.complete
        self.reader = _RankReader(self.citations, self.complete)
        h0 = suffix_h(self.citations, 0, self.complete)
        if h0 == 0:
            raise EmptyCore("h = 0: the shifted ladder is undefined")
        self.reader._touch(h0 + 1)
        self.k = 0
        self.h_k = h0
        self.n_h_k = sum(self.citations[:h0])
        self.n_cit_k: int | None = sum(self.citations) if self.complete else None

    def delta(self) -> int:
        """Stay/drop indicator for the step k -> k+1."""
        return 1 if self.reader.equals(self.h_k + self.k + 1, self.h_k) else 0

    def row(self) -> ShiftedRow:
        """The current row; ``delta_k`` is ``None`` where a prefix cannot certify it."""
        delta: int | None
        try:
            delta = self.delta()
        except InsufficientTail:
            delta = None
        return _make_row(self.k, self.h_k, self.n_h_k, self.n_cit_k, delta)

    def advance(self) -> None:
        # raises InsufficientTail when a prefix cannot certify the step
        stay = self.delta()
        # when the boundary entry equals h_k it is the value re-entering the core
        self.n_h_k = self.n_h_k - self.reader.value_at(self.k + 1) + (self.h_k if stay else 0)
        if self.n_cit_k is not None:
            self.n_cit_k -= self.citations[self.k]
        self.h_k = self.h_k if stay else self.h_k - 1
        self.k += 1


def shifted_ladder(profile: CitationProfile, k_max: int) -> list[ShiftedRow]:
    """Rows 0..k_max via the recurrences; each equals direct recomputation."""
    if k_max < 0 or k_max > profile.p - 1:
        raise RankOutOfRange(f"k_max={k_max} outside 0..{profile.p - 1}")
    walk = _LadderWalk(profile)
    rows = [walk.row()]
    while walk.k < k_max:
        walk.advance()
        rows.append(walk.row())
    return rows


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
    walk = _LadderWalk(profile)
    rows = [walk.row()]
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
    while walk.k < k_last:
        walk.advance()
        row = walk.row()
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
    return DefectAnalysis(
        d=d,
        case_tag=tag,
        defect_core=entries[:d],
        an_domain=entries[d : d + h_d],
        rows=tuple(rows[: d + 2]),
        ranks_consumed=walk.reader.max_rank,
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
    e_sq = row_k.n_h_k - row_k.h_k * row_k.h_k
    if row_k.delta_k == 1:
        next_e_sq = e_sq - cit_next + row_k.h_k
        next_h = row_k.h_k
    else:
        next_e_sq = e_sq - cit_next + 2 * row_k.h_k - 1
        next_h = row_k.h_k - 1
    return "below" if next_e_sq < next_h * next_h else "at_or_above"
