"""Shifted h-indices, the fast ladder recurrences, and the defect classifier.

The shifted index h_k is the h-index of the profile with its top k entries
removed.  Rows are produced by the constant-work recurrences

    h_{k+1} = h_k            if cit_{h_k+k+1} = h_k, else h_k - 1
    N_h^{k+1} = N_h^{k} - cit_{k+1} + delta_k * cit_{h_k+k+1}

and always agree with direct recomputation from the suffix (the oracle the
test suite enforces).  The stay/drop indicator delta_k comes from one read of
rank h_k+k+1 per row.  One plain loop builds the rows for both callers:
``shifted_ladder`` runs it to a given k, ``h_defect`` until the scan ends,
where one block classifies the scan from the integers the loop held.
The defect d is the removal depth at which the excess e_k first crosses the
shifted index h_k; the crossing direction fixes the case tag consumed by the
estimator module.  The last scanned row's delta_k is never used, so a scan
certifies from ranks up to min(p, h_k+k+1) of the row before it (of row 0
when only row 0 is scanned), reported as ``ranks_consumed``: the shortest
prefix from which this scan certifies (one rank fewer raises
``InsufficientTail``), not always the shortest that fixes the answer.  With
d = 0, fewer ranks fix it for white (21 of 22), kalaj (33 of 38), monkova
(24 of 28), mutafchiev (15 of 19) and spalevic (43 of 54).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DegenerateCore, EmptyCore, InsufficientTail, RankOutOfRange, shown
from .indices import suffix_h
from .profile import CitationProfile

ShiftedRow = namedtuple("ShiftedRow", "k h_k n_h_k e_k q_k n_cit_k")
ShiftedRow.__doc__ = """One ladder row: the shifted index of order k and its core statistics.

``n_cit_k`` (the tail total) is ``None`` when the profile is a prefix.
Whether h stays at the next step shows in the next row:
``rows[k + 1].h_k == rows[k].h_k``.
"""


class DefectAnalysis(namedtuple("DefectAnalysis", "d case_tag rows ranks_consumed")):
    """Defect depth d, its case tag, and the ladder rows 0..d+1.

    ``ranks_consumed`` is the highest rank the classification had to read:
    the shortest prefix from which this scan certifies it (one rank fewer
    raises ``InsufficientTail``), which blind estimation reports back.  The
    scan ends at row 0 when h = 1 and rank 2 is uncited; ``row_d1`` then
    raises ``DegenerateCore``.
    """

    __slots__ = ()

    @property
    def row_d(self) -> ShiftedRow:
        return self.rows[self.d]

    @property
    def row_d1(self) -> ShiftedRow:
        if len(self.rows) == self.d + 1:
            raise DegenerateCore("profile too short: no row beyond the defect depth")
        return self.rows[self.d + 1]


def _ladder(profile: CitationProfile, k_max: int | None) -> list[ShiftedRow] | DefectAnalysis:
    """Ladder rows 0..k_max by the recurrences, or the defect scan's analysis.

    ``k_max`` must be below the last cited rank, which ``shifted_ladder``
    checks: no row checks for h_k = 0.  With ``k_max=None`` the rows run
    until the first one whose e/h side flips against row 0's (ties count
    with row 0's side), else to the last cited rank, and the block after the
    loop classifies where they stopped.  Each row reads rank h_k+k+1 once
    for its stay/drop indicator ``delta_k``.  Where a prefix cannot certify
    it, building the next row raises ``InsufficientTail``.
    """
    citations = profile.citations
    known = len(citations)
    complete = profile.complete
    h_k = suffix_h(citations, complete)
    if h_k == 0:
        raise EmptyCore("h = 0: the shifted ladder is undefined")
    n_h_k = sum(citations[:h_k])
    n_cit_k = profile.n_cit if complete else None
    # row-0 side, on exact integers (ex_k = e_k^2): e_0 >= h_0  <=>  ex_0 >= h_0^2
    h_0, ex_0 = h_k, n_h_k - h_k * h_k
    above = ex_0 >= h_0 * h_0
    scan = k_max is None
    if scan:
        # rows whose suffix has no cited entries have e_k = h_k = 0 and can
        # never cross, so the k <= h scan bound is clamped at the last cited
        # rank.  The h_0 top entries are cited, so that rank is h_0 exactly
        # when rank h_0+1 is uncited: a zero (which bounds everything after
        # it, even in a prefix) or past the end of a complete profile.
        k_max = h_k - 1 if (citations[h_k] == 0 if h_k < known else complete) else h_k
    rows: list[ShiftedRow] = []
    new, sqrt = tuple.__new__, math.sqrt
    k, read = 0, h_k + 1
    while True:
        hsq = h_k * h_k
        ex = n_h_k - hsq
        rank = h_k + k + 1
        if rank <= known:
            delta_k = 1 if citations[rank - 1] == h_k else 0
        elif complete or citations[-1] < h_k:
            delta_k = 0  # every later entry is below h_k
        else:
            delta_k = None
        q_k = 2.0 * n_h_k / hsq - 1.0
        rows.append(new(ShiftedRow, (k, h_k, n_h_k, sqrt(ex), q_k, n_cit_k)))
        if k == k_max or scan and ((ex < hsq) if above else (ex > hsq)):
            break
        if delta_k is None:
            raise InsufficientTail(known, rank, what=f"ladder row {k + 1}")
        read, h_d, ex_d = rank, h_k, ex
        # on a stay the boundary entry, equal to h_k, re-enters the core.  h_k is
        # reused rather than rebuilt as h_k - 1 + delta_k, which would allocate
        # a new int per row once h exceeds the small-int cache
        cit_next = citations[k]
        if delta_k:
            n_h_k += h_k - cit_next
        else:
            h_k -= 1
            n_h_k -= cit_next
        if complete:
            n_cit_k -= cit_next
        k += 1
    if not scan:
        return rows

    # every threshold compared on exact integers: e > h+1  <=>  e^2 > (h+1)^2.
    # The scan ends on the crossing row d+1, where h_d and ex_d are row d's,
    # else at its bound with no crossing
    if (ex < hsq) if above else (ex > hsq):
        d = k - 1
        if above:
            tag = "case2a" if ex_d > (h_d + 1) ** 2 else "case2b"
            tag += "_2c" if (h_k - 1) ** 2 > ex else "_2d"
        else:
            tag = "case4"
    elif above:
        d, tag = 0, "case1a" if ex_0 > (h_0 + 1) ** 2 else "case1b"
    else:
        d, tag = 0, "case3a" if ex_0 >= (h_0 - 1) ** 2 else "case3b"
    # h_{k+1} >= h_k - 1, so h_k + k never decreases along the ladder.  The
    # last row's delta_k builds no row, so the highest rank read is ``read``,
    # the one that built it
    return DefectAnalysis(d, tag, tuple(rows[: d + 2]), min(profile.p, read))


def shifted_ladder(profile: CitationProfile, k_max: int) -> list[ShiftedRow]:
    """Rows 0..k_max via the recurrences; each equals direct recomputation.

    Row k has h_k >= 1 exactly when rank k+1 is cited, so k_max runs up to
    the last cited rank less one (to p - 1 for an uncited profile, which
    raises ``EmptyCore``).
    """
    top = (profile.n_p_plus or profile.p) - 1
    if k_max < 0 or k_max > top:
        raise RankOutOfRange(f"{shown('k_max', k_max)} outside 0..{top}")
    return _ladder(profile, k_max)


def h_defect(profile: CitationProfile) -> DefectAnalysis:
    """Classify the profile per the four-case defect definition.

    Scans rows k = 0..h.  The first row whose e/h relation flips against
    row 0's fixes d and the case; ties count with row 0's side, so a run may
    pass through e_k = h_k without ending.  The scanned rows 0..d+1 are the
    returned ladder.  Raises ``InsufficientTail`` when a prefix cannot
    certify the scan.
    """
    return _ladder(profile, None)
