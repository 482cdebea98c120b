"""Differential oracle for the ladder, the defect scan and blind estimation.

The reference below recomputes every ladder row from its suffix by brute
force, finds the crossing row by brute force over k <= h and derives the
case tag from the exact-integer inequalities.  It uses no citest helper, so
it shares no code with the recurrences it checks.
"""

import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from citest import (
    DegenerateCore,
    InsufficientTail,
    estimate_report,
    h_defect,
    normalize,
    truncate_head,
)

from conftest import profiles, steep_profiles


def _h(values):
    """h-index of a non-increasing sequence."""
    return max((m for m in range(1, len(values) + 1) if values[m - 1] >= m), default=0)


def _suffix_stats(values, k):
    suffix = values[k:]
    h = _h(suffix)
    return h, sum(suffix[:h]), sum(suffix)


def reference_defect(values):
    """(rows 0..d+1, d, case tag) from the definitions; rows are plain tuples."""
    h0 = _h(values)
    stats = [_suffix_stats(values, k) for k in range(min(h0 + 1, len(values)) + 1)]
    ex_sq = [n_h - h * h for h, n_h, _ in stats]
    above = ex_sq[0] >= h0 * h0
    d = None
    for k in range(1, h0 + 1):
        h_k = stats[k][0]
        if (ex_sq[k] < h_k * h_k) if above else (ex_sq[k] > h_k * h_k):
            d = k - 1
            break
    if d is None:
        d = 0
        if above:
            tag = "case1a" if ex_sq[0] > (h0 + 1) ** 2 else "case1b"
        else:
            tag = "case3a" if ex_sq[0] >= (h0 - 1) ** 2 else "case3b"
    elif above:
        h_d, h_d1 = stats[d][0], stats[d + 1][0]
        prime = "2a" if ex_sq[d] > (h_d + 1) ** 2 else "2b"
        second = "2c" if (h_d1 - 1) ** 2 > ex_sq[d + 1] else "2d"
        tag = f"case{prime}_{second}"
    else:
        tag = "case4"
    rows = []
    for k in range(d + 2):
        h, n_h, n_cit = stats[k]
        if h == 0:
            break  # a suffix with no cited entry has no ladder row
        # delta_k says whether the shifted index stays at the next removal
        delta = 1 if stats[k + 1][0] == h else 0
        rows.append((k, h, n_h, n_cit, delta, math.sqrt(n_h - h * h), 2.0 * n_h / (h * h) - 1.0))
    return rows, d, tag


# fields a prefix cannot know: they need the total, which only a full profile has
_TOTAL_FIELDS = ("h_na", "h_na_d", "h_na_d1")


def _shared(report):
    return {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.name not in _TOTAL_FIELDS and f.name != "ranks_consumed"
    }


@given(st.one_of(profiles(min_size=1, max_size=60), steep_profiles()))
@settings(max_examples=120, deadline=None)
def test_ladder_and_defect_match_reference(values):
    profile = normalize(list(values))
    defect = h_defect(profile)
    rows, d, tag = reference_defect(profile.citations)
    assert (defect.d, defect.case_tag) == (d, tag)
    got = [(r.k, r.h_k, r.n_h_k, r.n_cit_k, r.delta_k, r.e_k, r.q_k) for r in defect.rows]
    assert got == rows


@given(st.one_of(profiles(min_size=3, max_size=60), steep_profiles()))
@settings(max_examples=120, deadline=None)
def test_every_prefix_certifies_or_names_a_missing_rank(values):
    profile = normalize(list(values))
    try:
        full = estimate_report(profile)
    except DegenerateCore:
        return  # no estimate exists for the full profile either
    expected = _shared(full)
    for m in range(profile.p + 1):
        try:
            blind = estimate_report(truncate_head(profile, m))
        except InsufficientTail as exc:
            assert exc.needed_rank > m
            assert m < full.ranks_consumed  # the prefix the full run read certifies
            continue
        assert _shared(blind) == expected
        assert blind.ranks_consumed <= m
        if m < profile.p:
            assert all(getattr(blind, name) is None for name in _TOTAL_FIELDS)
        else:
            assert blind == full
