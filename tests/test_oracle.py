"""Differential oracle for the ladder, the defect scan, the estimators and
blind estimation, against the brute-force reference in ``reference.py``.

Hypothesis draws profiles of up to 60 ranks; one sweep checks every
partition of n <= 24, with and without two uncited ranks, including the
shortest prefix from which the scan certifies each estimate.  Another checks
that a prefix which certifies agrees with every way the profile can go on,
not only with the true tail.
"""

import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citest import (
    DegenerateCore,
    EmptyCore,
    EstimateReport,
    InsufficientTail,
    enumerate_partitions,
    estimate_report,
    h_defect,
    interval_I,
    normalize,
    truncate_head,
)

import reference
from conftest import FIXTURES, profiles, steep_profiles


def _close(got, want):
    if want is None or isinstance(want, (int, str)):
        return got == want
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_close, got, want))
    return got is not None and math.isclose(got, want, rel_tol=1e-12)


def _check_estimates(profile):
    """The profile's estimate report, checked field by field against the
    reference; ``None`` when both find no estimate."""
    want = reference.estimates(profile.citations)
    if want is None:
        with pytest.raises(DegenerateCore):
            estimate_report(profile)
        return None
    report = estimate_report(profile)
    for name, expected in want.items():
        got = getattr(report, name)
        if name == "weights":
            got = {k: v for k, v in got._asdict().items() if v is not None}
            assert got.keys() == expected.keys(), name
            assert all(_close(got[k], expected[k]) for k in expected), (name, got, expected)
        else:
            if hasattr(got, "lo"):
                got = (got.lo, got.hi)
            assert _close(got, expected), (name, got, expected)
    # a hard bound is the bound itself, bit for bit
    tag = report.case_tag
    if tag == "case1a":
        assert (report.b_prime, report.b_dprime) == (report.j_d.hi, report.j_d1.hi)
    if tag.startswith("case2a"):
        assert report.b_prime == report.j_d.hi
    if tag.endswith("_2c"):
        assert report.b_dprime == report.j_d1.lo
    for _, h, _, _, e, q in reference.defect(profile.citations)[0]:
        if e > 0:
            band = interval_I(h, q, e)
            assert _close((band.lo, band.hi), reference.interval(h, e, q))
    return report


def _check_ladder_and_defect(profile):
    defect = h_defect(profile)
    rows, d, tag = reference.defect(profile.citations)
    assert (defect.d, defect.case_tag) == (d, tag)
    assert [(r.k, r.h_k, r.n_h_k, r.n_cit_k, r.e_k, r.q_k) for r in defect.rows] == rows


def _check_smallest_prefix(profile, full):
    """The full run read the shortest prefix from which the scan certifies:
    that prefix gives the same report, and one rank less names the rank it
    lacks."""
    assert full.ranks_consumed == reference.prefix(profile.citations)
    assert estimate_report(truncate_head(profile, full.ranks_consumed)) == full
    with pytest.raises(InsufficientTail) as shorter:
        estimate_report(truncate_head(profile, full.ranks_consumed - 1))
    assert shorter.value.needed_rank == full.ranks_consumed


@given(st.one_of(profiles(min_size=1, max_size=60), steep_profiles()))
@example((25, 21, 17, 15, 10, 10, 7))  # case 1b
@example((4, 2, 0))  # case 3a
@example((7, 7, 7, 5, 1, 1, 1))  # case 4
@settings(max_examples=200, deadline=None)
def test_estimates_match_reference(values):
    _check_estimates(normalize(list(values)))


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.csv")), ids=lambda path: path.stem)
def test_fixture_estimates_match_reference(fixture_profile, path):
    _check_estimates(fixture_profile(path.stem))


@given(st.one_of(profiles(min_size=1, max_size=60), steep_profiles()))
@settings(max_examples=120, deadline=None)
def test_ladder_and_defect_match_reference(values):
    _check_ladder_and_defect(normalize(list(values)))


@given(st.one_of(profiles(min_size=3, max_size=60), steep_profiles()))
@settings(max_examples=120, deadline=None)
def test_every_prefix_certifies_or_names_a_missing_rank(values):
    profile = normalize(list(values))
    try:
        full = estimate_report(profile)
    except DegenerateCore:
        return  # no estimate exists for the full profile either
    for m in range(profile.p + 1):
        try:
            blind = estimate_report(truncate_head(profile, m))
        except InsufficientTail as exc:
            assert exc.needed_rank > m
            assert m < full.ranks_consumed  # the prefix the full run read certifies
            continue
        # every field, the prefix read included, is certified bit-for-bit
        assert blind == full
        assert blind.ranks_consumed <= m
    _check_smallest_prefix(profile, full)


def test_every_partition_up_to_24_matches_the_reference():
    outcomes = Counter()
    for n in range(1, 25):
        for parts in enumerate_partitions(n):
            for values in (parts, parts + (0, 0)):
                profile = normalize(list(values))
                _check_ladder_and_defect(profile)
                full = _check_estimates(profile)
                if full is None:
                    outcomes["DegenerateCore"] += 1
                    continue
                outcomes[full.case_tag] += 1
                _check_smallest_prefix(profile, full)
    # pinned, so that a sweep which skips profiles fails; case2a_2c first
    # occurs above n = 24 (the fixtures and the hypothesis tests reach it)
    assert outcomes == {
        "DegenerateCore": 5350, "case1a": 462, "case1b": 378, "case2a_2d": 570,
        "case2b_2c": 140, "case2b_2d": 2312, "case3a": 2060, "case3b": 926, "case4": 2476,
    }


def _outcome(profile):
    """The profile's estimate report, or the type of the error that says it has none."""
    try:
        return estimate_report(profile)
    except (DegenerateCore, EmptyCore) as exc:
        return type(exc)


def test_every_completion_of_a_certified_prefix_agrees():
    # every distinct prefix, ending at a value c_K <= 5, of a partition of n <= 24
    prefixes = {parts[:k] for n in range(1, 25) for parts in enumerate_partitions(n)
                for k in range(1, len(parts) + 1) if parts[k - 1] <= 5}
    counts = Counter()
    for prefix in sorted(prefixes):
        k = len(prefix)
        # cut from a longer profile: truncate_head(normalize(prefix), k) is complete
        try:
            want = _outcome(truncate_head(normalize([*prefix, 0]), k))
        except InsufficientTail:
            counts["InsufficientTail"] += 1
            continue
        counts["estimate" if isinstance(want, EstimateReport) else want.__name__] += 1
        # every tail with values <= c_K, out to rank 2h_0+2: no ladder row reads
        # past rank 2h_0+1, and the empty tail is the prefix as a full profile
        for tail in reference.completions(prefix[-1], max(0, 2 * reference.h(prefix) + 2 - k)):
            counts["completions"] += 1
            assert _outcome(normalize([*prefix, *tail])) == want, (prefix, tail)
    # pinned, so that a grid which skips prefixes or tails fails
    assert counts == {
        "InsufficientTail": 495, "estimate": 4119, "DegenerateCore": 2631, "completions": 35139,
    }
