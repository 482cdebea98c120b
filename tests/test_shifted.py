import pytest
from hypothesis import given, settings

from citest import (
    DegenerateCore,
    EmptyCore,
    InsufficientTail,
    RankOutOfRange,
    enumerate_partitions,
    h_defect,
    h_index,
    normalize,
    shifted_ladder,
    truncate_head,
)

import reference
from conftest import FIXTURES, profiles


def test_ladder_small_example():
    # every row of the recurrence ladder must match the direct suffix values
    p = normalize([5, 4, 3, 2, 1])
    rows = shifted_ladder(p, 4)
    for row in rows:
        assert (row.k, row.h_k, row.n_h_k) == reference.row(p.citations, row.k)[:3]
    assert [r.h_k for r in rows] == [3, 2, 2, 1, 1]


def test_ladder_garfield_row_25(fixture_profile):
    rows = shifted_ladder(fixture_profile("garfield"), 25)
    row = rows[25]
    assert row.h_k == 21
    assert row.n_h_k == 901
    assert abs(row.e_k - 21.448) < 0.002
    assert abs(row.q_k - 3.086) < 0.002


def test_ladder_einstein_row_59(fixture_profile):
    assert shifted_ladder(fixture_profile("einstein"), 59)[59].h_k == 87


def test_ladder_kim_row_14(fixture_profile):
    assert shifted_ladder(fixture_profile("kim"), 14)[14].h_k == 332


def test_ladder_leydesdorff_row_3(fixture_profile):
    # the published chain for this researcher used a one-short core window;
    # the faithful 78-wide window gives these values
    rows = shifted_ladder(fixture_profile("leydesdorff"), 3)
    assert rows[3].h_k == 78
    assert rows[3].n_h_k == 12362


@given(profiles(min_size=1, max_size=50))
@settings(max_examples=150)
def test_ladder_matches_direct(values):
    p = normalize(list(values))
    positive = sum(1 for v in values if v > 0)
    if positive == 0:
        return
    k_max = positive - 1
    rows = shifted_ladder(p, k_max)
    for row in rows:
        assert (row.k, row.h_k, row.n_h_k, row.n_cit_k) == reference.row(p.citations, row.k)[:4]


@given(profiles(min_size=2, max_size=50))
def test_monotone_step(values):
    p = normalize(list(values))
    positive = sum(1 for v in values if v > 0)
    if positive < 2:
        return
    rows = shifted_ladder(p, positive - 1)
    for a, b in zip(rows, rows[1:]):
        assert b.h_k in (a.h_k - 1, a.h_k)
        # the step stays flat exactly when the boundary entry equals h_k
        boundary = p.citations[a.h_k + a.k] if a.h_k + a.k < p.p else 0
        assert (b.h_k == a.h_k) == (boundary == a.h_k)


@given(profiles(min_size=2, max_size=50))
def test_excess_step_signs(values):
    p = normalize(list(values))
    positive = sum(1 for v in values if v > 0)
    if positive < 2:
        return
    rows = shifted_ladder(p, positive - 1)
    for a, b in zip(rows, rows[1:]):
        removed = p.citations[a.k]
        if b.h_k == a.h_k:
            assert b.e_k <= a.e_k + 1e-12
        elif removed >= 2 * a.h_k - 1:
            assert b.e_k <= a.e_k + 1e-12
        else:
            assert b.e_k > a.e_k - 1e-12


@given(profiles(min_size=1, max_size=50))
@settings(max_examples=150)
def test_ladder_agrees_with_defect_scan(values):
    # shifted_ladder and h_defect build their rows with one loop; rows 0..k
    # of the scan (k <= d+1) are the ladder up to k, on the profile and on
    # the prefix the scan certifies from
    p = normalize(list(values))
    for profile in (p, truncate_head(p, h_defect(p).ranks_consumed)):
        defect = h_defect(profile)
        for k in range(len(defect.rows)):
            assert shifted_ladder(profile, k) == list(defect.rows[: k + 1])


def test_ladder_out_of_range():
    p = normalize([9, 7, 5])
    with pytest.raises(RankOutOfRange, match="k_max=3 outside 0..2"):
        shifted_ladder(p, p.p)
    with pytest.raises(RankOutOfRange, match="k_max=-1 outside 0..2"):
        shifted_ladder(p, -1)


def test_defect_einstein(fixture_profile):
    d = h_defect(fixture_profile("einstein"))
    assert d.d == 59
    assert d.row_d.e_k > d.row_d.h_k
    assert d.row_d1.e_k < d.row_d1.h_k


def test_defect_garfield(fixture_profile):
    d = h_defect(fixture_profile("garfield"))
    assert d.d == 25
    assert d.case_tag.startswith("case2")


def test_defect_white_case_1a(fixture_profile):
    d = h_defect(fixture_profile("white"))
    assert d.d == 0
    assert d.case_tag == "case1a"


def test_defect_spalevic_case_3b(fixture_profile):
    d = h_defect(fixture_profile("spalevic"))
    assert d.d == 0
    assert d.case_tag == "case3b"


def test_defect_kalaj_case_3a(fixture_profile):
    assert h_defect(fixture_profile("kalaj")).case_tag == "case3a"


def test_defect_moed_depth_7(fixture_profile):
    # the published chain sums for this researcher certify depth 7
    d = h_defect(fixture_profile("moed"))
    assert d.d == 7
    assert d.row_d.n_h_k == 3998
    assert d.row_d1.n_h_k == 3794


def test_defect_schubert_tie_stays_in_run(fixture_profile):
    # e_d equals h_d exactly (36); ties continue the above-side run
    d = h_defect(fixture_profile("schubert"))
    assert d.d == 9
    assert d.row_d.e_k == 36.0


def test_case4_synthetic():
    # e starts below h and crosses above after one removal
    p = normalize([7, 7, 7, 5, 1, 1, 1])
    d = h_defect(p)
    assert d.case_tag == "case4"
    assert d.d == 0


@given(profiles(min_size=1, max_size=60))
def test_defect_bounds(values):
    p = normalize(list(values))
    if h_index(p) == 0:
        return
    d = h_defect(p)
    assert 0 <= d.d <= h_index(p)
    assert len(d.rows) >= d.d + 1


def test_ladder_past_last_cited_rank_raises():
    # rows 0 and 1 have h = 1; removing the second entry leaves no cited one
    p = normalize([3, 1, 0, 0])
    assert [row.h_k for row in shifted_ladder(p, 1)] == [1, 1]
    with pytest.raises(RankOutOfRange, match="k_max=2 outside 0..1"):
        shifted_ladder(p, 2)


def _ladder_outcome(profile, k):
    try:
        return shifted_ladder(profile, k)
    except InsufficientTail:
        return InsufficientTail


def test_ladder_range_is_the_cited_ranks():
    # every partition of n <= 12, with and without two uncited ranks, whole
    # and at every prefix: rows 0..top exist (top + 1 is the last cited
    # rank, or p for an uncited profile) and row top + 1 is out of range
    for n in range(13):
        for parts in enumerate_partitions(n):
            for values in (parts, parts + (0, 0)):
                full = normalize(list(values))
                direct = [reference.row(full.citations, k) for k in range(full.p)]
                for m in range(full.p + 1):
                    head = truncate_head(full, m)
                    top = (sum(1 for v in head.citations if v) or m) - 1
                    certified = True
                    for k in range(top + 1):
                        if n == 0:
                            with pytest.raises(EmptyCore):
                                shifted_ladder(head, k)
                            continue
                        rows = _ladder_outcome(head, k)
                        if rows is InsufficientTail:
                            # a prefix that cannot certify row k cannot certify row k + 1
                            assert not head.complete
                            certified = False
                            continue
                        assert certified, (values, m, k)
                        assert [r[:3] for r in rows] == [r[:3] for r in direct[: k + 1]]
                        assert rows[-1].h_k >= 1
                    with pytest.raises(RankOutOfRange, match=f"k_max={top + 1} outside 0..{top}$"):
                        shifted_ladder(head, top + 1)


def test_insufficient_tail_raises():
    p = normalize([50, 40, 30, 20, 10, 5, 4, 3, 2, 1])
    head = truncate_head(p, 3)
    with pytest.raises(InsufficientTail):
        h_defect(head)


def test_prefix_certified_defect_matches_full(fixture_profile):
    # every prefix from ranks_consumed on, up to twice it and the whole
    # profile, gives the full scan's answer; one rank fewer names the rank
    for name in sorted(path.stem for path in FIXTURES.glob("*.csv")):
        p = fixture_profile(name)
        full = h_defect(p)
        needed = full.ranks_consumed
        for k in {*range(needed, min(p.p, 2 * needed) + 1), p.p}:
            blind = h_defect(truncate_head(p, k))
            assert (blind.d, blind.case_tag, blind.ranks_consumed) == (
                full.d, full.case_tag, needed), (name, k)
            # n_cit_k is None on a prefix
            assert [r[:5] for r in blind.rows] == [r[:5] for r in full.rows], (name, k)
        with pytest.raises(InsufficientTail) as shorter:
            h_defect(truncate_head(p, needed - 1))
        assert shorter.value.needed_rank == needed, name


def test_defect_without_row_d1_raises_degenerate_core():
    # h = 1 and rank 2 uncited: the scan ends at row 0
    defect = h_defect(normalize([5]))
    assert (defect.d, len(defect.rows)) == (0, 1)
    with pytest.raises(DegenerateCore, match="^profile too short: no row beyond the defect depth$"):
        defect.row_d1
