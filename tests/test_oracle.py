"""Differential oracle for the ladder, the defect scan, the estimators and
blind estimation.

The reference below recomputes every ladder row from its suffix by brute
force, finds the crossing row by brute force over k <= h and derives the
case tag from the exact-integer inequalities.  It then builds the intervals
I_k and J_k, the estimates A', A, B', B'', B and the case weights from the
paper's formulas.  It uses no citest helper, so it shares no code with the
recurrences and the estimator arithmetic it checks.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citest import (
    DegenerateCore,
    InsufficientTail,
    estimate_report,
    h_defect,
    interval_I,
    normalize,
    truncate_head,
)

from conftest import FIXTURES, profiles, steep_profiles


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


# the square-root law's coefficient sqrt(6)*ln(2)/pi, from its definition
MODE_COEFF = math.sqrt(6) * math.log(2) / math.pi


def _interval(h, e, q):
    """I = ((h*(1 - q/e)/c)^2, (h*(1 + q/e)/c)^2) for one ladder row."""
    x = q / e
    return ((h * (1 - x) / MODE_COEFF) ** 2, (h * (1 + x) / MODE_COEFF) ** 2)


def _at(band, t):
    """The point a fraction t of the way from a band's lower to its upper bound."""
    lo, hi = band
    return lo + t * (hi - lo)


def _frac(x):
    return x - math.floor(x)


def reference_estimates(values):
    """Intervals, A and B of a full profile by the paper's formulas.

    Returns a dict keyed like ``EstimateReport`` fields, with intervals as
    (lo, hi) pairs and the weights as a dict, or ``None`` when rows d and
    d+1 do not both exist with e > 0, so an interval collapses.
    """
    rows, d, tag = reference_defect(values)
    if len(rows) < d + 2 or rows[d][5] == 0 or rows[d + 1][5] == 0:
        return None
    (_, h0, nh0, _, _, e0, q0), (_, h1, nh1, _, _, e1, q1) = rows[d], rows[d + 1]
    head0, head1 = sum(values[:d]), sum(values[: d + 1])
    i0, i1 = _interval(h0, e0, q0), _interval(h1, e1, q1)
    j0 = (i0[0] + head0, i0[1] + head0)
    j1 = (i1[0] + head1, i1[1] + head1)
    # midpoint of I in closed form: h^2*(1 + (q/e)^2)/c^2
    a_prime = ((h0 / MODE_COEFF) ** 2 * (1 + (q0 / e0) ** 2)
               + (h1 / MODE_COEFF) ** 2 * (1 + (q1 / e1) ** 2)) / 2
    out = {
        "d": d, "case_tag": tag, "head_sum_d": head0, "head_sum_d1": head1,
        "i_d": i0, "i_d1": i1, "j_d": j0, "j_d1": j1,
        "a_prime": a_prime, "a_est": a_prime + (head0 + head1) / 2,
        "b_prime": None, "b_dprime": None,
    }
    w0, w1 = _frac(e0), _frac(e1)
    if tag == "case1a":
        # both upper bounds
        out["weights"] = {"alpha_d": 0.0, "beta_d": 1.0, "alpha_d1": 0.0, "beta_d1": 1.0}
        out["b_prime"], out["b_dprime"] = j0[1], j1[1]
    elif tag in ("case1b", "case3a"):
        # one interval; case 1b sits the fractional part of e_d up from the
        # lower bound, case 3a the same distance down from the upper bound
        out["weights"] = {"alpha_d": 1 - w0, "beta_d": w0}
        out["b_est"] = _at(j0, w0 if tag == "case1b" else 1 - w0)
    elif tag == "case3b":
        out["weights"] = {"beta_d": w0}
        out["b_est"] = w0 * j0[1]
    elif tag.startswith("case2"):
        # B' is the upper bound of J_d in 2a, else the point w0 up from its
        # lower bound; B'' is the lower bound of J_{d+1} in 2c, else the
        # point w1 down from its upper bound
        beta0 = 1.0 if "2a" in tag else w0
        beta1 = 0.0 if "2c" in tag else w1
        out["weights"] = {"alpha_d": 1 - beta0, "beta_d": beta0,
                          "alpha_d1": 1 - beta1, "beta_d1": beta1}
        out["b_prime"] = j0[1] if "2a" in tag else _at(j0, w0)
        out["b_dprime"] = j1[0] if "2c" in tag else _at(j1, 1 - w1)
    else:
        # case 4 mirrors case 2 on the excess e^2 = n_h - h^2: B' is the lower
        # bound of J_d when (h_d - 1)^2 > e_d^2, else the point w0 down from
        # its upper bound; B'' is the upper bound of J_{d+1} when
        # e_{d+1}^2 > (h_{d+1} + 1)^2, else the point w1 up from its lower bound
        low0 = (h0 - 1) ** 2 > nh0 - h0 * h0
        high1 = nh1 - h1 * h1 > (h1 + 1) ** 2
        alpha0 = 1.0 if low0 else w0
        alpha1 = 0.0 if high1 else w1
        out["weights"] = {"alpha_d": alpha0, "beta_d": 1 - alpha0,
                          "alpha_d1": alpha1, "beta_d1": 1 - alpha1}
        out["b_prime"] = j0[0] if low0 else _at(j0, 1 - w0)
        out["b_dprime"] = j1[1] if high1 else _at(j1, w1)
    if out["b_prime"] is not None:
        out["b_est"] = (out["b_prime"] + out["b_dprime"]) / 2
    return out


def _close(got, want):
    if want is None or isinstance(want, (int, str)):
        return got == want
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(_close, got, want))
    return got is not None and math.isclose(got, want, rel_tol=1e-12)


def _check_estimates(values):
    profile = normalize(list(values))
    want = reference_estimates(profile.citations)
    if want is None:
        with pytest.raises(DegenerateCore):
            estimate_report(profile)
        return
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
    rows, _, _ = reference_defect(profile.citations)
    for _, h, _, _, _, e, q in rows:
        if e > 0:
            band = interval_I(h, q, e)
            assert _close((band.lo, band.hi), _interval(h, e, q))


@given(st.one_of(profiles(min_size=1, max_size=60), steep_profiles()))
@example((25, 21, 17, 15, 10, 10, 7))  # case 1b
@example((4, 2, 0))  # case 3a
@example((7, 7, 7, 5, 1, 1, 1))  # case 4
@settings(max_examples=200, deadline=None)
def test_estimates_match_reference(values):
    _check_estimates(values)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.csv")), ids=lambda path: path.stem)
def test_fixture_estimates_match_reference(fixture_profile, path):
    _check_estimates(fixture_profile(path.stem).citations)


# fields a prefix cannot know: they need the total, which only a full profile has
_TOTAL_FIELDS = ("h_na", "h_na_d", "h_na_d1")


def _shared(report):
    return {
        name: getattr(report, name)
        for name in report._fields
        if name not in _TOTAL_FIELDS and name != "ranks_consumed"
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
