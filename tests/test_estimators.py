import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from citest import (
    CitationProfile,
    DegenerateCore,
    EmptyCore,
    GroundTruthUnavailable,
    InsufficientTail,
    Interval,
    WrongCase,
    brown_interval,
    compute_core_indices,
    enumerate_partitions,
    error_metrics,
    estimate_report,
    h_defect,
    h_index,
    h_na,
    interval_I,
    interval_J,
    interval_variants,
    normalize,
    shifted_ladder,
    truncate_head,
)

import reference
from conftest import profiles, steep_profiles


def test_h_na_values():
    assert h_na(0) == 0.0
    assert abs(h_na(10000) - 54.04446394667307) < 1e-12
    assert abs(h_na(25005) - 85.461) < 0.005


def test_interval_I_leydesdorff(fixture_profile):
    ci = compute_core_indices(fixture_profile("leydesdorff"))
    band = interval_I(ci.h, ci.q, ci.e_index)
    assert abs(band.lo - 19558.16) < 0.5
    assert abs(band.hi - 23256.68) < 0.5


def test_interval_I_zero_ratio_collapses():
    band = interval_I(10, 0.0, 5.0)
    assert band.lo == band.hi


def test_interval_I_degenerate():
    with pytest.raises(DegenerateCore):
        interval_I(3, 1.0, 0.0)


def test_interval_J_zero_shift_equals_I():
    p = normalize([9, 8, 7, 3, 1])
    rows = shifted_ladder(p, 1)
    band_i = interval_I(rows[0].h_k, rows[0].q_k, rows[0].e_k)
    band_j = interval_J(p, rows[0])
    assert band_j.lo == band_i.lo and band_j.hi == band_i.hi


def test_interval_J_einstein(fixture_profile):
    p = fixture_profile("einstein")
    rows = shifted_ladder(p, 59)
    band = interval_J(p, rows[59])
    assert abs(band.lo - 161903.20) < 0.5
    assert abs(band.hi - 165495.23) < 0.5


def test_interval_J_garfield_26(fixture_profile):
    p = fixture_profile("garfield")
    rows = shifted_ladder(p, 26)
    band = interval_J(p, rows[26])
    assert abs(band.lo - 11019.8) < 1.0
    assert abs(band.hi - 11872.0) < 1.0


@given(profiles(min_size=3, max_size=40))
def test_interval_J_translates_by_head_sum(values):
    p = normalize(list(values))
    assume(h_index(p) >= 2)
    rows = shifted_ladder(p, 1)
    assume(rows[1].n_h_k > rows[1].h_k ** 2)
    band_i = interval_I(rows[1].h_k, rows[1].q_k, rows[1].e_k)
    band_j = interval_J(p, rows[1])
    head = p.citations[0]
    assert band_j.lo == band_i.lo + head
    assert band_j.hi == band_i.hi + head


def test_variants_leydesdorff(fixture_profile):
    v = interval_variants(compute_core_indices(fixture_profile("leydesdorff")))
    assert abs(v.i_mean - 21407.42) < 1.0
    assert abs(v.iq.lo - 21882.74) < 0.5 and abs(v.iq.hi - 26020.85) < 0.5
    assert abs(v.ir.lo - 21827.50) < 0.5 and abs(v.ir.hi - 25412.56) < 0.5
    assert abs(v.iq_prime.lo - 21706.44) < 0.5 and abs(v.iq_prime.hi - 24122.62) < 0.5


def test_variants_garfield_mean(fixture_profile):
    v = interval_variants(compute_core_indices(fixture_profile("garfield")))
    assert abs(v.iq_mean - 9232.29) < 1.0


@given(profiles(min_size=2, max_size=50))
def test_variant_means_equal_midpoints(values):
    p = normalize(list(values))
    assume(h_index(p) >= 1)
    ci = compute_core_indices(p)
    assume(ci.e_index > 0)
    v = interval_variants(ci)
    for band, mean in ((v.i, v.i_mean), (v.iq, v.iq_mean),
                       (v.ir, v.ir_mean), (v.iq_prime, v.iq_prime_mean)):
        assert abs(band.midpoint - mean) <= 1e-9 * max(1.0, abs(mean))


def test_estimate_A_garfield(fixture_profile):
    p = fixture_profile("garfield")
    a_est = estimate_report(p, h_defect(p)).a_est
    assert abs(a_est - 11410.0) < 1.5
    assert abs((p.n_cit - a_est) - 105.0) < 1.5


def test_estimate_A_meyer(fixture_profile):
    p = fixture_profile("meyer")
    a_est = estimate_report(p, h_defect(p)).a_est
    assert abs(a_est - 48907.5) < 5.0
    assert round((p.n_cit - a_est) / p.n_cit, 3) == 0.004


def test_estimate_A_einstein(fixture_profile):
    p = fixture_profile("einstein")
    a_est = estimate_report(p, h_defect(p)).a_est
    assert abs(a_est - 163876.5) < 1.0


@given(profiles(min_size=4, max_size=50))
def test_estimate_A_closed_form(values):
    p = normalize(list(values))
    assume(h_index(p) >= 2)
    want = reference.estimates(p.citations)
    assume(want is not None)
    closed = want["a_est"]
    a_est = estimate_report(p, h_defect(p)).a_est
    assert abs(a_est - closed) <= 1e-9 * max(1.0, abs(closed))


def test_estimate_B_garfield(fixture_profile):
    p = fixture_profile("garfield")
    report = estimate_report(p, h_defect(p))
    assert abs(report.b_prime - 11328.5) < 1.0
    assert abs(report.b_dprime - 11700.5) < 2.0
    assert abs(report.b_est - 11515.45) < 2.0
    assert abs(report.weights.beta_d - 0.448) < 0.001
    assert abs(report.weights.beta_d1 - 0.199) < 0.001


def test_estimate_B_schubert(fixture_profile):
    p = fixture_profile("schubert")
    report = estimate_report(p, h_defect(p))
    assert report.weights.beta_d == 0.0  # e_d = 36 exactly
    assert abs(report.b_prime - 7608.4) < 1.0
    assert abs(report.b_dprime - 7769.2) < 1.0
    assert abs(report.b_est - 7688.8) < 2.0


def test_estimate_B_kalaj(fixture_profile):
    b_est = estimate_report(fixture_profile("kalaj"), h_defect(fixture_profile("kalaj"))).b_est
    assert abs(b_est - 1671.8) < 2.0


def test_estimate_B_monkova(fixture_profile):
    p = fixture_profile("monkova")
    report = estimate_report(p, h_defect(p))
    assert abs(report.b_est - 689.2) < 1.0
    assert abs(report.weights.beta_d - 0.565) < 0.001


def test_estimate_B_case4_mirror():
    p = normalize([7, 7, 7, 5, 1, 1, 1])
    defect = h_defect(p)
    assert defect.case_tag == "case4"
    report = estimate_report(p, defect)
    weights = report.weights
    assert weights.alpha_d + weights.beta_d == pytest.approx(1.0)
    assert weights.alpha_d1 + weights.beta_d1 == pytest.approx(1.0)
    assert report.b_est == pytest.approx((report.b_prime + report.b_dprime) / 2)


@given(profiles(min_size=3, max_size=60))
@settings(max_examples=150)
def test_estimate_B_weights_and_bounds(values):
    p = normalize(list(values))
    assume(h_index(p) >= 2)
    defect = h_defect(p)
    assume(len(defect.rows) >= defect.d + 2)
    row_d, row_d1 = defect.rows[defect.d], defect.rows[defect.d + 1]
    assume(row_d.e_k > 0 and row_d1.e_k > 0)
    report = estimate_report(p, defect)
    b_prime, b_dprime, b_est, weights = report.b_prime, report.b_dprime, report.b_est, report.weights
    for alpha, beta in ((weights.alpha_d, weights.beta_d),
                        (weights.alpha_d1, weights.beta_d1)):
        if alpha is not None and beta is not None:
            assert 0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0
            assert abs(alpha + beta - 1.0) < 1e-12
    j_d = interval_J(p, row_d)
    j_d1 = interval_J(p, row_d1)
    eps = 1e-9
    if b_prime is not None:
        assert j_d.lo - eps <= b_prime <= j_d.hi + eps
        assert j_d1.lo - eps <= b_dprime <= j_d1.hi + eps
        assert b_est == (b_prime + b_dprime) / 2
    elif defect.case_tag == "case3b":
        assert 0 <= b_est <= j_d.hi + eps
    else:
        assert j_d.lo - eps <= b_est <= j_d.hi + eps


@given(steep_profiles())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_blind_estimate_matches_full(values):
    p = normalize(list(values))
    assume(h_index(p) >= 2)
    defect = h_defect(p)
    assume(defect.case_tag.startswith("case2"))
    rank_needed = defect.d + 1 + defect.rows[defect.d + 1].h_k + 1
    assume(rank_needed <= p.p)
    assume(defect.rows[defect.d].e_k > 0 and defect.rows[defect.d + 1].e_k > 0)
    full = estimate_report(p, defect)
    blind = estimate_report(truncate_head(p, rank_needed))
    assert blind.b_est == full.b_est
    assert blind.b_prime == full.b_prime
    assert blind.b_dprime == full.b_dprime
    assert blind.a_est == full.a_est


@pytest.mark.parametrize(
    "name, k",
    [("white", 22), ("kalaj", 38), ("monkova", 28), ("mutafchiev", 19), ("spalevic", 54)],
)
def test_blind_prefix_for_d0_fixtures(fixture_profile, name, k):
    # with d = 0, certifying that no crossing occurs reads past rank
    # d+1+h_{d+1}+1; K is the shortest prefix from which the scan certifies
    p = fixture_profile(name)
    assert h_defect(p).d == 0
    full = estimate_report(p)
    blind = estimate_report(truncate_head(p, k))
    for field in ("d", "case_tag", "j_d", "j_d1", "a_est", "weights", "b_prime", "b_dprime", "b_est"):
        assert getattr(blind, field) == getattr(full, field), field
    assert blind.ranks_consumed <= k
    with pytest.raises(InsufficientTail) as err:
        estimate_report(truncate_head(p, k - 1))
    assert err.value.needed_rank > k - 1


def test_brown_interval_constant_term_only():
    band = brown_interval(0)
    assert abs(band.lo + 1.1172) < 1e-12
    assert abs(band.hi - 1.1172) < 1e-12


def test_brown_interval_formula():
    band = brown_interval(25005)
    root = math.sqrt(25005)
    assert band.midpoint == pytest.approx(0.54 * root)
    assert (band.hi - band.lo) / 2 == pytest.approx(1.96 * (0.57 + 0.045 * root))


def test_arithmetic_progressions_approach_limit():
    for diff in (4, 5, 6):
        k = 800
        a = 1
        values = [a + (k - i) * diff for i in range(1, k + 1)]
        p = normalize(values)
        ratio = h_na(p.n_cit) / h_index(p)
        # the limit of h_NA/h for difference d: 0.5404446 (d+1) / sqrt(2d)
        assert abs(ratio - 0.5404446 * (diff + 1) / math.sqrt(2 * diff)) < 0.05


def test_error_metrics_garfield(fixture_profile):
    p = fixture_profile("garfield")
    report = estimate_report(p)
    metrics = error_metrics(p, report)
    assert abs(metrics.cap_delta_b - (-0.45)) < 2.0
    assert metrics.delta_b == pytest.approx(metrics.cap_delta_b / p.n_cit)
    assert metrics.delta_a == pytest.approx(metrics.cap_delta_a / p.n_cit)


def test_error_metrics_flat_core_gives_a_and_b_errors():
    # e = 0: the interval variants collapse, while A and B exist
    p = normalize([3, 3, 3])
    report = estimate_report(p)
    metrics = error_metrics(p, report)
    assert metrics.cap_delta_a == 9 - report.a_est
    assert metrics.cap_delta_b == 9 - report.b_est
    with pytest.raises(DegenerateCore):
        interval_variants(compute_core_indices(p))


def test_error_metrics_requires_full_profile(fixture_profile):
    p = fixture_profile("garfield")
    report = estimate_report(p)
    with pytest.raises(GroundTruthUnavailable):
        error_metrics(truncate_head(p, 50), report)  # type: ignore[arg-type]


@pytest.mark.parametrize("values", [[], [0, 0, 0]], ids=["empty", "uncited"])
def test_error_metrics_uncited_profile_has_no_core(values):
    # no report, so no error metrics, exists for an uncited profile
    with pytest.raises(EmptyCore):
        estimate_report(normalize(values))


def test_estimate_report_unknown_case_tag():
    profile = normalize([25, 21, 17, 15, 10, 10, 7, 3, 2, 1])
    defect = h_defect(profile)._replace(case_tag="case9")
    with pytest.raises(WrongCase, match="unrecognized case tag 'case9'"):
        estimate_report(profile, defect)


def _check_case4_bounds(values) -> bool:
    """On a case-4 profile, assert that neither of the hard bounds that case 2
    mirrors would apply; return whether the profile is case 4."""
    defect = h_defect(CitationProfile(tuple(values)))
    if defect.case_tag != "case4":
        return False
    row_d, row_d1 = defect.row_d, defect.row_d1
    ex_d = row_d.n_h_k - row_d.h_k**2
    ex_d1 = row_d1.n_h_k - row_d1.h_k**2
    assert (row_d.h_k - 1) ** 2 <= ex_d
    assert ex_d1 <= (row_d1.h_k + 1) ** 2
    return True


def test_case4_never_takes_a_hard_bound():
    # every partition of n <= 30 (n = 0 has no core)
    seen = sum(
        _check_case4_bounds(parts) for n in range(1, 31) for parts in enumerate_partitions(n)
    )
    assert seen == 4476


@given(st.one_of(profiles(), steep_profiles()))
def test_case4_never_takes_a_hard_bound_on_random_profiles(values):
    _check_case4_bounds(values)


def test_estimate_B_case1b():
    # excess starts just above h (within one unit) and never dips below the
    # shifted index, so a single weighted interval carries the estimate
    p = normalize([25, 21, 17, 15, 10, 10, 7])
    defect = h_defect(p)
    assert defect.case_tag == "case1b"
    report = estimate_report(p, defect)
    weights = report.weights
    assert report.b_prime is None and report.b_dprime is None
    assert weights.beta_d == pytest.approx(defect.rows[0].e_k - 7.0)
    j_0 = interval_J(p, defect.rows[0])
    assert report.b_est == pytest.approx(weights.alpha_d * j_0.lo + weights.beta_d * j_0.hi)


def test_interval_containment(fixture_profile):
    # mirrors the published yes/no membership rows
    p = fixture_profile("garfield")
    report = estimate_report(p)
    assert p.n_cit in report.j_d
    assert p.n_cit in report.j_d1
    v = interval_variants(compute_core_indices(p))
    assert p.n_cit not in v.i
    assert p.n_cit in v.iq


def test_interval_contains_both_bounds_and_nothing_past_them():
    band = Interval(2.5, 7.25)
    assert 2.5 in band and 7.25 in band
    assert math.nextafter(2.5, -math.inf) not in band
    assert math.nextafter(7.25, math.inf) not in band
