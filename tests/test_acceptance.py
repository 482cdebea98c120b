"""Acceptance suite: every criterion at its stated tolerance, one line each."""

import math
import random
from collections import Counter

import pytest

from citest import (
    Interval,
    brown_interval,
    compute_core_indices,
    count_by_durfee,
    durfee_moment_estimates,
    durfee_size,
    enumerate_partitions,
    estimate_report,
    h_defect,
    h_index,
    h_na,
    interval_variants,
    normalize,
    partition_count,
    shifted_ladder,
    truncate_head,
)
from citest.refdata import REDUCED_DISPERSION_SLOPE, TABLE8
import reference


def report(line):
    print(f"ACCEPTANCE PASS: {line}")


def test_criterion_1_leydesdorff_row(fixture_profile):
    p = fixture_profile("leydesdorff")
    ci = compute_core_indices(p)
    assert ci.h == 79
    assert abs(h_na(p.n_cit) - 85.461) <= 0.005
    assert abs(ci.e_index - 105.447) <= 0.005
    assert abs(ci.q - 4.563) <= 0.001
    v = interval_variants(ci)
    assert abs(v.i_mean - 21407.42) <= 1.0
    for band, want in ((v.iq, (21882.74, 26020.85)),
                       (v.ir, (21827.50, 25412.56)),
                       (v.iq_prime, (21706.44, 24122.62))):
        assert abs(band.lo - want[0]) <= 0.5
        assert abs(band.hi - want[1]) <= 0.5
    report("criterion 1 (index row reproduction: h, h_NA, e, q, interval family)")


def test_criterion_2_garfield_chain(fixture_profile):
    p = fixture_profile("garfield")
    defect = h_defect(p)
    assert defect.d == 25
    assert defect.row_d.h_k == 21
    assert abs(defect.row_d.e_k - 21.448) <= 0.002
    assert abs(defect.row_d.q_k - 3.086) <= 0.002
    rep = estimate_report(p, defect)
    assert abs(rep.j_d.lo - 10939.5) <= 1.0
    assert abs(rep.j_d.hi - 11808.6) <= 1.0
    assert abs(rep.b_prime - 11328.5) <= 1.0
    assert abs(rep.b_dprime - 11700.5) <= 2.0
    assert abs(rep.b_est - 11515.45) <= 2.0
    report("criterion 2 (defect chain: d, h_d, e_d, q_d, J_d, B', B'', B)")


def test_criterion_3_case_coverage(fixture_profile):
    schubert = estimate_report(fixture_profile("schubert"))
    assert schubert.case_tag == "case2b_2c"
    assert schubert.weights.beta_d == 0.0
    assert abs(schubert.b_est - 7688.8) <= 2.0

    kalaj = estimate_report(fixture_profile("kalaj"))
    assert kalaj.case_tag == "case3a"
    assert abs(kalaj.b_est - 1671.8) <= 2.0

    monkova = estimate_report(fixture_profile("monkova"))
    assert monkova.case_tag == "case3b"
    assert abs(monkova.b_est - 689.2) <= 1.0

    mutafchiev = estimate_report(fixture_profile("mutafchiev"))
    assert mutafchiev.case_tag == "case3b"
    assert abs(mutafchiev.b_est - 275.4) <= 1.0

    white = estimate_report(fixture_profile("white"))
    assert white.case_tag == "case1a"
    assert abs(white.b_est - 2399.75) <= 0.005 * 2399.75

    rousseau = estimate_report(fixture_profile("rousseau"))
    assert rousseau.case_tag == "case2a_2c"
    assert rousseau.b_prime == rousseau.j_d.hi  # hard upper-bound branch
    report("criterion 3 (case coverage: 2b/2c beta=0, 3a, 3b x2, 1a, 2a branch)")


@pytest.mark.xfail(
    strict=True,
    reason="published cell adds the head sum twice: the printed 10003.4 equals "
    "hi(I_d) + 2*1534 under the row's own ratio; the faithful upper J_d bound "
    "is 8483.4 and no consistent computation reaches the printed value",
)
def test_criterion_3_rousseau_printed_b_prime(fixture_profile):
    rousseau = estimate_report(fixture_profile("rousseau"))
    assert abs(rousseau.b_prime - 10003.4) <= 1.0


def test_criterion_4_worked_equalities(fixture_profile):
    einstein = h_defect(fixture_profile("einstein"))
    assert abs(einstein.row_d.e_k - 88.27230596285564) <= 1e-9
    assert einstein.d == 59

    kim = h_defect(fixture_profile("kim"))
    assert kim.d == 13
    assert abs(kim.row_d.e_k - 333.80383460949037) <= 1e-9
    assert abs(kim.row_d1.e_k - 331.052865868882) <= 1e-9

    kessler = h_defect(fixture_profile("kessler"))
    assert kessler.d == 94
    report("criterion 4 (worked equalities: e_59, e_13, e_14 at 1e-9; depths 59/13/94)")


def test_criterion_5_brown_bands():
    reduced_hits = standard_hits = 0
    excluded = []
    for name, n_cit, printed, category, note in TABLE8:
        if category == "defective":
            excluded.append(name)
            continue
        if category == "standard":
            band = brown_interval(n_cit)
            standard_hits += 1
        else:
            # recorded anomaly: these published rows carry a dispersion slope
            # ten times smaller than the stated formula
            root = math.sqrt(n_cit)
            half = 1.96 * (0.57 + REDUCED_DISPERSION_SLOPE * root)
            band = Interval(0.54 * root - half, 0.54 * root + half)
            reduced_hits += 1
        assert abs(band.lo - printed[0]) <= 0.1, name
        assert abs(band.hi - printed[1]) <= 0.1, name
    assert standard_hits == 24 and reduced_hits == 10
    assert excluded == [
        "martin", "narin", "ingwersen", "gauss", "andrews_s", "spalevic", "yong",
    ]
    report(
        "criterion 5 (41 bands: 24 per formula, 10 per recorded reduced-"
        f"dispersion anomaly, {len(excluded)} defective rows excluded)"
    )


def test_criterion_6_partition_exactness():
    assert partition_count(5) == 7
    assert partition_count(100) == 190569292
    p1000 = partition_count(1000)
    assert round(p1000 / 10 ** (len(str(p1000)) - 7)) == 2406147
    assert count_by_durfee(11).counts[3] == 5
    p = reference.partition_counts(500)
    for n in range(501):
        assert count_by_durfee(n).total == p[n]
    report("criterion 6 (exact p(n), side counts, and the sum identity to n=500)")


def test_criterion_7_oracle_equivalence():
    for n in range(31):
        histogram = Counter(durfee_size(p) for p in enumerate_partitions(n))
        assert dict(histogram) == count_by_durfee(n).counts

    rng = random.Random(20230221)
    for _ in range(200):
        size = rng.randint(1, 80)
        values = sorted((rng.randint(0, 150) for _ in range(size)), reverse=True)
        if values[0] == 0:
            values[0] = 1
        profile = normalize(values)
        assert h_index(profile) == reference.h(values)
        positive = sum(1 for v in values if v > 0)
        for row in shifted_ladder(profile, positive - 1):
            assert (row.k, row.h_k, row.n_h_k) == reference.row(values, row.k)[:3]
    report("criterion 7 (enumeration histograms to n=30; 200 random ladder/scan checks)")


def test_criterion_8_normal_approximation_property():
    for n in (100, 200, 500, 1000, 2000):
        dist = count_by_durfee(n)
        assert abs(dist.mode - 0.540445 * math.sqrt(n)) <= 1.5, n
    dist = count_by_durfee(400)
    mean_est, var_est = durfee_moment_estimates(400)
    assert abs(float(dist.mean) - mean_est) <= 0.05
    assert abs(float(dist.variance) - var_est) / var_est <= 0.10
    report("criterion 8 (mode drift <= 1.5 on the grid; mean/variance fits at n=400)")


def test_criterion_9_blind_sufficiency(fixture_profile):
    for name in ("garfield", "schubert", "leydesdorff"):
        full = fixture_profile(name)
        defect = h_defect(full)
        rank = defect.d + 1 + defect.row_d1.h_k + 1
        blind = estimate_report(truncate_head(full, rank))
        whole = estimate_report(full)
        assert blind.b_est == whole.b_est, name
        assert blind.b_prime == whole.b_prime, name
        assert blind.b_dprime == whole.b_dprime, name
        assert blind.a_est == whole.a_est, name
    report("criterion 9 (blind estimates bit-identical at rank d+1+h_{d+1}+1 when d > 0)")
