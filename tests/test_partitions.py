import math
from collections import Counter
from fractions import Fraction

import pytest

from citest import (
    NegativeArgument,
    ResourceLimit,
    count_by_durfee,
    durfee_mode_formula,
    durfee_moment_estimates,
    durfee_size,
    enumerate_partitions,
    partition_count,
)
from citest.partitions import MAX_N
from conftest import pentagonal_counts

# sampled up to the ceiling; MAX_N - 1 and MAX_N included
GRID = (2, 17, 60, 121, *range(250, MAX_N + 1, 250), MAX_N - 1)


def test_partition_count_small():
    assert partition_count(0) == 1
    assert partition_count(5) == 7
    assert partition_count(10) == 42
    assert partition_count(20) == 627
    assert partition_count(30) == 5604
    assert partition_count(100) == 190569292


def test_partition_count_1000_exact_digits():
    value = partition_count(1000)
    assert len(str(value)) == 32
    # leading digits to 7 significant figures (the 8th digit rounds up)
    assert round(value / 10 ** (len(str(value)) - 7)) == 2406147
    assert str(value).startswith("2406146786")


def test_partition_count_negative():
    with pytest.raises(NegativeArgument):
        partition_count(-1)


def test_durfee_size_examples():
    assert durfee_size((5, 3, 2, 1, 1)) == 2
    assert durfee_size((1,)) == 1
    assert durfee_size((3, 3, 3)) == 3
    assert durfee_size(()) == 0


def test_count_by_durfee_11():
    dist = count_by_durfee(11)
    assert dist.counts[3] == 5
    assert dist.total == pentagonal_counts(11)[11] == 56


def test_count_by_durfee_edges():
    assert count_by_durfee(1).counts == {1: 1}
    assert count_by_durfee(0).counts == {0: 1}
    assert count_by_durfee(5).total == 7


def test_count_by_durfee_sums_to_partition_count():
    # sum_d x^(d^2) / ((x;x)_d)^2 = 1 / (x;x)_inf, against Euler's recurrence
    p = pentagonal_counts(MAX_N)
    for n in GRID:
        dist = count_by_durfee(n)
        assert dist.total == p[n]
        assert sum(dist.counts.values()) == dist.total
        assert all(d * d <= n for d in dist.counts)


def test_partition_count_matches_pentagonal_recurrence():
    p = pentagonal_counts(MAX_N)
    for n in (*range(501), *GRID):
        assert partition_count(n) == p[n], n


@pytest.mark.parametrize("exact", [count_by_durfee, partition_count],
                         ids=["count_by_durfee", "partition_count"])
def test_count_by_durfee_resource_limit(exact):
    with pytest.raises(ResourceLimit):
        exact(MAX_N + 1)
    exact(101)  # the ceiling is far higher
    # str() refuses an n past int()'s digit limit; the message counts digits
    with pytest.raises(ResourceLimit) as err:
        exact(10**5000)
    assert str(err.value) == "a 5001-digit n exceeds the ceiling of 5000"


def test_enumerate_partitions_of_5_in_order():
    parts = list(enumerate_partitions(5))
    assert parts == [
        (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]


def test_enumerate_partitions_zero():
    assert list(enumerate_partitions(0)) == [()]


def test_enumerate_partitions_durfee_3_of_11():
    with_d3 = [p for p in enumerate_partitions(11) if durfee_size(p) == 3]
    assert len(with_d3) == 5
    assert (5, 3, 3) in with_d3 and (4, 4, 3) in with_d3


def test_enumerate_partitions_resource_limit():
    with pytest.raises(ResourceLimit):
        next(enumerate_partitions(46))


def test_enumeration_histogram_matches_dp():
    # brute-force oracle for the coefficient extraction
    for n in (1, 7, 12, 19, 25, 33, 40):
        histogram = Counter(durfee_size(p) for p in enumerate_partitions(n))
        assert dict(histogram) == count_by_durfee(n).counts


def _durfee_counts_by_convolution(n):
    """A partition with Durfee side d is a d x d square, a partition into
    parts <= d below it and one into at most d parts to its right; by
    conjugation both are counted as partitions into parts <= d, convolved
    over the n - d^2 cells left."""
    counts = {}
    d = 1
    while d * d <= n:
        m = n - d * d
        parts = [1] + [0] * m
        for part in range(1, d + 1):
            for i in range(part, m + 1):
                parts[i] += parts[i - part]
        counts[d] = sum(parts[i] * parts[m - i] for i in range(m + 1))
        d += 1
    return counts


@pytest.mark.parametrize("n", [1, 8, 9, 10, 99, 100, 101, 257, 399, 400])
def test_count_by_durfee_matches_convolution_per_side(n):
    assert count_by_durfee(n).counts == _durfee_counts_by_convolution(n)


def test_durfee_mode_formula_values():
    assert abs(durfee_mode_formula(10000) - 54.044) < 0.001
    assert abs(durfee_mode_formula(2500) - 27.02) < 0.005
    assert durfee_mode_formula(0) == 0.0


def test_mode_tracks_formula_at_100():
    dist = count_by_durfee(100)
    assert abs(dist.mode - durfee_mode_formula(100)) <= 1.0


def test_moment_estimates_track_exact_values():
    mean_est, var_est = durfee_moment_estimates(400)
    assert abs(mean_est - 10.896) < 0.005
    dist = count_by_durfee(400)
    assert abs(float(dist.mean) - mean_est) < 0.05
    assert abs(float(dist.variance) - var_est) / var_est < 0.10


def test_moment_estimate_2500():
    mean_est, _ = durfee_moment_estimates(2500)
    assert abs(mean_est - (0.540446395 * 50 + 0.085691 + 0.0374788 / 50)) < 1e-12


@pytest.mark.parametrize(
    "n, literal_err, corrected_err",
    [(500, -5.4e-5, -9.3e-5), (2000, 5.5e-5, -2.3e-5), (5000, 1.15e-4, -9.6e-6)],
)
def test_moment_mean_coefficient_drift(n, literal_err, corrected_err):
    # the fitted mean keeps its published coefficient 0.540446395; the mode
    # coefficient 0.5404446395 suggests a dropped '4' (refdata records it).
    # Neither reading is closer at every n: the literal wins at n = 500.
    exact = float(count_by_durfee(n).mean)
    root = math.sqrt(n)
    literal, _ = durfee_moment_estimates(n)
    corrected = 0.5404446395 * root + 0.085691 + 0.0374788 / root
    assert literal - exact == pytest.approx(literal_err, abs=5e-7)
    assert corrected - exact == pytest.approx(corrected_err, abs=5e-7)
    assert literal - corrected == pytest.approx(1.7555e-6 * root, rel=1e-6)


def test_mean_and_variance_are_exact_rationals():
    dist = count_by_durfee(60)
    assert isinstance(dist.mean, Fraction)
    weighted = sum(d * c for d, c in dist.counts.items())
    assert dist.mean == Fraction(weighted, dist.total)


def test_mode_tie_reports_smaller_d():
    # n = 4: sides 1 and 2 both count 2 partitions
    dist = count_by_durfee(4)
    assert dist.counts == {1: 3, 2: 2} or dist.counts[dist.mode] == max(dist.counts.values())
    tied = [d for d, c in dist.counts.items() if c == dist.counts[dist.mode]]
    if len(tied) > 1:
        assert dist.mode == min(tied)
        assert dist.mode_tied


def test_log_concavity_central_range():
    for n in (150, 400):
        counts = count_by_durfee(n).counts
        ds = sorted(counts)
        central = ds[len(ds) // 4 : -max(1, len(ds) // 4)]
        for d in central[1:-1]:
            assert counts[d] * counts[d] >= counts[d - 1] * counts[d + 1]


def test_recurrence_vs_dp_digit_for_digit():
    dist = count_by_durfee(1000)
    assert sum(dist.counts.values()) == pentagonal_counts(1000)[1000]


def test_mode_drift_bounded_on_grid():
    for n in (50, 150, 300, 700, 1500):
        dist = count_by_durfee(n)
        assert abs(dist.mode - 0.540445 * (n ** 0.5)) <= 1.5, n
