import math

import pytest
from hypothesis import given

from citest import (
    EmptyCore,
    InsufficientTail,
    compute_core_indices,
    g_index,
    h_index,
    normalize,
)
from citest.indices import suffix_h

from conftest import profiles


def brute_force_h(values):
    """Independent oracle: scan every rank against the definition."""
    best = 0
    for m in range(1, len(values) + 1):
        if values[m - 1] >= m:
            best = m
    return best


def test_h_all_zero_is_zero():
    assert h_index(normalize([0, 0, 0])) == 0


def test_h_small_example():
    vals = (3, 2, 2)
    assert h_index(normalize(list(vals))) == brute_force_h(vals) == 2


def test_h_leydesdorff(fixture_profile):
    assert h_index(fixture_profile("leydesdorff")) == 79


@given(profiles(min_size=0, nonzero_head=False))
def test_h_matches_brute_force(values):
    assert h_index(normalize(list(values))) == brute_force_h(values)


def brute_force_g(values):
    """Independent oracle: test every k <= p against the definition."""
    return max((k for k in range(1, len(values) + 1) if sum(values[:k]) >= k * k), default=0)


@given(profiles(min_size=0, max_size=120, max_value=300, nonzero_head=False))
def test_g_matches_brute_force(values):
    assert g_index(normalize(list(values))) == brute_force_g(values)


def test_g_examples():
    assert g_index(normalize([1, 1, 1])) == 1
    assert g_index(normalize([10, 5, 3, 1])) == 4
    assert g_index(normalize([2, 2])) == 2
    assert g_index(normalize([0, 0])) == 0
    assert g_index(normalize([])) == 0


def test_core_indices_garfield(fixture_profile):
    ci = compute_core_indices(fixture_profile("garfield"))
    assert ci.h == 37
    assert ci.n_cit_h == 10509
    assert abs(ci.e_index - 95.603) < 0.005
    assert abs(ci.q - 14.353) < 0.001
    assert ci.r_floor == 13


def test_core_indices_leydesdorff(fixture_profile):
    ci = compute_core_indices(fixture_profile("leydesdorff"))
    assert abs(ci.q - 4.563) < 0.001
    assert abs(ci.e_index - 105.447) < 0.005
    assert abs(ci.q_prime - 2.782) < 0.001


def test_core_indices_flat_profile():
    ci = compute_core_indices(normalize([3, 3, 3]))
    assert ci.e_index == 0.0
    assert ci.q == 1.0
    assert ci.q_prime == 1.0
    assert ci.a_index == ci.r_index == ci.d_index == 3.0


def test_core_indices_empty_core():
    with pytest.raises(EmptyCore):
        compute_core_indices(normalize([0, 0]))


@given(profiles())
def test_index_inequality_chain(values):
    p = normalize(list(values))
    if h_index(p) == 0:
        return
    ci = compute_core_indices(p)
    assert ci.h <= ci.g
    assert ci.h <= ci.r_index + 1e-9
    assert ci.r_index <= ci.d_index + 1e-9
    assert ci.d_index <= ci.a_index + 1e-9
    assert ci.h_cap_index <= ci.d_index + 1e-9


@given(profiles())
def test_index_exact_identities(values):
    p = normalize(list(values))
    if h_index(p) == 0:
        return
    ci = compute_core_indices(p)
    # R^2 = h*A and D^2 = 2R^2 - h^2, checked on the exact integer core sum
    assert abs(ci.r_index**2 - ci.h * ci.a_index) < 1e-6
    assert abs(ci.d_index**2 - (2 * ci.n_cit_h - ci.h**2)) < 1e-6
    assert abs(ci.q - (2 * ci.q_prime - 1.0)) < 1e-12
    assert ci.q_prime >= 1.0
    # e^2 + h^2 = N_cit(h) exactly up to float tolerance
    assert abs(ci.e_index**2 + ci.h**2 - ci.n_cit_h) <= 1e-9 * ci.n_cit_h + 1e-9


@given(profiles())
def test_excess_bounds(values):
    p = normalize(list(values))
    if h_index(p) == 0:
        return
    ci = compute_core_indices(p)
    if ci.e_index > 0:
        assert ci.h * ci.q / ci.e_index >= 2 * math.sqrt(2) - 1e-9
        assert ci.h + ci.e_index <= math.sqrt(2 * ci.n_cit_h) + 1e-9


def test_g_index_needs_full_profile():
    from citest import InsufficientTail, truncate_head

    p = normalize([10, 5, 3, 1])
    with pytest.raises(InsufficientTail):
        g_index(truncate_head(p, 2))


def test_h_index_certified_on_prefix():
    from citest import truncate_head

    p = normalize([10, 5, 3, 1])
    assert h_index(truncate_head(p, 4)) == 3
    assert h_index(truncate_head(p, 3)) == 3  # rank 3 value bounds the rest


def linear_suffix_h(entries, complete):
    """Reference for ``suffix_h``: step m up while ``entries[m - 1] >= m``."""
    n = len(entries)
    m = 1
    while m <= n and entries[m - 1] >= m:
        m += 1
    v = m - 1
    if not complete and v >= n and (n == 0 or entries[-1] > v):
        raise InsufficientTail(n, n + 1, what="the h-index")
    return v


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InsufficientTail as exc:
        return ("InsufficientTail", exc.needed_rank)


@given(profiles(min_size=0, max_size=60, max_value=80, nonzero_head=False))
def test_bisected_suffix_h_matches_linear_scan(values):
    # every suffix, of the whole profile and of the same ranks read as a prefix
    for complete in (True, False):
        for shift in range(len(values) + 2):
            expected = _outcome(linear_suffix_h, values[shift:], complete)
            assert _outcome(suffix_h, values[shift:], complete) == expected
