from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import strategies as st

from citest import CitationProfile, load_profile

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_profile():
    cache: dict[str, CitationProfile] = {}

    def _load(name: str) -> CitationProfile:
        if name not in cache:
            with open(FIXTURES / f"{name}.csv", "r", encoding="utf-8") as fh:
                cache[name] = load_profile(fh, "csv")
        return cache[name]

    return _load


def profiles(min_size=1, max_size=60, max_value=200, nonzero_head=True):
    """Strategy producing sorted citation tuples (profiles come pre-sorted)."""

    def to_profile(values):
        values = sorted(values, reverse=True)
        if nonzero_head and values and values[0] == 0:
            values[0] = 1
        return tuple(values)

    return st.lists(
        st.integers(min_value=0, max_value=max_value),
        min_size=min_size,
        max_size=max_size,
    ).map(to_profile)


def steep_profiles():
    """Top-heavy profiles: a few dominant entries over a long flat-ish tail.

    These mostly classify with an excess that starts above the shifted index
    and crosses below it a few removals in, which is the regime the blind
    estimator targets.
    """

    def assemble(parts):
        head, mid, tail = parts
        return tuple(sorted(head + mid + tail, reverse=True))

    return st.tuples(
        st.lists(st.integers(80, 600), min_size=1, max_size=6),
        st.lists(st.integers(6, 60), min_size=8, max_size=50),
        st.lists(st.integers(1, 5), min_size=5, max_size=60),
    ).map(assemble)
