import io
import json

import pytest
from hypothesis import given

from citest import (
    NegativeCitation,
    ParseError,
    RankOutOfRange,
    load_profile,
    normalize,
    truncate_head,
)

from conftest import profiles


def test_normalize_sorts_and_derives():
    p = normalize([2, 5, 3])
    assert p.citations == (5, 3, 2)
    assert p.p == 3
    assert p.n_cit == 10
    assert p.n_p_plus == 3


def test_normalize_empty():
    p = normalize([])
    assert p.citations == ()
    assert p.p == 0 and p.n_cit == 0


def test_normalize_rejects_negative():
    with pytest.raises(NegativeCitation) as err:
        normalize([3, -1, 2])
    assert err.value.index == 1


def test_normalize_rejects_non_integers():
    with pytest.raises(ParseError):
        normalize([1, 2.5, 3])
    with pytest.raises(ParseError):
        normalize([1, True, 3])


def test_zero_entries_are_retained():
    p = normalize([5, 0, 0, 3])
    assert p.p == 4
    assert p.n_p_plus == 2
    assert p.citations == (5, 3, 0, 0)


@given(profiles(min_size=0, nonzero_head=False))
def test_normalize_idempotent(values):
    first = normalize(list(values))
    second = normalize(list(first.citations))
    assert second.citations == first.citations


def test_cached_sums_leave_equality_and_hash_alone():
    p = normalize([2, 5, 3])
    assert (p.n_cit, p.n_p_plus) == (10, 3)
    q = normalize([3, 2, 5])
    assert p == q and hash(p) == hash(q)


def test_load_lines():
    p = load_profile(io.StringIO("3\n1\n2\n"), "lines")
    assert p.citations == (3, 2, 1)


def test_load_lines_rejects_garbage():
    with pytest.raises(ParseError) as err:
        load_profile(io.StringIO("3\nxyz\n"), "lines")
    assert err.value.line == 2


def test_load_json():
    payload = {"name": "X", "citations": [7, 7, 1]}
    p = load_profile(io.StringIO(json.dumps(payload)), "json")
    assert p.p == 3 and p.n_cit == 15
    assert p.name == "X"


def test_load_json_requires_citations():
    with pytest.raises(ParseError):
        load_profile(io.StringIO('{"name": "X"}'), "json")


def test_load_csv_with_metadata_and_comments():
    text = "# provenance note\nname,source,date,citations\nX,scopus,2023-02-21,4\n,,,2\n,,,9\n"
    p = load_profile(io.StringIO(text), "csv")
    assert p.citations == (9, 4, 2)
    assert p.name == "X" and p.source == "scopus"
    assert str(p.snapshot_date) == "2023-02-21"


def test_load_csv_plain_single_column():
    p = load_profile(io.StringIO("citations\n5\n1\n3\n"), "csv")
    assert p.citations == (5, 3, 1)


@pytest.mark.parametrize(
    "text, line",
    [
        ("# one\n# two\ncitations\n3\nxyz\n", 5),  # comment lines count
        ("citations\n5\n\n\n4\nz\n", 6),  # blank lines count
    ],
)
def test_load_csv_error_names_file_line(text, line):
    with pytest.raises(ParseError) as err:
        load_profile(io.StringIO(text), "csv")
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: expected a decimal integer")


def test_load_csv_repeated_column_uses_last():
    p = load_profile(io.StringIO("citations,x,citations\n1,2,7\n9\n5,6,4\n"), "csv")
    assert p.citations == (7, 4)


def test_load_json_element_error_has_no_line():
    with pytest.raises(ParseError) as err:
        load_profile(io.StringIO('{"citations": [1, 2, "x"]}'), "json")
    assert err.value.line is None
    assert str(err.value) == "citation at position 2 must be an integer, got 'x'"


@pytest.mark.parametrize("fmt, text", [
    ("csv", "citations\n5\n3\n"),
    ("json", '{"citations": [5, 3]}'),
    ("lines", "5\n3\n"),
], ids=["csv", "json", "lines"])
def test_load_profile_skips_byte_order_mark(fmt, text):
    marked = load_profile(io.StringIO("\ufeff" + text), fmt)
    assert marked == load_profile(io.StringIO(text), fmt)
    assert marked.citations == (5, 3)


def test_load_csv_requires_header():
    with pytest.raises(ParseError):
        load_profile(io.StringIO("counts\n5\n"), "csv")


def test_load_csv_header_error_names_header_line():
    with pytest.raises(ParseError) as err:
        load_profile(io.StringIO("# note\n\ncounts\n5\n"), "csv")
    assert err.value.line == 3


def test_garfield_fixture_totals(fixture_profile):
    p = fixture_profile("garfield")
    assert p.n_cit == 11515
    assert p.p == 106


def test_fixture_totals_match_published(fixture_profile):
    published = {
        "leydesdorff": (25005, 406), "glanzel": (11766, 258), "moed": (7606, 127),
        "vanraan": (8308, 124), "rousseau": (8053, 295), "schubert": (7587, 141),
        "martin": (7598, 85), "narin": (7209, 64), "garfield": (11515, 106),
        "braun": (5680, 216), "small": (7693, 57), "egghe": (5640, 211),
        "ingwersen": (3606, 88), "white": (2399, 37),
        "einstein": (161009, 1044), "kim": (518589, 3000), "kessler": (515591, 1900),
        "meyer": (49110, 1115), "kalaj": (1577, 162), "monkova": (741, 114),
        "mutafchiev": (312, 59), "spalevic": (2832, 412),
    }
    for name, (n_cit, p_count) in published.items():
        prof = fixture_profile(name)
        assert prof.n_cit == n_cit, name
        assert prof.p == p_count, name


def test_truncate_head_prefix():
    p = normalize([9, 8, 2, 1])
    head = truncate_head(p, 2)
    assert head.citations == (9, 8)
    assert not head.complete


def test_truncate_head_full():
    p = normalize([9, 8, 2, 1])
    head = truncate_head(p, 4)
    assert head.complete
    assert head.citations == p.citations


def test_truncate_head_of_prefix_stays_incomplete():
    head = truncate_head(normalize([9, 8, 2, 1]), 3)
    assert not truncate_head(head, head.p).complete


def test_truncate_head_out_of_range():
    p = normalize([9, 8])
    with pytest.raises(RankOutOfRange):
        truncate_head(p, 3)


@given(profiles(min_size=0, nonzero_head=False))
def test_truncate_full_length_keeps_sequence(values):
    p = normalize(list(values))
    assert truncate_head(p, p.p).citations == p.citations
