import csv
import gc
import io
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import citest.profile
from citest import (
    NegativeCitation,
    ParseError,
    RankOutOfRange,
    load_profile,
    normalize,
    truncate_head,
)
from citest.errors import quoted
from citest.profile import MAX_CITATIONS

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


def test_normalize_rejects_count_above_maximum():
    assert normalize([1, MAX_CITATIONS]).citations == (MAX_CITATIONS, 1)
    with pytest.raises(ParseError, match="above the maximum"):
        normalize([1, MAX_CITATIONS + 1])


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


def test_load_json_syntax_error_names_line():
    with pytest.raises(ParseError) as err:
        load_profile(io.StringIO('{"name": "X",\n "citations": [1, 2,\n}'), "json")
    assert err.value.line == 3


def test_load_json_citations_must_be_an_array():
    with pytest.raises(ParseError, match="'citations' must be an array"):
        load_profile(io.StringIO('{"citations": 5}'), "json")


def test_load_json_null_name_is_no_name():
    p = load_profile(io.StringIO('{"name": null, "citations": [3, 1]}'), "json")
    assert p.name == ""
    assert p == load_profile(io.StringIO('{"citations": [1, 3]}'), "json")


@pytest.mark.parametrize("name", ["5", '["Ann", "Lee"]', '{"first": "Ann"}', "false"])
def test_load_json_name_must_be_a_string(name):
    with pytest.raises(ParseError) as err:
        load_profile(io.StringIO(f'{{"name": {name}, "citations": [3, 1]}}'), "json")
    assert err.value.line == 1
    assert str(err.value) == "line 1: 'name' must be a string"


def test_load_profile_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        load_profile(io.StringIO("5\n"), "xml")


@pytest.mark.parametrize("fmt, text, line", [
    ("lines", "5\n" + "1" * 5000 + "\n", 2),
    ("csv", "citations\n" + "1" * 5000 + "\n", 2),
    ("json", '{"citations": [5, ' + "1" * 5000 + "]}", None),
], ids=["lines", "csv", "json"])
def test_digit_string_past_int_limit_is_too_large(fmt, text, line):
    # int() refuses decimal strings over 4300 digits; the value is not echoed
    with pytest.raises(ParseError) as err:
        load_profile(io.StringIO(text), fmt)
    assert err.value.line == line
    assert err.value.reason == "citation count too large"


def test_load_csv_with_metadata_and_comments():
    text = "# provenance note\nname,source,date,citations\nX,scopus,2023-02-21,4\n,,,2\n,,,9\n"
    p = load_profile(io.StringIO(text), "csv")
    assert p.citations == (9, 4, 2)
    assert p.name == "X"
    assert p._fields == ("citations", "name", "complete")


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


@pytest.mark.parametrize("fmt, header", [("lines", ""), ("csv", "citations\n")])
@pytest.mark.parametrize("form", ["1_000", "+5", "\u0661\u0662", "1 2"])
def test_lines_and_csv_read_ascii_digits_only(fmt, header, form):
    # int() accepts the first three; JSON and every loader here refuse them
    with pytest.raises(ParseError) as err:
        load_profile(io.StringIO(f"{header}3\n{form}\n4\n"), fmt)
    assert err.value.line == 2 + bool(header)
    assert err.value.reason == f"expected a decimal integer, got {form!r}"


def test_leading_minus_is_a_negative_citation():
    for fmt, header in [("lines", ""), ("csv", "citations\n")]:
        with pytest.raises(NegativeCitation) as err:
            load_profile(io.StringIO(f"{header}3\n\n-2\n"), fmt)
        assert (err.value.index, err.value.value) == (1, -2)
        assert load_profile(io.StringIO(f"{header}-0\n 7\r\n"), fmt).citations == (7, 0)


# ---------------------------------------------------------------- fast path = slow path
# The loaders check a whole input at once and fall back to reading it line
# by line only to word an error.  These references are the line-by-line
# reading and the per-entry validation, written out plainly.

def _reference_normalize(raw):
    entries = []
    for i, value in enumerate(raw):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(None, f"citation at position {i} must be an integer, got {quoted(value)}")
        if value < 0:
            raise NegativeCitation(i, value)
        entries.append(value)
    entries.sort(reverse=True)
    if entries and entries[0] > MAX_CITATIONS:
        raise ParseError(None, f"citation count above the maximum of {MAX_CITATIONS}")
    return tuple(entries)


def _reference_load(lines, first_line):
    """ASCII digits after stripping, one value per line; a '-' makes a negative."""
    values = []
    for lineno, line in enumerate(lines, start=first_line):
        text = line.strip()
        if not text:
            continue
        digits = text[1:] if text.startswith("-") else text
        if not digits or any(c not in "0123456789" for c in digits):
            raise ParseError(lineno, f"expected a decimal integer, got {quoted(text)}")
        try:
            values.append(int(text))
        except ValueError:  # past int()'s digit limit, for either sign
            raise ParseError(lineno, "citation count too large") from None
    return _reference_normalize(values)


def _outcome(read, *args):
    try:
        result = read(*args)
    except (ParseError, NegativeCitation) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return getattr(result, "citations", result)


CLEAN = st.one_of(
    st.integers(0, 10**6).map(str),
    st.sampled_from(["1" * 5000, str(MAX_CITATIONS), str(MAX_CITATIONS + 1)]),
)
ODD = st.sampled_from([
    "", "-3", "-0", "-", "+5", "1_000", "\u0661\u0662", "1 2", "007", "-" + "1" * 5000,
])


@st.composite
def _file_lines(draw):
    """Lines without their '\\n' (a CRLF ending leaves its '\\r'), and the text."""
    lines = draw(st.lists(CLEAN | st.just(""), max_size=8))
    for _ in range(draw(st.integers(0, 2))):  # a few odd lines among clean ones
        odd = draw(ODD)
        if draw(st.booleans()):
            odd = draw(st.sampled_from([" ", "\t"])) + odd + draw(st.sampled_from(["", "  "]))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    if draw(st.booleans()):
        lines = [line + "\r" for line in lines]
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    return lines, text


@settings(max_examples=300, deadline=None)
@given(_file_lines())
def test_load_lines_matches_per_line_reading(drawn):
    lines, text = drawn
    got = _outcome(load_profile, io.StringIO(text), "lines")
    assert got == _outcome(_reference_load, lines, 1)


@settings(max_examples=300, deadline=None)
@given(_file_lines())
def test_load_csv_matches_per_line_reading(drawn):
    lines, text = drawn
    got = _outcome(load_profile, io.StringIO("citations\n" + text), "csv")
    assert got == _outcome(_reference_load, lines, 2)


ENTRY = st.one_of(
    st.integers(0, 10**6),
    st.integers(-5, -1),
    st.booleans(),
    st.floats(allow_nan=False),
    st.sampled_from([MAX_CITATIONS, MAX_CITATIONS + 1]),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(ENTRY, max_size=10), st.lists(st.integers(0, 10**6), max_size=10)))
def test_normalize_matches_per_entry_validation(raw):
    before = list(raw)
    assert _outcome(normalize, raw) == _outcome(_reference_normalize, raw)
    assert raw == before  # the caller's list is copied, not sorted in place


@st.composite
def _duplicate_heavy(draw):
    """40-300 entries, mostly zeros, from 0..5 with a few bad entries at drawn
    positions: at most 8 distinct values, so one entry in 4 or fewer is
    distinct, and all but those in order are tallied.

    A bool or float equals an int a Counter already holds: ``True`` and
    ``1.0`` go after a ``1``, ``False`` after a ``0``.
    """
    p = draw(st.integers(40, 300))
    small = draw(st.lists(st.integers(0, 5), min_size=p // 40, max_size=p // 2))
    raw = draw(st.permutations(small + [0] * (p - len(small))))
    for _ in range(draw(st.integers(0, 2))):
        bad = draw(st.sampled_from([True, 1.0, False, -1, MAX_CITATIONS + 1]))
        after = [i + 1 for i, v in enumerate(raw) if v == bad and type(v) is int]
        raw.insert(draw(st.sampled_from(after or [draw(st.integers(0, len(raw)))])), bad)
    return raw


@settings(max_examples=300, deadline=None)
@given(_duplicate_heavy())
def test_tally_matches_per_entry_validation(raw):
    expected = _outcome(_reference_normalize, raw)
    assert _outcome(normalize, raw) == expected
    assert _outcome(load_profile, io.StringIO(json.dumps({"citations": raw})), "json") == expected


# ------------------------------------------------------------ tally = per-row scan
# One rule counts every format: a tally is kept where one entry in 4 or fewer
# is distinct (a line, for lines and csv), else every entry is read.  A text
# stream that cannot seek, in either text format, goes straight to the per-row
# scan, which is the reference.  csv is counted as it streams, and lines a
# block at a time, so that neither holds a list of every line.

class _Unseekable(io.StringIO):
    def seekable(self):
        return False


def _loaded(stream, fmt):
    try:
        profile = load_profile(stream, fmt)
    except (ParseError, NegativeCitation) as exc:
        return type(exc), getattr(exc, "line", None), str(exc)
    return profile.citations, profile.name


CELL = st.one_of(st.integers(0, 10**6).map(str), st.sampled_from(["", " 5 ", "007", "7", "\t7", 'a"']))
ODD_CELL = st.one_of(CLEAN, ODD, st.sampled_from([
    "C# dev", '"Ann\nLee"', '"3\n4"', '"# x\n5"', "1" * (csv.field_size_limit() + 1),
]))
OPEN_QUOTE = st.sampled_from(['6,"b', '"b', '"b,6'])  # closed by a later 'a"', or never
COMMENT = st.sampled_from(["# provenance", "  # indented", "#"])
HEADER = st.sampled_from(["citations", "name,citations", "name,source,citations",
                          "citations,x,citations", "name,citations,citations", "counts"])


@st.composite
def _csv_text(draw):
    """Comment and blank lines, a header, rows of any width, and a few odd lines.

    Rows are drawn from a small pool, so lines repeat as in a real export.  A
    pool row or an odd line may open a quote that a later ``a"`` cell closes,
    or that runs to the end of the input.
    """
    lines = draw(st.lists(COMMENT | st.just(""), max_size=3)) + [draw(HEADER)]
    top = len(lines)
    row = st.lists(CELL, min_size=1, max_size=4).map(",".join) | OPEN_QUOTE
    pool = draw(st.lists(row, min_size=1, max_size=3))
    lines += draw(st.lists(st.sampled_from(pool), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        odd = draw(COMMENT | OPEN_QUOTE | st.lists(ODD_CELL, min_size=1, max_size=3).map(",".join))
        lines.insert(draw(st.integers(top, len(lines))), odd)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(_csv_text())
def test_load_csv_tally_matches_per_row_scan(text):
    assert _loaded(io.StringIO(text), "csv") == _loaded(_Unseekable(text), "csv")


@pytest.mark.parametrize("head, rows, citations", [
    ('citations,note\n1,m\n', '5,a"\n6,"b\n5,a"\n', (6, 5, 1)),
    ('citations,note\n5,x\n', '6,"b\n5,x"\n', (6, 5)),
    ('citations,note\n1,m\n', '5\n6,"b\n5\n', (6, 5, 1)),
], ids=["closed_by_a_repeated_line", "closed_on_the_last_line", "open_at_the_end"])
def test_load_csv_quote_across_lines_is_read_row_by_row(head, rows, citations):
    # Blank lines below the name row let the tally's rule pass; a distinct
    # line parsed alone would then count '5,a"' or '5' twice.
    text = head + "\n" * 12 + rows
    assert _loaded(io.StringIO(text), "csv") == (citations, "")
    assert _loaded(_Unseekable(text), "csv") == (citations, "")


@st.composite
def _repeated_lines(draw):
    """Lines and text as ``_file_lines`` draws them, but from a pool of at most
    7 texts, with at least 4 lines for each distinct one, so that both text
    formats take the tally.

    The pool may hold an odd line and, for csv, a line that opens a quote and
    one that closes it.  The first line is a count, so a csv with this text
    below its header has it as its name row, and at most ``len(pool) + 2``
    distinct lines are counted either way.
    """
    count = st.integers(0, 10**6).map(str)
    pool = draw(st.lists(count | st.just(""), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        pool.append(draw(st.sampled_from(["", " "])) + draw(CLEAN | ODD))
    if draw(st.booleans()):
        pool += [draw(OPEN_QUOTE), draw(st.sampled_from(['a"', '5,a"']))]
    size = 4 * (len(pool) + 2)
    lines = [draw(count)] + draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size + 20))
    if draw(st.booleans()):
        lines = [line + "\r" for line in lines]
    return lines, "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _scanned(fmt, text):
    """The outcome of loading ``text``, and whether the per-row scan ran."""
    scans = []

    def recorded(scan):
        def run(first, rest):
            scans.append(scan)
            return scan(first, rest)
        return run

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_lines_scan", "_csv_scan"):
            mp.setattr(citest.profile, name, recorded(getattr(citest.profile, name)))
        return _outcome(load_profile, io.StringIO(text), fmt), bool(scans)


@settings(max_examples=300, deadline=None)
@given(_repeated_lines())
def test_text_tally_matches_per_line_reading(drawn):
    lines, text = drawn
    for fmt, header, first_line in [("lines", "", 1), ("csv", "citations\n", 2)]:
        got, scanned = _scanned(fmt, header + text)
        assert _outcome(load_profile, _Unseekable(header + text), fmt) == got
        if fmt == "csv" and '"' in text:
            continue  # a quoted field may span lines: the scan is the reference
        expected = _outcome(_reference_load, lines, first_line)
        assert got == expected
        # the tally reads all it can; the scan runs only to word an error
        assert scanned == (expected[:1] in [(ParseError,), (NegativeCitation,)])


def _heavy_tail():
    """5x10^4 heavy-tailed counts, rising from the smallest."""
    rng = random.Random(7)
    return [int(5 * ((1 - (i + rng.random()) / 50000) ** -0.7 - 1)) for i in range(50000)]


def _long_export(quote):
    """A 5x10^4-row heavy-tailed profile laid out as an export: the name on the first row."""
    raw = _heavy_tail()
    rows = [["name", "source", "date", "citations"], ["Long", "other", "2023-01-01", raw[0]]]
    rows += [["", "", "", v] for v in raw[1:]]
    out = io.StringIO()
    csv.writer(out, quoting=quote, lineterminator="\n").writerows(rows)
    return out.getvalue(), tuple(sorted(raw, reverse=True))


def _no_scan(monkeypatch):
    def scan(first, rest):
        raise AssertionError("the per-row scan ran")

    for name in ("_lines_scan", "_csv_scan"):
        monkeypatch.setattr(citest.profile, name, scan)


@pytest.mark.parametrize("quote", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL], ids=["plain", "all_quoted"])
def test_load_csv_tally_takes_a_long_export(monkeypatch, quote):
    text, citations = _long_export(quote)
    expected = _loaded(_Unseekable(text), "csv")
    assert expected == (citations, "Long")
    _no_scan(monkeypatch)
    assert _loaded(io.StringIO(text), "csv") == expected


def _kept(monkeypatch):
    """Record, for each call of the counting rule, whether it kept its tally."""
    kept = []
    tally = citest.profile._tally

    def recorded(items):
        counts = tally(items)
        kept.append(counts is not None)
        return counts

    monkeypatch.setattr(citest.profile, "_tally", recorded)
    return kept


def _rendered(fmt, raw):
    if fmt == "json":
        return json.dumps({"name": "Long", "citations": raw})
    if fmt == "csv":
        return "name,citations\nLong," + "\n,".join(map(str, raw)) + "\n"
    return "\n".join(map(str, raw)) + "\n"


SHUFFLED = random.Random(7).sample(_heavy_tail(), 50000)
ALL_DISTINCT = random.Random(7).sample(range(10**9), 50000)


@pytest.mark.parametrize("fmt, raw, kept", [
    ("lines", SHUFFLED, [True]),
    ("csv", SHUFFLED, [True]),
    ("json", SHUFFLED, [True]),
    ("lines", ALL_DISTINCT, [False]),
    ("csv", ALL_DISTINCT, [False]),
    ("json", ALL_DISTINCT, []),
    ("json", sorted(_heavy_tail(), reverse=True), []),
    ("json", _heavy_tail(), []),
], ids=["lines-heavy_tail_shuffled", "csv-heavy_tail_shuffled", "json-heavy_tail_shuffled",
        "lines-all_distinct", "csv-all_distinct", "json-all_distinct",
        "json-heavy_tail_in_order", "json-heavy_tail_rising"])
def test_load_tallies_only_where_it_pays(monkeypatch, fmt, raw, kept):
    # a shuffled heavy tail has a few hundred distinct counts in 5x10^4, and
    # all-distinct input none repeated; an int sample in order sorts in
    # linear time, and one without a repeat foretells a refused tally, so
    # neither builds a Counter
    calls = _kept(monkeypatch)
    expected = (tuple(sorted(raw, reverse=True)), "" if fmt == "lines" else "Long")
    assert _loaded(io.StringIO(_rendered(fmt, raw)), fmt) == expected
    assert calls == kept


@pytest.mark.parametrize("text, citations", [
    ("007\n7\n" * 8, (7,) * 16),
    (" 5 \n\t7\r\n  \n3\t\n" * 8, (7,) * 8 + (5,) * 8 + (3,) * 8),
], ids=["leading_zeros", "padded"])
def test_load_lines_tally_merges_equal_values(monkeypatch, text, citations):
    # repeated 8 times, so that one line in 4 or fewer is distinct
    lines = text.split("\n")
    assert _reference_load(lines, 1) == citations
    _no_scan(monkeypatch)
    assert _loaded(io.StringIO(text), "lines") == (citations, "")


def test_load_csv_from_a_text_file_read_with_next(tmp_path):
    # the lines repeat, so the same text from a stream that can seek is tallied
    profile = ((5,) * 4 + (3,) * 4, "")
    for fmt, header, bad_line in [("csv", "citations\n", 10), ("lines", "", 9)]:
        error = (ParseError, bad_line, f"line {bad_line}: expected a decimal integer, got 'x'")
        for text, expected in [(header + "5\n3\n" * 4, profile), (header + "5\n3\n" * 4 + "x\n", error)]:
            path = tmp_path / "p.txt"
            path.write_text("skip\n" + text, encoding="utf-8")
            with open(path, encoding="utf-8") as fh:
                next(fh)  # the file can no longer tell() its place
                assert _loaded(fh, fmt) == _loaded(io.StringIO(text), fmt) == expected


def test_load_csv_tally_reads_comments_above_the_header(monkeypatch):
    _no_scan(monkeypatch)
    # the blank lines make 3 distinct lines of 12 below the name row
    text = "# provenance\n  # second note\nname,citations\nX,5\n,3\n" + "\n" * 10 + ",007\n"
    assert _loaded(io.StringIO(text), "csv") == ((7, 5, 3), "X")


def test_load_csv_tally_reads_comments_below_the_header(monkeypatch):
    # the repeated comments make 4 distinct lines of 17 below the name row
    text = ("name,citations\n# between header and name row\nX,5\n,3\n" + "  # among the rows, 12\n" * 7
            + ",3\n" + "#,9\n" * 7 + ",007\n")
    expected = _loaded(_Unseekable(text), "csv")
    assert expected == ((7, 5, 3, 3), "X")
    _no_scan(monkeypatch)
    assert _loaded(io.StringIO(text), "csv") == expected


def test_load_csv_tally_words_a_missing_citations_column(monkeypatch):
    text = "# note\nname,counts\nX,5\n"
    expected = _loaded(_Unseekable(text), "csv")
    assert expected == (ParseError, 2, "line 2: CSV header must contain a 'citations' column")
    _no_scan(monkeypatch)
    assert _loaded(io.StringIO(text), "csv") == expected


# ------------------------------------------------------------ one copy of the entries
# A lines file is read a block at a time, a tallied JSON list is dropped
# before the tuple is built, and a csv drops its line tally before it.

@settings(max_examples=300, deadline=None)
@given(_file_lines() | _repeated_lines(), st.integers(1, 7), st.booleans())
def test_lines_read_in_blocks_match_a_split_of_the_whole_text(drawn, block, bom):
    # blocks of 1-7 characters put a block boundary at every place in a line,
    # a '\r\n' and a byte-order mark included; lines longer than a block
    # ('1' * 5000) make the reads grow
    _, text = drawn
    lines = text.split("\n")
    expected = _outcome(_reference_load, lines, 1)
    marked = "\ufeff" + text if bom else text
    profile = citest.profile
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(profile, "_BLOCK", block)

        def read(path):
            stream = io.StringIO(marked)
            return path(stream.readline().removeprefix("\ufeff"), stream)

        assert [line for block in read(profile._line_blocks) for line in block] == lines
        assert _outcome(read, profile._lines_scan) == expected
        tallied = read(profile._lines_tally)  # None: refused, or left to the scan
        assert tallied is None or tallied.citations == expected
        for stream in io.StringIO(marked), _Unseekable(marked):
            assert _outcome(load_profile, stream, "lines") == expected


@pytest.mark.parametrize("fmt", ["csv", "json", "lines"])
def test_load_holds_one_copy_of_the_entries(fmt):
    # the stream is made before tracing starts, so the peak is the loader's
    # own; a tally that kept its list beside the tuple would hold 2x
    load_profile(io.StringIO(_rendered(fmt, [1, 1, 1, 1])), fmt)  # first-call allocations
    stream = io.StringIO(_rendered(fmt, SHUFFLED))
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        profile = load_profile(stream, fmt)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert profile.citations == tuple(sorted(SHUFFLED, reverse=True))
    assert peak <= 2 * sys.getsizeof(profile.citations)


def test_load_csv_tally_leaves_a_csv_error_to_the_scan(monkeypatch):
    # a field past the csv reader's size limit fails in the tally's reader;
    # the scan rereads the text and words the error at its line
    calls = []

    def spied(name):
        path = getattr(citest.profile, name)

        def run(first, rest):
            calls.append(name)
            try:
                return path(first, rest)
            except Exception as exc:
                calls.append(type(exc))
                raise

        monkeypatch.setattr(citest.profile, name, run)

    spied("_csv_tally")
    spied("_csv_scan")
    text = "citations\n" + "5\n" * 40 + '"' + "9" * 200000 + '"\n'
    with pytest.raises(ParseError) as err:
        load_profile(io.StringIO(text), "csv")
    assert str(err.value) == "line 42: field larger than field limit (131072)"
    assert calls == ["_csv_tally", csv.Error, "_csv_scan", ParseError]


@pytest.mark.parametrize("fmt, head", [("lines", b""), ("csv", b"citations\n")])
def test_load_words_a_bad_line_before_later_text_that_is_not_utf8(fmt, head):
    # both scans read a stream a piece at a time, so a bad line is worded
    # before bytes that are not UTF-8 some 4x10^4 bytes further on are decoded
    data = head + b"1\n2\nx\n" + b"3\n" * 20000 + b"\xff\n"
    line = 3 + head.count(b"\n")
    for stream in io.BytesIO(data), _UnseekableBytes(data):
        with pytest.raises(ParseError) as err:
            load_profile(io.TextIOWrapper(stream, encoding="utf-8"), fmt)
        assert str(err.value) == f"line {line}: expected a decimal integer, got 'x'"
    with pytest.raises(UnicodeDecodeError):  # with no bad line, the decoding fails
        load_profile(io.TextIOWrapper(io.BytesIO(data.replace(b"x", b"4")), encoding="utf-8"), fmt)


class _UnseekableBytes(io.BytesIO):
    def seekable(self):
        return False
