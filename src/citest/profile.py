"""Citation-profile data model, validation, and ingestion.

A profile is a non-increasing sequence of non-negative integer citation
counts.  Loaders and ``normalize`` accept unsorted input, and one rule
(``_tally``) serves every format: where at most one entry in 4 is distinct
(for ``lines`` and ``csv``, one line in 4), only the distinct ones are read
and sorted; else every entry is, and a text format is read row by row.  So
is a text stream that cannot seek, in either format.  A load holds one copy
of the entries at a time: at its peak, ``lines`` holds the tuple and one
block of text, csv its distinct lines, and JSON its text and list while
``json.loads`` runs.  Zero entries are kept (they contribute to ``p`` but
to no index).  A profile whose ``complete`` flag is false is a rank prefix
for blind estimation: the tail of the profile is unknown.
"""

from __future__ import annotations

# csv's C core: csv.reader and csv.Error are _csv's, and the csv module would load re and enum
import _csv as csv
import io
from collections import Counter, namedtuple
from collections.abc import Iterable
from functools import cached_property
from itertools import chain, repeat
from operator import add, itemgetter

from .errors import NegativeCitation, ParseError, RankOutOfRange, quoted, shown

# far above any real count; sums, squares and interval bounds stay finite floats
MAX_CITATIONS = 10**15


class CitationProfile(
    namedtuple("CitationProfile", "citations name complete", defaults=("", True))
):
    """An immutable, validated citation profile.

    ``citations`` is non-increasing with every entry >= 0; ``name`` is for
    display only (input columns or keys other than ``name`` and
    ``citations``, such as ``source`` or ``date``, are ignored).  Derived counts:
    ``p`` (publications), ``n_p_plus`` (publications with at least one
    citation) and ``n_cit`` (total citations).  ``complete`` is false when
    ``citations`` holds only the top ranks of a longer profile, so the
    derived counts cover the prefix alone.
    """

    # no __slots__: the cached sums live in the instance __dict__, which
    # cached_property fills directly, so plain assignment can be refused
    def __setattr__(self, name, value):
        raise AttributeError(f"CitationProfile is immutable: cannot set {quoted(name)}")

    @property
    def p(self) -> int:
        return len(self.citations)

    # summed on first access; equality and hashing still read only the fields
    @cached_property
    def n_p_plus(self) -> int:
        return self.p - self.citations.count(0)  # every entry is >= 0

    @cached_property
    def n_cit(self) -> int:
        return sum(self.citations)


def normalize(raw: Iterable[int]) -> CitationProfile:
    """Validate and sort raw citation counts into a profile.

    Entries must be integers in 0..``MAX_CITATIONS``, in any order.  Raises
    ``NegativeCitation`` at the first negative input position, else ``ParseError``.
    """
    return _profile(_ints(list(raw)))


def _ints(entries: list) -> list:
    # Every entry's type is checked before any counting, here and not in
    # _profile, which the text formats call with ints: a Counter would merge
    # True and 1.0 into the key 1.
    if not set(map(type, entries)) <= {int}:
        _name_bad_entry(entries)
    return entries


def _profile(entries: list[int], name: str = "") -> CitationProfile:
    # Input in order, either way, sorts in linear time, and a sample without a
    # repeat foretells a refused tally; about 32 evenly spaced entries tell.
    sample = entries[:: len(entries) // 32 or 1]
    ordered = sorted(sample)
    sort_whole = sample == ordered or sample[::-1] == ordered or len(set(sample)) == len(sample)
    counts = None if sort_whole else _tally(entries)
    values = entries if counts is None else list(counts)
    # C-level checks cover the usual input; _name_bad_entry runs only to name
    # a bad position, so it runs while ``entries`` is in its input order
    # (``_ranked`` sorts a list that is not tallied in place)
    if min(values, default=0) < 0:
        _name_bad_entry(entries)
    # A tallied list is emptied before the tuple is built.  Every caller
    # passes a list of its own, and clearing frees its entries even where the
    # caller's frame still holds the list (CPython before 3.11 keeps a call's
    # arguments on the caller's stack until it returns).
    if counts is not None:
        entries.clear()
    profile = _ranked(values, name, counts)
    if profile is None:
        raise ParseError(None, f"citation count above the maximum of {MAX_CITATIONS}")
    return profile


def _name_bad_entry(entries: list) -> None:
    """Raise for the first entry that is not an integer >= 0."""
    for i, value in enumerate(entries):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(None, f"citation at position {i} must be an integer, got {quoted(value)}")
        if value < 0:
            raise NegativeCitation(i, value)


def _tally(items: Iterable) -> Counter | None:
    """Count ``items`` in C, or ``None`` where more than one item in 4 is distinct.

    Below that share, reading and sorting only the distinct items beats
    reading and sorting them all; above it, the count is wasted.
    """
    counts = Counter(items)
    return counts if 4 * len(counts) <= counts.total() else None


def _ranked(values: list[int], name: str, times: dict[int, int] | None = None) -> CitationProfile | None:
    """The profile of ``values``, sorted in place, each repeated ``times[value]`` times if given.

    ``None`` if a value is outside 0..``MAX_CITATIONS``.
    """
    values.sort(reverse=True)
    if values and not (values[-1] >= 0 and values[0] <= MAX_CITATIONS):
        return None
    order = values
    if times is not None:
        order = chain.from_iterable(map(repeat, values, map(times.__getitem__, values)))
    return CitationProfile(citations=tuple(order), name=name)


_TOO_LARGE = "citation count too large"


def _count(line: int | None, text: str) -> int:
    """Read one stripped, non-empty value, or raise.

    A value is ASCII digits; a leading ``-`` is read too, so that normalizing
    names the negative count with its position.
    """
    digits = text.removeprefix("-")
    if digits.isdigit() and digits.isascii():  # the grammar of a count
        try:
            return int(text)
        except ValueError:  # int() refuses a digit string past its limit
            raise ParseError(line, _TOO_LARGE) from None
    raise ParseError(line, f"expected a decimal integer, got {quoted(text)}")


def _tallied(pairs: Iterable[tuple[int, str]]) -> dict[int, int] | None:
    """The count of each value in these ``(times, text)`` pairs, or ``None`` if in doubt.

    Each text stands for ``times`` entries and is read once.  ``None`` (a bad
    count, or one past ``int()``'s limit) leaves the input to the per-row
    scan, which words the error; so does a tally that ``_ranked`` refuses.
    """
    counts: dict[int, int] = {}
    try:
        for times, text in pairs:
            if text := text.strip():
                value = _count(None, text)
                counts[value] = counts.get(value, 0) + times  # '007' and '7' are one value
    except ParseError:
        return None
    return counts


# characters per read of a ``lines`` stream; a read is at least as long as
# the partial line it carries, so a long line still costs linear time
_BLOCK = 8192


def _line_blocks(first: str, rest: io.TextIOBase) -> Iterable[list[str]]:
    # the lines of first + rest.read(), as split("\n") gives them, a block at
    # a time, so that no list of every line is held
    tail = first
    while block := rest.read(max(_BLOCK, len(tail))):
        lines = (tail + block).split("\n")
        tail = lines.pop()  # a line the next block may go on
        yield lines
    yield tail.split("\n")  # ``first`` alone may end in "\n"


def _lines_tally(first: str, rest: io.TextIOBase) -> CitationProfile | None:
    # counting holds the distinct lines and one block; both go before the
    # tuple is built
    lines = _tally(chain.from_iterable(_line_blocks(first, rest)))
    counts = None if lines is None else _tallied(zip(lines.values(), lines))
    del lines
    return None if counts is None else _ranked(list(counts), "", counts)


def _lines_scan(first: str, rest: io.TextIOBase) -> CitationProfile:
    lines = enumerate(chain.from_iterable(_line_blocks(first, rest)), start=1)
    return _profile([_count(lineno, text) for lineno, line in lines if (text := line.strip())])


def _uncommented(lines: Iterable[str]) -> Iterable[str]:
    # A line whose first non-blank character is '#' (the fixtures' provenance
    # notes) reads as blank, even inside a quoted field; ``line_num`` stays
    # the file line.
    return ("" if line.lstrip().startswith("#") else line for line in lines)


def _csv_head(first: str, rest: io.TextIOBase):
    """Read a CSV up to and including its name row.

    Returns the reader, its non-empty rows still to come, the ``citations``
    column, the name row (the first data row, or ``[]``) and the name.  A
    ``csv.Error`` is worded at its line, and so is a header without a
    ``citations`` column.  ``rest`` is left just past the name row.
    """
    reader = csv.reader(_uncommented(chain((first,), rest)))

    def nonempty_rows():
        try:
            yield from filter(None, reader)
        except csv.Error as exc:  # e.g. a field over the reader's size limit
            raise ParseError(reader.line_num, str(exc)) from None

    rows = nonempty_rows()
    # a repeated column name resolves to its last occurrence
    columns = {column: i for i, column in enumerate(next(rows, []))}
    if "citations" not in columns:
        raise ParseError(reader.line_num or 1, "CSV header must contain a 'citations' column")
    meta = next(rows, [])
    i = columns.get("name")
    name = meta[i].strip() if i is not None and i < len(meta) else ""
    return reader, rows, columns["citations"], meta, name


def _csv_tally(first: str, rest: io.TextIOBase) -> CitationProfile | None:
    _, _, at, meta, name = _csv_head(first, rest)
    # The lines below the name row are counted as they stream (their whole
    # text would cost memory), and each distinct line is parsed once.  That
    # is the scan's reading only while every distinct line is one row:
    # ``line_num`` counts the lines the reader took, so a quoted field that
    # runs onto a later line shows as a surplus, and the sentinel makes a
    # quote left open on the last line take one more.  The counts lead the
    # zip, so no row is asked for past the last line.
    lines = _tally(rest)
    if lines is None:
        return None
    reader = csv.reader(chain(_uncommented(lines), ("\n",)))
    pad = [""] * (at + 1)  # a short row or a blank line reads as an empty cell
    cells = map(itemgetter(at), map(add, reader, repeat(pad)))
    counts = _tallied(chain([(1, (meta + pad)[at])], zip(lines.values(), cells)))
    if counts is None or reader.line_num != len(lines):
        return None
    # at its peak this holds the distinct lines; they go before the tuple
    # is built
    del lines, reader, cells
    return _ranked(list(counts), name, counts)


def _csv_scan(first: str, rest: io.TextIOBase) -> CitationProfile:
    reader, rows, at, meta, name = _csv_head(first, rest)
    values: list[int] = []
    for row in chain([meta], rows):
        text = row[at].strip() if at < len(row) else ""
        if text:  # ``line_num`` still names this row
            values.append(_count(reader.line_num, text))
    return _profile(values, name)


def _load_json(stream: io.TextIOBase) -> CitationProfile:
    import json  # imported here: no other format needs it

    try:
        # the text lives only while it is decoded
        payload = json.loads(stream.read().removeprefix("\ufeff"))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from None
    except RecursionError:
        raise ParseError(None, "JSON arrays or objects nested too deeply") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise ParseError(None, _TOO_LARGE) from None
    if not isinstance(payload, dict) or "citations" not in payload:
        raise ParseError(1, "JSON object must contain a 'citations' array")
    if not isinstance(payload["citations"], list):
        raise ParseError(1, "'citations' must be an array of integers")
    name = payload.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(1, "'name' must be a string")
    # popped: the list is _profile's to empty once it is tallied
    return _profile(_ints(payload.pop("citations")), name or "")


def load_profile(stream: io.TextIOBase, format: str) -> CitationProfile:
    """Load a profile from ``stream`` in one of ``json``, ``csv``, ``lines``.

    A UTF-8 byte-order mark at the start of the stream is skipped.
    """
    formats = ["csv", "json", "lines"]
    if format not in formats:
        raise ValueError(f"unknown format {quoted(format)}; expected one of {formats}")
    if format == "json":
        return _load_json(stream)
    first = stream.readline().removeprefix("\ufeff")
    tally, scan = (_csv_tally, _csv_scan) if format == "csv" else (_lines_tally, _lines_scan)
    # Anything the tally refuses or is unsure of goes back to where it
    # started for the scan, so it takes only a stream that can tell its place.
    try:
        start = stream.tell() if stream.seekable() else None
    except OSError:  # a text file iterated with next() cannot tell
        start = None
    if start is not None:
        try:
            profile = tally(first, stream)
        except (csv.Error, UnicodeDecodeError):  # the scan words these at their line
            profile = None
        if profile is not None:
            return profile
        stream.seek(start)
    return scan(first, stream)


def truncate_head(profile: CitationProfile, m: int) -> CitationProfile:
    """Return the first ``m`` ranks of ``profile`` as a blind-estimation head."""
    if m < 0 or m > profile.p:
        raise RankOutOfRange(f"{shown('m', m)} outside 0..{profile.p}")
    complete = profile.complete and m == profile.p
    return tuple.__new__(CitationProfile, (profile.citations[:m], profile.name, complete))
