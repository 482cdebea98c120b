"""Citation-profile data model, validation, and ingestion.

A profile is a non-increasing sequence of non-negative integer citation
counts.  Loaders accept unsorted input and sort it; zero entries are kept
(they contribute to ``p`` but to no index).  A profile whose ``complete``
flag is false is a rank prefix for blind estimation: the tail of the profile
is unknown.
"""

from __future__ import annotations

import csv
import io
import json
from collections import namedtuple
from collections.abc import Iterable
from functools import cached_property
from itertools import chain

from .errors import NegativeCitation, ParseError, RankOutOfRange

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
        raise AttributeError(f"CitationProfile is immutable: cannot set {name!r}")

    @property
    def p(self) -> int:
        return len(self.citations)

    # summed on first access; equality and hashing still read only the fields
    @cached_property
    def n_p_plus(self) -> int:
        return sum(1 for c in self.citations if c >= 1)

    @cached_property
    def n_cit(self) -> int:
        return sum(self.citations)


def normalize(raw: Iterable[int], name: str = "") -> CitationProfile:
    """Validate and sort raw citation counts into a profile.

    Entries must be integers in 0..``MAX_CITATIONS``, in any order.  Raises
    ``NegativeCitation`` at the first negative input position, else ``ParseError``.
    """
    entries = []
    for i, value in enumerate(raw):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(None, f"citation at position {i} must be an integer, got {value!r}")
        if value < 0:
            raise NegativeCitation(i, value)
        entries.append(value)
    entries.sort(reverse=True)
    if entries and entries[0] > MAX_CITATIONS:
        raise ParseError(None, f"citation count above the maximum of {MAX_CITATIONS}")
    return CitationProfile(citations=tuple(entries), name=name)


def _bad_count(line: int, text: str) -> ParseError:
    # int() refuses a decimal string past the interpreter's digit limit
    if text.isdecimal():
        return ParseError(line, "citation count too large")
    return ParseError(line, f"expected a decimal integer, got {text!r}")


def _load_lines(first: str, rest: io.TextIOBase) -> CitationProfile:
    values = []
    for lineno, line in enumerate(chain((first,), rest), start=1):
        text = line.strip()
        if not text:
            continue
        try:
            values.append(int(text))
        except ValueError:
            raise _bad_count(lineno, text) from None
    return normalize(values)


def _load_csv(first: str, rest: io.TextIOBase) -> CitationProfile:
    # Comment lines (leading '#') may precede the header; fixture files use
    # them for provenance notes.  They reach the reader as blank lines, so
    # ``line_num`` stays the file line.
    lines = chain((first,), rest)
    reader = csv.reader("" if line.lstrip().startswith("#") else line for line in lines)

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

    def cell(row: list[str], column: str) -> str:
        i = columns.get(column)
        return row[i].strip() if i is not None and i < len(row) else ""

    values: list[int] = []
    meta: list[str] = []  # the name, when present, sits on the first data row
    for row in rows:
        meta = meta or row
        text = cell(row, "citations")
        if not text:
            continue
        try:
            values.append(int(text))
        except ValueError:
            raise _bad_count(reader.line_num, text) from None
    return normalize(values, name=cell(meta, "name"))


def _load_json(first: str, rest: io.TextIOBase) -> CitationProfile:
    try:
        # one-line JSON leaves ``rest`` empty, and adding "" copies nothing
        payload = json.loads(first + rest.read())
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from None
    except RecursionError:
        raise ParseError(None, "JSON arrays or objects nested too deeply") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise ParseError(None, "citation count too large") from None
    if not isinstance(payload, dict) or "citations" not in payload:
        raise ParseError(1, "JSON object must contain a 'citations' array")
    raw = payload["citations"]
    if not isinstance(raw, list):
        raise ParseError(1, "'citations' must be an array of integers")
    return normalize(raw, name=str(payload.get("name", "")))


def load_profile(stream: io.TextIOBase, format: str) -> CitationProfile:
    """Load a profile from ``stream`` in one of ``json``, ``csv``, ``lines``.

    A UTF-8 byte-order mark at the start of the stream is skipped.
    """
    loaders = {"lines": _load_lines, "csv": _load_csv, "json": _load_json}
    if format not in loaders:
        raise ValueError(f"unknown format {format!r}; expected one of {sorted(loaders)}")
    # only the first line is read ahead; the loaders stream the rest
    first = stream.readline().removeprefix("\ufeff")
    return loaders[format](first, stream)


def truncate_head(profile: CitationProfile, m: int) -> CitationProfile:
    """Return the first ``m`` ranks of ``profile`` as a blind-estimation head."""
    if m < 0 or m > profile.p:
        raise RankOutOfRange(f"m={m} outside 0..{profile.p}")
    return CitationProfile(
        citations=profile.citations[:m],
        name=profile.name,
        complete=profile.complete and m == profile.p,
    )
