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
from datetime import date
from functools import cached_property
from itertools import chain

from .errors import NegativeCitation, ParseError, RankOutOfRange

SOURCES = ("scopus", "google_scholar", "other")


class CitationProfile(
    namedtuple(
        "CitationProfile",
        "citations name source snapshot_date complete",
        defaults=("", "other", None, True),
    )
):
    """An immutable, validated citation profile.

    ``citations`` is non-increasing with every entry >= 0.  Derived counts:
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


def normalize(
    raw: Iterable[int],
    name: str = "",
    source: str = "other",
    snapshot_date: date | None = None,
) -> CitationProfile:
    """Validate and sort raw citation counts into a profile.

    Entries must be non-negative integers; order does not matter.  Raises
    ``NegativeCitation`` pointing at the first offending input position.
    """
    entries = []
    for i, value in enumerate(raw):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(None, f"citation at position {i} must be an integer, got {value!r}")
        if value < 0:
            raise NegativeCitation(i, value)
        entries.append(value)
    entries.sort(reverse=True)
    if source not in SOURCES:
        source = "other"
    return CitationProfile(
        citations=tuple(entries), name=name, source=source, snapshot_date=snapshot_date
    )


def _parse_date(text: str) -> date | None:
    try:
        return date.fromisoformat(text)
    except ValueError:
        return None


def _load_lines(first: str, rest: io.TextIOBase) -> CitationProfile:
    values = []
    for lineno, line in enumerate(chain((first,), rest), start=1):
        text = line.strip()
        if not text:
            continue
        try:
            values.append(int(text))
        except ValueError:
            raise ParseError(lineno, f"expected a decimal integer, got {text!r}") from None
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
    meta: list[str] = []  # metadata, when present, sits on the first data row
    for row in rows:
        meta = meta or row
        text = cell(row, "citations")
        if not text:
            continue
        try:
            values.append(int(text))
        except ValueError:
            raise ParseError(reader.line_num, f"expected a decimal integer, got {text!r}") from None
    return normalize(
        values,
        name=cell(meta, "name"),
        source=cell(meta, "source") or "other",
        snapshot_date=_parse_date(cell(meta, "date")),
    )


def _load_json(first: str, rest: io.TextIOBase) -> CitationProfile:
    try:
        # one-line JSON leaves ``rest`` empty, and adding "" copies nothing
        payload = json.loads(first + rest.read())
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from None
    except RecursionError:
        raise ParseError(None, "JSON arrays or objects nested too deeply") from None
    if not isinstance(payload, dict) or "citations" not in payload:
        raise ParseError(1, "JSON object must contain a 'citations' array")
    raw = payload["citations"]
    if not isinstance(raw, list):
        raise ParseError(1, "'citations' must be an array of integers")
    return normalize(
        raw,
        name=str(payload.get("name", "")),
        source=str(payload.get("source", "other")),
        snapshot_date=_parse_date(str(payload.get("date", ""))),
    )


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
        source=profile.source,
        snapshot_date=profile.snapshot_date,
        complete=profile.complete and m == profile.p,
    )
