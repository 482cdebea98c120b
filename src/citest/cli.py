"""Command-line interface: index reports, estimation, partitions, table reproduction.

``indices`` and table 1 print columns picked off one row, ``_indices_row``;
``estimate`` and tables 2 and 5 off another, ``_estimate_row``.  Exit code 1
means ``table --diff`` found mismatches.  A failure prints one
``citest: <label>: <message>`` line on stderr and exits with the code that
``_FAILURES`` gives its exception.  All output is deterministic for identical
inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys

from . import refdata
from .errors import (
    DegenerateCore,
    EmptyCore,
    InsufficientTail,
    NegativeArgument,
    NegativeCitation,
    ParseError,
    RankOutOfRange,
    ResourceLimit,
    quoted,
)
from .estimators import (
    brown_interval,
    error_metrics,
    estimate_report,
    h_na,
    interval_variants,
)
from .indices import compute_core_indices
from .partitions import count_by_durfee, durfee_mode_formula, partition_count
from .profile import load_profile, truncate_head
from .shifted import h_defect

EXIT_DIFF = 1


class MissingFixtures(Exception):
    """``table`` found no fixture directory or lacks some fixture files."""


# each failure's exit code and stderr label; an exception not named here propagates
_FAILURES = {
    # a parse failure, or a file that cannot be read or written
    **dict.fromkeys((ParseError, NegativeCitation, NegativeArgument, RankOutOfRange,
                     OSError, UnicodeDecodeError), (2, "bad input")),
    MissingFixtures: (6, "missing fixtures"),
    **dict.fromkeys((EmptyCore, DegenerateCore), (3, "degenerate profile")),
    InsufficientTail: (4, "insufficient prefix"),
    ResourceLimit: (5, "resource ceiling"),
}

# the columns each command and table prints, in order; ``out=key`` prints
# the row's ``key`` under the name ``out``
_INDICES = ("name p n_p_plus n_cit h g n_cit_h a_index r_index e_index h_cap_index d_index"
            " r_floor q q_prime h_na h_na_over_h e_over_h q_over_e i i_mean")
_ESTIMATE = "name d case h_d e_d q_d j_d j_d1 a b_prime b_dprime b"
_ESTIMATE_BLIND = _ESTIMATE + " ranks_consumed"
_ESTIMATE_FULL = _ESTIMATE + " cap_delta_a cap_delta_b delta_a delta_b"
_LADDER = "k h_k n_h_k n_cit_k e_k q_k"
_TABLE1 = ("researcher=name n_p_plus n_cit h n_cit_h h_na q e=e_index i i_mean iq iq_mean"
           " r=r_floor ir ir_mean q_prime iq_prime iq_prime_mean")
_TABLE2 = ("researcher=name n_cit h case d h_d n_h_d e_d q_d j_d j_d_mean"
           " h_d1 e_d1 q_d1 j_d1 j_d1_mean a b_prime b_dprime b cap_delta_a cap_delta_b delta_b")


def _fmt(value, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt(v, precision) for v in value) + ")"
    return str(value)


def _load(path: str, fmt: str | None):
    suffixes = {".json": "json", ".csv": "csv"}
    fmt = fmt or suffixes.get(os.path.splitext(path)[1].lower(), "lines")
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")  # decoded whole: an error names the file offset
    # newline=None reads '\r\n' and a lone '\r' as '\n', as text mode does
    return load_profile(io.StringIO(text, newline=None), fmt)


def _pick(row: dict, columns: str) -> dict:
    return {out: row[key or out] for out, _, key in (c.partition("=") for c in columns.split())}


def _emit_table(rows, precision, out) -> None:
    writer = csv.writer(out)
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow(_fmt(v, precision) for v in row.values())


def _emit_row(row: dict, style: str, precision: int, out) -> None:
    if style == "json":
        import json  # imported here: no other output style needs it

        serializable = {
            k: (v if isinstance(v, (int, str, type(None))) else
                ([round(x, 10) for x in v] if isinstance(v, tuple) else round(v, 10)))
            for k, v in row.items()
        }
        json.dump(serializable, out, indent=2, sort_keys=False)
        out.write("\n")
    elif style == "csv":
        _emit_table([row], precision, out)
    else:
        width = max(len(k) for k in row)
        for k, v in row.items():
            out.write(f"{k:<{width}}  {_fmt(v, precision)}\n")


# ------------------------------------------------------------- indices

def _indices_row(profile, name) -> dict:
    """Every column of ``indices`` and of table 1 for ``profile``."""
    indices = compute_core_indices(profile)
    na = h_na(profile.n_cit)
    variants = interval_variants(indices)  # e = 0 raises here, before q / e
    return {
        "name": name,
        "p": profile.p,
        "n_p_plus": profile.n_p_plus,
        "n_cit": profile.n_cit,
        **indices._asdict(),
        "h_na": na,
        "h_na_over_h": na / indices.h,
        "e_over_h": indices.e_index / indices.h,
        "q_over_e": indices.q / indices.e_index,
        **variants._asdict(),
    }


def cmd_indices(args) -> int:
    profile = _load(args.file, args.format)
    row = _pick(_indices_row(profile, profile.name), _INDICES)
    style = "json" if args.json else ("csv" if args.csv else "plain")
    _emit_row(row, style, args.precision, sys.stdout)
    return 0


# ------------------------------------------------------------- estimate

def _estimate_row(profile, subject, name) -> dict:
    """Every column of ``estimate`` and of tables 2 and 5 for ``subject``, the
    full ``profile`` or a rank prefix of it, with the ladder rows 0..d+1 under
    ``ladder``; the error metrics too when ``subject`` is complete."""
    defect = h_defect(subject)
    report = estimate_report(subject, defect)
    row_d, row_d1 = defect.row_d, defect.row_d1
    row = {
        "name": name,
        "n_cit": profile.n_cit,
        "h": defect.rows[0].h_k,
        "case": report.case_tag,
        "d": report.d,
        "h_d": row_d.h_k,
        "n_h_d": row_d.n_h_k,
        "e_d": row_d.e_k,
        "q_d": row_d.q_k,
        "j_d": report.j_d,
        "j_d_mean": report.j_d.midpoint,
        "h_d1": row_d1.h_k,
        "e_d1": row_d1.e_k,
        "q_d1": row_d1.q_k,
        "j_d1": report.j_d1,
        "j_d1_mean": report.j_d1.midpoint,
        "a": report.a_est,
        "b_prime": report.b_prime,
        "b_dprime": report.b_dprime,
        "b": report.b_est,
        "ranks_consumed": report.ranks_consumed,
        "ladder": defect.rows,
    }
    if subject.complete:
        row.update(error_metrics(profile, report)._asdict())
    return row


def cmd_estimate(args) -> int:
    profile = _load(args.file, args.format)
    subject = profile if args.blind is None else truncate_head(profile, args.blind)
    row = _estimate_row(profile, subject, profile.name)
    if args.ladder:
        rows = [_pick(ladder_row._asdict(), _LADDER) for ladder_row in row["ladder"]]
        _emit_table(rows, args.precision, sys.stdout)
    else:
        columns = _ESTIMATE_FULL if subject.complete else _ESTIMATE_BLIND
        _emit_row(_pick(row, columns), "json" if args.json else "plain", args.precision, sys.stdout)
    return 0


# ------------------------------------------------------------- partition

def cmd_partition(args) -> int:
    # the whole output is built first: a failing command leaves --out alone
    out = io.StringIO()
    if args.sub == "count":
        out.write(f"{partition_count(args.n)}\n")
    elif args.sub == "durfee-dist":
        dist = count_by_durfee(args.n)
        rows = [
            {"d": d, "count": count, "probability": count / dist.total}
            for d, count in sorted(dist.counts.items())
        ]
        _emit_table(rows, args.precision, out)
    else:  # mode: the formula always prints, the exact mode when affordable
        if args.n > sys.float_info.max:  # math.sqrt converts n to a float
            raise ParseError(None, f"n must be below {sys.float_info.max:.2g} for the mode formula")
        out.write(f"formula {durfee_mode_formula(args.n):.{args.precision}g}\n")
        try:
            dist = count_by_durfee(args.n)
        except ResourceLimit:
            pass
        else:
            tie = " (tied)" if dist.mode_tied else ""
            out.write(f"exact {dist.mode}{tie}\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())
    else:
        sys.stdout.write(out.getvalue())
    return 0


# ------------------------------------------------------------- table

def _load_fixture_profiles(directory: str, names):
    paths = {n: os.path.join(directory, refdata.FIXTURE_FILES[n]) for n in names}
    missing = [n for n in names if not os.path.exists(paths[n])]
    if missing:
        raise MissingFixtures(", ".join(sorted(missing)))
    return {n: _load(paths[n], "csv") for n in names}


def _table8_rows():
    return [
        {"researcher": name, "n_cit": n_cit, "band": brown_interval(n_cit),
         "published": printed, "category": category, "note": note}
        for name, n_cit, printed, category, note in refdata.TABLE8
    ]


def _diff_cell(got, expected):
    """expected is (value, tol) or ((lo, hi), tol); returns (ok, delta)."""
    value, tol = expected
    if isinstance(value, tuple):
        deltas = [abs(g - v) for g, v in zip(got, value)]
        return max(deltas) <= tol, max(deltas)
    return abs(got - value) <= tol, abs(got - value)


def _diff_report(table_id, rows, out) -> bool:
    """Write the cell-by-cell comparison; return whether every cell matched."""
    expected_map = refdata.PUBLISHED_CELLS.get(table_id, {})
    out.write("\n# diff against published values\n")
    writer = csv.writer(out)
    writer.writerow(["researcher", "cell", "got", "published", "delta", "ok"])
    all_ok = True
    for row in rows:
        name = row["researcher"]
        for cell, expected in expected_map.get(name, {}).items():
            if not isinstance(expected, tuple):
                expected = (expected, 0)
            ok, delta = _diff_cell(row[cell], expected)
            all_ok = all_ok and ok
            writer.writerow([
                name, cell, _fmt(row[cell], 10), _fmt(expected[0], 10),
                _fmt(delta, 4), "OK" if ok else "FAIL",
            ])
    skipped = [d for d in refdata.KNOWN_DISCREPANCIES if d[0] == table_id]
    if skipped:
        out.write("# skipped cells (published value inconsistent with its own inputs)\n")
        for _, name, cell, value, why in skipped:
            out.write(f"#   {name}.{cell} = {value}: {why}\n")
    return all_ok


def cmd_table(args) -> int:
    if args.table == "8":
        rows = _table8_rows()
    else:
        if not args.fixtures:
            raise MissingFixtures("fixture directory required (--fixtures DIR)")
        # a table's rows are the researchers it has published cells for
        profiles = _load_fixture_profiles(args.fixtures, refdata.PUBLISHED_CELLS[args.table])
        if args.table == "1":
            rows = [_pick(_indices_row(p, name), _TABLE1) for name, p in profiles.items()]
        else:
            rows = [_pick(_estimate_row(p, p, name), _TABLE2) for name, p in profiles.items()]
    _emit_table(rows, args.precision, sys.stdout)
    if args.diff and not _diff_report(args.table, rows, sys.stdout):
        return EXIT_DIFF
    return 0


# ------------------------------------------------------------- driver

class _Formatter(argparse.HelpFormatter):
    """argparse's help formatter at the width ``shutil.get_terminal_size``
    gives, minus 2, as argparse's own; it reads that width without importing
    ``shutil``, which argparse does for every parser it builds."""

    def __init__(self, prog):
        try:
            columns = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            columns = 0
        if columns <= 0:
            try:
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
            except (AttributeError, ValueError, OSError):  # no stdout, or not a terminal
                columns = 0
        super().__init__(prog, width=(columns or 80) - 2)


class _Parser(argparse.ArgumentParser):
    """argparse, whose messages name a raw argument past 20 characters by its
    size (``a 100000-character argument``) instead of echoing it, and whose
    help is sized by ``_Formatter``; the subparsers that ``add_subparsers``
    makes are of this class too."""

    def __init__(self, *args, formatter_class=_Formatter, **kwargs):
        super().__init__(*args, formatter_class=formatter_class, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        self.raw_args = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(self.raw_args, namespace)

    def error(self, message):
        # an option may carry its value after '=': --format=VALUE
        texts = {text for arg in self.raw_args for text in (arg, arg.partition("=")[2])}
        for text in sorted(texts, key=len, reverse=True):
            if quoted(text) != repr(text):
                size = quoted(text, "argument")
                message = message.replace(repr(text), size).replace(text, size)
        super().error(message)


def _integer(low: int | None = None, high: int | None = None):
    """An argparse type with the integer grammar of input files.

    ASCII digits after an optional '-', within ``low``..``high`` when given.
    """

    def parse(text: str) -> int:
        if not (text.removeprefix("-").isdigit() and text.isascii()):
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        try:
            value = int(text)
        except ValueError:  # int() refuses a digit string past its limit
            raise argparse.ArgumentTypeError(f"{text!r} has too many digits") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {quoted(value, 'argument')}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {quoted(value, 'argument')}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="citest",
        description="citation indices, total-citation estimators, partition statistics",
    )
    common = _Parser(add_help=False)
    # 17 significant digits identify every double
    common.add_argument("--precision", type=_integer(0, 17), default=6,
                        help="significant digits for real-valued output")
    source = _Parser(add_help=False)
    source.add_argument("file")
    source.add_argument("--format", choices=("json", "csv", "lines"))
    sub = parser.add_subparsers(dest="command", required=True)

    p_idx = sub.add_parser("indices", parents=[common, source],
                           help="core index family for one profile")
    style = p_idx.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true")
    style.add_argument("--csv", action="store_true")
    p_idx.set_defaults(func=cmd_indices)

    p_est = sub.add_parser("estimate", parents=[common, source],
                           help="total-citation estimate from the h-core")
    p_est.add_argument("--blind", type=_integer(), default=None, metavar="K",
                       help="use only the top K ranks")
    style = p_est.add_mutually_exclusive_group()
    style.add_argument("--ladder", action="store_true",
                       help="emit the shifted-index ladder rows 0..d+1 as CSV")
    style.add_argument("--json", action="store_true")
    p_est.set_defaults(func=cmd_estimate)

    p_part = sub.add_parser("partition", parents=[common],
                            help="exact partition computations")
    p_part.add_argument("sub", choices=("count", "durfee-dist", "mode"))
    p_part.add_argument("n", type=_integer())
    p_part.add_argument("--out", default=None)
    p_part.set_defaults(func=cmd_partition)

    p_tab = sub.add_parser("table", parents=[common],
                           help="reproduce a published table from fixtures")
    p_tab.add_argument("table", choices=("1", "2", "5", "8"))
    p_tab.add_argument("--fixtures", default=None, metavar="DIR")
    p_tab.add_argument("--diff", action="store_true")
    p_tab.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_FAILURES) as exc:
        code, label = next(v for cls, v in _FAILURES.items() if isinstance(exc, cls))
        print(f"citest: {label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
