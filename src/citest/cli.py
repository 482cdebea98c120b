"""Command-line interface: index reports, estimation, partitions, table reproduction.

``indices`` and table 1 print columns picked off one row, ``_indices_row``;
``estimate`` and tables 2 and 5 off another, ``_estimate_row``.  Exit code 1
means ``table --diff`` found mismatches.  A failure prints one
``citest: <label>: <message>`` line on stderr and exits with the code that
``_FAILURES`` gives its exception; a command, or help, that writes to a closed
stdout exits ``EXIT_PIPE`` quietly.  A ``cmd_*`` handler writes only to the
stream ``main`` hands it.  Output is deterministic for identical inputs.

The command grammar is stated once, in ``_SYNTAX``, and read twice: ``main``
reads a well-formed command line from it itself (``_read_argv``), so a plain
command loads no argparse; for help, usage and every error it hands the
table to ``citest._parser.build_parser``, which builds argparse's parser
from it.  The table is grammar only: ``main`` looks up the module's
``cmd_<command>`` as it calls it, so a wrapper set on the module runs.
"""

from __future__ import annotations

# csv's C core: csv.writer is _csv.writer, and the csv module would load re and enum
import _csv as csv
import io
import os
import sys
from types import SimpleNamespace

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
    integer_argument,
)
from .estimators import (
    brown_interval,
    error_metrics,
    estimate_report,
    h_na,
    interval_variants,
)
from .indices import compute_core_indices
from .partitions import count_by_durfee, partition_count
from .profile import load_profile, truncate_head
from .shifted import h_defect

EXIT_DIFF = 1
# 128 + SIGPIPE: what a shell reports for a tool that a closed pipe stopped
EXIT_PIPE = 141


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
_ESTIMATE = "name d case=case_tag h_d e_d q_d j_d j_d1 a=a_est b_prime b_dprime b=b_est"
_ESTIMATE_BLIND = _ESTIMATE + " ranks_consumed"
_ESTIMATE_FULL = _ESTIMATE + " cap_delta_a cap_delta_b delta_a delta_b"
_LADDER = "k h_k n_h_k n_cit_k e_k q_k"
_TABLE1 = ("researcher=name n_p_plus n_cit h n_cit_h h_na q e=e_index i i_mean iq iq_mean"
           " r=r_floor ir ir_mean q_prime iq_prime iq_prime_mean")
_TABLE2 = ("researcher=name n_cit h case=case_tag d h_d n_h_d e_d q_d j_d j_d_mean h_d1 e_d1"
           " q_d1 j_d1 j_d1_mean a=a_est b_prime b_dprime b=b_est cap_delta_a cap_delta_b delta_b")


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


_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\b": "\\b", "\f": "\\f", "\n": "\\n",
                 "\r": "\\r", "\t": "\\t"}
_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_char(c: str) -> str:
    n = ord(c)
    if n >= 0x10000:  # a surrogate pair
        n -= 0x10000
        return f"\\u{0xd800 | n >> 10:04x}\\u{0xdc00 | n & 0x3ff:04x}"
    return _JSON_ESCAPES.get(c) or (c if " " <= c <= "~" else f"\\u{n:04x}")


def _json_scalar(value) -> str:
    """``value`` (None, str, int or float; a float rounded to 10 places) as
    ``json.dumps`` writes it."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return '"' + "".join(map(_json_char, value)) + '"'
    text = repr(round(value, 10) if isinstance(value, float) else value)
    return _JSON_NONFINITE.get(text, text)


def _emit_row(row: dict, style: str, precision: int, out) -> None:
    if style == "json":
        # json.dump(row, indent=2)'s bytes, written without json: it loads re and enum
        items = [
            f"  {_json_scalar(k)}: " + (
                "[\n" + ",\n".join(f"    {_json_scalar(x)}" for x in v) + "\n  ]"
                if isinstance(v, tuple) else _json_scalar(v))
            for k, v in row.items()
        ]
        out.write("{\n" + ",\n".join(items) + "\n}\n")
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


def cmd_indices(args, out) -> int:
    profile = _load(args.file, args.format)
    row = _pick(_indices_row(profile, profile.name), _INDICES)
    style = "json" if args.json else ("csv" if args.csv else "plain")
    _emit_row(row, style, args.precision, out)
    return 0


# ------------------------------------------------------------- estimate

def _estimate_row(subject, name) -> dict:
    """Every column of ``estimate`` and of tables 2 and 5 for ``subject``, a
    full profile or a rank prefix of one, with the ladder rows 0..d+1 under
    ``ladder``; ``n_cit`` and the error metrics too when ``subject`` is complete."""
    defect = h_defect(subject)
    report = estimate_report(subject, defect)
    row_d, row_d1 = defect.row_d, defect.row_d1
    row = {
        **report._asdict(),
        "name": name,
        "h": defect.rows[0].h_k,
        "h_d": row_d.h_k,
        "n_h_d": row_d.n_h_k,
        "e_d": row_d.e_k,
        "q_d": row_d.q_k,
        "j_d_mean": report.j_d.midpoint,
        "h_d1": row_d1.h_k,
        "e_d1": row_d1.e_k,
        "q_d1": row_d1.q_k,
        "j_d1_mean": report.j_d1.midpoint,
        "ladder": defect.rows,
    }
    if subject.complete:
        row.update(n_cit=subject.n_cit, **error_metrics(subject, report)._asdict())
    return row


def cmd_estimate(args, out) -> int:
    profile = _load(args.file, args.format)
    subject = profile if args.blind is None else truncate_head(profile, args.blind)
    row = _estimate_row(subject, profile.name)
    if args.ladder:
        rows = [_pick(ladder_row._asdict(), _LADDER) for ladder_row in row["ladder"]]
        _emit_table(rows, args.precision, out)
    else:
        columns = _ESTIMATE_FULL if subject.complete else _ESTIMATE_BLIND
        _emit_row(_pick(row, columns), "json" if args.json else "plain", args.precision, out)
    return 0


# ------------------------------------------------------------- partition

def cmd_partition(args, out) -> int:
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
        try:
            # first: its check names a negative n as n, where h_na's names it n_cit
            dist = count_by_durfee(args.n)
        except ResourceLimit:
            dist = None
        out.write(f"formula {h_na(args.n):.{args.precision}g}\n")
        if dist is not None:
            tie = " (tied)" if dist.mode_tied else ""
            out.write(f"exact {dist.mode}{tie}\n")
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


def cmd_table(args, out) -> int:
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
            rows = [_pick(_estimate_row(p, name), _TABLE2) for name, p in profiles.items()]
    _emit_table(rows, args.precision, out)
    if args.diff and not _diff_report(args.table, rows, out):
        return EXIT_DIFF
    return 0


# ------------------------------------------------------------- driver

# every command's first option; 17 significant digits identify every double
_PRECISION_ARGUMENT = ("--precision", dict(type=lambda text: integer_argument(text, 0, 17),
                                           default=6, help="significant digits for real-valued output"))
# then, for a command that reads a profile, its input
_INPUT_ARGUMENTS = [("file", {}), ("--format", dict(choices=("json", "csv", "lines")))]
# the command grammar, read by _read_argv and by _parser.build_parser: each
# command's help line and arguments (main calls its cmd_<command> by name),
# in argparse's order, each as add_argument's name and keywords; a nested
# list is a mutually exclusive group.  A type raises ValueError on text it refuses
_SYNTAX = {
    "indices": ("core index family for one profile", [
        _PRECISION_ARGUMENT, *_INPUT_ARGUMENTS,
        [("--json", dict(action="store_true")), ("--csv", dict(action="store_true"))],
    ]),
    "estimate": ("total-citation estimate from the h-core", [
        _PRECISION_ARGUMENT, *_INPUT_ARGUMENTS,
        ("--blind", dict(type=integer_argument, metavar="K", help="use only the top K ranks")),
        [("--ladder", dict(action="store_true",
                           help="emit the shifted-index ladder rows 0..d+1 as CSV")),
         ("--json", dict(action="store_true"))],
    ]),
    "partition": ("exact partition computations", [
        _PRECISION_ARGUMENT,
        ("sub", dict(choices=("count", "durfee-dist", "mode"))),
        ("n", dict(type=integer_argument)),
        ("--out", {}),
    ]),
    "table": ("reproduce a published table from fixtures", [
        _PRECISION_ARGUMENT,
        ("table", dict(choices=("1", "2", "5", "8"))),
        ("--fixtures", dict(metavar="DIR")),
        ("--diff", dict(action="store_true")),
    ]),
}


def _read_argv(argv: list[str]) -> dict | None:
    """``vars(build_parser(_SYNTAX).parse_args(argv))`` for a well-formed
    command line, read from the same table without argparse; else ``None``.

    Well-formed is a command, its positionals, and each of its options at
    most once, as ``--opt VALUE``, ``--opt=VALUE`` or a flag, in any order,
    with at most one option of each exclusive group.  Help, ``--``, an
    abbreviated option, an option's value that is empty or starts with '-'
    and any error are left to argparse.
    """
    if not argv or argv[0] not in _SYNTAX:
        return None
    arguments = _SYNTAX[argv[0]][1]
    groups = [argument for argument in arguments if isinstance(argument, list)]
    # name -> keywords; a group holds options only, so the positionals keep their order
    grammar = dict([a for a in arguments if not isinstance(a, list)] + sum(groups, []))
    positionals = [name for name in grammar if not name.startswith("-")]
    args = {name[2:]: keywords.get("default", False if "action" in keywords else None)
            for name, keywords in grammar.items() if name.startswith("-")}
    args["command"] = argv[0]
    texts, seen, values = [], set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            texts.append(token)
            continue
        name, eq, value = token.partition("=")
        if name not in grammar or name in seen:
            return None
        seen.add(name)
        if "action" in grammar[name]:  # a flag takes no '=VALUE'
            if eq:
                return None
            args[name[2:]] = True
            continue
        if not eq:
            value = next(tokens, "")
        if not value or value.startswith("-"):  # missing, empty, or option-like
            return None
        values.append((name[2:], grammar[name], value))
    if len(texts) != len(positionals):
        return None
    if any(len(seen.intersection(name for name, _ in group)) > 1 for group in groups):
        return None
    values += [(dest, grammar[dest], text) for dest, text in zip(positionals, texts)]
    for dest, keywords, text in values:
        try:
            value = keywords.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        args[dest] = value
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        values = _read_argv(argv)
        if values is None:
            from ._parser import build_parser  # argparse: help, usage and every error

            values = vars(build_parser(_SYNTAX).parse_args(argv))
        path = values.get("out")
        # --out is written from a buffer, so that a failing command leaves the file alone
        out = io.StringIO() if path or sys.stdout is None else sys.stdout
        code = globals()["cmd_" + values["command"]](SimpleNamespace(**values), out)
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())
        elif sys.stdout is None:  # fd 1 closed at start: output there exits as on a closed pipe
            return EXIT_PIPE if out.tell() else code
        out.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone, or fd 1 is closed: point a live stdout's fd at
        # devnull, so that the final flush of what is still buffered stays quiet
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_PIPE
    except tuple(_FAILURES) as exc:
        code, label = next(v for cls, v in _FAILURES.items() if isinstance(exc, cls))
        print(f"citest: {label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
