"""Command-line interface: index reports, estimation, partitions, table reproduction.

Exit codes: 1 ``table --diff`` found mismatches, 2 parse failure (including
an input file that is not UTF-8 text or is a directory), 3 empty/degenerate
core, 4 insufficient rank prefix, 5 resource ceiling, 6 missing fixtures.
All output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
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
)
from .estimators import (
    brown_interval,
    error_metrics,
    estimate_report,
    h_na,
    interval_variants,
)
from .indices import compute_core_indices
from .partitions import _max_n as _partition_ceiling
from .partitions import count_by_durfee, durfee_mode_formula, partition_count
from .profile import load_profile, truncate_head
from .shifted import h_defect

EXIT_DIFF = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_TAIL = 4
EXIT_RESOURCE = 5
EXIT_FIXTURES = 6


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
    with open(path, "r", encoding="utf-8") as fh:
        return load_profile(fh, fmt)


def _emit_table(rows, precision, out) -> None:
    writer = csv.writer(out)
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow(_fmt(v, precision) for v in row.values())


def _emit_row(row: dict, style: str, precision: int, out) -> None:
    if style == "json":
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

def cmd_indices(args) -> int:
    profile = _load(args.file, args.format)
    ci = compute_core_indices(profile)
    na = h_na(profile.n_cit)
    variants = interval_variants(ci)
    row = {
        "name": profile.name,
        "p": profile.p,
        "n_p_plus": profile.n_p_plus,
        "n_cit": profile.n_cit,
        "h": ci.h,
        "g": ci.g,
        "n_cit_h": ci.n_cit_h,
        "a_index": ci.a_index,
        "r_index": ci.r_index,
        "e_index": ci.e_index,
        "h_cap_index": ci.h_cap_index,
        "d_index": ci.d_index,
        "r_floor": ci.r_floor,
        "q": ci.q,
        "q_prime": ci.q_prime,
        "h_na": na,
        "h_na_over_h": na / ci.h,
        "e_over_h": ci.e_index / ci.h,
        "q_over_e": ci.q / ci.e_index,
        "i": (variants.i.lo, variants.i.hi),
        "i_mean": variants.i_mean,
    }
    style = "json" if args.json else ("csv" if args.csv else "plain")
    _emit_row(row, style, args.precision, sys.stdout)
    return 0


# ------------------------------------------------------------- estimate

def cmd_estimate(args) -> int:
    profile = _load(args.file, args.format)
    subject = profile
    if args.blind is not None:
        subject = truncate_head(profile, args.blind)
    defect = h_defect(subject)
    report = estimate_report(subject, defect)
    if args.ladder:
        writer = csv.writer(sys.stdout)
        writer.writerow(["k", "h_k", "n_h_k", "n_cit_k", "e_k", "q_k"])
        for row in defect.rows:
            writer.writerow([
                row.k, row.h_k, row.n_h_k,
                "" if row.n_cit_k is None else row.n_cit_k,
                _fmt(row.e_k, args.precision), _fmt(row.q_k, args.precision),
            ])
        return 0
    row = {
        "name": profile.name,
        "d": report.d,
        "case": report.case_tag,
        "h_d": defect.row_d.h_k,
        "e_d": defect.row_d.e_k,
        "q_d": defect.row_d.q_k,
        "j_d": (report.j_d.lo, report.j_d.hi),
        "j_d1": (report.j_d1.lo, report.j_d1.hi),
        "a": report.a_est,
        "b_prime": report.b_prime,
        "b_dprime": report.b_dprime,
        "b": report.b_est,
    }
    if not subject.complete:
        row["ranks_consumed"] = report.ranks_consumed
    else:
        metrics = error_metrics(profile, report)
        row["cap_delta_a"] = metrics.cap_delta_a
        row["cap_delta_b"] = metrics.cap_delta_b
        row["delta_a"] = metrics.delta_a
        row["delta_b"] = metrics.delta_b
    style = "json" if args.json else "plain"
    _emit_row(row, style, args.precision, sys.stdout)
    return 0


# ------------------------------------------------------------- partition

def cmd_partition(args) -> int:
    # the whole output is built first: a failing command leaves --out alone
    out = io.StringIO()
    if args.sub == "count":
        if args.n > _partition_ceiling():
            raise ResourceLimit(args.n, _partition_ceiling())
        out.write(f"{partition_count(args.n)}\n")
    elif args.sub == "durfee-dist":
        dist = count_by_durfee(args.n)
        writer = csv.writer(out)
        writer.writerow(["d", "count", "probability"])
        for d, count, prob in dist.csv_rows():
            writer.writerow([d, count, f"{prob:.{args.precision}g}"])
    else:  # mode: the formula always prints, the exact mode when affordable
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

def _load_fixture_profiles(directory: str, names: list[str]):
    paths = {n: os.path.join(directory, refdata.FIXTURE_FILES[n]) for n in names}
    missing = [n for n in names if not os.path.exists(paths[n])]
    if missing:
        raise FileNotFoundError(", ".join(sorted(missing)))
    return {n: _load(paths[n], "csv") for n in names}


def _table1_row(name, profile, precision):
    ci = compute_core_indices(profile)
    v = interval_variants(ci)
    return {
        "researcher": name,
        "n_p_plus": profile.n_p_plus,
        "n_cit": profile.n_cit,
        "h": ci.h,
        "n_cit_h": ci.n_cit_h,
        "h_na": h_na(profile.n_cit),
        "q": ci.q,
        "e": ci.e_index,
        "i": (v.i.lo, v.i.hi),
        "i_mean": v.i_mean,
        "iq": (v.iq.lo, v.iq.hi),
        "iq_mean": v.iq_mean,
        "r": ci.r_floor,
        "ir": (v.ir.lo, v.ir.hi),
        "ir_mean": v.ir_mean,
        "q_prime": ci.q_prime,
        "iq_prime": (v.iq_prime.lo, v.iq_prime.hi),
        "iq_prime_mean": v.iq_prime_mean,
    }


def _table2_row(name, profile, precision):
    defect = h_defect(profile)
    report = estimate_report(profile, defect)
    metrics = error_metrics(profile, report)
    return {
        "researcher": name,
        "n_cit": profile.n_cit,
        "h": defect.rows[0].h_k,
        "case": defect.case_tag,
        "d": defect.d,
        "h_d": defect.row_d.h_k,
        "n_h_d": defect.row_d.n_h_k,
        "e_d": defect.row_d.e_k,
        "q_d": defect.row_d.q_k,
        "j_d": (report.j_d.lo, report.j_d.hi),
        "j_d_mean": report.j_d.midpoint,
        "h_d1": defect.row_d1.h_k,
        "e_d1": defect.row_d1.e_k,
        "q_d1": defect.row_d1.q_k,
        "j_d1": (report.j_d1.lo, report.j_d1.hi),
        "j_d1_mean": report.j_d1.midpoint,
        "a": report.a_est,
        "b_prime": report.b_prime,
        "b_dprime": report.b_dprime,
        "b": report.b_est,
        "cap_delta_a": metrics.cap_delta_a,
        "cap_delta_b": metrics.cap_delta_b,
        "delta_b": metrics.delta_b,
    }


def _table8_rows():
    rows = []
    for name, n_cit, printed, category, note in refdata.TABLE8:
        band = brown_interval(n_cit)
        rows.append({
            "researcher": name,
            "n_cit": n_cit,
            "band": (band.lo, band.hi),
            "published": printed,
            "category": category,
            "note": note,
        })
    return rows


def _diff_cell(got, expected):
    """expected is (value, tol) or ((lo, hi), tol); returns (ok, delta)."""
    value, tol = expected
    if isinstance(value, tuple):
        deltas = [abs(g - v) for g, v in zip(got, value)]
        return max(deltas) <= tol, max(deltas)
    return abs(got - value) <= tol, abs(got - value)


def _diff_report(table_id, rows, out) -> bool:
    """Write the cell-by-cell comparison; return whether every cell matched."""
    expected_map = {
        "1": refdata.TABLE1_EXPECTED,
        "2": refdata.TABLE2_EXPECTED,
        "5": refdata.TABLE5_EXPECTED,
    }.get(table_id, {})
    out.write("\n# diff against published values\n")
    writer = csv.writer(out)
    writer.writerow(["researcher", "cell", "got", "published", "delta", "ok"])
    all_ok = True
    for row in rows:
        name = row["researcher"]
        for cell, expected in expected_map.get(name, {}).items():
            if cell not in row or row[cell] is None:
                continue
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
    precision = args.precision
    if args.table == "8":
        rows = _table8_rows()
    else:
        names = {
            "1": refdata.TABLE1_RESEARCHERS,
            "2": refdata.TABLE1_RESEARCHERS,
            "5": refdata.TABLE5_RESEARCHERS,
        }[args.table]
        if not args.fixtures:
            raise FileNotFoundError("fixture directory required (--fixtures DIR)")
        profiles = _load_fixture_profiles(args.fixtures, names)
        builder = _table1_row if args.table == "1" else _table2_row
        rows = [builder(n, profiles[n], precision) for n in names]
    _emit_table(rows, precision, sys.stdout)
    if args.diff and not _diff_report(args.table, rows, sys.stdout):
        return EXIT_DIFF
    return 0


# ------------------------------------------------------------- driver

def _precision(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citest",
        description="citation indices, total-citation estimators, partition statistics",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=_precision, default=6,
                        help="significant digits for real-valued output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_idx = sub.add_parser("indices", parents=[common],
                           help="core index family for one profile")
    p_idx.add_argument("file")
    p_idx.add_argument("--format", choices=["json", "csv", "lines"])
    p_idx.add_argument("--json", action="store_true")
    p_idx.add_argument("--csv", action="store_true")
    p_idx.set_defaults(func=cmd_indices)

    p_est = sub.add_parser("estimate", parents=[common],
                           help="total-citation estimate from the h-core")
    p_est.add_argument("file")
    p_est.add_argument("--format", choices=["json", "csv", "lines"])
    p_est.add_argument("--blind", type=int, default=None, metavar="K",
                       help="use only the top K ranks")
    p_est.add_argument("--ladder", action="store_true",
                       help="emit the shifted-index ladder rows 0..d+1 as CSV")
    p_est.add_argument("--json", action="store_true")
    p_est.set_defaults(func=cmd_estimate)

    p_part = sub.add_parser("partition", parents=[common],
                            help="exact partition computations")
    p_part.add_argument("sub", choices=["count", "durfee-dist", "mode"])
    p_part.add_argument("n", type=int)
    p_part.add_argument("--out", default=None)
    p_part.set_defaults(func=cmd_partition)

    p_tab = sub.add_parser("table", parents=[common],
                           help="reproduce a published table from fixtures")
    p_tab.add_argument("table", choices=["1", "2", "5", "8"])
    p_tab.add_argument("--fixtures", default=None, metavar="DIR")
    p_tab.add_argument("--diff", action="store_true")
    p_tab.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, NegativeCitation, NegativeArgument, RankOutOfRange,
            FileNotFoundError, IsADirectoryError, UnicodeDecodeError) as exc:
        if isinstance(exc, FileNotFoundError) and args.command == "table":
            print(f"citest: missing fixtures: {exc}", file=sys.stderr)
            return EXIT_FIXTURES
        print(f"citest: bad input: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EmptyCore, DegenerateCore) as exc:
        print(f"citest: degenerate profile: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except InsufficientTail as exc:
        print(f"citest: insufficient prefix: {exc}", file=sys.stderr)
        return EXIT_TAIL
    except ResourceLimit as exc:
        print(f"citest: resource ceiling: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
