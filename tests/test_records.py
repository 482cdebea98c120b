"""Result records stay immutable, importing the CLI stays light, and every
import and every module-level private name in the package is used."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from citest import (
    CitationProfile,
    EstimateReport,
    InsufficientTail,
    Interval,
    Partition,
    ShiftedRow,
    compute_core_indices,
    count_by_durfee,
    error_metrics,
    estimate_report,
    h_defect,
    interval_variants,
    normalize,
    truncate_head,
)

from conftest import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.csv"))


def _records():
    """A fresh instance of each public record type, with one of its fields."""
    profile = normalize([25, 21, 17, 15, 10, 10, 7, 3, 2, 1])
    defect = h_defect(profile)
    report = estimate_report(profile, defect)
    indices = compute_core_indices(profile)
    return {
        "CitationProfile": (profile, "citations"),
        "CoreIndices": (indices, "h"),
        "ShiftedRow": (defect.rows[0], "h_k"),
        "DefectAnalysis": (defect, "d"),
        "Interval": (report.j_d, "lo"),
        "IntervalVariants": (interval_variants(indices), "i_mean"),
        "CaseWeights": (report.weights, "beta_d"),
        "EstimateReport": (report, "a_est"),
        "ErrorMetrics": (error_metrics(profile, report), "delta_a"),
        "Partition": (Partition((3, 1)), "parts"),
        "DurfeeDistribution": (count_by_durfee(10), "mode"),
    }


@pytest.mark.parametrize("kind", list(_records()))
def test_record_refuses_assignment(kind):
    record, field = _records()[kind]
    assert type(record).__name__ == kind
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    assert getattr(record, field) == before
    if kind == "CitationProfile":
        total = record.n_cit  # cached on first read
        with pytest.raises(AttributeError):
            record.n_cit = 0
        assert record.n_cit == total == sum(record.citations)


def _assert_full_arity(record, cls):
    # tuple.__new__ builds these records without the namedtuple arity check
    assert type(record) is cls and len(record) == len(cls._fields), (cls.__name__, record)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_blind_path_records_have_every_field(fixture_profile, name):
    full = fixture_profile(name)
    certified = estimate_report(full).ranks_consumed
    for m in (full.p, certified):
        head = truncate_head(full, m)
        _assert_full_arity(head, CitationProfile)
        defect = h_defect(head)
        report = estimate_report(head, defect)
        for row in defect.rows:
            _assert_full_arity(row, ShiftedRow)
        for interval in (report.i_d, report.i_d1, report.j_d, report.j_d1):
            _assert_full_arity(interval, Interval)
        _assert_full_arity(report, EstimateReport)
    short = truncate_head(full, certified - 1)
    _assert_full_arity(short, CitationProfile)
    with pytest.raises(InsufficientTail):
        estimate_report(short)


def test_cli_import_leaves_heavy_modules_out():
    # refdata parses its published tables with str.split, not ast or json
    heavy = ["dataclasses", "typing", "pathlib", "inspect", "datetime", "fractions", "decimal",
             "threading", "ast"]
    # argparse's own help formatter imports shutil (and with it bz2, lzma,
    # zlib and fnmatch) to read the terminal width; only JSON needs json
    startup = ["shutil", "bz2", "lzma", "zlib", "fnmatch", "json"]
    report = "print(*sorted(set(sys.argv[1:]) & set(sys.modules)), file=sys.stderr)"
    fixtures = str(SRC.parent / "tests" / "fixtures")
    garfield = os.path.join(fixtures, "garfield.csv")
    # after the import alone; after ``partition count``, which must not reach
    # the Fraction moments of count_by_durfee; after a plain and a csv
    # command; after a table diff, which reads refdata's cells; and after --help
    for run in ("", "main(['partition', 'count', '100'])", f"main(['estimate', {garfield!r}])",
                f"main(['indices', {garfield!r}, '--csv'])",
                f"main(['table', '2', '--fixtures', {fixtures!r}, '--diff'])",
                "try: main(['--help'])\nexcept SystemExit: pass"):
        code = f"import sys; from citest.cli import main\n{run}\n{report}"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, *heavy, *startup],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, check=True,
        )
        assert proc.stderr.split() == [], run


def test_every_imported_name_is_used():
    # no linter runs on the package; this is its unused-import check
    unused = []
    for path in sorted((SRC / "citest").glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public names
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - used)]
    assert unused == []


def test_every_private_name_is_used():
    # a module-level private name that nothing in the package reads is dead code
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((SRC / "citest").glob("*.py"))]
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    defined = set()
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(name.id for target in targets for name in ast.walk(target)
                           if isinstance(name, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.endswith("__")}
    assert sorted(private - read) == []
