"""Result records stay immutable, and importing the CLI stays light."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from citest import (
    Partition,
    compute_core_indices,
    count_by_durfee,
    error_metrics,
    estimate_report,
    h_defect,
    interval_variants,
    normalize,
    rules_of_thumb,
)

SRC = Path(__file__).resolve().parent.parent / "src"


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
        "RuleOfThumbSet": (rules_of_thumb(1000), "spruit"),
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


def test_cli_import_leaves_heavy_modules_out():
    heavy = ["dataclasses", "typing", "pathlib", "inspect"]
    code = "import sys, citest.cli; print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *heavy],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == []
