"""Byte-for-byte golden outputs of the command line on every fixture.

Each case in ``golden/cases.json`` is replayed in-process through
``citest.cli.main`` with stdout captured; the exit code and the stdout bytes
must equal the recorded ones in ``golden/<id>.out``.  A refactor that claims
to keep behaviour has to pass this unchanged.  The blind cases use the
smallest prefix K that certifies each fixture's estimate, recorded in the
case's argv.

Run ``PYTHONPATH=src python tests/test_golden.py`` to capture the outputs
again; do so only when an output is meant to change, and review the diff.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from citest.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
FIXTURES = HERE / "fixtures"
CASES = GOLDEN / "cases.json"

# smallest rank prefix at which each fixture's blind estimate certifies
BLIND_K = {
    "braun": 39, "egghe": 34, "einstein": 147, "garfield": 47, "glanzel": 62,
    "ingwersen": 32, "kalaj": 38, "kessler": 365, "kim": 347, "leydesdorff": 82,
    "martin": 44, "meyer": 101, "moed": 52, "monkova": 28, "mutafchiev": 19,
    "narin": 45, "rousseau": 45, "schubert": 46, "small": 41, "spalevic": 54,
    "vanraan": 54, "white": 22,
}


def _cases() -> list[dict]:
    cases = []
    for name in sorted(BLIND_K):
        path = f"{{fixtures}}/{name}.csv"
        for tag, argv in (
            ("indices", ["indices", path]),
            ("indices_json", ["indices", path, "--json"]),
            ("indices_csv", ["indices", path, "--csv"]),
            ("estimate", ["estimate", path]),
            ("estimate_json", ["estimate", path, "--json"]),
            ("estimate_ladder", ["estimate", path, "--ladder"]),
            ("estimate_blind", ["estimate", path, "--blind", str(BLIND_K[name])]),
        ):
            cases.append({"id": f"{name}.{tag}", "argv": argv})
    # a blind ladder leaves every n_cit_k empty; a blind JSON row carries
    # ranks_consumed, and a prefix holding the whole profile prints the errors
    garfield = "{fixtures}/garfield.csv"
    for tag, argv in (
        ("estimate_blind_ladder", ["--blind", "47", "--ladder", "--precision", "3"]),
        ("estimate_blind_json", ["--blind", "47", "--json"]),
        ("estimate_blind_full", ["--blind", "106"]),
    ):
        cases.append({"id": f"garfield.{tag}", "argv": ["estimate", garfield, *argv]})
    for table in ("1", "2", "5", "8"):
        argv = ["table", table, "--fixtures", "{fixtures}", "--diff"]
        cases.append({"id": f"table{table}_diff", "argv": argv})
    for tag, argv in (
        ("count_100", ["count", "100"]),
        ("durfee_dist_30", ["durfee-dist", "30"]),
        ("durfee_dist_30_p3", ["durfee-dist", "30", "--precision", "3"]),
        ("mode_400", ["mode", "400"]),
        ("mode_10000", ["mode", "10000"]),
    ):
        cases.append({"id": f"partition_{tag}", "argv": ["partition", *argv]})
    return cases


def _replay(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([arg.replace("{fixtures}", str(FIXTURES)) for arg in argv])
    return code, buf.getvalue().encode("utf-8")


def _recorded() -> dict[str, dict]:
    return {case["id"]: case for case in json.loads(CASES.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case["id"])
def test_golden_output(case):
    recorded = _recorded()[case["id"]]
    assert recorded["argv"] == case["argv"]
    code, out = _replay(case["argv"])
    assert code == recorded["exit"]
    assert out == (GOLDEN / f"{case['id']}.out").read_bytes()


def test_golden_covers_every_fixture():
    assert set(_recorded()) == {case["id"] for case in _cases()}
    assert set(BLIND_K) == {path.stem for path in FIXTURES.glob("*.csv")}


def capture() -> None:
    GOLDEN.mkdir(exist_ok=True)
    cases = []
    for case in _cases():
        code, out = _replay(case["argv"])
        (GOLDEN / f"{case['id']}.out").write_bytes(out)
        cases.append({**case, "exit": code})
    lines = ",\n".join(json.dumps(case) for case in cases)
    CASES.write_text(f"[\n{lines}\n]\n", encoding="utf-8")


if __name__ == "__main__":
    capture()
