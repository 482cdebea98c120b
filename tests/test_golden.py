"""Byte-for-byte golden outputs of the command line on every fixture.

Each case in ``golden/cases.json`` is replayed in-process through
``citest.cli.main`` with stdout captured; the exit code and the stdout bytes
must equal the recorded ones in ``golden/<id>.out``.  A refactor that claims
to keep behaviour has to pass this unchanged.  The blind cases use as K
the shortest prefix from which the scan certifies each fixture's estimate,
recorded in the case's argv.

The help cases pin the stdout of ``citest --help`` and of each subcommand's
``--help``, and the stderr of one usage error, at the width argparse takes
from ``COLUMNS`` or the terminal: 80 when neither gives one (``<id>.out`` or
``<id>.err``) and 50 (``<id>.cols50.out`` or ``.err``).  From Python 3.13 on
argparse wraps a usage line differently, so a ``.py313`` file, where
present, holds that version's bytes.

Run ``PYTHONPATH=src python tests/test_golden.py`` to capture the outputs
again; do so only when an output is meant to change, and review the diff.
Capture on Python 3.12 or older first; a capture on 3.13 then writes a
``.py313`` file only where its bytes differ.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from citest.cli import main

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
FIXTURES = HERE / "fixtures"
CASES = GOLDEN / "cases.json"

# the shortest prefix from which the scan certifies each fixture's blind estimate
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


# (id, argv, stream): stdout of each --help, stderr of a missing argument
HELP_CASES = [
    ("help.citest", ["--help"], ".out"),
    ("help.indices", ["indices", "--help"], ".out"),
    ("help.estimate", ["estimate", "--help"], ".out"),
    ("help.partition", ["partition", "--help"], ".out"),
    ("help.table", ["table", "--help"], ".out"),
    ("usage.estimate", ["estimate"], ".err"),
]

# (COLUMNS, terminal columns or None for no terminal, golden suffix): COLUMNS
# wins when it is a positive integer, then a terminal's nonzero width, then 80
WIDTHS = [
    (None, None, ""), ("0", None, ""), ("x", None, ""), ("-3", None, ""),
    ("50", None, ".cols50"), (" 50", None, ".cols50"), ("50", 120, ".cols50"),
    (None, 50, ".cols50"), ("0", 50, ".cols50"), (None, 0, ""),
]


def _usage(argv: list[str]) -> tuple[int, bytes]:
    """Exit code, and the bytes written: stdout for --help, stderr otherwise."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        main(argv)
    if "--help" in argv:
        assert err.getvalue() == ""
        return exit_.value.code, out.getvalue().encode("utf-8")
    assert out.getvalue() == ""
    return exit_.value.code, err.getvalue().encode("utf-8")


def _help_golden(name: str) -> Path:
    if sys.version_info >= (3, 13):
        stem, _, ext = name.rpartition(".")
        newer = GOLDEN / f"{stem}.py313.{ext}"
        if newer.exists():
            return newer
    return GOLDEN / name


@pytest.mark.parametrize("columns, terminal, suffix", WIDTHS,
                         ids=[f"COLUMNS={c!r},tty={t}" for c, t, _ in WIDTHS])
@pytest.mark.parametrize("case_id, argv, stream", HELP_CASES, ids=[c[0] for c in HELP_CASES])
def test_help_output(monkeypatch, case_id, argv, stream, columns, terminal, suffix):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)

    def get_terminal_size(fd=None):
        if terminal is None:
            raise OSError("not a terminal")
        return os.terminal_size((terminal, 24))

    monkeypatch.setattr(os, "get_terminal_size", get_terminal_size)
    code, data = _usage(argv)
    assert code == (0 if stream == ".out" else 2)
    assert data == _help_golden(f"{case_id}{suffix}{stream}").read_bytes()


def capture() -> None:
    GOLDEN.mkdir(exist_ok=True)
    cases = []
    for case in _cases():
        code, out = _replay(case["argv"])
        (GOLDEN / f"{case['id']}.out").write_bytes(out)
        cases.append({**case, "exit": code})
    lines = ",\n".join(json.dumps(case) for case in cases)
    CASES.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    for case_id, argv, stream in HELP_CASES:
        for suffix, columns in (("", "80"), (".cols50", "50")):
            os.environ["COLUMNS"] = columns
            path = GOLDEN / f"{case_id}{suffix}{stream}"
            data = _usage(argv)[1]
            if sys.version_info >= (3, 13) and path.read_bytes() != data:
                path = GOLDEN / f"{case_id}{suffix}.py313{stream}"
            path.write_bytes(data)


if __name__ == "__main__":
    capture()
