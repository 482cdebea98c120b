import csv
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citest import cli, refdata
from citest._parser import build_parser
from citest.cli import _SYNTAX, _emit_row, _read_argv, main

FIXTURES = str(Path(__file__).parent / "fixtures")


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def parse_plain(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("  ")
        out[key.strip()] = value.strip()
    return out


def test_indices_garfield():
    code, out = run("indices", f"{FIXTURES}/garfield.csv")
    assert code == 0
    row = parse_plain(out)
    assert row["h"] == "37"
    assert row["h_na"].startswith("57.994")


def test_indices_leydesdorff_ratio():
    code, out = run("indices", f"{FIXTURES}/leydesdorff.csv", "--json")
    assert code == 0
    row = json.loads(out)
    assert round(row["h_na_over_h"], 4) == 1.0818


def test_indices_empty_profile_exits_3(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    code, _ = run("indices", str(path))
    assert code == 3


def test_estimate_all_zero_profile_exits_3(tmp_path, capsys):
    path = tmp_path / "zeros.txt"
    path.write_text("0\n0\n0\n")
    assert run("estimate", str(path)) == (3, "")
    assert capsys.readouterr().err.startswith("citest: degenerate profile: h = 0")


def _profile_text(suffix, values):
    if suffix == ".json":
        return '{"citations": [' + ", ".join(values) + "]}"
    header = "citations\n" if suffix == ".csv" else ""
    return header + "\n".join(values) + "\n"


@pytest.mark.parametrize("command", ["indices", "estimate"])
@pytest.mark.parametrize("suffix", [".csv", ".json", ".txt"])
@pytest.mark.parametrize("top", ["1" * 310, "9" * 200, str(10**15 + 1)],
                         ids=["310_digits", "200_digits", "max_plus_1"])
def test_citation_above_maximum_exits_2(tmp_path, capsys, command, suffix, top):
    path = tmp_path / f"big{suffix}"
    path.write_text(_profile_text(suffix, [top, "50", "40", "30", "20", "10", "5", "3"]))
    assert run(command, str(path)) == (2, "")
    assert capsys.readouterr().err == (
        "citest: bad input: citation count above the maximum of 1000000000000000\n"
    )


@pytest.mark.parametrize("command", ["indices", "estimate"])
def test_citation_at_maximum_runs(tmp_path, command):
    path = tmp_path / "top.txt"
    path.write_text(_profile_text(".txt", [str(10**15), "50", "40", "30", "20", "10", "5", "3"]))
    assert run(command, str(path))[0] == 0


def test_indices_parse_error_exits_2(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\nxyz\n")
    code, _ = run("indices", str(path))
    assert code == 2


def test_indices_json_element_error_names_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"citations": [1, 2, "x"]}')
    code, _ = run("indices", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert err == "citest: bad input: citation at position 2 must be an integer, got 'x'\n"
    assert "line" not in err


def test_indices_zero_excess_exits_3(tmp_path):
    path = tmp_path / "flat.txt"
    path.write_text("3\n3\n3\n")
    code, out = run("indices", str(path))
    assert code == 3
    assert out == ""


def test_indices_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"12\n\xff\xfe\n3\n")
    code, _ = run("indices", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("citest: ") and err.count("\n") == 1


@pytest.mark.parametrize("suffix, body", [
    (".csv", b"name,citations\n" + b"n,7\n" * 20000),
    (".txt", b"7\n" * 40000),
    (".json", b'{"citations": [' + b"7, " * 30000 + b"7]}"),
], ids=["csv", "lines", "json"])
@pytest.mark.parametrize("offset", [5, 20000, 70000])
def test_not_utf8_names_the_offset_in_the_file(tmp_path, capsys, suffix, body, offset):
    # the text layer decodes in 8192-byte chunks; the message counts from the file's start
    data = bytearray(body)
    data[offset] = 0xFF
    path = tmp_path / f"bad{suffix}"
    path.write_bytes(data)
    assert run("indices", str(path)) == (2, "")
    assert capsys.readouterr().err == (
        f"citest: bad input: 'utf-8' codec can't decode byte 0xff in position {offset}: "
        "invalid start byte\n"
    )


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("argv", [["indices"], ["estimate", "--ladder"]], ids=["indices", "ladder"])
def test_line_endings_read_as_newlines(tmp_path, argv, ending):
    text = (Path(FIXTURES) / "garfield.csv").read_text(encoding="utf-8")
    path = tmp_path / "garfield.csv"
    path.write_bytes(text.replace("\n", ending).encode("utf-8"))
    code, out = run(argv[0], f"{FIXTURES}/garfield.csv", *argv[1:])
    assert code == 0
    assert run(argv[0], str(path), *argv[1:]) == (code, out)


def test_json_name_not_a_string_exits_2(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text('{"name": ["Ann", "Lee"], "citations": [9, 5, 5, 2]}')
    assert run("indices", str(path)) == (2, "")
    assert capsys.readouterr().err == "citest: bad input: line 1: 'name' must be a string\n"


def test_estimate_directory_input_exits_2(tmp_path, capsys):
    code, _ = run("estimate", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("citest: ") and err.count("\n") == 1


def test_input_path_through_a_file_exits_2(capsys):
    code, _ = run("indices", f"{FIXTURES}/garfield.csv/")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("citest: bad input: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["indices", f"{FIXTURES}/garfield.csv"],
    ["table", "1", "--fixtures", FIXTURES],
], ids=["indices", "table"])
def test_unreadable_input_exits_2(monkeypatch, capsys, argv):
    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    # the CLI's module-level name shadows the builtin open
    monkeypatch.setattr("citest.cli.open", denied, raising=False)
    assert run(*argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("citest: bad input: [Errno 13] Permission denied")


def test_partition_out_path_through_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"")
    assert run("partition", "count", "10", "--out", str(blocker / "x.txt")) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("citest: bad input: ") and err.count("\n") == 1


@pytest.mark.parametrize("suffix, text", [
    (".csv", "name,citations\ntoy,9\n,5\n,5\n,2\n"),
    (".json", '{"name": "toy", "citations": [9, 5, 5, 2]}'),
    (".txt", "9\n5\n5\n2\n"),
], ids=["csv", "json", "lines"])
def test_input_with_byte_order_mark_reads_as_without(tmp_path, suffix, text):
    plain, marked = tmp_path / f"plain{suffix}", tmp_path / f"marked{suffix}"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    code, out = run("indices", str(plain))
    assert code == 0
    assert run("indices", str(marked)) == (code, out)


@pytest.mark.parametrize("argv", [
    ["indices", f"{FIXTURES}/garfield.csv"],
    ["estimate", f"{FIXTURES}/garfield.csv"],
    ["table", "8"],
    ["partition", "durfee-dist", "10"],
], ids=["indices", "estimate", "table", "partition"])
def test_negative_precision_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--precision", "-1")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --precision: must be >= 0, got -1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value, message", [
    ("abc", "invalid int value: 'abc'"),
    ("18", "must be <= 17, got 18"),
    ("99999999999", "must be <= 17, got 99999999999"),
], ids=["not_int", "18", "huge"])
def test_bad_precision_exits_2(capsys, value, message):
    with pytest.raises(SystemExit) as exc:
        run("indices", f"{FIXTURES}/garfield.csv", "--precision", value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --precision: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["partition", "count", "1_000"], "argument n: invalid int value: '1_000'"),
    (["partition", "count", "+5"], "argument n: invalid int value: '+5'"),
    (["estimate", f"{FIXTURES}/garfield.csv", "--blind", "\u0664\u0667"],
     "argument --blind: invalid int value: '\u0664\u0667'"),
    (["table", "8", "--precision", "\u0661"], "argument --precision: invalid int value: '\u0661'"),
], ids=["underscore", "plus", "arabic_indic_blind", "arabic_indic_precision"])
def test_integer_arguments_read_ascii_digits_only(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f": error: {message}\n")


@pytest.mark.parametrize("argv, name", [
    (["partition", "count"], "n"),
    (["estimate", f"{FIXTURES}/garfield.csv", "--blind"], "--blind"),
    (["table", "8", "--precision"], "--precision"),
], ids=["n", "blind", "precision"])
@pytest.mark.parametrize("value, message", [
    ("1" * 5000, "a 5000-character argument has too many digits"),
    ("1" * 4999 + "x", "invalid int value: a 5000-character argument"),
], ids=["past_int_limit", "not_an_integer"])
def test_long_integer_argument_is_named_by_its_length(capsys, argv, name, value, message):
    with pytest.raises(SystemExit) as exc:
        run(*argv, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f": error: argument {name}: {message}\n")
    assert len(err) < 500


@pytest.mark.parametrize("argv, name", [
    (["{}"], "command"),
    (["partition", "{}", "5"], "sub"),
    (["table", "{}"], "table"),
    (["indices", f"{FIXTURES}/garfield.csv", "--format", "{}"], "--format"),
], ids=["command", "sub", "table", "format"])
@pytest.mark.parametrize("value, shown", [
    ("q" * 100000, "a 100000-character argument"),
    ("q" * 20, repr("q" * 20)),  # argparse's own message
], ids=["100000_chars", "20_chars"])
def test_bad_choice_is_named_by_its_length(capsys, argv, name, value, shown):
    with pytest.raises(SystemExit) as exc:
        run(*[arg.format(value) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the list of choices is argparse's wording, which varies across versions
    assert f": error: argument {name}: invalid choice: {shown} (choose from " in err
    assert err.endswith(")\n")
    assert len(err) < 500


@pytest.mark.parametrize("argv, message", [
    (["table", "8", "{}"], "unrecognized arguments: a 100000-character argument"),
    (["indices", f"{FIXTURES}/garfield.csv", "--format={}"],
     "argument --format: invalid choice: a 100000-character argument (choose from "),
    (["table", "8", "--precision={}"],
     "argument --precision: invalid int value: a 100000-character argument"),
    # the whole raw argument, '--=' included, is the ambiguous option
    (["indices", f"{FIXTURES}/garfield.csv", "--={}"],
     "ambiguous option: a 100003-character argument could match "),
], ids=["unrecognized", "attached_choice", "attached_integer", "ambiguous_option"])
def test_long_argument_is_named_by_its_length_in_any_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(*[arg.format("q" * 100000) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f": error: {message}" in err
    assert len(err) < 500


def test_negative_n_keeps_its_message(capsys):
    assert run("partition", "count", "-2") == (2, "")
    assert capsys.readouterr().err == "citest: bad input: n must be >= 0, got -2\n"


def test_long_blind_prefix_is_named_by_its_length(capsys):
    assert run("estimate", f"{FIXTURES}/garfield.csv", "--blind", "1" + "0" * 30) == (2, "")
    assert capsys.readouterr().err == "citest: bad input: a 31-digit m outside 0..106\n"


def test_indices_csv_output_roundtrip():
    code, out = run("indices", f"{FIXTURES}/garfield.csv", "--csv", "--precision", "10")
    assert code == 0
    header, values = list(csv.reader(io.StringIO(out)))
    row = dict(zip(header, values))
    assert row["h"] == "37"
    assert abs(float(row["e_index"]) - 95.6033) < 0.001


def test_estimate_garfield():
    code, out = run("estimate", f"{FIXTURES}/garfield.csv", "--json")
    assert code == 0
    row = json.loads(out)
    assert row["d"] == 25
    assert abs(row["b"] - 11515.45) < 2.0
    assert abs(row["delta_b"]) < 0.001


def test_estimate_blind_matches_full():
    code_full, out_full = run("estimate", f"{FIXTURES}/garfield.csv", "--json")
    code_blind, out_blind = run("estimate", f"{FIXTURES}/garfield.csv", "--blind", "47", "--json")
    assert code_full == 0 and code_blind == 0
    full, blind = json.loads(out_full), json.loads(out_blind)
    assert blind["b"] == full["b"]
    assert blind["ranks_consumed"] == 47


def test_estimate_blind_too_short_exits_4(capsys):
    assert run("estimate", f"{FIXTURES}/garfield.csv", "--blind", "10") == (4, "")
    assert capsys.readouterr().err == (
        "citest: insufficient prefix: prefix of 10 ranks is insufficient to certify"
        " the h-index; rank 11 (at minimum) is required\n"
    )


def test_estimate_blind_one_rank_short_names_the_ladder_row(capsys):
    # 47 ranks certify garfield (d = 25); without rank 47, row d+1 cannot be built
    assert run("estimate", f"{FIXTURES}/garfield.csv", "--blind", "46") == (4, "")
    assert capsys.readouterr().err == (
        "citest: insufficient prefix: prefix of 46 ranks is insufficient to certify"
        " ladder row 26; rank 47 (at minimum) is required\n"
    )


GARFIELD = ["estimate", f"{FIXTURES}/garfield.csv"]
GOLDEN = Path(__file__).parent / "golden"
# usage for a missing argument at width 80, as test_golden's _help_golden picks it
USAGE_ESTIMATE = GOLDEN / ("usage.estimate.py313.err" if sys.version_info >= (3, 13)
                           else "usage.estimate.err")


def test_estimate_blind_whole_profile_is_the_full_output():
    # garfield has p = 106: a prefix of every rank is the complete profile
    golden = (GOLDEN / "garfield.estimate.out").read_text(encoding="utf-8")
    assert run(*GARFIELD, "--blind", "106") == (0, golden)
    assert "ranks_consumed" not in golden and "cap_delta_b" in golden


@pytest.mark.parametrize("stdout, unbuffered, args, expected", [
    ("pipe", None, GARFIELD, (141, b"")),
    ("pipe", "1", GARFIELD, (141, b"")),
    ("closed", None, GARFIELD, (141, b"")),
    ("closed", None, ["partition", "count", "10", "--out", "F"], (0, b"")),
    ("closed", None, [*GARFIELD, "--blind", "10"], (4, (
        b"citest: insufficient prefix: prefix of 10 ranks is insufficient to certify"
        b" the h-index; rank 11 (at minimum) is required\n"
    ))),
    ("pipe", None, ["--help"], (141, b"")),
    ("pipe", "1", ["--help"], (141, b"")),
    ("closed", None, ["--help"], (141, b"")),
    ("pipe", None, ["estimate", "--help"], (141, b"")),
    ("pipe", "1", ["estimate", "--help"], (141, b"")),
    ("closed", None, ["estimate", "--help"], (141, b"")),
    ("closed", None, ["estimate"], (2, USAGE_ESTIMATE.read_bytes())),
], ids=["buffered", "unbuffered", "closed_fd", "closed_fd_out_file", "closed_fd_failure",
        "help_buffered", "help_unbuffered", "help_closed_fd", "estimate_help_buffered",
        "estimate_help_unbuffered", "estimate_help_closed_fd", "closed_fd_usage_error"])
def test_closed_stdout_exits_141_quietly(tmp_path, stdout, unbuffered, args, expected):
    # a pipe whose reader is gone fails a buffered stdout at the final flush,
    # an unbuffered one at the write; fd 1 closed before exec leaves
    # sys.stdout None, and a command that writes nothing there exits as usual;
    # help too, which argparse alone would pass over or write to stderr
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "COLUMNS")}
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "citest.cli", *args], cwd=tmp_path, env=env,
            stdout=write if stdout == "pipe" else None, stderr=subprocess.PIPE,
            preexec_fn=None if stdout == "pipe" else lambda: os.close(1),
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == expected
    if "--out" in args:
        assert (tmp_path / "F").read_text() == "42\n"


def test_closed_stdout_in_process(tmp_path, capsys, monkeypatch):
    # fd 1 closed at start leaves sys.stdout None; main buffers the output
    # and never assigns sys.stdout itself
    monkeypatch.setattr(sys, "stdout", None)
    assert main(GARFIELD) == 141
    path = tmp_path / "F"
    assert main(["partition", "count", "10", "--out", str(path)]) == 0
    assert path.read_text(encoding="utf-8") == "42\n"
    assert main([*GARFIELD, "--blind", "10"]) == 4
    assert main(["--help"]) == 141
    assert sys.stdout is None
    assert capsys.readouterr().err == (
        "citest: insufficient prefix: prefix of 10 ranks is insufficient to certify"
        " the h-index; rank 11 (at minimum) is required\n"
    )


def test_broken_pipe_in_process(capsys, monkeypatch):
    # stdout's reader is gone: the final flush fails, and main points the
    # write fd at devnull so that closing the stream later stays quiet
    read, write = os.pipe()
    os.close(read)
    stream = open(write, "w", encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stream)
    try:
        assert main(GARFIELD) == 141
        got, null = os.fstat(write), os.stat(os.devnull)
        assert (got.st_dev, got.st_ino, got.st_rdev) == (null.st_dev, null.st_ino, null.st_rdev)
    finally:
        stream.close()
    assert capsys.readouterr().err == ""


def test_main_calls_the_handler_on_the_module(capsys, monkeypatch):
    # the command table holds no handler: main looks up cmd_<command> when it
    # calls it, so a wrapper set on the module is what runs
    real, calls = cli.cmd_estimate, []

    def spy(args, out):
        calls.append(args.file)
        return real(args, out)

    monkeypatch.setattr(cli, "cmd_estimate", spy)
    assert main(GARFIELD) == 0
    assert calls == [GARFIELD[1]]
    assert capsys.readouterr().out == (GOLDEN / "garfield.estimate.out").read_text()
    for command, (help_line, arguments) in _SYNTAX.items():
        assert isinstance(help_line, str) and isinstance(arguments, list)
        assert callable(getattr(cli, f"cmd_{command}"))


def test_estimate_ladder_on_a_flat_core_skips_the_error_metrics(tmp_path, capsys):
    # e = 0 at row 0 collapses the interval variants of indices, but not the
    # ladder, A, B or their errors, which come from rows d and d+1
    path = tmp_path / "flat.txt"
    path.write_text("3\n3\n3\n")
    assert run("estimate", str(path), "--ladder") == (0, (
        "k,h_k,n_h_k,n_cit_k,e_k,q_k\r\n"
        "0,3,9,9,0,1\r\n"
        "1,2,6,6,1.41421,2\r\n"
        "2,1,3,3,1.41421,5\r\n"
    ))
    assert capsys.readouterr().err == ""
    assert run("estimate", str(path)) == (0, (
        "name         \n"
        "d            1\n"
        "case         case4\n"
        "h_d          2\n"
        "e_d          1.41421\n"
        "q_d          2\n"
        "j_d          (5.34967, 82.8195)\n"
        "j_d1         (28.0108, 76.4295)\n"
        "a            48.1524\n"
        "b_prime      50.7304\n"
        "b_dprime     48.0665\n"
        "b            49.3985\n"
        "cap_delta_a  -39.1524\n"
        "cap_delta_b  -40.3985\n"
        "delta_a      -4.35026\n"
        "delta_b      -4.48872\n"
    ))
    code, out = run("estimate", str(path), "--json")
    assert (code, json.loads(out)["a"], json.loads(out)["b"]) == (0, 48.1523629674, 49.3984617138)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["indices", "--json", "--csv"],
    ["estimate", "--ladder", "--json"],
], ids=["indices_json_csv", "estimate_ladder_json"])
def test_alternative_output_flags_are_a_usage_error(capsys, argv):
    command, first, second = argv
    with pytest.raises(SystemExit) as exc:
        main([command, f"{FIXTURES}/garfield.csv", first, second])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument {second}: not allowed with argument {first}\n")


def test_partition_count_100():
    code, out = run("partition", "count", "100")
    assert code == 0
    assert out.strip() == "190569292"


def test_partition_durfee_dist_11():
    code, out = run("partition", "durfee-dist", "11")
    assert code == 0
    rows = {r[0]: r[1] for r in csv.reader(io.StringIO(out)) if r and r[0] != "d"}
    assert rows["3"] == "5"


def test_partition_mode_formula_only_above_ceiling():
    code, out = run("partition", "mode", "10000")
    assert code == 0
    assert "formula 54.044" in out
    assert "exact" not in out  # above the default distribution ceiling


def test_partition_mode_with_exact():
    code, out = run("partition", "mode", "400")
    assert code == 0
    assert "formula 10.8089" in out
    assert "exact 11" in out


def test_partition_mode_beyond_float_range_exits_2(capsys):
    assert run("partition", "mode", "1" + "0" * 400) == (2, "")
    assert capsys.readouterr().err == (
        "citest: bad input: n must be below 1.8e+308 for the mode formula\n"
    )


def test_partition_mode_negative_n_exits_2(capsys):
    # the exact count's check runs before the formula's, which would name n_cit
    assert run("partition", "mode", "-5") == (2, "")
    assert capsys.readouterr().err == "citest: bad input: n must be >= 0, got -5\n"


def test_partition_resource_limit_exits_5():
    code, _ = run("partition", "durfee-dist", "5001")
    assert code == 5


def test_resource_limit_names_a_long_n_by_its_length(capsys):
    code, _ = run("partition", "count", "1" + "0" * 60)
    assert code == 5
    err = capsys.readouterr().err
    assert err == "citest: resource ceiling: a 61-digit n exceeds the ceiling of 5000\n"


def test_partition_out_file_written_only_on_success(tmp_path):
    out = tmp_path / "keep.txt"
    out.write_bytes(b"earlier result\n")
    assert run("partition", "count", "6000", "--out", str(out)) == (5, "")
    assert run("partition", "durfee-dist", "-1", "--out", str(out)) == (2, "")
    assert out.read_bytes() == b"earlier result\n"
    assert run("partition", "count", "100", "--out", str(out)) == (0, "")
    assert out.read_bytes() == b"190569292\n"


@pytest.mark.parametrize("name, text", [
    ("deep.json", "[" * 100000),
    ("wide.csv", "citations\n" + "1" * 131073 + "\n"),
    ("huge.json", '{"citations": [' + "1" * 5000 + "]}"),
], ids=["json_nesting", "csv_field_limit", "json_digit_limit"])
def test_oversized_input_exits_2(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, _ = run("indices", str(path))
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("citest: bad input: ")


def test_table_2_schubert_b():
    code, out = run("table", "2", "--fixtures", FIXTURES)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    by_name = {r["researcher"]: r for r in rows}
    assert abs(float(by_name["schubert"]["b"]) - 7688.8) < 2.0
    assert by_name["garfield"]["d"] == "25"


def test_table_1_diff_all_ok():
    code, out = run("table", "1", "--fixtures", FIXTURES, "--diff")
    assert code == 0
    assert "FAIL" not in out


def test_table_2_diff_all_ok():
    code, out = run("table", "2", "--fixtures", FIXTURES, "--diff")
    assert code == 0
    assert "FAIL" not in out
    assert "skipped cells" in out


def test_table_diff_mismatch_exits_1(tmp_path):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, fixtures)
    garfield = fixtures / "garfield.csv"
    lines = garfield.read_text(encoding="utf-8").splitlines(keepends=True)
    # the first data row holds the metadata and the top citation count
    row = next(i for i, line in enumerate(lines) if line.startswith("garfield,"))
    cells = lines[row].rstrip("\n").split(",")
    cells[-1] = str(int(cells[-1]) + 500)
    lines[row] = ",".join(cells) + "\n"
    garfield.write_text("".join(lines), encoding="utf-8")
    code, out = run("table", "2", "--fixtures", str(fixtures), "--diff")
    assert code == 1
    fails = [r for r in csv.reader(io.StringIO(out)) if r and r[-1] == "FAIL"]
    assert sorted(r[1] for r in fails) == ["a", "b", "b_dprime", "b_prime", "j_d", "j_d1"]
    assert {r[0] for r in fails} == {"garfield"}


@pytest.mark.parametrize("table", ["1", "2", "5"])
def test_expected_cells_name_filled_columns(table):
    # the diff report checks every expected cell, so each must be in the table
    code, out = run("table", table, "--fixtures", FIXTURES)
    assert code == 0
    rows = {row["researcher"]: row for row in csv.DictReader(io.StringIO(out))}
    # and a table's rows are exactly the researchers it has cells for, in order
    assert list(rows) == list(refdata.PUBLISHED_CELLS[table])
    for name, cells in refdata.PUBLISHED_CELLS[table].items():
        for cell in cells:
            assert rows[name].get(cell), (name, cell)


def test_table_5_diff_all_ok():
    code, out = run("table", "5", "--fixtures", FIXTURES, "--diff")
    assert code == 0
    assert "FAIL" not in out


def test_table_8_standard_rows_match():
    code, out = run("table", "8", "--precision", "10")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    checked = 0
    for row in rows:
        if row["category"] != "standard":
            continue
        got = row["band"].strip("()").split(",")
        lo, hi = float(got[0]), float(got[1])
        want = row["published"].strip("()").split(",")
        assert abs(lo - float(want[0])) <= 0.1
        assert abs(hi - float(want[1])) <= 0.1
        checked += 1
    assert checked == 24


def test_table_missing_fixtures_exits_6(tmp_path, capsys):
    code, _ = run("table", "2", "--fixtures", str(tmp_path))
    assert code == 6
    assert capsys.readouterr().err.startswith("citest: missing fixtures: braun, egghe, ")
    assert run("table", "5") == (6, "")
    assert capsys.readouterr().err == (
        "citest: missing fixtures: fixture directory required (--fixtures DIR)\n"
    )


def test_outputs_deterministic():
    _, first = run("table", "2", "--fixtures", FIXTURES, "--diff")
    _, second = run("table", "2", "--fixtures", FIXTURES, "--diff")
    assert first == second


def test_estimate_ladder_csv():
    code, out = run("estimate", f"{FIXTURES}/garfield.csv", "--ladder")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["k"] == "0" and rows[-1]["k"] == "26"
    assert rows[25]["h_k"] == "21" and rows[25]["n_h_k"] == "901"


# ------------------------------------------------------------- the command-line reader
# main reads a well-formed command line from the command table without
# argparse (_read_argv) and leaves the rest to build_parser(_SYNTAX), the
# same table read by argparse; wherever the fast reader answers, it must
# answer as argparse does

REPO = Path(__file__).parent.parent
# each command's positionals, drawn in order, each from its own pool
POSITIONALS = {
    "indices": [["g.csv", "", "a=b"]],
    "estimate": [["g.csv", "", "a=b"]],
    "partition": [["count", "durfee-dist", "mode", "cnt"], ["0", "5", "007", "x"]],
    "table": [["1", "2", "5", "8", "3"]],
}
# each option's values, from its grammar and past it; None for a flag
OPTIONS = {
    "--precision": ["0", "3", "17", "007", "18", "x", "\u0664", "-1"],
    "--format": ["json", "csv", "lines", "xml", ""],
    "--blind": ["0", "5", "x", "-1"],
    "--out": ["o.txt", "", "a=b"],
    "--fixtures": ["d", ""],
    "--json": None, "--csv": None, "--ladder": None, "--diff": None,
}
# each command's options, in the table's order, from the table itself
OWN_OPTIONS = {
    command: [name for argument in arguments
              for name, _ in (argument if isinstance(argument, list) else [argument])
              if name.startswith("-")]
    for command, (_, arguments) in _SYNTAX.items()
}
JUNK = ["-h", "--help", "--", "--js", "-1", "", "-", "--format=", "--json=", "--=x", "--precision"]


@st.composite
def _option(draw, command):
    """``--opt VALUE`` or ``--opt=VALUE`` or a flag, mostly one of ``command``'s own."""
    name = draw(st.sampled_from(OWN_OPTIONS.get(command, []) * 4 + list(OPTIONS)))
    if OPTIONS[name] is None:
        return [name]
    value = draw(st.sampled_from(OPTIONS[name]))
    return draw(st.sampled_from([[name, value], [f"{name}={value}"]]))


@st.composite
def _command_lines(draw):
    """A command, its positionals and up to three options in any order,
    sometimes with one junk token, repeat or stray positional inserted."""
    command = draw(st.sampled_from([*POSITIONALS, *JUNK[:3]]))
    words = [[draw(st.sampled_from(pool))] for pool in POSITIONALS.get(command, [])]
    # a repeat comes from the insertion below
    words += draw(st.lists(_option(command), max_size=3, unique_by=lambda o: o[0].partition("=")[0]))
    argv = [command, *(token for unit in draw(st.permutations(words)) for token in unit)]
    if draw(st.integers(0, 3)) == 0:
        extra = draw(st.sampled_from(JUNK + argv[1:] + ["x"]))
        argv.insert(draw(st.integers(1, len(argv))), extra)
    return argv


def _read_agrees(argv):
    """The fast reading of ``argv``, after checking it against argparse's."""
    fast = _read_argv(list(argv))
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            slow = vars(build_parser(_SYNTAX).parse_args(argv))
    except SystemExit:  # help, usage or an error: only argparse may answer
        slow = None
    assert fast is None or fast == slow, argv
    return fast


@settings(max_examples=400, deadline=None)
@given(_command_lines())
def test_the_fast_reader_agrees_with_argparse(argv):
    _read_agrees(argv)


def test_the_fuzz_draws_from_every_argument_in_the_table():
    # a command or option added to the table is drawn only once it has a pool
    assert set(POSITIONALS) == set(_SYNTAX)
    assert set(OPTIONS) == {name for names in OWN_OPTIONS.values() for name in names}
    for command, (_, arguments) in _SYNTAX.items():
        own = [argument for argument in arguments if not isinstance(argument, list)]
        assert len(POSITIONALS[command]) == sum(not name.startswith("-") for name, _ in own)


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["estimat", "g.csv"], ["estimate", "g.csv", "-h"],
    ["estimate", "g.csv", "--js"], ["estimate", "g.csv", "--"], ["estimate", "--", "g.csv"],
    ["estimate", "g.csv", "--ladder", "--json"], ["indices", "g.csv", "--csv", "--json"],
    ["estimate", "g.csv", "--json", "--json"], ["estimate", "g.csv", "--blind", "3", "--blind", "4"],
    ["indices", "g.csv", "--precision", "18"], ["indices", "g.csv", "--precision=17"],
    ["indices", "g.csv", "--format="], ["indices", "--format", "csv", "g.csv"],
    ["partition", "count", "--out", "--json"], ["partition", "count", "5", "--out"],
    ["partition", "mode", "5", "--out="], ["partition", "count", "--out", "o", "5"],
    ["partition", "count", "-2"], ["estimate", "g.csv", "--blind", "-1"], ["estimate", "g.csv", "--blind=-1"],
    ["table", "8", "--diff="], ["table", "8", "--diff=x"], ["table", "9"],
    ["partition", "count"], ["partition", "count", "5", "6"], ["partition", "5", "count"],
])
def test_the_fast_reader_agrees_with_argparse_at_the_edges(argv):
    _read_agrees(argv)


def test_every_golden_command_line_is_read_without_argparse():
    cases = json.loads((REPO / "tests" / "golden" / "cases.json").read_text(encoding="utf-8"))
    for case in cases:
        assert _read_agrees([arg.replace("{fixtures}", FIXTURES) for arg in case["argv"]]) is not None


def test_every_benchmark_command_line_is_read_without_argparse(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    monkeypatch.chdir(REPO)  # gen reads the fixtures from tests/fixtures
    try:
        import gen
    except ImportError:
        pytest.skip("bench/ is not importable")
    for op in gen.cli_cycle(1, tmp_path):
        assert _read_agrees(op.argv) is not None


_JSON_SCALARS = st.one_of(st.none(), st.integers(), st.text(), st.floats())


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(min_size=1), st.one_of(
    _JSON_SCALARS, st.tuples(st.floats(), st.floats()), st.tuples(st.integers(), st.floats())),
    min_size=1))
def test_json_row_is_what_json_dump_writes(row):
    want = {k: [round(x, 10) for x in v] if isinstance(v, tuple)
            else round(v, 10) if isinstance(v, float) else v for k, v in row.items()}
    out = io.StringIO()
    _emit_row(row, "json", 6, out)
    assert out.getvalue() == json.dumps(want, indent=2) + "\n"


def test_a_plain_command_loads_no_argparse_re_or_enum():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    garfield = f"{FIXTURES}/garfield.csv"
    # argv=None reads sys.argv[1:]
    proc = subprocess.run([sys.executable, "-S", "-m", "citest.cli", "estimate", garfield],
                          env=env, capture_output=True, check=True)
    assert proc.stdout == (REPO / "tests" / "golden" / "garfield.estimate.out").read_bytes()
    unused = ["argparse", "re", "enum", "locale", "gettext", "csv", "json"]
    report = "print(*sorted(set(sys.argv[1:]) & set(sys.modules)), file=sys.stderr)"
    code = (f"import sys\nfrom citest.cli import main\nmain(['estimate', {garfield!r}])\n"
            f"main(['estimate', {garfield!r}, '--json'])\n{report}\n"
            f"try:\n    main(['estimate', {garfield!r}, '--help'])\nexcept SystemExit:\n    pass\n{report}")
    proc = subprocess.run([sys.executable, "-S", "-c", code, *unused],
                          env=env, capture_output=True, text=True, check=True)
    plain, after_help = proc.stderr.split("\n")[:2]
    assert plain == ""
    assert "argparse" in after_help.split()  # --help still reaches argparse
