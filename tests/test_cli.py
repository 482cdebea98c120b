import csv
import io
import json
import shutil
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from citest.cli import main

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


def test_estimate_directory_input_exits_2(tmp_path, capsys):
    code, _ = run("estimate", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("citest: ") and err.count("\n") == 1


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


def test_estimate_blind_too_short_exits_4():
    code, _ = run("estimate", f"{FIXTURES}/garfield.csv", "--blind", "10")
    assert code == 4


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


def test_partition_resource_limit_exits_5(monkeypatch):
    monkeypatch.setenv("CITEST_MAX_N", "50")
    code, _ = run("partition", "durfee-dist", "60")
    assert code == 5


def test_partition_out_file_written_only_on_success(tmp_path, monkeypatch):
    monkeypatch.delenv("CITEST_MAX_N", raising=False)
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
], ids=["json_nesting", "csv_field_limit"])
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


def test_table_missing_fixtures_exits_6(tmp_path):
    code, _ = run("table", "2", "--fixtures", str(tmp_path))
    assert code == 6


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
