"""One rule for bounds and for quoting a bad value in a message.

A value is echoed while it is at most 20 characters long (an int: at most 20
digits); past that it is named by its size.  Every bounded public function
and every CLI input goes through ``citest.errors``.
"""

import io
import json
from argparse import Namespace
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from citest import (
    NegativeArgument,
    ParseError,
    RankOutOfRange,
    ResourceLimit,
    brown_interval,
    count_by_durfee,
    durfee_moment_estimates,
    enumerate_partitions,
    h_na,
    normalize,
    partition_count,
    shifted_ladder,
    truncate_head,
)
from citest.cli import cmd_partition, main
from citest.errors import at_least, quoted, shown

BIG = int("1" * 4000)  # 4000 digits, inside int()'s digit limit


@pytest.mark.parametrize("value, text", [
    ("x", "'x'"),
    (-2, "-2"),
    (2.5, "2.5"),
    ("a" * 20, repr("a" * 20)),
    ("a" * 21, "a 21-character value"),
    ("x" * 100000, "a 100000-character value"),
    ([[0] * 10], "a 32-character value"),
    (-(10**20 - 1), "-99999999999999999999"),
    (10**20, "a 21-digit value"),
    (-BIG, "a 4000-digit value"),
    (10**5000, "a 5001-digit value"),  # past int()'s limit: never turned into text
    (Fraction(10**5000, 3), "a Fraction value"),  # its repr() raises
], ids=["str", "int", "float", "str_20", "str_21", "str_100000", "list", "int_20_digits",
        "int_21_digits", "int_4000_digits", "int_5001_digits", "fraction_5001_digits"])
def test_quoted(value, text):
    assert quoted(value) == text


def test_quoted_noun_and_shown_name():
    assert quoted("1" * 5000, "argument") == "a 5000-character argument"
    assert shown("m", 5) == "m=5"
    assert shown("m", 10**30) == "a 31-digit m"
    assert shown("k", "x" * 30) == "a 30-character k"


def test_at_least():
    assert at_least("n", 0, 0) is None
    with pytest.raises(NegativeArgument, match=r"^n must be >= 0, got -2$"):
        at_least("n", -2, 0)
    with pytest.raises(NegativeArgument, match=r"^d must be >= 1, got a 4000-digit value$"):
        at_least("d", -BIG, 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: normalize([Fraction(10**5000, 3)]), ParseError,
     "citation at position 0 must be an integer, got a Fraction value"),
    (lambda: h_na(Fraction(-10**5000, 3)), NegativeArgument,
     "n_cit must be >= 0, got a Fraction value"),
], ids=["normalize", "h_na"])
def test_fraction_past_int_limit_is_named_by_its_type(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


PROFILE = normalize([9, 7, 5, 2, 1])
EMPTY = normalize([])


@pytest.mark.parametrize("call, error", [
    (lambda n: partition_count(-n), NegativeArgument),
    (lambda n: partition_count(n), ResourceLimit),
    (lambda n: count_by_durfee(-n), NegativeArgument),
    (lambda n: count_by_durfee(n), ResourceLimit),
    (lambda n: next(enumerate_partitions(-n)), NegativeArgument),
    (lambda n: next(enumerate_partitions(n)), ResourceLimit),
    (lambda n: cmd_partition(Namespace(sub="mode", n=-n, precision=6), io.StringIO()),
     NegativeArgument),
    (lambda n: durfee_moment_estimates(-n), NegativeArgument),
    (lambda n: h_na(-n), NegativeArgument),
    (lambda n: brown_interval(-n), NegativeArgument),
    (lambda n: shifted_ladder(PROFILE, -n), RankOutOfRange),
    (lambda n: shifted_ladder(PROFILE, n), RankOutOfRange),
    (lambda n: truncate_head(PROFILE, -n), RankOutOfRange),
    (lambda n: truncate_head(PROFILE, n), RankOutOfRange),
    (lambda n: shifted_ladder(EMPTY, -n), RankOutOfRange),
    (lambda n: shifted_ladder(EMPTY, n), RankOutOfRange),
    (lambda n: truncate_head(EMPTY, -n), RankOutOfRange),
    (lambda n: truncate_head(EMPTY, n), RankOutOfRange),
])
def test_bounded_function_names_a_long_argument_by_its_size(call, error):
    with pytest.raises(error) as err:
        call(BIG)
    assert "a 4000-digit" in str(err.value)
    assert len(str(err.value)) < 100


def _inputs():
    """CLI arguments and input files that once echoed a whole value, and the line now written."""
    negative = "-" + "1" * 4000
    lines = ["--format", "lines"]
    return {
        "negative_n": (["partition", "count", negative], None, None,
                       "n must be >= 0, got a 4000-digit value"),
        "negative_line": (lines, "in.txt", f"3\n{negative}\n",
                          "citation at position 1 is negative (a 4000-digit value)"),
        "negative_past_int_limit": (lines, "in.txt", "3\n-" + "1" * 5000 + "\n",
                                    "line 2: citation count too large"),
        "long_line": (lines, "in.txt", "3\n" + "x" * 100000 + "\n",
                      "line 2: expected a decimal integer, got a 100000-character value"),
        "long_csv_cell": ([], "in.csv", "citations\n3\n" + "y" * 100000 + "\n",
                          "line 3: expected a decimal integer, got a 100000-character value"),
        "long_json_string": ([], "in.json", json.dumps({"citations": [3, "z" * 100000]}),
                             "citation at position 1 must be an integer, got a 100000-character value"),
        "long_json_list": ([], "in.json", json.dumps({"citations": [3, list(range(20000))]}),
                           "citation at position 1 must be an integer, got a 128890-character value"),
    }


@pytest.mark.parametrize("name", list(_inputs()))
def test_bad_cli_input_is_one_short_line(tmp_path, capsys, name):
    argv, file, text, message = _inputs()[name]
    if file is not None:
        (tmp_path / file).write_text(text, encoding="utf-8")
        argv = ["indices", str(tmp_path / file), *argv]
    with redirect_stdout(io.StringIO()):
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"citest: bad input: {message}\n"
    assert len(err.encode()) < 120
