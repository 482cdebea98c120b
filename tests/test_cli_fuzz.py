"""Fuzz the CLI's error contract in process.

Every run of ``main(argv)`` returns an exit code in 0..6 and lets no exception
escape; a run that fails (exit 2..6) prints exactly one
``citest: <label>: <message>`` line on stderr, the label fixed by the code,
and a run that succeeds prints nothing there.  Inputs are random bytes
and lines/CSV/JSON skeletons whose values include byte-order marks, non-ASCII
digits and counts beyond float range, read under every ``--format``.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from citest.cli import main
from citest.partitions import MAX_N

NUMBERS = st.one_of(
    st.integers(0, 2000).map(str),
    st.sampled_from([
        "0", "-3", "1_000", "+5", "\u0661\u0662", "9" * 200, "1" * 310,
        str(10**15), str(10**15 + 1), "1" * 5000,
    ]),
)
JUNK = st.sampled_from(["1.5", "1e400", "x", "", " 7 "])
# the documented stderr label of each failing exit code
LABELS = {
    2: "bad input",
    3: "degenerate profile",
    4: "insufficient prefix",
    5: "resource ceiling",
    6: "missing fixtures",
}


@st.composite
def _input(draw):
    """(file bytes, --format): a skeleton read mostly under its own format."""
    formats = ["csv", "json", "lines"]
    shape = draw(st.sampled_from([*formats, "bytes"]))
    if shape == "bytes":
        return draw(st.binary(max_size=200)), draw(st.sampled_from(formats))
    fmt = draw(st.sampled_from(formats + [shape] * 3))
    values = draw(st.lists(NUMBERS, max_size=12))
    if draw(st.integers(0, 3)) == 0:
        values.insert(draw(st.integers(0, len(values))), draw(JUNK))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    if shape == "lines":
        text = "\n".join(values)
    elif shape == "csv":
        text = "name,citations\n" + "".join(f"n,{v}\n" for v in values)
    else:
        text = '{"name": "n", "citations": [' + ", ".join(values) + "]}"
    return (bom + text).encode("utf-8"), fmt


FILE_COMMANDS = st.one_of(
    st.just(["indices"]),
    st.just(["estimate"]),
    st.integers(0, 15).map(lambda k: ["estimate", "--blind", str(k)]),
    st.just(["estimate", "--ladder"]),
)
PARTITION_N = st.one_of(
    st.integers(-2, 60),
    st.sampled_from([MAX_N - 1, MAX_N, MAX_N + 1, 10**399, 10**400 - 1]),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _check(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in range(7)
    lines = err.getvalue().splitlines()
    if code >= 2:
        assert len(lines) == 1 and lines[0].startswith(f"citest: {LABELS[code]}: "), lines
    elif code == 0:
        assert lines == []


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data_fmt=_input(), command=FILE_COMMANDS)
def test_file_commands_keep_the_error_contract(workdir, data_fmt, command):
    data, fmt = data_fmt
    path = workdir / "input"
    path.write_bytes(data)
    _check([*command, str(path), "--format", fmt])


@pytest.mark.parametrize("fmt, text, line", [
    ("lines", "3\n{}\n4\n", 2),
    ("csv", "# note\nname,citations\nn,3\n\nn,{}\n", 5),
])
@pytest.mark.parametrize("form", ["1_000", "+5", "\u0661\u0662"],
                         ids=["underscore", "plus", "arabic_indic"])
def test_int_only_forms_exit_2_naming_their_line(workdir, capsys, fmt, text, line, form):
    # int() reads these three, JSON does not; no loader does
    path = workdir / "int_only"
    path.write_text(text.format(form), encoding="utf-8")
    assert main(["indices", str(path), "--format", fmt]) == 2
    assert capsys.readouterr().err == (
        f"citest: bad input: line {line}: expected a decimal integer, got {form!r}\n"
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sub=st.sampled_from(["count", "durfee-dist", "mode"]), n=PARTITION_N)
def test_partition_commands_keep_the_error_contract(sub, n):
    _check(["partition", sub, str(n)])
