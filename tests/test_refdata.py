"""The published tables in ``citest.refdata``: their names, cell shapes, row
order and a few cells read straight from the paper."""

from pathlib import Path

import pytest

from citest import refdata

FIXTURES = Path(__file__).parent / "fixtures"

# the researchers of each table, in the order the paper prints its rows
INFORMETRICIANS = ("leydesdorff", "glanzel", "moed", "vanraan", "rousseau", "schubert", "martin",
                   "narin", "garfield", "braun", "small", "egghe", "ingwersen", "white")
ROWS = {
    "1": INFORMETRICIANS,
    "2": INFORMETRICIANS,
    "5": ("einstein", "kim", "kessler", "meyer", "kalaj", "monkova", "mutafchiev", "spalevic"),
}


def test_public_names():
    # ``annotations`` is the ``from __future__`` import every module starts with
    public = {name for name in vars(refdata) if not name.startswith("_")} - {"annotations"}
    assert public == {
        "TABLE1_EXPECTED", "TABLE2_EXPECTED", "TABLE5_EXPECTED", "PUBLISHED_CELLS",
        "FIXTURE_FILES", "KNOWN_DISCREPANCIES", "TABLE8", "REDUCED_DISPERSION_SLOPE",
    }
    assert refdata.PUBLISHED_CELLS == {
        "1": refdata.TABLE1_EXPECTED, "2": refdata.TABLE2_EXPECTED, "5": refdata.TABLE5_EXPECTED,
    }


def _shape(cell):
    if type(cell) is int:
        return "exact"
    value, tol = cell
    assert type(tol) is float
    if type(value) is tuple:
        assert [type(bound) for bound in value] == [float, float]
        return "interval"
    assert type(value) is float
    return "value"


@pytest.mark.parametrize("table", sorted(ROWS))
def test_cells_are_exact_ints_or_float_pairs(table):
    cells = refdata.PUBLISHED_CELLS[table]
    assert tuple(cells) == ROWS[table]
    for name, row in cells.items():
        for cell, expected in row.items():
            # an exact cell is an int; a value and an interval carry a tolerance
            shape = _shape(expected)
            assert (shape == "exact") == (cell in {"d", "h_d", "n_cit", "h", "n_cit_h"}), (name, cell)
            if shape != "exact":
                assert expected[1] > 0, (name, cell)


def test_table8_rows():
    assert len(refdata.TABLE8) == 41
    assert [row[0] for row in refdata.TABLE8 if row[2] is None] == ["martin", "narin"]
    assert {row[3] for row in refdata.TABLE8} == {"standard", "reduced", "defective"}
    for name, n_cit, band, category, note in refdata.TABLE8:
        assert type(name) is str and type(n_cit) is int and type(note) is str
        assert band is None or [type(bound) for bound in band] == [float, float]
        # a row set apart from the band formula says why
        assert bool(note) == (band is None or category == "defective"), name


def test_spot_cells():
    assert refdata.TABLE2_EXPECTED["garfield"]["b"] == (11515.45, 2.0)
    assert refdata.TABLE2_EXPECTED["white"]["b"] == (2399.75, 12.0)
    assert refdata.TABLE2_EXPECTED["schubert"]["e_d"] == (36.0, 1e-9)
    assert refdata.TABLE5_EXPECTED["einstein"]["j_d"] == ((161903.2, 165495.2), 1.0)
    assert refdata.TABLE1_EXPECTED["leydesdorff"]["n_cit"] == 25005
    assert refdata.TABLE8[6] == ("martin", 7598, None, "defective", "printed as (37.9, 56.2.7)")


def test_fixture_files_exist():
    assert set(refdata.FIXTURE_FILES) == {name for rows in ROWS.values() for name in rows}
    for name, filename in refdata.FIXTURE_FILES.items():
        assert (FIXTURES / filename).is_file(), name
