"""Published target values that the bundled fixtures reproduce.

Used by the ``table`` command, whose rows are the researchers a table has
published cells for, by its diff reports and by the golden tests.  Cells that
the source tables print inconsistently with their own inputs are omitted here
and listed in ``KNOWN_DISCREPANCIES`` instead, so a diff run accounts for
every cell it skips.

``TABLE8`` rows carry a category: ``standard`` rows reproduce under the
published band formula (dispersion 0.57 + 0.045*sqrt(N)); ``reduced`` rows
were evidently computed with a ten-times smaller dispersion slope (0.0045)
and are checked against that variant; ``defective`` rows are malformed or
match neither reading and are excluded from numeric checks.
"""

from __future__ import annotations


def _published(text):
    """Parse the text of Tables 1, 2, 5 and 8 below: the cells of 1, 2 and 5
    by table id, researcher and cell, and the rows of 8."""
    # one object for each distinct researcher, cell name, category and
    # tolerance, as a display's constants are shared: about 15 KB less held
    cells, table8, shared = {}, [], {}
    for line in text.splitlines():
        table, name, key, value, *rest = line.split(None, 5)
        name, key = shared.setdefault(name, name), shared.setdefault(key, key)
        lo, interval, hi = value.partition("..")
        if interval:
            value = (float(lo), float(hi))
        elif value == "-":
            value = None
        if table == "8":
            category = shared.setdefault(rest[0], rest[0])
            table8.append((name, int(key), value, category, rest[1] if len(rest) > 1 else ""))
        else:
            row = cells.setdefault(table, {}).setdefault(name, {})
            if rest:
                tolerance = shared.setdefault(rest[0], float(rest[0]))
                row[key] = (value if interval else float(value), tolerance)
            else:
                row[key] = int(value)
    return cells, table8


# ------------------------------------------------------- tables 1, 2, 5, 8
# The published values are text, not dict and tuple displays: with no
# bytecode cache every citest process compiles this module, and a string
# compiles about 30 times faster than the same values as Python displays.
#
# Tables 1, 2 and 5 hold one published cell per line, in the paper's row
# order: ``table researcher cell value [tolerance]``.  A table's rows are the
# researchers it lists (``PUBLISHED_CELLS``, by table id).  A cell with no
# tolerance is exact and is an int: d, h_d, n_cit, h and n_cit_h.  Any other
# is ``(value, tolerance)``, floats, matched to within the absolute
# tolerance; ``lo..hi`` is an interval, ``((lo, hi), tolerance)``.  Table 1
# checks h_na, q and e to 0.005 and i_mean to 1.5.
#
# Table 8 holds one row per line: ``8 researcher n_cit lo..hi|- category
# note``, giving ``(researcher, n_cit, (lo, hi) or None, category, note)``.
# ``-`` stands for a printed band too malformed to read, which the note
# quotes; the note may be absent, and is then "".
PUBLISHED_CELLS, TABLE8 = _published("""\
1 leydesdorff n_cit    25005
1 leydesdorff h        79
1 leydesdorff n_cit_h  17360
1 leydesdorff h_na     85.461             0.005
1 leydesdorff q        4.563              0.005
1 leydesdorff e        105.447            0.005
1 leydesdorff i_mean   21407.42           1.5
1 glanzel     n_cit    11766
1 glanzel     h        61
1 glanzel     n_cit_h  8049
1 glanzel     h_na     58.623             0.005
1 glanzel     q        3.326              0.005
1 glanzel     e        65.788             0.005
1 glanzel     i_mean   12772.20           1.5
1 moed        n_cit    7606
1 moed        h        49
1 moed        n_cit_h  6351
1 moed        h_na     47.133             0.005
1 moed        q        4.290              0.005
1 moed        e        62.849             0.005
1 moed        i_mean   8258.64            1.5
1 vanraan     n_cit    8308
1 vanraan     h        48
1 vanraan     n_cit_h  6833
1 vanraan     h_na     49.260             0.005
1 vanraan     q        4.931              0.005
1 vanraan     e        67.298             0.005
1 vanraan     i_mean   7930.59            1.5
1 rousseau    n_cit    8053
1 rousseau    h        43
1 rousseau    n_cit_h  5203
1 rousseau    h_na     48.499             0.005
1 rousseau    q        4.628              0.005
1 rousseau    e        57.914             0.005
1 rousseau    i_mean   6370.88            1.5
1 schubert    n_cit    7587
1 schubert    h        42
1 schubert    n_cit_h  6359
1 schubert    h_na     47.074             0.005
1 schubert    q        6.210              0.005
1 schubert    e        67.786             0.005
1 schubert    i_mean   6090.12            1.5
1 martin      n_cit    7598
1 martin      h        38
1 martin      n_cit_h  7048
1 martin      h_na     47.108             0.005
1 martin      q        8.762              0.005
1 martin      e        74.860             0.005
1 martin      i_mean   5011.58            1.5
1 narin       n_cit    7209
1 narin       h        38
1 narin       n_cit_h  6823
1 narin       h_na     45.887             0.005
1 narin       q        8.450              0.005
1 narin       e        73.342             0.005
1 narin       i_mean   5009.47            1.5
1 garfield    n_cit    11515
1 garfield    h        37
1 garfield    n_cit_h  10509
1 garfield    h_na     57.994             0.005
1 garfield    q        14.353             0.005
1 garfield    e        95.603             0.005
1 garfield    i_mean   4792.71            1.5
1 braun       n_cit    5680
1 braun       h        37
1 braun       n_cit_h  3566
1 braun       h_na     40.731             0.005
1 braun       q        4.210              0.005
1 braun       e        46.872             0.005
1 braun       i_mean   4724.88            1.5
1 small       n_cit    7693
1 small       h        34
1 small       n_cit_h  7471
1 small       h_na     47.402             0.005
1 small       q        11.926             0.005
1 small       e        79.467             0.005
1 small       i_mean   4046.96            1.5
1 egghe       n_cit    5640
1 egghe       h        30
1 egghe       n_cit_h  3995
1 egghe       h_na     40.587             0.005
1 egghe       q        7.878              0.005
1 egghe       e        55.633             0.005
1 egghe       i_mean   3143.13            1.5
1 ingwersen   n_cit    3606
1 ingwersen   h        27
1 ingwersen   n_cit_h  2952
1 ingwersen   h_na     32.454             0.005
1 ingwersen   q        7.099              0.005
1 ingwersen   e        47.149             0.005
1 ingwersen   i_mean   2552.47            1.5
1 white       n_cit    2399
1 white       h        19
1 white       n_cit_h  2332
1 white       h_na     26.471             0.005
1 white       q        11.920             0.005
1 white       e        44.396             0.005
2 leydesdorff d        3
2 leydesdorff h_d      78
2 glanzel     d        2
2 glanzel     h_d      59
2 glanzel     e_d      59.875             0.005
2 glanzel     q_d      3.060              0.005
2 glanzel     j_d      11714.0..14150.1   1.5
2 glanzel     j_d1     12150.5..14545.6   1.5
2 glanzel     b_prime  13847.1            2.5
2 glanzel     b_dprime 12150.5            1.5
2 glanzel     b        12998.8            2.5
2 moed        d        7
2 moed        h_d      44
2 moed        e_d      45.409             0.005
2 moed        q_d      3.130              0.005
2 moed        j_d      8191.0..10018.6    1.5
2 moed        j_d1     8453.9..10249.6    1.5
2 moed        b_dprime 10061.9            1.5
2 vanraan     d        14
2 vanraan     h_d      39
2 vanraan     e_d      39.090             0.005
2 vanraan     q_d      3.009              0.005
2 vanraan     e_d1     37.643             0.005
2 vanraan     q_d1     2.863              0.005
2 rousseau    d        2
2 rousseau    h_d      42
2 rousseau    e_d      44.125             0.005
2 rousseau    e_d1     38.8716            0.005
2 rousseau    q_d1     2.71315            0.005
2 rousseau    j_d1     7237.8..8923.9     1.5
2 rousseau    b_dprime 7237.8             1.5
2 schubert    d        9
2 schubert    h_d      36
2 schubert    e_d      36.000             1e-9
2 schubert    q_d      3.000              1e-9
2 schubert    j_d      7608.4..9087.5     1.5
2 schubert    j_d1     7769.2..9226.9     1.5
2 schubert    b_prime  7608.4             1.0
2 schubert    b_dprime 7769.2             1.0
2 schubert    b        7688.8             2.0
2 schubert    a        8423.0             1.5
2 martin      d        20
2 martin      h_d      23
2 martin      e_d      23.7487            0.005
2 martin      q_d      3.132              0.005
2 martin      j_d1     7540.8..8482.8     1.5
2 martin      b_dprime 7746.5             1.5
2 martin      b        7964.4             1.5
2 narin       d        23
2 narin       h_d      21
2 narin       e_d      21.909             0.005
2 narin       q_d      3.177              0.005
2 narin       j_d      7180.7..8056.5     1.5
2 narin       j_d1     7255.4..8115.6     1.5
2 narin       b_prime  7976.7             1.5
2 narin       b_dprime 7420.0             1.5
2 narin       b        7698.4             1.5
2 narin       a        7652.1             1.5
2 garfield    d        25
2 garfield    h_d      21
2 garfield    e_d      21.448             0.002
2 garfield    q_d      3.086              0.002
2 garfield    j_d      10939.5..11808.6   1.0
2 garfield    j_d1     11019.8..11872.0   1.5
2 garfield    b_prime  11328.5            1.0
2 garfield    b_dprime 11700.5            2.0
2 garfield    b        11515.45           2.0
2 garfield    a        11410.0            1.5
2 braun       d        4
2 braun       h_d      34
2 braun       e_d      34.957             0.005
2 braun       q_d      3.114              0.005
2 braun       j_d      4508.1..5918.4     1.5
2 braun       b_prime  5857.9             1.5
2 braun       a        5288.8             1.5
2 small       d        23
2 small       h_d      17
2 small       e_d      17.607             0.005
2 small       q_d      3.145              0.005
2 small       j_d      7655.5..8362.6     1.5
2 small       j_d1     7719.1..8410.1     1.5
2 small       b_dprime 8111.8             1.5
2 small       b        8098.2             1.5
2 small       a        8036.9             1.5
2 egghe       d        4
2 egghe       h_d      29
2 egghe       e_d      29.343             0.005
2 egghe       q_d      3.048              0.005
2 egghe       j_d      4693.3..5889.5     1.5
2 egghe       e_d1     27.659             0.005
2 ingwersen   d        6
2 ingwersen   h_d      25
2 ingwersen   e_d      25.179             0.005
2 ingwersen   q_d      3.029              0.005
2 ingwersen   j_d      3454.0..4483.6     1.5
2 ingwersen   j_d1     3468.7..4441.4     1.5
2 ingwersen   b_prime  3638.7             1.5
2 ingwersen   b_dprime 3468.7             1.5
2 ingwersen   b        3553.7             1.5
2 ingwersen   a        3962.0             1.5
2 white       d        0
2 white       h_d      19
2 white       e_d      44.396             0.005
2 white       q_d      11.920             0.005
2 white       j_d      661.4..1988.8      1.0
2 white       b        2399.75            12.0
2 white       a        1820.0             1.5
5 einstein    d        59
5 einstein    h_d      87
5 einstein    e_d      88.2723            0.001
5 einstein    e_d1     86.741             0.01
5 einstein    j_d      161903.2..165495.2 1.0
5 einstein    a        163876.5           1.0
5 kim         d        13
5 kim         h_d      333
5 kim         e_d      333.8038           0.001
5 kim         e_d1     331.0529           0.001
5 kessler     d        94
5 kessler     h_d      270
5 kessler     e_d      271.157            0.001
5 kessler     e_d1     269.596            0.001
5 meyer       d        9
5 meyer       h_d      91
5 meyer       e_d      92.423             0.001
5 meyer       a        48907.5            5.0
5 kalaj       d        0
5 kalaj       h_d      22
5 kalaj       e_d      21.517             0.001
5 kalaj       b        1671.8             2.0
5 monkova     d        0
5 monkova     h_d      16
5 monkova     e_d      13.565             0.001
5 monkova     b        689.2              1.0
5 mutafchiev  d        0
5 mutafchiev  h_d      10
5 mutafchiev  e_d      8.485              0.001
5 mutafchiev  b        275.4              1.0
5 spalevic    d        0
5 spalevic    h_d      29
5 spalevic    e_d      18.921             0.001
5 spalevic    b        3195.9             1.0
8 leydesdorff    25005  82.9..87.9   reduced
8 glanzel        11766  56.5..60.6   reduced
8 moed           7606   45.2..49.0   reduced
8 vanraan        8308   40.1..58.4   standard
8 rousseau       8053   46.6..50.4   reduced
8 schubert       7587   45.2..48.9   reduced
8 martin         7598   -            defective printed as (37.9, 56.2.7)
8 narin          7209   -            defective printed as (39.554, 5)
8 garfield       11515  55.9..60.0   reduced
8 braun          5680   38.9..42.5   reduced
8 small          7693   45.5..49.3   reduced
8 egghe          5640   38.8..42.3   reduced
8 ingwersen      3606   28.2..36.6   defective matches neither dispersion reading
8 white          2399   24.9..28.0   reduced
8 freud          643730 361.4..505.1 standard
8 kim            518589 324.2..453.5 standard
8 kessler        515591 323.3..452.2 standard
8 einstein       161009 180.2..253.2 standard
8 erdos_gs       99866  141.7..199.6 standard
8 tao_gs         90963  135.1..190.6 standard
8 leydesdorff_gs 70821  119.1..168.3 standard
8 meyer          49110  99.0..140.3  standard
8 tao_s          46852  96.7..137.1  standard
8 andrews_gs     32386  80.2..114.2  standard
8 mcaleer        26266  72.1..102.9  standard
8 hirsch         24451  69.5..99.3   standard
8 erdos_s        18830  60.9..87.3   standard
8 edelmann       13417  51.2..73.9   standard
8 gauss          11606  49.8..66.6   defective matches neither dispersion reading
8 andrews_s      6567   37.7..43.8   defective matches neither dispersion reading
8 papadimitrou   5407   32.1..47.3   standard
8 zeilberger     3158   24.3..36.4   standard
8 orovic         3082   24.0..36.0   standard
8 savage         3031   23.7..35.7   standard
8 spalevic       2832   22.7..34.7   defective off by 0.23 under the standard reading
8 ziarati        2123   19.7..30.0   standard
8 yong           1631   16.6..27.0   defective off by 0.53 under the standard reading
8 kalaj          1577   16.8..26.1   standard
8 vukoslavcevic  912    12.5..20.0   standard
8 monkova        741    11.2..18.2   standard
8 mutafchiev     312    6.9..12.2    standard
""")
TABLE1_EXPECTED, TABLE2_EXPECTED, TABLE5_EXPECTED = PUBLISHED_CELLS.values()

# fixture file names by researcher key (the ``table`` command looks these up
# inside the --fixtures directory)
FIXTURE_FILES = {name: f"{name}.csv" for cells in PUBLISHED_CELLS.values() for name in cells}

# Published cells that cannot be reproduced from their own row's inputs.
# Each entry: (table, researcher, cell, published value, why it is skipped).
KNOWN_DISCREPANCIES = [
    ("2", "leydesdorff", "chain", "e_d=78.740 etc.",
     "row used a 77-wide core window for a shifted index of 78"),
    ("2", "leydesdorff", "n_h_d1", 11882, "clashes with the stay recurrence (11883)"),
    ("2", "moed", "d", 5, "the row's own head and core sums certify depth 7"),
    ("2", "moed", "b_prime/b", "10018.6 expected for B'",
     "published pair mixes a weighted value into the hard-bound branch"),
    ("2", "vanraan", "j_d/j_d1/b/a", "(8747.6, 10351.1) etc.",
     "intervals were translated by the tail total instead of the head sum"),
    ("2", "vanraan", "n_cit_d", 4463, "clashes with the column's head sum (4311)"),
    ("2", "rousseau", "q_d", 3.160, "implies a core sum of 3669, not the printed 3711"),
    ("2", "rousseau", "j_d", "(6739.4, 10003.4)",
     "lower bound uses the inconsistent q_d; upper bound adds the head sum twice"),
    ("2", "rousseau", "b_prime", 10003.4,
     "equals the upper J_d bound with the head sum added twice; not derivable"),
    ("2", "martin", "e_d", 23.785, "sqrt(564) = 23.7487; the fractional weight 0.749 confirms"),
    ("2", "martin", "j_d.lo/b_prime", "7446.9 / 8177.6",
     "lower bound printed from a different center ratio"),
    ("2", "braun", "j_d1/b_dprime", "(4659.1, 6069.4) / 5728.1",
     "second interval reuses the first interval's bounds"),
    ("2", "small", "b_prime", 8046.6, "does not match the printed weights or bounds"),
    ("2", "egghe", "q_d1/j_d1/b", "5.503 / (4256.4, 6392.5) / 5570.8",
     "second-row ratio is wrong (2.952 from its own sums); downstream cells inherit it"),
    ("2", "egghe", "b_prime", 5479.2, "weights swapped against the fractional-part rule"),
    ("2", "ingwersen", "n_cit_d", 1798, "prints the head sum; the tail total is 1808"),
    ("2", "ingwersen", "beta_d1", 1.0, "the second row is a hard-bound branch (beta = 0)"),
    ("2", "white", "n_cit_d1", 1303, "column gives 1370 = 2399 - 1029"),
    ("1", "white", "i_mean", 1322.13,
     "printed as the midpoint of an interval whose ratio does not match q/e"),
    ("2", "glanzel", "a", 12900.6,
     "contradicts the two printed interval means it averages (13140.05)"),
    ("2", "braun", "b", 5793.0,
     "inherits the copied second-interval bounds; faithful value 5789.8"),
    ("5", "einstein", "b chain", "(162881.3, 164987.5) / 163934.4",
     "row applies fractional weights where the hard-bound branch is prescribed; "
     "the worked recalculation gives yet another mix; excluded from exact checks"),
    ("5", "kim", "h_d/e_d", "332 / 334.798",
     "row and worked recalculation disagree; fixture follows the worked values"),
    ("5", "kim", "n_cit_h", 312483,
     "not attainable together with the worked core sums; fixture total is 312152"),
    ("5", "kessler", "h", 329, "the column certifies h = 327 (as its own note states)"),
    ("5", "kessler", "e_d", 271.134, "worked recalculation gives 271.157; fixture follows it"),
    ("5", "meyer", "j_d/b chain", "(47024.7, 50372.2) etc.",
     "interval ratio inconsistent with the row's own core sums"),
    ("5", "kalaj", "e_d1", 20.273, "depends on unpublished tail ranks"),
    ("5", "spalevic", "e_d1", 17.635, "depends on unpublished tail ranks"),
    ("5", "mutafchiev", "e_d1", 7.289, "depends on unpublished tail ranks"),
    ("5", "ziarati", "b", 2156.8,
     "equals frac(e) times the interval mean, not the upper bound; not followed"),
    # not a table cell: no ``table`` command reads this id
    ("durfee", "moment_estimates", "mean coefficient", 0.540446395,
     "the mode coefficient is 0.5404446395, so a '4' looks dropped; the literal "
     "is kept, and the two readings differ by 1.7555e-6*sqrt(n)"),
]

REDUCED_DISPERSION_SLOPE = 0.0045  # the slope Table 8's reduced rows were computed with
