"""Published target values that the bundled fixtures reproduce.

Used by the ``table`` command's diff reports and by the golden tests.  Each
expected cell is a ``(value, tolerance)`` pair; cells that the source tables
print inconsistently with their own inputs are omitted here and listed in
``KNOWN_DISCREPANCIES`` instead, so a diff run accounts for every cell it
skips.

``TABLE8`` rows carry a category: ``standard`` rows reproduce under the
published band formula (dispersion 0.57 + 0.045*sqrt(N)); ``reduced`` rows
were evidently computed with a ten-times smaller dispersion slope (0.0045)
and are checked against that variant; ``defective`` rows are malformed or
match neither reading and are excluded from numeric checks.
"""

from __future__ import annotations

# fixture file names by researcher key (the ``table`` command looks these up
# inside the --fixtures directory)
FIXTURE_FILES = {
    "leydesdorff": "leydesdorff.csv",
    "glanzel": "glanzel.csv",
    "moed": "moed.csv",
    "vanraan": "vanraan.csv",
    "rousseau": "rousseau.csv",
    "schubert": "schubert.csv",
    "martin": "martin.csv",
    "narin": "narin.csv",
    "garfield": "garfield.csv",
    "braun": "braun.csv",
    "small": "small.csv",
    "egghe": "egghe.csv",
    "ingwersen": "ingwersen.csv",
    "white": "white.csv",
    "einstein": "einstein.csv",
    "kim": "kim.csv",
    "kessler": "kessler.csv",
    "meyer": "meyer.csv",
    "kalaj": "kalaj.csv",
    "monkova": "monkova.csv",
    "mutafchiev": "mutafchiev.csv",
    "spalevic": "spalevic.csv",
}

TABLE1_RESEARCHERS = [
    "leydesdorff", "glanzel", "moed", "vanraan", "rousseau", "schubert",
    "martin", "narin", "garfield", "braun", "small", "egghe", "ingwersen",
    "white",
]

TABLE5_RESEARCHERS = [
    "einstein", "kim", "kessler", "meyer", "kalaj", "monkova",
    "mutafchiev", "spalevic",
]

# ------------------------------------------------------------- table 1
# (n_cit, h exact; h_na, e +-0.01; q +-0.005; i_mean +-1.5)
TABLE1_EXPECTED = {
    "leydesdorff": dict(n_cit=25005, h=79, n_cit_h=17360, h_na=(85.461, 0.005),
                        q=(4.563, 0.005), e=(105.447, 0.005), i_mean=(21407.42, 1.5)),
    "glanzel": dict(n_cit=11766, h=61, n_cit_h=8049, h_na=(58.623, 0.005),
                    q=(3.326, 0.005), e=(65.788, 0.005), i_mean=(12772.20, 1.5)),
    "moed": dict(n_cit=7606, h=49, n_cit_h=6351, h_na=(47.133, 0.005),
                 q=(4.290, 0.005), e=(62.849, 0.005), i_mean=(8258.64, 1.5)),
    "vanraan": dict(n_cit=8308, h=48, n_cit_h=6833, h_na=(49.260, 0.005),
                    q=(4.931, 0.005), e=(67.298, 0.005), i_mean=(7930.59, 1.5)),
    "rousseau": dict(n_cit=8053, h=43, n_cit_h=5203, h_na=(48.499, 0.005),
                     q=(4.628, 0.005), e=(57.914, 0.005), i_mean=(6370.88, 1.5)),
    "schubert": dict(n_cit=7587, h=42, n_cit_h=6359, h_na=(47.074, 0.005),
                     q=(6.210, 0.005), e=(67.786, 0.005), i_mean=(6090.12, 1.5)),
    "martin": dict(n_cit=7598, h=38, n_cit_h=7048, h_na=(47.108, 0.005),
                   q=(8.762, 0.005), e=(74.860, 0.005), i_mean=(5011.58, 1.5)),
    "narin": dict(n_cit=7209, h=38, n_cit_h=6823, h_na=(45.887, 0.005),
                  q=(8.450, 0.005), e=(73.342, 0.005), i_mean=(5009.47, 1.5)),
    "garfield": dict(n_cit=11515, h=37, n_cit_h=10509, h_na=(57.994, 0.005),
                     q=(14.353, 0.005), e=(95.603, 0.005), i_mean=(4792.71, 1.5)),
    "braun": dict(n_cit=5680, h=37, n_cit_h=3566, h_na=(40.731, 0.005),
                  q=(4.210, 0.005), e=(46.872, 0.005), i_mean=(4724.88, 1.5)),
    "small": dict(n_cit=7693, h=34, n_cit_h=7471, h_na=(47.402, 0.005),
                  q=(11.926, 0.005), e=(79.467, 0.005), i_mean=(4046.96, 1.5)),
    "egghe": dict(n_cit=5640, h=30, n_cit_h=3995, h_na=(40.587, 0.005),
                  q=(7.878, 0.005), e=(55.633, 0.005), i_mean=(3143.13, 1.5)),
    "ingwersen": dict(n_cit=3606, h=27, n_cit_h=2952, h_na=(32.454, 0.005),
                      q=(7.099, 0.005), e=(47.149, 0.005), i_mean=(2552.47, 1.5)),
    "white": dict(n_cit=2399, h=19, n_cit_h=2332, h_na=(26.471, 0.005),
                  q=(11.920, 0.005), e=(44.396, 0.005)),
}

# ------------------------------------------------------------- table 2
# Cells are (expected, abs tolerance); omitted cells are in
# KNOWN_DISCREPANCIES.  d and h_d are exact.
TABLE2_EXPECTED = {
    "leydesdorff": dict(d=3, h_d=78),
    "glanzel": dict(d=2, h_d=59, e_d=(59.875, 0.005), q_d=(3.060, 0.005),
                    j_d=((11714.0, 14150.1), 1.5), j_d1=((12150.5, 14545.6), 1.5),
                    b_prime=(13847.1, 2.5), b_dprime=(12150.5, 1.5),
                    b=(12998.8, 2.5)),
    "moed": dict(d=7, h_d=44, e_d=(45.409, 0.005), q_d=(3.130, 0.005),
                 j_d=((8191.0, 10018.6), 1.5), j_d1=((8453.9, 10249.6), 1.5),
                 b_dprime=(10061.9, 1.5)),
    "vanraan": dict(d=14, h_d=39, e_d=(39.090, 0.005), q_d=(3.009, 0.005),
                    e_d1=(37.643, 0.005), q_d1=(2.863, 0.005)),
    "rousseau": dict(d=2, h_d=42, e_d=(44.125, 0.005), e_d1=(38.8716, 0.005),
                     q_d1=(2.71315, 0.005), j_d1=((7237.8, 8923.9), 1.5),
                     b_dprime=(7237.8, 1.5)),
    "schubert": dict(d=9, h_d=36, e_d=(36.000, 1e-9), q_d=(3.000, 1e-9),
                     j_d=((7608.4, 9087.5), 1.5), j_d1=((7769.2, 9226.9), 1.5),
                     b_prime=(7608.4, 1.0), b_dprime=(7769.2, 1.0),
                     b=(7688.8, 2.0), a=(8423.0, 1.5)),
    "martin": dict(d=20, h_d=23, e_d=(23.7487, 0.005), q_d=(3.132, 0.005),
                   j_d1=((7540.8, 8482.8), 1.5), b_dprime=(7746.5, 1.5),
                   b=(7964.4, 1.5)),
    "narin": dict(d=23, h_d=21, e_d=(21.909, 0.005), q_d=(3.177, 0.005),
                  j_d=((7180.7, 8056.5), 1.5), j_d1=((7255.4, 8115.6), 1.5),
                  b_prime=(7976.7, 1.5), b_dprime=(7420.0, 1.5),
                  b=(7698.4, 1.5), a=(7652.1, 1.5)),
    "garfield": dict(d=25, h_d=21, e_d=(21.448, 0.002), q_d=(3.086, 0.002),
                     j_d=((10939.5, 11808.6), 1.0), j_d1=((11019.8, 11872.0), 1.5),
                     b_prime=(11328.5, 1.0), b_dprime=(11700.5, 2.0),
                     b=(11515.45, 2.0), a=(11410.0, 1.5)),
    "braun": dict(d=4, h_d=34, e_d=(34.957, 0.005), q_d=(3.114, 0.005),
                  j_d=((4508.1, 5918.4), 1.5), b_prime=(5857.9, 1.5), a=(5288.8, 1.5)),
    "small": dict(d=23, h_d=17, e_d=(17.607, 0.005), q_d=(3.145, 0.005),
                  j_d=((7655.5, 8362.6), 1.5), j_d1=((7719.1, 8410.1), 1.5),
                  b_dprime=(8111.8, 1.5), b=(8098.2, 1.5), a=(8036.9, 1.5)),
    "egghe": dict(d=4, h_d=29, e_d=(29.343, 0.005), q_d=(3.048, 0.005),
                  j_d=((4693.3, 5889.5), 1.5), e_d1=(27.659, 0.005)),
    "ingwersen": dict(d=6, h_d=25, e_d=(25.179, 0.005), q_d=(3.029, 0.005),
                      j_d=((3454.0, 4483.6), 1.5), j_d1=((3468.7, 4441.4), 1.5),
                      b_prime=(3638.7, 1.5), b_dprime=(3468.7, 1.5),
                      b=(3553.7, 1.5), a=(3962.0, 1.5)),
    "white": dict(d=0, h_d=19, e_d=(44.396, 0.005), q_d=(11.920, 0.005),
                  j_d=((661.4, 1988.8), 1.0), b=(2399.75, 12.0),
                  a=(1820.0, 1.5)),
}

# ------------------------------------------------------------- table 5
TABLE5_EXPECTED = {
    "einstein": dict(d=59, h_d=87, e_d=(88.2723, 0.001), e_d1=(86.741, 0.01),
                     j_d=((161903.2, 165495.2), 1.0), a=(163876.5, 1.0)),
    "kim": dict(d=13, h_d=333, e_d=(333.8038, 0.001), e_d1=(331.0529, 0.001)),
    "kessler": dict(d=94, h_d=270, e_d=(271.157, 0.001), e_d1=(269.596, 0.001)),
    "meyer": dict(d=9, h_d=91, e_d=(92.423, 0.001), a=(48907.5, 5.0)),
    "kalaj": dict(d=0, h_d=22, e_d=(21.517, 0.001), b=(1671.8, 2.0)),
    "monkova": dict(d=0, h_d=16, e_d=(13.565, 0.001), b=(689.2, 1.0)),
    "mutafchiev": dict(d=0, h_d=10, e_d=(8.485, 0.001), b=(275.4, 1.0)),
    "spalevic": dict(d=0, h_d=29, e_d=(18.921, 0.001), b=(3195.9, 1.0)),
}

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

# ------------------------------------------------------------- table 8
# (researcher, n_cit, printed band or None, category, note)
TABLE8 = [
    ("leydesdorff", 25005, (82.9, 87.9), "reduced", ""),
    ("glanzel", 11766, (56.5, 60.6), "reduced", ""),
    ("moed", 7606, (45.2, 49.0), "reduced", ""),
    ("vanraan", 8308, (40.1, 58.4), "standard", ""),
    ("rousseau", 8053, (46.6, 50.4), "reduced", ""),
    ("schubert", 7587, (45.2, 48.9), "reduced", ""),
    ("martin", 7598, None, "defective", "printed as (37.9, 56.2.7)"),
    ("narin", 7209, None, "defective", "printed as (39.554, 5)"),
    ("garfield", 11515, (55.9, 60.0), "reduced", ""),
    ("braun", 5680, (38.9, 42.5), "reduced", ""),
    ("small", 7693, (45.5, 49.3), "reduced", ""),
    ("egghe", 5640, (38.8, 42.3), "reduced", ""),
    ("ingwersen", 3606, (28.2, 36.6), "defective", "matches neither dispersion reading"),
    ("white", 2399, (24.9, 28.0), "reduced", ""),
    ("freud", 643730, (361.4, 505.1), "standard", ""),
    ("kim", 518589, (324.2, 453.5), "standard", ""),
    ("kessler", 515591, (323.3, 452.2), "standard", ""),
    ("einstein", 161009, (180.2, 253.2), "standard", ""),
    ("erdos_gs", 99866, (141.7, 199.6), "standard", ""),
    ("tao_gs", 90963, (135.1, 190.6), "standard", ""),
    ("leydesdorff_gs", 70821, (119.1, 168.3), "standard", ""),
    ("meyer", 49110, (99.0, 140.3), "standard", ""),
    ("tao_s", 46852, (96.7, 137.1), "standard", ""),
    ("andrews_gs", 32386, (80.2, 114.2), "standard", ""),
    ("mcaleer", 26266, (72.1, 102.9), "standard", ""),
    ("hirsch", 24451, (69.5, 99.3), "standard", ""),
    ("erdos_s", 18830, (60.9, 87.3), "standard", ""),
    ("edelmann", 13417, (51.2, 73.9), "standard", ""),
    ("gauss", 11606, (49.8, 66.6), "defective", "matches neither dispersion reading"),
    ("andrews_s", 6567, (37.7, 43.8), "defective", "matches neither dispersion reading"),
    ("papadimitrou", 5407, (32.1, 47.3), "standard", ""),
    ("zeilberger", 3158, (24.3, 36.4), "standard", ""),
    ("orovic", 3082, (24.0, 36.0), "standard", ""),
    ("savage", 3031, (23.7, 35.7), "standard", ""),
    ("spalevic", 2832, (22.7, 34.7), "defective", "off by 0.23 under the standard reading"),
    ("ziarati", 2123, (19.7, 30.0), "standard", ""),
    ("yong", 1631, (16.6, 27.0), "defective", "off by 0.53 under the standard reading"),
    ("kalaj", 1577, (16.8, 26.1), "standard", ""),
    ("vukoslavcevic", 912, (12.5, 20.0), "standard", ""),
    ("monkova", 741, (11.2, 18.2), "standard", ""),
    ("mutafchiev", 312, (6.9, 12.2), "standard", ""),
]

REDUCED_DISPERSION_SLOPE = 0.0045  # the slope those rows were computed with
