"""Total-citation estimators built on the h-core and a short tail prefix.

The square-root law links the h-index of a random partition of N to
0.5404446*sqrt(N); inverting it around a ladder row k gives the interval

    I_k = ( (1.8503*h_k*(1 - q_k/e_k))^2 , (1.8503*h_k*(1 + q_k/e_k))^2 )

and its head-translated companion J_k = I_k + sum(cit_1..cit_k).  The A
estimator averages the midpoints of J_d and J_{d+1}; the B estimator picks
convex combinations of their bounds, with weights and bound choices driven
by the defect case tag.  Everything here reads only the h-core, rows d and
d+1 and a short tail, which is what makes blind estimation from a rank
prefix possible.  The prefix needed is the one the defect scan reads, which
``ranks_consumed`` reports; a shorter one raises ``InsufficientTail`` naming
the rank it lacked.  With d = 0 that scan reads past rank d+1+h_{d+1}+1 to
certify that no crossing occurs.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .constants import DURFEE_MODE_COEFF, INV_COEFF, INV_COEFF_SQ
from .errors import (
    DegenerateCore,
    GroundTruthUnavailable,
    NegativeArgument,
    WrongCase,
)
from .indices import CoreIndices, compute_core_indices
from .profile import CitationProfile
from .shifted import DefectAnalysis, ShiftedRow, h_defect


class Interval(namedtuple("Interval", "lo hi")):
    __slots__ = ()

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    def __contains__(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def shift(self, offset: float) -> "Interval":
        return Interval(self.lo + offset, self.hi + offset)


def h_na(n_cit: int | float) -> float:
    """Normal approximation of the h-index: 0.5404446394667307 * sqrt(N_cit)."""
    if n_cit < 0:
        raise NegativeArgument(f"n_cit must be >= 0, got {n_cit}")
    return DURFEE_MODE_COEFF * math.sqrt(n_cit)


def _scaled_interval(center: float, ratio: float) -> Interval:
    base = INV_COEFF * center
    return Interval((base * (1.0 - ratio)) ** 2, (base * (1.0 + ratio)) ** 2)


def interval_I(h_val: int, q_val: float, e_val: float) -> Interval:
    """The inverted square-root-law interval around a (h, q, e) triple."""
    if e_val <= 0.0:
        raise DegenerateCore("e = 0: every core entry equals h, the interval collapses")
    return _scaled_interval(h_val, q_val / e_val)


def _head_sum(profile: CitationProfile, k: int) -> int:
    return sum(profile.citations[:k])


def interval_J(profile: CitationProfile, row: ShiftedRow) -> Interval:
    """I_k of ladder row k translated by the head sum cit_1 + ... + cit_k."""
    return interval_I(row.h_k, row.q_k, row.e_k).shift(_head_sum(profile, row.k))


def _scaled_mean(center: float, ratio: float) -> float:
    # closed form of the interval midpoint: ((1-x)^2 + (1+x)^2)/2 = 1 + x^2
    return INV_COEFF_SQ * (1.0 + ratio * ratio) * center * center


class IntervalVariants(
    namedtuple("IntervalVariants", "i i_mean iq iq_mean ir ir_mean iq_prime iq_prime_mean")
):
    """The base interval I plus the inflated-center variants I(q), I(r), I(q')."""

    __slots__ = ()


def interval_variants(indices: CoreIndices) -> IntervalVariants:
    """Inflated-center intervals with centers h+q, h+r, h+q' and their means.

    The r-based variant carries its ratio r/e at three decimal places; r is
    an integer-coarse index and its companion interval is quoted at that
    display precision.
    """
    if indices.e_index <= 0.0:
        raise DegenerateCore("e = 0: every core entry equals h, the intervals collapse")
    h, q, e = indices.h, indices.q, indices.e_index
    r, q_prime = indices.r_floor, indices.q_prime
    ratio_q = q / e
    ratio_r = round(r / e, 3)
    ratio_qp = q_prime / e
    return IntervalVariants(
        i=_scaled_interval(float(h), ratio_q),
        i_mean=_scaled_mean(float(h), ratio_q),
        iq=_scaled_interval(h + q, ratio_q),
        iq_mean=_scaled_mean(h + q, ratio_q),
        ir=_scaled_interval(float(h + r), ratio_r),
        ir_mean=_scaled_mean(float(h + r), ratio_r),
        iq_prime=_scaled_interval(h + q_prime, ratio_qp),
        iq_prime_mean=_scaled_mean(h + q_prime, ratio_qp),
    )


def _frac(x: float) -> float:
    return x - math.floor(x)


class CaseWeights(
    namedtuple("CaseWeights", "alpha_d beta_d alpha_d1 beta_d1", defaults=(None,) * 4)
):
    """Convex weights attached to the interval bounds, per case."""

    __slots__ = ()


class EstimateReport(
    namedtuple(
        "EstimateReport",
        "d case_tag h_na h_na_d h_na_d1 i_d i_d1 j_d j_d1 a_prime a_est weights"
        " b_prime b_dprime b_est head_sum_d head_sum_d1 ranks_consumed",
    )
):
    """Every quantity the estimation pipeline produces for one profile: I and J
    at ladder rows d and d+1 (an interval's mean is its ``midpoint``), A', A,
    and B', B'', B with the case weights (B'/B'' are None in cases 1b, 3a, 3b)."""

    __slots__ = ()


class ErrorMetrics(
    namedtuple(
        "ErrorMetrics",
        "delta_1 delta_2 delta_3 delta_4 delta_d cap_delta_a cap_delta_b delta_a delta_b",
    )
):
    """Relative and absolute errors against the known total N_cit.

    The interval-mean deltas are signed (estimate - N_cit)/N_cit; the A/B
    deltas follow the opposite convention (N_cit - estimate), kept as the
    source tables print them.
    """

    __slots__ = ()


def _require_rows(defect: DefectAnalysis) -> tuple[ShiftedRow, ShiftedRow]:
    if len(defect.rows) < defect.d + 2:
        raise DegenerateCore("profile too short: no row beyond the defect depth")
    return defect.rows[defect.d], defect.rows[defect.d + 1]


def estimate_A_quick(defect: DefectAnalysis, head: tuple[int, ...] | list[int]) -> float:
    """Rule-of-thumb form of A for case-2 profiles.

    ``head`` must hold at least cit_1..cit_{d+1}; only those ranks are used.
    """
    if not defect.case_tag.startswith("case2"):
        raise WrongCase(f"quick A applies to case-2 profiles, not {defect.case_tag}")
    row_d, row_d1 = _require_rows(defect)
    if len(head) < defect.d + 1:
        raise ValueError(f"head must hold at least {defect.d + 1} ranks")
    head_d = sum(head[: defect.d])
    return (
        1.7118 * (row_d.h_k**2 + row_d1.h_k**2)
        + 30.8134
        + head_d
        + head[defect.d] / 2.0
    )


def _weighted(lo: float, hi: float, weight_hi: float) -> float:
    return (1.0 - weight_hi) * lo + weight_hi * hi


def _estimate_B(
    tag: str, row_d: ShiftedRow, row_d1: ShiftedRow, j_d: Interval, j_d1: Interval
) -> tuple[float | None, float | None, float, CaseWeights]:
    if tag == "case1a":
        # both upper bounds, averaged (d = 0, so J_0 = I_0)
        weights = CaseWeights(alpha_d=0.0, beta_d=1.0, alpha_d1=0.0, beta_d1=1.0)
        return j_d.hi, j_d1.hi, (j_d.hi + j_d1.hi) / 2.0, weights

    if tag == "case1b":
        beta = _frac(row_d.e_k)
        weights = CaseWeights(alpha_d=1.0 - beta, beta_d=beta)
        return None, None, _weighted(j_d.lo, j_d.hi, beta), weights

    if tag == "case3a":
        # fractional weight lands on the lower bound here
        beta = _frac(row_d.e_k)
        weights = CaseWeights(alpha_d=1.0 - beta, beta_d=beta)
        return None, None, _weighted(j_d.lo, j_d.hi, 1.0 - beta), weights

    if tag == "case3b":
        beta = _frac(row_d.e_k)
        weights = CaseWeights(beta_d=beta)
        return None, None, beta * j_d.hi, weights

    if tag.startswith("case2"):
        if "2a" in tag:
            beta_d = 1.0
            b_prime = j_d.hi
        else:
            beta_d = _frac(row_d.e_k)
            b_prime = _weighted(j_d.lo, j_d.hi, beta_d)
        if "2c" in tag:
            beta_d1 = 0.0
            b_dprime = j_d1.lo
        else:
            beta_d1 = _frac(row_d1.e_k)
            b_dprime = _weighted(j_d1.lo, j_d1.hi, 1.0 - beta_d1)
        weights = CaseWeights(
            alpha_d=1.0 - beta_d, beta_d=beta_d, alpha_d1=1.0 - beta_d1, beta_d1=beta_d1
        )
        return b_prime, b_dprime, (b_prime + b_dprime) / 2.0, weights

    if tag == "case4":
        # mirror of case 2 with the weight roles swapped
        ex_d = row_d.n_h_k - row_d.h_k**2
        if (row_d.h_k - 1) ** 2 > ex_d:
            alpha_d = 1.0
            b_prime = j_d.lo
        else:
            alpha_d = _frac(row_d.e_k)
            b_prime = _weighted(j_d.lo, j_d.hi, 1.0 - alpha_d)
        ex_d1 = row_d1.n_h_k - row_d1.h_k**2
        if ex_d1 > (row_d1.h_k + 1) ** 2:
            alpha_d1 = 0.0
            b_dprime = j_d1.hi
        else:
            alpha_d1 = _frac(row_d1.e_k)
            b_dprime = _weighted(j_d1.lo, j_d1.hi, alpha_d1)
        weights = CaseWeights(
            alpha_d=alpha_d, beta_d=1.0 - alpha_d, alpha_d1=alpha_d1, beta_d1=1.0 - alpha_d1
        )
        return b_prime, b_dprime, (b_prime + b_dprime) / 2.0, weights

    raise WrongCase(f"unrecognized case tag {tag!r}")


def estimate_report(
    profile: CitationProfile, defect: DefectAnalysis | None = None
) -> EstimateReport:
    """Run the whole estimation pipeline for one profile (full or prefix)."""
    if defect is None:
        defect = h_defect(profile)
    row_d, row_d1 = _require_rows(defect)
    i_d = interval_I(row_d.h_k, row_d.q_k, row_d.e_k)
    i_d1 = interval_I(row_d1.h_k, row_d1.q_k, row_d1.e_k)
    head_d = _head_sum(profile, defect.d)
    head_d1 = _head_sum(profile, defect.d + 1)
    j_d = i_d.shift(head_d)
    j_d1 = i_d1.shift(head_d1)
    a_prime = (i_d.midpoint + i_d1.midpoint) / 2.0
    a_est = (j_d.midpoint + j_d1.midpoint) / 2.0
    b_prime, b_dprime, b_est, weights = _estimate_B(defect.case_tag, row_d, row_d1, j_d, j_d1)

    # row 0's tail total is the whole profile's total, known only when complete
    total = defect.rows[0].n_cit_k
    na = h_na(total) if total is not None else None
    na_d = h_na(row_d.n_cit_k) if row_d.n_cit_k is not None else None
    na_d1 = h_na(row_d1.n_cit_k) if row_d1.n_cit_k is not None else None

    return EstimateReport(
        d=defect.d,
        case_tag=defect.case_tag,
        h_na=na,
        h_na_d=na_d,
        h_na_d1=na_d1,
        i_d=i_d,
        i_d1=i_d1,
        j_d=j_d,
        j_d1=j_d1,
        a_prime=a_prime,
        a_est=a_est,
        weights=weights,
        b_prime=b_prime,
        b_dprime=b_dprime,
        b_est=b_est,
        head_sum_d=head_d,
        head_sum_d1=head_d1,
        ranks_consumed=defect.ranks_consumed,
    )


def brown_interval(n_cit: int | float) -> Interval:
    """Empirical 95% band for h given N_cit: 0.54*sqrt(N) +/- 1.96*(0.57 + 0.045*sqrt(N))."""
    if n_cit < 0:
        raise NegativeArgument(f"n_cit must be >= 0, got {n_cit}")
    root = math.sqrt(n_cit)
    center = 0.54 * root
    half = 1.96 * (0.57 + 0.045 * root)
    return Interval(center - half, center + half)


class RuleOfThumbSet(
    namedtuple(
        "RuleOfThumbSet",
        "hirsch_band durfee_mode van_raan mahmoudi_ncit radicchi_simple spruit redner"
        " mahmoudi_d1 radicchi_joint glanzel_schubert",
        defaults=(None, None, None),
    )
):
    """Named square-root-law style h estimates from one citation total.

    Entries whose optional inputs (publication count, career years, Lotka
    exponent) were not supplied stay ``None`` and drop out of ``as_dict``.
    """

    __slots__ = ()

    def as_dict(self) -> dict[str, object]:
        return {name: value for name, value in self._asdict().items() if value is not None}


def rules_of_thumb(
    n_cit: int,
    p: int | None = None,
    d1_years: float | None = None,
    lotka_a: float | None = None,
) -> RuleOfThumbSet:
    """The comparator set of published h ~ f(N_cit, ...) approximations."""
    if n_cit < 1:
        raise NegativeArgument(f"n_cit must be >= 1, got {n_cit}")
    root = math.sqrt(n_cit)
    return RuleOfThumbSet(
        hirsch_band=(math.sqrt(n_cit / 5.0), math.sqrt(n_cit / 3.0)),
        durfee_mode=DURFEE_MODE_COEFF * root,
        van_raan=0.42 * n_cit**0.45,
        mahmoudi_ncit=0.600 * n_cit**0.476,
        radicchi_simple=n_cit**0.42,
        spruit=0.5 * (root + 1.0),
        redner=root / (2.0 * 1.045),
        mahmoudi_d1=(0.667 * d1_years**1.041) if d1_years is not None else None,
        radicchi_joint=(n_cit**0.41 * p**0.18) if p is not None else None,
        glanzel_schubert=(
            (n_cit / p) ** (lotka_a / (1.0 + lotka_a))
            if (p is not None and lotka_a is not None)
            else None
        ),
    )


def na_ratio_limit(d: int) -> float:
    """Limit of h_NA/h for arithmetic-progression profiles with difference d."""
    if d < 1:
        raise NegativeArgument(f"d must be >= 1, got {d}")
    return DURFEE_MODE_COEFF * (d + 1) / math.sqrt(2.0 * d)


def error_metrics(profile: CitationProfile, report: EstimateReport) -> ErrorMetrics:
    """All published error measures; needs the true total, so full profiles only."""
    if not profile.complete:
        raise GroundTruthUnavailable("error metrics need the full profile")
    n_cit = profile.n_cit
    if n_cit == 0:
        raise GroundTruthUnavailable("error metrics are undefined for an uncited profile")
    variants = interval_variants(compute_core_indices(profile))
    return ErrorMetrics(
        delta_1=(variants.i_mean - n_cit) / n_cit,
        delta_2=(variants.iq_mean - n_cit) / n_cit,
        delta_3=(variants.ir_mean - n_cit) / n_cit,
        delta_4=(variants.iq_prime_mean - n_cit) / n_cit,
        delta_d=(n_cit - report.j_d.midpoint) / n_cit,
        cap_delta_a=n_cit - report.a_est,
        cap_delta_b=n_cit - report.b_est,
        delta_a=(n_cit - report.a_est) / n_cit,
        delta_b=(n_cit - report.b_est) / n_cit,
    )


# Published h-index bands for uniform random partitions of N_cit, keyed by
# the N_cit grid they were tabulated on.  Shipped as a lookup, not recomputed.
YONG_H_INTERVALS: dict[int, tuple[int, int]] = {
    300: (7, 11),
    500: (9, 14),
    750: (11, 17),
    1000: (13, 20),
    1250: (15, 22),
    1500: (17, 24),
    2000: (20, 28),
    2500: (22, 31),
    3000: (25, 34),
    3500: (27, 36),
    4000: (29, 39),
    4500: (31, 41),
    5500: (35, 45),
    6000: (36, 47),
    6500: (37, 49),
    7000: (39, 51),
    7500: (40, 52),
    8000: (42, 54),
    10000: (47, 60),
}


def yong_interval(n_cit: int) -> Interval:
    """Tabulated h-index band for ``n_cit`` on the published grid."""
    lo, hi = YONG_H_INTERVALS[n_cit]
    return Interval(float(lo), float(hi))
