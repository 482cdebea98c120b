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
from .errors import DegenerateCore, GroundTruthUnavailable, WrongCase, at_least, quoted
from .indices import CoreIndices
from .profile import CitationProfile
from .shifted import DefectAnalysis, ShiftedRow, h_defect


class Interval(namedtuple("Interval", "lo hi")):
    """A closed interval [lo, hi]: I and J bound N_cit, ``brown_interval`` bounds h."""

    __slots__ = ()

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    def __contains__(self, value: float) -> bool:
        return self.lo <= value <= self.hi


def h_na(n_cit: int | float) -> float:
    """Normal approximation of the h-index: 0.5404446394667307 * sqrt(N_cit)."""
    at_least("n_cit", n_cit, 0)
    return DURFEE_MODE_COEFF * math.sqrt(n_cit)


def _scaled_interval(center: float, ratio: float) -> Interval:
    base = INV_COEFF * center
    return tuple.__new__(Interval, ((base * (1.0 - ratio)) ** 2, (base * (1.0 + ratio)) ** 2))


def interval_I(h_val: int, q_val: float, e_val: float) -> Interval:
    """The inverted square-root-law interval around a (h, q, e) triple."""
    if e_val <= 0.0:
        raise DegenerateCore("e = 0: every core entry equals h, the interval collapses")
    return _scaled_interval(h_val, q_val / e_val)


def interval_J(profile: CitationProfile, row: ShiftedRow) -> Interval:
    """I_k of ladder row k translated by the head sum cit_1 + ... + cit_k."""
    lo, hi = interval_I(row.h_k, row.q_k, row.e_k)
    head = sum(profile.citations[: row.k])
    return Interval(lo + head, hi + head)


def _scaled_mean(center: float, ratio: float) -> float:
    # closed form of the interval midpoint: ((1-x)^2 + (1+x)^2)/2 = 1 + x^2
    return INV_COEFF_SQ * (1.0 + ratio * ratio) * center * center


IntervalVariants = namedtuple(
    "IntervalVariants", "i i_mean iq iq_mean ir ir_mean iq_prime iq_prime_mean"
)
IntervalVariants.__doc__ = """The base interval I plus the inflated-center variants
I(q), I(r), I(q')."""


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


CaseWeights = namedtuple("CaseWeights", "alpha_d beta_d alpha_d1 beta_d1", defaults=(None,) * 4)
CaseWeights.__doc__ = """Convex weights attached to the interval bounds, per case."""

EstimateReport = namedtuple(
    "EstimateReport",
    "d case_tag i_d i_d1 j_d j_d1 a_prime a_est weights"
    " b_prime b_dprime b_est head_sum_d head_sum_d1 ranks_consumed",
)
EstimateReport.__doc__ = """Every quantity the estimation pipeline produces for one profile: I and J
at ladder rows d and d+1 (an interval's mean is its ``midpoint``), A', A,
and B', B'', B with the case weights (B'/B'' are None in cases 1b, 3a, 3b).
A rank prefix that certifies the estimate gives a report equal to the full
profile's, ``ranks_consumed`` included."""

ErrorMetrics = namedtuple("ErrorMetrics", "cap_delta_a cap_delta_b delta_a delta_b")
ErrorMetrics.__doc__ = """Absolute and relative errors of A and B against the known total N_cit,
signed N_cit - estimate, as the source tables print them."""


def _weighted(band: Interval, weight_hi: float) -> float:
    return (1.0 - weight_hi) * band.lo + weight_hi * band.hi


# case 2's sub-tags: whether B' takes J_d's upper bound (2a), B'' J_{d+1}'s lower (2c)
_CASE2_HARD = {"case2a_2c": (True, True), "case2a_2d": (True, False),
               "case2b_2c": (False, True), "case2b_2d": (False, False)}


def _estimate_B(
    tag: str, row_d: ShiftedRow, row_d1: ShiftedRow, j_d: Interval, j_d1: Interval
) -> tuple[float | None, float | None, float, CaseWeights]:
    # B is a point in J_d alone (cases 1b, 3a, 3b) or the mean of B' in J_d and
    # B'' in J_{d+1}.  Each point weights its interval's upper bound, so a hard
    # bound is the weight 1.0 (upper) or 0.0 (lower): 0.0*lo + 1.0*hi == hi and
    # 1.0*lo + 0.0*hi == lo exactly.  CaseWeights keeps the paper's labels,
    # which in 3a, 2d and row d+1 of case 4 are not the upper bound's weight.
    f_d = _frac(row_d.e_k)
    if tag == "case1b" or tag == "case3a":
        # in 3a the fractional weight lands on the lower bound
        b_est = _weighted(j_d, f_d if tag == "case1b" else 1.0 - f_d)
        return None, None, b_est, CaseWeights(alpha_d=1.0 - f_d, beta_d=f_d)
    if tag == "case3b":
        return None, None, f_d * j_d.hi, CaseWeights(beta_d=f_d)

    if tag == "case1a":
        # both upper bounds (d = 0, so J_0 = I_0)
        w_d = w_d1 = 1.0
        weights = CaseWeights(alpha_d=0.0, beta_d=1.0, alpha_d1=0.0, beta_d1=1.0)
    elif tag == "case4":
        # mirror of case 2 with the weight roles swapped.  Case 2's hard bounds
        # would mirror to (h_d-1)^2 > ex_d and ex_{d+1} > (h_{d+1}+1)^2, with
        # ex_k = e_k^2, but no profile meets either.  Proof, a_1 >= ... >= a_h
        # being row d's core (h = h_d) and b_i = a_i - h:
        # - a stay gives ex_{d+1} = ex_d - b_1 <= ex_d, no crossing, so row d+1
        #   follows a drop of a_1: h_{d+1} = h - 1, ex_{d+1} = sum_{i>=2} b_i + h - 1.
        # - ex_{d+1} > (h-1)^2 puts the mean of b_2..b_h above h - 2, so
        #   b_1 >= h - 1 and ex_d = b_1 + ex_{d+1} - (h-1) >= ex_{d+1} > (h-1)^2.
        # - row d did not cross: ex_{d+1} <= ex_d <= h^2 = (h_{d+1}+1)^2.
        f_d1 = _frac(row_d1.e_k)
        w_d, w_d1 = 1.0 - f_d, f_d1
        weights = CaseWeights(alpha_d=f_d, beta_d=1.0 - f_d, alpha_d1=f_d1, beta_d1=1.0 - f_d1)
    elif tag in _CASE2_HARD:
        hard_d, hard_d1 = _CASE2_HARD[tag]
        beta_d = w_d = 1.0 if hard_d else f_d
        beta_d1 = 0.0 if hard_d1 else _frac(row_d1.e_k)
        w_d1 = 0.0 if hard_d1 else 1.0 - beta_d1
        weights = CaseWeights(
            alpha_d=1.0 - beta_d, beta_d=beta_d, alpha_d1=1.0 - beta_d1, beta_d1=beta_d1
        )
    else:
        raise WrongCase(f"unrecognized case tag {quoted(tag)}")
    b_prime, b_dprime = _weighted(j_d, w_d), _weighted(j_d1, w_d1)
    return b_prime, b_dprime, (b_prime + b_dprime) / 2.0, weights


def estimate_report(
    profile: CitationProfile, defect: DefectAnalysis | None = None
) -> EstimateReport:
    """The estimation pipeline for one profile; ``defect`` must be ``h_defect(profile)``."""
    if defect is None:
        defect = h_defect(profile)
    row_d, row_d1 = defect.row_d, defect.row_d1
    d, tag, new = defect.d, defect.case_tag, tuple.__new__
    lo_d, hi_d = i_d = interval_I(row_d.h_k, row_d.q_k, row_d.e_k)
    lo_d1, hi_d1 = i_d1 = interval_I(row_d1.h_k, row_d1.q_k, row_d1.e_k)
    head_d = sum(profile.citations[:d])
    head_d1 = head_d + profile.citations[d]
    j_d = new(Interval, (lo_d + head_d, hi_d + head_d))
    j_d1 = new(Interval, (lo_d1 + head_d1, hi_d1 + head_d1))
    # each midpoint taken as Interval.midpoint takes it: (lo + hi) / 2.0
    a_prime = ((lo_d + hi_d) / 2.0 + (lo_d1 + hi_d1) / 2.0) / 2.0
    a_est = ((j_d.lo + j_d.hi) / 2.0 + (j_d1.lo + j_d1.hi) / 2.0) / 2.0
    b_prime, b_dprime, b_est, weights = _estimate_B(tag, row_d, row_d1, j_d, j_d1)
    return new(EstimateReport, (
        d, tag, i_d, i_d1, j_d, j_d1, a_prime, a_est, weights,
        b_prime, b_dprime, b_est, head_d, head_d1, defect.ranks_consumed,
    ))


def brown_interval(n_cit: int | float) -> Interval:
    """Empirical 95% band for h given N_cit: 0.54*sqrt(N) +/- 1.96*(0.57 + 0.045*sqrt(N))."""
    at_least("n_cit", n_cit, 0)
    root = math.sqrt(n_cit)
    center = 0.54 * root
    half = 1.96 * (0.57 + 0.045 * root)
    return Interval(center - half, center + half)


def error_metrics(profile: CitationProfile, report: EstimateReport) -> ErrorMetrics:
    """The A/B errors; needs the true total, so full profiles only.

    ``report`` must be ``estimate_report(profile)``.
    """
    if not profile.complete:
        raise GroundTruthUnavailable("error metrics need the full profile")
    n_cit = profile.n_cit
    return ErrorMetrics(
        cap_delta_a=n_cit - report.a_est,
        cap_delta_b=n_cit - report.b_est,
        delta_a=(n_cit - report.a_est) / n_cit,
        delta_b=(n_cit - report.b_est) / n_cit,
    )
