"""The tests' one brute-force reference, each function written from its
definition on a non-increasing citation sequence.  It imports only ``math``
and ``itertools``, so it shares no code with the citest code it checks."""

import itertools
import math


def h(values):
    """h-index: the largest m with values[m-1] >= m."""
    return max((m for m in range(1, len(values) + 1) if values[m - 1] >= m), default=0)


def g(values):
    """g-index: the largest k <= p whose top k entries sum to at least k^2."""
    return max((k for k in range(1, len(values) + 1) if sum(values[:k]) >= k * k), default=0)


def row(values, k):
    """Ladder row k, (k, h_k, n_h_k, n_cit_k, e_k, q_k), from the suffix
    values[k:]; ``None`` when the suffix holds no cited entry."""
    suffix = values[k:]
    h_k = h(suffix)
    if h_k == 0:
        return None
    n_h = sum(suffix[:h_k])
    return (k, h_k, n_h, sum(suffix), math.sqrt(n_h - h_k * h_k), 2.0 * n_h / (h_k * h_k) - 1.0)


def defect(values):
    """(rows 0..d+1, d, case tag): the crossing row found by brute force over
    k <= h, the tag from the exact-integer inequalities."""
    h0 = h(values)
    hs = [h(values[k:]) for k in range(h0 + 1)]
    ex_sq = [sum(values[k:k + h_k]) - h_k * h_k for k, h_k in enumerate(hs)]
    above = ex_sq[0] >= h0 * h0
    d = None
    for k in range(1, h0 + 1):
        if (ex_sq[k] < hs[k] ** 2) if above else (ex_sq[k] > hs[k] ** 2):
            d = k - 1
            break
    if d is None:
        d = 0
        if above:
            tag = "case1a" if ex_sq[0] > (h0 + 1) ** 2 else "case1b"
        else:
            tag = "case3a" if ex_sq[0] >= (h0 - 1) ** 2 else "case3b"
    elif above:
        prime = "2a" if ex_sq[d] > (hs[d] + 1) ** 2 else "2b"
        second = "2c" if (hs[d + 1] - 1) ** 2 > ex_sq[d + 1] else "2d"
        tag = f"case{prime}_{second}"
    else:
        tag = "case4"
    rows = []
    for k in range(d + 2):
        r = row(values, k)
        if r is None:
            break  # a suffix with no cited entry has no ladder row
        rows.append(r)
    return rows, d, tag


# the square-root law's coefficient sqrt(6)*ln(2)/pi, from its definition
MODE_COEFF = math.sqrt(6) * math.log(2) / math.pi


def interval(h, e, q):
    """I = ((h*(1 - q/e)/c)^2, (h*(1 + q/e)/c)^2) for one ladder row."""
    x = q / e
    return ((h * (1 - x) / MODE_COEFF) ** 2, (h * (1 + x) / MODE_COEFF) ** 2)


def _at(band, t):
    """The point a fraction t of the way from a band's lower to its upper bound."""
    lo, hi = band
    return lo + t * (hi - lo)


def _frac(x):
    return x - math.floor(x)


def estimates(values):
    """``EstimateReport``'s fields by the paper's formulas, intervals as (lo, hi)
    pairs and the weights as a dict; ``None`` when rows d and d+1 do not both
    exist with e > 0, so an interval collapses."""
    rows, d, tag = defect(values)
    if len(rows) < d + 2 or rows[d][4] == 0 or rows[d + 1][4] == 0:
        return None
    (_, h0, nh0, _, e0, q0), (_, h1, nh1, _, e1, q1) = rows[d], rows[d + 1]
    head0, head1 = sum(values[:d]), sum(values[: d + 1])
    i0, i1 = interval(h0, e0, q0), interval(h1, e1, q1)
    j0 = (i0[0] + head0, i0[1] + head0)
    j1 = (i1[0] + head1, i1[1] + head1)
    # midpoint of I in closed form: h^2*(1 + (q/e)^2)/c^2
    a_prime = ((h0 / MODE_COEFF) ** 2 * (1 + (q0 / e0) ** 2)
               + (h1 / MODE_COEFF) ** 2 * (1 + (q1 / e1) ** 2)) / 2
    out = {
        "d": d, "case_tag": tag, "head_sum_d": head0, "head_sum_d1": head1,
        "i_d": i0, "i_d1": i1, "j_d": j0, "j_d1": j1,
        "a_prime": a_prime, "a_est": a_prime + (head0 + head1) / 2,
        "b_prime": None, "b_dprime": None,
    }
    w0, w1 = _frac(e0), _frac(e1)
    if tag == "case1a":
        # both upper bounds
        out["weights"] = {"alpha_d": 0.0, "beta_d": 1.0, "alpha_d1": 0.0, "beta_d1": 1.0}
        out["b_prime"], out["b_dprime"] = j0[1], j1[1]
    elif tag in ("case1b", "case3a"):
        # one interval; case 1b sits the fractional part of e_d up from the
        # lower bound, case 3a the same distance down from the upper bound
        out["weights"] = {"alpha_d": 1 - w0, "beta_d": w0}
        out["b_est"] = _at(j0, w0 if tag == "case1b" else 1 - w0)
    elif tag == "case3b":
        out["weights"] = {"beta_d": w0}
        out["b_est"] = w0 * j0[1]
    elif tag.startswith("case2"):
        # B' is the upper bound of J_d in 2a, else the point w0 up from its
        # lower bound; B'' is the lower bound of J_{d+1} in 2c, else the
        # point w1 down from its upper bound
        beta0 = 1.0 if "2a" in tag else w0
        beta1 = 0.0 if "2c" in tag else w1
        out["weights"] = {"alpha_d": 1 - beta0, "beta_d": beta0,
                          "alpha_d1": 1 - beta1, "beta_d1": beta1}
        out["b_prime"] = j0[1] if "2a" in tag else _at(j0, w0)
        out["b_dprime"] = j1[0] if "2c" in tag else _at(j1, 1 - w1)
    else:
        # case 4 mirrors case 2 on the excess e^2 = n_h - h^2: B' is the lower
        # bound of J_d when (h_d - 1)^2 > e_d^2, else the point w0 down from
        # its upper bound; B'' is the upper bound of J_{d+1} when
        # e_{d+1}^2 > (h_{d+1} + 1)^2, else the point w1 up from its lower bound
        low0 = (h0 - 1) ** 2 > nh0 - h0 * h0
        high1 = nh1 - h1 * h1 > (h1 + 1) ** 2
        alpha0 = 1.0 if low0 else w0
        alpha1 = 0.0 if high1 else w1
        out["weights"] = {"alpha_d": alpha0, "beta_d": 1 - alpha0,
                          "alpha_d1": alpha1, "beta_d1": 1 - alpha1}
        out["b_prime"] = j0[0] if low0 else _at(j0, 1 - w0)
        out["b_dprime"] = j1[1] if high1 else _at(j1, w1)
    if out["b_prime"] is not None:
        out["b_est"] = (out["b_prime"] + out["b_dprime"]) / 2
    return out


def prefix(values):
    """The fewest top ranks that certify the defect scan (h >= 1).  Certifying
    h_0 needs rank h_0+1 and the step from row k to row k+1 rank k+h_k+1.  The
    scan's last row, which needs no read, is the crossing row d+1 in cases 2
    and 4; otherwise row h_0, or row h_0-1 when rank h_0+1 is uncited or past
    the end."""
    _, d, tag = defect(values)
    h0 = h(values)
    if tag.startswith(("case2", "case4")):
        last = d + 1
    else:
        last = h0 if h0 < len(values) and values[h0] else h0 - 1
    return min(len(values), max(k + h(values[k:]) + 1 for k in range(max(last, 1))))


def completions(top, length):
    """Every non-increasing tail of at most ``length`` entries, each in 0..top,
    shortest first: every way a prefix whose last value is ``top`` can go on."""
    for size in range(length + 1):
        yield from itertools.combinations_with_replacement(range(top, -1, -1), size)


def partition_counts(n_max):
    """p(0..n_max) by Euler's pentagonal-number recurrence."""
    # generalized pentagonal offsets o = k(3k-1)/2 and o + k = k(3k+1)/2 up
    # to n_max: p(m - o) is added for odd k and subtracted for even k
    plus, minus = [], []
    k = 1
    while (o := k * (3 * k - 1) // 2) <= n_max:
        side = plus if k % 2 else minus
        side.append(o)
        if o + k <= n_max:
            side.append(o + k)
        k += 1
    p = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        p[m] = sum([p[m - o] for o in plus if o <= m]) - sum([p[m - o] for o in minus if o <= m])
    return p


def durfee_counts(n):
    """{d: partitions of n >= 1 with Durfee side d}.  Such a partition is a
    d x d square, a partition into parts <= d below it and one into at most d
    parts to its right; by conjugation both are counted as partitions into
    parts <= d, convolved over the n - d^2 cells left."""
    counts = {}
    d = 1
    while d * d <= n:
        m = n - d * d
        parts = [1] + [0] * m
        for part in range(1, d + 1):
            for i in range(part, m + 1):
                parts[i] += parts[i - part]
        counts[d] = sum(parts[i] * parts[m - i] for i in range(m + 1))
        d += 1
    return counts
