"""Slow, direct reference computations the benchmark checks citest against.

Nothing here imports citest.  Every quantity is recomputed from its
definition: h and g by prefix scans, each ladder row from its own suffix, the
defect depth by scanning k until the excess/index relation flips, the
intervals and estimators from the square-root-law formulas, p(n) from the
divisor-sum recurrence (not the pentagonal one), and Durfee histograms by
enumerating partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

# 1 / (sqrt(6) ln 2 / pi), the inverse of the Durfee-mode coefficient
INV_MODE = math.pi / (math.sqrt(6.0) * math.log(2.0))
MODE_COEFF = 0.5404446


def read_fixture(path: str) -> tuple[str, list[int]]:
    """A fixture CSV: '#' comments, a header with a 'citations' column."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("#")]
    header = lines[0].split(",")
    col = header.index("citations")
    name_col = header.index("name") if "name" in header else None
    rows = [ln.split(",") for ln in lines[1:]]
    values = [int(r[col]) for r in rows if r[col].strip()]
    name = rows[0][name_col] if name_col is not None else ""
    return name, sorted(values, reverse=True)


def h_index(desc: list[int], shift: int = 0) -> int:
    """Largest m with the m-th entry after ``shift`` at least m."""
    h = 0
    for m in range(1, len(desc) - shift + 1):
        if desc[shift + m - 1] >= m:
            h = m
        else:
            break
    return h


def g_index(desc: list[int]) -> int:
    g = 0
    for k, total in enumerate(accumulate(desc), start=1):
        if total >= k * k:
            g = k
    return g


@dataclass(frozen=True)
class Row:
    k: int
    h_k: int
    n_h_k: int
    n_cit_k: int  # -1 while scanning for the crossing
    e_k: float
    q_k: float

    @property
    def excess_sq(self) -> int:
        return self.n_h_k - self.h_k * self.h_k


def row(desc: list[int], k: int, with_total: bool = False) -> Row:
    """Ladder row k straight from the suffix desc[k:] (its total on request)."""
    h = h_index(desc, k)
    n_h = sum(desc[k : k + h])
    return Row(
        k=k, h_k=h, n_h_k=n_h, n_cit_k=sum(desc[k:]) if with_total else -1,
        e_k=math.sqrt(n_h - h * h), q_k=2.0 * n_h / (h * h) - 1.0,
    )


@dataclass(frozen=True)
class Estimate:
    h: int
    g: int
    n_cit: int
    d: int
    case: str
    rows: tuple[Row, ...]  # rows 0..d+1
    a: float
    b_prime: float | None  # the two bounds B averages; None where one interval decides
    b_dprime: float | None
    b: float
    info_rank: int  # highest rank the answer depends on, plus its certifying neighbour


def _interval(r: Row, head: int) -> tuple[float, float]:
    ratio = r.q_k / r.e_k
    base = INV_MODE * r.h_k
    return (base * (1.0 - ratio)) ** 2 + head, (base * (1.0 + ratio)) ** 2 + head


def _mix(j: tuple[float, float], w_hi: float) -> float:
    return (1.0 - w_hi) * j[0] + w_hi * j[1]


def _frac(x: float) -> float:
    return x - math.floor(x)


def estimate(desc: list[int]) -> Estimate | None:
    """The defect analysis and A/B estimates, or None for a degenerate profile.

    d is the first k whose row k+1 lies on the other side of e = h than row 0
    (ties stay on row 0's side); rows past the last cited rank never cross.
    """
    r0 = row(desc, 0) if desc and desc[0] >= 1 else None
    if r0 is None:
        return None
    h0 = r0.h_k
    above = r0.excess_sq >= h0 * h0
    k_last = min(h0, sum(1 for v in desc if v > 0) - 1)
    rows = [r0]
    d = None
    for k in range(1, k_last + 1):
        rk = row(desc, k)
        rows.append(rk)
        hsq = rk.h_k * rk.h_k
        if (rk.excess_sq < hsq) if above else (rk.excess_sq > hsq):
            d = k - 1
            break
    if d is None:
        d = 0
        if above:
            case = "case1a" if r0.excess_sq > (h0 + 1) ** 2 else "case1b"
        else:
            case = "case3a" if r0.excess_sq >= (h0 - 1) ** 2 else "case3b"
        scanned = k_last
    elif above:
        rd, rd1 = rows[d], rows[d + 1]
        first = "2a" if rd.excess_sq > (rd.h_k + 1) ** 2 else "2b"
        second = "2c" if (rd1.h_k - 1) ** 2 > rd1.excess_sq else "2d"
        case = f"case{first}_{second}"
        scanned = d + 1
    else:
        case = "case4"
        scanned = d + 1
    if len(rows) < d + 2:
        return None
    rd, rd1 = rows[d], rows[d + 1]
    if rd.e_k <= 0.0 or rd1.e_k <= 0.0:
        return None
    j_d = _interval(rd, sum(desc[:d]))
    j_d1 = _interval(rd1, sum(desc[: d + 1]))
    a = ((j_d[0] + j_d[1]) / 2.0 + (j_d1[0] + j_d1[1]) / 2.0) / 2.0
    b1 = b2 = None
    if case == "case1a":
        b1, b2 = j_d[1], j_d1[1]
    elif case == "case1b":
        b = _mix(j_d, _frac(rd.e_k))
    elif case == "case3a":
        b = _mix(j_d, 1.0 - _frac(rd.e_k))
    elif case == "case3b":
        b = _frac(rd.e_k) * j_d[1]
    elif case.startswith("case2"):
        b1 = j_d[1] if "2a" in case else _mix(j_d, _frac(rd.e_k))
        b2 = j_d1[0] if "2c" in case else _mix(j_d1, 1.0 - _frac(rd1.e_k))
    else:
        b1 = j_d[0] if (rd.h_k - 1) ** 2 > rd.excess_sq else _mix(j_d, 1.0 - _frac(rd.e_k))
        b2 = j_d1[1] if rd1.excess_sq > (rd1.h_k + 1) ** 2 else _mix(j_d1, _frac(rd1.e_k))
    if b1 is not None:
        b = (b1 + b2) / 2.0
    info = max(k + h_index(desc, k) + 1 for k in range(scanned + 1))
    return Estimate(
        h=h0, g=g_index(desc), n_cit=sum(desc), d=d, case=case,
        rows=tuple(row(desc, k, with_total=True) for k in range(d + 2)),
        a=a, b_prime=b1, b_dprime=b2, b=b, info_rank=min(info, len(desc)),
    )


def partition_counts(n_max: int) -> list[int]:
    """p(0..n_max) from n p(n) = sum_k sigma(k) p(n-k)."""
    sigma = [0] * (n_max + 1)
    for i in range(1, n_max + 1):
        for j in range(i, n_max + 1, i):
            sigma[j] += i
    p = [1]
    for n in range(1, n_max + 1):
        # sigma[1..n] against p[n-1..0]
        p.append(sum(map(mul, sigma[1 : n + 1], reversed(p))) // n)
    return p


def durfee_histogram(n: int) -> dict[int, int]:
    """Durfee-square sides over every partition of n, by enumeration."""
    hist: dict[int, int] = {}

    def walk(remaining: int, cap: int, parts: list[int]) -> None:
        if remaining == 0:
            side = 0
            for i, v in enumerate(parts, start=1):
                if v < i:
                    break
                side = i
            hist[side] = hist.get(side, 0) + 1
            return
        for part in range(min(cap, remaining), 0, -1):
            parts.append(part)
            walk(remaining - part, part, parts)
            parts.pop()

    walk(n, n, [])
    return hist


def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))
