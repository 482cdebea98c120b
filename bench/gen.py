"""Seeded inputs for the four workloads.

Everything here depends only on the seed and on the bundled fixtures; the
expected answers come from ``oracle``.  Run ``python3 bench/gen.py --seed N``
to print a summary of what a seed generates.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import oracle

FIXTURES = Path("tests/fixtures")

# profiles_long: one narrow size band, equal fixed shares of the three formats
LONG_FORMATS = ("csv", "json", "lines")
LONG_PER_FORMAT = 4
LONG_SIZE = (48_000, 52_000)

# profiles_blind: the fixtures plus this many fixture-sized synthetic profiles,
# each probed at this many certifying prefixes and this many short ones
BLIND_SYNTHETIC = 100
BLIND_CERTIFYING = 3
BLIND_SHORT = 1

# durfee_exact: distinct n per cycle, drawn from a band under the default ceiling
DURFEE_BAND = (4600, 5000)
DURFEE_PER_CYCLE = 8

CLI_TABLES = ("1", "2", "5", "8")
CLI_KINDS = ("estimate", "estimate_blind", "estimate_ladder", "indices", "table", "error")


@dataclass
class Profile:
    name: str
    desc: list[int]  # non-increasing
    expect: oracle.Estimate


def fixture_profiles() -> list[Profile]:
    out = []
    for path in sorted(FIXTURES.glob("*.csv")):
        name, desc = oracle.read_fixture(str(path))
        out.append(Profile(path.stem, desc, oracle.estimate(desc)))
    return out


def _heavy_tail(rng: random.Random, p: int, alpha: float, scale: float) -> list[int]:
    """Pareto(alpha) draws, one from each of p equal slices of probability, so
    the bulk of the profile (and with it h) varies little with the seed."""
    return [int(scale * ((1.0 - (i + rng.random()) / p) ** (-1.0 / alpha) - 1.0)) for i in range(p)]


def _synthetic(rng: random.Random, name: str, p_range: tuple[int, int],
               alpha: tuple[float, float], scale: tuple[float, float]) -> tuple[list[int], Profile]:
    """A shuffled heavy-tailed profile that the estimators accept."""
    while True:
        p = rng.randint(*p_range)
        raw = _heavy_tail(rng, p, rng.uniform(*alpha), rng.uniform(*scale))
        desc = sorted(raw, reverse=True)
        expect = oracle.estimate(desc)
        if expect is not None and expect.h >= 2:
            rng.shuffle(raw)
            return raw, Profile(name, desc, expect)


# ------------------------------------------------------------- cli_mix

@dataclass
class CliOp:
    kind: str  # one of CLI_KINDS
    argv: list[str]
    profile: Profile | None = None
    blind: int | None = None
    style: str = "plain"
    table: str | None = None
    exit_code: int = 0  # documented exit code
    fault: bool = False  # exits 1 with a traceback today


def cli_error_inputs(work: Path) -> dict[str, Path]:
    """Files the error commands read; fixed, whatever the seed."""
    work.mkdir(parents=True, exist_ok=True)
    files = {
        "unparsable": work / "unparsable.txt",
        "uncited": work / "uncited.txt",
        "not_utf8": work / "not_utf8.txt",
        "a_directory": work / "a_directory",
        "no_fixtures": work / "no_fixtures",
    }
    files["unparsable"].write_text("12\nseven\n3\n", encoding="utf-8")
    files["uncited"].write_text("0\n0\n0\n", encoding="utf-8")
    files["not_utf8"].write_bytes(b"12\n\xff\xfe\n3\n")
    files["a_directory"].mkdir(exist_ok=True)
    files["no_fixtures"].mkdir(exist_ok=True)
    return files


def cli_cycle(seed: int, work: Path) -> list[CliOp]:
    """Every fixture under every estimate/indices form, the four tables, and
    one command per documented error exit plus the two known faults."""
    rng = random.Random(f"cli_mix/{seed}")
    ops: list[CliOp] = []
    for prof in fixture_profiles():
        path = str(FIXTURES / f"{prof.name}.csv")
        # a certifying prefix that is still short of the whole profile
        k = rng.randint(prof.expect.info_rank, min(len(prof.desc) - 1, 2 * prof.expect.info_rank))
        ops += [
            CliOp("estimate", ["estimate", path], prof),
            CliOp("estimate", ["estimate", path, "--json"], prof, style="json"),
            CliOp("estimate_ladder", ["estimate", path, "--ladder"], prof),
            CliOp("indices", ["indices", path], prof),
            CliOp("estimate_blind", ["estimate", path, "--blind", str(k)], prof, blind=k),
        ]
    for t in CLI_TABLES:
        ops.append(CliOp("table", ["table", t, "--fixtures", str(FIXTURES), "--diff"], table=t))
    bad = cli_error_inputs(work)
    garfield = str(FIXTURES / "garfield.csv")
    ops += [
        CliOp("error", ["estimate", str(bad["unparsable"])], exit_code=2),
        CliOp("error", ["estimate", str(bad["uncited"])], exit_code=3),
        CliOp("error", ["estimate", garfield, "--blind", "10"], exit_code=4),
        CliOp("error", ["partition", "count", "6000"], exit_code=5),
        CliOp("error", ["table", "2", "--fixtures", str(bad["no_fixtures"])], exit_code=6),
        # known faults: both exit 1 with a traceback instead of the parse exit
        CliOp("error", ["estimate", str(bad["not_utf8"])], exit_code=2, fault=True),
        CliOp("error", ["estimate", str(bad["a_directory"])], exit_code=2, fault=True),
    ]
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------- profiles_long

@dataclass
class LongOp:
    fmt: str
    text: str
    profile: Profile


def _render(fmt: str, name: str, raw: list[int]) -> str:
    if fmt == "csv":
        rows = [f"{name},other,2023-01-01,{raw[0]}"] + [f",,,{v}" for v in raw[1:]]
        return "# synthetic heavy-tailed profile\nname,source,date,citations\n" + "\n".join(rows) + "\n"
    if fmt == "json":
        return json.dumps({"name": name, "source": "other", "date": "2023-01-01", "citations": raw})
    return "\n".join(map(str, raw)) + "\n"


def long_cycle(seed: int) -> list[LongOp]:
    rng = random.Random(f"profiles_long/{seed}")
    ops = []
    # every format gets the same grid of sizes and tail exponents
    lo, hi = LONG_SIZE
    step = (hi - lo) / LONG_PER_FORMAT
    for fmt in LONG_FORMATS:
        for i in range(LONG_PER_FORMAT):
            name = f"long-{fmt}-{i}"
            size = (round(lo + i * step), round(lo + (i + 1) * step))
            alpha = 1.25 + 0.35 * (i + 0.5) / LONG_PER_FORMAT
            raw, prof = _synthetic(rng, name, size, (alpha, alpha), (5.0, 5.0))
            ops.append(LongOp(fmt, _render(fmt, name, raw), prof))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------- profiles_blind

@dataclass
class BlindOp:
    profile: Profile
    k: int
    certifying: bool  # drawn at or past the oracle's information rank


def blind_profiles(seed: int) -> list[Profile]:
    rng = random.Random(f"profiles_blind/{seed}")
    out = fixture_profiles()
    # fixture-sized: 40..3000 entries.  The shape parameters sit on a fixed
    # grid (log-spaced sizes, tail exponents and scales paired by a fixed
    # permutation); the seed draws the values.  The mix of cheap and costly
    # profiles, which sets the latency percentiles, then stays put.
    n = BLIND_SYNTHETIC
    grid = random.Random("profiles_blind/grid")
    alphas = [1.1 + 0.9 * (j + 0.5) / n for j in range(n)]
    scales = [2.0 + 18.0 * (j + 0.5) / n for j in range(n)]
    grid.shuffle(alphas)
    grid.shuffle(scales)
    for i in range(n):
        p = round(40 * (3000 / 40) ** ((i + 0.5) / n))
        _, prof = _synthetic(rng, f"blind-{i}", (p, p), (alphas[i],) * 2, (scales[i],) * 2)
        out.append(prof)
    return out


def blind_cycle(seed: int, profiles: list[Profile]) -> list[BlindOp]:
    rng = random.Random(f"profiles_blind/cycle/{seed}")
    ops = []
    for prof in profiles:
        e = prof.expect
        p = len(prof.desc)
        for _ in range(BLIND_CERTIFYING):
            ops.append(BlindOp(prof, rng.randint(e.info_rank, min(p, 2 * e.info_rank)), True))
        # short of the last entry of row d+1's core window
        window_end = e.d + 1 + e.rows[e.d + 1].h_k
        for _ in range(BLIND_SHORT):
            ops.append(BlindOp(prof, rng.randint(max(1, window_end // 2), window_end - 1), False))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------- durfee_exact

def durfee_cycle(seed: int) -> list[int]:
    """One n from each of DURFEE_PER_CYCLE equal slices of the band."""
    rng = random.Random(f"durfee_exact/{seed}")
    lo, hi = DURFEE_BAND
    width = (hi - lo) / DURFEE_PER_CYCLE
    ns = [rng.randint(math.ceil(lo + i * width), math.floor(lo + (i + 1) * width))
          for i in range(DURFEE_PER_CYCLE)]
    rng.shuffle(ns)
    return ns


def main() -> None:
    parser = argparse.ArgumentParser(description="print what a seed generates")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    cli = cli_cycle(args.seed, Path("bench/out/work"))
    print(f"cli_mix: {len(cli)} commands per cycle")
    long = long_cycle(args.seed)
    for op in long:
        e = op.profile.expect
        print(f"profiles_long: {op.profile.name} p={len(op.profile.desc)} bytes={len(op.text)}"
              f" h={e.h} d={e.d} {e.case}")
    profs = blind_profiles(args.seed)
    ops = blind_cycle(args.seed, profs)
    print(f"profiles_blind: {len(profs)} profiles, {len(ops)} prefixes per cycle")
    print(f"durfee_exact: n = {sorted(durfee_cycle(args.seed))}")


if __name__ == "__main__":
    main()
