"""Steadiness check: every workload run repeatedly, each run with its own seed.

    python3 bench/steady.py --runs 10 --first-seed 1

Rounds alternate the order of the workloads (forward, then reversed).  For
each workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and their distance as a share of the median,
against the metric's bound from BENCHMARK.json; setup_s is shown but its
spread is not held to the bound.  It also prints each workload's share of
failed operations, which must be the same in every run.  All results go to
``bench/out/steady-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=names, choices=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--label", default="latest")
    args = parser.parse_args()

    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for r in range(args.runs):
        order = args.workloads if r % 2 == 0 else args.workloads[::-1]
        seed = args.first_seed + r
        for name in order:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [*spec["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, wall
            results[name].append(result)
            print(f"run {r + 1}/{args.runs} {name} seed {seed}: {wall:.1f} s, "
                  f"attempted {result['attempted']}, failed {result['failed']}, "
                  f"correct {result['correct']}", flush=True)

    steady = True
    print(f"\n{'workload':<16}{'metric':<13}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
    for name, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        steady = steady and len(shares) == 1 and correct
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            held = metric["name"] == "setup_s" or spread <= metric["bound"]
            steady = steady and held
            print(f"{name:<16}{metric['name']:<13}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.3f}{metric['bound']:>7.2f}{'' if held else '  OVER'}")
        print(f"{name:<16}failed share {sorted(shares)}, correct {correct}, "
              f"wall {statistics.median(r['wall_s'] for r in runs):.1f} s per run")
    out = Path("bench/out") / f"steady-{args.label}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"\nsteady: {steady}; runs in {out}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
