"""citest benchmark: four closed-loop workloads, one caller at a time.

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Run it from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
A record with the raw figures goes to ``bench/out/records/``, and a traced
run writes its spans to ``bench/out/traces/``.

Every time is reported at reference host speed: a fixed stdlib-only loop
(``reference_loop``) is timed between operations, and each operation's time
is multiplied by the loop's nominal time over the time measured around it,
so that drift in the host's speed cancels out.  Where the operations are
processes, the loop runs in a fresh ``python -S`` process, so that the
reference also follows the cost of starting one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import inspect
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import oracle  # noqa: E402
import spans as tracing  # noqa: E402

WORKLOADS = ("cli_mix", "profiles_long", "profiles_blind", "durfee_exact")
OUT = Path("bench/out")

# Median times of reference_loop() on the reference host (see README): in
# process, and in a fresh `python -S` process including its start.
REF_NOMINAL_S = 0.0021
REF_CHILD_NOMINAL_S = 0.014
REF_ITERS = 3000

SETUP_REPEATS = 5  # set-up is measured in this many fresh child processes
CHILD_REPEATS = 7  # interpreter-start and import probes of the traced run
MIN_OPS = 100  # p90 needs ten samples beyond it
CHILD_TIMEOUT_S = 120
PROBE_CYCLES = 3  # traced run: cycles of each other workload, for its layers' metrics

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_mem_mb": "MB",
}


def reference_loop() -> int:
    """Fixed pure-Python work, no citest code: small integers, a dict and
    strings, then prefix sums that grow integers past one machine word."""
    acc = 0
    counts: dict[int, int] = {}
    words = []
    for i in range(REF_ITERS):
        v = (i * 2654435761) & 0xFFFFF
        acc += v % 97
        counts[v & 63] = counts.get(v & 63, 0) + 1
        if i % 8 == 0:
            words.append(str(v))
    words.sort()
    seq = [1] * REF_ITERS
    for stride in (1, 2, 3):
        for i in range(stride, REF_ITERS):
            seq[i] += seq[i - stride]
    return acc + len(counts) + len(",".join(words)) + seq[-1] % 1000


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


REF_CHILD_CODE = f"REF_ITERS = {REF_ITERS}\n{inspect.getsource(reference_loop)}\nreference_loop()\n"


def time_child_reference() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", REF_CHILD_CODE], capture_output=True,
                   env=child_env(), timeout=CHILD_TIMEOUT_S, check=True)
    return time.perf_counter() - t0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("CITEST_MAX_N", None)
    return env


def run_child(argv: list[str], stdin: str = "") -> tuple[subprocess.CompletedProcess, float, float]:
    """One child process, bracketed by reference timings; returns (result, wall s, scale)."""
    before = time_child_reference()
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv, input=stdin.encode("utf-8"), capture_output=True, env=child_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    after = time_child_reference()
    return proc, wall, REF_CHILD_NOMINAL_S / ((before + after) / 2.0)


def deciles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=10, method="inclusive")


# ------------------------------------------------------------- set-up children

SETUP_CHILD = r"""
import sys, time
spec = sys.stdin.read().split("\n")
files = [line[2:] for line in spec if line.startswith("F ")]
lists = [[int(v) for v in line[2:].split()] for line in spec if line.startswith("S ")]
t0 = time.perf_counter()
import citest
if spec[0] == "cli":
    import citest.cli
for path in files:
    with open(path, encoding="utf-8") as fh:
        citest.load_profile(fh, "csv")
for raw in lists:
    citest.normalize(raw)
t1 = time.perf_counter()
if spec[0].startswith("partition "):
    citest.partition_count(int(spec[0].split()[1]))
t2 = time.perf_counter()
print(t2 - t0, t2 - t1)
"""


def measure_setup(spec: str) -> tuple[list[float], list[float], list[float]]:
    """Set-up in fresh children: scaled totals, scaled cold partition_count, raw totals."""
    totals, partition, raw = [], [], []
    for _ in range(SETUP_REPEATS):
        proc, _, scale = run_child([sys.executable, "-S", "-c", SETUP_CHILD], spec)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.decode(errors='replace')}")
        total, cold = (float(v) for v in proc.stdout.split())
        totals.append(total * scale)
        partition.append(cold * scale)
        raw.append(total)
    return totals, partition, raw


# ------------------------------------------------------------- workloads

class Workload:
    """One closed-loop workload: a fixed cycle of operations made from the seed."""

    name = ""
    group = 1  # operations between reference timings
    in_process = True  # False: each operation is a child process

    def __init__(self, seed: int):
        self.seed = seed
        self.cycle: list = []
        self.problems: list[str] = []  # wrong answers found while preparing the inputs

    def setup_spec(self) -> str:
        """What a set-up child loads besides ``import citest``."""
        return "import"

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> str:
        """'ok', 'failed' or a description of a wrong output."""
        raise NotImplementedError

    def tag(self, op) -> str:
        return ""

    def after_op(self, op) -> None:
        """Extra untimed work after each operation of a traced run."""

    def memory_ops(self) -> list:
        return self.cycle[:1]

    def peak_mem_mb(self) -> float:
        peak = 0
        for op in self.memory_ops():
            gc.collect()
            tracemalloc.start()
            try:
                self.run(op)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak / 1e6

    def layer_metrics(self, tracer: tracing.Tracer, loop: "LoopResult", setup) -> dict:
        return {}


def _plain_rows(text: str) -> dict[str, str]:
    rows = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        rows[key] = value.strip()
    return rows


def _same_estimate(d, case, a, b, expect: oracle.Estimate, rel: float) -> bool:
    return (int(d) == expect.d and case == expect.case
            and oracle.close(float(a), expect.a, rel) and oracle.close(float(b), expect.b, rel))


class CliMix(Workload):
    """One `python -S -m citest.cli ...` process per operation."""

    name = "cli_mix"
    in_process = False
    PLAIN_REL = 2e-5  # six significant digits
    JSON_REL = 1e-9  # ten decimal places

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cycle = gen.cli_cycle(seed, OUT / "work")
        self.stdout_bytes: dict[str, list[int]] = {}

    def setup_spec(self) -> str:
        return "cli"

    def tag(self, op) -> str:
        return op.kind

    def run(self, op):
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "citest.cli", *op.argv],
            capture_output=True, env=child_env(), timeout=CHILD_TIMEOUT_S,
        )
        return proc

    def check(self, op, proc) -> str:
        self.stdout_bytes.setdefault(op.kind, []).append(len(proc.stdout))
        out = proc.stdout.decode("utf-8", errors="replace")
        err = proc.stderr.decode("utf-8", errors="replace")
        if proc.returncode != op.exit_code or "Traceback" in err:
            return "failed"
        if op.kind == "error":
            return "ok" if err.startswith("citest: ") else f"unexpected message {err[:80]!r}"
        if op.kind == "table":
            return self._check_table(op, out)
        e = op.profile.expect
        if op.kind == "estimate_ladder":
            return self._check_ladder(out, e)
        if op.style == "json":
            row = json.loads(out)
            good = _same_estimate(row["d"], row["case"], row["a"], row["b"], e, self.JSON_REL)
        else:
            row = _plain_rows(out)
            if op.kind == "indices":
                good = (int(row["h"]) == e.h and int(row["g"]) == e.g and int(row["n_cit"]) == e.n_cit
                        and int(row["n_cit_h"]) == e.rows[0].n_h_k
                        and oracle.close(float(row["e_index"]), e.rows[0].e_k, self.PLAIN_REL))
            else:
                good = _same_estimate(row["d"], row["case"], row["a"], row["b"], e, self.PLAIN_REL)
                if op.kind == "estimate_blind":
                    good = good and int(row["ranks_consumed"]) <= op.blind
        return "ok" if good else f"{op.argv} disagrees with the oracle"

    def _check_ladder(self, out: str, e: oracle.Estimate) -> str:
        lines = out.strip().splitlines()
        if lines[0] != "k,h_k,n_h_k,n_cit_k,e_k,q_k" or len(lines) != len(e.rows) + 1:
            return "ladder has the wrong header or row count"
        for line, r in zip(lines[1:], e.rows):
            k, h, n_h, n_cit, e_k, q_k = line.split(",")
            if ((int(k), int(h), int(n_h), int(n_cit)) != (r.k, r.h_k, r.n_h_k, r.n_cit_k)
                    or not oracle.close(float(e_k), r.e_k, self.PLAIN_REL)
                    or not oracle.close(float(q_k), r.q_k, self.PLAIN_REL)):
                return f"ladder row {k} disagrees with the oracle"
        return "ok"

    def _check_table(self, op, out: str) -> str:
        table, _, diff = out.partition("\n# diff against published values\n")
        if not diff or len(table.splitlines()) < 2:
            return f"table {op.table} printed no table or no diff"
        verdicts = [line.rsplit(",", 1)[1] for line in diff.splitlines()[1:]
                    if line and not line.startswith("#")]
        if op.table != "8" and not verdicts:
            return f"table {op.table} diff has no rows"
        if any(v != "OK" for v in verdicts):
            return f"table {op.table} diff has rows that are not OK"
        return "ok"

    def memory_ops(self) -> list:
        """One command of each kind and each table; not the two known faults."""
        seen, ops = set(), []
        for op in self.cycle:
            key = op.table or op.kind
            if key not in seen and not op.fault:
                seen.add(key)
                ops.append(op)
        return ops

    def peak_mem_mb(self) -> float:
        # tracemalloc over import + main() in one fresh process, per command
        code = (
            "import sys, io, contextlib, tracemalloc\n"
            "cmds = [l.split('\\t') for l in sys.stdin.read().split('\\n') if l]\n"
            "tracemalloc.start()\n"
            "import citest.cli\n"
            "peak = 0\n"
            "for argv in cmds:\n"
            "    tracemalloc.reset_peak()\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "        citest.cli.main(argv)\n"
            "    peak = max(peak, tracemalloc.get_traced_memory()[1])\n"
            "print(peak)\n"
        )
        cmds = [op.argv for op in self.memory_ops()]
        proc, _, _ = run_child([sys.executable, "-S", "-c", code], "\n".join("\t".join(a) for a in cmds))
        if proc.returncode != 0:
            raise RuntimeError(f"memory child failed: {proc.stderr.decode(errors='replace')}")
        return int(proc.stdout) / 1e6

    def after_op(self, op) -> None:
        """Traced runs also call cli.main in process, so its spans can be recorded."""
        import citest.cli

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                citest.cli.main(op.argv)
            except (UnicodeDecodeError, IsADirectoryError):
                pass  # the two known faults

    def layer_metrics(self, tracer, loop, setup) -> dict:
        m = cli_import_metrics(setup[0] if setup else None)
        scale = loop.median_scale
        for kind in gen.CLI_KINDS:
            spans = tracer.durations.get(f"cli.main[{kind}]", [])
            m[f"cli.main_ms.{kind}"] = statistics.median(spans) / 1e6 * scale if spans else None
            sizes = self.stdout_bytes.get(kind, [])
            m[f"cli.stdout_bytes.{kind}"] = statistics.median(sizes) if sizes else None
        return m


CITEST_MODULES = (
    "citest", "citest.cli", "citest.constants", "citest.errors", "citest.estimators",
    "citest.indices", "citest.partitions", "citest.profile", "citest.refdata", "citest.shifted",
)


def cli_import_metrics(setup_import_s: list[float] | None) -> dict:
    """Interpreter start, import time and per-module import self time, from children."""
    starts, selfs, stdlib = [], {}, []
    for _ in range(CHILD_REPEATS):
        proc, wall, scale = run_child([sys.executable, "-S", "-c", "pass"])
        starts.append(wall * scale)
    if setup_import_s is None:
        setup_import_s, _, _ = measure_setup("cli")
    code = "import sys; sys.stderr.write('MARK\\n'); import citest.cli"
    for _ in range(CHILD_REPEATS):
        proc, _, scale = run_child([sys.executable, "-S", "-X", "importtime", "-c", code])
        lines = proc.stderr.decode().split("MARK\n", 1)[1].splitlines()
        other = 0.0
        for line in lines:
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            own, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if name.startswith("citest"):
                selfs.setdefault(name, []).append(int(own) / 1e3 * scale)
            else:
                other += int(own) / 1e3 * scale
        stdlib.append(other)
    m = {
        "cli.interp_start_ms": statistics.median(starts) * 1e3,
        "cli.import_ms": statistics.median(setup_import_s) * 1e3,
        "cli.import_stdlib_ms": statistics.median(stdlib),
    }
    for name in CITEST_MODULES:
        values = selfs.get(name)
        m[f"cli.import_self_ms.{name.split('.')[-1]}"] = statistics.median(values) if values else None
    return m


class ProfilesLong(Workload):
    """Parse a long profile from text, then the whole estimation pipeline."""

    name = "profiles_long"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cycle = gen.long_cycle(seed)

    def tag(self, op) -> str:
        return op.fmt

    def run(self, op):
        import citest

        profile = citest.profile.load_profile(io.StringIO(op.text), op.fmt)
        indices = citest.indices.compute_core_indices(profile)
        defect = citest.shifted.h_defect(profile)
        report = citest.estimators.estimate_report(profile, defect)
        errors = citest.estimators.error_metrics(profile, report)
        return profile, indices, report, errors

    def check(self, op, out) -> str:
        profile, indices, report, errors = out
        e = op.profile.expect
        good = (indices.h == e.h and indices.g == e.g and profile.n_cit == e.n_cit
                and _same_estimate(report.d, report.case_tag, report.a_est, report.b_est, e, 1e-9)
                and errors.cap_delta_b == profile.n_cit - report.b_est)
        return "ok" if good else f"{op.profile.name} disagrees with the oracle"

    def memory_ops(self) -> list:
        """The longest profile of each format."""
        longest = {}
        for op in self.cycle:
            if op.fmt not in longest or len(op.profile.desc) > len(longest[op.fmt].profile.desc):
                longest[op.fmt] = op
        return list(longest.values())

    def layer_metrics(self, tracer, loop, setup) -> dict:
        scale = loop.median_scale
        m = {}
        for fmt in gen.LONG_FORMATS:
            spans = tracer.durations.get(f"profile.load_profile[{fmt}]", [])
            m[f"profile.load_ms.{fmt}"] = statistics.median(spans) / 1e6 * scale if spans else None
        ops = max(1, loop.attempted)
        m["profile.entries_loaded"] = sum(len(op.profile.desc) for op in loop.ops_run) / ops
        m["profile.bytes_loaded"] = sum(len(op.text) for op in loop.ops_run) / ops
        spans = tracer.durations.get("indices.compute_core_indices", [])
        m["indices.compute_core_indices_ms"] = statistics.median(spans) / 1e6 * scale
        m["indices.calls_per_op"] = len(spans) / ops
        own = tracer.self_ns.get("estimators.error_metrics", [])
        m["estimators.error_metrics_self_ms"] = statistics.median(own) / 1e6 * scale
        return m


class ProfilesBlind(Workload):
    """Blind estimates from rank prefixes of preloaded fixture-sized profiles."""

    name = "profiles_blind"
    group = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        import citest

        self.profiles = gen.blind_profiles(seed)
        self.full = {}
        for prof in self.profiles:
            loaded = citest.normalize(prof.desc)
            report = citest.estimate_report(loaded)
            e = prof.expect
            if not _same_estimate(report.d, report.case_tag, report.a_est, report.b_est, e, 1e-9):
                self.problems.append(f"full-profile estimate of {prof.name} disagrees with the oracle")
            self.full[prof.name] = (loaded, report)
        self.cycle = gen.blind_cycle(seed, self.profiles)

    def setup_spec(self) -> str:
        lines = ["blind"]
        for prof in self.profiles:
            path = gen.FIXTURES / f"{prof.name}.csv"
            lines.append(f"F {path}" if path.exists() else "S " + " ".join(map(str, prof.desc)))
        return "\n".join(lines)

    def run(self, op):
        import citest

        head = citest.profile.truncate_head(self.full[op.profile.name][0], op.k)
        try:
            return citest.estimators.estimate_report(head)
        except citest.InsufficientTail as exc:
            return exc

    def check(self, op, out) -> str:
        import citest

        if isinstance(out, citest.InsufficientTail):
            return "ok" if out.needed_rank > op.k else f"{op.profile.name}@{op.k}: needed_rank too low"
        full = self.full[op.profile.name][1]
        same = all(getattr(out, f) == getattr(full, f) for f in (
            "d", "case_tag", "i_d", "i_d1", "j_d", "j_d1", "a_prime", "a_est", "weights",
            "b_prime", "b_dprime", "b_est", "head_sum_d", "head_sum_d1"))
        if not same:
            return f"{op.profile.name}@{op.k}: blind result differs from the full one"
        return "ok" if out.ranks_consumed <= op.k else f"{op.profile.name}@{op.k}: read past the prefix"

    def memory_ops(self) -> list:
        return self.cycle

    def layer_metrics(self, tracer, loop, setup) -> dict:
        scale = loop.median_scale
        counts = tracer.counts
        returns = max(1, counts["shifted.h_defect_returns"])
        cycles = max(1, loop.attempted // len(self.cycle))

        def median_us(key):
            return statistics.median(tracer.durations[key]) / 1e3 * scale

        return {
            "profile.truncate_head_us": median_us("profile.truncate_head"),
            "shifted.h_defect_us": median_us("shifted.h_defect"),
            "shifted.rows_per_op": counts["shifted.rows"] / returns,
            "shifted.ranks_consumed_per_op": counts["shifted.ranks_consumed"] / returns,
            "shifted.insufficient_tail_ops":
                counts["estimators.estimate_report raised InsufficientTail"] / cycles,
            "estimators.estimate_report_us": median_us("estimators.estimate_report"),
        }


class DurfeeExact(Workload):
    """Exact Durfee-square distributions for n in a band under the ceiling."""

    name = "durfee_exact"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cycle = gen.durfee_cycle(seed)
        self.p = oracle.partition_counts(gen.DURFEE_BAND[1])

    def setup_spec(self) -> str:
        return f"partition {gen.DURFEE_BAND[1]}"

    def run(self, n):
        import citest

        return citest.partitions.count_by_durfee(n)

    def check(self, n, dist) -> str:
        good = (sum(dist.counts.values()) == self.p[n] == dist.total
                and abs(dist.mode - oracle.MODE_COEFF * math.sqrt(n)) <= 1.5)
        return "ok" if good else f"count_by_durfee({n}) disagrees with the oracle"

    def memory_ops(self) -> list:
        return [max(self.cycle)]

    def layer_metrics(self, tracer, loop, setup) -> dict:
        spans = tracer.durations["partitions.count_by_durfee"]
        return {
            "partitions.count_by_durfee_ms": statistics.median(spans) / 1e6 * loop.median_scale,
            "partitions.partition_count_cold_ms": statistics.median(setup[1]) * 1e3,
        }


CLASSES = {cls.name: cls for cls in (CliMix, ProfilesLong, ProfilesBlind, DurfeeExact)}


# ------------------------------------------------------------- the timed loop

class LoopResult:
    def __init__(self, in_process: bool):
        self.reference = time_reference if in_process else time_child_reference
        self.nominal = REF_NOMINAL_S if in_process else REF_CHILD_NOMINAL_S
        self.latencies: list[float] = []
        self.groups: list[int] = []
        self.refs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []  # the first few wrong outputs
        self.wrong_count = 0
        self.ops_run: list = []
        self.wall_s = 0.0

    @property
    def scales(self) -> list[float]:
        refs = self.refs
        # group g of operations ran between reference timings g and g+1
        return [2.0 * self.nominal / (refs[g] + refs[g + 1]) for g in range(len(refs) - 1)]

    @property
    def median_scale(self) -> float:
        return self.nominal / statistics.median(self.refs)

    def quantiles_ms(self) -> dict[str, list[float]]:
        """Deciles of the operation times, raw and scaled, for the record."""
        scales = self.scales
        raw = self.latencies
        scaled = [t * scales[g] for t, g in zip(raw, self.groups)]
        return {name: [v * 1e3 for v in (min(values), *deciles(values), max(values))]
                for name, values in (("raw", raw), ("scaled", scaled))}

    def figures(self, scaled: bool) -> dict[str, float]:
        scales = self.scales
        lat = [t * scales[g] if scaled else t for t, g in zip(self.latencies, self.groups)]
        return {
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": deciles(lat)[8] * 1e3,
        }


def timed_loop(w: Workload, seconds: float, cycles_max: int | None = None,
               tracer: tracing.Tracer | None = None, ops: list | None = None) -> LoopResult:
    """Whole cycles until ``seconds`` have passed and MIN_OPS have run."""
    ops = w.cycle if ops is None else ops
    res = LoopResult(w.in_process)
    gc.collect()
    res.refs.append(res.reference())
    start = time.perf_counter()
    cycles = 0
    while True:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(w.tag(op))
            t0 = time.perf_counter()
            try:
                out = w.run(op)
            except Exception:  # an operation that fails is counted, not fatal
                verdict = "failed"
            else:
                verdict = None
            res.latencies.append(time.perf_counter() - t0)
            res.groups.append(len(res.refs) - 1)
            verdict = verdict or w.check(op, out)
            res.attempted += 1
            res.ops_run.append(op)
            if verdict == "failed":
                res.failed += 1
            elif verdict != "ok":
                res.wrong_count += 1
                if len(res.wrong) < 20:
                    res.wrong.append(verdict)
            if tracer is not None:
                w.after_op(op)
            if (i + 1) % w.group == 0 or i + 1 == len(ops):
                res.refs.append(res.reference())
        cycles += 1
        elapsed = time.perf_counter() - start
        if cycles_max is not None and cycles >= cycles_max:
            break
        if elapsed >= seconds and res.attempted >= MIN_OPS:
            break
    res.wall_s = time.perf_counter() - start
    return res


# ------------------------------------------------------------- checks of the oracle

def oracle_selftest() -> tuple[int, list[str]]:
    """The oracle against the published Table 2/5 cells held in citest.refdata,
    and its enumerated Durfee histograms against count_by_durfee for small n.
    Returns the number of comparisons made and the ones that failed."""
    from citest import partitions, refdata

    checked, problems = 0, []
    cells = {**refdata.TABLE2_EXPECTED, **refdata.TABLE5_EXPECTED}
    for name, expected in cells.items():
        _, desc = oracle.read_fixture(str(gen.FIXTURES / refdata.FIXTURE_FILES[name]))
        e = oracle.estimate(desc)
        rd, rd1 = e.rows[e.d], e.rows[e.d + 1]
        got = {"d": e.d, "h_d": rd.h_k, "e_d": rd.e_k, "q_d": rd.q_k, "e_d1": rd1.e_k,
               "q_d1": rd1.q_k, "j_d": oracle._interval(rd, sum(desc[: e.d])),
               "j_d1": oracle._interval(rd1, sum(desc[: e.d + 1])),
               "a": e.a, "b_prime": e.b_prime, "b_dprime": e.b_dprime, "b": e.b}
        for cell, want in expected.items():
            value, tol = want if isinstance(want, tuple) else (want, 0)
            have = got[cell]
            if isinstance(value, tuple):
                ok = all(abs(g - v) <= tol for g, v in zip(have, value))
            else:
                ok = have is not None and abs(have - value) <= tol
            checked += 1
            if not ok:
                problems.append(f"{name}.{cell}: oracle {have}, published {value}")
    p = oracle.partition_counts(20)
    for n in range(1, 21):
        hist = oracle.durfee_histogram(n)
        checked += 1
        if sum(hist.values()) != p[n] or hist != partitions.count_by_durfee(n).counts:
            problems.append(f"Durfee histogram of {n} disagrees")
    return checked, problems


# ------------------------------------------------------------- one run

def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    w = CLASSES[name](seed)
    checked, problems = oracle_selftest()
    setup = measure_setup(w.setup_spec())
    peak = w.peak_mem_mb()
    loop = timed_loop(w, seconds)
    scaled, raw = loop.figures(scaled=True), loop.figures(scaled=False)
    metrics = {"setup_s": statistics.median(setup[0]), **scaled, "peak_mem_mb": peak}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "attempted": loop.attempted, "failed": loop.failed,
        "wrong_count": loop.wrong_count, "wrong": loop.wrong,
        "oracle_selftest": {"checked": checked, "problems": problems},
        "metrics": metrics,
        "raw": {"setup_s": statistics.median(setup[2]), **raw},
        "reference": {
            "in_process": w.in_process, "nominal_s": loop.nominal,
            "median_s": statistics.median(loop.refs),
            "min_s": min(loop.refs), "max_s": max(loop.refs), "timings": len(loop.refs),
        },
        "latency_quantiles_ms": loop.quantiles_ms(),
        "cycle_ops": len(w.cycle), "wall_s": loop.wall_s,
    }
    problems += w.problems
    correct = not problems and not loop.wrong_count
    if traced:
        record["per_layer"], traced_ok = traced_run(w, seed, seconds, scaled, setup)
        correct = correct and traced_ok
    record["correct"] = correct
    path = OUT / "records" / f"{name}-seed{seed}-trace{int(traced)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def traced_run(w: Workload, seed: int, seconds: float, untraced: dict, setup) -> tuple[dict, bool]:
    """The workload again with spans on; the other workloads' layers from a short pass."""
    import citest.cli  # noqa: F401  (instrument wraps the cli module too)

    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer)
    try:
        loop = timed_loop(w, seconds, tracer=tracer)
        ok = not loop.wrong_count
        per_layer = w.layer_metrics(tracer, loop, setup)
        traced_figures = loop.figures(scaled=True)
        for other in WORKLOADS:
            if other == w.name:
                continue
            undo()
            o = CLASSES[other](seed)
            ops = o.memory_ops() if other == "cli_mix" else None
            o_setup = measure_setup(o.setup_spec()) if other == "durfee_exact" else None
            probe_tracer = tracing.Tracer()
            undo = tracing.instrument(probe_tracer)
            probe = timed_loop(o, 0.0, cycles_max=PROBE_CYCLES, tracer=probe_tracer, ops=ops)
            ok = ok and not probe.wrong_count and not o.problems
            per_layer.update(o.layer_metrics(probe_tracer, probe, o_setup))
    finally:
        undo()
    per_layer["trace.overhead_pct"] = 100.0 * (untraced["ops_per_s"] / traced_figures["ops_per_s"] - 1.0)
    path = OUT / "traces" / f"{w.name}-seed{seed}.json"
    tracer.write(path, {"per_layer": per_layer, "traced": traced_figures, "untraced": untraced})
    return per_layer, ok


def per_layer_units() -> dict[str, str]:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/citest/__init__.py").is_file() or not gen.FIXTURES.is_dir():
        print("bench/run.py: run from the root of a citest checkout "
              "(src/citest and tests/fixtures are missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    os.environ.pop("CITEST_MAX_N", None)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += rec["attempted"]
        failed += rec["failed"]
        correct = correct and rec["correct"]
        values = rec["per_layer"] if args.trace else rec["metrics"]
        selftest = rec["oracle_selftest"]
        print(f"# {name}: attempted {rec['attempted']}, failed {rec['failed']}, "
              f"correct {rec['correct']}, reference {rec['reference']['median_s'] * 1e3:.3f} ms, "
              f"oracle self-test {selftest['checked'] - len(selftest['problems'])}/{selftest['checked']}"
              + (f", wrong: {rec['wrong'][:3]}" if rec["wrong"] else ""))
        for metric, unit in units.items():
            value = values.get(metric)
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"#   {metric:<40} {shown:>12} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
