"""Benchmark of weylurn: seeded closed-loop workloads with exact-output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds src/weylurn.  One client
sends jobs one at a time, each after the previous one has finished; the
library workloads call weylurn in this process, cli-requests starts one
`python -m weylurn` process per job.  Every result is checked against an
exact reference outside the job's timed span.

--trace 0 times whole cycles of the job list until S seconds of job time
have passed and prints the end-to-end metrics.  Each timed span is scaled
to a reference host speed, measured by a short probe loop run just before
and after it, so that load from other tenants of the host cancels out.
--trace 1 runs a fixed pass of the list, each cycle once untraced and once
with spans around every layer, then the size sweeps, and prints the
per-layer metrics.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from fractions import Fraction
from math import log
from pathlib import Path

import tracing
import workloads as wl
from tracing import clock

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
MIN_CYCLES = 6  # 120 jobs, so at least twelve lie beyond the cycles' 90th percentiles
CLI_TIMEOUT_S = 60
CLI_COMMANDS = ("normal-order", "histories", "probabilities", "series", "oscillator")
CLI_EXITS = range(6)

# span name -> per-layer quantities reported from its spans
SPAN_METRICS = {
    "histories.count_by_operator": ("calls", "busy_s", "self_s"),
    "algebra.act_process": ("calls", "busy_s"),
    "histories.count_by_search": ("calls", "busy_s"),
    "histories.probabilities": ("busy_s",),
    "algebra.normal_order": ("calls", "busy_s"),
    "algebra.normal_order_word": ("busy_s",),
    "algebra.process_pow": ("busy_s",),
    "poly.bn_sequence": ("busy_s", "self_s"),
    "poly.apply_shifted": ("calls", "busy_s"),
    "poly.conjugate_check": ("busy_s",),
    "poly.apply_operator": ("calls", "busy_s"),
    "series.g_series": ("busy_s", "self_s"),
    "series.driven_oscillator_closed_form": ("busy_s",),
    "series.pde_residual": ("busy_s",),
    "parser.parse": ("calls", "busy_s"),
}

# entry points the library jobs call: span name -> (module, attribute)
ENTRY_POINTS = {
    "parser.parse": ("parser", "parse"),
    "histories.count_by_operator": ("histories", "count_by_operator"),
    "histories.count_by_search": ("histories", "count_by_search"),
    "histories.probabilities": ("histories", "probabilities"),
    "algebra.normal_order": ("algebra", "normal_order"),
    "poly.bn_sequence": ("poly", "bn_sequence"),
    "poly.conjugate_check": ("poly", "conjugate_check"),
    "series.g_series": ("series", "g_series"),
    "series.b_series": ("series", "b_series"),
    "series.pde_residual": ("series", "pde_residual"),
    "series.driven_oscillator_closed_form": ("series", "driven_oscillator_closed_form"),
}
MODULES = ("parser", "algebra", "histories", "poly", "series")


# ---------------------------------------------------------------------------
# host speed
#
# The benchmark shares its cores with other tenants, whose load slows
# every instruction by up to half, in phases that last from milliseconds
# to minutes.  So each timed span is bracketed by a fixed piece of
# pure-Python work, the probe, and its wall time is scaled by
# PROBE_S / (mean of the probes just before and after it): the time the
# span would have taken on a host where the probe takes PROBE_S.  Timings
# are reported at that reference speed.

PROBE_S = 0.00135  # about the fastest the probe ran on a shared 2-core x86-64 VM


def probe() -> float:
    """Seconds taken by a fixed mix of Fraction and dict arithmetic."""
    t0 = clock()
    total, table = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(i, i + 1) * 3
        table[i & 63] = table.get(i & 63, 0) + i * i
    return clock() - t0


def pin_to_one_cpu() -> None:
    """Keeps the benchmark and its children on one core, so that a probe
    and the span it brackets see the same load."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def at_reference_speed(times: list[float], probes: list[float]) -> list[float]:
    return [t * PROBE_S / p for t, p in zip(times, probes)]


class Tally:
    """Outcomes and work counters of the jobs run so far; per job, its
    wall time and the mean of the probes just before and after it."""

    def __init__(self):
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.busy = 0.0
        self.failed = 0
        self.wrong = 0
        self.counters: Counter = Counter()
        self.max_bits = 0

    def record(self, latency: float, outcome: str, counters: dict | None = None) -> None:
        self.latencies.append(latency)
        self.busy += latency
        if outcome != "ok":
            self.failed += 1
        if outcome == "wrong":
            self.wrong += 1
        for key, value in (counters or {}).items():
            if key == "bn_bits":
                self.max_bits = max(self.max_bits, value)
            else:
                self.counters[key] += value


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [log(size) for size, _ in points]
    ys = [log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def loop(run_one, jobs: list, stop) -> Tally:
    """Closed loop: run jobs in list order, cycling, until stop(i, tally),
    with a probe between each two jobs."""
    tally, i = Tally(), 0
    before = probe()
    while not stop(i, tally):
        run_one(jobs[i % len(jobs)], tally)
        after = probe()
        tally.probes.append((before + after) / 2)
        before, i = after, i + 1
    return tally


# ---------------------------------------------------------------------------
# library workloads


def import_library() -> dict:
    """Fresh import of weylurn from SRC; returns its modules by short name."""
    for name in [m for m in sys.modules if m == "weylurn" or m.startswith("weylurn.")]:
        del sys.modules[name]
    weylurn = importlib.import_module("weylurn")
    if Path(weylurn.__file__).resolve().parent != (SRC / "weylurn").resolve():
        _fail(f"imported weylurn from {weylurn.__file__}, not from {SRC}")
    return {name: sys.modules[f"weylurn.{name}"] for name in MODULES}


def entry_points(modules: dict, tracer: tracing.Tracer | None = None) -> dict:
    lib = {span: getattr(modules[mod], attr) for span, (mod, attr) in ENTRY_POINTS.items()}
    lib["algebra.process_pow"] = lambda h, n: h**n
    if tracer is not None:
        lib = {span: tracer.wrap(span, fn) for span, fn in lib.items()}
    lib["HistoryTable"] = modules["histories"].HistoryTable
    lib["BudgetExceededError"] = modules["histories"].BudgetExceededError
    return lib


def library_runner(lib: dict, tracer: tracing.Tracer | None = None):
    """Runs one job, timed, then checks it; a job that raises counts as failed."""
    run = lambda job: wl.run_job(lib, job)  # noqa: E731
    if tracer is not None:
        run = tracer.wrap("job", run)

    def run_one(job, tally: Tally) -> None:
        t0 = clock()
        try:
            result = run(job)
        except Exception:  # the run goes on; the failure is counted and shown
            tally.record(clock() - t0, "failed")
            traceback.print_exc(file=sys.stderr)
            return
        latency = clock() - t0
        ok, counters = wl.check_job(job, result)
        tally.record(latency, "ok" if ok else "wrong", counters)

    return run_one


# ---------------------------------------------------------------------------
# cli-requests


def cli_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("WEYLURN_FORMAT", None)  # the requests choose their format
    return env


def run_cli_job(job, tally: Tally, env: dict, tracer: tracing.Tracer | None = None, stats: dict | None = None) -> None:
    argv = list(job[1])
    if tracer is None:
        cmd, fds, read_end = [sys.executable, "-m", "weylurn", *argv], (), None
    else:
        read_end, write_end = os.pipe()
        cmd, fds = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(write_end), *argv], (write_end,)
    t0 = clock()
    try:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=fds
        )
    finally:
        for fd in fds:
            os.close(fd)
    try:
        stdout, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
    t1 = clock()
    outcome = wl.check_cli(job, proc.returncode, stdout, stderr)
    tally.record(t1 - t0, outcome)
    if outcome == "wrong":
        print(f"perfbench: wrong output for {argv}: exit {proc.returncode}\n{stderr.decode()[-2000:]}", file=sys.stderr)
    if tracer is None:
        return
    with os.fdopen(read_end, "rb") as pipe:
        report = pipe.read()
    command = argv[0]
    stats["exit"][proc.returncode] += 1
    stats["output_bytes"] += len(stdout)
    stats["wall"].setdefault(command, []).append(t1 - t0)
    job_span = tracer.add("job", t0, t1)
    if report:
        child = json.loads(report)
        tracer.add("cli.startup", t0, child["start"], job_span)
        tracer.add(f"cli.{command}", child["start"], child["end"], job_span)
        stats["startup"].append(child["start"] - t0)
        for name, (calls, busy, own) in child["layers"].items():
            layer = stats["layers"].setdefault(name, [0, 0.0, 0.0])
            layer[0] += calls
            layer[1] += busy
            layer[2] += own


# ---------------------------------------------------------------------------
# the two kinds of run


def setup(workload: str, seed: int, env: dict):
    """Import (library workloads), input generation and warm-up.

    Returns (seconds taken, weylurn modules or None, jobs, cycle length,
    jobs in one traced pass)."""
    t0 = clock()
    if workload == "cli-requests":
        modules, run_one = None, lambda job, tally: run_cli_job(job, tally, env)
    else:
        modules = import_library()
        run_one = library_runner(entry_points(modules))
    jobs, cycle, pass_len = wl.make_jobs(workload, seed)
    warmup = wl.WARMUP[workload]
    if loop(run_one, warmup, lambda i, _: i >= len(warmup)).failed:
        _fail("warm-up job failed")
    return clock() - t0, modules, jobs, cycle, pass_len


def job_timings(latencies: list[float], cycle: int) -> dict:
    # Each cycle has the same mix, so a per-cycle figure is one sample of
    # the same quantity; the median over cycles ignores the few cycles
    # that the host speed scaling gets wrong.
    cycles = [latencies[i : i + cycle] for i in range(0, len(latencies), cycle)]
    return {
        "jobs_per_s": (statistics.median(len(c) / sum(c) for c in cycles), "1/s"),
        "job_p50_ms": (1000 * statistics.median(statistics.median(c) for c in cycles), "ms"),
        "job_p90_ms": (1000 * statistics.median(_percentile(c, 0.9) for c in cycles), "ms"),
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    env = cli_env()
    setup_times, setup_probes = [], []
    for _ in range(SETUP_REPEATS):  # keeps only the last set-up's state
        before = probe()
        seconds_taken, modules, jobs, cycle, _ = setup(workload, seed, env)
        setup_times.append(seconds_taken)
        setup_probes.append((before + probe()) / 2)

    def stop(i, tally):
        # whole cycles only, so every run has the same mix of job kinds
        return i % cycle == 0 and i >= MIN_CYCLES * cycle and tally.busy >= seconds

    if modules is None:
        tally = loop(lambda job, t: run_cli_job(job, t, env), jobs, stop)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        tally = loop(library_runner(entry_points(modules)), jobs, stop)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted = len(tally.latencies)
    metrics = {
        "setup_s": (statistics.median(at_reference_speed(setup_times, setup_probes)), "s"),
        **job_timings(at_reference_speed(tally.latencies, tally.probes), cycle),
        "ok_ratio": ((attempted - tally.failed) / attempted, "1"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    # the same figures unscaled, for the table only
    for name, (value, unit) in {"setup_s": (statistics.median(setup_times), "s"), **job_timings(tally.latencies, cycle)}.items():
        print(f"{'wall-clock ' + name:48s} {value:>16.6g} {unit}")
    return tally, metrics


def sweeps(modules: dict) -> dict:
    """Log-log growth of four layers over input size, on X D + X + D."""
    h = modules["parser"].parse("X D + X + D")
    word = modules["algebra"].Word

    def best(fn, *args, repeats=2):
        times = []
        for _ in range(repeats):
            t0 = clock()
            fn(*args)
            times.append(clock() - t0)
        return min(times)

    nf_word = modules["algebra"].normal_order_word
    cbo = modules["histories"].count_by_operator
    bn = modules["poly"].bn_sequence
    g = modules["series"].g_series
    return {
        "algebra.normal_order_word.growth_exp": _slope([(k, best(nf_word, word("D" * k + "X" * k), repeats=3)) for k in (8, 12, 16, 24, 32)]),
        "histories.count_by_operator.growth_exp": _slope([(n, best(cbo, h, n, 2)) for n in (20, 40, 80, 160)]),
        "poly.bn_sequence.growth_exp": _slope([(n, best(bn, h, n)) for n in (6, 9, 12, 18, 24)]),
        "series.g_series.growth_exp": _slope([(b, best(g, h, 6, b, b, repeats=3)) for b in (6, 9, 12, 18, 24)]),
    }


def traced(workload: str, seed: int) -> tuple[Tally, dict]:
    env = cli_env()
    _, modules, jobs, cycle, pass_len = setup(workload, seed, env)
    tracer = tracing.Tracer()
    stats = {"exit": Counter(), "output_bytes": 0, "wall": {}, "startup": [], "layers": {}}
    if modules is None:
        run_plain = lambda job, t: run_cli_job(job, t, env)  # noqa: E731
        run_traced = lambda job, t: run_cli_job(job, t, env, tracer, stats)  # noqa: E731
    else:
        run_plain = library_runner(entry_points(modules))
        run_traced = library_runner(entry_points(modules, tracer), tracer)
    # Each cycle runs untraced, then traced, so that both halves of the
    # overhead ratio see the same load from outside the benchmark.
    plain, tally = Tally(), Tally()
    for start in range(0, pass_len, cycle):
        chunk = jobs[start : start + cycle]
        for job in chunk:
            run_plain(job, plain)
        saved = tracer.rebind(modules, tracing.INNER_CALLS) if modules else []
        try:
            for job in chunk:
                run_traced(job, tally)
        finally:
            tracing.restore(saved)
    if modules is None:
        modules = import_library()
    layers, unattributed = tracing.summarize(tracer.spans)
    for name, (calls, busy, own) in stats["layers"].items():
        c, b, s = layers.get(name, (0, 0.0, 0.0))
        layers[name] = (c + calls, b + busy, s + own)

    metrics: dict = {}
    for name, quantities in SPAN_METRICS.items():
        calls, busy, own = layers.get(name, (0, 0.0, 0.0))
        values = {"calls": (calls, "count"), "busy_s": (busy, "s"), "self_s": (own, "s")}
        for q in quantities:
            metrics[f"{name}.{q}"] = values[q]
    counts = tally.counters
    metrics["histories.count_by_search.histories"] = (counts["histories"], "count")
    metrics["histories.count_by_search.budget_exceeded"] = (counts["budget_exceeded"], "count")
    metrics["algebra.normal_order.words_in"] = (counts["words_in"], "count")
    metrics["algebra.normal_order.terms_out"] = (counts["terms_out"], "count")
    metrics["poly.bn_sequence.terms_out"] = (counts["bn_terms"], "count")
    metrics["poly.bn_sequence.max_coeff_bits"] = (tally.max_bits, "bits")
    metrics["series.g_series.box_fill"] = (counts["g_coeffs"] / counts["g_box"] if counts["g_box"] else 0.0, "1")
    for name, value in sweeps(modules).items():
        metrics[name] = (value, "1")
    startup = stats["startup"]
    metrics["cli.startup_ms"] = (1000 * statistics.median(startup) if startup else 0.0, "ms")
    metrics["cli.startup_share"] = (sum(startup) / tally.busy if startup else 0.0, "1")
    for command in CLI_COMMANDS:
        times = stats["wall"].get(command)
        metrics[f"cli.{command}.p50_ms"] = (1000 * statistics.median(times) if times else 0.0, "ms")
    metrics["cli.output_bytes"] = (stats["output_bytes"], "bytes")
    for code in CLI_EXITS:
        metrics[f"cli.exit.{code}"] = (stats["exit"][code], "count")
    metrics["trace.overhead_ratio"] = (plain.busy / tally.busy, "1")  # the same jobs on both sides
    metrics["trace.unattributed_share"] = (unattributed, "1")
    tally.failed += plain.failed
    tally.wrong += plain.wrong
    tally.latencies += plain.latencies
    return tally, metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "weylurn" / "__init__.py").is_file():
        _fail(f"no weylurn source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    if args.trace:
        tally, metrics = traced(args.workload, args.seed)
    else:
        tally, metrics = end_to_end(args.workload, args.seed, args.seconds)

    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != wanted:
        _fail(f"metrics differ from BENCHMARK.json: {sorted(set(wanted.items()) ^ set(produced.items()))}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    if tally.wrong:
        sys.exit(1)


if __name__ == "__main__":
    main()
