"""Seeded inputs, job execution and exact-output checks for each workload.

A workload is a list of jobs built from the seed.  The list is made of
cycles with a fixed recipe: each slot of a cycle has a fixed job kind and
a fixed size stratum, and the seed draws the process, the sizes inside
the stratum and the letters.  Every run therefore does the same shape of
work, which keeps throughput and latency steady from seed to seed, while
the inputs themselves differ.

Jobs call the library only through `lib`, a dict from span name to
function, so that the traced run can wrap each entry point from outside.
A job's check runs outside its timed span and compares the result with
the values in `reference`, which share no code with the library.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import cache
from itertools import groupby
from math import gcd, lcm

import reference as ref

# ---------------------------------------------------------------------------
# processes and expressions


RATIONAL_SHARE = 0.3  # share of weights that are p/q with q = 2 or 3


def _weight(rng: random.Random) -> Fraction:
    if rng.random() < RATIONAL_SHARE:
        q = rng.randint(2, 3)
        p = rng.choice([p for p in range(1, 3 * q + 1) if p % q])
        return Fraction(p, q)
    return Fraction(rng.randint(1, 3))


def random_terms(rng, max_len: int = 3):
    """1-3 terms of words over X/D; like words are merged as the parser does."""
    acc: dict[str, Fraction] = {}
    for _ in range(rng.randint(1, 3)):
        letters = "".join(rng.choice("XD") for _ in range(rng.randint(1, max_len)))
        acc[letters] = acc.get(letters, 0) + _weight(rng)
    return tuple(acc.items())


def shaped_terms(rng, lengths):
    """Distinct words of the given lengths, with random letters and weights."""
    while True:
        words = ["".join(rng.choice("XD") for _ in range(k)) for k in lengths]
        if len(set(words)) == len(words):
            return tuple((w, _weight(rng)) for w in words)


def render_letters(letters: str) -> str:
    parts = []
    for gen, run in groupby(letters):
        k = len(list(run))
        parts.append(gen if k == 1 else f"{gen}^{k}")
    return " ".join(parts)


@cache
def render(terms) -> str:
    out = []
    for letters, w in terms:
        body = render_letters(letters)
        out.append(body if w == 1 else f"{w} {body}")
    return " + ".join(out)


def _scale(terms) -> int:
    return lcm(1, *(Fraction(w).denominator for _, w in terms))


# ---------------------------------------------------------------------------
# predicted work of count_by_operator, used only to stratify job sizes


def _need(letters: str) -> int:
    # smallest urn on which the word acts without hitting an empty urn
    size = need = 0
    for gen in reversed(letters):
        if gen == "X":
            size += 1
        else:
            size -= 1
            need = max(need, -size)
    return need


def steps_to_work(terms, l: int, target: int, n_max: int) -> tuple[int, int] | None:
    """First step count n whose predicted work reaches target, with that work.

    Predicted work counts the Fraction operations of the action: per step
    and per monomial, each word costs a multiply and an add for its weight
    and one multiply per D.  The support of H^s x^l is tracked as an
    interval with the stride of the excess differences.  On a sample of
    operator jobs this predicts the time within about 9%.
    """
    words = [(w.count("X") - w.count("D"), _need(w)) for w, _ in terms]
    per_monomial = sum(2 + w.count("D") for w, _ in terms)
    excesses = sorted({e for e, _ in words})
    stride = 0
    for e in excesses[1:]:
        stride = gcd(stride, e - excesses[0])
    lo = hi = l
    work = 0
    for n in range(1, n_max + 1):
        work += ((hi - lo) // stride + 1 if stride else 1) * per_monomial
        live = [(e, need) for e, need in words if need <= hi]
        if not live:
            return None
        if work >= target:
            return n, work  # some word acts on the largest urn: H^n x^l != 0
        lo, hi = min(max(lo, need) + e for e, need in live), max(hi + e for e, _ in live)
    return None


# ---------------------------------------------------------------------------
# histories-mix


def _op_job(rng, target: int, n_range=(50, 300)):
    """A (terms, n, l) whose predicted work is within 10% above target."""
    for _ in range(100_000):
        terms, l = random_terms(rng), rng.randint(0, 8)
        hit = steps_to_work(terms, l, target, n_range[1])
        if hit and hit[0] >= n_range[0] and hit[1] <= 1.1 * target:
            return terms, hit[0], l
    raise RuntimeError(f"no job found near predicted work {target}")


def _search_job(rng, exceeds: bool):
    """A search whose tree has 80-100% of the node budget, or more."""
    while True:
        terms, n, l = random_terms(rng), rng.randint(1, 5), rng.randint(0, 3)
        nodes, _ = ref.search_tally(terms, n, l, _scale(terms))
        if (nodes > SEARCH_BUDGET) if exceeds else (0.8 * SEARCH_BUDGET <= nodes <= SEARCH_BUDGET):
            return ("search", terms, n, l, SEARCH_BUDGET)


# Work targets of one cycle, in predicted Fraction operations (about 1 us
# each on a 2-core x86-64 VM).  The median falls inside the plateau of
# eight mid-sized jobs and the 90th percentile inside the top six,
# searches included, so both quantiles sit where neighbouring jobs cost
# about the same.
SMALL_TARGETS = (600, 1_300, 2_800, 4_500, 7_000, 10_000)
MID_TARGET = 21_000
TOP_TARGET = 50_000
SEARCH_BUDGET = 350_000


def histories_cycle(rng):
    jobs = [("cbo",) + _op_job(rng, t) for t in SMALL_TARGETS + (MID_TARGET,) * 6 + (TOP_TARGET,) * 4]
    jobs += [("prob",) + _op_job(rng, MID_TARGET) for _ in range(2)]
    jobs += [_search_job(rng, exceeds=False), _search_job(rng, exceeds=True)]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# normal-order-mix


# Each cycle's sizes are chosen so that the median job falls inside a group
# of similar cost, and the 90th percentile inside another; a quantile that
# fell between two groups of different cost would jump from seed to seed.
# Costs below are means on a 2-core x86-64 VM.

# tower k (+0..2), word lengths (+-2) and (power, word lengths) of the slots
TOWER_KS = (10, 24, 36, 46, 47, 48, 48)  # ~1, ~11, ~55, ~150 (x4) ms
WORD_LENGTHS = (22, 28, 34, 41, 48, 56, 58, 60)  # ~0.5 to ~10 ms
POWERS = ((3, (1, 2, 3)), (5, (1, 2, 2)), (6, (1, 2, 2)), (6, (2, 3)), (7, (1, 1, 2)))  # ~1, ~9 (x3), ~55 ms


def normal_order_cycle(rng):
    jobs = []
    for k in TOWER_KS:
        k += rng.randint(0, 2)
        jobs.append(("tower", (("D" * k + "X" * k, Fraction(1)),)))
    for length in WORD_LENGTHS:
        letters = "".join(rng.choice("XD") for _ in range(length + rng.randint(-2, 2)))
        jobs.append(("word", ((letters, Fraction(1)),)))
    for n, lengths in POWERS:
        jobs.append(("pow", shaped_terms(rng, lengths), n))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# series-check

SERIES_SHAPE = (2, 1, 1)  # word lengths of the processes, as in X D + X + D
SERIES_SLOTS = (
    # under 10 ms
    ("g", 4, 6, 6), ("bn", 8), ("conj", 2, 24), ("g", 7, 9, 9), ("conj", 3, 24), ("conj", 4, 24),
    # 10 to 20 ms
    ("conj", 5, 24), ("pde", 10), ("osc", 6, 8, 8), ("g", 10, 12, 12), ("bn", 14),
    ("pde", 11), ("osc", 6, 8, 8), ("g", 10, 12, 12), ("bn", 14),
    # ~25 ms, then 60 to 90 ms
    ("bn", 16), ("bn", 22), ("bn", 24), ("bn", 24), ("osc", 10, 10, 10),
)


def series_cycle(rng):
    jobs = []
    for kind, *sizes in SERIES_SLOTS:
        if kind == "osc":
            jobs.append((kind, Fraction(rng.randint(1, 7), rng.randint(1, 4)), *sizes))
        else:
            jobs.append((kind, shaped_terms(rng, SERIES_SHAPE), *sizes))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# execution of library jobs


def run_job(lib: dict, job):
    kind = job[0]
    if kind == "cbo":
        _, terms, n, l = job
        return lib["histories.count_by_operator"](lib["parser.parse"](render(terms)), n, l)
    if kind == "prob":
        _, terms, n, l = job
        h = lib["parser.parse"](render(terms))
        counts = lib["histories.count_by_operator"](h, n, l)
        table = lib["HistoryTable"].from_rows({l: counts}, n=n)
        return lib["histories.probabilities"](table, l)
    if kind == "search":
        _, terms, n, l, budget = job
        h = lib["parser.parse"](render(terms))
        try:
            return lib["histories.count_by_search"](h, n, l, _scale(terms), budget)
        except lib["BudgetExceededError"]:
            return "budget-exceeded"
    if kind in ("tower", "word"):
        return lib["algebra.normal_order"](lib["parser.parse"](render(job[1])))
    if kind == "pow":
        _, terms, n = job
        h = lib["algebra.process_pow"](lib["parser.parse"](render(terms)), n)
        return lib["algebra.normal_order"](h), len(h.terms)
    if kind == "bn":
        _, terms, n = job
        return lib["poly.bn_sequence"](lib["parser.parse"](render(terms)), n)
    if kind == "conj":
        _, terms, n, d = job
        return lib["poly.conjugate_check"](lib["parser.parse"](render(terms)), n, d)
    if kind == "g":
        _, terms, n, dx, dy = job
        return lib["series.g_series"](lib["parser.parse"](render(terms)), n, dx, dy)
    if kind == "osc":
        _, g, n, dx, dy = job
        closed = lib["series.driven_oscillator_closed_form"](g, n, dx, dy)
        recurrence = lib["series.g_series"](lib["parser.parse"](render(ref.oscillator_terms(g))), n, dx, dy)
        return closed.first_mismatch(recurrence)
    if kind == "pde":
        _, terms, n = job
        h = lib["parser.parse"](render(terms))
        series = lib["series.b_series"](h, n)
        return series, lib["series.pde_residual"](h, series)
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# exact-output checks


def _bits(c: Fraction) -> int:
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _powers(terms, n: int) -> list[dict]:
    return ref.nf_powers(ref.process_nf(terms), n)


def check_job(job, result) -> tuple[bool, dict]:
    """(result equals the reference value, work counters of the result)."""
    kind = job[0]
    if kind == "cbo":
        _, terms, n, l = job
        return result == ref.history_counts(ref.process_nf(terms), n, l), {}
    if kind == "prob":
        _, terms, n, l = job
        counts = ref.history_counts(ref.process_nf(terms), n, l)
        total = sum(counts.values())
        ok = sum(result.probs.values()) == 1 and result.probs == {k: c / total for k, c in counts.items()}
        return ok, {}
    if kind == "search":
        _, terms, n, l, budget = job
        nodes, counts = ref.search_tally(terms, n, l, _scale(terms))
        if result == "budget-exceeded":
            return nodes > budget, {"budget_exceeded": 1}
        return nodes <= budget and result == counts, {"histories": sum(result.values())}
    if kind in ("tower", "word"):
        return result.coeffs == ref.process_nf(job[1]), {"words_in": 1, "terms_out": len(result.coeffs)}
    if kind == "pow":
        (nf, words), (_, terms, n) = result, job
        return nf.coeffs == _powers(terms, n)[n], {"words_in": words, "terms_out": len(nf.coeffs)}
    if kind == "bn":
        _, terms, n = job
        coeffs = [c for b in result for c in b.coeffs.values()]
        return [b.coeffs for b in result] == _powers(terms, n), {"bn_terms": len(coeffs), "bn_bits": max(map(_bits, coeffs))}
    if kind == "conj":
        _, terms, n, d = job
        guaranteed = d - n * max(len(w) for w, _ in terms)
        b = _powers(terms, n)[n]
        return result.coeffs == {key: c for key, c in b.items() if key[0] + key[1] <= guaranteed}, {}
    if kind == "g":
        _, terms, n, dx, dy = job
        ok = result.coeffs == ref.g_coefficients(_powers(terms, n), dx, dy)
        return ok, {"g_coeffs": len(result.coeffs), "g_box": (dx + 1) * (dy + 1) * (n + 1)}
    if kind == "osc":
        return result is None, {}
    if kind == "pde":
        (series, residual), (_, terms, n) = result, job
        return [b.coeffs for b in series.terms] == _powers(terms, n) and residual.is_zero(), {}
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# cli-requests

DEEP_ORACLE = ("histories", "X", "-n", "1500", "-l", "0", "--oracle")
DOCUMENTED_EXITS = (0, 2, 3, 4, 5)


def _record(command, arguments, result):
    return {"schema_version": "1", "command": command, "arguments": arguments, "result": result}


def _error(command, arguments, kind):
    return {"schema_version": "1", "command": command, "arguments": arguments, "error": {"type": kind}}


def _json(record) -> bytes:
    return (json.dumps(record, indent=2) + "\n").encode()


def _csv(header, rows) -> bytes:
    return "".join(",".join(map(str, r)) + "\n" for r in [header] + rows).encode()


def _nf_entries(nf, a, b):
    return [{a: k, b: l, "value": str(Fraction(c))} for (k, l), c in sorted(nf.items(), key=lambda t: (-t[0][0], -t[0][1]))]


def _bad_expr(rng) -> str:
    good = render(random_terms(rng))
    return rng.choice([good + " +", good.replace("X", "Y", 1) + " + Y", good + " X^", "1/0 X + " + good, good + " X^0", good + " + -1 X"])


def _req_normal_order(rng):
    terms = random_terms(rng, max_len=4)
    expr = render(terms)
    expected = _record("normal-order", {"expr": expr}, {"coefficients": _nf_entries(ref.process_nf(terms), "k", "l")})
    return ("normal-order", expr), {0: _json(expected)}


def _history_rows(terms, n, ls):
    nf = ref.process_nf(terms)
    return [(l, sorted(ref.history_counts(nf, n, l).items())) for l in ls]


def _req_histories(rng, fmt, oracle=False, tight_budget=False):
    while True:
        terms = random_terms(rng)
        n, lo = rng.randint(1, 4), rng.randint(0, 3)
        nodes, _ = ref.search_tally(terms, n, lo, _scale(terms))
        if not oracle or 2 <= nodes <= 40_000:
            break
    expr = render(terms)
    hi = lo if oracle else lo + rng.randint(0, 2)
    l_arg = f"{lo}:{hi}" if hi > lo else str(lo)
    argv = ("histories", expr, "-n", str(n), "-l", l_arg)
    arguments = {"expr": expr, "n": n, "l": l_arg, "oracle": oracle}
    rows = _history_rows(terms, n, range(lo, hi + 1))
    if fmt == "csv":
        return argv + ("--format", "csv"), {0: _csv(["l", "k", "count"], [[l, k, c] for l, cs in rows for k, c in cs])}
    result = {"n": n, "rows": [{"l": l, "counts": [{"k": k, "count": str(c)} for k, c in cs]} for l, cs in rows]}
    if not oracle:
        return argv, {0: _json(_record("histories", arguments, result))}
    argv += ("--oracle",)
    if tight_budget:
        argv += ("--budget", str(nodes // 2))
        return argv, {5: _error("histories", arguments, "budget-exceeded")}
    result["oracle"] = {"agreement": True, "weight_scale": str(_scale(terms))}
    return argv, {0: _json(_record("histories", arguments, result))}


def _req_probabilities(rng, fmt):
    while True:
        terms = random_terms(rng)
        n, l = rng.randint(1, 4), rng.randint(0, 3)
        counts = ref.history_counts(ref.process_nf(terms), n, l)
        if counts:
            break
    expr = render(terms)
    argv = ("probabilities", expr, "-n", str(n), "-l", str(l))
    total = sum(counts.values())
    probs = [(k, c / total) for k, c in sorted(counts.items())]
    if fmt == "csv":
        return argv + ("--format", "csv"), {0: _csv(["k", "probability"], [[k, p] for k, p in probs])}
    result = {"n": n, "l": l, "probabilities": [{"k": k, "probability": str(p)} for k, p in probs]}
    return argv, {0: _json(_record("probabilities", {"expr": expr, "n": n, "l": l}, result))}


def _req_undefined_row(rng):
    # withdrawals of a balls per step from fewer than a*n balls: no history
    a, n = rng.randint(1, 2), rng.randint(2, 4)
    l = rng.randint(0, a * n - 1)
    expr = render((("D" * a, Fraction(rng.randint(1, 3))),))
    argv = ("probabilities", expr, "-n", str(n), "-l", str(l))
    return argv, {3: _error("probabilities", {"expr": expr, "n": n, "l": l}, "undefined-row")}


def _req_series(rng, mode):
    terms = random_terms(rng)
    expr, order = render(terms), rng.randint(2, 6)
    dx, dy = rng.randint(3, 6), rng.randint(3, 6)
    powers = ref.nf_powers(ref.process_nf(terms), order)
    argv = ("series", expr, "-N", str(order), "--dx", str(dx), "--dy", str(dy))
    result = {"order": order, "b_terms": [_nf_entries(b, "i", "j") for b in powers]}
    if mode == "pde":
        argv += ("--check-pde",)
        result["pde_residual_zero"] = True
    if mode == "g":
        argv += ("--g-series",)
        g = ref.g_coefficients(powers, dx, dy)
        result["g_coefficients"] = [
            {"k": i, "l": j, "n": n, "value": str(c)} for (i, j, n), c in sorted(g.items(), key=lambda t: (t[0][2], t[0][1], t[0][0]))
        ]
    arguments = {"expr": expr, "N": order, "dx": dx, "dy": dy, "check_pde": mode == "pde"}
    return argv, {0: _json(_record("series", arguments, result))}


def _req_oscillator(rng):
    g = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    order, dx, dy = rng.randint(2, 5), rng.randint(3, 6), rng.randint(3, 6)
    arguments = {"g": str(g), "N": order, "dx": dx, "dy": dy}
    result = {
        "g": str(g),
        "order": order,
        "dx": dx,
        "dy": dy,
        "match": True,
        "indices_checked": (dx + 1) * (dy + 1) * (order + 1),
        "first_mismatch": None,
    }
    argv = ("oscillator", "-g", str(g), "-N", str(order), "--dx", str(dx), "--dy", str(dy))
    return argv, {0: _json(_record("oscillator", arguments, result))}


def _req_parse_error(rng):
    command = rng.choice(["normal-order", "histories", "probabilities", "series"])
    argv = (command, _bad_expr(rng))
    if command in ("histories", "probabilities"):
        argv += ("-n", "1", "-l", "0")
    return argv, {2: None}


def _req_deep_oracle(rng):
    arguments = {"expr": "X", "n": 1500, "l": "0", "oracle": True}
    result = {
        "n": 1500,
        "rows": [{"l": 0, "counts": [{"k": 1500, "count": "1"}]}],
        "oracle": {"agreement": True, "weight_scale": "1"},
    }
    # an explicit resource limit (exit 5) is a documented outcome too
    return DEEP_ORACLE, {0: _json(_record("histories", arguments, result)), 5: _error("histories", arguments, "budget-exceeded")}


CLI_RECIPE = (
    _req_normal_order,
    _req_normal_order,
    lambda r: _req_histories(r, "json"),
    lambda r: _req_histories(r, "csv"),
    lambda r: _req_histories(r, "json", oracle=True),
    lambda r: _req_histories(r, "json", oracle=True, tight_budget=True),
    lambda r: _req_histories(r, "csv"),
    lambda r: _req_probabilities(r, "json"),
    lambda r: _req_probabilities(r, "csv"),
    lambda r: _req_probabilities(r, "json"),
    _req_undefined_row,
    lambda r: _req_series(r, "plain"),
    lambda r: _req_series(r, "pde"),
    lambda r: _req_series(r, "g"),
    _req_oscillator,
    _req_oscillator,
    _req_parse_error,
    _req_parse_error,
    _req_normal_order,
    _req_deep_oracle,
)


def cli_cycle(rng):
    jobs = [("cli",) + make(rng) for make in CLI_RECIPE]
    rng.shuffle(jobs)
    return jobs


def check_cli(job, returncode: int, stdout: bytes, stderr: bytes) -> str:
    """'ok', 'wrong' (a documented exit with the wrong result) or 'failed'
    (a traceback or an undocumented exit code)."""
    expected = job[2]
    if returncode not in DOCUMENTED_EXITS or b"Traceback" in stderr:
        return "failed"
    if returncode not in expected:
        return "wrong"
    want = expected[returncode]
    if returncode == 2:
        return "ok" if not stdout and stderr.startswith(b"error:") else "wrong"
    if returncode in (3, 5):
        try:
            record = json.loads(stdout)
        except ValueError:
            return "wrong"
        record.get("error", {}).pop("message", None)
        return "ok" if record == want else "wrong"
    return "ok" if stdout == want else "wrong"


# small fixed jobs run once before timing starts
_H = (("XD", Fraction(1)), ("X", Fraction(1)), ("D", Fraction(1)))
WARMUP = {
    "histories-mix": [("cbo", _H, 5, 1), ("prob", _H, 5, 1), ("search", _H, 2, 1, SEARCH_BUDGET)],
    "normal-order-mix": [("tower", (("DDDXXX", Fraction(1)),)), ("word", (("DXDDXX", Fraction(1)),)), ("pow", _H, 2)],
    "series-check": [("bn", _H, 3), ("conj", _H, 2, 8), ("g", _H, 2, 3, 3), ("osc", Fraction(1, 2), 2, 3, 3), ("pde", _H, 2)],
    "cli-requests": [
        ("cli", ("normal-order", "D X"), {0: _json(_record("normal-order", {"expr": "D X"}, {"coefficients": _nf_entries(ref.word_nf("DX"), "k", "l")}))})
    ],
}


WORKLOADS = {
    "histories-mix": histories_cycle,
    "normal-order-mix": normal_order_cycle,
    "series-check": series_cycle,
    "cli-requests": cli_cycle,
}

# (cycles in the job list, cycles in the pass that the traced run measures);
# the list is long enough that a timed run rarely repeats a job
CYCLES = {"histories-mix": (20, 6), "normal-order-mix": (30, 8), "series-check": (40, 12), "cli-requests": (10, 3)}


def make_jobs(workload: str, seed: int) -> tuple[list, int, int]:
    """(job list, cycle length, jobs in one traced pass) for a workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    n_list, n_pass = CYCLES[workload]
    cycles = [WORKLOADS[workload](rng) for _ in range(n_list)]
    return [job for cycle in cycles for job in cycle], len(cycles[0]), n_pass * len(cycles[0])
