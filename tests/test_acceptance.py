"""Acceptance suite: one test per criterion, all checks exact equality.

The terminal summary (see conftest) prints one PASS/FAIL line per
criterion after the run.
"""

import random
from fractions import Fraction

import pytest

from weylurn import (
    HistoryTable,
    InsufficientTruncationError,
    LambdaSeries,
    Process,
    UndefinedRowError,
    Word,
    bn_sequence,
    conjugate_check,
    count_by_operator,
    count_by_search,
    double_dot,
    driven_oscillator_closed_form,
    g_series,
    normal_order,
    parse,
    pde_residual,
    pretty,
    probabilities,
)

H_SET = ["X D", "X + D", "X D + X + D", "X^2 D", "D^2 X", "2 X^3 D + 5 X D^2 X"]

SWEEP_SEED = 20260810


def sweep_cases(count=200):
    """Random integer-weight processes: <=3 terms, words of length 1..4,
    weights 1..3, paired with n <= 3 and l <= 4.  Deterministic seed."""
    rng = random.Random(SWEEP_SEED)
    cases = []
    for _ in range(count):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            letters = "".join(rng.choice("XD") for _ in range(rng.randint(1, 4)))
            pairs.append((Word(letters), rng.randint(1, 3)))
        cases.append((Process(pairs), rng.randint(0, 3), rng.randint(0, 4)))
    return cases


def stirling_second(n_max):
    # independent oracle: S(n+1, k) = k S(n, k) + S(n, k-1)
    table = [[0] * (n_max + 2) for _ in range(n_max + 1)]
    table[0][0] = 1
    for n in range(n_max):
        for k in range(n + 2):
            table[n + 1][k] = k * table[n][k] + (table[n][k - 1] if k else 0)
    return table


def test_c01_commutator_vs_double_dot():
    ordered = normal_order(parse("D X"))
    assert ordered.coeffs == {(1, 1): 1, (0, 0): 1}
    dotted = double_dot(parse("D X"))
    assert dotted.coeffs == {(1, 1): 1}
    assert ordered != dotted


def test_c02_one_step_history_counts():
    dx, xd = parse("D X"), parse("X D")
    assert count_by_operator(dx, 1, 3) == {3: 4}
    assert count_by_search(dx, 1, 3) == {3: 4}
    assert count_by_operator(xd, 1, 3) == {3: 3}
    assert count_by_search(xd, 1, 3) == {3: 3}


def test_c03_worked_operator_actions():
    long_word = parse("X^2 D^3 X^3 D")
    weighted = parse("2 X^3 D + 5 X D^2 X")
    for l in range(9):
        expected = {l + 1: (l + 2) * (l + 1) * l * l} if l else {}
        assert count_by_operator(long_word, 1, l) == expected
        expected = {k: c for k, c in {l + 2: 2 * l, l: 5 * (l + 1) * l}.items() if c}
        assert count_by_operator(weighted, 1, l) == expected


def test_c04_search_equals_operator_on_random_sweep():
    for h, n, l in sweep_cases():
        assert count_by_search(h, n, l, budget=10**8) == count_by_operator(h, n, l)


def test_c05_recurrence_equals_rewriting():
    for text in H_SET:
        h = parse(text)
        seq = bn_sequence(h, 5)
        for n in range(6):
            assert seq[n] == normal_order(h**n), (text, n)


def test_c06_conjugation_identity():
    bound = 14
    for text in H_SET:
        h = parse(text)
        seq = bn_sequence(h, 4)
        for n in range(5):
            region = bound - n * h.max_word_len
            if region < 0:
                with pytest.raises(InsufficientTruncationError):
                    conjugate_check(h, n, bound)
                continue
            assert conjugate_check(h, n, bound) == seq[n].restrict_total_degree(region), (
                text,
                n,
            )


def test_c07_pde_residual_vanishes():
    # the series comes from normal ordering, not from the recurrence being checked
    for text in H_SET:
        h = parse(text)
        series = LambdaSeries(tuple(normal_order(h**n) for n in range(7)))
        assert pde_residual(h, series).is_zero(), text


@pytest.mark.parametrize("g", [0, 1, Fraction(1, 2), 2])
def test_c08_driven_oscillator_closed_form(g):
    h = Process({Word("XD"): 1, Word("X"): g, Word("D"): g})
    closed = driven_oscillator_closed_form(g, 6, 8, 8)
    recurrence = g_series(h, 6, 8, 8)
    assert closed.first_mismatch(recurrence) is None


def test_c09_stirling_coefficients():
    table = stirling_second(10)
    for n, b in enumerate(bn_sequence(parse("X D"), 10)):
        expected = {(k, k): table[n][k] for k in range(n + 1) if table[n][k]}
        assert b.coeffs == expected, n


def test_c10_probability_rows_normalize():
    defined_rows = 0
    for h, n, l in sweep_cases():
        counts = count_by_operator(h, n, l)
        table = HistoryTable.from_rows({l: counts}, n=n)
        if not counts:
            with pytest.raises(UndefinedRowError):
                probabilities(table, l)
            continue
        defined_rows += 1
        assert sum(probabilities(table, l).probs.values()) == 1
    assert defined_rows > 0


def test_c11_parser_round_trip():
    rng = random.Random(SWEEP_SEED)
    for _ in range(500):
        pairs = []
        for _ in range(rng.randint(0, 4)):
            letters = "".join(rng.choice("XD") for _ in range(rng.randint(0, 5)))
            pairs.append((Word(letters), Fraction(rng.randint(1, 9), rng.randint(1, 9))))
        p = Process(pairs)
        assert parse(pretty(p)) == p
    examples = [
        "2 X^3 D + 5 X D^2 X",
        "X D + 1/2 X + 1/2 D",
        "X D",
        "D X",
        "D^2 X^2",
        "X D + X",
        "X^2 D",
        "D^2 X",
        "X + D",
        "X",
        "D",
        "0",
        "",
        "3",
        "2*X^4 + 1/3 D",
    ]
    for text in examples:
        once = pretty(parse(text))
        assert pretty(parse(once)) == once, text
