from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylurn import (
    BiPoly,
    BudgetExceededError,
    HistoryTable,
    NonIntegerWeightError,
    Process,
    UndefinedRowError,
    Word,
    bn_sequence,
    count_by_operator,
    count_by_search,
    history_counts_from_normal_form,
    probabilities,
)

DX = Process({Word("DX"): 1})
XD = Process({Word("XD"): 1})

words = st.text(alphabet="XD", min_size=1, max_size=3).map(Word)
small_processes = st.dictionaries(words, st.integers(1, 2), min_size=1, max_size=2).map(Process)
rational_weights = st.builds(Fraction, st.integers(1, 2), st.integers(1, 3))
rational_processes = st.dictionaries(words, rational_weights, min_size=1, max_size=2).map(Process)


class TestCountByOperator:
    def test_fig_counts(self):
        # putting a ball in then taking one out admits one extra history
        assert count_by_operator(DX, 1, 3) == {3: 4}
        assert count_by_operator(XD, 1, 3) == {3: 3}

    def test_long_word(self):
        # X^2 D^3 X^3 D on x^l gives (l+2)(l+1)l^2 at x^(l+1)
        h = Process({Word("XXDDDXXXD"): 1})
        assert count_by_operator(h, 1, 2) == {3: 48}

    def test_zero_steps(self):
        assert count_by_operator(DX, 0, 5) == {5: 1}

    def test_annihilation(self):
        assert count_by_operator(Process({Word("D"): 1}), 1, 0) == {}

    @given(st.text(alphabet="XD", min_size=1, max_size=6).map(Word), st.integers(0, 5))
    @settings(max_examples=80)
    def test_single_step_is_per_generator_product(self, w, l):
        # each D contributes a factor of the current ball count, each X a 1
        balls, product = l, 1
        for gen in reversed(w.letters):
            if gen == "X":
                balls += 1
            else:
                product *= balls
                balls -= 1
        expected = {balls: product} if product else {}
        assert count_by_operator(Process({w: 1}), 1, l) == expected


class TestCountBySearch:
    def test_fig_counts(self):
        assert count_by_search(DX, 1, 3) == {3: 4}
        assert count_by_search(XD, 1, 3) == {3: 3}

    def test_empty_urn_withdrawal(self):
        assert count_by_search(Process({Word("D"): 1}), 1, 0) == {}

    def test_weighted_process(self):
        h = Process({Word("XXXD"): 2, Word("XDDX"): 5})
        assert count_by_search(h, 1, 1) == {3: 2, 1: 10}

    def test_weight_scale(self):
        h = Process({Word("XD"): 1, Word("X"): Fraction(1, 2)})
        found = count_by_search(h, 2, 2, weight_scale=2)
        expected = {k: c * 4 for k, c in count_by_operator(h, 2, 2).items()}
        assert found == expected

    def test_non_integer_weight(self):
        h = Process({Word("X"): Fraction(1, 3)})
        with pytest.raises(NonIntegerWeightError):
            count_by_search(h, 1, 0, weight_scale=2)

    def test_budget(self):
        h = Process({Word("DX"): 3, Word("XD"): 3})
        with pytest.raises(BudgetExceededError):
            count_by_search(h, 3, 4, budget=50)

    def test_negative_budget(self):
        for n in (0, 1):
            with pytest.raises(ValueError):
                count_by_search(XD, n, 1, budget=-1)
        assert count_by_search(XD, 0, 1, budget=0) == {1: 1}

    @given(rational_processes, st.integers(0, 2), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_operator_route(self, h, n, l):
        s = lcm(*(w.denominator for w in h.terms.values()))
        expected = {k: c * s**n for k, c in count_by_operator(h, n, l).items()}
        assert count_by_search(h, n, l, weight_scale=s) == expected


class TestNormalFormExtraction:
    def test_single_step_inspection(self):
        # b = xy is the first power of XD: l histories from every l
        table = history_counts_from_normal_form(BiPoly({(1, 1): 1}), 5, 5, n=1)
        assert table.counts == {(l, l): l for l in range(1, 6)}

    def test_zero_steps(self):
        table = history_counts_from_normal_form(BiPoly.one(), 3, 3)
        assert table.counts == {(l, l): 1 for l in range(4)}
        assert table.n is None

    def test_second_power_of_xd(self):
        b2 = BiPoly({(2, 2): 1, (1, 1): 1})
        table = history_counts_from_normal_form(b2, 4, 4, n=2)
        assert table.row(3) == {3: 9}
        assert table.row(3)[3] == count_by_operator(XD, 2, 3)[3]

    @given(small_processes, st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_consistent_with_operator_route(self, h, n):
        b_n = bn_sequence(h, n)[n]
        table = history_counts_from_normal_form(b_n, 8, 10, n=n)
        for l in range(9):
            expected = {
                k: c for k, c in count_by_operator(h, n, l).items() if k <= 10
            }
            assert table.row(l) == expected


class TestProbabilities:
    def test_deterministic_insertion(self):
        h = Process({Word("X"): 1})
        for n, l in [(1, 0), (3, 1), (5, 2)]:
            table = HistoryTable.from_rows({l: count_by_operator(h, n, l)}, n=n)
            assert probabilities(table, l).probs == {l + n: 1}

    def test_undefined_row(self):
        h = Process({Word("D"): 1})
        table = HistoryTable.from_rows({0: count_by_operator(h, 1, 0)}, n=1)
        with pytest.raises(UndefinedRowError):
            probabilities(table, 0)

    def test_mixed_process(self):
        h = Process({Word("XD"): 1, Word("X"): 1})
        table = HistoryTable.from_rows({2: count_by_operator(h, 1, 2)}, n=1)
        row = probabilities(table, 2)
        assert row.probs == {2: Fraction(2, 3), 3: Fraction(1, 3)}
        assert row.n == 1

    @given(small_processes, st.integers(0, 2), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_rows_normalize(self, h, n, l):
        counts = count_by_operator(h, n, l)
        table = HistoryTable.from_rows({l: counts}, n=n)
        if not counts:
            with pytest.raises(UndefinedRowError):
                probabilities(table, l)
        else:
            assert sum(probabilities(table, l).probs.values()) == 1
