from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylurn import (
    BiPoly,
    InsufficientTruncationError,
    Process,
    Word,
    apply_shifted,
    bn_sequence,
    conjugate_check,
    normal_order,
)
from weylurn.poly import box_product

X_ = BiPoly.monomial(1, 0)
Y_ = BiPoly.monomial(0, 1)

words = st.text(alphabet="XD", max_size=4).map(Word)
processes = st.dictionaries(words, st.integers(1, 3), min_size=0, max_size=3).map(Process)
rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
bipolys = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), rationals, max_size=6
).map(BiPoly)


# independent oracle for criterion 9: S(n+1, k) = k S(n, k) + S(n, k-1)
def stirling_second(n_max):
    table = [[0] * (n_max + 2) for _ in range(n_max + 1)]
    table[0][0] = 1
    for n in range(n_max):
        for k in range(n + 2):
            table[n + 1][k] = k * table[n][k] + (table[n][k - 1] if k else 0)
    return table


class TestBiPoly:
    def test_canonical_zero_drop(self):
        assert BiPoly({(1, 1): 0}).coeffs == {}
        assert (BiPoly({(1, 0): 1}) - BiPoly({(1, 0): 1})) == 0

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            BiPoly({(-1, 0): 1})

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            BiPoly({(0, 0): 0.25})

    def test_ring_ops(self):
        p = X_ + Y_
        assert p * p == BiPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})
        assert p ** 3 == p * p * p
        assert 2 * p == BiPoly({(1, 0): 2, (0, 1): 2})
        assert p - p == 0
        assert (p + 1)[(0, 0)] == 1

    def test_restrict_and_degree(self):
        p = BiPoly({(3, 3): 1, (1, 0): 1})
        assert p.restrict_total_degree(2) == BiPoly({(1, 0): 1})

    def test_str(self):
        assert str(BiPoly({(2, 2): 1, (1, 1): 4, (0, 0): 2})) == "x^2 y^2 + 4 x y + 2"
        assert str(BiPoly.zero()) == "0"


class TestBoxProduct:
    @given(st.lists(st.tuples(bipolys, bipolys), max_size=3), st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=80)
    def test_equals_full_product_then_filter(self, pairs, dx, dy):
        total = {}
        for a, b in pairs:
            full = {}
            for (i1, j1), c1 in a.coeffs.items():
                for (i2, j2), c2 in b.coeffs.items():
                    key = (i1 + i2, j1 + j2)
                    full[key] = full.get(key, 0) + c1 * c2
                    total[key] = total.get(key, 0) + c1 * c2
            assert a * b == BiPoly(full)
        expected = {key: c for key, c in total.items() if c and key[0] <= dx and key[1] <= dy}
        assert box_product(pairs, dx, dy).coeffs == expected


class TestApplyShifted:
    def test_xd_on_one(self):
        h = Process({Word("XD"): 1})
        assert apply_shifted(h, BiPoly.one()) == X_ * Y_

    def test_x_on_one(self):
        assert apply_shifted(Process({Word("X"): 1}), BiPoly.one()) == X_

    def test_xd_on_xy(self):
        h = Process({Word("XD"): 1})
        assert apply_shifted(h, X_ * Y_) == BiPoly({(2, 2): 1, (1, 1): 1})

    @given(processes, st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=40)
    def test_linear_in_argument(self, h, a, b):
        p, q = BiPoly({(1, 1): 1, (0, 0): 1}), BiPoly({(2, 0): 1})
        assert apply_shifted(h, a * p + b * q) == a * apply_shifted(h, p) + b * apply_shifted(h, q)

    @given(processes, processes)
    @settings(max_examples=40)
    def test_linear_in_process(self, h1, h2):
        p = BiPoly({(1, 1): 1, (1, 0): 2})
        assert apply_shifted(h1 + h2, p) == apply_shifted(h1, p) + apply_shifted(h2, p)


class TestBnSequence:
    def test_xd(self):
        seq = bn_sequence(Process({Word("XD"): 1}), 2)
        assert seq == [BiPoly.one(), X_ * Y_, BiPoly({(2, 2): 1, (1, 1): 1})]

    def test_base_case(self):
        assert bn_sequence(Process({Word("DDX"): 7}), 0) == [BiPoly.one()]

    def test_pure_withdrawal(self):
        assert bn_sequence(Process({Word("D"): 1}), 2) == [BiPoly.one(), Y_, Y_ * Y_]

    @given(processes, st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_normal_order_of_power(self, h, n):
        assert bn_sequence(h, n)[n] == normal_order(h ** n)

    def test_stirling_diagonal(self):
        table = stirling_second(8)
        seq = bn_sequence(Process({Word("XD"): 1}), 8)
        for n, b in enumerate(seq):
            expected = {(k, k): table[n][k] for k in range(n + 1) if table[n][k]}
            assert b.coeffs == expected


class TestConjugateCheck:
    def test_xd_first_power(self):
        h = Process({Word("XD"): 1})
        assert conjugate_check(h, 1, 10) == X_ * Y_

    def test_zero_process(self):
        assert conjugate_check(Process.zero(), 3, 8) == 0

    def test_single_word(self):
        h = Process({Word("XXXD"): 1})
        assert conjugate_check(h, 1, 10) == BiPoly({(3, 1): 1})

    def test_insufficient_truncation(self):
        h = Process({Word("XXXD"): 1})
        with pytest.raises(InsufficientTruncationError):
            conjugate_check(h, 3, 10)

    @given(processes, st.integers(0, 3))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_recurrence_on_region(self, h, n):
        bound = 12
        region = bound - n * h.max_word_len
        if region < 0:
            with pytest.raises(InsufficientTruncationError):
                conjugate_check(h, n, bound)
            return
        b_n = bn_sequence(h, n)[n]
        assert conjugate_check(h, n, bound) == b_n.restrict_total_degree(region)
