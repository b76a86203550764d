from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylurn import (
    BiPoly,
    LambdaSeries,
    Process,
    TriSeries,
    Word,
    b_series,
    count_by_operator,
    driven_oscillator_closed_form,
    g_series,
    pde_residual,
)

XD = Process({Word("XD"): 1})

words = st.text(alphabet="XD", min_size=1, max_size=3).map(Word)
small_processes = st.dictionaries(words, st.integers(1, 2), min_size=0, max_size=2).map(Process)


class TestLambdaSeries:
    def test_orders(self):
        s = b_series(XD, 3)
        assert s.order == 3
        assert len(s.terms) == 4
        assert s.terms[0] == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LambdaSeries(())


class TestBSeries:
    def test_xd(self):
        s = b_series(XD, 2)
        assert s.terms == (BiPoly.one(), BiPoly({(1, 1): 1}), BiPoly({(2, 2): 1, (1, 1): 1}))

    def test_order_zero(self):
        assert b_series(Process({Word("DDX"): 4}), 0).terms == (BiPoly.one(),)

    def test_x_plus_d(self):
        h = Process({Word("X"): 1, Word("D"): 1})
        s = b_series(h, 2)
        assert s.terms[1] == BiPoly({(1, 0): 1, (0, 1): 1})
        assert s.terms[2] == BiPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1, (0, 0): 1})

    def test_zero_process(self):
        s = b_series(Process.zero(), 3)
        assert s.terms == (BiPoly.one(), BiPoly.zero(), BiPoly.zero(), BiPoly.zero())


class TestPdeResidual:
    @given(small_processes, st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_zero_on_b_series(self, h, order):
        assert pde_residual(h, b_series(h, order)).is_zero()

    def test_nonsolution(self):
        s = LambdaSeries((BiPoly.one(), BiPoly.zero()))
        residual = pde_residual(XD, s)
        assert residual.order == 0
        assert residual.terms[0] == BiPoly({(1, 1): -1})

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            pde_residual(XD, LambdaSeries((BiPoly.one(),)))


class TestTriSeries:
    def test_truncates_and_canonicalizes(self):
        t = TriSeries(2, 2, 1, {(3, 0, 0): 1, (1, 1, 0): 2, (0, 0, 2): 5, (2, 2, 1): 0})
        assert t.coeffs == {(1, 1, 0): Fraction(2)}

    def test_mul_intersects_bounds(self):
        a = TriSeries(4, 4, 2, {(1, 0, 0): 1})
        b = TriSeries(2, 3, 3, {(1, 1, 1): 1})
        prod = a * b
        assert prod.bounds == (2, 3, 2)
        assert prod.coeffs == {(2, 1, 1): Fraction(1)}

    def test_add_intersects_bounds(self):
        a = TriSeries(4, 2, 3, {(4, 0, 0): 1, (1, 1, 1): 2, (0, 0, 3): 1, (2, 2, 0): 1})
        b = TriSeries(2, 3, 2, {(1, 1, 1): -2, (2, 3, 0): 1, (0, 2, 2): 5})
        total = a + b
        assert total.bounds == (2, 2, 2)
        assert total.coeffs == {(2, 2, 0): Fraction(1), (0, 2, 2): Fraction(5)}
        assert b + a == total

    def test_getitem_outside_box_is_zero(self):
        t = TriSeries(1, 1, 1, {(0, 0, 0): 1, (1, 1, 1): 2})
        assert (t[0, 0, 0], t[1, 1, 1]) == (1, 2)
        for key in [(2, 0, 0), (0, 2, 1), (0, 0, 2), (1, 1, -1), (0, 0, -2), (-1, 0, 0)]:
            assert t[key] == 0, key

    def test_first_mismatch_ordering(self):
        a = TriSeries(2, 2, 2, {(0, 0, 1): 1, (2, 2, 2): 1})
        b = TriSeries(2, 2, 2, {(0, 0, 1): 1, (1, 0, 2): 3})
        key, va, vb = a.first_mismatch(b)
        assert key == (1, 0, 2)
        assert (va, vb) == (0, 3)

    def test_first_mismatch_requires_same_box(self):
        with pytest.raises(ValueError):
            TriSeries(1, 1, 1).first_mismatch(TriSeries(2, 1, 1))


class TestGSeries:
    def test_xd_inspection_coefficient(self):
        # coefficient of x^3 y^3 t: 3 one-step histories scaled by 1/(3! 1!)
        g = g_series(XD, 2, 4, 4)
        assert g[3, 3, 1] == Fraction(3, 6)

    def test_step_free_slice_is_exp_xy(self):
        g = g_series(Process({Word("DX"): 2}), 2, 5, 5)
        for k in range(6):
            for l in range(6):
                want = Fraction(1, factorial(l)) if k == l else 0
                assert g[k, l, 0] == want

    def test_pure_insertion(self):
        g = g_series(Process({Word("X"): 1}), 3, 6, 4)
        for l in range(4):
            for n in range(4):
                if l + n <= 6:
                    assert g[l + n, l, n] == Fraction(1, factorial(l) * factorial(n))

    @given(small_processes, st.integers(0, 3), st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_coefficient_extraction_round_trip(self, h, n, l):
        g = g_series(h, 3, 8, 4)
        counts = count_by_operator(h, n, l)
        for k in range(9):
            expected = counts.get(k, Fraction(0))
            assert factorial(l) * factorial(n) * g[k, l, n] == expected


class TestDrivenOscillator:
    def test_reduces_to_pure_inspection_at_zero(self):
        assert driven_oscillator_closed_form(0, 5, 6, 6) == g_series(XD, 5, 6, 6)

    def test_step_free_slice(self):
        t = driven_oscillator_closed_form(Fraction(1, 2), 4, 5, 5)
        for m in range(6):
            assert t[m, m, 0] == Fraction(1, factorial(m))
        assert t[1, 0, 0] == 0

    @pytest.mark.parametrize("g", [0, 1, Fraction(1, 2), 2])
    def test_matches_recurrence_route(self, g):
        h = Process({Word("XD"): 1, Word("X"): g, Word("D"): g})
        closed = driven_oscillator_closed_form(g, 4, 6, 6)
        assert closed.first_mismatch(g_series(h, 4, 6, 6)) is None
