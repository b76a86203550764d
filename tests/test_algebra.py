from fractions import Fraction
from itertools import product
from math import comb, factorial, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rewrite_oracle import rewrite_normal_order

from weylurn import (
    BiPoly,
    Process,
    Word,
    apply_operator,
    count_by_operator,
    double_dot,
    normal_order,
    normal_order_word,
    parse,
    weyl_closed_form,
)
from weylurn.algebra import normal_order_powers


# independent oracle: run the letters right to left on a single monomial
def run_word_on_monomial(letters, m):
    coeff, e = 1, m
    for gen in reversed(letters):
        if gen == "X":
            e += 1
        else:
            coeff *= e
            e -= 1
            if coeff == 0:
                return {}
    return {e: coeff}


# independent oracle: X^k D^l x^m = falling_factorial(m, l) x^(m-l+k)
def run_normal_form_on_monomial(nf, m):
    out = {}
    for (k, l), c in nf.coeffs.items():
        ff = perm(m, l)
        if ff:
            e = m - l + k
            out[e] = out.get(e, 0) + c * ff
    return {e: c for e, c in out.items() if c}


# independent oracle: every sequence of n words of h, concatenated, with
# the product of their weights; equal words merge by adding weights
def naive_power(h, n):
    out = {}
    for choice in product(h.terms.items(), repeat=n):
        letters = "".join(w.letters for w, _ in choice)
        weight = Fraction(1)
        for _, c in choice:
            weight *= c
        out[letters] = out.get(letters, 0) + weight
    return out


# generalised Stirling numbers of (X^r D^r)^n = sum_k S_rr(n,k) X^k D^k
# (Blasiak, Penson & Solomon, Phys. Lett. A 309 (2003))
def stirling_rr(r, n, k):
    total = sum((-1) ** p * comb(k, p) * perm(p, r) ** n for p in range(r, k + 1))
    return Fraction((-1) ** k * total, factorial(k))


def alternating_runs(first, exponents):
    other = "D" if first == "X" else "X"
    return Word("".join((first, other)[i % 2] * e for i, e in enumerate(exponents)))


words = st.text(alphabet="XD", max_size=6).map(Word)
run_words = st.builds(
    alternating_runs, st.sampled_from("XD"), st.lists(st.integers(1, 8), max_size=6)
)
weights = st.fractions(min_value=Fraction(0), max_value=4, max_denominator=4)
processes = st.dictionaries(words, weights, max_size=3).map(Process)


class TestWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            Word("XAD")

    def test_concatenation_and_power(self):
        assert Word("X") * Word("DD") == Word("XDD")
        assert Word("XD") ** 3 == Word("XDXDXD")
        assert Word() * Word("X") == Word("X")

    def test_excess(self):
        assert Word("XXDDDXXXD").excess == 1
        assert Word().excess == 0

    @given(words, words)
    def test_excess_additive(self, u, v):
        assert (u * v).excess == u.excess + v.excess


class TestProcess:
    def test_merges_like_terms(self):
        p = Process([(Word("X"), 1), (Word("X"), 2)])
        assert p == Process({Word("X"): 3})

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            Process({Word("X"): -1})

    def test_rejects_float_weight(self):
        with pytest.raises(TypeError):
            Process({Word("X"): 0.5})

    def test_drops_zero_weight(self):
        assert Process({Word("X"): 0}) == Process.zero()

    def test_product_concatenates(self):
        p = Process({Word("XD"): 2}) * Process({Word("X"): 3})
        assert p == Process({Word("XDX"): 6})

    def test_power(self):
        h = Process({Word("X"): 1, Word("D"): 1})
        assert h ** 0 == Process.identity()
        assert h ** 2 == Process({Word("XX"): 1, Word("XD"): 1, Word("DX"): 1, Word("DD"): 1})

    @given(processes, st.integers(0, 4))
    @settings(max_examples=80)
    def test_power_matches_naive_expansion(self, h, n):
        got = h ** n
        assert {w.letters: c for w, c in got.terms.items()} == naive_power(h, n)
        assert all(type(c) is Fraction and c > 0 for c in got.terms.values())


class TestNormalOrderWord:
    def test_commutator(self):
        assert normal_order_word(Word("DX")).coeffs == {(1, 1): 1, (0, 0): 1}

    def test_identity(self):
        assert normal_order_word(Word()).coeffs == {(0, 0): 1}

    def test_ddxx(self):
        # frozen from the monomial-action oracle: D^2 X^2 x^l = (l+2)(l+1) x^l
        assert normal_order_word(Word("DDXX")).coeffs == {(2, 2): 1, (1, 1): 4, (0, 0): 2}

    @given(run_words)
    @settings(max_examples=150)
    def test_matches_rewrite_oracle_on_runs(self, w):
        assert normal_order_word(w).coeffs == rewrite_normal_order(w.letters)

    @given(words)
    @settings(max_examples=150)
    def test_operator_equivalence(self, w):
        nf = normal_order_word(w)
        for m in range(7):
            assert run_word_on_monomial(w.letters, m) == run_normal_form_on_monomial(nf, m)

    @given(words)
    def test_excess_conservation_and_integrality(self, w):
        nf = normal_order_word(w)
        for (k, l), c in nf.coeffs.items():
            assert k - l == w.excess
            assert l <= w.n_d
            assert c.denominator == 1 and c > 0

    @given(words, words)
    @settings(max_examples=60)
    def test_double_dot_diverges_on_inversions(self, u, v):
        w = u * Word("DX") * v
        single = Process({w: 1})
        assert double_dot(single) != normal_order_word(w)
        assert double_dot(single).coeffs == {(w.n_x, w.n_d): 1}


class TestNormalOrderProcess:
    def test_worked_example(self):
        # XD^2X = X^2D^2 + 2XD by hand, then weights 2 and 5
        p = Process({Word("XXXD"): 2, Word("XDDX"): 5})
        assert normal_order(p).coeffs == {(3, 1): 2, (2, 2): 5, (1, 1): 10}

    def test_zero_process(self):
        assert normal_order(Process.zero()) == 0

    def test_already_normal(self):
        assert normal_order(Process({Word("XD"): 1})).coeffs == {(1, 1): 1}

    def test_rational_weights(self):
        p = Process({Word("DX"): Fraction(1, 2)})
        assert normal_order(p).coeffs == {(1, 1): Fraction(1, 2), (0, 0): Fraction(1, 2)}

    @given(processes, processes, st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=60)
    def test_linearity(self, p, q, a, b):
        lhs = normal_order(a * p + b * q)
        rhs = a * normal_order(p) + b * normal_order(q)
        assert lhs == rhs

    @pytest.mark.parametrize("r", range(1, 4))
    @pytest.mark.parametrize("n", range(1, 6))
    def test_generalized_stirling_closed_form(self, r, n):
        expected = {(k, k): stirling_rr(r, n, k) for k in range(n * r + 2)}
        got = normal_order(parse(f"X^{r} D^{r}") ** n)
        assert got.coeffs == {key: c for key, c in expected.items() if c}

    @given(processes, st.integers(0, 4))
    @settings(max_examples=60)
    def test_powers_are_normal_forms_of_powers(self, h, n):
        assert normal_order_powers(h, n) == [normal_order(h ** m) for m in range(n + 1)]

    def test_powers_reject_negative_order(self):
        with pytest.raises(ValueError):
            normal_order_powers(Process.identity(), -1)


class TestDoubleDot:
    def test_dx(self):
        assert double_dot(Process({Word("DX"): 1})).coeffs == {(1, 1): 1}

    def test_agrees_when_already_normal(self):
        p = Process({Word("XD"): 1})
        assert double_dot(p) == normal_order(p)

    def test_commutative_reordering(self):
        assert double_dot(Process({Word("DDXX"): 1})).coeffs == {(2, 2): 1}


class TestWeylClosedForm:
    def test_small_cases(self):
        assert weyl_closed_form(1, 1).coeffs == {(1, 1): 1, (0, 0): 1}
        assert weyl_closed_form(0, 3).coeffs == {(3, 0): 1}
        assert weyl_closed_form(2, 2).coeffs == {(2, 2): 1, (1, 1): 4, (0, 0): 2}

    @pytest.mark.parametrize("l", range(9))
    @pytest.mark.parametrize("k", range(9))
    def test_agrees_with_rewriter(self, l, k):
        assert weyl_closed_form(l, k).coeffs == rewrite_normal_order("D" * l + "X" * k)


class TestAction:
    @given(words, st.integers(0, 6))
    @settings(max_examples=80)
    def test_act_word_matches_oracle(self, w, m):
        expected = run_word_on_monomial(w.letters, m)
        assert count_by_operator(Process({w: 1}), 1, m) == expected
        got = apply_operator(Process({w: 1}), BiPoly.monomial(m, 0))
        assert got.coeffs == {(e, 0): c for e, c in expected.items()}
