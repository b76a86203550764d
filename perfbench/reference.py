"""Exact reference values computed without the weylurn package.

The benchmark checks every job against these.  They follow routes that
share no code with the library: normal forms come from folding a word
letter by letter with (X^k D^l) X = X^(k+1) D^l + l X^k D^(l-1), products
of normal forms use D^b X^c = sum_j C(b,j) C(c,j) j! X^(c-j) D^(b-j), and
history counts come from the falling-factorial action
X^k D^l x^m = m!/(m-l)! x^(m-l+k) on integer coefficients.

A process is given as a tuple of (letters, weight) terms, letters a
string over "X"/"D" read as an operator product (rightmost acts first).
A normal form is a dict (k, l) -> nonzero coefficient of X^k D^l.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm, perm


def _add(acc: dict, key, value) -> None:
    s = acc.get(key, 0) + value
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def word_nf(letters: str) -> dict:
    out = {(0, 0): 1}
    for gen in letters:
        nxt: dict = {}
        for (k, l), c in out.items():
            if gen == "D":
                _add(nxt, (k, l + 1), c)
            else:
                _add(nxt, (k + 1, l), c)
                if l:
                    _add(nxt, (k, l - 1), l * c)
        out = nxt
    return out


def process_nf(terms) -> dict:
    out: dict = {}
    for letters, weight in terms:
        for key, c in word_nf(letters).items():
            _add(out, key, Fraction(weight) * c)
    return out


@cache
def _contractions(b: int, c: int) -> tuple:
    # D^b X^c = sum_j C(b,j) C(c,j) j! X^(c-j) D^(b-j)
    return tuple((j, comb(b, j) * comb(c, j) * factorial(j)) for j in range(min(b, c) + 1))


def nf_product(a: dict, b: dict) -> dict:
    out: dict = {}
    for (k1, l1), c1 in a.items():
        for (k2, l2), c2 in b.items():
            for j, w in _contractions(l1, k2):
                _add(out, (k1 + k2 - j, l1 + l2 - j), c1 * c2 * w)
    return out


def nf_powers(nf: dict, n: int) -> list[dict]:
    """[NF^0, ..., NF^n], multiplied out in integers scaled by the lcm of
    the coefficient denominators."""
    scale = lcm(1, *(Fraction(c).denominator for c in nf.values()))
    ints = {key: int(Fraction(c) * scale) for key, c in nf.items()}
    seq = [{(0, 0): 1}]
    for _ in range(n):
        seq.append(nf_product(seq[-1], ints))
    return [{key: Fraction(v, scale**i) for key, v in p.items()} for i, p in enumerate(seq)]


def history_counts(nf: dict, n: int, l: int) -> dict[int, Fraction]:
    """Coefficients of H^n x^l, H given by its normal form, in integers
    scaled by the lcm of the coefficient denominators."""
    scale = lcm(1, *(Fraction(c).denominator for c in nf.values()))
    ints = [(k, ll, int(Fraction(c) * scale)) for (k, ll), c in nf.items()]
    cur = {l: 1}
    for _ in range(n):
        nxt: dict = {}
        for m, v in cur.items():
            for k, ll, c in ints:
                if ll <= m:
                    _add(nxt, m - ll + k, c * v * perm(m, ll))
        cur = nxt
    denom = scale**n
    return {m: Fraction(v, denom) for m, v in cur.items()}


def search_tally(terms, n: int, l: int, scale: int) -> tuple[int, dict[int, int]]:
    """(nodes, counts) of the labelled-ball search, counted without search.

    A search node is one call of its per-letter step.  Program p (a word
    reversed, one copy per unit of scaled weight) run from an urn of m
    balls visits 1 + sum over its letters of the number of partial paths
    after that letter, and ends in (final size, number of paths).
    """
    programs = []
    for letters, weight in terms:
        programs.extend([letters[::-1]] * int(Fraction(weight) * scale))
    nodes = 0
    level = {l: 1}
    for _ in range(n):
        nxt: dict = {}
        for m, mult in level.items():
            for ops in programs:
                paths, size = mult, m
                nodes += mult
                for gen in ops:
                    if gen == "X":
                        size += 1
                    else:
                        paths *= size
                        size -= 1
                    if not paths:
                        break
                    nodes += paths
                if paths:
                    _add(nxt, size, paths)
        level = nxt
    return nodes, level


def g_coefficients(powers: list[dict], dx: int, dy: int) -> dict:
    """(i, j, n) -> coefficient of x^i y^j t^n in sum_n B_n t^n/n! e^(xy)."""
    out: dict = {}
    for n, b in enumerate(powers):
        for (k, l), c in b.items():
            for m in range(min(dx - k, dy - l) + 1):
                _add(out, (k + m, l + m, n), Fraction(c) / (factorial(m) * factorial(n)))
    return out


def oscillator_terms(g: Fraction):
    return (("XD", Fraction(1)), ("X", g), ("D", g))
