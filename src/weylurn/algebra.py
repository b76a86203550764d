"""Words and weighted processes over the generators X and D, with exact
normal ordering by Weyl contraction over the letter runs of a word.

A word is an operator product read left to right, so the rightmost
generator acts first: Word("XD") applied to an urn first withdraws a
ball (D), then puts one in (X).  On monomials the generators act as
D x^m = m x^(m-1) and X x^m = x^(m+1); withdrawing from an urn of m
distinguishable balls can happen m ways, inserting only one way.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import comb, factorial, lcm

from .poly import BiPoly, _over, as_fraction

__all__ = [
    "D",
    "NormalForm",
    "Process",
    "Word",
    "X",
    "double_dot",
    "normal_order",
    "normal_order_powers",
    "normal_order_word",
    "weyl_closed_form",
]

# A normal form sum c[k,l] X^k D^l shares its data layout with the
# bivariate polynomial sum c[k,l] x^k y^l, so it *is* one.
NormalForm = BiPoly

_ZERO = Fraction(0)
_RUNS = re.compile("X+|D+")


class Word:
    """A finite product of generators, stored as a string over 'X'/'D'.

    The empty word is the identity operator.  Concatenation is the
    operator product: (u * v) applies v first, then u.
    """

    __slots__ = ("letters",)

    def __init__(self, letters: str | Word = ""):
        if isinstance(letters, Word):
            letters = letters.letters
        if letters.strip("XD"):
            raise ValueError(f"word may contain only 'X' and 'D': {letters!r}")
        self.letters = letters

    @classmethod
    def _raw(cls, letters: str) -> Word:
        # internal: letters already known to be over 'X'/'D'
        word = cls.__new__(cls)
        word.letters = letters
        return word

    def __mul__(self, other: Word) -> Word:
        return Word(self.letters + Word(other).letters)

    def __pow__(self, n: int) -> Word:
        if n < 0:
            raise ValueError("negative power")
        return Word(self.letters * n)

    def __len__(self) -> int:
        return len(self.letters)

    def __hash__(self) -> int:
        return hash(self.letters)

    def __eq__(self, other) -> bool:
        if isinstance(other, Word):
            return self.letters == other.letters
        return NotImplemented

    def __repr__(self) -> str:
        return f"Word({self.letters!r})"

    @property
    def n_x(self) -> int:
        return self.letters.count("X")

    @property
    def n_d(self) -> int:
        return self.letters.count("D")

    @property
    def excess(self) -> int:
        """Net ball-count change (#X - #D); additive under concatenation."""
        return self.n_x - self.n_d


X = Word("X")
D = Word("D")


class Process:
    """A finite weighted sum of words, weights positive exact rationals.

    Weights encode relative probabilities of picking each word at a step;
    negative weights are rejected and zero weights dropped, so structurally
    equal processes are semantically equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Word, Fraction] = {}
        for word, weight in items:
            if not isinstance(word, Word):
                word = Word(word)
            weight = as_fraction(weight)
            if weight < 0:
                raise ValueError(f"negative weight {weight} for {word!r}")
            if weight:
                acc[word] = acc.get(word, _ZERO) + weight
        self.terms = acc

    @classmethod
    def _raw(cls, terms: dict[Word, Fraction]) -> Process:
        # internal: trusted terms, every weight a positive Fraction
        process = cls.__new__(cls)
        process.terms = terms
        return process

    @classmethod
    def zero(cls) -> Process:
        return cls()

    @classmethod
    def identity(cls) -> Process:
        return cls({Word(): 1})

    def __add__(self, other: Process) -> Process:
        out = dict(self.terms)
        for word, weight in other.terms.items():
            out[word] = out.get(word, _ZERO) + weight
        return Process(out)

    def __mul__(self, other):
        if isinstance(other, Process):
            # operator product: concatenate words, multiply weights; products
            # of positive weights stay positive, so no term drops out
            out: dict[str, Fraction] = {}
            for u, cu in self.terms.items():
                u = u.letters
                for v, cv in other.terms.items():
                    w = u + v.letters
                    c = cu * cv
                    out[w] = out[w] + c if w in out else c
            return Process._raw({Word._raw(w): c for w, c in out.items()})
        return Process({w: c * as_fraction(other) for w, c in self.terms.items()})

    def __rmul__(self, other) -> Process:
        return self * other

    def __pow__(self, n: int) -> Process:
        if n < 0:
            raise ValueError("negative power")
        out = Process.identity()
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Process):
            return self.terms == other.terms
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(
            f"{w.letters!r}: {c}" for w, c in sorted(self.terms.items(), key=lambda t: t[0].letters)
        )
        return f"Process({{{body}}})"

    @property
    def weight_scale(self) -> int:
        """Smallest positive integer that makes every weight an integer."""
        return lcm(1, *(weight.denominator for weight in self.terms.values()))

    @property
    def max_word_len(self) -> int:
        """Length of the longest word, 0 for the zero process."""
        return max((len(w) for w in self.terms), default=0)


def _times_x_power(nf: dict, c: int) -> dict:
    """The integer normal form nf = {(k, l): a} times X^c, by the contraction
    (X^k D^l) X^c = sum_j C(l,j) C(c,j) j! X^(k+c-j) D^(l-j).

    The weight t_j = a C(l,j) C(c,j) j! follows t_(j+1) = t_j (l-j)(c-j) / (j+1),
    and that division is exact because t_(j+1) is an integer.
    """
    out: dict = {}
    for (k, l), t in nf.items():
        k += c
        for j in range(min(l, c) + 1):
            key = (k - j, l - j)
            out[key] = out.get(key, 0) + t
            t = t * (l - j) * (c - j) // (j + 1)
    return out


def _word_form(letters: str) -> dict:
    # fold the runs left to right: an X-run contracts, a D-run raises l
    nf = {(0, 0): 1}
    for run in _RUNS.findall(letters):
        if run[0] == "X":
            nf = _times_x_power(nf, len(run))
        else:
            d = len(run)
            nf = {(k, l + d): a for (k, l), a in nf.items()}
    return nf


def _form_product(a: dict, b: dict) -> dict:
    # (sum a X^k D^l)(sum b X^k2 D^l2): contract each X^k2, then append D^l2
    out: dict = {}
    for (k2, l2), c2 in b.items():
        for (k, l), c in _times_x_power(a, k2).items():
            key = (k, l + l2)
            out[key] = out.get(key, 0) + c * c2
    return out


def _scaled_form(p: Process) -> tuple[dict, int]:
    # (scale times the normal form of p as integers, scale = p.weight_scale)
    scale = p.weight_scale
    acc: dict = {}
    for word, weight in p.terms.items():
        w = weight.numerator * (scale // weight.denominator)
        for key, c in _word_form(word.letters).items():
            acc[key] = acc.get(key, 0) + w * c
    return acc, scale


def normal_order_word(w: Word) -> NormalForm:
    """Normal form of a single word by Weyl contraction over its letter runs.

    Reading the runs left to right, the running form sum c[k,l] X^k D^l is
    multiplied by X^c through the contraction identity, or by D^d by
    raising every l by d.  The c are positive integers and every key
    satisfies k - l = excess(w).
    """
    return _over(_word_form(w.letters), 1)


def normal_order(p: Process) -> NormalForm:
    """Linear extension of normal_order_word to weighted sums of words.

    The word forms are summed on integers, with weights scaled by
    p.weight_scale, and divided by it once at the end.
    """
    acc, scale = _scaled_form(p)
    return _over(acc, scale)


def normal_order_powers(h: Process, n_max: int) -> list[NormalForm]:
    """[NF(h^0), ..., NF(h^n_max)], each the normal-form product of the one
    before and NF(h).

    The product is the contraction of normal_order_word, so this route to
    the power coefficient polynomials B_n never applies an operator to a
    polynomial, unlike poly.bn_sequence.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    nf, scale = _scaled_form(h)
    power = {(0, 0): 1}
    out = [_over(power, 1)]
    for n in range(1, n_max + 1):
        power = _form_product(power, nf)
        out.append(_over(power, scale**n))
    return out


def double_dot(p: Process) -> NormalForm:
    """Reorder each word as if X and D commuted.

    Trivial to compute but generally NOT equivalent to p as an operator;
    it agrees with normal_order exactly on words already in normal form.
    """
    acc: dict[tuple[int, int], Fraction] = {}
    for word, weight in p.terms.items():
        key = (word.n_x, word.n_d)
        acc[key] = acc.get(key, _ZERO) + weight
    return BiPoly(acc)


def weyl_closed_form(l: int, k: int) -> NormalForm:
    """Closed-form normal order of D^l X^k from binomials and factorials,
    a cross-check of the contraction recurrence in normal_order_word:
    sum_j C(l,j) C(k,j) j!  at key (k-j, l-j)."""
    return BiPoly(
        {(k - j, l - j): comb(l, j) * comb(k, j) * factorial(j) for j in range(min(k, l) + 1)}
    )
