"""Words and weighted processes over the generators X and D, with exact
normal ordering driven by the rewrite DX -> XD + 1.

A word is an operator product read left to right, so the rightmost
generator acts first: Word("XD") applied to an urn first withdraws a
ball (D), then puts one in (X).  On monomials the generators act as
D x^m = m x^(m-1) and X x^m = x^(m+1); withdrawing from an urn of m
distinguishable balls can happen m ways, inserting only one way.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import comb, factorial, lcm

from .poly import BiPoly, as_fraction

__all__ = [
    "D",
    "NormalForm",
    "Process",
    "Word",
    "X",
    "double_dot",
    "normal_order",
    "normal_order_word",
    "weyl_closed_form",
]

# A normal form sum c[k,l] X^k D^l shares its data layout with the
# bivariate polynomial sum c[k,l] x^k y^l, so it *is* one.
NormalForm = BiPoly

_ZERO = Fraction(0)


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
            # operator product: concatenate words, multiply weights
            out: dict[Word, Fraction] = {}
            for u, cu in self.terms.items():
                for v, cv in other.terms.items():
                    w = u * v
                    out[w] = out.get(w, _ZERO) + cu * cv
            return Process(out)
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


def _inversions(letters: str) -> int:
    # number of (D, X) pairs with the D to the left of the X
    inv = 0
    xs_seen = 0
    for gen in reversed(letters):
        if gen == "X":
            xs_seen += 1
        else:
            inv += xs_seen
    return inv


def normal_order_word(w: Word) -> NormalForm:
    """Normal form of a single word via the rewrite DX -> XD + 1.

    A worklist rewrites the leftmost DX adjacency of each pending word into
    the swapped word plus the word with the pair deleted.  Every rewrite
    strictly lowers the number of (D, X) inversions, so this terminates in
    the unique form sum c[k,l] X^k D^l; the c are nonnegative integers and
    every key satisfies k - l = excess(w).  Pending words are bucketed by
    inversion count and drained top-down, so each distinct word is rewritten
    once with its accumulated multiplicity.
    """
    levels: dict[int, dict[str, int]] = {_inversions(w.letters): {w.letters: 1}}
    out: dict[tuple[int, int], int] = {}
    while levels:
        top = max(levels)
        bucket = levels.pop(top)
        if top == 0:
            # inversion-free words are already X^k D^l
            for letters, mult in bucket.items():
                key = (letters.count("X"), letters.count("D"))
                out[key] = out.get(key, 0) + mult
            continue
        for letters, mult in bucket.items():
            cut = letters.find("DX")
            swapped = letters[:cut] + "XD" + letters[cut + 2 :]
            dropped = letters[:cut] + letters[cut + 2 :]
            sub = levels.setdefault(top - 1, {})
            sub[swapped] = sub.get(swapped, 0) + mult
            sub = levels.setdefault(_inversions(dropped), {})
            sub[dropped] = sub.get(dropped, 0) + mult
    return BiPoly(out)


def normal_order(p: Process) -> NormalForm:
    """Linear extension of normal_order_word to weighted sums of words."""
    acc: dict[tuple[int, int], Fraction] = {}
    for word, weight in p.terms.items():
        for key, c in normal_order_word(word).coeffs.items():
            acc[key] = acc.get(key, _ZERO) + weight * c
    return BiPoly(acc)


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
    """Closed-form normal order of D^l X^k, independent of the rewriter:
    sum_j C(l,j) C(k,j) j!  at key (k-j, l-j)."""
    return BiPoly(
        {(k - j, l - j): comb(l, j) * comb(k, j) * factorial(j) for j in range(min(k, l) + 1)}
    )
