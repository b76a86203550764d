"""Sparse bivariate polynomials over exact rationals.

The same sparse map carries two readings: a polynomial in commuting
variables x and y, and the coefficient table of a normally ordered
operator sum c[k,l] X^k D^l (x-power <-> X, y-power <-> D).  The
iteration that turns powers of an operator into such coefficient
polynomials lives here: one application of the substituted action
H(X, D+y) advances B_n to B_{n+1}, starting from B_0 = 1.  Its kernel,
act_process, is the only code that applies words to polynomials, and
box_product is the only loop that multiplies them.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .algebra import Process

__all__ = [
    "BiPoly",
    "InsufficientTruncationError",
    "apply_operator",
    "apply_shifted",
    "as_fraction",
    "bn_sequence",
    "conjugate_check",
]

_ZERO = Fraction(0)


def as_fraction(value) -> Fraction:
    """Exact coercion; floats are refused so no rounding can sneak in."""
    if isinstance(value, float):
        raise TypeError(f"inexact value {value!r}; pass int, Fraction or a 'p/q' string")
    return Fraction(value)


class InsufficientTruncationError(ValueError):
    """Degree bound too small: no region is guaranteed free of truncation error."""


class BiPoly:
    """Polynomial in x and y: sparse map (x_power, y_power) -> nonzero Fraction.

    Instances are treated as immutable; ring operations return new objects
    and never store a zero coefficient, so ``==`` on the coefficient maps
    is semantic equality.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        acc: dict[tuple[int, int], Fraction] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for (i, j), value in items:
                i, j = int(i), int(j)
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in key ({i}, {j})")
                acc[(i, j)] = acc.get((i, j), _ZERO) + as_fraction(value)
        self.coeffs = {key: c for key, c in acc.items() if c}

    @classmethod
    def _raw(cls, coeffs: dict[tuple[int, int], Fraction]) -> BiPoly:
        # internal: trusted, already-canonical coefficient dict
        poly = cls.__new__(cls)
        poly.coeffs = coeffs
        return poly

    @classmethod
    def zero(cls) -> BiPoly:
        return cls._raw({})

    @classmethod
    def one(cls) -> BiPoly:
        return cls._raw({(0, 0): Fraction(1)})

    @classmethod
    def monomial(cls, i: int, j: int, coeff=1) -> BiPoly:
        return cls({(i, j): coeff})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, BiPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return self.coeffs == ({(0, 0): c} if c else {})
        return NotImplemented

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self.coeffs.get((i, j), _ZERO)

    def __add__(self, other) -> BiPoly:
        if not isinstance(other, BiPoly):
            other = BiPoly({(0, 0): other})
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = out.get(key, _ZERO) + c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return BiPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> BiPoly:
        return BiPoly._raw({key: -c for key, c in self.coeffs.items()})

    def __sub__(self, other) -> BiPoly:
        if not isinstance(other, BiPoly):
            other = BiPoly({(0, 0): other})
        return self + (-other)

    def __mul__(self, other) -> BiPoly:
        if isinstance(other, BiPoly):
            (x1, y1), (x2, y2) = self._degrees(), other._degrees()
            return box_product([(self, other)], x1 + x2, y1 + y2)
        c = as_fraction(other)
        if not c:
            return BiPoly.zero()
        return BiPoly._raw({key: c * v for key, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> BiPoly:
        if n < 0:
            raise ValueError("negative power")
        out = BiPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def _degrees(self) -> tuple[int, int]:
        # largest x- and y-powers: the box that holds every product term
        xs, ys = zip(*self.coeffs) if self.coeffs else ((0,), (0,))
        return max(xs), max(ys)

    def restrict_total_degree(self, bound: int) -> BiPoly:
        return BiPoly._raw({key: c for key, c in self.coeffs.items() if key[0] + key[1] <= bound})

    def __repr__(self) -> str:
        return f"BiPoly({dict(sorted(self.coeffs.items()))!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, j in sorted(self.coeffs, key=lambda k: (-(k[0] + k[1]), -k[0])):
            c = self.coeffs[(i, j)]
            factors = []
            if c != 1 or (i == 0 and j == 0):
                factors.append(str(c))
            if i:
                factors.append("x" if i == 1 else f"x^{i}")
            if j:
                factors.append("y" if j == 1 else f"y^{j}")
            parts.append(" ".join(factors))
        return " + ".join(parts)


def box_product(pairs, dx: int, dy: int) -> BiPoly:
    """Sum of a * b over the BiPoly pairs (a, b), truncated to the box
    x-degree <= dx, y-degree <= dy.

    A pair of terms whose product lands outside the box is skipped before
    its coefficients are multiplied, so a truncated product costs only the
    terms it keeps.  BiPoly.__mul__ is this product over its operands' span.
    """
    out: dict[tuple[int, int], Fraction] = {}
    get = out.get
    for a, b in pairs:
        right = b.coeffs.items()
        for (i1, j1), c1 in a.coeffs.items():
            room_x, room_y = dx - i1, dy - j1
            if room_x < 0 or room_y < 0:
                continue
            for (i2, j2), c2 in right:
                if i2 <= room_x and j2 <= room_y:
                    key = (i1 + i2, j1 + j2)
                    out[key] = get(key, _ZERO) + c1 * c2
    return BiPoly._raw({key: c for key, c in out.items() if c})


def exp_xy(m_max: int, sign: int = 1) -> BiPoly:
    """e^(sign*xy) up to x^m_max y^m_max: the terms sign^m x^m y^m / m!."""
    return BiPoly._raw({(m, m): Fraction(sign**m, factorial(m)) for m in range(m_max + 1)})


def compile_process(h: Process) -> tuple[list[tuple[str, int]], int]:
    """(program, scale) for act_process: each word of h reversed into acting
    order, paired with its weight times scale = h.weight_scale, an integer."""
    scale = h.weight_scale
    return [(word.letters[::-1], int(weight * scale)) for word, weight in h.terms.items()], scale


def act_process(program: list[tuple[str, int]], coeffs: dict, shift: bool = False) -> dict:
    """Apply a compiled process once to the sparse polynomial {(i, j): c}.

    Letters act in turn: X takes x^i y^j to x^(i+1) y^j, D takes it to
    i x^(i-1) y^j, plus x^i y^(j+1) when `shift` selects H(X, D+y).  With
    integer weights, integer input stays integer: the result is scale times
    the action of the process.  Zero coefficients are dropped.
    """
    out: dict = {}
    for letters, weight in program:
        cur = coeffs
        for gen in letters:
            if gen == "X":
                cur = {(i + 1, j): c for (i, j), c in cur.items()}
            elif shift:
                nxt = {(i, j + 1): c for (i, j), c in cur.items()}
                for (i, j), c in cur.items():
                    if i:
                        nxt[i - 1, j] = nxt.get((i - 1, j), 0) + i * c
                cur = nxt
            else:
                cur = {(i - 1, j): i * c for (i, j), c in cur.items() if i}
        for key, c in cur.items():
            out[key] = out.get(key, 0) + weight * c
    return {key: c for key, c in out.items() if c}


def _over(coeffs: dict, denominator: int) -> BiPoly:
    return BiPoly._raw({key: Fraction(c, denominator) for key, c in coeffs.items()})


def apply_shifted(h: Process, p: BiPoly) -> BiPoly:
    """Apply H(X, D+y) to p: X is multiplication by x, D+y is d/dx + y.

    Linear in both arguments; one application advances B_n to B_{n+1}.
    """
    program, scale = compile_process(h)
    return _over(act_process(program, p.coeffs, shift=True), scale)


def apply_operator(h: Process, p: BiPoly) -> BiPoly:
    """Apply H(X, D) to p with D = d/dx; y is inert."""
    program, scale = compile_process(h)
    return _over(act_process(program, p.coeffs), scale)


def bn_sequence(h: Process, n_max: int) -> list[BiPoly]:
    """[B_0, ..., B_{n_max}] with B_0 = 1 and B_{n+1} = H(X, D+y) B_n.

    The (k, l) coefficient of B_n equals the X^k D^l coefficient of the
    normal form of the n-th power of h.  The iteration runs on integers,
    scale^n times B_n, and divides once per returned term.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    program, scale = compile_process(h)
    seq = [BiPoly.one()]
    cur = {(0, 0): 1}
    for n in range(1, n_max + 1):
        cur = act_process(program, cur, shift=True)
        seq.append(_over(cur, scale**n))
    return seq


def conjugate_check(h: Process, n: int, degree_bound: int) -> BiPoly:
    """Recompute B_n as e^(-xy) H^n e^(xy) on degree-truncated series.

    Both exponentials are truncated at total degree `degree_bound`.  A word
    of length L moves total degree by at most L per application, so the
    dropped tails only pollute total degrees strictly above
    degree_bound - n*maxlen(h); the returned polynomial, restricted to that
    guaranteed region, is exact.

    Raises InsufficientTruncationError when the guaranteed region is empty.
    """
    guaranteed = degree_bound - n * h.max_word_len
    if guaranteed < 0:
        raise InsufficientTruncationError(
            f"degree bound {degree_bound} leaves no exact region after {n} "
            f"applications of words up to length {h.max_word_len}"
        )
    m_max = degree_bound // 2
    m_fact = factorial(m_max)
    program, scale = compile_process(h)
    cur = {key: int(c * m_fact) for key, c in exp_xy(m_max).coeffs.items()}  # m_max! e^(xy)
    for _ in range(n):
        cur = act_process(program, cur)
    series = _over(cur, scale**n * m_fact)
    product = box_product([(exp_xy(m_max, -1), series)], guaranteed, guaranteed)
    return product.restrict_total_degree(guaranteed)
