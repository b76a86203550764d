"""Truncated generating series in x, y and the step variable.

A LambdaSeries collects the coefficient polynomials B_0..B_N of operator
powers as the exponential series sum B_n t^n / n!.  A TriSeries is the
corresponding three-variable object after multiplying by e^(xy): its
(k, l, n) coefficient is (number of n-step histories l -> k) / (l! n!).
All coefficients are exact rationals; a TriSeries knows the box of
indices on which it is exact, and operations propagate that box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .poly import BiPoly, apply_shifted, as_fraction, bn_sequence, box_product, exp_xy

__all__ = [
    "LambdaSeries",
    "TriSeries",
    "b_series",
    "driven_oscillator_closed_form",
    "g_series",
    "pde_residual",
]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LambdaSeries:
    """Series sum_n terms[n] * t^n / n!, truncated at order len(terms) - 1."""

    terms: tuple[BiPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("a series needs at least its constant term")

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    def is_zero(self) -> bool:
        return not any(self.terms)


def b_series(h, order: int) -> LambdaSeries:
    """Exponential series of the power coefficient polynomials of h.

    Term n is B_n, so the series evaluated at the operator arguments is
    the normal form of e^(tH) truncated at t^order.
    """
    return LambdaSeries(tuple(bn_sequence(h, order)))


def pde_residual(h, s: LambdaSeries) -> LambdaSeries:
    """Residual d/dt s - H(x, d/dx + y) s, truncated to order s.order - 1.

    Identically zero exactly when s satisfies the defining evolution
    equation of the power series (term-wise: B_{n+1} = H(X, D+y) B_n).
    """
    if s.order < 1:
        raise ValueError("series order must be at least 1 to form a residual")
    return LambdaSeries(
        tuple(s.terms[i + 1] - apply_shifted(h, s.terms[i]) for i in range(s.order))
    )


class TriSeries:
    """Sparse exact series slice in x, y and the step variable t.

    Slice n is the BiPoly coefficient of t^n, for 0 <= n <= n_max; every
    slice holds only x-degrees <= dx and y-degrees <= dy, the box on which
    the series is exact.  Because exponents only add, sums and products of
    exact series stay exact on the intersected box; anything outside is
    dropped.
    """

    __slots__ = ("dx", "dy", "slices")

    def __init__(self, dx: int, dy: int, n_max: int, coeffs=None):
        if dx < 0 or dy < 0 or n_max < 0:
            raise ValueError("bounds must be nonnegative")
        self.dx, self.dy = int(dx), int(dy)
        parts: list[list] = [[] for _ in range(int(n_max) + 1)]
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for (i, j, n), value in items:
                if i < 0 or j < 0 or n < 0:
                    raise ValueError(f"negative index in key ({i}, {j}, {n})")
                if i <= self.dx and j <= self.dy and n <= n_max:  # else truncated away
                    parts[int(n)].append(((i, j), value))
        self.slices = tuple(BiPoly(part) for part in parts)

    @classmethod
    def _raw(cls, dx: int, dy: int, slices) -> TriSeries:
        out = cls.__new__(cls)
        out.dx, out.dy, out.slices = dx, dy, tuple(slices)
        return out

    @property
    def n_max(self) -> int:
        return len(self.slices) - 1

    @property
    def bounds(self) -> tuple[int, int, int]:
        return (self.dx, self.dy, self.n_max)

    @property
    def coeffs(self) -> dict[tuple[int, int, int], Fraction]:
        """The nonzero coefficients keyed (i, j, n), as a new dict."""
        return {
            (i, j, n): c for n, part in enumerate(self.slices) for (i, j), c in part.coeffs.items()
        }

    def __getitem__(self, key) -> Fraction:
        i, j, n = key
        return self.slices[n][i, j] if 0 <= n < len(self.slices) else _ZERO

    def __bool__(self) -> bool:
        return any(self.slices)

    def __eq__(self, other) -> bool:
        if isinstance(other, TriSeries):
            return self.bounds == other.bounds and self.slices == other.slices
        return NotImplemented

    def _fitted(self, dx: int, dy: int) -> tuple[BiPoly, ...]:
        # the slices cut down to a box that is no larger than this one's
        if dx >= self.dx and dy >= self.dy:
            return self.slices
        return tuple(
            BiPoly._raw({(i, j): c for (i, j), c in part.coeffs.items() if i <= dx and j <= dy})
            for part in self.slices
        )

    def __add__(self, other: TriSeries) -> TriSeries:
        dx, dy = min(self.dx, other.dx), min(self.dy, other.dy)
        pairs = zip(self._fitted(dx, dy), other._fitted(dx, dy))
        return TriSeries._raw(dx, dy, (a + b for a, b in pairs))

    def __mul__(self, other) -> TriSeries:
        if isinstance(other, TriSeries):
            dx, dy = min(self.dx, other.dx), min(self.dy, other.dy)
            a, b = self.slices, other.slices
            # slice n of the product: the sum of a[m] * b[n - m] over nonzero pairs
            slices = (
                box_product(((a[m], b[n - m]) for m in range(n + 1) if a[m] and b[n - m]), dx, dy)
                for n in range(min(len(a), len(b)))
            )
            return TriSeries._raw(dx, dy, slices)
        c = as_fraction(other)
        return TriSeries._raw(self.dx, self.dy, (part * c for part in self.slices))

    __rmul__ = __mul__

    def first_mismatch(self, other: TriSeries):
        """Smallest index (ordered by step, then y, then x power) where the
        two slices differ, as ((i, j, n), self_value, other_value); None if
        they agree.  Both slices must cover the same box."""
        if self.bounds != other.bounds:
            raise ValueError(f"boxes differ: {self.bounds} vs {other.bounds}")
        for n, (a, b) in enumerate(zip(self.slices, other.slices)):
            diffs = [(j, i) for (i, j) in set(a.coeffs) | set(b.coeffs) if a[i, j] != b[i, j]]
            if diffs:
                j, i = min(diffs)
                return (i, j, n), a[i, j], b[i, j]
        return None

    def __repr__(self) -> str:
        return f"TriSeries(dx={self.dx}, dy={self.dy}, n_max={self.n_max}, {len(self.coeffs)} coeffs)"


def _exp_xy(dx: int, dy: int, n_max: int) -> TriSeries:
    return TriSeries._raw(dx, dy, (exp_xy(min(dx, dy)),) + (BiPoly.zero(),) * n_max)


def _exp_scalar_lambda(c: Fraction, dx: int, dy: int, n_max: int) -> TriSeries:
    # e^(c t) as a pure series in the step variable
    return TriSeries(
        dx, dy, n_max, {(0, 0, n): c**n / factorial(n) for n in range(n_max + 1)}
    )


def _expm1_lambda(dx: int, dy: int, n_max: int) -> TriSeries:
    # e^t - 1
    return TriSeries(
        dx, dy, n_max, {(0, 0, n): Fraction(1, factorial(n)) for n in range(1, n_max + 1)}
    )


def _exp_without_constant(s: TriSeries) -> TriSeries:
    """exp of a slice with no t-free part: sum_m s^m / m! is finite on the
    box because every power of s raises the minimum t-degree."""
    if s.slices[0]:
        raise ValueError("exponent series must have no step-free term")
    total = TriSeries(s.dx, s.dy, s.n_max, {(0, 0, 0): 1})
    power = total
    for m in range(1, s.n_max + 1):
        power = power * s
        total = total + Fraction(1, factorial(m)) * power
    return total


def g_series(h, order: int, dx: int, dy: int) -> TriSeries:
    """History generating series of h: (B-series) * e^(xy) on the box.

    The coefficient of x^k y^l t^n is G[n, l->k] / (l! n!), so every
    history count in the box can be read off exactly.
    """
    exp = exp_xy(min(dx, dy))
    slices = (
        box_product([(b, Fraction(1, factorial(n)) * exp)], dx, dy)
        for n, b in enumerate(bn_sequence(h, order))
    )
    return TriSeries._raw(dx, dy, slices)


def driven_oscillator_closed_form(g, order: int, dx: int, dy: int) -> TriSeries:
    """Closed-form history series of the process XD + g*X + g*D.

    Expands e^((x+g)(y+g)(e^t - 1)) * e^(-g^2 t) * e^(xy) exactly on the
    box: the inner e^t - 1 is truncated at t^order first, and the outer
    exponential is a finite sum there because its argument has no t-free
    term.
    """
    g = as_fraction(g)
    quad = TriSeries(
        dx, dy, order, {(1, 1, 0): 1, (1, 0, 0): g, (0, 1, 0): g, (0, 0, 0): g * g}
    )
    grown = _exp_without_constant(quad * _expm1_lambda(dx, dy, order))
    return grown * _exp_scalar_lambda(-g * g, dx, dy, order) * _exp_xy(dx, dy, order)
