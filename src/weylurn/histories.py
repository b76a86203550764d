"""Exact counting of urn histories.

Two independent routes produce the history counts G[n, l->k]: repeated
operator action on monomials (fast), and an explicit search over labelled
balls (slow, used as a cross-check oracle).  History tables also fall out
of normal-form coefficient polynomials, and every table row normalizes to
exact transition probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .algebra import Process
from .poly import BiPoly, act_process, as_fraction, box_product, compile_process, exp_xy

__all__ = [
    "BudgetExceededError",
    "HistoryTable",
    "NonIntegerWeightError",
    "ProbabilityRow",
    "UndefinedRowError",
    "count_by_operator",
    "count_by_search",
    "history_counts_from_normal_form",
    "probabilities",
]

DEFAULT_SEARCH_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The labelled-ball search would exceed its node budget."""

    def __init__(self, budget: int):
        super().__init__(f"search exceeded the budget of {budget} nodes")
        self.budget = budget


class NonIntegerWeightError(ValueError):
    """A scaled weight is not an integer, so it cannot count term copies."""


class UndefinedRowError(ValueError):
    """A start size with no histories at all; probabilities are undefined."""


@dataclass(frozen=True)
class HistoryTable:
    """Counts (l, k) -> number of n-step histories from l balls to k balls.

    Zero entries are never stored.  `n` is None for tables extracted from a
    bare coefficient polynomial whose power is not known.
    """

    counts: dict[tuple[int, int], object] = field(default_factory=dict)
    n: int | None = None

    @classmethod
    def from_rows(cls, rows: dict[int, dict[int, object]], n: int | None = None) -> HistoryTable:
        counts = {(l, k): c for l, row in rows.items() for k, c in row.items() if c}
        return cls(counts=counts, n=n)

    def row(self, l: int) -> dict[int, object]:
        return {k: c for (ll, k), c in self.counts.items() if ll == l}


@dataclass(frozen=True)
class ProbabilityRow:
    """Exact transition probabilities k -> P[n, l->k]; they sum to 1."""

    l: int
    probs: dict[int, Fraction]
    n: int | None = None


def count_by_operator(h: Process, n: int, l: int) -> dict[int, Fraction]:
    """History counts via n-fold operator action on x^l.

    The coefficient of x^k after applying h to x^l n times is the number
    of n-step histories from l to k balls (rational when weights are).
    The action runs on integers, with weights scaled by h.weight_scale,
    and the counts are divided by weight_scale**n once at the end.
    """
    if n < 0 or l < 0:
        raise ValueError("n and l must be nonnegative")
    program, scale = compile_process(h)
    cur = {(l, 0): 1}
    for _ in range(n):
        cur = act_process(program, cur)
    denominator = scale**n
    return {k: Fraction(c, denominator) for (k, _), c in cur.items()}


def count_by_search(
    h: Process,
    n: int,
    l: int,
    weight_scale: int = 1,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> dict[int, int]:
    """History counts by exhaustive search over labelled balls.

    Balls carry distinct integer labels and withdrawn labels are retired.
    Each step branches over the process terms with multiplicity equal to
    the scaled integer weight; within a word, each D branches over every
    ball present and each X inserts a freshly labelled ball.  The result
    equals count_by_operator scaled by weight_scale**n.

    Raises NonIntegerWeightError if some scaled weight is not an integer
    and BudgetExceededError when the tree has more than `budget` nodes;
    a negative budget is a ValueError.
    """
    if n < 0 or l < 0:
        raise ValueError("n and l must be nonnegative")
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    scale = as_fraction(weight_scale)
    if scale <= 0 or scale.denominator != 1:
        raise ValueError(f"weight_scale must be a positive integer, got {weight_scale!r}")

    programs: list[str] = []  # reversed words, one copy per unit of weight
    for word, weight in h.terms.items():
        scaled = weight * scale
        if scaled.denominator != 1:
            raise NonIntegerWeightError(
                f"weight {weight} of {word!r} stays non-integer under scale {weight_scale}"
            )
        programs.extend([word.letters[::-1]] * int(scaled))

    if n == 0:
        return {l: 1}
    counts: dict[int, int] = {}
    urn = list(range(l))
    fresh = l  # next unused label
    nodes = 0
    # Depth first on an explicit stack, so deep searches cannot overflow the
    # interpreter's.  A walk takes the first branch at each node and stacks
    # the rest as (ops, idx, steps_left, pos, ball): the node before letter
    # idx, entered after urn[pos] = ball if pos >= 0.  The branches of a D
    # withdraw balls 0..m-1 in turn; the urn without ball p-1 holds ball p
    # at index p-1, so writing ball p-1 there gives the next branch's urn.
    # A popped 1-tuple undoes: (None,) retires an X's ball, (ball,) returns
    # ball m-1.
    stack = [(ops, 0, n - 1, -1, None) for ops in reversed(programs)]
    push, pop = stack.append, stack.pop
    while stack:
        entry = pop()
        if len(entry) == 1:
            if entry[0] is None:
                urn.pop()
            else:
                urn.append(entry[0])
            continue
        ops, idx, steps_left, pos, ball = entry
        if pos >= 0:
            urn[pos] = ball
        while True:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(budget)
            if idx == len(ops):
                if not steps_left:
                    counts[len(urn)] = counts.get(len(urn), 0) + 1
                    break
                steps_left -= 1
                for other in reversed(programs[1:]):
                    push((other, 0, steps_left, -1, None))
                ops, idx = programs[0], 0
            elif ops[idx] == "X":
                urn.append(fresh)
                fresh += 1
                push((None,))
                idx += 1
            elif urn:
                idx += 1
                push((urn[-1],))
                for p in range(len(urn) - 1, 0, -1):
                    push((ops, idx, steps_left, p - 1, urn[p - 1]))
                del urn[0]
            else:
                break  # a D on an empty urn kills the branch
    return counts


def history_counts_from_normal_form(
    b: BiPoly, l_max: int, k_max: int, n: int | None = None
) -> HistoryTable:
    """History counts from the coefficient polynomial of a power.

    The generating function of an n-step table is b * e^(xy): its x^k y^l
    coefficient times l! is G[l->k] = l! * sum_j b[k-j, l-j] / j!.
    """
    g = box_product([(b, exp_xy(min(k_max, l_max)))], k_max, l_max)
    counts: dict[tuple[int, int], object] = {}
    for (k, l), c in sorted(g.coeffs.items(), key=lambda t: (t[0][1], t[0][0])):  # row by row
        c *= factorial(l)
        counts[(l, k)] = int(c) if c.denominator == 1 else c
    return HistoryTable(counts=counts, n=n)


def probabilities(t: HistoryTable, l: int) -> ProbabilityRow:
    """Normalize row l of a history table to exact probabilities.

    Raises UndefinedRowError when the process admits no history from l
    balls at all (e.g. a pure withdrawal acting on an empty urn).
    """
    row = t.row(l)
    total = sum(Fraction(c) for c in row.values())
    if not total:
        raise UndefinedRowError(f"no histories start from urn size {l}")
    return ProbabilityRow(l=l, probs={k: Fraction(c) / total for k, c in row.items()}, n=t.n)
