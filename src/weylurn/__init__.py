"""Exact Heisenberg-Weyl normal ordering realized on urn processes.

Words over the generators X (insert a ball) and D (withdraw a ball) form
weighted processes; Weyl contraction over the letter runs of each word,
the closed form of the rewrite DX -> XD + 1, computes exact normal forms,
whose coefficient polynomials enumerate urn histories through generating
functions.  All arithmetic is exact rational.
"""

from .algebra import (
    D,
    NormalForm,
    Process,
    Word,
    X,
    double_dot,
    normal_order,
    normal_order_word,
    weyl_closed_form,
)
from .histories import (
    BudgetExceededError,
    HistoryTable,
    NonIntegerWeightError,
    ProbabilityRow,
    UndefinedRowError,
    count_by_operator,
    count_by_search,
    history_counts_from_normal_form,
    probabilities,
)
from .parser import ExprSyntaxError, NegativeCoefficientError, parse, pretty
from .poly import (
    BiPoly,
    InsufficientTruncationError,
    apply_operator,
    apply_shifted,
    as_fraction,
    bn_sequence,
    conjugate_check,
)
from .series import (
    LambdaSeries,
    TriSeries,
    b_series,
    driven_oscillator_closed_form,
    g_series,
    pde_residual,
)

__version__ = "0.1.0"

__all__ = [
    "BiPoly",
    "BudgetExceededError",
    "D",
    "ExprSyntaxError",
    "HistoryTable",
    "InsufficientTruncationError",
    "LambdaSeries",
    "NegativeCoefficientError",
    "NonIntegerWeightError",
    "NormalForm",
    "ProbabilityRow",
    "Process",
    "TriSeries",
    "UndefinedRowError",
    "Word",
    "X",
    "apply_operator",
    "apply_shifted",
    "as_fraction",
    "b_series",
    "bn_sequence",
    "conjugate_check",
    "count_by_operator",
    "count_by_search",
    "double_dot",
    "driven_oscillator_closed_form",
    "g_series",
    "history_counts_from_normal_form",
    "normal_order",
    "normal_order_word",
    "parse",
    "pde_residual",
    "pretty",
    "probabilities",
    "weyl_closed_form",
]
