"""In-memory spans recorded around library calls, from outside the library.

Entry points are wrapped where the benchmark calls them; calls that the
library makes internally are traced by rebinding the module attribute the
caller looks up at call time.  No source file of the library changes.
"""

from __future__ import annotations

import time

# (module, attribute, span name): internal calls traced by rebinding
INNER_CALLS = (
    ("histories", "act_process", "algebra.act_process"),
    ("poly", "apply_shifted", "poly.apply_shifted"),
    ("series", "apply_shifted", "poly.apply_shifted"),
    ("poly", "apply_operator", "poly.apply_operator"),
    ("series", "bn_sequence", "poly.bn_sequence"),
    ("algebra", "normal_order_word", "algebra.normal_order_word"),
)

# entry points the CLI calls, traced by rebinding them in weylurn.cli
CLI_CALLS = (
    ("parse", "parser.parse"),
    ("normal_order", "algebra.normal_order"),
    ("count_by_operator", "histories.count_by_operator"),
    ("count_by_search", "histories.count_by_search"),
    ("probabilities", "histories.probabilities"),
    ("b_series", "series.b_series"),
    ("g_series", "series.g_series"),
    ("pde_residual", "series.pde_residual"),
    ("driven_oscillator_closed_form", "series.driven_oscillator_closed_form"),
)

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux, shared by all processes


class Tracer:
    """Spans as [name, start, end, parent index]; the parent is -1 at top level."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span timed elsewhere, such as in a child process."""
        self.spans.append([name, start, end, parent])
        return len(self.spans) - 1

    def rebind(self, modules: dict, calls) -> list:
        """Wrap module attributes in place; returns what `restore` needs."""
        saved = []
        for mod, attr, name in calls:
            module = modules[mod]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))
        return saved


def restore(saved) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def summarize(spans, root: str = "job") -> tuple[dict, float]:
    """Per-name (calls, busy_s, self_s), and the share of root-span time
    that no child span covers.  Children of one span never overlap, so a
    span's coverage is the sum of its direct children's durations."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, list] = {}
    root_time = root_free = 0.0
    for idx, (name, start, end, _) in enumerate(spans):
        dur = end - start
        if name == root:
            root_time += dur
            root_free += dur - covered[idx]
            continue
        t = totals.setdefault(name, [0, 0.0, 0.0])
        t[0] += 1
        t[1] += dur
        t[2] += dur - covered[idx]
    return {k: tuple(v) for k, v in totals.items()}, (root_free / root_time if root_time else 0.0)
