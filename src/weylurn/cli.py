"""Command-line front end; exact results as JSON (CSV for tables).

Every number is serialized as an exact integer or reduced fraction
string, never a float.  Exit codes: 0 success, 2 expression or usage
error, 3 domain error, 4 verification mismatch, 5 search budget
exceeded.  The WEYLURN_FORMAT environment variable sets the default
output format.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from fractions import Fraction

import click

from .algebra import Process, Word, normal_order, normal_order_powers
from .histories import (
    BudgetExceededError,
    DEFAULT_SEARCH_BUDGET,
    HistoryTable,
    NonIntegerWeightError,
    UndefinedRowError,
    count_by_operator,
    count_by_search,
    probabilities,
)
from .parser import ExprSyntaxError, parse
from .series import (
    LambdaSeries,
    b_series,
    driven_oscillator_closed_form,
    g_series,
    pde_residual,
)

SCHEMA_VERSION = "1"
FORMAT_ENV_VAR = "WEYLURN_FORMAT"

EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_MISMATCH = 4
EXIT_BUDGET = 5


def _frac(value) -> str:
    return str(Fraction(value))


def _read_expr(expr: str) -> str:
    return sys.stdin.read() if expr == "-" else expr


def _parse_expr(text: str) -> Process:
    try:
        return parse(text)
    except ExprSyntaxError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)


def _resolve_format(fmt: str | None, *, tabular: bool) -> str:
    fmt = fmt or os.environ.get(FORMAT_ENV_VAR, "json")
    if fmt not in ("json", "csv"):
        raise click.UsageError(f"unknown output format {fmt!r}")
    if fmt == "csv" and not tabular:
        raise click.UsageError("CSV output is only available for tabular commands")
    return fmt


def _record(command: str, arguments: dict, result: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "arguments": arguments,
        "result": result,
    }


def _emit_json(record: dict) -> None:
    click.echo(json.dumps(record, indent=2))


def _emit_csv(header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    click.echo(buf.getvalue(), nl=False)


def _fail_domain(command: str, arguments: dict, kind: str, message: str, code: int) -> None:
    _emit_json(
        {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "arguments": arguments,
            "error": {"type": kind, "message": message},
        }
    )
    sys.exit(code)


format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv"]),
    default=None,
    help=f"output format (default from ${FORMAT_ENV_VAR}, else json)",
)


@click.group()
@click.version_option(package_name="weylurn")
def main() -> None:
    """Exact Heisenberg-Weyl normal ordering and urn-history counting."""


@main.command("normal-order")
@click.argument("expr")
@format_option
def cmd_normal_order(expr: str, fmt: str | None) -> None:
    """Normally order EXPR: all X moved left of all D via DX -> XD + 1."""
    _resolve_format(fmt, tabular=False)
    text = _read_expr(expr)
    nf = normal_order(_parse_expr(text))
    coeffs = [
        {"k": k, "l": l, "value": _frac(c)}
        for (k, l), c in sorted(nf.coeffs.items(), key=lambda t: (-t[0][0], -t[0][1]))
    ]
    _emit_json(_record("normal-order", {"expr": text}, {"coefficients": coeffs}))


def _parse_l_range(raw: str) -> list[int]:
    try:
        if ":" in raw:
            lo, hi = raw.split(":", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(raw)
    except ValueError:
        raise click.UsageError(f"bad -l value {raw!r}; use L or LO:HI")
    if lo < 0 or hi < lo:
        raise click.UsageError(f"bad -l range {raw!r}")
    return list(range(lo, hi + 1))


@main.command("histories")
@click.argument("expr")
@click.option("-n", "steps", type=int, required=True, help="number of process steps")
@click.option("-l", "l_range", required=True, help="initial ball count L, or range LO:HI")
@click.option("--oracle", is_flag=True, help="cross-check against the labelled-ball search")
@click.option(
    "--budget",
    type=int,
    default=DEFAULT_SEARCH_BUDGET,
    show_default=True,
    help="node budget for the oracle search",
)
@format_option
def cmd_histories(expr: str, steps: int, l_range: str, oracle: bool, budget: int, fmt: str | None) -> None:
    """Count EXPR histories from each initial size l to every final size k."""
    fmt = _resolve_format(fmt, tabular=True)
    text = _read_expr(expr)
    arguments = {"expr": text, "n": steps, "l": l_range, "oracle": oracle}
    if steps < 0:
        raise click.UsageError("-n must be nonnegative")
    if budget < 0:
        raise click.UsageError("--budget must be nonnegative")
    process = _parse_expr(text)
    l_values = _parse_l_range(l_range)

    rows = []
    table_rows = {}
    for l in l_values:
        counts = count_by_operator(process, steps, l)
        table_rows[l] = counts
        rows.append(
            {
                "l": l,
                "counts": [{"k": k, "count": _frac(c)} for k, c in sorted(counts.items())],
            }
        )
    result: dict = {"n": steps, "rows": rows}

    if oracle:
        scale = process.weight_scale
        agreement = True
        try:
            for l in l_values:
                found = count_by_search(process, steps, l, weight_scale=scale, budget=budget)
                expected = {
                    k: c * Fraction(scale) ** steps for k, c in table_rows[l].items()
                }
                if found != expected:
                    agreement = False
                    break
        except NonIntegerWeightError as exc:
            _fail_domain("histories", arguments, "non-integer-weight", str(exc), EXIT_DOMAIN)
        except BudgetExceededError as exc:
            _fail_domain("histories", arguments, "budget-exceeded", str(exc), EXIT_BUDGET)
        result["oracle"] = {"agreement": agreement, "weight_scale": str(scale)}

    if fmt == "csv":
        _emit_csv(
            ["l", "k", "count"],
            [[str(r["l"]), str(e["k"]), e["count"]] for r in rows for e in r["counts"]],
        )
    else:
        _emit_json(_record("histories", arguments, result))
    if oracle and not result["oracle"]["agreement"]:
        sys.exit(EXIT_MISMATCH)


@main.command("probabilities")
@click.argument("expr")
@click.option("-n", "steps", type=int, required=True, help="number of process steps")
@click.option("-l", "start", type=int, required=True, help="initial ball count")
@format_option
def cmd_probabilities(expr: str, steps: int, start: int, fmt: str | None) -> None:
    """Exact transition probabilities of EXPR after -n steps from -l balls."""
    fmt = _resolve_format(fmt, tabular=True)
    text = _read_expr(expr)
    arguments = {"expr": text, "n": steps, "l": start}
    if steps < 0 or start < 0:
        raise click.UsageError("-n and -l must be nonnegative")
    process = _parse_expr(text)
    table = HistoryTable.from_rows({start: count_by_operator(process, steps, start)}, n=steps)
    try:
        row = probabilities(table, start)
    except UndefinedRowError as exc:
        _fail_domain("probabilities", arguments, "undefined-row", str(exc), EXIT_DOMAIN)
    entries = [{"k": k, "probability": _frac(p)} for k, p in sorted(row.probs.items())]
    if fmt == "csv":
        _emit_csv(["k", "probability"], [[str(e["k"]), e["probability"]] for e in entries])
    else:
        _emit_json(
            _record(
                "probabilities",
                arguments,
                {"n": steps, "l": start, "probabilities": entries},
            )
        )


@main.command("series")
@click.argument("expr")
@click.option("-N", "order", type=int, default=6, show_default=True, help="series order")
@click.option("--dx", type=int, default=10, show_default=True, help="x-degree bound (G series)")
@click.option("--dy", type=int, default=10, show_default=True, help="y-degree bound (G series)")
@click.option("--check-pde", is_flag=True, help="verify the evolution equation residual is zero")
@click.option("--g-series", "with_g", is_flag=True, help="also emit history series coefficients")
@format_option
def cmd_series(
    expr: str, order: int, dx: int, dy: int, check_pde: bool, with_g: bool, fmt: str | None
) -> None:
    """Power coefficient polynomials B_0..B_N of EXPR (series sum B_n t^n/n!)."""
    _resolve_format(fmt, tabular=False)
    if order < 0 or dx < 0 or dy < 0:
        raise click.UsageError("-N, --dx and --dy must be nonnegative")
    if check_pde and order < 1:
        raise click.UsageError("--check-pde needs -N >= 1")
    text = _read_expr(expr)
    process = _parse_expr(text)
    series = b_series(process, order)
    result: dict = {
        "order": order,
        "b_terms": [
            [
                {"i": i, "j": j, "value": _frac(c)}
                for (i, j), c in sorted(term.coeffs.items(), key=lambda t: (-t[0][0], -t[0][1]))
            ]
            for term in series.terms
        ],
    }
    if check_pde:
        # the residual applies the action kernel that built series, so it is
        # taken of the series of normal-form products, which never runs it
        powers = LambdaSeries(tuple(normal_order_powers(process, order)))
        result["pde_residual_zero"] = pde_residual(process, powers).is_zero()
    if with_g:
        g = g_series(process, order, dx, dy)
        result["g_coefficients"] = [
            {"k": i, "l": j, "n": n, "value": _frac(c)}
            for (i, j, n), c in sorted(g.coeffs.items(), key=lambda t: (t[0][2], t[0][1], t[0][0]))
        ]
    arguments = {"expr": text, "N": order, "dx": dx, "dy": dy, "check_pde": check_pde}
    _emit_json(_record("series", arguments, result))


@main.command("oscillator")
@click.option("-g", "coupling", required=True, help="drive strength, an exact rational like 1/2")
@click.option("-N", "order", type=int, default=6, show_default=True, help="series order")
@click.option("--dx", type=int, default=10, show_default=True, help="x-degree bound")
@click.option("--dy", type=int, default=10, show_default=True, help="y-degree bound")
def cmd_oscillator(coupling: str, order: int, dx: int, dy: int) -> None:
    """Check the closed-form history series of XD + g(X + D) against the
    recurrence route, index by index."""
    if order < 0 or dx < 0 or dy < 0:
        raise click.UsageError("-N, --dx and --dy must be nonnegative")
    arguments = {"g": coupling, "N": order, "dx": dx, "dy": dy}
    try:
        g = Fraction(coupling)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"bad -g value {coupling!r}; use an integer or p/q")
    try:
        process = Process({Word("XD"): 1, Word("X"): g, Word("D"): g})
    except ValueError as exc:
        _fail_domain("oscillator", arguments, "bad-coupling", str(exc), EXIT_DOMAIN)
    closed = driven_oscillator_closed_form(g, order, dx, dy)
    recurrence = g_series(process, order, dx, dy)
    mismatch = closed.first_mismatch(recurrence)
    result: dict = {
        "g": str(g),
        "order": order,
        "dx": dx,
        "dy": dy,
        "match": mismatch is None,
        "indices_checked": (dx + 1) * (dy + 1) * (order + 1),
        "first_mismatch": None,
    }
    if mismatch is not None:
        (i, j, n), closed_c, rec_c = mismatch
        result["first_mismatch"] = {
            "k": i,
            "l": j,
            "n": n,
            "closed_form": _frac(closed_c),
            "recurrence": _frac(rec_c),
        }
    _emit_json(_record("oscillator", arguments, result))
    if mismatch is not None:
        sys.exit(EXIT_MISMATCH)


if __name__ == "__main__":
    main()
