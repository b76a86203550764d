import json
from fractions import Fraction
from math import factorial

import pytest
from click.testing import CliRunner

from weylurn import cli, count_by_operator, parse, poly
from weylurn.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, env=None, input=None):
    return runner.invoke(main, list(args), env=env, input=input, catch_exceptions=False)


def payload(result):
    return json.loads(result.output)


class TestNormalOrder:
    def test_commutator(self, runner):
        result = invoke(runner, "normal-order", "D X")
        assert result.exit_code == 0
        record = payload(result)
        assert record["schema_version"] == "1"
        assert record["command"] == "normal-order"
        assert record["result"]["coefficients"] == [
            {"k": 1, "l": 1, "value": "1"},
            {"k": 0, "l": 0, "value": "1"},
        ]

    def test_empty_expression(self, runner):
        result = invoke(runner, "normal-order", "")
        assert result.exit_code == 0
        assert payload(result)["result"]["coefficients"] == []

    def test_square_case(self, runner):
        result = invoke(runner, "normal-order", "D^2 X^2")
        assert payload(result)["result"]["coefficients"] == [
            {"k": 2, "l": 2, "value": "1"},
            {"k": 1, "l": 1, "value": "4"},
            {"k": 0, "l": 0, "value": "2"},
        ]

    def test_parse_error_exit_code_and_position(self, runner):
        result = invoke(runner, "normal-order", "X ^")
        assert result.exit_code == 2
        assert "position 3" in result.stderr

    def test_stdin(self, runner):
        result = invoke(runner, "normal-order", "-", input="X D\n")
        assert result.exit_code == 0
        assert payload(result)["result"]["coefficients"] == [{"k": 1, "l": 1, "value": "1"}]

    def test_csv_rejected(self, runner):
        result = invoke(runner, "normal-order", "X", "--format", "csv")
        assert result.exit_code == 2


class TestHistories:
    def test_fig_counts(self, runner):
        result = invoke(runner, "histories", "D X", "-n", "1", "-l", "3")
        rows = payload(result)["result"]["rows"]
        assert rows == [{"l": 3, "counts": [{"k": 3, "count": "4"}]}]

    def test_pure_insertion(self, runner):
        result = invoke(runner, "histories", "X", "-n", "5", "-l", "0")
        assert payload(result)["result"]["rows"] == [
            {"l": 0, "counts": [{"k": 5, "count": "1"}]}
        ]

    def test_range_and_csv(self, runner):
        result = invoke(runner, "histories", "X D + X", "-n", "1", "-l", "0:2", "--format", "csv")
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "l,k,count",
            "0,1,1",
            "1,1,1",
            "1,2,1",
            "2,2,2",
            "2,3,1",
        ]

    def test_oracle_agreement(self, runner):
        result = invoke(runner, "histories", "X D + 1/2 X", "-n", "2", "-l", "2", "--oracle")
        assert result.exit_code == 0
        oracle = payload(result)["result"]["oracle"]
        assert oracle == {"agreement": True, "weight_scale": "2"}

    def test_oracle_deep_search(self, runner):
        # 1500 steps make a search tree 3000 nodes deep
        result = invoke(runner, "histories", "X", "-n", "1500", "-l", "0", "--oracle")
        assert result.exit_code == 0
        assert payload(result)["result"]["oracle"]["agreement"] is True

    def test_oracle_budget_exceeded(self, runner):
        result = invoke(runner, "histories", "D X + X D", "-n", "3", "-l", "4", "--oracle", "--budget", "10")
        assert result.exit_code == 5
        assert payload(result)["error"]["type"] == "budget-exceeded"

    @pytest.mark.parametrize(
        "steps, budget, code", [("1", "-1", 2), ("0", "-1", 2), ("0", "0", 0), ("1", "2", 0)]
    )
    def test_budget_range(self, runner, steps, budget, code):
        result = invoke(runner, "histories", "X", "-n", steps, "-l", "0", "--oracle", "--budget", budget)
        assert result.exit_code == code

    def test_oracle_mismatch_exit(self, runner, monkeypatch):
        monkeypatch.setattr(cli, "count_by_search", lambda *a, **k: {99: 1})
        result = invoke(runner, "histories", "X", "-n", "1", "-l", "0", "--oracle")
        assert result.exit_code == 4
        assert payload(result)["result"]["oracle"]["agreement"] is False


class TestProbabilities:
    def test_mixed_process(self, runner):
        result = invoke(runner, "probabilities", "X D + X", "-n", "1", "-l", "2")
        assert payload(result)["result"]["probabilities"] == [
            {"k": 2, "probability": "2/3"},
            {"k": 3, "probability": "1/3"},
        ]

    def test_deterministic(self, runner):
        result = invoke(runner, "probabilities", "X", "-n", "3", "-l", "1")
        assert payload(result)["result"]["probabilities"] == [{"k": 4, "probability": "1"}]

    def test_undefined_row(self, runner):
        result = invoke(runner, "probabilities", "D", "-n", "1", "-l", "0")
        assert result.exit_code == 3
        assert payload(result)["error"]["type"] == "undefined-row"

    def test_fraction_round_trip(self, runner):
        result = invoke(runner, "probabilities", "X D + X", "-n", "2", "-l", "3")
        entries = payload(result)["result"]["probabilities"]
        total = sum(Fraction(e["probability"]) for e in entries)
        assert total == 1

    def test_env_var_sets_default_format(self, runner):
        result = invoke(
            runner, "probabilities", "X D + X", "-n", "1", "-l", "2",
            env={"WEYLURN_FORMAT": "csv"},
        )
        assert result.output.splitlines()[0] == "k,probability"


class TestSeries:
    def test_b_terms(self, runner):
        result = invoke(runner, "series", "X D", "-N", "2")
        terms = payload(result)["result"]["b_terms"]
        assert terms == [
            [{"i": 0, "j": 0, "value": "1"}],
            [{"i": 1, "j": 1, "value": "1"}],
            [{"i": 2, "j": 2, "value": "1"}, {"i": 1, "j": 1, "value": "1"}],
        ]

    def test_check_pde(self, runner):
        result = invoke(runner, "series", "X D", "-N", "2", "--check-pde")
        assert payload(result)["result"]["pde_residual_zero"] is True

    def test_check_pde_can_fail(self, runner, monkeypatch):
        # the action kernel with the shifted D's y-term doubled: H(X, D+2y)
        def doubled_shift(program, coeffs, shift=False):
            out = {}
            for letters, weight in program:
                cur = coeffs
                for gen in letters:
                    if gen == "X":
                        cur = {(i + 1, j): c for (i, j), c in cur.items()}
                    elif shift:
                        nxt = {(i, j + 1): 2 * c for (i, j), c in cur.items()}
                        for (i, j), c in cur.items():
                            if i:
                                nxt[i - 1, j] = nxt.get((i - 1, j), 0) + i * c
                        cur = nxt
                    else:
                        cur = {(i - 1, j): i * c for (i, j), c in cur.items() if i}
                for key, c in cur.items():
                    out[key] = out.get(key, 0) + weight * c
            return {key: c for key, c in out.items() if c}

        monkeypatch.setattr(poly, "act_process", doubled_shift)
        result = invoke(runner, "series", "X D + X + D", "-N", "4", "--check-pde")
        assert result.exit_code == 0
        assert '"pde_residual_zero": false' in result.output

    def test_zero_process(self, runner):
        result = invoke(runner, "series", "", "-N", "3")
        terms = payload(result)["result"]["b_terms"]
        assert terms == [[{"i": 0, "j": 0, "value": "1"}], [], [], []]

    def test_g_series_flag(self, runner):
        result = invoke(runner, "series", "X D", "-N", "1", "--dx", "3", "--dy", "3", "--g-series")
        coeffs = payload(result)["result"]["g_coefficients"]
        assert {"k": 3, "l": 3, "n": 1, "value": "1/2"} in coeffs

    def test_g_series_coefficients(self, runner):
        expr = "X D + X + D"
        result = invoke(runner, "series", expr, "-N", "3", "--dx", "4", "--dy", "4", "--g-series")
        coeffs = payload(result)["result"]["g_coefficients"]
        keys = [(e["n"], e["l"], e["k"]) for e in coeffs]
        assert keys == sorted(set(keys))
        h = parse(expr)
        expected = {
            (n, l, k): c / (factorial(l) * factorial(n))
            for n in range(4)
            for l in range(5)
            for k, c in count_by_operator(h, n, l).items()
            if k <= 4 and c
        }
        assert {(e["n"], e["l"], e["k"]): Fraction(e["value"]) for e in coeffs} == expected


class TestOscillator:
    @pytest.mark.parametrize("g", ["0", "1", "1/2"])
    def test_match(self, runner, g):
        result = invoke(runner, "oscillator", "-g", g, "-N", "3", "--dx", "5", "--dy", "5")
        assert result.exit_code == 0
        record = payload(result)["result"]
        assert record["match"] is True
        assert record["first_mismatch"] is None

    def test_mismatch_exit(self, runner, monkeypatch):
        wrong = cli.driven_oscillator_closed_form
        monkeypatch.setattr(
            cli, "g_series", lambda h, order, dx, dy: wrong(Fraction(1, 3), order, dx, dy)
        )
        result = invoke(runner, "oscillator", "-g", "1", "-N", "2", "--dx", "3", "--dy", "3")
        assert result.exit_code == 4
        assert payload(result)["result"]["first_mismatch"] is not None

    def test_bad_coupling(self, runner):
        result = invoke(runner, "oscillator", "-g", "x", "-N", "2")
        assert result.exit_code == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("normal-order", "D^3 X^3 + 1/2 X D"),
            ("histories", "X D + X", "-n", "2", "-l", "0:3"),
            ("series", "X + D", "-N", "4", "--check-pde"),
            ("oscillator", "-g", "1/2", "-N", "3", "--dx", "4", "--dy", "4"),
        ],
    )
    def test_byte_identical_runs(self, runner, args):
        first = invoke(runner, *args)
        second = invoke(runner, *args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output
