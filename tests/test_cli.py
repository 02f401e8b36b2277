"""End-to-end command behavior: formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import weakref
from fractions import Fraction
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from elicit.cli import main
from elicit.demo import InternalInconsistencyError
from elicit.suites import SuiteResult

INTRO_ARG = "2/5,3/5; 1/2,1/2; 9/10,1/10"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


class TestScore:
    def test_table_values(self, runner):
        result = invoke(runner, "score", "--reports", INTRO_ARG)
        assert result.exit_code == 0
        assert "7/25 (0.28)" in result.output
        assert "49/50 (0.98)" in result.output
        assert "-31/50 (-0.62)" in result.output

    def test_log_contract_and_outcome_filter(self, runner):
        result = invoke(
            runner,
            "score",
            "--reports",
            "1,0; 1/2,1/2",
            "--contract",
            "independent-log",
            "--outcome",
            "2",
        )
        assert result.exit_code == 0
        assert "-inf" in result.output

    def test_json_is_deterministic(self, runner):
        args = ("score", "--reports", INTRO_ARG, "--format", "json")
        first = invoke(runner, *args)
        second = invoke(runner, *args)
        assert first.exit_code == 0
        assert first.output == second.output
        payload = json.loads(first.output)
        assert payload["command"] == "score"
        assert payload["results"]["scores"][0]["score"]["fraction"] == "7/25"

    def test_csv_layout(self, runner):
        result = invoke(runner, "score", "--reports", "1/2,1/2", "--format", "csv")
        assert result.stdout_bytes.startswith(b"expert,outcome,score,decimal\r\n")
        assert b"1,1,1/2,0.5\r\n" in result.stdout_bytes

    def test_input_file(self, runner, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text('{"n": 2, "reports": [["2/5", "3/5"]]}')
        result = invoke(runner, "score", "--input", str(path))
        assert result.exit_code == 0
        assert "7/25" in result.output

    def test_requires_exactly_one_input_source(self, runner, tmp_path):
        assert invoke(runner, "score").exit_code == 2
        path = tmp_path / "profile.json"
        path.write_text('{"reports": [["1/2", "1/2"]]}')
        both = invoke(
            runner, "score", "--input", str(path), "--reports", "1/2,1/2"
        )
        assert both.exit_code == 2

    @pytest.mark.parametrize(
        "first_row,message",
        [
            ('["49/100", "1/2"]', "row 1 sums to 99/100, not 1"),
            ('["3/5", "3/5"]', "row 1 sums to 6/5, not 1"),
            # The refused row is the second of three: its number survives.
            pytest.param(
                '["1/2", "1/2"], ["3/5", "3/5"]',
                "row 2 sums to 6/5, not 1",
                id="second-row-sum",
            ),
            # Each entry prints, but the row's sum has 8598 digits.
            pytest.param(
                f'["1/{10**4299 - 1}", "1/{10**4299 - 3}"]',
                "row 1 does not sum to 1 (its sum has more than 4300 digits)",
                id="row-sum-too-long-to-print",
            ),
            ("[true, false]", "row 1 entry 1: cannot parse True as a rational"),
            # Refused before 10**10000000 is built.
            (
                '["1e-10000000", "1"]',
                "row 1 entry 1: cannot parse '1e-10000000' as a rational",
            ),
        ],
    )
    def test_malformed_profile_exits_64(
        self, runner, tmp_path, first_row, message
    ):
        path = tmp_path / "bad.json"
        path.write_text(
            f'{{"n": 2, "reports": [{first_row}, ["1/2", "1/2"]]}}'
        )
        result = invoke(runner, "score", "--input", str(path))
        assert result.exit_code == 64
        assert result.output == f"error: {message}\n"

    def test_json_integer_past_the_digit_limit_exits_64(self, runner, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(
            f'{{"n": 2, "reports": [[{"1" * 5000}, 0], ["1/2", "1/2"]]}}'
        )
        result = invoke(runner, "score", "--input", str(path))
        assert result.exit_code == 64
        assert result.output == (
            "error: invalid JSON: a number has more than 4300 digits\n"
        )

    def test_missing_file_exits_64(self, runner):
        result = invoke(runner, "score", "--input", "/nonexistent/p.json")
        assert result.exit_code == 64

    def test_outcome_out_of_range(self, runner):
        result = invoke(
            runner, "score", "--reports", "1/2,1/2", "--outcome", "3"
        )
        assert result.exit_code == 2


class TestReward:
    def test_nr_contract_needs_alpha(self, runner):
        result = invoke(runner, "reward", "--reports", INTRO_ARG)
        assert result.exit_code == 2
        assert "--alpha" in result.output

    def test_alpha_rejected_for_other_contracts(self, runner):
        result = invoke(
            runner,
            "reward",
            "--reports",
            INTRO_ARG,
            "--contract",
            "independent-quadratic",
            "--alpha",
            "16",
        )
        assert result.exit_code == 2

    def test_invalid_alpha_band_exits_2(self, runner):
        result = invoke(
            runner, "reward", "--reports", "1/2,1/2; 1/2,1/2", "--alpha", "3"
        )
        assert result.exit_code == 2
        assert "arbitrage-prone band [0, 4)" in result.output

    def test_permissive_override(self, runner):
        result = invoke(
            runner,
            "reward",
            "--reports",
            "1/2,1/2; 1/2,1/2",
            "--alpha",
            "3",
            "--permissive",
        )
        assert result.exit_code == 0
        assert "3/2 (1.5)" in result.output

    def test_coalition_totals_row(self, runner):
        result = invoke(
            runner,
            "reward",
            "--reports",
            "1/2,1/2; 1/2,1/2; 1/2,1/2",
            "--alpha",
            "16",
            "--coalition",
            "1,3",
            "--outcome",
            "1",
        )
        assert result.exit_code == 0
        assert "13/2 (6.5)" in result.output
        assert "C=1,3" in result.output
        assert "13 (13)" in result.output

    def test_zero_sum_pair_contract(self, runner):
        result = invoke(
            runner,
            "reward",
            "--reports",
            "2/5,3/5; 9/10,1/10",
            "--contract",
            "zero-sum-pair",
            "--format",
            "json",
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        rewards = payload["results"]["rewards"]
        by_key = {
            (r["expert"], r["outcome"]): r["reward"]["fraction"] for r in rewards
        }
        assert by_key[(1, 1)] == "-7/10"
        assert by_key[(2, 1)] == "7/10"

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_payments_beyond_float_range_render(self, runner, fmt):
        # Each payment is 5 * 10**399, which no float holds.
        result = invoke(
            runner,
            "reward",
            "--reports",
            "1/2,1/2; 1/2,1/2",
            "--contract",
            "nr",
            "--alpha",
            "1e400",
            "--coalition",
            "1,2",
            "--format",
            fmt,
        )
        assert result.exit_code == 0
        assert result.stderr == ""
        payment, total = str(5 * 10**399), str(10**400)
        if fmt == "table":
            assert f"{payment} (5e+399)" in result.stdout
            assert f"{total} (1e+400)" in result.stdout
        elif fmt == "json":
            results = json.loads(result.stdout)["results"]
            for entry in results["rewards"]:
                assert entry["reward"] == {"decimal": "5e+399", "fraction": payment}
            for entry in results["coalition_totals"]:
                assert entry["total"] == {"decimal": "1e+400", "fraction": total}
        else:
            rows = result.stdout.splitlines()
            assert rows[1] == f"1,1,{payment}"
            assert rows[-1] == f"coalition,2,{total}"

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("reward", ()),
            # The expert count is checked before the coalition is parsed.
            ("reward", ("--coalition", "4")),
            ("search", ("--grid", "5")),
            ("search", ("--coalition", "4", "--grid", "5")),
        ],
    )
    def test_zero_sum_pair_needs_two_experts(self, runner, command, extra):
        result = invoke(
            runner, command, "--reports", INTRO_ARG, "--contract",
            "zero-sum-pair", *extra,
        )
        assert result.exit_code == 2
        assert result.output == (
            "error: zero-sum pair contract needs exactly 2 experts, got m=3\n"
        )

    @pytest.mark.parametrize(
        "args,text",
        [
            (("--alpha", "1e10000000"), "'1e10000000'"),
            (("--alpha", "-1E-99999"), "'-1E-99999'"),
        ],
    )
    def test_huge_alpha_exponent_is_malformed_input(self, runner, args, text):
        result = invoke(
            runner, "reward", "--reports", "1/2,1/2; 1/2,1/2", "--contract",
            "nr", *args,
        )
        assert result.exit_code == 64
        assert result.output == (
            f"error: refusing {text}: its exponent exceeds 4300 in magnitude\n"
        )

    def test_alpha_too_long_to_print_is_malformed_input(self, runner):
        args = ("reward", "--reports", "1/2,1/2; 1/2,1/2", "--contract", "nr")
        result = invoke(runner, *args, "--alpha", "1e4300")
        assert result.exit_code == 64
        assert result.output == (
            "error: refusing '1e4300': its numerator or denominator has "
            "more than 4300 digits\n"
        )
        printed = invoke(runner, *args, "--alpha", "1e4290")
        assert printed.exit_code == 0
        assert str(10**4290 // 2) in printed.output


    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_payment_too_long_to_print_is_malformed_input(self, runner, fmt):
        # The alpha's denominator has 4300 digits, which still prints; the
        # payments' denominators multiply it by the reports' and do not.
        result = invoke(
            runner, "reward", "--reports", "1/3,2/3; 1/7,6/7", "--contract",
            "nr", "--alpha", "-1e-4299", "--format", fmt,
        )
        assert result.exit_code == 64
        assert result.stdout == ""
        assert result.stderr == (
            "error: a result is too long to print: over 4300 digits\n"
        )

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_payment_inside_the_digit_limit_prints(self, runner, fmt):
        result = invoke(
            runner, "reward", "--reports", "1/2,1/2; 1/2,1/2", "--contract",
            "nr", "--alpha", "1e4290", "--format", fmt,
        )
        assert result.exit_code == 0
        assert result.stderr == ""
        payment = str(5 * 10**4289)
        cells = [(i, j) for i in (1, 2) for j in (1, 2)]
        if fmt == "table":
            assert result.stdout == "expert  outcome  reward\n" + "".join(
                f"{i}       {j}        {payment} (5e+4289)\n" for i, j in cells
            )
        elif fmt == "csv":
            want = "expert,outcome,reward\r\n" + "".join(
                f"{i},{j},{payment}\r\n" for i, j in cells
            )
            assert result.stdout_bytes.decode() == want
        else:
            assert json.loads(result.stdout) == {
                "command": "reward",
                "config": {
                    "alpha": str(10**4290),
                    "coalition": None,
                    "contract": "nr",
                    "outcome": None,
                    "permissive": False,
                },
                "results": {
                    "profile": {"n": 2, "reports": [["1/2", "1/2"]] * 2},
                    "rewards": [
                        {
                            "expert": i,
                            "outcome": j,
                            "reward": {"decimal": "5e+4289", "fraction": payment},
                        }
                        for i, j in cells
                    ],
                },
                "certificates": [],
            }


class TestDemoIntro:
    def test_default_walkthrough(self, runner):
        result = invoke(runner, "demo-intro")
        assert result.exit_code == 0
        assert "44/25 (1.76)" in result.output
        assert "51/25 (2.04)" in result.output
        assert "7/25 (0.28)" in result.output
        assert "1 - sqrt(31/150)" in result.output
        assert "sqrt(61/150)" in result.output

    def test_json_certificate(self, runner):
        result = invoke(runner, "demo-intro", "--format", "json")
        payload = json.loads(result.output)
        assert payload["results"]["reference_checked"] is True
        (cert,) = payload["certificates"]
        assert cert["kind"] == "dominance"
        assert cert["deltas"] == ["7/25", "7/25"]
        assert payload["results"]["interval"]["empty"] is False

    def test_subcoalition(self, runner):
        result = invoke(runner, "demo-intro", "--coalition", "1,3")
        assert result.exit_code == 0

    def test_singleton_coalition_is_config_error(self, runner):
        result = invoke(runner, "demo-intro", "--coalition", "2")
        assert result.exit_code == 2

    def test_internal_inconsistency_exits_70(self, runner, monkeypatch):
        def explode(coalition=None):
            raise InternalInconsistencyError("reference value drifted")

        monkeypatch.setattr("elicit.cli.run_intro", explode)
        result = invoke(runner, "demo-intro")
        assert result.exit_code == 70
        assert "reference value drifted" in result.output


class TestSearch:
    def test_direct_deviation_certificate_exits_3(self, runner, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            '{"n": 2, "reports": [["2/5", "3/5"], ["1/2", "1/2"], '
            '["9/10", "1/10"]]}'
        )
        deviation = tmp_path / "deviation.json"
        deviation.write_text(
            '{"n": 2, "reports": [["3/5", "2/5"], ["3/5", "2/5"], '
            '["3/5", "2/5"]]}'
        )
        result = invoke(
            runner,
            "search",
            "--input",
            str(baseline),
            "--deviation",
            str(deviation),
        )
        assert result.exit_code == 3
        assert "dominance certificate" in result.output
        assert "7/25" in result.output

    def test_grid_on_safe_contract_finds_nothing(self, runner):
        result = invoke(
            runner,
            "search",
            "--reports",
            INTRO_ARG,
            "--contract",
            "nr",
            "--alpha",
            "-1",
            "--grid",
            "6",
        )
        assert result.exit_code == 0
        assert "no dominance certificate" in result.output

    def test_grid_on_plain_scoring_finds_intro_arbitrage(self, runner):
        result = invoke(
            runner, "search", "--reports", INTRO_ARG, "--grid", "10"
        )
        assert result.exit_code == 3

    def test_zero_sum_pair_grid_enumerates_sum_vectors(self, runner):
        # 1002 sum vectors; 1002**2 member products would pass the cap.
        result = invoke(
            runner, "search", "--reports", "1/2,1/2; 1/2,1/2", "--contract",
            "zero-sum-pair", "--coalition", "1,2", "--grid", "1001",
            "--format", "json",
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["results"] == {"found": False}

    def test_alpha_zero_edge_case_with_permissive(self, runner):
        result = invoke(
            runner,
            "search",
            "--reports",
            "1/2,1/2; 1/2,1/2; 0,1",
            "--contract",
            "nr",
            "--alpha",
            "0",
            "--permissive",
            "--coalition",
            "1,2",
            "--grid",
            "10",
        )
        assert result.exit_code == 3
        assert "dominance certificate" in result.output

    def test_expected_kind_via_flag(self, runner, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            '{"n": 2, "reports": [["1/2", "1/2"], ["1/2", "1/2"], '
            '["1/2", "1/2"]]}'
        )
        deviation = tmp_path / "deviation.json"
        deviation.write_text(
            '{"n": 2, "reports": [["1", "0"], ["1", "0"], ["1", "0"]]}'
        )
        base_args = (
            "search",
            "--input",
            str(baseline),
            "--deviation",
            str(deviation),
            "--contract",
            "nr",
            "--alpha",
            "16",
        )
        plain = invoke(runner, *base_args)
        assert plain.exit_code == 0
        expected = invoke(runner, *base_args, "--expected", "--format", "json")
        assert expected.exit_code == 3
        payload = json.loads(expected.output)
        (cert,) = payload["certificates"]
        assert cert["kind"] == "expected"
        assert cert["member_expected_gains"] == ["9/2", "9/2", "9/2"]

    def test_log_expected_skips_ruled_out_outcomes(self, runner, tmp_path):
        # Expert 1 rules out outcome 1, where the coalition's gain is +inf;
        # that outcome carries no weight in expert 1's expectation.
        deviation = tmp_path / "deviation.json"
        deviation.write_text(
            '{"n": 2, "reports": [["1/4", "3/4"], ["1/4", "3/4"]]}'
        )
        args = (
            "search", "--reports", "0,1; 1/2,1/2", "--contract",
            "independent-log", "--deviation", str(deviation),
        )
        assert invoke(runner, *args).exit_code == 3
        expected = invoke(runner, *args, "--expected", "--format", "json")
        assert expected.exit_code == 3
        (cert,) = json.loads(expected.output)["certificates"]
        assert cert["kind"] == "expected"
        assert cert["certainty"] == "numeric"

    def test_log_tie_at_minus_inf_certifies(self, runner, tmp_path):
        # Both experts rule out outcome 1 before and after the move: its
        # -inf totals tie, and outcomes 2 and 3 each gain -ln(3/4).
        deviation = tmp_path / "deviation.json"
        deviation.write_text(
            '{"n": 3, "reports": [["0", "1/2", "1/2"], ["0", "1/2", "1/2"]]}'
        )
        result = invoke(
            runner, "search", "--reports", "0,1/4,3/4; 0,3/4,1/4",
            "--contract", "independent-log", "--deviation", str(deviation),
        )
        assert result.exit_code == 3
        rows = [line.split() for line in result.output.splitlines()]
        assert ["1", "0"] in rows
        assert ["2", "0.287682"] in rows and ["3", "0.287682"] in rows

    def test_log_grid_certifies_a_gain_on_a_ruled_out_outcome(self, runner):
        # Both experts moving to (0, 1) tie on outcome 1 (product 0 both
        # before and after) and gain +inf on outcome 2.
        result = invoke(
            runner, "search", "--reports", "1,0; 0,1", "--contract",
            "independent-log", "--grid", "4", "--format", "json",
        )
        assert result.exit_code == 3
        (cert,) = json.loads(result.output)["certificates"]
        assert cert["deltas"] == [0.0, "inf"]
        assert cert["certainty"] == "numeric"

    def test_budget_flags_are_exclusive(self, runner):
        neither = invoke(runner, "search", "--reports", INTRO_ARG)
        assert neither.exit_code == 2
        both = invoke(
            runner,
            "search",
            "--reports",
            INTRO_ARG,
            "--grid",
            "5",
            "--trials",
            "5",
            "--seed",
            "1",
        )
        assert both.exit_code == 2

    def test_random_needs_seed(self, runner):
        result = invoke(
            runner, "search", "--reports", INTRO_ARG, "--trials", "5"
        )
        assert result.exit_code == 2
        assert "seed" in result.output.lower()

    def test_seed_from_environment(self, runner):
        result = invoke(
            runner,
            "search",
            "--reports",
            INTRO_ARG,
            "--contract",
            "nr",
            "--alpha",
            "-1",
            "--trials",
            "5",
            env={"ELICIT_SEED": "123"},
        )
        assert result.exit_code == 0

    def test_deviation_excludes_budget_flags(self, runner, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text('{"reports": [["1/2", "1/2"], ["1/2", "1/2"]]}')
        result = invoke(
            runner,
            "search",
            "--input",
            str(baseline),
            "--deviation",
            str(baseline),
            "--grid",
            "5",
        )
        assert result.exit_code == 2

    def test_oversized_grid_is_refused_up_front(self, runner):
        result = invoke(
            runner,
            "search",
            "--reports",
            "1/3,1/3,1/3; 1/2,1/4,1/4; 0,1/2,1/2",
            "--grid",
            "200",
            "--coalition",
            "1,2,3",
        )
        assert result.exit_code == 2
        # C(202, 2)**3 deviations: one lattice of 20301 points per member.
        assert f"would check {20301**3} deviations" in result.output

    def test_random_search_output_is_deterministic(self, runner):
        args = (
            "search",
            "--reports",
            INTRO_ARG,
            "--trials",
            "20",
            "--seed",
            "9",
            "--format",
            "json",
        )
        first = invoke(runner, *args)
        second = invoke(runner, *args)
        assert first.output == second.output


def test_in_process_calls_release_their_output_stream():
    # Callers that run the CLI in-process redirect stdout per call; the
    # command must not keep those streams alive.
    refs = []
    for _ in range(3):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main.main(
                args=["score", "--reports", INTRO_ARG], standalone_mode=False
            )
        assert out.getvalue()
        refs.append(weakref.ref(out))
        del out
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


class TestVerify:
    SMALL = (
        "--m-max", "3", "--n-max", "2",
        "--trials", "60", "--baselines", "3",
        "--profiles", "12", "--probes", "2", "--grid", "10",
    )

    def test_single_suite_passes(self, runner):
        result = invoke(runner, "verify", "--suite", "identities", *self.SMALL)
        assert result.exit_code == 0
        assert "PASS" in result.output
        assert "all passed" in result.output

    def test_suite_subset_and_json(self, runner):
        result = invoke(
            runner,
            "verify",
            "--suite",
            "identities,collusion",
            *self.SMALL,
            "--format",
            "json",
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        names = [s["name"] for s in payload["results"]["suites"]]
        assert names == ["identities", "collusion"]
        assert payload["results"]["all_passed"] is True

    def test_unknown_suite_is_usage_error(self, runner):
        result = invoke(runner, "verify", "--suite", "bogus")
        assert result.exit_code == 2
        assert "bogus" in result.output

    def test_huge_alpha_exponent_is_malformed_input(self, runner):
        result = invoke(
            runner, "verify", "--suite", "freeness", *self.SMALL,
            "--alpha", "1e10000000",
        )
        assert result.exit_code == 64
        assert result.output == (
            "error: refusing '1e10000000': its exponent exceeds 4300 in "
            "magnitude\n"
        )

    def test_invalid_custom_alpha_needs_permissive(self, runner):
        result = invoke(
            runner,
            "verify",
            "--suite",
            "freeness",
            *self.SMALL,
            "--alpha",
            "5/3",
        )
        assert result.exit_code == 2
        permissive = invoke(
            runner,
            "verify",
            "--suite",
            "freeness",
            *self.SMALL,
            "--alpha",
            "5/3",
            "--permissive",
        )
        assert permissive.exit_code == 0
        assert "anticipated behavior" in permissive.output

    def test_failing_suite_exits_1(self, runner, monkeypatch):
        def fake(names, config):
            return [
                SuiteResult(
                    name="identities",
                    passed=False,
                    checks=1,
                    failures=("spread was nonzero",),
                    findings=(),
                    details={},
                )
            ]

        monkeypatch.setattr("elicit.cli.run_suites", fake)
        result = invoke(runner, "verify", "--suite", "identities")
        assert result.exit_code == 1
        assert "FAIL" in result.output
        assert "spread was nonzero" in result.output

    def test_csv_rows_per_suite(self, runner):
        result = invoke(
            runner,
            "verify",
            "--suite",
            "identities",
            *self.SMALL,
            "--format",
            "csv",
        )
        assert result.stdout_bytes.startswith(
            b"suite,status,checks,failures,findings\r\n"
        )
        assert "identities,pass" in result.output

    def test_bad_shape_limits(self, runner):
        assert invoke(runner, "verify", "--m-max", "1").exit_code == 2

    @pytest.mark.parametrize(
        "args,message",
        [
            (("verify", "--m-max", "1"), "m_max must be >= 2, got 1"),
            (("verify", "--n-max", "0"), "n_max must be >= 2, got 0"),
            (
                ("verify", "--grid", "2"),
                "grid must be >= 3 when n_max >= 3, got 2: properness "
                "draws 3-outcome beliefs inside [1/grid, 1 - 1/grid]",
            ),
            (
                ("verify", "--suite", "bogus"),
                "unknown suite(s) bogus; choose from identities, freeness, "
                "properness, collusion, structure, edge-case, "
                "expected-arbitrage, witness",
            ),
            (
                ("verify", "--suite", "freeness", "--m-max", "2", "--n-max",
                 "2", "--alpha", "5/3"),
                "alpha=5/3 lies in the arbitrage-prone band [0, 4) for m=2, "
                "n=2; enable permissive mode to evaluate anyway",
            ),
            (
                ("verify", "--suite", ","),
                "no suite selected; choose from identities, freeness, "
                "properness, collusion, structure, edge-case, "
                "expected-arbitrage, witness",
            ),
            # Refused before identities runs at its full default budget.
            (
                ("verify", "--suite", "identities,freeness", "--alpha", "5/3"),
                "alpha=5/3 lies in the arbitrage-prone band [0, 4) for m=2, "
                "n=2; enable permissive mode to evaluate anyway",
            ),
            # Refused when the configuration is built, before any probe
            # lists its C(1415, 2) lattice reports.
            (
                ("verify", "--suite", "properness", "--n-max", "3", "--grid",
                 "1413"),
                "grid 1413 would have each 3-outcome properness probe list "
                "1000405 lattice reports, more than the limit of 1000000; "
                "use a coarser grid",
            ),
            # -1 and -1/1 are one alpha; running it twice would double
            # the freeness checks.
            (
                ("verify", "--suite", "freeness", "--alpha", "-1", "--alpha",
                 "-1/1"),
                "alphas repeat a value: -1, -1",
            ),
            (("score",), "provide exactly one of --input or --reports"),
            (
                ("score", "--reports", "1/2,1/2", "--outcome", "3"),
                "--outcome 3 out of range 1..2",
            ),
            (
                ("reward", "--reports", INTRO_ARG),
                "--contract nr requires --alpha",
            ),
            (
                ("reward", "--reports", INTRO_ARG, "--contract",
                 "zero-sum-pair", "--alpha", "16"),
                "--alpha does not apply to --contract zero-sum-pair",
            ),
            (
                ("search", "--reports", INTRO_ARG),
                "provide exactly one of --grid or --trials",
            ),
            (
                ("search", "--reports", INTRO_ARG, "--trials", "5"),
                "random search needs --seed (or ELICIT_SEED)",
            ),
            (
                ("search", "--reports", INTRO_ARG, "--deviation",
                 "unread.json", "--grid", "5"),
                "--deviation checks one profile; drop --grid/--trials",
            ),
            # Refused before the first deviation is drawn.
            (
                ("search", "--reports", INTRO_ARG, "--trials",
                 "99999999999999999999", "--seed", "1", "--coalition", "1,2"),
                "random search with 99999999999999999999 trials would check "
                "99999999999999999999 deviations, more than the limit of "
                "1000000; use fewer trials",
            ),
            (
                ("verify", "--trials", "1000001"),
                "trials 1000001 would have a suite cell check 1000001 "
                "deviations, more than the limit of 1000000; use fewer trials",
            ),
        ],
    )
    def test_config_error_is_one_error_line(
        self, runner, args, message
    ):
        # --grid 2 with the default n_max = 4 used to run identities and
        # freeness first and then die inside properness.
        result = invoke(runner, *args)
        assert result.exit_code == 2
        assert result.output == f"error: {message}\n"

    @pytest.mark.parametrize(
        "suite,flag,value",
        [
            ("freeness", "--baselines", "0"),
            ("witness", "--trials", "0"),
            ("identities", "--profiles", "0"),
            ("properness", "--probes", "0"),
            ("properness", "--grid", "1"),
        ],
    )
    def test_empty_budget_is_config_error(self, runner, suite, flag, value):
        result = invoke(
            runner, "verify", "--suite", suite, "--m-max", "2", "--n-max",
            "2", flag, value,
        )
        assert result.exit_code == 2
        name = flag.lstrip("-")
        bound = 2 if name == "grid" else 1
        assert result.output == (
            f"error: {name} must be >= {bound}, got {value}\n"
        )

    def test_properness_takes_an_unsafe_alpha(self, runner):
        # Properness holds for every alpha, so --alpha 3 runs without
        # --permissive and checks each probe twice.
        result = invoke(
            runner, "verify", "--suite", "properness", "--m-max", "3",
            "--n-max", "3", "--probes", "4", "--grid", "6", "--alpha", "3",
            "--format", "json",
        )
        assert result.exit_code == 0
        (suite,) = json.loads(result.output)["results"]["suites"]
        assert suite["passed"] and suite["checks"] == 8

    def test_failing_freeness_prints_the_kept_counterexamples(
        self, runner, monkeypatch
    ):
        def always_certify(contract, baseline, deviation, coalition, before):
            return SimpleNamespace(deltas=(Fraction(1),) * baseline.n)

        monkeypatch.setattr("elicit.suites.check_dominance", always_certify)
        result = invoke(
            runner, "verify", "--suite", "freeness", "--m-max", "3",
            "--n-max", "2", "--trials", "50", "--baselines", "2",
            "--format", "json",
        )
        assert result.exit_code == 1
        (suite,) = json.loads(result.output)["results"]["suites"]
        assert len(suite["failures"]) == 6
        assert suite["failures"][-1] == "... and 395 more failures"
        assert len(suite["details"]["counterexamples"]) == 5

    def test_zero_checks_is_not_a_pass(self, runner):
        # alpha = 3 is unsafe for every shape here, so each witness trial
        # is skipped and the suite checks nothing.
        result = invoke(
            runner, "verify", "--suite", "witness", "--m-max", "3",
            "--n-max", "2", "--trials", "20", "--alpha", "3",
        )
        assert result.exit_code == 1
        assert "FAIL  witness" in result.output
        assert "failure: ran zero checks" in result.output

    @pytest.mark.parametrize(
        "trials,baselines", [("7", "3"), ("2", "5"), ("6", "3")]
    )
    def test_freeness_runs_exactly_the_trial_budget(
        self, runner, trials, baselines
    ):
        result = invoke(
            runner, "verify", "--suite", "freeness", "--m-max", "2",
            "--n-max", "2", "--trials", trials, "--baselines", baselines,
            "--format", "json",
        )
        assert result.exit_code == 0
        (suite,) = json.loads(result.output)["results"]["suites"]
        # one shape, four default alphas, `trials` deviations per alpha
        assert suite["checks"] == 4 * int(trials)
