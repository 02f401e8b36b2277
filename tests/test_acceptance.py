"""Acceptance gate: nine headline claims, checked at full budget.

Each test covers one numbered criterion and always prints exactly one
``criterion N (...): PASS|FAIL`` line to the terminal, bypassing capture,
so a run shows the scoreboard even without -v.  Tolerances and runtime
bounds are pinned as constants here; everything not explicitly bounded is
compared exactly, as rationals.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Sequence

from elicit import (
    ArbitrageFreeContract,
    Coalition,
    Distribution,
    ReportProfile,
    check_expected_arbitrage,
    expected_reward,
    properness_probe,
)
from elicit.demo import run_intro
from elicit.suites import VerifyConfig, run_suites

FULL_BUDGET = VerifyConfig()

INTERVAL_TOLERANCE = 1e-3  # agreement with the 3-decimal reference endpoints
GRADIENT_BOUND = 1e-6  # finite-difference gradient norm at the belief
INTRO_TIME_LIMIT = 1.0  # seconds
FREENESS_TIME_LIMIT = 600.0  # seconds

SHAPES = [(m, n) for m in range(2, 6) for n in range(2, 5)]


def _fd_gradient_norm(offsets: Sequence[Fraction], belief) -> float:
    """Central-difference gradient norm of expected payment at the belief.

    The expected payment, as a function of the expert's own report with
    everyone else fixed, is maximized at the true belief; its gradient
    there must vanish up to float noise.
    """
    n = len(offsets)
    offs = [float(o) for o in offsets]
    b = [float(w) for w in belief.weights]

    def expected(x: list[float]) -> float:
        # The float quadratic score 2*x_j - sum(x**2), at points off the
        # simplex too, so each coordinate can step on its own.
        return sum(
            b[j] * (2.0 * x[j] - sum(p * p for p in x) + offs[j])
            for j in range(n)
        )

    h = 1e-6
    grad = []
    for k in range(n):
        up = b[:]
        up[k] += h
        down = b[:]
        down[k] -= h
        grad.append((expected(up) - expected(down)) / (2 * h))
    return math.sqrt(sum(g * g for g in grad))


def _criterion(capsys, number: int, label: str, body) -> None:
    verdict = "FAIL"
    try:
        body()
        verdict = "PASS"
    finally:
        with capsys.disabled():
            print(f"criterion {number} ({label}): {verdict}", flush=True)


def _run_suite(name: str):
    (result,) = run_suites([name], FULL_BUDGET)
    return result


def test_criterion_1_intro_reproduction(capsys):
    def body():
        start = time.perf_counter()
        report = run_intro()
        elapsed = time.perf_counter() - start
        assert report.baseline_totals == (Fraction(44, 25), Fraction(14, 25))
        assert report.collusion_totals == (Fraction(51, 25), Fraction(21, 25))
        assert report.deltas == (Fraction(7, 25), Fraction(7, 25))
        assert report.certificate is not None
        interval = report.interval
        assert not interval.empty
        assert str(interval.lower) == "1 - sqrt(31/150)"
        assert str(interval.upper) == "sqrt(61/150)"
        assert abs(interval.lower.value() - 0.546) <= INTERVAL_TOLERANCE
        assert abs(interval.upper.value() - 0.637) <= INTERVAL_TOLERANCE
        assert report.reference_checked
        assert elapsed < INTRO_TIME_LIMIT, f"intro took {elapsed:.3f}s"

    _criterion(capsys, 1, "intro reproduction", body)


def test_criterion_2_no_arbitrage_in_safe_bands(capsys):
    def body():
        assert ArbitrageFreeContract(alpha=-1).exact
        start = time.perf_counter()
        result = _run_suite("freeness")
        elapsed = time.perf_counter() - start
        assert result.passed, result.failures
        assert result.findings == ()
        # 12 shapes x 4 alphas x 10000 deviations (20 baselines x 500)
        assert result.checks == len(SHAPES) * 4 * FULL_BUDGET.trials
        assert "counterexamples" not in result.details
        assert elapsed < FREENESS_TIME_LIMIT, f"freeness took {elapsed:.1f}s"

    _criterion(capsys, 2, "no arbitrage in the safe bands", body)


def test_criterion_3_strict_properness(capsys):
    def body():
        contract = ArbitrageFreeContract(alpha=16)
        half = ReportProfile.of(*[("1/2", "1/2")] * 3)
        rule = contract.expert_view(half, 0)
        belief = Distribution.of("2/5", "3/5")
        probe = properness_probe(rule, belief, steps=FULL_BUDGET.grid)
        assert probe.unique and probe.argmax == belief
        assert _fd_gradient_norm(rule.offsets, belief) < GRADIENT_BOUND

        result = _run_suite("properness")
        assert result.passed, result.failures
        # one argmax check plus one identity check per probe
        assert result.checks == 2 * FULL_BUDGET.probes

    _criterion(capsys, 3, "strict properness of the family", body)


def test_criterion_4_baseline_admits_collusion(capsys):
    def body():
        result = _run_suite("collusion")
        assert result.passed, result.failures
        assert result.checks == FULL_BUDGET.profiles

    _criterion(capsys, 4, "independent scoring admits collusion", body)


def test_criterion_5_identity_rewrites(capsys):
    def body():
        result = _run_suite("identities")
        assert result.passed, result.failures
        # general rewrite: profiles x m samples per shape and alpha;
        # two-outcome rewrite doubles the n=2 shapes
        per_alpha = sum(
            FULL_BUDGET.profiles * m * (2 if n == 2 else 1)
            for m, n in SHAPES
        )
        assert result.checks == 3 * per_alpha

    _criterion(capsys, 5, "zero-spread identity rewrites", body)


def test_criterion_6_coalition_reward_structure(capsys):
    def body():
        result = _run_suite("structure")
        assert result.passed, result.failures
        vertex_checks = sum(
            7 * (3 * (m - c) + 1)
            for m in range(3, 7)
            for c in range(3, m + 1)
        )
        assert result.checks == 50 * 5 + 200 + vertex_checks

    _criterion(capsys, 6, "parabolic coalition reward structure", body)


def test_criterion_7_alpha_zero_edge_case(capsys):
    def body():
        result = _run_suite("edge-case")
        assert result.passed, result.failures
        assert "boundary_certificate" in result.details
        assert any("boundary arbitrage" in f for f in result.findings)
        # one boundary grid hunt plus the interior random trials
        assert result.checks == 1 + FULL_BUDGET.trials

    _criterion(capsys, 7, "alpha=0 boundary edge case", body)


def test_criterion_8_expected_arbitrage_at_large_alpha(capsys):
    def body():
        alpha = Fraction(16)
        contract = ArbitrageFreeContract(alpha=alpha)
        baseline = ReportProfile.of(*[("1/2", "1/2")] * 3)
        deviation = ReportProfile.of(*[(1, 0)] * 3)
        coalition = Coalition.full(3)
        for i in range(3):
            belief = baseline.reports[i]
            assert expected_reward(contract, baseline, i, belief) == Fraction(13, 2)
            assert expected_reward(contract, deviation, i, belief) == alpha / 2
        cert = check_expected_arbitrage(contract, baseline, deviation, coalition)
        assert cert is not None
        assert cert.member_expected_gains() == (Fraction(9, 2),) * 3

        result = _run_suite("expected-arbitrage")
        assert result.passed, result.failures

    _criterion(capsys, 8, "expected arbitrage at large alpha", body)


def test_criterion_9_hurting_outcome_witness(capsys):
    def body():
        result = _run_suite("witness")
        assert result.passed, result.failures
        assert result.findings == ()
        assert result.checks == FULL_BUDGET.trials

    _criterion(capsys, 9, "hurting-outcome witness validity", body)
