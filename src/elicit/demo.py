"""The three-forecaster walkthrough: collusion against independent scoring.

Three experts report rain probabilities 0.4, 0.5, and 0.9 and are paid
independent quadratic scores.  If they all switch to the average report
0.6, the group's total payment rises under both outcomes: a riskless
joint gain.  More, any shared report with rain probability in roughly
[0.545, 0.638] dominates the honest profile, and this module computes
that window with exact endpoints.

Every quantity is recomputed from first principles and cross-checked
against an independent path (dominance checks at probe points, and frozen
reference values for the default coalition); any disagreement raises
InternalInconsistencyError rather than printing a wrong number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arbitrage import (
    ArbitrageCertificate,
    ArbitrageInterval,
    check_dominance,
    mean_collusion,
    uniform_report_arbitrage_interval,
)
from .contracts import IndependentScoring, coalition_totals
from .scoring import QuadraticRule
from .simplex import Coalition, Distribution, ReportProfile

__all__ = [
    "INTRO_PROFILE",
    "InternalInconsistencyError",
    "IntroReport",
    "run_intro",
]

INTRO_PROFILE = ReportProfile.of(
    ("2/5", "3/5"), ("1/2", "1/2"), ("9/10", "1/10")
)

# Frozen reference values for the default (all-experts) walkthrough; the
# run fails loudly if recomputation ever drifts from these.
_REFERENCE_BASELINE_TOTALS = (Fraction(44, 25), Fraction(14, 25))
_REFERENCE_COLLUSION_TOTALS = (Fraction(51, 25), Fraction(21, 25))
_REFERENCE_RADICANDS = (Fraction(31, 150), Fraction(61, 150))
# Three-decimal published rounding of the window; endpoints must match
# within this tolerance.
_REFERENCE_INTERVAL = (0.546, 0.637)
_REFERENCE_TOLERANCE = 1e-3


class InternalInconsistencyError(RuntimeError):
    """Recomputed walkthrough values disagree with an independent check."""


@dataclass(frozen=True)
class IntroReport:
    """Everything the walkthrough derives, after cross-checking."""

    profile: ReportProfile
    coalition: Coalition
    expert_scores: tuple
    baseline_totals: tuple
    collusion_report: Distribution
    collusion_totals: tuple
    deltas: tuple
    certificate: Optional[ArbitrageCertificate]
    interval: ArbitrageInterval
    reference_checked: bool


def _probe_interval(
    contract: IndependentScoring,
    profile: ReportProfile,
    coalition: Coalition,
    interval: ArbitrageInterval,
) -> None:
    # Independent path: membership in the interval must coincide with an
    # actual dominance certificate for the uniform report, at every
    # hundredth.
    for k in range(101):
        x = Fraction(k, 100)
        uniform = Distribution((x, 1 - x))
        deviation = profile.replace({i: uniform for i in coalition})
        cert = check_dominance(contract, profile, deviation, coalition)
        if interval.contains(x) != (cert is not None):
            raise InternalInconsistencyError(
                f"interval and dominance check disagree at x={x}: "
                f"contains={interval.contains(x)}, "
                f"certificate={'yes' if cert else 'no'}"
            )


def run_intro(coalition: Optional[Coalition] = None) -> IntroReport:
    """Recompute the walkthrough for the given coalition (default: all).

    Raises InternalInconsistencyError when any recomputed value fails its
    independent cross-check, or (for the default coalition) deviates from
    the frozen reference values.
    """
    profile = INTRO_PROFILE
    default = coalition is None
    if default:
        coalition = Coalition.full(profile.m)
    coalition.validate_for(profile.m)
    if coalition.size < 2:
        raise ValueError("the walkthrough needs a coalition of at least 2")
    contract = IndependentScoring(rule=QuadraticRule())

    # One row per expert: the outcome rows of evaluate, transposed.
    expert_scores = tuple(
        zip(*(contract.evaluate(profile, j) for j in range(profile.n)))
    )
    baseline_totals = coalition_totals(contract, profile, coalition)
    collusion = mean_collusion(profile, coalition)
    collusion_report = collusion.reports[coalition.members[0]]
    collusion_totals_ = coalition_totals(contract, collusion, coalition)
    deltas = tuple(
        a - b for a, b in zip(collusion_totals_, baseline_totals)
    )
    certificate = check_dominance(contract, profile, collusion, coalition)

    all_same = len({profile.reports[i] for i in coalition}) == 1
    if (certificate is None) != all_same:
        raise InternalInconsistencyError(
            "mean collusion must certify exactly when coalition reports "
            "differ"
        )
    if certificate is not None and certificate.deltas != deltas:
        raise InternalInconsistencyError(
            f"certificate deltas {certificate.deltas} disagree with "
            f"recomputed deltas {deltas}"
        )

    interval = uniform_report_arbitrage_interval(profile, coalition, 0)
    _probe_interval(contract, profile, coalition, interval)

    if default:
        if baseline_totals != _REFERENCE_BASELINE_TOTALS:
            raise InternalInconsistencyError(
                f"baseline totals {baseline_totals} != reference "
                f"{_REFERENCE_BASELINE_TOTALS}"
            )
        if collusion_totals_ != _REFERENCE_COLLUSION_TOTALS:
            raise InternalInconsistencyError(
                f"collusion totals {collusion_totals_} != reference "
                f"{_REFERENCE_COLLUSION_TOTALS}"
            )
        radicands = (interval.lower.radicand, interval.upper.radicand)
        if radicands != _REFERENCE_RADICANDS:
            raise InternalInconsistencyError(
                f"interval radicands {radicands} != reference "
                f"{_REFERENCE_RADICANDS}"
            )
        endpoints = (interval.lower.value(), interval.upper.value())
        for got, want in zip(endpoints, _REFERENCE_INTERVAL):
            if abs(got - want) > _REFERENCE_TOLERANCE:
                raise InternalInconsistencyError(
                    f"endpoint {got:.6f} deviates from reference {want} "
                    f"by more than {_REFERENCE_TOLERANCE}"
                )

    return IntroReport(
        profile=profile,
        coalition=coalition,
        expert_scores=expert_scores,
        baseline_totals=baseline_totals,
        collusion_report=collusion_report,
        collusion_totals=collusion_totals_,
        deltas=deltas,
        certificate=certificate,
        interval=interval,
        reference_checked=default,
    )
