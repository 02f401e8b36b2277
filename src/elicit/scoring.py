"""Proper scoring rules for single-expert forecast elicitation.

A scoring rule maps a reported distribution and a realized outcome to a
payment.  The quadratic rule here is strictly proper: an expert maximizes
expected score exactly by reporting their true belief.  The logarithmic
rule is the other classic strictly proper rule; it is unbounded below
(score of an outcome reported impossible is -inf), so everything downstream
of it runs in floats, while the quadratic rule stays exact.

The quadratic score is computed on integers.  Each report caches its
weights once as integer counts c over the lcm D of their denominators
(``Distribution.scaled``), together with the sum of the squared counts, so
a score is (2*D*c_j - sum(c**2)) / D**2: one ``Fraction`` per call, built
at the boundary, however many outcomes the report has.

``properness_probe`` gives an empirical check of properness over any finite
candidate set of reports, used by the verification suites rather than a
symbolic proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .simplex import Distribution, simplex_lattice

__all__ = [
    "quadratic_score",
    "quadratic_score_float",
    "log_score",
    "ScoringRule",
    "QuadraticRule",
    "LogRule",
    "expected_score",
    "ProbeResult",
    "properness_probe",
]


def quadratic_score(report: Distribution, j: int) -> Fraction:
    """Quadratic (Brier-style) score: 1 - squared distance to the j vertex.

    Equals 2*p_j - sum_k p_k**2 after expanding the square.  Strictly
    proper; range is [-1, 1] on the simplex, with 1 attained only by the
    vertex at j.
    """
    if not 0 <= j < report.n:
        raise IndexError(f"outcome {j} out of range for n={report.n}")
    # With w = c / D: 2*w_j - sum(w**2) = (2*D*c_j - sum(c**2)) / D**2.
    scale, counts, square = report.scaled
    return Fraction(2 * scale * counts[j] - square, scale * scale)


def quadratic_score_float(weights: Sequence[float], j: int) -> float:
    """Float quadratic score on an arbitrary weight vector.

    Accepts points off the simplex so finite-difference gradient checks
    can step each coordinate independently.
    """
    return 2.0 * weights[j] - sum(p * p for p in weights)


def log_score(report: Distribution, j: int) -> float:
    """Logarithmic score ln(p_j), with -inf when the outcome was ruled out."""
    if not 0 <= j < report.n:
        raise IndexError(f"outcome {j} out of range for n={report.n}")
    p = report.weights[j]
    if p == 0:
        return float("-inf")
    return math.log(p)


class ScoringRule:
    """Interface: score(report, outcome) -> payment.

    ``exact`` tells callers whether scores are Fractions (safe for exact
    dominance comparisons) or floats (compare with a tolerance).
    """

    exact: bool = True

    def score(self, report: Distribution, j: int):
        raise NotImplementedError


@dataclass(frozen=True)
class QuadraticRule(ScoringRule):
    """The quadratic rule; exact rational scores."""

    def score(self, report: Distribution, j: int) -> Fraction:
        return quadratic_score(report, j)


@dataclass(frozen=True)
class LogRule(ScoringRule):
    """The logarithmic rule; float scores, -inf on ruled-out outcomes."""

    exact = False

    def score(self, report: Distribution, j: int) -> float:
        return log_score(report, j)


def expected_score(rule: ScoringRule, report: Distribution, belief: Distribution):
    """Expectation of the rule's score under the given belief.

    Outcomes the belief assigns zero probability contribute nothing, even
    when their score is -inf (0 * -inf is taken as 0, the standard
    convention for expected log score).  If any positive-belief outcome
    scores -inf, the expectation is -inf.
    """
    if report.n != belief.n:
        raise ValueError(
            f"report has {report.n} outcomes, belief has {belief.n}"
        )
    return _expectation(belief, lambda j: rule.score(report, j), rule.exact)


def _expectation(
    belief: Distribution, value: Callable[[int], object], exact: bool
):
    """Sum of belief[j] * value(j) over the outcomes the belief allows.

    The one belief-weighted expectation, shared by ``expected_score``,
    ``contracts.expected_reward`` and the member gains of an expected
    arbitrage certificate.  value(j) is never asked for an outcome of
    zero belief, so 0 * inf never arises; a float -inf value makes the
    expectation -inf.  An exact sum starts from Fraction(0), else 0.0.
    """
    total = Fraction(0) if exact else 0.0
    for j, q in enumerate(belief.weights):
        if q == 0:
            continue
        v = value(j)
        if not exact and v == float("-inf"):
            return float("-inf")
        total += q * v
    return total


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of an empirical properness check over a report grid.

    ``maximizers`` holds every grid report achieving the best expected
    score, in grid enumeration order; ``argmax`` is the first.  A strictly
    proper rule must yield a unique maximizer (the belief itself) whenever
    the belief lies on the grid; a tie-set larger than one on such a grid
    is a properness violation.
    """

    best_value: object
    maximizers: tuple[Distribution, ...]

    @property
    def argmax(self) -> Distribution:
        return self.maximizers[0]

    @property
    def unique(self) -> bool:
        return len(self.maximizers) == 1


def properness_probe(
    rule: ScoringRule,
    belief: Distribution,
    steps: int,
    tolerance: float = 0.0,
) -> ProbeResult:
    """Which grid reports maximize expected score under the belief.

    Enumerates the full simplex lattice with denominator ``steps``
    (spacing 1/steps), so the probe is exhaustive at that resolution.
    With an exact rule, ties are exact equalities and ``tolerance`` is
    ignored; with a float rule, reports within ``tolerance`` of the best
    value count as maximizers.
    """
    candidates = list(simplex_lattice(belief.n, steps))
    values = [expected_score(rule, c, belief) for c in candidates]
    best = max(values)
    if rule.exact or tolerance == 0.0:
        keep = [v == best for v in values]
    else:
        keep = [v >= best - tolerance for v in values]
    maximizers = tuple(c for c, k in zip(candidates, keep) if k)
    return ProbeResult(best_value=best, maximizers=maximizers)
