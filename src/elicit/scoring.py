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
a score is (2*D*c_j - sum(c**2)) / D**2.  The report also caches its n
scores (``Distribution.quadratic_scores``), built on first use, so scoring
a report again costs a range check and a tuple lookup and builds no
``Fraction``.

An expected score has a closed form under the quadratic rule.  With
(Dr, R, square) = ``report.scaled`` and (Db, B, _) = ``belief.scaled``,
the belief's weights sum to 1, so

    sum_j b_j * (2*r_j - sum(r**2)) = 2*b.r - sum(r**2)
                                    = (2*Dr*(B.R) - Db*square) / (Db*Dr**2),

one ``Fraction`` from two integer dot products, whatever n is
(``QuadraticRule.expected``).  A rule with no closed form, such as the
log rule or a custom rule, takes the expectation of its scores
(``ScoringRule.expected``): an exact one is summed on integers, the
belief's counts times the scores' numerators added over a running common
denominator, into one ``Fraction``.  A subclass that redefines ``score``
without redefining ``expected`` gets that generic expectation back, so a
closed form never outlives the score it stands for.

``properness_probe`` finds a rule's best reports over a full simplex
lattice, exhaustive at that resolution.  The verification suites pair it
with an exact identity that proves properness on the whole simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .simplex import Distribution, _require_index, simplex_lattice

__all__ = [
    "quadratic_score",
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
    # The range check stays: the cached tuple would accept j = -1.
    _require_index("outcome", j, report.n)
    return report.quadratic_scores[j]


def log_score(report: Distribution, j: int) -> float:
    """Logarithmic score ln(p_j), with -inf when the outcome was ruled out."""
    _require_index("outcome", j, report.n)
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

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A closed-form expectation holds only for the score it was
        # derived from: a new score without a new expectation falls back
        # to the generic sum of scores.
        if "score" in cls.__dict__ and "expected" not in cls.__dict__:
            cls.expected = ScoringRule.expected

    def score(self, report: Distribution, j: int):
        raise NotImplementedError

    def expected(self, report: Distribution, belief: Distribution):
        """Expected score of the report under the belief.

        The generic path sums belief[j] * score(report, j) over the
        outcomes the belief allows (``_expectation``).
        """
        _check_shapes(report, belief)
        score = self.score
        return _expectation(belief, lambda j: score(report, j), self.exact)


def _check_shapes(report: Distribution, belief: Distribution) -> None:
    if report.n != belief.n:
        raise ValueError(
            f"report has {report.n} outcomes, belief has {belief.n}"
        )


def _quadratic_expectation(
    report: Distribution, belief: Distribution
) -> tuple[int, int]:
    """The expected quadratic score as an unreduced (numerator, denominator).

    (2*Dr*(B.R) - Db*square, Db*Dr**2), from ``report.scaled`` = (Dr, R,
    square) and ``belief.scaled`` = (Db, B, _); see the module docstring.
    """
    _check_shapes(report, belief)
    scale, counts, square = report.scaled
    belief_scale, belief_counts = belief.scaled[:2]
    dot = sum([b * c for b, c in zip(belief_counts, counts)])
    return (
        2 * scale * dot - belief_scale * square,
        belief_scale * scale * scale,
    )


@dataclass(frozen=True)
class QuadraticRule(ScoringRule):
    """The quadratic rule; exact rational scores."""

    def score(self, report: Distribution, j: int) -> Fraction:
        return quadratic_score(report, j)

    def expected(self, report: Distribution, belief: Distribution) -> Fraction:
        """2*b.r - sum(r**2) in closed form: one ``Fraction``."""
        return Fraction(*_quadratic_expectation(report, belief))


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
    scores -inf, the expectation is -inf.  Returns
    ``rule.expected(report, belief)``, a closed form where the rule has
    one.
    """
    # A rule's own ``expected`` may not check the shapes.
    _check_shapes(report, belief)
    return rule.expected(report, belief)


def _expectation(
    belief: Distribution, value: Callable[[int], object], exact: bool
):
    """Sum of belief[j] * value(j) over the outcomes the belief allows.

    The one belief-weighted expectation, shared by
    ``ScoringRule.expected``, ``contracts.expected_reward`` and the member
    gains of an expected arbitrage certificate.  value(j) is never asked
    for an outcome of zero belief, so 0 * inf never arises; a float -inf
    value makes the expectation -inf.

    An exact expectation is summed on integers.  With the belief's counts
    c over D (``Distribution.scaled``) it is sum(c_j * v_j) / D: each
    value's numerator, times c_j, is added over a running common
    denominator of the values, and the result is one ``Fraction``.
    Values may be ``Fraction``s or ints.  An inexact sum starts from 0.0.
    """
    if exact:
        scale, counts, _ = belief.scaled
        num, den = 0, 1
        for j, c in enumerate(counts):
            if c == 0:
                continue
            v = value(j)
            p, q = c * v.numerator, v.denominator
            if q == den:
                num += p
            elif den % q == 0:
                num += p * (den // q)
            else:
                g = math.gcd(den, q)
                num = num * (q // g) + p * (den // g)
                den = den // g * q
        return Fraction(num, den * scale)
    total = 0.0
    for j, q in enumerate(belief.weights):
        if q == 0:
            continue
        v = value(j)
        if v == float("-inf"):
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
