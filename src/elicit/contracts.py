"""Multi-expert contract functions and the arbitrage-free family.

A contract function maps a full report profile and a realized outcome to a
vector of per-expert payments.  Paying each expert an independent strictly
proper score is truthful but lets coalitions profit risklessly by moving
reports in opposite directions.  The family implemented by
``ArbitrageFreeContract`` removes that: expert i earns their own quadratic
score, minus a scaled quadratic score of the other experts' mean report,
plus a linear bonus ``alpha`` times the mean probability the others put on
the realized outcome.

The linear coefficient decides everything.  With m experts on n outcomes
the family is arbitrage-free exactly when ``alpha < 0`` or
``alpha >= safe_cutoff(m, n) = 2 * (m - 1)**2 * n``; anything in between
admits coalitions with a riskless joint gain.  ``validate_alpha``
classifies a coefficient, and evaluation refuses invalid ones unless
explicitly told to proceed.

Payments of the family are computed as integers.  With D the lcm of the
report denominators, k = m - 1 and alpha = p / q, every payment of a
profile is an integer numerator over q * k * D**2.  The terms of
``evaluate`` that do not depend on alpha (the integer column totals and
one sum per expert) are cached once per profile in
``ReportProfile.scaled_totals``, so one outcome's payments cost O(m)
integer operations.  A coalition's totals need no per-expert term at
all: as the paper's construction says, they depend only on two integer
column-sum vectors, T over all experts and S over the members.  Each
payment becomes a ``Fraction`` once, at the boundary.  The four
alpha-dependent coefficients are cached on the contract per (m, n, D),
and the band is checked once per such shape.  The tests keep the plain
``Fraction`` formula as an oracle and check the kernel against it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .scoring import ScoringRule, _expectation, quadratic_score
from .simplex import (
    Coalition,
    Distribution,
    ReportProfile,
    _as_fraction,
    leave_one_out_mean,
)

__all__ = [
    "AlphaRangeError",
    "AlphaVerdict",
    "safe_cutoff",
    "validate_alpha",
    "threshold_two_outcome",
    "threshold_general",
    "ContractFunction",
    "IndependentScoring",
    "ZeroSumPair",
    "ArbitrageFreeContract",
    "InducedExpertRule",
    "coalition_total",
    "coalition_totals",
    "expected_reward",
]


class AlphaRangeError(ValueError):
    """Raised when a linear coefficient sits in the arbitrage-prone band."""


class AlphaVerdict(enum.Enum):
    """Where a linear coefficient falls relative to the safe bands."""

    VALID_NEGATIVE = "valid-negative"
    VALID_LARGE = "valid-large"
    INVALID = "invalid"

    @property
    def valid(self) -> bool:
        return self is not AlphaVerdict.INVALID


def _threshold(m: int, alpha, factor: int) -> Fraction:
    """(m - 1) - alpha / (factor * (m - 1)), built as one Fraction.

    With k = m - 1 and alpha = p / q it is
    (factor * k**2 * q - p) / (factor * k * q).
    """
    if not isinstance(alpha, Rational):
        alpha = _as_fraction(alpha)
    if m < 2:
        raise ValueError(f"need at least 2 experts, got m={m}")
    p, q = alpha.numerator, alpha.denominator
    scale = factor * (m - 1) * q
    return Fraction((m - 1) * scale - p, scale)


def threshold_two_outcome(m: int, alpha: Fraction) -> Fraction:
    """Equivalent threshold form of alpha for two-outcome analysis.

    Defined as (m - 1) - alpha / (4 * (m - 1)).  The two safe bands map to
    threshold > m - 1 (negative alpha) and threshold <= 0 (large alpha,
    n = 2); the arbitrage-prone band is 0 < threshold <= m - 1.
    """
    return _threshold(m, alpha, 4)


def threshold_general(m: int, alpha: Fraction) -> Fraction:
    """Threshold form used for general outcome counts.

    Defined as (m - 1) - alpha / (2 * (m - 1)); negative alpha is exactly
    threshold > m - 1.
    """
    return _threshold(m, alpha, 2)


def safe_cutoff(m: int, n: int) -> int:
    """2 * (m - 1)**2 * n, the inclusive lower end of the large safe band."""
    return 2 * (m - 1) ** 2 * n


def validate_alpha(alpha, m: int, n: int) -> AlphaVerdict:
    """Classify alpha as valid-negative, valid-large, or invalid.

    The large-side cutoff ``safe_cutoff(m, n)`` is itself valid (the bound
    is inclusive).  alpha = 0 is invalid: it admits arbitrage whenever all
    but two experts rule out some outcome.  The band is tested on
    integers alone: alpha = p / q is valid-negative when p < 0 and
    valid-large when p >= safe_cutoff(m, n) * q.  Floats raise TypeError.
    """
    if type(alpha) is not Fraction:
        alpha = _as_fraction(alpha)
    if m < 2:
        raise ValueError(f"need at least 2 experts, got m={m}")
    if n < 2:
        raise ValueError(f"need at least 2 outcomes, got n={n}")
    p, q = alpha.numerator, alpha.denominator
    if p < 0:
        return AlphaVerdict.VALID_NEGATIVE
    if p >= safe_cutoff(m, n) * q:
        return AlphaVerdict.VALID_LARGE
    return AlphaVerdict.INVALID


# Entries of one contract's coefficient cache before it starts over: enough
# for every (m, n, D) the verification suites meet, bounded for a caller
# that evaluates profiles of ever new denominators.
_COEFFICIENT_CACHE_SIZE = 1024


class ContractFunction:
    """Interface: evaluate(profile, outcome) -> per-expert payment tuple."""

    exact: bool = True

    def evaluate(self, profile: ReportProfile, j: int) -> tuple:
        raise NotImplementedError

    def expert_view(self, profile: ReportProfile, i: int) -> ScoringRule:
        """The scoring rule expert i effectively faces, others held fixed.

        Only defined for contracts where the payment decomposes as a
        function of the expert's own report plus terms constant in it.
        """
        raise NotImplementedError


def _check_eval_args(profile: ReportProfile, j: int) -> None:
    if not 0 <= j < profile.n:
        raise IndexError(f"outcome {j} out of range for n={profile.n}")


@dataclass(frozen=True)
class IndependentScoring(ContractFunction):
    """Each expert is paid their own score; no cross-expert terms.

    Truthful but not arbitrage-free for any strictly proper rule.
    """

    rule: ScoringRule

    @property
    def exact(self) -> bool:  # type: ignore[override]
        return self.rule.exact

    def evaluate(self, profile: ReportProfile, j: int) -> tuple:
        _check_eval_args(profile, j)
        score = self.rule.score
        return tuple([score(r, j) for r in profile.reports])

    def expert_view(self, profile: ReportProfile, i: int) -> ScoringRule:
        if not 0 <= i < profile.m:
            raise IndexError(f"expert {i} out of range for m={profile.m}")
        return self.rule


@dataclass(frozen=True)
class InducedExpertRule(ScoringRule):
    """Quadratic score plus outcome-dependent offsets fixed by the others.

    Strictly proper for any offsets: adding a constant per outcome never
    changes which report maximizes expected score.
    """

    offsets: tuple[Fraction, ...]

    def score(self, report: Distribution, j: int) -> Fraction:
        if report.n != len(self.offsets):
            raise ValueError(
                f"report has {report.n} outcomes, offsets cover "
                f"{len(self.offsets)}"
            )
        return quadratic_score(report, j) + self.offsets[j]


@dataclass(frozen=True)
class ZeroSumPair(ContractFunction):
    """Two-expert zero-sum contract: each paid own minus the other's score.

    Uses the quadratic rule.  Budget-balanced by construction, truthful,
    and arbitrage-free: any joint deviation just shuffles payment between
    the two members, so the pair's total is identically zero.
    """

    def evaluate(self, profile: ReportProfile, j: int) -> tuple:
        _check_eval_args(profile, j)
        if profile.m != 2:
            raise ValueError(
                f"zero-sum pair contract needs exactly 2 experts, "
                f"got m={profile.m}"
            )
        a = quadratic_score(profile.reports[0], j)
        b = quadratic_score(profile.reports[1], j)
        return (a - b, b - a)

    def expert_view(self, profile: ReportProfile, i: int) -> ScoringRule:
        if profile.m != 2:
            raise ValueError(
                f"zero-sum pair contract needs exactly 2 experts, "
                f"got m={profile.m}"
            )
        if not 0 <= i < 2:
            raise IndexError(f"expert {i} out of range for m=2")
        other = profile.reports[1 - i]
        offsets = tuple(
            -quadratic_score(other, j) for j in range(profile.n)
        )
        return InducedExpertRule(offsets=offsets)


@dataclass(frozen=True)
class ArbitrageFreeContract(ContractFunction):
    """The linear-coefficient family of truthful arbitrage-free contracts.

    Expert i's payment on outcome j is

        own quadratic score at j
        - (m - 1)**2 * quadratic score of the others' mean report at j
        + alpha * mean probability the others assigned to j.

    Needs m >= 2.  Evaluation raises AlphaRangeError when alpha lies in
    the arbitrage-prone band for the profile's shape, unless
    ``permissive`` is set (useful for demonstrating the failure modes).
    """

    alpha: Fraction
    permissive: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _as_fraction(self.alpha))
        # _coefficients per (m, n, D).  Not a dataclass field, so eq, hash
        # and repr ignore it.
        object.__setattr__(self, "_coefficient_cache", {})

    def require_valid(self, m: int, n: int) -> None:
        """Raise AlphaRangeError unless alpha is safe for m experts, n outcomes.

        A permissive contract accepts every alpha.
        """
        if self.permissive:
            return
        if validate_alpha(self.alpha, m, n).valid:
            return
        raise AlphaRangeError(
            f"alpha={self.alpha} lies in the arbitrage-prone band "
            f"[0, {safe_cutoff(m, n)}) for m={m}, n={n}; enable permissive "
            f"mode to evaluate anyway"
        )

    def _coefficients(self, profile: ReportProfile) -> tuple:
        """Integer coefficients of the payments on one profile.

        With D, A = profile.scaled and (T, G) = profile.scaled_totals (so
        the others' mean report of expert i is (T - A[i]) / (k * D)),
        k = m - 1 and alpha = p / q, expert i's payment on outcome j is
        N[i][j] / (q * k * D**2) where

            N[i][j] = q*k*G[i] + (2*q*k*m - p)*D*A[i][j]
                      - (2*q*k**2 - p)*D*T[j].

        Summed over a coalition C of c members, with S the members' rows
        summed, the sum of G[i] is c*sum(T**2) - 2*sum(T * S), so the
        coalition's numerator on outcome j needs only T and S:

            q*k*(c*sum(T**2) - 2*sum(T * S)) + (2*q*k*m - p)*D*S[j]
            - c*(2*q*k**2 - p)*D*T[j].

        Returns (q * k * D**2, q * k, (2*q*k*m - p) * D, (2*q*k**2 - p) * D),
        cached per (m, n, D); the shape is validated on each cache miss.
        """
        m, n = profile.m, profile.n
        scale = profile.scaled[0]
        cache = self._coefficient_cache
        key = (m, n, scale)
        coefficients = cache.get(key)
        if coefficients is not None:
            return coefficients
        if m < 2:
            raise ValueError(f"need at least 2 experts, got m={m}")
        self.require_valid(m, n)
        k = m - 1
        p, q = self.alpha.numerator, self.alpha.denominator
        qk = q * k
        coefficients = (
            qk * scale * scale,
            qk,
            (2 * qk * m - p) * scale,
            (2 * qk * k - p) * scale,
        )
        if len(cache) >= _COEFFICIENT_CACHE_SIZE:
            cache.clear()
        cache[key] = coefficients
        return coefficients

    def evaluate(self, profile: ReportProfile, j: int) -> tuple:
        _check_eval_args(profile, j)
        denominator, qk, a_coef, t_coef = self._coefficients(profile)
        totals, gaps = profile.scaled_totals
        shift = t_coef * totals[j]
        return tuple(
            Fraction(qk * g + a_coef * a[j] - shift, denominator)
            for a, g in zip(profile.scaled[1], gaps)
        )

    def expert_view(self, profile: ReportProfile, i: int) -> InducedExpertRule:
        if profile.m < 2:
            raise ValueError(
                f"need at least 2 experts, got m={profile.m}"
            )
        if not 0 <= i < profile.m:
            raise IndexError(f"expert {i} out of range for m={profile.m}")
        self.require_valid(profile.m, profile.n)
        k = profile.m - 1
        loo = leave_one_out_mean(profile, i)
        offsets = tuple(
            -(k * k) * quadratic_score(loo, j) + self.alpha * loo.weights[j]
            for j in range(profile.n)
        )
        return InducedExpertRule(offsets=offsets)


def coalition_total(
    contract: ContractFunction,
    profile: ReportProfile,
    coalition: Coalition,
    j: int,
):
    """The coalition's combined payment on outcome j."""
    _check_eval_args(profile, j)
    return coalition_totals(contract, profile, coalition)[j]


def coalition_totals(
    contract: ContractFunction,
    profile: ReportProfile,
    coalition: Coalition,
) -> tuple:
    """Combined coalition payment for every outcome, as a length-n tuple.

    For the alpha family the totals come from the integer column sums T
    (all experts) and S (the members) of ``profile.scaled`` alone, as
    ``ArbitrageFreeContract._coefficients`` derives; the per-expert sums
    of ``ReportProfile.scaled_totals`` are not needed.  Other contracts
    sum the members' ``evaluate`` payments.
    """
    coalition.validate_for(profile.m)
    if isinstance(contract, ArbitrageFreeContract):
        denominator, qk, a_coef, t_coef = contract._coefficients(profile)
        rows = profile.scaled[1]
        totals = [sum(column) for column in zip(*rows)]
        sums = [sum(column) for column in zip(*[rows[i] for i in coalition])]
        size = coalition.size
        base = qk * (
            size * sum([t * t for t in totals])
            - 2 * sum([t * s for t, s in zip(totals, sums)])
        )
        t_coef *= size
        return tuple(
            [
                Fraction(base + a_coef * s - t_coef * t, denominator)
                for s, t in zip(sums, totals)
            ]
        )
    first, *rest = coalition.members
    rows = [contract.evaluate(profile, j) for j in range(profile.n)]
    return tuple([sum([row[i] for i in rest], row[first]) for row in rows])


def expected_reward(
    contract: ContractFunction,
    profile: ReportProfile,
    i: int,
    belief: Distribution,
):
    """Expert i's belief-weighted expected payment under the contract.

    Skips zero-belief outcomes, so a -inf payment on an outcome the belief
    rules out contributes nothing.
    """
    if not 0 <= i < profile.m:
        raise IndexError(f"expert {i} out of range for m={profile.m}")
    if belief.n != profile.n:
        raise ValueError(
            f"belief has {belief.n} outcomes, profile has {profile.n}"
        )
    return _expectation(
        belief, lambda j: contract.evaluate(profile, j)[i], contract.exact
    )
