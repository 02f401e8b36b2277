"""Multi-expert contract functions and the arbitrage-free family.

A contract function maps a full report profile and a realized outcome to a
vector of per-expert payments.  Paying each expert an independent strictly
proper score is truthful but lets coalitions profit risklessly by moving
reports in opposite directions.  The family implemented by
``ArbitrageFreeContract`` removes that: expert i earns their own quadratic
score, minus a scaled quadratic score of the other experts' mean report,
plus a linear bonus ``alpha`` times the mean probability the others put on
the realized outcome.

The linear coefficient is what the paper's guarantee rests on.  With m
experts on n outcomes, ``alpha < 0`` or
``alpha >= safe_cutoff(m, n) = 2 * (m - 1)**2 * n`` is *sufficient* for
the family to be arbitrage-free; the band in between is where that
guarantee does not hold, not a band where arbitrage is proven.  At m = 2
no alpha admits dominance: the pair's total on outcome j is alpha times
their summed report on j, which no move raises everywhere unless alpha
= 0, where it is always 0.  That alpha = 0 pair pays each expert their
own score minus the other's: the zero-sum pair contract, which is why it
needs no class of its own.  ``validate_alpha`` classifies a coefficient
against the paper's band, and evaluation refuses one outside it unless
explicitly told to proceed.

Payments of the family are computed as integers.  With D the lcm of the
report denominators, k = m - 1 and alpha = p / q, every payment of a
profile is an integer numerator over q * k * D**2.  The terms of
``evaluate`` that do not depend on alpha (the integer column totals and
one sum per expert) are cached once per profile in
``ReportProfile.scaled_totals``, so one outcome's payments cost O(m)
integer operations.  A coalition's totals need no per-expert term at
all: as the paper's construction says, they depend only on two integer
column-sum vectors, T over all experts and S over the members, and a
total on one outcome (``coalition_total``) builds that outcome alone.
Each payment becomes a ``Fraction`` once, at the boundary.  The
alpha-dependent coefficients are cached on the contract per (m, n) and
scaled by D on each call; the band is checked once per (m, n).

Other exact contracts, such as independent scoring, sum their members'
payments on integers too (``_member_sums``): numerators are added over a
running common denominator, and each total becomes one ``Fraction``.
Independent quadratic scoring also has members-only integer totals
(``_independent_numerators``), over the square of the lcm of the
members' report scales, for the dominance screen in ``arbitrage``.
Inexact contracts, such as the log rule's, keep a float sum, in the same
function.  An expert's view of the family (``InducedExpertRule``) has
the quadratic rule's closed-form expected score plus the belief-weighted
offsets.  The tests keep the plain ``Fraction`` formulas and sums as
oracles and check the integer paths against them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .scoring import (
    ScoringRule,
    _expectation,
    _quadratic_expectation,
    quadratic_score,
)
from .simplex import (
    Coalition,
    Distribution,
    ReportProfile,
    _as_fraction,
    _cached,
    _require_index,
    _require_shape,
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


def _threshold_terms(m: int, alpha, factor: int) -> tuple[int, int]:
    """(dn, dd), unreduced, with dn / dd = k - alpha / (factor * k), k = m - 1.

    With alpha = p / q: dd = factor * k * q and dn = k * dd - p.
    """
    if type(alpha) is not Fraction:
        alpha = _as_fraction(alpha)
    _require_shape(m=m)
    k = m - 1
    dd = factor * k * alpha.denominator
    return k * dd - alpha.numerator, dd


def threshold_two_outcome(m: int, alpha: Fraction) -> Fraction:
    """Equivalent threshold form of alpha for two-outcome analysis.

    Defined as (m - 1) - alpha / (4 * (m - 1)).  The two safe bands map to
    threshold > m - 1 (negative alpha) and threshold <= 0 (large alpha,
    n = 2); the arbitrage-prone band is 0 < threshold <= m - 1.
    """
    return Fraction(*_threshold_terms(m, alpha, 4))


def threshold_general(m: int, alpha: Fraction) -> Fraction:
    """Threshold form used for general outcome counts.

    Defined as (m - 1) - alpha / (2 * (m - 1)); negative alpha is exactly
    threshold > m - 1.
    """
    return Fraction(*_threshold_terms(m, alpha, 2))


def safe_cutoff(m: int, n: int) -> int:
    """2 * (m - 1)**2 * n, the inclusive lower end of the large safe band."""
    return 2 * (m - 1) ** 2 * n


def validate_alpha(alpha, m: int, n: int) -> AlphaVerdict:
    """Classify alpha as valid-negative, valid-large, or invalid.

    Valid means inside the paper's sufficient band, where the family is
    arbitrage-free; invalid means outside it, not that arbitrage exists.
    The large-side cutoff ``safe_cutoff(m, n)`` is itself valid (the bound
    is inclusive).  alpha = 0 is invalid: with m >= 3 experts it admits
    arbitrage whenever all but two experts rule out some outcome (at
    m = 2 no alpha does).  The band is tested on
    integers alone: alpha = p / q is valid-negative when p < 0 and
    valid-large when p >= safe_cutoff(m, n) * q.  Floats raise TypeError.
    """
    if type(alpha) is not Fraction:
        alpha = _as_fraction(alpha)
    _require_shape(m, n)
    p, q = alpha.numerator, alpha.denominator
    if p < 0:
        return AlphaVerdict.VALID_NEGATIVE
    if p >= safe_cutoff(m, n) * q:
        return AlphaVerdict.VALID_LARGE
    return AlphaVerdict.INVALID


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
        _require_index("outcome", j, profile.n)
        score = self.rule.score
        return tuple([score(r, j) for r in profile.reports])

    def expert_view(self, profile: ReportProfile, i: int) -> ScoringRule:
        _require_index("expert", i, profile.m)
        return self.rule


@dataclass(frozen=True)
class InducedExpertRule(ScoringRule):
    """Quadratic score plus outcome-dependent offsets fixed by the others.

    Strictly proper for any offsets: adding a constant per outcome never
    changes which report maximizes expected score.  Offsets are coerced
    as weights are: ints and exact strings become ``Fraction``s, floats
    raise TypeError, and an exact ``Fraction`` is kept as it is.  The
    score is the quadratic score plus the outcome's offset.  The expected
    score is the quadratic rule's closed form plus
    sum(B_j * O_j) / (Db * Do), with (Db, B) the belief's counts and
    O / Do the offsets over one common denominator, cached on the rule:
    one ``Fraction`` per expectation.
    """

    offsets: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # A computed offset (``expert_view``'s) may be too long to print
        # and is still exact, so a Fraction skips the print limit.
        offsets = [
            o if type(o) is Fraction else _as_fraction(o) for o in self.offsets
        ]
        object.__setattr__(self, "offsets", tuple(offsets))

    def _check_outcomes(self, report: Distribution) -> None:
        if report.n != len(self.offsets):
            raise ValueError(
                f"report has {report.n} outcomes, offsets cover "
                f"{len(self.offsets)}"
            )

    @_cached
    def _scaled_offsets(self) -> tuple[int, list[int]]:
        """(Do, O): the offsets as integers O_j over their lcm Do."""
        scale = lcm(*[o.denominator for o in self.offsets])
        return scale, [
            o.numerator * (scale // o.denominator) for o in self.offsets
        ]

    def score(self, report: Distribution, j: int) -> Fraction:
        self._check_outcomes(report)
        return quadratic_score(report, j) + self.offsets[j]

    def expected(self, report: Distribution, belief: Distribution) -> Fraction:
        self._check_outcomes(report)
        num, den = _quadratic_expectation(report, belief)
        scale, offsets = self._scaled_offsets
        belief_scale, counts = belief.scaled[:2]
        dot = sum([b * o for b, o in zip(counts, offsets)])
        # den = Db * Dr**2, so the offsets' term over den * Do is
        # dot * Dr**2 = dot * (den // Db).
        return Fraction(num * scale + dot * (den // belief_scale), den * scale)


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
        # _coefficients per (m, n).  Not a dataclass field, so eq, hash and
        # repr ignore it.
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

        Returns (q * k * D**2, q * k, (2*q*k*m - p) * D, (2*q*k**2 - p) * D).
        The three that do not depend on D are cached per (m, n); the shape
        is validated on each cache miss.
        """
        m, n = profile.m, profile.n
        cache = self._coefficient_cache
        coefficients = cache.get((m, n))
        if coefficients is None:
            _require_shape(m=m)
            self.require_valid(m, n)
            k = m - 1
            p, q = self.alpha.numerator, self.alpha.denominator
            qk = q * k
            coefficients = cache[m, n] = (qk, 2 * qk * m - p, 2 * qk * k - p)
        qk, a_coef, t_coef = coefficients
        scale = profile.scaled[0]
        return qk * scale * scale, qk, a_coef * scale, t_coef * scale

    def evaluate(self, profile: ReportProfile, j: int) -> tuple:
        _require_index("outcome", j, profile.n)
        denominator, qk, a_coef, t_coef = self._coefficients(profile)
        totals, gaps = profile.scaled_totals
        shift = t_coef * totals[j]
        return tuple(
            Fraction(qk * g + a_coef * a[j] - shift, denominator)
            for a, g in zip(profile.scaled[1], gaps)
        )

    def expert_view(self, profile: ReportProfile, i: int) -> InducedExpertRule:
        _require_shape(m=profile.m)
        _require_index("expert", i, profile.m)
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
    """The coalition's combined payment on outcome j.

    Equals ``coalition_totals(contract, profile, coalition)[j]`` and
    builds outcome j only: one ``Fraction`` from the alpha family's
    integer numerators, or one ``evaluate(profile, j)`` row summed over
    the members (``_member_sums``) for any other contract.
    """
    _require_index("outcome", j, profile.n)
    coalition.validate_for(profile.m)
    if isinstance(contract, ArbitrageFreeContract):
        denominator, numerators = _family_numerators(
            contract, profile, coalition
        )
        return Fraction(numerators[j], denominator)
    row = contract.evaluate(profile, j)
    return _member_sums([row], coalition.members, contract.exact)[0]


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
    sum the members' ``evaluate`` payments with ``_member_sums``: on
    integers, with one ``Fraction`` per outcome, when the contract is
    exact, and as floats otherwise, where two -inf payments sum to -inf.
    """
    coalition.validate_for(profile.m)
    if isinstance(contract, ArbitrageFreeContract):
        denominator, numerators = _family_numerators(
            contract, profile, coalition
        )
        return tuple([Fraction(x, denominator) for x in numerators])
    rows = [contract.evaluate(profile, j) for j in range(profile.n)]
    return _member_sums(rows, coalition.members, contract.exact)


def _family_numerators(
    contract: ArbitrageFreeContract,
    profile: ReportProfile,
    coalition: Coalition,
) -> tuple[int, list[int]]:
    """The alpha family's coalition totals as integers over one denominator.

    Returns (q * k * D**2, numerators), one numerator per outcome, from
    the column sums T and S as ``ArbitrageFreeContract._coefficients``
    derives.  The one place the coalition kernel is written.
    """
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
    return denominator, [
        base + a_coef * s - t_coef * t for s, t in zip(sums, totals)
    ]


def _independent_numerators(
    profile: ReportProfile, coalition: Coalition
) -> tuple[int, list[int]]:
    """The coalition's totals under independent quadratic scoring, as
    integers over one denominator.

    Returns (L**2, numerators) with L the lcm of the members' report
    scales.  From member i's ``scaled`` = (D_i, c_i, square_i), outcome
    j's numerator is the sum over the members of
    (2*D_i*c_ij - square_i) * (L / D_i)**2, each member's score
    numerators read from ``Distribution._score_numerators``.  Reports of
    experts outside the coalition are never read.
    """
    members = [profile.reports[i] for i in coalition.members]
    scale = lcm(*[r.scaled[0] for r in members])
    rows = [
        r._score_numerators if r.scaled[0] == scale
        else [x * (scale // r.scaled[0]) ** 2 for x in r._score_numerators]
        for r in members
    ]
    return scale * scale, [sum(column) for column in zip(*rows)]


def _member_sums(rows, members, exact: bool = True) -> tuple:
    """Each payment row summed over the members, one total a row.

    Exact rows (``Fraction``s or ints) are summed on integers: the
    members' numerators are added over a running common denominator,
    starting from the first member's: an equal denominator adds the
    numerator, one that divides the running denominator adds it scaled,
    and any other grows the running denominator to their lcm.  So a row
    costs integer operations and one ``Fraction``, however many members
    it sums.  Inexact rows are summed as floats, starting from the first
    member's payment, so two -inf payments sum to -inf.
    """
    first, *rest = members
    if not exact:
        return tuple([sum([row[i] for i in rest], row[first]) for row in rows])
    totals = []
    for row in rows:
        v = row[first]
        num, den = v.numerator, v.denominator
        for i in rest:
            v = row[i]
            p, q = v.numerator, v.denominator
            if q == den:
                num += p
            elif den % q == 0:
                num += p * (den // q)
            else:
                g = gcd(den, q)
                num = num * (q // g) + p * (den // g)
                den = den // g * q
        totals.append(Fraction(num, den))
    return tuple(totals)


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
    _require_index("expert", i, profile.m)
    if belief.n != profile.n:
        raise ValueError(
            f"belief has {belief.n} outcomes, profile has {profile.n}"
        )
    return _expectation(
        belief, lambda j: contract.evaluate(profile, j)[i], contract.exact
    )
