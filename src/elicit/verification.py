"""Executable checks of the algebraic structure behind the contract family.

Each expert's payment under the arbitrage-free contract admits closed
rewrites: a two-outcome product form, a general product-plus-cross-terms
form, and (summed over a coalition, two outcomes) a quadratic polynomial
in the coalition's probability sum.  Each rewrite holds up to an additive
constant depending only on the configuration, never on the reports.  The
residual functions here subtract the structured part from the actual
payment; the reports verify that the residual has exactly zero spread over
sampled profiles.  Constants are always recovered by evaluation, never
hardcoded, since only their constancy matters.

The residuals are computed on integers, one outcome of one profile per
call: each call evaluates the contract's payment row once, with its own
``evaluate``, and returns the residual of every expert on that outcome.
The structured part is built independently of the contract's kernel,
from the integer rows of ``profile.scaled`` (D, and the counts A, whose
column sums are the totals T) and the threshold d = dn / dd.  Scaled by
D**2 * dd**2 the structured part is an integer, so each expert's residual
costs one ``Fraction``, built when it is returned.  The tests check both
residuals against the plain ``Fraction`` rewrites.  A report tracks the
smallest and largest residual with an equality test first: equal
``Fraction``s compare by numerator and denominator alone, so only a
residual that differs pays a cross-multiplied comparison.

The same threshold parameter drives a monotonicity law for the coalition
total and an explicit per-deviation witness: an outcome under which no
coalition deviation can gain.  Those checks close the loop between the
algebra and the no-arbitrage behavior that the search module observes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arbitrage import (
    _check_two_outcome_case, ensure_agreement_outside, profile_with_coalition_sums
)
from .contracts import (
    ArbitrageFreeContract,
    AlphaVerdict,
    _threshold_terms,
    coalition_total,
    threshold_two_outcome,
    validate_alpha,
)
from .simplex import (
    Coalition, ReportProfile, _as_fraction, _require_int, coalition_sums,
)

__all__ = [
    "IdentityReport",
    "two_outcome_form_residual",
    "general_form_residual",
    "two_outcome_identity_report",
    "general_identity_report",
    "CoalitionPolynomial",
    "coalition_reward_poly",
    "parabola_vertex",
    "Monotonicity",
    "MonotonicityReport",
    "monotonicity_check",
    "hurting_outcome",
]


@dataclass(frozen=True)
class IdentityReport:
    """Constancy evidence for one rewrite over many sampled evaluations.

    ``constant`` is the recovered additive constant (the first residual
    seen); ``max_spread`` is the exact max-minus-min of all residuals and
    must be zero for the identity to hold.
    """

    identity: str
    constant: Fraction
    max_spread: Fraction
    samples: int

    @property
    def passed(self) -> bool:
        return self.max_spread == 0


def two_outcome_form_residual(
    profile: ReportProfile, j: int, alpha
) -> tuple[Fraction, ...]:
    """Every expert's payment on outcome j minus its two-outcome rewrite.

    Entry i is constant in (P, i, j).  With t the all-expert probability
    sum on outcome j, p expert i's own probability on j, and d the
    two-outcome threshold, the structured part is
    2 * (t - d - 1) * (t - 2p - d + 1).
    """
    if profile.n != 2:
        raise ValueError(
            f"two-outcome rewrite needs n=2, got n={profile.n}"
        )
    return _residual_row(profile, j, alpha, two_outcome=True)


def general_form_residual(
    profile: ReportProfile, j: int, alpha
) -> tuple[Fraction, ...]:
    """Every expert's payment on outcome j minus its general-n rewrite.

    Entry i is constant in (P, i, j).  The structured part is
    (t_j - d - 1) * (t_j - 2p_j - d + 1) plus, for every other outcome l,
    t_l * (t_l - 2p_l), where t is the all-expert sum vector, p expert i's
    own report, and d the general threshold.
    """
    return _residual_row(profile, j, alpha, two_outcome=False)


def _residual_row(
    profile: ReportProfile, j: int, alpha, two_outcome: bool
) -> tuple[Fraction, ...]:
    """The payment row on outcome j minus its rewrite, one Fraction each.

    With D, A = profile.scaled, T the column sums of A and d = dn / dd,
    expert i's structured part times D**2 * dd**2 is the integer X * Y,
    where X = T_j*dd - dn*D - D*dd and Y = (T_j - 2*A_i[j])*dd - dn*D + D*dd;
    the two-outcome rewrite doubles it, and the general one adds
    dd**2 * T_l * (T_l - 2*A_i[l]) for every other outcome l.  The
    payments are the permissive contract's ``evaluate(profile, j)``.

    d is the two-outcome threshold, or the general one, taken unreduced
    from ``contracts._threshold_terms``.  A factor common to dn and dd
    scales the structured part and its denominator D**2 * dd**2 alike,
    so it cancels when each residual's ``Fraction`` is reduced.
    """
    # The rewrites are pure algebra and hold for every alpha, including
    # the arbitrage-prone band, so evaluation is always permissive here.
    contract = ArbitrageFreeContract(alpha, permissive=True)
    row = contract.evaluate(profile, j)
    dn, dd = _threshold_terms(profile.m, contract.alpha, 4 if two_outcome else 2)
    scale, rows = profile.scaled
    totals = [sum(column) for column in zip(*rows)]
    t = totals[j] * dd
    shift = dn * scale
    edge = scale * dd
    x = t - shift - edge
    denominator = edge * edge
    residuals = []
    for reward, own in zip(row, rows):
        structured = x * (t - 2 * own[j] * dd - shift + edge)
        if two_outcome:
            structured *= 2
        else:
            structured += dd * dd * sum(
                [
                    c * (c - 2 * a)
                    for ell, (c, a) in enumerate(zip(totals, own))
                    if ell != j
                ]
            )
        residuals.append(
            Fraction(
                reward.numerator * denominator
                - structured * reward.denominator,
                reward.denominator * denominator,
            )
        )
    return tuple(residuals)


def _constancy_report(
    identity: str,
    residual,
    profiles: Sequence[ReportProfile],
    alpha,
) -> IdentityReport:
    first = lo = hi = None
    count = 0
    for k, profile in enumerate(profiles):
        # Cycle the outcome across profiles; cover every expert each time.
        row = residual(profile, k % profile.n, alpha)
        if first is None:
            first = lo = hi = row[0]
        for r in row:
            # Equal Fractions compare by numerator and denominator alone;
            # only a residual that differs pays an ordering comparison.
            if r != lo and r != hi:
                if r < lo:
                    lo = r
                elif r > hi:
                    hi = r
        count += len(row)
    if first is None:
        raise ValueError("need at least one profile")
    return IdentityReport(
        identity=identity,
        constant=first,
        max_spread=hi - lo,
        samples=count,
    )


def two_outcome_identity_report(
    profiles: Sequence[ReportProfile], alpha
) -> IdentityReport:
    """Zero-spread check of the two-outcome rewrite over given profiles.

    All profiles must share one (m, n=2) shape so a single constant is
    expected.
    """
    return _constancy_report(
        "two-outcome-product-form", two_outcome_form_residual, profiles, alpha
    )


def general_identity_report(
    profiles: Sequence[ReportProfile], alpha
) -> IdentityReport:
    """Zero-spread check of the general-n rewrite over given profiles."""
    return _constancy_report(
        "general-product-form", general_form_residual, profiles, alpha
    )


@dataclass(frozen=True)
class CoalitionPolynomial:
    """The coalition total on one outcome as a quadratic in the sum.

    For two outcomes and fixed complement reports, the coalition's total
    payment depends on its reports only through the probability sum s it
    puts on the outcome; this holds the resulting quadratic * s**2 +
    linear * s + constant.
    """

    quadratic: Fraction
    linear: Fraction
    constant: Fraction

    def predict(self, s) -> Fraction:
        s = _as_fraction(s)
        return self.quadratic * s * s + self.linear * s + self.constant


def _split_total(contract, profile, coalition, j, s) -> Fraction:
    """The outcome-j coalition total with sums s, |C| - s split equally (n=2)."""
    sums = [0, 0]
    sums[j] = s
    sums[1 - j] = coalition.size - s
    deviation = profile_with_coalition_sums(profile, coalition, sums)
    return coalition_total(contract, deviation, coalition, j)


def coalition_reward_poly(
    profile: ReportProfile, coalition: Coalition, j: int, alpha
) -> CoalitionPolynomial:
    """Closed-form quadratic for the coalition total in its outcome-j sum.

    The leading coefficient is 2 * (|C| - 2) and the linear one
    4 * ((|C| - 1) * (complement sum - d) + 1), with d the two-outcome
    threshold; the constant is recovered by evaluating the contract at
    sum zero via an equal-split reconstruction.
    """
    _check_two_outcome_case(profile, coalition, j, "the coalition polynomial")
    alpha = _as_fraction(alpha)
    c = coalition.size
    d = threshold_two_outcome(profile.m, alpha)
    complement_sum = profile.totals()[j] - coalition_sums(profile, coalition)[j]
    quadratic = Fraction(2 * (c - 2))
    linear = 4 * ((c - 1) * (complement_sum - d) + 1)
    contract = ArbitrageFreeContract(alpha=alpha, permissive=True)
    constant = _split_total(contract, profile, coalition, j, 0)
    return CoalitionPolynomial(
        quadratic=quadratic, linear=linear, constant=constant
    )


def parabola_vertex(size: int, threshold, complement_sum) -> Fraction:
    """Vertex location of the coalition-total parabola in its sum.

    Equals ((size - 1) * (threshold - complement_sum) - 1) / (size - 2)
    and needs a genuine parabola, so coalition size > 2.  In the safe
    threshold regimes it falls outside [0, size], which is what makes the
    coalition total monotone over the reachable sums.
    """
    _require_int("size", size)
    if size <= 2:
        raise ValueError(
            f"vertex needs coalition size > 2, got {size}"
        )
    threshold = _as_fraction(threshold)
    complement_sum = _as_fraction(complement_sum)
    return ((size - 1) * (threshold - complement_sum) - 1) / (size - 2)


class Monotonicity(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    VIOLATION = "violation"


@dataclass(frozen=True)
class MonotonicityReport:
    """Observed ordering of coalition totals over a sweep of sums.

    On VIOLATION, ``witness`` holds the adjacent (sum, total) pairs that
    broke strict order (a plateau or a direction change).
    """

    verdict: Monotonicity
    witness: Optional[tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]]


def monotonicity_check(
    contract: ArbitrageFreeContract,
    profile: ReportProfile,
    coalition: Coalition,
    j: int,
    samples: int = 9,
) -> MonotonicityReport:
    """Is the coalition total strictly monotone in its outcome-j sum?

    Sweeps the sum over `samples` equally spaced values spanning
    [0, |coalition|] with complement reports fixed, realizing each target
    by equal split.  Strictly increasing sequences verdict INCREASING,
    strictly decreasing ones DECREASING; anything else is a VIOLATION
    carrying the offending adjacent pair.  Two outcomes only, j in
    {0, 1}; any coalition of the profile's experts.
    """
    _check_two_outcome_case(profile, coalition, j, "the monotonicity sweep", 1)
    _require_int("samples", samples)
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    c = coalition.size
    points = []
    for k in range(samples):
        s = Fraction(c * k, samples - 1)
        points.append((s, _split_total(contract, profile, coalition, j, s)))
    # The witness is the first adjacent pair that is flat or turns
    # against the direction of the first step.
    first = None
    for a, b in zip(points, points[1:]):
        sign = (b[1] > a[1]) - (b[1] < a[1])
        first = first or sign
        if sign == 0 or sign != first:
            return MonotonicityReport(Monotonicity.VIOLATION, (a, b))
    verdict = Monotonicity.INCREASING if first > 0 else Monotonicity.DECREASING
    return MonotonicityReport(verdict, None)


def hurting_outcome(
    contract: ArbitrageFreeContract,
    baseline: ReportProfile,
    deviation: ReportProfile,
    coalition: Coalition,
) -> int:
    """The outcome under which this coalition deviation cannot gain.

    For negative alpha it is the outcome where the coalition raised its
    probability sum the most; for large alpha, where it lowered the sum
    the most (argmax ties break to the smallest index).  The coalition's
    total payment under the returned outcome never exceeds its baseline
    total, with equality only when the deviation leaves every coalition
    sum unchanged.  The moves are compared on integers, the members'
    column sums of ``baseline.scaled`` and ``deviation.scaled`` over
    D * D', so no ``Fraction`` is built.  A contract outside the alpha
    family raises TypeError.
    """
    if not isinstance(contract, ArbitrageFreeContract):
        raise TypeError(
            f"need an ArbitrageFreeContract, got {type(contract).__name__}"
        )
    ensure_agreement_outside(baseline, deviation, coalition)
    verdict = validate_alpha(contract.alpha, baseline.m, baseline.n)
    if not verdict.valid:
        raise ValueError(
            f"alpha={contract.alpha} is in the arbitrage-prone band for "
            f"m={baseline.m}, n={baseline.n}; no hurting outcome is "
            f"guaranteed there"
        )
    # The members' sums are S / D before and S' / D' after, so each move
    # times D * D' is the integer S'_j * D - S_j * D'.
    scale, rows = baseline.scaled
    new_scale, new_rows = deviation.scaled
    before = [sum(c) * new_scale for c in zip(*[rows[i] for i in coalition])]
    after = [sum(c) * scale for c in zip(*[new_rows[i] for i in coalition])]
    if verdict is AlphaVerdict.VALID_NEGATIVE:
        moves = [a - b for a, b in zip(after, before)]
    else:
        moves = [b - a for a, b in zip(after, before)]
    return moves.index(max(moves))
