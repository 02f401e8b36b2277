"""Detection, construction, and search of coalition arbitrage.

A coalition holds an arbitrage opportunity when changing only its own
members' reports weakly raises the coalition's total payment under every
outcome and strictly raises it under at least one: a riskless joint gain.
The expected variant weighs the per-outcome gains by each member's own
belief (taken to be their baseline report, so outcomes it rules out
carry no weight) and asks that every member expect a weak gain, some
member a strict one.

Checks on exact contracts compare Fractions and certify exactly; on
float-valued contracts (the log rule) they use a fixed tolerance and the
resulting certificates are flagged as numeric.  Searches are plain
enumeration or seeded random sampling; both are deterministic, and any
certificate they return re-verifies under the corresponding check.

Under independent quadratic scoring only the members' scores move the
coalition's total, so a dominance check against exact baseline totals
first screens the deviation on the members' integer score numerators
(``contracts._independent_numerators``): no expert outside the coalition
is scored and no ``Fraction`` is built.  Only a deviation that passes
the screen is scored through ``coalition_totals``, and every certificate
still comes from that plain path.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from typing import Iterator, Optional, Sequence

from .contracts import (
    ArbitrageFreeContract,
    ContractFunction,
    IndependentScoring,
    _independent_numerators,
    coalition_totals,
)
from .sampling import DEFAULT_DENOMINATOR, exact_bounds, random_deviation
from .scoring import QuadraticRule, _expectation
from .simplex import (
    Coalition,
    Distribution,
    ReportProfile,
    _as_fraction,
    _require_index,
    _require_int,
    coalition_sums,
    simplex_lattice,
)

__all__ = [
    "NUMERIC_TOLERANCE",
    "MAX_GRID_DEVIATIONS",
    "DeviationMismatchError",
    "ReconstructionError",
    "CertificateKind",
    "ensure_agreement_outside",
    "ArbitrageCertificate",
    "check_dominance",
    "check_expected_arbitrage",
    "mean_collusion",
    "profile_with_coalition_sums",
    "SqrtExpr",
    "ArbitrageInterval",
    "uniform_report_arbitrage_interval",
    "GridSearch",
    "RandomSearch",
    "search_arbitrage",
]

# Slack for dominance comparisons on float-valued contracts.  Exact
# contracts never use it.
NUMERIC_TOLERANCE = 1e-9

# Largest grid that runs: deviations per search, lattice reports per
# properness probe, and trials per random search.  A million checks take a
# minute or two on a small profile; larger budgets are refused up front
# instead of hanging.
MAX_GRID_DEVIATIONS = 10**6


class DeviationMismatchError(ValueError):
    """Baseline and deviation disagree on an expert outside the coalition.

    That is a misuse of the comparison, not a negative result, so it is
    an error rather than a None.
    """


class ReconstructionError(ValueError):
    """A target coalition-sum vector admits no valid member reports."""


class CertificateKind(enum.Enum):
    DOMINANCE = "dominance"
    EXPECTED = "expected"


def ensure_agreement_outside(
    baseline: ReportProfile, deviation: ReportProfile, coalition: Coalition
) -> None:
    """Raise DeviationMismatchError unless only coalition reports changed."""
    if deviation.m != baseline.m or deviation.n != baseline.n:
        raise DeviationMismatchError(
            f"deviation shape ({deviation.m} experts, {deviation.n} "
            f"outcomes) does not match baseline ({baseline.m}, {baseline.n})"
        )
    coalition.validate_for(baseline.m)
    members = coalition.members
    pairs = zip(baseline.reports, deviation.reports)
    for i, (before, after) in enumerate(pairs):
        if before is after or i in members:
            continue
        if before != after:
            raise DeviationMismatchError(
                f"expert {i + 1} (1-based) is outside the coalition but "
                f"reports differ between baseline and deviation"
            )


@dataclass(frozen=True)
class ArbitrageCertificate:
    """A verified witness that a coalition deviation is a riskless gain.

    ``deltas`` holds the per-outcome change in the coalition's total
    payment (deviation minus baseline).  ``exact`` marks whether the
    comparisons behind the certificate were exact rational arithmetic or
    float comparisons at NUMERIC_TOLERANCE.  Construction re-validates
    the defining inequalities, so an instance that exists is sound.
    """

    baseline: ReportProfile
    deviation: ReportProfile
    coalition: Coalition
    deltas: tuple
    kind: CertificateKind
    exact: bool = True

    def __post_init__(self) -> None:
        ensure_agreement_outside(self.baseline, self.deviation, self.coalition)
        if len(self.deltas) != self.baseline.n:
            raise ValueError(
                f"{len(self.deltas)} deltas for {self.baseline.n} outcomes"
            )
        if not _witnesses(
            self.kind, self.baseline, self.coalition, self.deltas, self.exact
        ):
            if self.kind is CertificateKind.DOMINANCE:
                raise ValueError(
                    f"deltas {self.deltas} do not witness dominance"
                )
            raise ValueError(
                f"member expected gains {self.member_expected_gains()} do "
                f"not witness expected arbitrage"
            )

    def member_expected_gains(self) -> tuple:
        """Belief-weighted delta per coalition member, in member order.

        Each member's belief is their own baseline report.
        """
        return _member_gains(
            self.baseline, self.coalition, self.deltas, self.exact
        )


def _member_gains(
    baseline: ReportProfile, coalition: Coalition, deltas: tuple, exact: bool
) -> tuple:
    return tuple(
        _expectation(baseline.reports[i], deltas.__getitem__, exact)
        for i in coalition
    )


def _witnesses(
    kind: CertificateKind,
    baseline: ReportProfile,
    coalition: Coalition,
    deltas: Sequence,
    exact: bool,
) -> bool:
    """Whether the per-outcome deltas witness arbitrage of this kind."""
    if kind is CertificateKind.DOMINANCE:
        values = deltas
    else:
        values = _member_gains(baseline, coalition, deltas, exact)
    # Two -inf totals under the log rule tie (``_deltas`` makes their delta
    # zero).  A NaN delta or member gain that still reaches here, say
    # from deltas passed to the certificate directly, fails the weak test
    # and yields no certificate.
    slack = 0 if exact else NUMERIC_TOLERANCE
    return all(v >= -slack for v in values) and any(v > slack for v in values)


def _passes(
    kind: CertificateKind,
    baseline: ReportProfile,
    coalition: Coalition,
    after: Sequence,
    before: Sequence,
    exact: bool,
) -> bool:
    """Whether the coalition totals ``after`` against ``before`` witness
    arbitrage of this kind."""
    if exact and kind is CertificateKind.DOMINANCE:
        return _dominates(after, before)
    return _witnesses(kind, baseline, coalition, _deltas(after, before), exact)


# Total types whose ratio ``as_integer_ratio`` reads exactly.
_RATIONALS = frozenset((Fraction, int))


def _dominates(after: Sequence, before: Sequence, scale: int = 1) -> bool:
    """Whether ``after`` is weakly above ``before`` everywhere and strictly
    above somewhere, deciding at the first outcome that loses.

    No delta is built.  A pair of Fraction or int totals is compared by
    integer cross-products of their ratios, each ratio read once; any
    other pair, such as float totals handed in as a screen, is compared
    as it is.  ``after`` may hold integer numerators over a positive
    common ``scale``, as the screen of independent quadratic scoring
    passes them; ``before`` must then be all Fractions or ints.
    """
    strict = False
    for a, b in zip(after, before):
        if type(a) in _RATIONALS and type(b) in _RATIONALS:
            p, q = a.as_integer_ratio()
            r, s = b.as_integer_ratio()
            a, b = p * s, r * q * scale
        if a > b:
            strict = True
        elif not a >= b:
            return False
    return strict


def _deltas(after: Sequence, before: Sequence) -> tuple:
    """Per-outcome change in the coalition total, deviation minus baseline.

    Equal totals give a zero delta of the totals' own type, so two -inf
    totals under the log rule are a tie rather than NaN; every other
    delta is the plain difference, a Fraction on exact contracts.
    """
    return tuple(
        [a - b if a != b else type(a)(0) for a, b in zip(after, before)]
    )


def _check(
    kind: CertificateKind,
    contract: ContractFunction,
    baseline: ReportProfile,
    deviation: ReportProfile,
    coalition: Coalition,
    baseline_totals: Optional[Sequence],
) -> Optional[ArbitrageCertificate]:
    """The check behind ``check_dominance`` and ``check_expected_arbitrage``.

    After the agreement guard, a dominance check under exactly
    ``IndependentScoring(QuadraticRule())`` (a subclass may score
    differently) with Fraction or int ``baseline_totals`` is screened on
    the members' integer totals (``_independent_numerators``, over L**2)
    with ``_dominates``, and returns None at once on a reject.  Every
    other check, and a passing one, takes the plain path: the
    deviation's ``coalition_totals`` screened against
    ``baseline_totals``, then compared with the baseline's own totals,
    from which the certificate's deltas are built.
    """
    ensure_agreement_outside(baseline, deviation, coalition)
    if (
        type(contract) is IndependentScoring
        and type(contract.rule) is QuadraticRule
        and kind is CertificateKind.DOMINANCE
        and baseline_totals is not None
        and _RATIONALS.issuperset(map(type, baseline_totals))
    ):
        scale, numerators = _independent_numerators(deviation, coalition)
        if not _dominates(numerators, baseline_totals, scale):
            return None
    exact = contract.exact
    after = coalition_totals(contract, deviation, coalition)
    if baseline_totals is not None and not _passes(
        kind, baseline, coalition, after, baseline_totals, exact
    ):
        return None
    # Cached totals only filter.  A certificate's deltas always come from
    # the baseline itself, so wrong totals cannot make one.
    before = coalition_totals(contract, baseline, coalition)
    if not _passes(kind, baseline, coalition, after, before, exact):
        return None
    return ArbitrageCertificate(
        baseline=baseline,
        deviation=deviation,
        coalition=coalition,
        deltas=_deltas(after, before),
        kind=kind,
        exact=exact,
    )


def check_dominance(
    contract: ContractFunction,
    baseline: ReportProfile,
    deviation: ReportProfile,
    coalition: Coalition,
    baseline_totals: Optional[Sequence] = None,
) -> Optional[ArbitrageCertificate]:
    """Certificate if the deviation dominates the baseline for the coalition.

    Dominance: the coalition's total payment weakly rises under every
    outcome and strictly rises under at least one.  Returns None when it
    does not; raises DeviationMismatchError when the profiles disagree
    outside the coalition.

    ``baseline_totals``, when given, must be
    ``coalition_totals(contract, baseline, coalition)``; a caller checking
    many deviations of one baseline computes it once and saves scoring
    the baseline on every check.  On an exact contract the deviation's
    totals are compared with the baseline's directly, without building a
    delta: for Fraction or int totals a >= b is decided on the integers
    a.numerator * b.denominator and b.numerator * a.denominator, and the
    comparison stops at the first outcome that loses.  Under independent
    quadratic scoring with Fraction or int totals, the deviation is
    screened on its members' integer score numerators over L**2 (L the
    lcm of their report scales) before any total is built, and the
    experts outside the coalition are not scored.  The totals only
    screen deviations: before a
    certificate is returned its deltas are recomputed from the baseline,
    so totals that are wrong can hide a certificate but never make one.
    """
    return _check(
        CertificateKind.DOMINANCE,
        contract,
        baseline,
        deviation,
        coalition,
        baseline_totals,
    )


def check_expected_arbitrage(
    contract: ContractFunction,
    baseline: ReportProfile,
    deviation: ReportProfile,
    coalition: Coalition,
    baseline_totals: Optional[Sequence] = None,
) -> Optional[ArbitrageCertificate]:
    """Certificate if every member expects the coalition total to rise.

    Member i's expectation weighs the per-outcome coalition deltas by
    their baseline report; all members must weakly gain and at least one
    strictly.  ``baseline_totals`` works as in ``check_dominance``.
    """
    return _check(
        CertificateKind.EXPECTED,
        contract,
        baseline,
        deviation,
        coalition,
        baseline_totals,
    )


def mean_collusion(profile: ReportProfile, coalition: Coalition) -> ReportProfile:
    """The deviation where every coalition member reports the coalition mean.

    Under independent quadratic scoring this is the coalition's riskless
    aggregate move; everyone outside the coalition is untouched.
    """
    if coalition.size < 2:
        raise ValueError(
            f"collusion needs at least 2 members, got {coalition.size}"
        )
    return profile_with_coalition_sums(
        profile, coalition, coalition_sums(profile, coalition)
    )


def profile_with_coalition_sums(
    profile: ReportProfile,
    coalition: Coalition,
    sums: Sequence[Fraction],
) -> ReportProfile:
    """Deviation hitting the target per-outcome coalition sums, equal split.

    Every member reports sums/|coalition|.  The target must be a valid
    sum vector (each entry in [0, |coalition|], total |coalition|);
    anything else raises ReconstructionError instead of being adjusted.
    """
    coalition.validate_for(profile.m)
    k = coalition.size
    if len(sums) != profile.n:
        raise ReconstructionError(
            f"{len(sums)} target sums for {profile.n} outcomes"
        )
    sums = tuple(_as_fraction(s) for s in sums)
    if sum(sums) != k:
        raise ReconstructionError(
            f"target sums total {sum(sums)}, need exactly {k}"
        )
    for j, s in enumerate(sums):
        if not 0 <= s <= k:
            raise ReconstructionError(
                f"target sum {s} for outcome {j} outside [0, {k}]"
            )
    share = Distribution(tuple(s / k for s in sums))
    return profile.replace({i: share for i in coalition})


@dataclass(frozen=True)
class SqrtExpr:
    """Exact algebraic value offset + coeff * sqrt(radicand).

    Stores interval endpoints like 1 - sqrt(31/150) without rounding;
    ``compare_to`` orders the value against any rational exactly, and
    ``value`` gives a float for display.
    """

    offset: Fraction
    coeff: Fraction
    radicand: Fraction

    def __post_init__(self) -> None:
        if self.radicand < 0:
            raise ValueError(f"negative radicand {self.radicand}")

    def value(self) -> float:
        return float(self.offset) + float(self.coeff) * float(self.radicand) ** 0.5

    def compare_to(self, other) -> int:
        """Sign of (self - other) for rational other, computed exactly.

        With t = other - offset: when coeff * sqrt(radicand) and t differ
        in sign, their signs decide; when they share sign s, the result is
        s times the sign of coeff**2 * radicand - t**2.
        """
        t = _as_fraction(other) - self.offset
        s = (self.coeff > 0) - (self.coeff < 0) if self.radicand else 0
        u = (t > 0) - (t < 0)
        if s != u:
            return (s > u) - (s < u)
        d = self.coeff**2 * self.radicand - t * t
        return s * ((d > 0) - (d < 0))

    def __str__(self) -> str:
        if self.coeff == 0 or self.radicand == 0:
            return str(self.offset)
        mag = abs(self.coeff)
        term = ("" if mag == 1 else f"{mag}*") + f"sqrt({self.radicand})"
        if self.offset == 0:
            return ("-" if self.coeff < 0 else "") + term
        return f"{self.offset} {'-' if self.coeff < 0 else '+'} {term}"


@dataclass(frozen=True)
class ArbitrageInterval:
    """Closed interval of uniform coalition reports that dominate baseline.

    ``outcome`` names which outcome's probability the interval describes.
    Empty means no uniform report gives a strict gain anywhere: the
    members agree, and the single point of their shared report merely
    matches the baseline totals.
    """

    outcome: int
    lower: SqrtExpr
    upper: SqrtExpr
    empty: bool

    def contains(self, x) -> bool:
        """Exact membership test for a rational probability x."""
        return not self.empty and (
            self.lower.compare_to(x) <= 0 <= self.upper.compare_to(x)
        )


def uniform_report_arbitrage_interval(
    profile: ReportProfile, coalition: Coalition, j: int
) -> ArbitrageInterval:
    """All x where the coalition jointly reporting (x on j) dominates.

    Two outcomes, independent quadratic scoring.  With T_j the baseline
    coalition score total under outcome j and c = |coalition|, the weak
    constraints solve to

        x >= 1 - sqrt((c - T_j) / 2c)    and
        x <= sqrt((c - T_other) / 2c),

    both radicands lying in [0, 1] because per-expert scores lie in
    [-1, 1].

    The interval is empty exactly when every member reports the same
    distribution.  A shared report x on j scores 1 - 2(1 - x)**2 under j
    and 1 - 2x**2 under the other outcome, both strictly concave in x, so
    the members' mean report meets both weak constraints, strictly unless
    all members agree.  Hence lower <= mean <= upper always, and
    lower < upper exactly when some members disagree.  When all agree,
    lower == upper is their shared report, where both constraints are
    tight and no outcome strictly improves.
    """
    _check_two_outcome_case(profile, coalition, j, "a uniform-report interval")
    c = coalition.size
    totals = coalition_totals(
        IndependentScoring(rule=QuadraticRule()), profile, coalition
    )
    lower = SqrtExpr(Fraction(1), Fraction(-1), Fraction(c - totals[j], 2 * c))
    upper = SqrtExpr(Fraction(0), Fraction(1), Fraction(c - totals[1 - j], 2 * c))
    empty = len({profile.reports[i] for i in coalition}) == 1
    return ArbitrageInterval(outcome=j, lower=lower, upper=upper, empty=empty)


def _check_two_outcome_case(
    profile: ReportProfile, coalition: Coalition, j: int, what: str, min_size: int = 2
) -> None:
    """Refuse arguments outside the two-outcome analysis named ``what``.

    ValueError unless n = 2 and the coalition has at least ``min_size``
    members, all experts of the profile; IndexError unless j is 0 or 1.
    """
    if profile.n != 2:
        raise ValueError(f"{what} needs exactly 2 outcomes (n=2), got n={profile.n}")
    if coalition.size < min_size:
        raise ValueError(
            f"{what} needs at least {min_size} coalition members, got {coalition.size}"
        )
    coalition.validate_for(profile.m)
    _require_index("outcome", j, 2)


@dataclass(frozen=True)
class GridSearch:
    """Exhaustive enumeration at lattice spacing 1/steps, in lex order."""

    steps: int

    def __post_init__(self) -> None:
        _require_int("steps", self.steps)
        if self.steps < 2:
            raise ValueError(f"grid needs steps >= 2, got {self.steps}")


@dataclass(frozen=True)
class RandomSearch:
    """Seeded random deviations; reproducible given (trials, seed).

    ``denominator`` controls the rational resolution of drawn reports;
    ``bounds``, when set, restricts every drawn weight to [lo, hi].  The
    bounds must be exact rationals with 0 <= lo <= hi <= 1; they are
    stored as Fractions, and floats are refused.  The other fields are ints
    (not bools): ``random.Random("7")`` seeds another stream than 7.
    """

    trials: int
    seed: int
    denominator: int = DEFAULT_DENOMINATOR
    bounds: Optional[tuple[Fraction, Fraction]] = None

    def __post_init__(self) -> None:
        _require_int("trials", self.trials)
        _require_int("seed", self.seed)
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        _require_int("denominator", self.denominator, 1)
        if self.bounds is not None:
            object.__setattr__(self, "bounds", exact_bounds(self.bounds))


def _grid_deviations(
    contract: ContractFunction,
    baseline: ReportProfile,
    coalition: Coalition,
    steps: int,
) -> Iterator[ReportProfile]:
    members = tuple(coalition)
    if isinstance(contract, ArbitrageFreeContract):
        # The coalition's totals depend only on its per-outcome sums, so
        # enumerate sum vectors (one lattice point, scaled by |C|) and
        # realize each by the equal split where every member reports the
        # lattice point itself.
        for point in simplex_lattice(baseline.n, steps):
            yield baseline.replace({i: point for i in members})
    else:
        lattice = list(simplex_lattice(baseline.n, steps))
        for combo in product(lattice, repeat=len(members)):
            yield baseline.replace(dict(zip(members, combo)))


def _random_deviations(
    baseline: ReportProfile,
    coalition: Coalition,
    strategy: RandomSearch,
) -> Iterator[ReportProfile]:
    rng = random.Random(strategy.seed)
    for _ in range(strategy.trials):
        yield random_deviation(
            rng, baseline, coalition, strategy.denominator, strategy.bounds
        )


def search_arbitrage(
    contract: ContractFunction,
    baseline: ReportProfile,
    coalition: Coalition,
    strategy,
    kind: CertificateKind = CertificateKind.DOMINANCE,
) -> Optional[ArbitrageCertificate]:
    """First certificate over the strategy's deviations, or None.

    Grid enumeration runs in lexicographic order, so when several grid
    deviations certify, the lexicographically smallest one is returned;
    that makes results reproducible byte for byte.  A grid of more than
    MAX_GRID_DEVIATIONS deviations, or a random search of more trials,
    raises ValueError before anything is enumerated or drawn.  Random
    search is reproducible via its seed.  The baseline's coalition totals
    are computed once per search.
    """
    coalition.validate_for(baseline.m)
    if isinstance(strategy, GridSearch):
        # C(S + n - 1, n - 1) lattice points; every combination of one
        # point per member, except for the alpha family (one point each).
        count = comb(strategy.steps + baseline.n - 1, baseline.n - 1)
        if not isinstance(contract, ArbitrageFreeContract):
            count **= coalition.size
        search = f"grid search at steps {strategy.steps}"
        advice = "a coarser grid, a smaller coalition or random search"
        deviations = _grid_deviations(
            contract, baseline, coalition, strategy.steps
        )
    elif isinstance(strategy, RandomSearch):
        count = strategy.trials
        search, advice = f"random search with {count} trials", "fewer trials"
        deviations = _random_deviations(baseline, coalition, strategy)
    else:
        raise TypeError(f"unknown search strategy {strategy!r}")
    if count > MAX_GRID_DEVIATIONS:
        raise ValueError(
            f"{search} would check {count} deviations, more than the limit "
            f"of {MAX_GRID_DEVIATIONS}; use {advice}"
        )
    check = (
        check_dominance
        if kind is CertificateKind.DOMINANCE
        else check_expected_arbitrage
    )
    before = coalition_totals(contract, baseline, coalition)
    for deviation in deviations:
        cert = check(contract, baseline, deviation, coalition, before)
        if cert is not None:
            return cert
    return None
