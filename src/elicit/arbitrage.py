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
resulting certificates are flagged as numeric.  A dominance certificate
under exactly ``IndependentScoring(LogRule())`` is still decided
exactly: the float comparisons only screen, and a deviation that passes
them certifies only if the members' per-outcome weight products
(``_weight_products``) dominate the baseline's, since ln is increasing.
Searches are plain enumeration or seeded random sampling; both are
deterministic, and any certificate they return re-verifies under the
corresponding check.

Every check first runs the agreement guard (``ensure_agreement_outside``):
one pass over the experts that skips the members and the reports the
deviation shares with the baseline by identity.

Under independent quadratic scoring only the members' scores move the
coalition's total, so a dominance check against exact baseline totals
first screens the deviation on integers (``_independent_dominates``):
the members' score numerators are summed over a running denominator,
and each outcome's sum is compared with the baseline's, stopping at the
first that loses.  No expert outside the coalition is scored and no
``Fraction`` is built.  Only a deviation that passes the screen is
scored through ``coalition_totals``, and every certificate still comes
from that plain path.

Whether the screen applies is decided by ``_baseline_totals`` alone:
it reads the totals once, checks their count, applies the exact-type
gate and, when the screen applies, returns them as ``_Screened`` with
each total's integer ratio and the contract it decided for.  A check
screens only ``_Screened`` totals of its own contract object in a
dominance check, so it repeats none of the gate's tests.  A search
decides once, and every deviation's check reuses the decision; a direct
call given a sequence decides per call.  Totals the screen does not
apply to carry no decision, so a check of them repeats only the count
test.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, gcd, prod
from typing import Iterator, Optional, Sequence

from .contracts import (
    ArbitrageFreeContract,
    ContractFunction,
    IndependentScoring,
    coalition_totals,
)
from .sampling import exact_bounds, random_deviation
from .scoring import LogRule, QuadraticRule, _expectation
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


def _refuse_over_limit(work: str, count: int, unit: str, advice: str) -> None:
    """ValueError "<work> <count> <unit>, more than the limit of
    MAX_GRID_DEVIATIONS; use <advice>" when ``count`` exceeds that limit.
    """
    if count > MAX_GRID_DEVIATIONS:
        raise ValueError(
            f"{work} {count} {unit}, more than the limit of "
            f"{MAX_GRID_DEVIATIONS}; use {advice}"
        )


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


# The check path tests its kind against this name, up to four times per
# check: reading a member off the class goes through the enum's
# descriptor, 0.12 µs a time against 0.01 µs for a module name (Python
# 3.11 on a 2-core Xeon).
_DOMINANCE = CertificateKind.DOMINANCE


def ensure_agreement_outside(
    baseline: ReportProfile, deviation: ReportProfile, coalition: Coalition
) -> None:
    """Raise DeviationMismatchError unless only coalition reports changed.

    The shapes are compared first, then the coalition's range, by the
    test ``Coalition.validate_for`` makes (which is called, for its
    error, only when the test fails).  One pass over the baseline's
    reports then skips those identical to the deviation's and the
    members', and the first other expert whose reports differ is named.
    """
    if deviation.m != baseline.m or deviation.n != baseline.n:
        raise DeviationMismatchError(
            f"deviation shape ({deviation.m} experts, {deviation.n} "
            f"outcomes) does not match baseline ({baseline.m}, {baseline.n})"
        )
    members = coalition.members
    if members[-1] >= baseline.m:
        coalition.validate_for(baseline.m)
    after = deviation.reports
    i = 0
    for before in baseline.reports:
        if before is not after[i] and i not in members and before != after[i]:
            raise DeviationMismatchError(
                f"expert {i + 1} (1-based) is outside the coalition but "
                f"reports differ between baseline and deviation"
            )
        i += 1


@dataclass(frozen=True)
class ArbitrageCertificate:
    """A verified witness that a coalition deviation is a riskless gain.

    ``deltas`` holds the per-outcome change in the coalition's total
    payment (deviation minus baseline).  ``exact`` marks whether the
    comparisons behind the certificate were exact rational arithmetic or
    float comparisons at NUMERIC_TOLERANCE.  Construction checks the
    agreement guard, the delta count and the signs of the deltas it is
    given; it holds no contract, so it cannot recompute them, and a
    certificate built by hand can be false:
    ``ArbitrageCertificate(p, p, C, (1, 0), CertificateKind.DOMINANCE)``
    constructs for a deviation equal to its baseline.  The certificates
    that ``check_dominance``, ``check_expected_arbitrage`` and
    ``search_arbitrage`` return have deltas recomputed from the baseline.
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
    if kind is _DOMINANCE:
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
    if exact and kind is _DOMINANCE:
        return _dominates(after, before)
    return _witnesses(kind, baseline, coalition, _deltas(after, before), exact)


# Total types whose ratio ``as_integer_ratio`` reads exactly.
_RATIONALS = frozenset((Fraction, int))


def _dominates(after: Sequence, before: Sequence) -> bool:
    """Whether ``after`` is weakly above ``before`` everywhere and strictly
    above somewhere, deciding at the first outcome that loses.

    No delta is built.  A pair of Fraction or int totals is compared by
    integer cross-products of their ratios, each ratio read once; any
    other pair, such as float totals handed in as a screen, is compared
    as it is.
    """
    strict = False
    for a, b in zip(after, before):
        if type(a) in _RATIONALS and type(b) in _RATIONALS:
            p, q = a.as_integer_ratio()
            r, s = b.as_integer_ratio()
            a, b = p * s, r * q
        if a > b:
            strict = True
        elif not a >= b:
            return False
    return strict


def _independent_dominates(
    deviation: ReportProfile, coalition: Coalition, ratios: Sequence
) -> bool:
    """``_dominates`` for the coalition's totals under independent
    quadratic scoring, against the baseline totals whose integer ratios
    ``(p, q)`` are ``ratios``.

    Each member's score row, d its report scale squared with the
    numerators over it, is read as one cached pair (``_score_row``).
    The rows are summed over a running denominator, as
    ``contracts._member_sums`` sums payments: each row takes one gcd step
    that scales it and the running sums to the lcm of d and the running
    denominator.  Each outcome's sum is then compared with p / q by
    integer cross-products, and the first outcome that loses decides.  Experts
    outside the coalition are never read, and no ``Fraction`` is built.
    """
    reports = deviation.reports
    members = coalition.members
    den, sums = reports[members[0]]._score_row
    for i in members[1:]:
        d, row = reports[i]._score_row
        g = gcd(den, d)
        f, h = d // g, den // g
        sums = [a * f + x * h for a, x in zip(sums, row)]
        den *= f
    strict = False
    for a, (p, q) in zip(sums, ratios):
        a, b = a * q, p * den
        if a > b:
            strict = True
        elif a < b:
            return False
    return strict


def _weight_products(profile: ReportProfile, coalition: Coalition) -> list:
    """Per outcome, the product of the members' weights, as a Fraction.

    The exponential of the coalition's total under independent log
    scoring: ln is increasing, so these products order the totals
    exactly, and a zero product stands for a -inf total.
    """
    reports = profile.reports
    return [prod(w) for w in zip(*[reports[i].weights for i in coalition])]


def _deltas(after: Sequence, before: Sequence) -> tuple:
    """Per-outcome change in the coalition total, deviation minus baseline.

    Equal totals give a zero delta of the totals' own type, so two -inf
    totals under the log rule are a tie rather than NaN; every other
    delta is the plain difference, a Fraction on exact contracts.
    """
    return tuple(
        [a - b if a != b else type(a)(0) for a, b in zip(after, before)]
    )


class _Screened(tuple):
    """Baseline totals that the independent quadratic screen applies to.

    ``_baseline_totals`` sets ``contract``, the contract object it
    decided for, and ``ratios``, each total's integer ratio.
    """


def _baseline_totals(
    contract: ContractFunction,
    baseline: ReportProfile,
    totals: Sequence,
    kind: CertificateKind,
) -> tuple:
    """``totals`` read once and decided for a ``kind`` check of ``contract``.

    ValueError names both lengths unless there is one total per outcome
    of ``baseline``.  The screen applies to a dominance check under
    exactly ``IndependentScoring(QuadraticRule())`` (a subclass may
    score differently) with Fraction or int totals: then the totals come
    back as ``_Screened``, carrying ``contract`` and ``ratios``, and
    otherwise as a plain tuple.  This is the one place that gate is
    written; ``_check`` trusts the ``_Screened`` type and the contract
    recorded on it.
    """
    totals = tuple(totals)
    if len(totals) != baseline.n:
        raise ValueError(
            f"{len(totals)} baseline totals for {baseline.n} outcomes"
        )
    if not (
        type(contract) is IndependentScoring
        and type(contract.rule) is QuadraticRule
        and kind is _DOMINANCE
        and _RATIONALS.issuperset(map(type, totals))
    ):
        return totals
    screened = _Screened(totals)
    screened.contract = contract
    screened.ratios = [t.as_integer_ratio() for t in totals]
    return screened


def _check(
    kind: CertificateKind,
    contract: ContractFunction,
    baseline: ReportProfile,
    deviation: ReportProfile,
    coalition: Coalition,
    baseline_totals: Optional[Sequence],
) -> Optional[ArbitrageCertificate]:
    """The check behind ``check_dominance`` and ``check_expected_arbitrage``.

    After the agreement guard, ``baseline_totals`` goes through
    ``_baseline_totals`` unless it is already ``_Screened``, as a
    search's are.  When ``_Screened`` totals meet a dominance check of
    the contract object they were decided for, the independent quadratic
    screen applies and ``_independent_dominates`` returns None at once
    on a reject; with another contract object or kind they are a plain
    tuple of the same values.  Every other check, and a passing one,
    takes the plain path: the deviation's ``coalition_totals`` screened
    against ``baseline_totals``, then compared with the baseline's own
    totals, from which the certificate's deltas are built.  A dominance
    check under exactly ``IndependentScoring(LogRule())`` that passes
    those float comparisons certifies only if the members' weight
    products dominate the baseline's.
    """
    ensure_agreement_outside(baseline, deviation, coalition)
    if baseline_totals is not None:
        if type(baseline_totals) is not _Screened:
            baseline_totals = _baseline_totals(
                contract, baseline, baseline_totals, kind
            )
        if (
            type(baseline_totals) is _Screened
            and baseline_totals.contract is contract
            and kind is _DOMINANCE
            and not _independent_dominates(
                deviation, coalition, baseline_totals.ratios
            )
        ):
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
    if kind is _DOMINANCE and type(contract) is IndependentScoring:
        # Under the log rule a float loss within NUMERIC_TOLERANCE passes
        # the test above; the members' exact weight products decide.
        if type(contract.rule) is LogRule and not _dominates(
            _weight_products(deviation, coalition),
            _weight_products(baseline, coalition),
        ):
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
    ``coalition_totals(contract, baseline, coalition)``: a sequence of n
    totals, one per outcome (any other iterable is read once into a
    tuple), and another count raises ValueError.  A caller checking many
    deviations of one baseline computes it once and saves scoring the
    baseline on every check; given a sequence, each call still reads and
    decides the totals afresh (their count, and whether the screen below
    applies), while ``search_arbitrage`` decides them once per search.
    On an exact contract the
    deviation's totals are compared with the baseline's directly, without
    building a delta: for Fraction or int totals a >= b is decided on the
    integers a.numerator * b.denominator and b.numerator * a.denominator,
    and the comparison stops at the first outcome that loses.  Under
    independent quadratic scoring with Fraction or int totals, the
    deviation is screened before any total is built: its members'
    integer score numerators are summed over a running denominator, and
    the sums are compared with the baseline's totals until the first
    outcome that loses; the experts outside the coalition are not
    scored.  The totals only screen deviations: before a certificate is
    returned its deltas are recomputed from the baseline, so totals that
    are wrong can hide a certificate but never make one.  Under exactly
    ``IndependentScoring(LogRule())`` the float totals screen too: a
    certificate needs the members' exact per-outcome weight products to
    dominate the baseline's.
    """
    return _check(
        _DOMINANCE,
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

    Reports are drawn at ``sampling.DEFAULT_DENOMINATOR``.  ``bounds``,
    when set, restricts every drawn weight to [lo, hi].  The bounds must
    be exact rationals with 0 <= lo <= hi <= 1; they are stored as
    Fractions, and floats are refused.  The other fields are ints (not
    bools): ``random.Random("7")`` seeds another stream than 7.
    """

    trials: int
    seed: int
    bounds: Optional[tuple[Fraction, Fraction]] = None

    def __post_init__(self) -> None:
        _require_int("trials", self.trials)
        _require_int("seed", self.seed)
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if self.bounds is not None:
            object.__setattr__(self, "bounds", exact_bounds(self.bounds))


def _grid_deviations(
    contract: ContractFunction,
    baseline: ReportProfile,
    coalition: Coalition,
    steps: int,
) -> Iterator[ReportProfile]:
    members = coalition.members
    if isinstance(contract, ArbitrageFreeContract):
        # The coalition's totals depend only on its per-outcome sums.  |C|
        # members on the 1/steps lattice reach exactly the sums |C| times
        # a point of the 1/(|C| * steps) lattice, so enumerate those points
        # and realize each sum by the equal split where every member
        # reports the point itself.
        for point in simplex_lattice(baseline.n, coalition.size * steps):
            yield baseline.replace({i: point for i in members})
    else:
        # The lattice is listed once, and each member paired with every
        # point once, so a deviation's changes are its combination as it
        # is; the product keeps the lexicographic order.
        lattice = list(simplex_lattice(baseline.n, steps))
        entries = [[(i, point) for point in lattice] for i in members]
        for combo in product(*entries):
            yield baseline.replace(dict(combo))


def _random_deviations(
    baseline: ReportProfile,
    coalition: Coalition,
    strategy: RandomSearch,
) -> Iterator[ReportProfile]:
    rng = random.Random(strategy.seed)
    for _ in range(strategy.trials):
        yield random_deviation(rng, baseline, coalition, strategy.bounds)


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
    are computed and decided (``_baseline_totals``) once per search, and
    every deviation's check reuses them.
    """
    coalition.validate_for(baseline.m)
    if isinstance(strategy, GridSearch):
        # C(S + n - 1, n - 1) lattice points, and every combination of one
        # point per member; the alpha family lists the C(c*S + n - 1, n - 1)
        # points of one finer lattice instead, c = |C|.
        steps, n = strategy.steps, baseline.n
        if isinstance(contract, ArbitrageFreeContract):
            count = comb(coalition.size * steps + n - 1, n - 1)
        else:
            count = comb(steps + n - 1, n - 1) ** coalition.size
        search = f"grid search at steps {steps}"
        advice = "a coarser grid, a smaller coalition or random search"
        deviations = _grid_deviations(contract, baseline, coalition, steps)
    elif isinstance(strategy, RandomSearch):
        count = strategy.trials
        search, advice = f"random search with {count} trials", "fewer trials"
        deviations = _random_deviations(baseline, coalition, strategy)
    else:
        raise TypeError(f"unknown search strategy {strategy!r}")
    _refuse_over_limit(f"{search} would check", count, "deviations", advice)
    check = (
        check_dominance
        if kind is CertificateKind.DOMINANCE
        else check_expected_arbitrage
    )
    before = _baseline_totals(
        contract, baseline, coalition_totals(contract, baseline, coalition), kind
    )
    for deviation in deviations:
        cert = check(contract, baseline, deviation, coalition, before)
        if cert is not None:
            return cert
    return None
