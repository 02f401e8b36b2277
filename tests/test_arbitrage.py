"""Arbitrage certificates, searches, and the uniform-report interval."""

from __future__ import annotations

import contextlib
import math
import random
import re
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from elicit import (
    ArbitrageFreeContract,
    CertificateKind,
    Coalition,
    ContractFunction,
    Distribution,
    GridSearch,
    IndependentScoring,
    LogRule,
    QuadraticRule,
    RandomSearch,
    ReportProfile,
    check_dominance,
    check_expected_arbitrage,
    coalition_totals,
    mean_collusion,
    search_arbitrage,
    simplex_lattice,
    uniform_report_arbitrage_interval,
)
from elicit import arbitrage
from elicit.contracts import safe_cutoff
from elicit.sampling import random_distribution
from elicit.scoring import quadratic_score
from elicit.arbitrage import (
    ArbitrageInterval,
    DeviationMismatchError,
    ReconstructionError,
    SqrtExpr,
    _grid_deviations,
    _random_deviations,
    ensure_agreement_outside,
    profile_with_coalition_sums,
)

from conftest import (
    distributions,
    exact_values,
    fine_profiles,
    int_weighted_distributions,
    mixed_denominator_reports,
    plain_expectation,
    plain_quadratic,
    plain_reward,
    profiles,
    profiles_with_coalitions,
)

INTRO = ReportProfile.of(("2/5", "3/5"), ("1/2", "1/2"), ("9/10", "1/10"))
ALL_HALF = ReportProfile.of(("1/2", "1/2"), ("1/2", "1/2"), ("1/2", "1/2"))
MISUSE = ReportProfile.of(("1/2", "1/2"), ("1/3", "2/3"), ("1/4", "3/4"))
QUADRATIC = IndependentScoring(rule=QuadraticRule())
LOG = IndependentScoring(rule=LogRule())


def uniform_deviation(profile, coalition, report):
    return profile.replace({i: report for i in coalition})


def unchanged_copy(profile):
    return profile.replace({})


def reference_compare(e: SqrtExpr, x: Fraction) -> int:
    """Sign of e - x by squaring integers only.

    sqrt(p/q) = sqrt(p*q)/q.  A perfect square p*q gives the root
    exactly; otherwise the root is irrational and lies strictly inside
    [isqrt(N)/D, (isqrt(N) + 1)/D] for N = p*q*4**k, D = q*2**k.  The
    bracket is narrowed until x falls outside coeff times it, which it
    must, since an irrational value never equals a rational.
    """
    t = x - e.offset
    if e.coeff == 0 or e.radicand == 0:
        return (0 > t) - (0 < t)
    p, q = e.radicand.numerator, e.radicand.denominator
    root = math.isqrt(p * q)
    if root * root == p * q:
        value = e.coeff * Fraction(root, q)
        return (value > t) - (value < t)
    k = 0
    while True:
        scale = 2**k
        r = math.isqrt(p * q * scale * scale)
        ends = sorted((e.coeff * Fraction(r, q * scale),
                       e.coeff * Fraction(r + 1, q * scale)))
        if t <= ends[0]:
            return 1
        if t >= ends[1]:
            return -1
        k += 1


def sqrt_grid():
    """8 offsets x 8 coefficients x 6 radicands, signs and unit sizes mixed."""
    offsets = [Fraction(v) for v in ("0", "1", "-1", "1/2", "-1/2", "2", "-3", "5/7")]
    coeffs = [Fraction(v) for v in ("0", "1", "-1", "2", "-2", "1/2", "-1/2", "3/4")]
    radicands = [Fraction(v) for v in ("0", "1", "2", "1/4", "31/150", "4/9")]
    for offset, coeff, radicand in product(offsets, coeffs, radicands):
        yield SqrtExpr(offset=offset, coeff=coeff, radicand=radicand)


def sqrt_sum_vs_one(a: Fraction, b: Fraction) -> int:
    """Sign of sqrt(a) + sqrt(b) - 1 for nonnegative rationals, exactly.

    Square twice: sqrt(a) + sqrt(b) ? 1 reduces to 2*sqrt(a*b) ? 1 - a - b,
    and when the right side is nonnegative, to 4ab ? (1 - a - b)**2.  An
    interval's lower < upper exactly when this is positive.
    """
    rhs = 1 - a - b
    if rhs < 0:
        return 1
    lhs, rhs2 = 4 * a * b, rhs * rhs
    return (lhs > rhs2) - (lhs < rhs2)


@st.composite
def interval_cases(draw):
    """Two-outcome profile, coalition and outcome; members agree 30% of
    the time."""
    profile = draw(fine_profiles(max_m=6, n=2))
    size = draw(st.integers(2, profile.m))
    coalition = Coalition.of(draw(st.permutations(range(profile.m)))[:size])
    if draw(st.integers(0, 9)) < 3:
        shared = profile.reports[coalition.members[0]]
        profile = profile.replace({i: shared for i in coalition})
    return profile, coalition, draw(st.integers(0, 1))


_SQRT_TEXT = re.compile(
    r"(?:(?P<offset>-?[0-9/]+) (?P<sign>[+-]) |(?P<neg>-)?)"
    r"(?:(?P<mag>[0-9/]+)\*)?sqrt\((?P<radicand>[0-9/]+)\)"
)


def read_sqrt_expr(text: str) -> tuple:
    """(offset, coeff, radicand) read back from ``str(SqrtExpr)``."""
    match = _SQRT_TEXT.fullmatch(text)
    assert match, text
    negative = (match["sign"] or match["neg"] or "+") == "-"
    mag = Fraction(match["mag"] or 1)
    return (
        Fraction(match["offset"] or 0),
        -mag if negative else mag,
        Fraction(match["radicand"]),
    )


class TestAgreementGuard:
    def test_accepts_coalition_only_changes(self):
        dev = uniform_deviation(INTRO, Coalition.of([0, 1]), Distribution.of(1, 0))
        ensure_agreement_outside(INTRO, dev, Coalition.of([0, 1]))

    def test_rejects_outside_changes(self):
        dev = INTRO.replace({2: Distribution.of(1, 0)})
        with pytest.raises(DeviationMismatchError, match="expert 3"):
            ensure_agreement_outside(INTRO, dev, Coalition.of([0, 1]))

    def test_rejects_shape_mismatch(self):
        narrow = ReportProfile.of(("1/2", "1/2"), ("1/2", "1/2"))
        with pytest.raises(DeviationMismatchError, match="shape"):
            ensure_agreement_outside(INTRO, narrow, Coalition.of([0]))

    def test_equal_but_distinct_report_outside_agrees(self):
        copy = Distribution.of("9/10", "1/10")
        dev = INTRO.replace({0: Distribution.of(1, 0), 2: copy})
        assert dev.reports[2] is not INTRO.reports[2]
        ensure_agreement_outside(INTRO, dev, Coalition.of([0, 1]))

    def test_names_the_first_differing_non_member(self):
        four = ReportProfile.of(*[("1/2", "1/2")] * 4)
        # Expert 1 (a member) and experts 2 and 4 (outsiders) all move.
        dev = four.replace(
            {i: Distribution.of(1, 0) for i in (0, 1, 3)}
        )
        with pytest.raises(DeviationMismatchError) as raised:
            ensure_agreement_outside(four, dev, Coalition.of([0, 2]))
        assert str(raised.value) == (
            "expert 2 (1-based) is outside the coalition but reports "
            "differ between baseline and deviation"
        )


def reference_agreement_guard(baseline, deviation, coalition):
    """The agreement guard as a plain loop: the shapes, then the
    coalition's range through ``validate_for``, then every pair of
    reports in order, skipping identical objects and members."""
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


def guard_outcome(guard, baseline, deviation, coalition):
    """None, or the type and message of the exception the guard raises."""
    try:
        return guard(baseline, deviation, coalition)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def guard_cases(draw):
    """A baseline, a deviation and a coalition that may reach past the
    baseline's experts.  The deviation has another number of experts or
    outcomes, or keeps each report as the same object, as an equal but
    distinct one (built from its weights or from its counts), or draws
    another, which may differ from the baseline's anywhere."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(2, 3))
    baseline = ReportProfile(tuple(draw(distributions(n=n)) for _ in range(m)))
    members = draw(st.lists(st.integers(0, m + 1), min_size=1, max_size=2))
    shape = draw(st.sampled_from(["same", "same", "experts", "outcomes"]))
    if shape == "same":
        reports = []
        for r in baseline.reports:
            how = draw(st.sampled_from(["same", "weights", "counts", "other"]))
            if how == "weights":
                r = Distribution(r.weights)
            elif how == "counts":
                r = Distribution._from_counts(r.scaled[1], r.scaled[0])
            elif how == "other":
                r = draw(distributions(n=n))
            reports.append(r)
    else:
        size, width = m, n
        if shape == "experts":
            size = draw(st.integers(1, 6).filter(lambda k: k != m))
        else:
            width = n + 1
        reports = [draw(distributions(n=width)) for _ in range(size)]
    return baseline, ReportProfile(tuple(reports)), Coalition.of(members)


FIVE_HALVES = ReportProfile.of(*[("1/2", "1/2")] * 5)


class TestAgreementGuardOracle:
    """``ensure_agreement_outside`` raises what the plain loop raises.

    The examples are a shape mismatch with a coalition past the
    baseline's experts (the shape error wins), non-members that differ
    at experts 3 and 5 (expert 3 is named), and equal but distinct
    reports outside the coalition (no error)."""

    @settings(max_examples=500)
    @given(guard_cases())
    @example((INTRO, ReportProfile.of(*INTRO.reports[:2]), Coalition.of([5])))
    @example((
        FIVE_HALVES,
        FIVE_HALVES.replace({i: Distribution.of(1, 0) for i in (0, 2, 4)}),
        Coalition.of([0, 1]),
    ))
    @example((
        INTRO,
        ReportProfile((
            Distribution(INTRO.reports[0].weights),
            Distribution._from_counts((1, 1), 2),
            Distribution(INTRO.reports[2].weights),
        )),
        Coalition.of([0]),
    ))
    def test_matches_the_plain_loop(self, case):
        assert guard_outcome(ensure_agreement_outside, *case) == guard_outcome(
            reference_agreement_guard, *case
        )


class TestCheckDominance:
    def test_intro_mean_collusion_certifies(self):
        coalition = Coalition.full(3)
        deviation = mean_collusion(INTRO, coalition)
        cert = check_dominance(QUADRATIC, INTRO, deviation, coalition)
        assert cert is not None
        assert cert.kind is CertificateKind.DOMINANCE
        assert cert.exact
        assert cert.deltas == (Fraction(7, 25), Fraction(7, 25))

    def test_identical_deviation_yields_none(self):
        coalition = Coalition.full(3)
        assert (
            check_dominance(QUADRATIC, INTRO, unchanged_copy(INTRO), coalition)
            is None
        )

    def test_losing_somewhere_yields_none(self):
        coalition = Coalition.of([0, 1])
        deviation = uniform_deviation(INTRO, coalition, Distribution.of(1, 0))
        assert check_dominance(QUADRATIC, INTRO, deviation, coalition) is None

    def test_valid_alpha_never_certifies_mean_collusion(self):
        contract = ArbitrageFreeContract(alpha=-1)
        coalition = Coalition.full(3)
        deviation = mean_collusion(INTRO, coalition)
        assert check_dominance(contract, INTRO, deviation, coalition) is None


class TestExpectedArbitrage:
    def test_canonical_alpha16_case(self):
        contract = ArbitrageFreeContract(alpha=16)
        coalition = Coalition.full(3)
        deviation = uniform_deviation(ALL_HALF, coalition, Distribution.of(1, 0))
        assert check_dominance(contract, ALL_HALF, deviation, coalition) is None
        cert = check_expected_arbitrage(contract, ALL_HALF, deviation, coalition)
        assert cert is not None
        assert cert.kind is CertificateKind.EXPECTED
        assert cert.deltas == (Fraction(39, 2), Fraction(-21, 2))
        assert cert.member_expected_gains() == (Fraction(9, 2),) * 3

    @given(st.data())
    def test_member_gains_equal_plain_fraction_sums(self, data):
        first = data.draw(int_weighted_distributions())
        reports = [first] + data.draw(
            st.lists(
                int_weighted_distributions(n=first.n), min_size=1, max_size=3
            )
        )
        baseline = ReportProfile(tuple(reports))
        members = data.draw(
            st.lists(
                st.integers(0, baseline.m - 1), min_size=1, unique=True
            )
        )
        coalition = Coalition.of(members)
        deltas = data.draw(st.tuples(*[exact_values] * baseline.n))
        gains = arbitrage._member_gains(baseline, coalition, deltas, True)
        assert gains == tuple(
            plain_expectation(baseline.reports[i], deltas) for i in coalition
        )
        assert all(type(g) is Fraction for g in gains)

    def test_no_expected_gain_for_identical_reports(self):
        contract = ArbitrageFreeContract(alpha=16)
        coalition = Coalition.full(3)
        assert (
            check_expected_arbitrage(
                contract, ALL_HALF, unchanged_copy(ALL_HALF), coalition
            )
            is None
        )

    @given(profiles_with_coalitions(max_m=4, max_n=3))
    def test_dominance_implies_expected_when_beliefs_allow(self, pc):
        # A sure gain is an expected gain whenever each member believes
        # some strictly improved outcome has positive probability.
        profile, coalition = pc
        deviation = mean_collusion(profile, coalition)
        cert = check_dominance(QUADRATIC, profile, deviation, coalition)
        if cert is None:
            return
        strict = {j for j, d in enumerate(cert.deltas) if d > 0}
        if all(
            any(profile.reports[i].weights[j] > 0 for j in strict)
            for i in coalition
        ):
            assert (
                check_expected_arbitrage(QUADRATIC, profile, deviation, coalition)
                is not None
            )

    def test_log_ties_at_minus_inf(self):
        # Both members rule out outcome 1 before and after, so its total
        # is -inf on both sides: a tie, not a NaN that fails the weak test.
        baseline = ReportProfile.of(("0", "1/4", "3/4"), ("0", "3/4", "1/4"))
        half = Distribution.of("0", "1/2", "1/2")
        deviation = baseline.replace({0: half, 1: half})
        coalition = Coalition.full(2)
        totals = coalition_totals(LOG, baseline, coalition)
        assert totals[0] == -math.inf
        gain = -math.log(3 / 4)
        for cached in (None, totals):
            cert = check_dominance(LOG, baseline, deviation, coalition, cached)
            assert cert is not None and not cert.exact
            assert cert.deltas[0] == 0.0 and type(cert.deltas[0]) is float
            assert cert.deltas[1:] == (pytest.approx(gain), pytest.approx(gain))
        # Each member believes in both improved outcomes.
        expected = check_expected_arbitrage(LOG, baseline, deviation, coalition)
        assert expected is not None

    def test_deltas_of_equal_totals_are_zero(self):
        inf = math.inf
        assert arbitrage._deltas((-inf, -inf, 1.5), (-inf, 0.5, 1.5)) == (
            0.0, -inf, 0.0
        )
        exact = arbitrage._deltas(
            (Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 4))
        )
        assert exact == (0, Fraction(1, 12))
        assert all(type(d) is Fraction for d in exact)

    @pytest.mark.parametrize("n,steps", [(2, 4), (3, 3)])
    def test_log_dominance_implies_expected_when_beliefs_allow(self, n, steps):
        # Under the log rule an outcome a member ruled out can gain +inf.
        # That member gives the outcome no weight, so every pair of lattice
        # profiles where each member believes in some strictly improved
        # outcome must certify expected arbitrage too.
        coalition = Coalition.full(2)
        lattice = list(simplex_lattice(n, steps))
        profiles = [ReportProfile(pair) for pair in product(lattice, repeat=2)]
        infinite = 0
        for baseline in profiles:
            for deviation in profiles:
                cert = check_dominance(LOG, baseline, deviation, coalition)
                if cert is None:
                    continue
                strict = {
                    j for j, d in enumerate(cert.deltas)
                    if d > arbitrage.NUMERIC_TOLERANCE
                }
                if not all(
                    any(baseline.reports[i].weights[j] > 0 for j in strict)
                    for i in coalition
                ):
                    continue
                infinite += math.inf in cert.deltas
                assert (
                    check_expected_arbitrage(LOG, baseline, deviation, coalition)
                    is not None
                )
        assert infinite > 0


class TestMeanCollusion:
    def test_replaces_members_with_their_mean(self):
        coalition = Coalition.of([0, 2])
        deviation = mean_collusion(INTRO, coalition)
        mean = Distribution.of("13/20", "7/20")
        assert deviation.reports[0] == mean
        assert deviation.reports[2] == mean
        assert deviation.reports[1] == INTRO.reports[1]

    def test_needs_two_members(self):
        with pytest.raises(ValueError):
            mean_collusion(INTRO, Coalition.of([1]))

    @given(profiles_with_coalitions())
    def test_quadratic_coalition_totals_never_drop(self, pc):
        profile, coalition = pc
        deviation = mean_collusion(profile, coalition)
        before = coalition_totals(QUADRATIC, profile, coalition)
        after = coalition_totals(QUADRATIC, deviation, coalition)
        assert all(b >= a for b, a in zip(after, before))


class TestReconstruction:
    def test_equal_split_hits_target_sums(self):
        coalition = Coalition.of([0, 1])
        target = (Fraction(3, 2), Fraction(1, 2))
        rebuilt = profile_with_coalition_sums(INTRO, coalition, target)
        for j in range(2):
            assert sum(rebuilt.reports[i].weights[j] for i in coalition) == target[j]
        assert rebuilt.reports[2] == INTRO.reports[2]

    def test_rejects_infeasible_targets(self):
        coalition = Coalition.of([0, 1])
        with pytest.raises(ReconstructionError, match="total"):
            profile_with_coalition_sums(INTRO, coalition, (Fraction(2), Fraction(1)))
        with pytest.raises(ReconstructionError, match="outside"):
            profile_with_coalition_sums(
                INTRO, coalition, (Fraction(5, 2), Fraction(-1, 2))
            )
        with pytest.raises(ReconstructionError, match="outcomes"):
            profile_with_coalition_sums(INTRO, coalition, (Fraction(2),))


class TestSqrtExpr:
    def test_value_and_str(self):
        lower = SqrtExpr(offset=Fraction(1), coeff=Fraction(-1), radicand=Fraction(31, 150))
        upper = SqrtExpr(offset=Fraction(0), coeff=Fraction(1), radicand=Fraction(61, 150))
        assert str(lower) == "1 - sqrt(31/150)"
        assert str(upper) == "sqrt(61/150)"
        assert lower.value() == pytest.approx(0.5453939434)
        assert upper.value() == pytest.approx(0.6377042157)

    def test_exact_comparisons(self):
        root_half = SqrtExpr(offset=Fraction(0), coeff=Fraction(1), radicand=Fraction(1, 2))
        assert root_half.compare_to(Fraction(7, 10)) > 0
        assert root_half.compare_to(Fraction(71, 100)) < 0
        exact = SqrtExpr(offset=Fraction(2), coeff=Fraction(3), radicand=Fraction(4, 9))
        assert exact.compare_to(Fraction(4)) == 0

    def test_negative_coefficient_ordering(self):
        e = SqrtExpr(offset=Fraction(1), coeff=Fraction(-1), radicand=Fraction(1, 4))
        assert e.compare_to(Fraction(1, 2)) == 0
        assert e.compare_to(Fraction(0)) > 0
        assert e.compare_to(Fraction(1)) < 0

    def test_rejects_negative_radicand_and_floats(self):
        with pytest.raises(ValueError):
            SqrtExpr(offset=Fraction(0), coeff=Fraction(1), radicand=Fraction(-1))
        e = SqrtExpr(offset=Fraction(0), coeff=Fraction(1), radicand=Fraction(2))
        with pytest.raises(TypeError, match="float"):
            e.compare_to(0.5)

    @pytest.mark.parametrize(
        "offset,coeff,radicand,x,want",
        [
            # coeff > 0, t < 0: the root side wins on sign alone.
            ("1", "2", "3", "1/2", 1),
            ("0", "1/3", "1/9", "-5", 1),
            # coeff < 0, t > 0.
            ("1", "-2", "3", "3/2", -1),
            ("-1/2", "-1", "1/4", "1", -1),
            # coeff = 0 and radicand = 0: the offset alone.
            ("2/3", "0", "5", "2/3", 0),
            ("2/3", "0", "5", "1", -1),
            ("2/3", "0", "5", "0", 1),
            ("-1", "7", "0", "-1", 0),
            ("-1", "7", "0", "-2", 1),
            ("-1", "-7", "0", "0", -1),
            # Equal squares: coeff**2 * radicand == t**2.
            ("2", "3", "4/9", "4", 0),
            ("2", "-3", "4/9", "0", 0),
            ("1", "2", "1/4", "0", 1),
            ("1", "-2", "1/4", "2", -1),
            # Same signs, squares apart.
            ("0", "-1", "2", "-7/5", -1),
            ("0", "-1", "2", "-3/2", 1),
        ],
    )
    def test_compare_to_every_sign_case(self, offset, coeff, radicand, x, want):
        e = SqrtExpr(
            offset=Fraction(offset), coeff=Fraction(coeff),
            radicand=Fraction(radicand),
        )
        assert e.compare_to(Fraction(x)) == want
        assert reference_compare(e, Fraction(x)) == want

    def test_compare_to_matches_the_reference_on_a_grid(self):
        for e in sqrt_grid():
            for k in range(-5, 6):
                x = Fraction(k, 2)
                assert e.compare_to(x) == reference_compare(e, x), (e, x)

    @pytest.mark.parametrize(
        "offset,coeff,radicand,text",
        [
            ("0", "2", "3", "2*sqrt(3)"),
            ("0", "-2", "3", "-2*sqrt(3)"),
            ("0", "1/2", "3", "1/2*sqrt(3)"),
            ("0", "-1", "2", "-sqrt(2)"),
            ("1", "2", "3", "1 + 2*sqrt(3)"),
            ("1", "-2", "3", "1 - 2*sqrt(3)"),
            ("1", "1/2", "3", "1 + 1/2*sqrt(3)"),
            ("-1", "1", "3", "-1 + sqrt(3)"),
            ("-1/2", "-2", "3", "-1/2 - 2*sqrt(3)"),
            ("-1/2", "-1/2", "5/7", "-1/2 - 1/2*sqrt(5/7)"),
            ("-1", "0", "3", "-1"),
            ("5", "2", "0", "5"),
            ("0", "0", "0", "0"),
        ],
    )
    def test_str_pins(self, offset, coeff, radicand, text):
        e = SqrtExpr(
            offset=Fraction(offset), coeff=Fraction(coeff),
            radicand=Fraction(radicand),
        )
        assert str(e) == text

    def test_str_reads_back_on_a_grid(self):
        for e in sqrt_grid():
            text = str(e)
            if e.coeff == 0 or e.radicand == 0:
                assert text == str(e.offset)
            else:
                assert read_sqrt_expr(text) == (e.offset, e.coeff, e.radicand)


class TestUniformReportInterval:
    def test_intro_interval_values(self):
        interval = uniform_report_arbitrage_interval(INTRO, Coalition.full(3), 0)
        assert not interval.empty
        assert interval.lower.radicand == Fraction(31, 150)
        assert interval.upper.radicand == Fraction(61, 150)
        assert interval.contains(Fraction(546, 1000))
        assert interval.contains(Fraction(637, 1000))
        assert not interval.contains(Fraction(545, 1000))
        assert not interval.contains(Fraction(638, 1000))

    def test_membership_matches_dominance_checks(self):
        coalition = Coalition.full(3)
        interval = uniform_report_arbitrage_interval(INTRO, coalition, 0)
        for k in range(0, 21):
            x = Fraction(k, 20)
            report = Distribution(weights=(x, 1 - x))
            deviation = uniform_deviation(INTRO, coalition, report)
            cert = check_dominance(QUADRATIC, INTRO, deviation, coalition)
            assert interval.contains(x) == (cert is not None)

    def test_identical_reports_give_empty_interval(self):
        interval = uniform_report_arbitrage_interval(ALL_HALF, Coalition.full(3), 0)
        assert interval.empty
        assert not interval.contains(Fraction(1, 2))

    def test_requires_two_outcomes_and_two_members(self):
        wide = ReportProfile.of(("1/3", "1/3", "1/3"), ("1/3", "1/3", "1/3"))
        with pytest.raises(ValueError, match="2 outcomes"):
            uniform_report_arbitrage_interval(wide, Coalition.full(2), 0)
        with pytest.raises(ValueError, match="members"):
            uniform_report_arbitrage_interval(INTRO, Coalition.of([0]), 0)

    @given(interval_cases())
    def test_empty_exactly_when_the_roots_sum_to_at_most_one(self, case):
        profile, coalition, j = case
        interval = uniform_report_arbitrage_interval(profile, coalition, j)
        old = sqrt_sum_vs_one(interval.lower.radicand, interval.upper.radicand)
        assert interval.empty == (old <= 0)

    @given(interval_cases())
    def test_interval_holds_the_members_mean_report(self, case):
        profile, coalition, j = case
        interval = uniform_report_arbitrage_interval(profile, coalition, j)
        mean = sum(profile.reports[i].weights[j] for i in coalition) / coalition.size
        assert interval.lower.compare_to(mean) <= 0 <= interval.upper.compare_to(mean)
        assert interval.contains(mean) == (not interval.empty)

    @given(profiles_with_coalitions(max_m=4, max_n=2))
    def test_radicands_stay_in_unit_range(self, pc):
        profile, coalition = pc
        for j in range(2):
            interval = uniform_report_arbitrage_interval(profile, coalition, j)
            assert 0 <= interval.lower.radicand <= 1
            assert 0 <= interval.upper.radicand <= 1


class TestSearch:
    def test_grid_finds_intro_certificate(self):
        coalition = Coalition.full(3)
        cert = search_arbitrage(
            QUADRATIC, INTRO, coalition, GridSearch(steps=10)
        )
        assert cert is not None
        assert all(d >= 0 for d in cert.deltas)
        assert any(d > 0 for d in cert.deltas)

    def test_grid_respects_arbitrage_freeness(self):
        contract = ArbitrageFreeContract(alpha=-1)
        cert = search_arbitrage(
            contract, INTRO, Coalition.full(3), GridSearch(steps=8)
        )
        assert cert is None

    def test_random_search_is_reproducible(self):
        coalition = Coalition.full(3)
        strategy = RandomSearch(trials=50, seed=11)
        first = search_arbitrage(QUADRATIC, INTRO, coalition, strategy)
        second = search_arbitrage(QUADRATIC, INTRO, coalition, strategy)
        assert (first is None) == (second is None)
        if first is not None:
            assert first.deviation == second.deviation

    def test_bounded_random_search_stays_interior(self):
        lo, hi = Fraction(1, 50), Fraction(49, 50)
        strategy = RandomSearch(trials=50, seed=3, bounds=(lo, hi))
        cert = search_arbitrage(QUADRATIC, INTRO, Coalition.full(3), strategy)
        assert cert is not None
        for i in cert.coalition:
            for w in cert.deviation.reports[i].weights:
                assert lo <= w <= hi

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            GridSearch(steps=1)
        with pytest.raises(ValueError):
            RandomSearch(trials=0, seed=1)

    @pytest.mark.parametrize(
        "field,build",
        [
            ("steps", lambda v: GridSearch(steps=v)),
            ("trials", lambda v: RandomSearch(trials=v, seed=1)),
            ("seed", lambda v: RandomSearch(trials=5, seed=v)),
        ],
        ids=["steps", "trials", "seed"],
    )
    @pytest.mark.parametrize("value", [2.5, True, "7", None])
    def test_a_field_that_is_not_an_int_is_refused(self, field, build, value):
        # 2.5 would fail inside range(), True would run one trial, and
        # random.Random("7") seeds a different stream than 7.
        with pytest.raises(ValueError, match=rf"^{field} must be an int, got "):
            build(value)

    def test_random_search_rejects_float_bounds(self):
        with pytest.raises(TypeError, match="float"):
            RandomSearch(trials=5, seed=1, bounds=(0.1, 0.9))

    def test_random_search_rejects_non_rational_bounds(self):
        with pytest.raises(ValueError):
            RandomSearch(trials=5, seed=1, bounds=("low", "1"))
        with pytest.raises(TypeError):
            RandomSearch(trials=5, seed=1, bounds=(None, 1))
        with pytest.raises(ValueError, match="pair"):
            RandomSearch(trials=5, seed=1, bounds=(0, Fraction(1, 2), 1))

    @pytest.mark.parametrize(
        "bounds",
        [("7/10", "1/5"), ("-1/10", "1/2"), ("1/2", "3/2")],
        ids=["reversed", "below-zero", "above-one"],
    )
    def test_random_search_rejects_bounds_outside_unit_interval(self, bounds):
        with pytest.raises(ValueError, match="bad bounds"):
            RandomSearch(trials=5, seed=1, bounds=bounds)

    def test_random_search_stores_exact_bounds(self):
        strategy = RandomSearch(trials=5, seed=1, bounds=("1/50", 1))
        assert strategy.bounds == (Fraction(1, 50), Fraction(1))
        assert all(type(b) is Fraction for b in strategy.bounds)

    def test_expected_kind_search(self):
        contract = ArbitrageFreeContract(alpha=16)
        cert = search_arbitrage(
            contract,
            ALL_HALF,
            Coalition.full(3),
            GridSearch(steps=4),
            kind=CertificateKind.EXPECTED,
        )
        assert cert is not None
        assert cert.kind is CertificateKind.EXPECTED
        gains = cert.member_expected_gains()
        assert all(g >= 0 for g in gains) and any(g > 0 for g in gains)


GRID_BASELINE = ReportProfile.of(
    ("1/2", "1/3", "1/6"), ("1/4", "1/4", "1/2"), ("3/5", "1/5", "1/5"),
    ("1/10", "7/10", "1/5"),
)


class TestGridOrder:
    """``_grid_deviations`` against a reference that shares none of its code.

    The reference writes each deviation's reports out from the baseline's
    and its combination of lattice points, without ``replace``.  The
    first certificate a grid search returns is the lexicographically
    smallest, so the order of the deviations is pinned one by one.
    """

    @pytest.mark.parametrize(
        "members", [(2,), (0, 3), (0, 1, 3)], ids=["one", "two", "three"]
    )
    @pytest.mark.parametrize(
        "contract",
        [QUADRATIC, ArbitrageFreeContract(alpha=-1)],
        ids=["quadratic", "alpha-family"],
    )
    def test_deviations_in_reference_order(self, contract, members):
        steps, c = 3, len(members)
        if isinstance(contract, ArbitrageFreeContract):
            # One point of the 1/(c * steps) lattice per search deviation,
            # and every member reports it.
            combos = [
                (point,) * c
                for point in simplex_lattice(GRID_BASELINE.n, c * steps)
            ]
            count = math.comb(c * steps + 2, 2)
        else:
            combos = product(
                list(simplex_lattice(GRID_BASELINE.n, steps)), repeat=c
            )
            count = 10**c
        want = [
            tuple(
                combo[members.index(k)] if k in members else report
                for k, report in enumerate(GRID_BASELINE.reports)
            )
            for combo in combos
        ]
        got = list(
            _grid_deviations(
                contract, GRID_BASELINE, Coalition.of(members), steps
            )
        )
        assert len(got) == len(want) == count
        for g, w in zip(got, want):
            assert type(g) is ReportProfile
            assert (g.m, g.n) == (4, 3)
            assert g.reports == w


def product_grid_certifies(contract, baseline, coalition, steps):
    """Whether a member-by-member grid certifies dominance: every
    combination of one point of the 1/steps lattice per member."""
    lattice = list(simplex_lattice(baseline.n, steps))
    return any(
        check_dominance(
            contract,
            baseline,
            baseline.replace(dict(zip(coalition.members, combo))),
            coalition,
        )
        is not None
        for combo in product(lattice, repeat=coalition.size)
    )


@st.composite
def family_grid_cases(draw, prone):
    """An alpha-family contract, a baseline of 3 or 4 experts, a coalition
    of 2 or 3 and grid steps; alpha in steps of 1/100, inside the
    arbitrage-prone band [0, cutoff) or outside it."""
    m = draw(st.integers(3, 4))
    baseline = draw(profiles(m=m))
    cutoff = 100 * safe_cutoff(m, baseline.n)
    if prone:
        hundredths = draw(st.integers(0, cutoff - 1))
    else:
        hundredths = draw(
            st.one_of(st.integers(-10**4, -1), st.integers(cutoff, cutoff + 10**4))
        )
    contract = ArbitrageFreeContract(Fraction(hundredths, 100), permissive=prone)
    size = draw(st.integers(2, 3))
    coalition = Coalition.of(draw(st.permutations(range(m)))[:size])
    return contract, baseline, coalition, draw(st.integers(2, 3))


# The golden case search_nr_sum_grid: three members on the 1/2 lattice
# reach the sum (0, 1, 2), which no shared point of that lattice makes.
SUM_GRID_CASE = (
    ArbitrageFreeContract(Fraction(87, 50), permissive=True),
    ReportProfile.of(("1/6", "3/4", "1/12"), (0, 0, 1), (0, "1/6", "5/6")),
    Coalition.full(3),
    2,
)


class TestFamilySumGrid:
    """The alpha family's grid lists every coalition sum that its members
    can make on the 1/steps lattice: |C| times each point of the
    1/(|C| * steps) lattice.  A coalition's totals depend only on its sum,
    so it certifies exactly where a member-by-member grid does."""

    @settings(max_examples=30)
    @example(case=SUM_GRID_CASE)
    @given(case=family_grid_cases(prone=True))
    def test_certifies_where_a_product_grid_does(self, case):
        contract, baseline, coalition, steps = case
        cert = search_arbitrage(contract, baseline, coalition, GridSearch(steps))
        assert (cert is not None) == product_grid_certifies(
            contract, baseline, coalition, steps
        )

    @given(case=family_grid_cases(prone=False))
    def test_never_certifies_at_a_safe_alpha(self, case):
        contract, baseline, coalition, steps = case
        assert search_arbitrage(
            contract, baseline, coalition, GridSearch(steps)
        ) is None


class ShiftedQuadratic(QuadraticRule):
    """The quadratic score plus 1: the same certificates, other totals."""

    def score(self, report, j):
        return quadratic_score(report, j) + 1


class ShiftedScoring(IndependentScoring):
    """Pays ``ShiftedQuadratic`` whatever its rule is."""

    def evaluate(self, profile, j):
        return tuple(ShiftedQuadratic().score(r, j) for r in profile.reports)


# The CLI's four contracts; zero-sum-pair is the alpha family at alpha = 0
# on two experts, and nr sits in the prone band so that searches have
# certificates to find.
CONTRACTS = {
    "independent-quadratic": QUADRATIC,
    "independent-log": IndependentScoring(rule=LogRule()),
    "zero-sum-pair": ArbitrageFreeContract(alpha=Fraction(0), permissive=True),
    "nr": ArbitrageFreeContract(alpha=Fraction(3), permissive=True),
}
# Searches run on these too: nr at a safe alpha, and subclasses of
# independent quadratic scoring's rule and contract, which the integer
# screen must not take for the exact quadratic rule.
SEARCH_CONTRACTS = {
    **CONTRACTS,
    "nr-safe": ArbitrageFreeContract(alpha=Fraction(-1)),
    "rule-subclass": IndependentScoring(rule=ShiftedQuadratic()),
    "contract-subclass": ShiftedScoring(rule=QuadraticRule()),
}
STRATEGIES = [GridSearch(steps=3), RandomSearch(trials=15, seed=4)]
CHECKS = {
    CertificateKind.DOMINANCE: check_dominance,
    CertificateKind.EXPECTED: check_expected_arbitrage,
}


@st.composite
def search_cases(draw, tag):
    m = 2 if tag == "zero-sum-pair" else draw(st.integers(2, 3))
    profile = draw(profiles(m=m, max_n=3))
    size = draw(st.integers(1, min(2, m)))
    members = draw(st.permutations(range(m)))[:size]
    return profile, Coalition.of(members)


def reference_search(contract, baseline, coalition, strategy, kind):
    """The search as a plain loop: every check scores the baseline afresh."""
    if isinstance(strategy, GridSearch):
        deviations = _grid_deviations(
            contract, baseline, coalition, strategy.steps
        )
    else:
        deviations = _random_deviations(baseline, coalition, strategy)
    for deviation in deviations:
        cert = CHECKS[kind](contract, baseline, deviation, coalition)
        if cert is not None:
            return cert
    return None


class TestCachedBaselineTotals:
    @pytest.mark.parametrize("kind", list(CertificateKind))
    @pytest.mark.parametrize("tag", sorted(SEARCH_CONTRACTS))
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=["grid", "random"])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_search_matches_uncached_reference(self, tag, kind, strategy, data):
        contract = SEARCH_CONTRACTS[tag]
        baseline, coalition = data.draw(search_cases(tag))
        got = search_arbitrage(contract, baseline, coalition, strategy, kind)
        want = reference_search(contract, baseline, coalition, strategy, kind)
        # Certificates compare by deviation, deltas, kind and the rest.
        assert got == want

    @pytest.mark.parametrize("kind", list(CertificateKind))
    @pytest.mark.parametrize(
        "tag", ["independent-quadratic", "independent-log", "nr"]
    )
    def test_intro_search_matches_reference(self, tag, kind):
        # A fine grid, where the first certificate gains very little.
        coalition = Coalition.full(3)
        strategy = GridSearch(steps=10)
        want = reference_search(CONTRACTS[tag], INTRO, coalition, strategy, kind)
        assert want is not None
        got = search_arbitrage(CONTRACTS[tag], INTRO, coalition, strategy, kind)
        assert got == want

    @pytest.mark.parametrize("kind", list(CertificateKind))
    @pytest.mark.parametrize("tag", ["independent-quadratic", "nr"])
    @given(
        pc=profiles_with_coalitions(max_m=3),
        data=st.data(),
    )
    def test_wrong_totals_never_make_a_certificate(self, tag, kind, pc, data):
        contract = CONTRACTS[tag]
        baseline, coalition = pc
        deviation = baseline.replace(
            {i: data.draw(distributions(n=baseline.n)) for i in coalition}
        )
        wrong = data.draw(
            st.lists(
                st.fractions(min_value=-5, max_value=5, max_denominator=20),
                min_size=baseline.n,
                max_size=baseline.n,
            )
        )
        fresh = CHECKS[kind](contract, baseline, deviation, coalition)
        cert = CHECKS[kind](contract, baseline, deviation, coalition, wrong)
        assert cert is None or cert == fresh
        # Totals lowered below the truth pass every deviation the truth
        # passes, so then the cached check must agree exactly.
        true = coalition_totals(contract, baseline, coalition)
        low = [t - abs(w) for t, w in zip(true, wrong)]
        assert CHECKS[kind](contract, baseline, deviation, coalition, low) == fresh

    @pytest.mark.parametrize("kind", list(CertificateKind))
    @pytest.mark.parametrize("tag", sorted(CONTRACTS))
    def test_totals_are_read_once_from_any_iterable(self, tag, kind):
        # A generator was once consumed by the screen's type test, which
        # hid the certificate the same totals in a list give.
        contract = CONTRACTS[tag]
        coalition = Coalition.of([1, 2])
        deviation = mean_collusion(MISUSE, coalition)
        totals = coalition_totals(contract, MISUSE, coalition)
        want = CHECKS[kind](contract, MISUSE, deviation, coalition, list(totals))
        assert want == CHECKS[kind](contract, MISUSE, deviation, coalition)
        if contract is QUADRATIC:
            assert want is not None
        got = CHECKS[kind](
            contract, MISUSE, deviation, coalition, (t for t in totals)
        )
        assert got == want

    @pytest.mark.parametrize("kind", list(CertificateKind))
    @pytest.mark.parametrize("tag", sorted(CONTRACTS))
    @pytest.mark.parametrize("length", [0, 1, 3])
    def test_totals_of_another_length_are_refused(self, tag, kind, length):
        # Too few totals once screened only the outcomes they covered, and
        # none passed every deviation unseen.
        contract = CONTRACTS[tag]
        coalition = Coalition.of([1, 2])
        deviation = mean_collusion(MISUSE, coalition)
        totals = coalition_totals(contract, MISUSE, coalition)
        wrong = (totals + totals)[:length]
        with pytest.raises(ValueError) as raised:
            CHECKS[kind](contract, MISUSE, deviation, coalition, wrong)
        assert str(raised.value) == f"{length} baseline totals for 2 outcomes"

    def test_grid_size_is_checked_before_enumerating(self, monkeypatch):
        monkeypatch.setattr(arbitrage, "MAX_GRID_DEVIATIONS", 20)
        three = ReportProfile.of(
            ("1/3", "1/3", "1/3"), ("1/3", "1/3", "1/3"), ("1/2", "1/2", "0")
        )
        pair = Coalition.of([0, 1])
        # The family lists one lattice at steps 2 * S (n = 3): 15 points
        # at S = 2, 28 at S = 3.
        family = ArbitrageFreeContract(alpha=-1)
        assert search_arbitrage(family, three, pair, GridSearch(steps=2)) is None
        with pytest.raises(ValueError, match="28 deviations"):
            search_arbitrage(family, three, pair, GridSearch(steps=3))
        # Other contracts enumerate one point per member: 6**2 at steps 2.
        with pytest.raises(ValueError, match="36 deviations"):
            search_arbitrage(QUADRATIC, three, pair, GridSearch(steps=2))

    def test_trials_are_checked_before_drawing(self, monkeypatch):
        monkeypatch.setattr(arbitrage, "MAX_GRID_DEVIATIONS", 20)
        pair = Coalition.of([0, 1])
        assert search_arbitrage(QUADRATIC, ALL_HALF, pair, RandomSearch(20, 1)) is None

        def no_draw(*args):
            raise AssertionError("drew a deviation")

        monkeypatch.setattr(arbitrage, "random_deviation", no_draw)
        with pytest.raises(ValueError) as caught:
            search_arbitrage(QUADRATIC, ALL_HALF, pair, RandomSearch(21, 1))
        assert str(caught.value) == (
            "random search with 21 trials would check 21 deviations, more "
            "than the limit of 20; use fewer trials"
        )


def plain_coalition_totals(contract, profile, coalition):
    """Coalition totals from the payment formulas in plain Fractions."""

    def pay(i, j):
        if isinstance(contract, IndependentScoring):
            return plain_quadratic(profile.reports[i].weights, j)
        return plain_reward(profile, i, j, contract.alpha)

    return tuple(sum(pay(i, j) for i in coalition) for j in range(profile.n))


@st.composite
def screen_cases(draw):
    """A contract, a baseline, a coalition and a deviation of its members.

    The contract is independent quadratic scoring, the alpha family at a
    safe alpha, or the alpha family at a prone alpha (permissive).  A
    third of the deviations have every member report the coalition mean,
    which often certifies under the prone and independent contracts.
    """
    baseline, coalition = draw(profiles_with_coalitions(max_m=4, max_n=3))
    m, n = baseline.m, baseline.n
    cutoff = 2 * (m - 1) ** 2 * n
    kind = draw(st.sampled_from(["independent", "safe", "prone"]))
    if kind == "independent":
        contract = QUADRATIC
    elif kind == "safe":
        alpha = draw(
            st.one_of(
                st.fractions(max_value=Fraction(-1, 10**6), max_denominator=10**6),
                st.fractions(min_value=cutoff, max_denominator=10**6),
            )
        )
        contract = ArbitrageFreeContract(alpha=alpha)
    else:
        alpha = draw(
            st.fractions(
                min_value=0,
                max_value=cutoff - Fraction(1, 10**6),
                max_denominator=10**6,
            )
        )
        contract = ArbitrageFreeContract(alpha=alpha, permissive=True)
    if draw(st.integers(0, 2)) == 0:
        deviation = mean_collusion(baseline, coalition)
    else:
        deviation = baseline.replace(
            {i: draw(distributions(n=n)) for i in coalition}
        )
    return contract, baseline, coalition, deviation


def exact_screen(after, before):
    """The dominance screen of an exact contract on the given totals."""
    return arbitrage._passes(
        CertificateKind.DOMINANCE, INTRO, Coalition.of([0, 1]),
        after, before, True,
    )


class TestDominanceScreen:
    """The comparison screen behind check_dominance's cached totals."""

    @settings(max_examples=150)
    @given(screen_cases())
    def test_cached_check_equals_uncached_and_reference(self, case):
        contract, baseline, coalition, deviation = case
        totals = coalition_totals(contract, baseline, coalition)
        assert totals == plain_coalition_totals(contract, baseline, coalition)
        fresh = check_dominance(contract, baseline, deviation, coalition)
        cached = check_dominance(contract, baseline, deviation, coalition, totals)
        assert cached == fresh
        deltas = [
            a - b
            for a, b in zip(
                plain_coalition_totals(contract, deviation, coalition), totals
            )
        ]
        dominates = all(d >= 0 for d in deltas) and any(d > 0 for d in deltas)
        assert (fresh is not None) == dominates
        if fresh is not None:
            assert fresh.deltas == tuple(deltas)

    @settings(max_examples=150)
    @given(screen_cases(), st.data())
    def test_nudged_totals_hide_but_never_make_a_certificate(self, case, data):
        contract, baseline, coalition, deviation = case
        nudges = data.draw(
            st.lists(
                st.sampled_from([-1, 0, 1]),
                min_size=baseline.n,
                max_size=baseline.n,
            )
        )
        totals = coalition_totals(contract, baseline, coalition)
        nudged = [t + Fraction(k, 10**6) for t, k in zip(totals, nudges)]
        fresh = check_dominance(contract, baseline, deviation, coalition)
        cert = check_dominance(contract, baseline, deviation, coalition, nudged)
        assert cert is None or cert == fresh

    @pytest.mark.parametrize("alpha", [-1, 1, 3, 16], ids=str)
    def test_intro_grid_matches_reference(self, alpha):
        # At alpha 1 and 3 (prone for m = 3, n = 2) coalition {1, 2} has
        # about half of these deviations certify; -1 and 16 are safe.
        contract = ArbitrageFreeContract(alpha=alpha, permissive=True)
        hits = 0
        for members in ([0, 1], [0, 2], [1, 2]):
            coalition = Coalition.of(members)
            totals = coalition_totals(contract, INTRO, coalition)
            plain = plain_coalition_totals(contract, INTRO, coalition)
            assert totals == plain
            for deviation in _grid_deviations(contract, INTRO, coalition, 40):
                fresh = check_dominance(contract, INTRO, deviation, coalition)
                assert fresh == check_dominance(
                    contract, INTRO, deviation, coalition, totals
                )
                after = plain_coalition_totals(contract, deviation, coalition)
                deltas = tuple(a - b for a, b in zip(after, plain))
                dominates = all(d >= 0 for d in deltas) and any(
                    d > 0 for d in deltas
                )
                assert (fresh is not None) == dominates
                if fresh is None:
                    continue
                hits += 1
                assert fresh.deltas == deltas
                for nudge in (Fraction(1, 10**6), Fraction(-1, 10**6)):
                    nudged = [t + nudge for t in totals]
                    cert = check_dominance(
                        contract, INTRO, deviation, coalition, nudged
                    )
                    assert cert is None or cert == fresh
        assert (hits > 0) == (alpha in (1, 3))

    def test_freeness_suite_screens_with_the_baselines_own_totals(
        self, monkeypatch
    ):
        # At a prone alpha some deviations certify; every check must get
        # the totals of its own baseline and coalition.
        from elicit import suites

        verdicts = []

        def checked(contract, baseline, deviation, coalition, before):
            assert before == coalition_totals(contract, baseline, coalition)
            cert = check_dominance(
                contract, baseline, deviation, coalition, before
            )
            verdicts.append(cert is not None)
            return cert

        monkeypatch.setattr(suites, "check_dominance", checked)
        config = suites.VerifyConfig(
            m_max=4, n_max=3, alphas=(Fraction(1),), trials=60,
            baselines=3, permissive=True,
        )
        (result,) = suites.run_suites(["freeness"], config)
        assert len(verdicts) == result.checks == 6 * 60
        assert any(verdicts)

    def test_tie_everywhere_is_not_dominance(self):
        # An unchanged deviation ties on every outcome: weakly but not
        # strictly better, so the screen must reject it.
        contract = ArbitrageFreeContract(alpha=-1)
        coalition = Coalition.of([0, 1])
        totals = coalition_totals(contract, INTRO, coalition)
        same = unchanged_copy(INTRO)
        assert check_dominance(contract, INTRO, same, coalition, totals) is None

    def test_tie_on_some_outcomes_is_still_dominance(self):
        # Paid only on outcome 1, by their weight on it: raising that
        # weight gains on outcome 1 and ties on outcome 2.
        class FirstOutcomeWeight(ContractFunction):
            def evaluate(self, profile, j):
                return tuple(
                    r.weights[0] if j == 0 else Fraction(0)
                    for r in profile.reports
                )

        contract = FirstOutcomeWeight()
        coalition = Coalition.of([0, 1])
        deviation = INTRO.replace({0: Distribution.of("1", "0")})
        totals = coalition_totals(contract, INTRO, coalition)
        cert = check_dominance(contract, INTRO, deviation, coalition, totals)
        assert cert is not None
        assert cert.deltas == (Fraction(3, 5), 0)
        assert cert == check_dominance(contract, INTRO, deviation, coalition)

    def test_screen_finds_the_intro_certificate(self):
        # Averaging certifies against independent quadratic scoring.
        coalition = Coalition.of([0, 2])
        deviation = mean_collusion(INTRO, coalition)
        totals = coalition_totals(QUADRATIC, INTRO, coalition)
        cert = check_dominance(QUADRATIC, INTRO, deviation, coalition, totals)
        assert cert is not None
        assert cert == check_dominance(QUADRATIC, INTRO, deviation, coalition)

    @settings(max_examples=300)
    @given(st.data())
    def test_integer_screen_equals_fraction_comparison(self, data):
        # Ties, a single strict gain and float totals are all drawn: each
        # outcome's total is the other side's, nudged up or down, or new.
        n = data.draw(st.integers(1, 5))
        exact = st.one_of(
            st.integers(-50, 50),
            st.fractions(max_denominator=10**6),
        )
        total = st.one_of(
            exact, exact, st.floats(allow_nan=True, allow_infinity=True)
        )
        before = data.draw(st.lists(total, min_size=n, max_size=n))
        after = []
        for b in before:
            move = data.draw(st.sampled_from(["tie", "up", "down", "new"]))
            if move == "new" or (move != "tie" and not math.isfinite(b)):
                after.append(data.draw(total))
            elif move == "tie":
                same = [b, Fraction(b)] if math.isfinite(b) else [b]
                after.append(data.draw(st.sampled_from(same)))
            else:
                step = data.draw(st.fractions(min_value=0, max_value=1))
                after.append(b + step if move == "up" else b - step)
        want = all(a >= b for a, b in zip(after, before)) and any(
            a > b for a, b in zip(after, before)
        )
        assert exact_screen(after, before) is want

    def test_integer_screen_cases(self):
        half = Fraction(1, 2)
        assert not exact_screen((half, 1), (half, 1))
        assert exact_screen((half, Fraction(10**30 + 1, 10**30)), (half, 1))
        assert not exact_screen((half, Fraction(10**30 - 1, 10**30)), (Fraction(0), 1))
        assert exact_screen((1, 2), (half, 2.0))
        assert not exact_screen((1, 2), (half, math.nan))
        assert exact_screen((1, -math.inf), (half, -math.inf))
        assert exact_screen((1, Fraction(3, 2)), (-math.inf, 1.5))

    @pytest.mark.parametrize(
        "profile",
        [INTRO, ReportProfile.of(("9/10", "1/10"), ("1", "0"), ("1/2", "1/2"))],
        ids=["intro", "negative-totals"],
    )
    def test_screen_accepts_float_totals(self, profile):
        # Averaging gains the same positive amount on every outcome, far
        # more than rounding the totals to floats can hide.  With negative
        # totals, float totals read as integer numerators over L**2 would
        # reject the certificate.
        coalition = Coalition.of([0, 1] if profile is not INTRO else [0, 2])
        deviation = mean_collusion(profile, coalition)
        totals = coalition_totals(QUADRATIC, profile, coalition)
        floats = [float(t) for t in totals]
        cert = check_dominance(QUADRATIC, profile, deviation, coalition, floats)
        assert cert is not None
        assert cert == check_dominance(QUADRATIC, profile, deviation, coalition)
        same = unchanged_copy(profile)
        assert check_dominance(QUADRATIC, profile, same, coalition, floats) is None


@st.composite
def scaled_reports(draw, n):
    """A report on n outcomes: a lattice point, a draw at denominator 10**4,
    or a report whose weights each have their own denominator."""
    kind = draw(st.sampled_from(["lattice", "draw", "mixed"]))
    if kind == "lattice":
        return draw(st.sampled_from(list(simplex_lattice(n, draw(st.integers(2, 6))))))
    if kind == "draw":
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        return random_distribution(rng, n, 10**4)
    return draw(mixed_denominator_reports(n=n))


@st.composite
def members_cases(draw):
    """A profile of ``scaled_reports`` and a one-member, two-member or grand
    coalition."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    profile = ReportProfile(tuple(draw(scaled_reports(n)) for _ in range(m)))
    size = draw(st.sampled_from([1, 2, m]))
    members = draw(st.permutations(range(m)))[:size]
    return profile, Coalition.of(members)


def screen(deviation, coalition, before):
    """The verdict of the integer screen of independent quadratic scoring,
    given the integer ratios of the Fraction or int totals ``before``."""
    ratios = [b.as_integer_ratio() for b in before]
    return arbitrage._independent_dominates(deviation, coalition, ratios)


def plain_dominates(after, before):
    return all(a >= b for a, b in zip(after, before)) and any(
        a > b for a, b in zip(after, before)
    )


class TestMembersScreen:
    """The integer screen of independent quadratic scoring, compared with
    the plain Fraction path directly: a screen that passed too much would
    never show in an output, since the plain path re-checks every pass."""

    @settings(max_examples=200)
    @given(members_cases(), st.integers(1, 3))
    def test_numerators_equal_plain_totals(self, case, multiple):
        # The members' numerators summed over the running denominator are
        # the plain totals exactly: against the totals themselves the
        # screen finds no gain, and with any one outcome's total lowered
        # by 1/100 it finds one, so every sum is at least its total and
        # none is above it.  The ratios are handed in unreduced too.
        profile, coalition = case
        totals = plain_coalition_totals(QUADRATIC, profile, coalition)

        def verdict(before):
            ratios = [
                (p * multiple, q * multiple)
                for p, q in (b.as_integer_ratio() for b in before)
            ]
            return arbitrage._independent_dominates(profile, coalition, ratios)

        assert verdict(totals) is False
        for j in range(profile.n):
            lowered = list(totals)
            lowered[j] -= Fraction(1, 100)
            assert verdict(lowered) is True

    def test_partners_of_every_scale(self):
        # One lattice point of scale 2 paired with partners of scales 1,
        # 2, 3, 4, 6, 3 and 4, as the first member and as the second, so
        # the running denominator meets an equal square, one that divides
        # it and ones that need their lcm; each takes the one gcd step.
        # Every verdict matches the plain totals on both sides of a tie.
        point = Distribution.of("1/2", "1/2", "0")
        partners = [
            Distribution.of(*w)
            for w in [
                ("1", "0", "0"), ("0", "1/2", "1/2"), ("1/3", "1/3", "1/3"),
                ("1/4", "1/2", "1/4"), ("1/6", "1/3", "1/2"),
                ("1/3", "2/3", "0"), ("0", "1/4", "3/4"),
            ]
        ]
        baseline = ReportProfile.of(
            ("1/5", "2/5", "2/5"), ("1/2", "1/4", "1/4"), ("1/7", "3/7", "3/7")
        )
        coalition = Coalition.of([0, 1])
        totals = coalition_totals(QUADRATIC, baseline, coalition)
        verdicts = []
        scales = set()
        for partner, nudge, first in product(partners, (-1, 0, 1), (0, 1)):
            deviation = baseline.replace({first: point, 1 - first: partner})
            d0, d1 = [deviation.reports[i].scaled[0] for i in (0, 1)]
            scales.add(
                "equal" if d0 == d1 else "divides" if d0 % d1 == 0 else "lcm"
            )
            after = plain_coalition_totals(QUADRATIC, deviation, coalition)
            nudged = tuple(a + Fraction(nudge, 100) for a in after)
            for before in (totals, nudged):
                want = plain_dominates(after, before)
                with mock.patch.object(arbitrage, "gcd", wraps=math.gcd) as spy:
                    assert screen(deviation, coalition, before) is want
                assert spy.call_count == 1
                verdicts.append(want)
        assert scales == {"equal", "divides", "lcm"}
        assert True in verdicts and False in verdicts

    @settings(max_examples=300)
    @given(members_cases(), st.data())
    def test_screen_equals_dominates_on_plain_totals(self, case, data):
        # Each baseline total is the deviation's own, nudged up or down or
        # left as it is, so ties on every outcome and on some are drawn.
        baseline, coalition = case
        deviation = baseline.replace(
            {i: data.draw(scaled_reports(baseline.n)) for i in coalition}
        )
        after = coalition_totals(QUADRATIC, deviation, coalition)
        before = []
        for a in after:
            step = data.draw(st.fractions(min_value=0, max_value=1))
            moves = {"tie": a, "up": a + step, "down": a - step}
            moves["int"] = data.draw(st.integers(-3, 3))
            before.append(moves[data.draw(st.sampled_from(sorted(moves)))])
        want = plain_dominates(
            plain_coalition_totals(QUADRATIC, deviation, coalition), before
        )
        assert want is arbitrage._dominates(after, before)
        assert screen(deviation, coalition, before) is want

    @pytest.mark.parametrize("ties", [0, 1, 2])
    def test_screen_ties(self, ties):
        # INTRO has two outcomes: a gain on one and a tie on the other
        # passes, a tie on both does not.
        coalition = Coalition.of([0, 2])
        deviation = mean_collusion(INTRO, coalition)
        after = coalition_totals(QUADRATIC, deviation, coalition)
        before = after[:ties] + tuple(a - 1 for a in after[ties:])
        assert screen(deviation, coalition, before) is (ties < 2)

    @settings(max_examples=200)
    @given(members_cases())
    def test_mean_collusion_passes_unless_members_agree(self, case):
        baseline, coalition = case
        if coalition.size < 2:
            coalition = Coalition.full(baseline.m)
        deviation = mean_collusion(baseline, coalition)
        totals = coalition_totals(QUADRATIC, baseline, coalition)
        agree = len({baseline.reports[i] for i in coalition}) == 1
        assert screen(deviation, coalition, totals) is not agree
        cert = check_dominance(QUADRATIC, baseline, deviation, coalition, totals)
        assert (cert is None) is agree

    @pytest.mark.parametrize("kind", list(CertificateKind))
    @pytest.mark.parametrize(
        "contract",
        [
            IndependentScoring(rule=ShiftedQuadratic()),
            ShiftedScoring(rule=QuadraticRule()),
        ],
        ids=["rule-subclass", "contract-subclass"],
    )
    def test_subclasses_take_the_plain_path(self, contract, kind):
        # The baseline's shifted totals are 3 above its quadratic ones, so
        # the quadratic screen would reject every deviation.
        coalition = Coalition.full(3)
        strategy = GridSearch(steps=4)
        want = reference_search(contract, INTRO, coalition, strategy, kind)
        assert want is not None
        assert search_arbitrage(contract, INTRO, coalition, strategy, kind) == want

    @settings(max_examples=100)
    @given(members_cases(), st.data())
    def test_float_totals_take_the_plain_path(self, case, data):
        baseline, coalition = case
        if data.draw(st.booleans()):
            deviation = mean_collusion(baseline, Coalition.full(baseline.m))
            coalition = Coalition.full(baseline.m)
        else:
            deviation = baseline.replace(
                {i: data.draw(scaled_reports(baseline.n)) for i in coalition}
            )
        fresh = check_dominance(QUADRATIC, baseline, deviation, coalition)
        totals = coalition_totals(QUADRATIC, baseline, coalition)
        # Floats just below the totals, -inf totals, and one -inf among
        # Fractions pass every deviation the true totals pass on to the
        # plain check; NaN totals pass none.
        below = [math.nextafter(float(t), -math.inf) for t in totals]
        low = [-math.inf] * baseline.n
        one_low = totals[:-1] + (-math.inf,)
        for cached in (below, low, one_low):
            got = check_dominance(QUADRATIC, baseline, deviation, coalition, cached)
            assert got == fresh
        nan = [math.nan] * baseline.n
        assert check_dominance(QUADRATIC, baseline, deviation, coalition, nan) is None


@contextlib.contextmanager
def counting_decisions():
    """Count the calls of ``arbitrage._baseline_totals`` while open."""
    with mock.patch.object(
        arbitrage, "_baseline_totals", wraps=arbitrage._baseline_totals
    ) as spy:
        yield spy


class TestDecidedTotals:
    """A search decides its baseline totals once; its certificate is the
    one a plain loop of checks without totals finds (see also
    ``TestCachedBaselineTotals``)."""

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=["grid", "random"])
    def test_a_screened_search_decides_once(self, strategy):
        # No certificate: every deviation of the search is checked.
        coalition = Coalition.of([0, 1])
        baseline = INTRO.replace({1: INTRO.reports[0]})
        with counting_decisions() as spy:
            cert = search_arbitrage(QUADRATIC, baseline, coalition, strategy)
        assert cert is None
        assert spy.call_count == 1

    @pytest.mark.parametrize("kind", list(CertificateKind))
    @pytest.mark.parametrize("tag", sorted(SEARCH_CONTRACTS))
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=["grid", "random"])
    def test_fixed_profiles_match_plain_loop(self, tag, kind, strategy):
        # The intro profile, or its first two experts for zero-sum-pair.
        contract = SEARCH_CONTRACTS[tag]
        baseline = INTRO
        if tag == "zero-sum-pair":
            baseline = ReportProfile(INTRO.reports[:2])
        coalition = Coalition.full(baseline.m)
        got = search_arbitrage(contract, baseline, coalition, strategy, kind)
        want = reference_search(contract, baseline, coalition, strategy, kind)
        assert got == want

    def test_a_direct_call_decides_per_call(self):
        coalition = Coalition.full(3)
        deviation = mean_collusion(INTRO, coalition)
        totals = list(coalition_totals(QUADRATIC, INTRO, coalition))
        with counting_decisions() as spy:
            for _ in range(2):
                check_dominance(QUADRATIC, INTRO, deviation, coalition, totals)
        assert spy.call_count == 2
        decided = arbitrage._baseline_totals(
            QUADRATIC, INTRO, totals, CertificateKind.DOMINANCE
        )
        assert decided.ratios == [t.as_integer_ratio() for t in totals]
        with counting_decisions() as spy:
            cert = check_dominance(QUADRATIC, INTRO, deviation, coalition, decided)
            assert cert == check_dominance(QUADRATIC, INTRO, deviation, coalition)
            assert cert is not None
            assert spy.call_count == 0

    def test_totals_decided_for_dominance_take_the_plain_path_when_expected(
        self,
    ):
        # An expected arbitrage that is no dominance: the dominance screen
        # rejects it, so an expected check of the decided totals certifies
        # only if it takes the plain path.
        coalition = Coalition.full(3)
        deviation = INTRO.replace(
            {1: Distribution.of("7/10", "3/10"), 2: Distribution.of("4/5", "1/5")}
        )
        assert check_dominance(QUADRATIC, INTRO, deviation, coalition) is None
        want = check_expected_arbitrage(QUADRATIC, INTRO, deviation, coalition)
        assert want is not None
        decided = arbitrage._baseline_totals(
            QUADRATIC,
            INTRO,
            coalition_totals(QUADRATIC, INTRO, coalition),
            CertificateKind.DOMINANCE,
        )
        assert not arbitrage._independent_dominates(
            deviation, coalition, decided.ratios
        )
        with counting_decisions() as spy:
            got = check_expected_arbitrage(
                QUADRATIC, INTRO, deviation, coalition, decided
            )
        assert spy.call_count == 0
        assert got == want

    @pytest.mark.parametrize(
        "contract",
        [SEARCH_CONTRACTS["rule-subclass"], SEARCH_CONTRACTS["contract-subclass"]],
        ids=["rule-subclass", "contract-subclass"],
    )
    def test_totals_decided_for_another_contract_take_the_plain_path(
        self, contract
    ):
        # The subclass's own totals, decided for exact quadratic scoring,
        # carry ratios 3 above every quadratic total of the coalition: the
        # quadratic screen would reject the mean collusion.  Passed with
        # the subclass, they take the plain path.
        coalition = Coalition.full(3)
        deviation = mean_collusion(INTRO, coalition)
        shifted = coalition_totals(contract, INTRO, coalition)
        decided = arbitrage._baseline_totals(
            QUADRATIC, INTRO, shifted, CertificateKind.DOMINANCE
        )
        assert decided.ratios is not None
        want = check_dominance(contract, INTRO, deviation, coalition)
        assert want is not None
        with counting_decisions() as spy:
            got = check_dominance(contract, INTRO, deviation, coalition, decided)
        assert spy.call_count == 0
        assert got == want
        assert not arbitrage._independent_dominates(
            deviation, coalition, decided.ratios
        )

    def test_totals_decided_for_an_equal_contract_take_the_plain_path(self):
        # Decided for one quadratic contract object and passed with an
        # equal but distinct one: the check trusts only the object the
        # totals were decided for, so it never screens.
        coalition = Coalition.full(3)
        deviation = mean_collusion(INTRO, coalition)
        decided = arbitrage._baseline_totals(
            QUADRATIC,
            INTRO,
            coalition_totals(QUADRATIC, INTRO, coalition),
            CertificateKind.DOMINANCE,
        )
        other = IndependentScoring(rule=QuadraticRule())
        assert other == QUADRATIC and other is not QUADRATIC
        want = check_dominance(other, INTRO, deviation, coalition)
        assert want is not None
        with mock.patch.object(
            arbitrage,
            "_independent_dominates",
            wraps=arbitrage._independent_dominates,
        ) as spy:
            got = check_dominance(other, INTRO, deviation, coalition, decided)
        assert spy.call_count == 0
        assert got == want


def plain_products(profile, coalition):
    """Per outcome, the members' weights multiplied one by one."""
    products = []
    for j in range(profile.n):
        value = Fraction(1)
        for i in coalition:
            value *= profile.reports[i].weights[j]
        products.append(value)
    return products


# Two members at (9/10, 1/10) move to a report whose log totals differ
# from the baseline's by -8.9e-10 and 8e-9: inside NUMERIC_TOLERANCE of a
# loss on outcome 1, where the exact product is lower.
NEAR_TIE = ReportProfile.of(("9/10", "1/10"), ("9/10", "1/10"), ("1/2", "1/2"))
NEAR_TIE_MOVE = Distribution.of("2249999999/2500000000", "250000001/2500000000")


class TestLogDominance:
    """Under exactly independent log scoring a dominance certificate needs
    the members' exact weight products to dominate the baseline's."""

    def test_a_float_loss_within_tolerance_does_not_certify(self):
        coalition = Coalition.of([0, 1])
        deviation = uniform_deviation(NEAR_TIE, coalition, NEAR_TIE_MOVE)
        after = coalition_totals(LOG, deviation, coalition)
        before = coalition_totals(LOG, NEAR_TIE, coalition)
        # The float deltas alone pass at NUMERIC_TOLERANCE ...
        deltas = arbitrage._deltas(after, before)
        assert -arbitrage.NUMERIC_TOLERANCE < deltas[0] < 0 < deltas[1]
        # ... but the exact product falls on outcome 1.
        assert plain_products(deviation, coalition)[0] < plain_products(
            NEAR_TIE, coalition
        )[0]
        for cached in (None, before):
            assert (
                check_dominance(LOG, NEAR_TIE, deviation, coalition, cached)
                is None
            )

    def test_swapped_reports_tie(self):
        baseline = ReportProfile.of(("1/3", "2/3"), ("2/3", "1/3"))
        coalition = Coalition.full(2)
        deviation = baseline.replace(
            {0: baseline.reports[1], 1: baseline.reports[0]}
        )
        assert plain_products(deviation, coalition) == plain_products(
            baseline, coalition
        )
        assert check_dominance(LOG, baseline, deviation, coalition) is None

    def test_mean_collusion_of_differing_reports_certifies(self):
        coalition = Coalition.full(3)
        deviation = mean_collusion(INTRO, coalition)
        cert = check_dominance(LOG, INTRO, deviation, coalition)
        assert cert is not None and not cert.exact
        assert all(d > 0 for d in cert.deltas)

    @given(data=st.data())
    @settings(max_examples=200)
    def test_every_certificate_has_dominating_products(self, data):
        baseline, coalition = data.draw(profiles_with_coalitions())
        if data.draw(st.booleans()):
            deviation = mean_collusion(baseline, coalition)
        else:
            deviation = baseline.replace(
                {i: data.draw(distributions(n=baseline.n)) for i in coalition}
            )
        cert = check_dominance(LOG, baseline, deviation, coalition)
        if cert is not None:
            assert plain_dominates(
                plain_products(deviation, coalition),
                plain_products(baseline, coalition),
            )
