"""Arbitrage certificates, searches, and the uniform-report interval."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

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
    ZeroSumPair,
    check_dominance,
    check_expected_arbitrage,
    coalition_totals,
    mean_collusion,
    search_arbitrage,
    simplex_lattice,
    uniform_report_arbitrage_interval,
)
from elicit import arbitrage
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
    plain_quadratic,
    plain_reward,
    profiles,
    profiles_with_coalitions,
)

INTRO = ReportProfile.of(("2/5", "3/5"), ("1/2", "1/2"), ("9/10", "1/10"))
ALL_HALF = ReportProfile.of(("1/2", "1/2"), ("1/2", "1/2"), ("1/2", "1/2"))
QUADRATIC = IndependentScoring(rule=QuadraticRule())
LOG = IndependentScoring(rule=LogRule())


def uniform_deviation(profile, coalition, report):
    return profile.replace({i: report for i in coalition})


def unchanged_copy(profile):
    return profile.replace({})


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
            any(profile.reports[i][j] > 0 for j in strict) for i in coalition
        ):
            assert (
                check_expected_arbitrage(QUADRATIC, profile, deviation, coalition)
                is not None
            )

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
                    any(baseline.reports[i][j] > 0 for j in strict)
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
            assert sum(rebuilt.reports[i][j] for i in coalition) == target[j]
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
            for w in cert.deviation.reports[i]:
                assert lo <= w <= hi

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            GridSearch(steps=1)
        with pytest.raises(ValueError):
            RandomSearch(trials=0, seed=1)

    def test_random_search_rejects_empty_denominator(self):
        with pytest.raises(ValueError, match="denominator"):
            RandomSearch(trials=5, seed=1, denominator=0)

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


# The CLI's four contracts; the alpha-family one sits in the prone band
# so that searches have certificates to find.
CONTRACTS = {
    "independent-quadratic": QUADRATIC,
    "independent-log": IndependentScoring(rule=LogRule()),
    "zero-sum-pair": ZeroSumPair(),
    "nr": ArbitrageFreeContract(alpha=Fraction(3), permissive=True),
}
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
    @pytest.mark.parametrize("tag", sorted(CONTRACTS))
    @pytest.mark.parametrize(
        "strategy",
        [GridSearch(steps=3), RandomSearch(trials=15, seed=4, denominator=6)],
        ids=["grid", "random"],
    )
    @settings(max_examples=15)
    @given(data=st.data())
    def test_search_matches_uncached_reference(self, tag, kind, strategy, data):
        contract = CONTRACTS[tag]
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

    def test_grid_size_is_checked_before_enumerating(self, monkeypatch):
        monkeypatch.setattr(arbitrage, "MAX_GRID_DEVIATIONS", 20)
        three = ReportProfile.of(
            ("1/3", "1/3", "1/3"), ("1/3", "1/3", "1/3"), ("1/2", "1/2", "0")
        )
        pair = Coalition.of([0, 1])
        # 15 lattice points at steps 4, 21 at steps 5 (n = 3).
        family = ArbitrageFreeContract(alpha=-1)
        assert search_arbitrage(family, three, pair, GridSearch(steps=4)) is None
        with pytest.raises(ValueError, match="21 deviations"):
            search_arbitrage(family, three, pair, GridSearch(steps=5))
        # Other contracts enumerate one point per member: 6**2 at steps 2.
        with pytest.raises(ValueError, match="36 deviations"):
            search_arbitrage(QUADRATIC, three, pair, GridSearch(steps=2))


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

    def test_screen_accepts_float_totals(self):
        # Averaging gains the same positive amount on every outcome, far
        # more than rounding the totals to floats can hide.
        coalition = Coalition.of([0, 2])
        deviation = mean_collusion(INTRO, coalition)
        totals = coalition_totals(QUADRATIC, INTRO, coalition)
        floats = [float(t) for t in totals]
        cert = check_dominance(QUADRATIC, INTRO, deviation, coalition, floats)
        assert cert == check_dominance(QUADRATIC, INTRO, deviation, coalition)
        same = unchanged_copy(INTRO)
        assert check_dominance(QUADRATIC, INTRO, same, coalition, floats) is None
