"""Contract functions: alpha classification, payments, induced expert rules."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from elicit import (
    AlphaRangeError,
    AlphaVerdict,
    ArbitrageFreeContract,
    Distribution,
    IndependentScoring,
    LogRule,
    QuadraticRule,
    ReportProfile,
    coalition_total,
    coalition_totals,
    expected_reward,
    expected_score,
    leave_one_out_mean,
    properness_probe,
    quadratic_score,
    threshold_general,
    threshold_two_outcome,
    validate_alpha,
)
from elicit.contracts import (
    ContractFunction,
    InducedExpertRule,
    _member_sums,
    _threshold_terms,
)
from elicit.simplex import Coalition

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
)

ALL_HALF = ReportProfile.of(("1/2", "1/2"), ("1/2", "1/2"), ("1/2", "1/2"))

alphas = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=8
)

# Alphas with large denominators, over both safe bands and the prone band
# of every shape up to m = 6, n = 5 (whose cutoff is 250).
fine_alphas = st.fractions(
    min_value=Fraction(-300), max_value=Fraction(300), max_denominator=10**6
)


def reference_reward(profile: ReportProfile, i: int, j: int, alpha: Fraction):
    """Independent restatement of the family's payment formula."""
    loo = leave_one_out_mean(profile, i)
    return (
        quadratic_score(profile.reports[i], j)
        - (profile.m - 1) ** 2 * quadratic_score(loo, j)
        + alpha * loo.weights[j]
    )


class TestThresholds:
    def test_known_values(self):
        assert threshold_two_outcome(3, Fraction(16)) == 0
        assert threshold_general(3, Fraction(16)) == -2
        assert threshold_two_outcome(2, Fraction(-4)) == 2
        assert threshold_general(2, Fraction(-4)) == 3

    @given(st.integers(2, 8), alphas)
    def test_formulas(self, m, alpha):
        assert threshold_two_outcome(m, alpha) == m - 1 - alpha / (4 * (m - 1))
        assert threshold_general(m, alpha) == m - 1 - alpha / (2 * (m - 1))
        for factor in (2, 4):
            dn, dd = _threshold_terms(m, alpha, factor)
            assert dd == factor * (m - 1) * alpha.denominator
            assert Fraction(dn, dd) == m - 1 - alpha / (factor * (m - 1))

    @given(st.integers(2, 8), alphas)
    def test_regime_equivalences(self, m, alpha):
        # alpha < 0 iff the general threshold exceeds m - 1;
        # alpha >= 4 (m-1)^2 iff the two-outcome threshold is <= 0.
        assert (alpha < 0) == (threshold_general(m, alpha) > m - 1)
        assert (alpha >= 4 * (m - 1) ** 2) == (threshold_two_outcome(m, alpha) <= 0)


class TestValidateAlpha:
    @pytest.mark.parametrize(
        "alpha,verdict",
        [
            (Fraction(-1), AlphaVerdict.VALID_NEGATIVE),
            (Fraction(-1, 1000), AlphaVerdict.VALID_NEGATIVE),
            (Fraction(0), AlphaVerdict.INVALID),
            (Fraction(15), AlphaVerdict.INVALID),
            (Fraction(16), AlphaVerdict.VALID_LARGE),
            (Fraction(1000), AlphaVerdict.VALID_LARGE),
        ],
    )
    def test_verdicts_for_m3_n2(self, alpha, verdict):
        assert validate_alpha(alpha, 3, 2) is verdict
        assert verdict.valid == (verdict is not AlphaVerdict.INVALID)

    @given(st.integers(2, 6), st.integers(2, 5))
    def test_cutoff_is_inclusive(self, m, n):
        cutoff = 2 * (m - 1) ** 2 * n
        assert validate_alpha(cutoff, m, n) is AlphaVerdict.VALID_LARGE
        assert validate_alpha(str(cutoff), m, n) is AlphaVerdict.VALID_LARGE
        assert validate_alpha(cutoff - Fraction(1, 10), m, n) is (
            AlphaVerdict.INVALID
        )

    def test_rejects_floats_and_bad_shapes(self):
        with pytest.raises(TypeError, match="float"):
            validate_alpha(0.5, 3, 2)
        for threshold in (threshold_general, threshold_two_outcome):
            with pytest.raises(TypeError, match="float"):
                threshold(3, 0.1)
            with pytest.raises(TypeError, match="float"):
                threshold(1, 0.1)
        with pytest.raises(ValueError):
            validate_alpha(1, 1, 2)
        with pytest.raises(ValueError):
            validate_alpha(1, 2, 1)


class TestIndependentScoring:
    @given(profiles())
    def test_pays_each_expert_their_own_score(self, profile):
        contract = IndependentScoring(rule=QuadraticRule())
        for j in range(profile.n):
            pay = contract.evaluate(profile, j)
            assert pay == tuple(
                quadratic_score(r, j) for r in profile.reports
            )

    def test_exactness_tracks_rule(self):
        assert IndependentScoring(rule=QuadraticRule()).exact
        assert not IndependentScoring(rule=LogRule()).exact


# The CLI's zero-sum-pair contract: the alpha family at alpha = 0, m = 2.
ZERO_SUM_PAIR = ArbitrageFreeContract(alpha=Fraction(0), permissive=True)


def zero_sum_reference(profile, i, j):
    """Own quadratic score minus the other's, the pair's plain formula."""
    return quadratic_score(profile.reports[i], j) - quadratic_score(
        profile.reports[1 - i], j
    )


class TestZeroSumPair:
    """The alpha family at alpha = 0 pays a pair own minus other's score."""

    @given(st.one_of(profiles(m=2, max_n=5), fine_profiles(m=2, max_n=5)))
    def test_evaluate_matches_plain_formula(self, profile):
        for j in range(profile.n):
            payments = ZERO_SUM_PAIR.evaluate(profile, j)
            assert payments == tuple(
                zero_sum_reference(profile, i, j) for i in range(2)
            )
            assert payments[0] == -payments[1]

    @given(data=st.data())
    def test_expert_view_matches_plain_formula(self, data):
        profile = data.draw(profiles(m=2, max_n=5))
        report = data.draw(distributions(n=profile.n))
        for i in range(2):
            # The rule expert i faces scores any own report like the pair.
            view = ZERO_SUM_PAIR.expert_view(profile, i)
            moved = profile.replace({i: report})
            for j in range(profile.n):
                assert view.score(report, j) == zero_sum_reference(
                    moved, i, j
                )

    @given(profiles(m=2, max_n=5))
    def test_coalition_totals_match_plain_formula(self, profile):
        for members in ([0], [1], [0, 1]):
            assert coalition_totals(
                ZERO_SUM_PAIR, profile, Coalition.of(members)
            ) == tuple(
                sum(zero_sum_reference(profile, i, j) for i in members)
                for j in range(profile.n)
            )
        # The pair's total is identically zero.
        assert coalition_totals(
            ZERO_SUM_PAIR, profile, Coalition.full(2)
        ) == (0,) * profile.n


class TestArbitrageFreeContract:
    def test_alpha_coerced_exactly(self):
        assert ArbitrageFreeContract(alpha=16).alpha == Fraction(16)
        assert ArbitrageFreeContract(alpha="5/3").alpha == Fraction(5, 3)
        with pytest.raises(TypeError, match="float"):
            ArbitrageFreeContract(alpha=0.5)

    def test_canonical_all_half_rewards(self):
        contract = ArbitrageFreeContract(alpha=16)
        for j in range(2):
            assert contract.evaluate(ALL_HALF, j) == (Fraction(13, 2),) * 3

    @given(profiles(max_m=6, max_n=5), fine_alphas)
    def test_matches_reference_formula(self, profile, alpha):
        contract = ArbitrageFreeContract(alpha=alpha, permissive=True)
        for j in range(profile.n):
            pay = contract.evaluate(profile, j)
            for i in range(profile.m):
                assert pay[i] == reference_reward(profile, i, j, alpha)

    def test_invalid_alpha_blocked_without_permissive(self):
        contract = ArbitrageFreeContract(alpha=3)
        with pytest.raises(AlphaRangeError, match="arbitrage-prone band"):
            contract.evaluate(ALL_HALF, 0)
        assert not validate_alpha(contract.alpha, 3, 2).valid
        permissive = ArbitrageFreeContract(alpha=3, permissive=True)
        permissive.evaluate(ALL_HALF, 0)

    def test_needs_two_experts(self):
        contract = ArbitrageFreeContract(alpha=-1)
        with pytest.raises(ValueError):
            contract.evaluate(ReportProfile.of(("1/2", "1/2")), 0)

    @given(profiles(max_m=3, max_n=3), alphas, st.data())
    def test_expert_view_tracks_own_report(self, profile, alpha, data):
        # The induced single-expert rule must reproduce the full payment
        # for any own-report swap with the opponents held fixed.
        contract = ArbitrageFreeContract(alpha=alpha, permissive=True)
        i = data.draw(st.integers(0, profile.m - 1))
        view = contract.expert_view(profile, i)
        replacement = data.draw(distributions(n=profile.n))
        swapped = profile.replace({i: replacement})
        for j in range(profile.n):
            assert view.score(replacement, j) == contract.evaluate(swapped, j)[i]

    def test_induced_rule_is_strictly_proper(self):
        contract = ArbitrageFreeContract(alpha=16)
        view = contract.expert_view(ALL_HALF, 0)
        belief = Distribution.of("2/5", "3/5")
        probe = properness_probe(view, belief, steps=5)
        assert probe.unique and probe.argmax == belief


class TestIntegerKernel:
    """The integer kernel against the plain-Fraction reference formula."""

    @given(profiles(max_m=6, max_n=5), st.data())
    def test_coalition_totals_match_reference(self, profile, data):
        cutoff = 2 * (profile.m - 1) ** 2 * profile.n
        prone = st.fractions(
            min_value=0,
            max_value=cutoff - Fraction(1, 10**6),
            max_denominator=10**6,
        )
        alpha = data.draw(st.one_of(fine_alphas, prone))
        members = data.draw(
            st.lists(
                st.integers(0, profile.m - 1), min_size=1, unique=True
            )
        )
        contract = ArbitrageFreeContract(alpha=alpha, permissive=True)
        coalition = Coalition.of(members)
        assert coalition_totals(contract, profile, coalition) == tuple(
            sum(reference_reward(profile, i, j, alpha) for i in coalition)
            for j in range(profile.n)
        )

    @given(profiles(max_m=6, max_n=5), fine_alphas)
    def test_gate_agrees_with_validate_alpha(self, profile, alpha):
        cutoff = 2 * (profile.m - 1) ** 2 * profile.n
        coalition = Coalition.full(profile.m)
        for a in (alpha, Fraction(cutoff), cutoff - Fraction(1, 10**6)):
            contract = ArbitrageFreeContract(alpha=a)
            if validate_alpha(a, profile.m, profile.n).valid:
                contract.evaluate(profile, 0)
                coalition_totals(contract, profile, coalition)
                contract.expert_view(profile, 0)
                continue
            with pytest.raises(AlphaRangeError, match="arbitrage-prone"):
                contract.evaluate(profile, 0)
            with pytest.raises(AlphaRangeError, match="arbitrage-prone"):
                coalition_totals(contract, profile, coalition)
            with pytest.raises(AlphaRangeError, match="arbitrage-prone"):
                contract.expert_view(profile, 0)


class TestSumVectorKernel:
    """Alpha-family coalition totals from the column sums T and S alone."""

    @given(fine_profiles(), st.data())
    def test_matches_plain_reward_sums(self, profile, data):
        cutoff = 2 * (profile.m - 1) ** 2 * profile.n
        safe = st.one_of(
            fine_alphas.filter(lambda a: a < 0),
            st.fractions(
                min_value=cutoff, max_value=cutoff + 300, max_denominator=10**6
            ),
        )
        prone = st.fractions(
            min_value=0,
            max_value=cutoff - Fraction(1, 10**6),
            max_denominator=10**6,
        )
        permissive = data.draw(st.booleans())
        alpha = data.draw(st.one_of(safe, prone) if permissive else safe)
        size = data.draw(st.integers(1, profile.m))
        coalition = Coalition.of(
            data.draw(st.permutations(range(profile.m)))[:size]
        )
        contract = ArbitrageFreeContract(alpha=alpha, permissive=permissive)
        want = tuple(
            sum(plain_reward(profile, i, j, alpha) for i in coalition)
            for j in range(profile.n)
        )
        assert coalition_totals(contract, profile, coalition) == want
        # The same totals on an equal profile whose per-expert sums were
        # built first.
        primed = ReportProfile(profile.reports)
        primed.scaled_totals
        assert coalition_totals(contract, primed, coalition) == want

    @given(st.one_of(profiles(max_m=6, max_n=5), fine_profiles()), st.data())
    def test_member_sums_of_g_need_only_t_and_s(self, profile, data):
        rows = profile.scaled[1]
        totals, gaps = profile.scaled_totals
        size = data.draw(st.integers(1, profile.m))
        members = data.draw(st.permutations(range(profile.m)))[:size]
        sums = [sum(rows[i][j] for i in members) for j in range(profile.n)]
        assert size * sum(t * t for t in totals) - 2 * sum(
            t * s for t, s in zip(totals, sums)
        ) == sum(gaps[i] for i in members)

    def test_leaves_per_expert_sums_unbuilt(self):
        profile = ReportProfile.of(
            ("1/3", "2/3"), ("1/2", "1/2"), ("1/5", "4/5")
        )
        contract = ArbitrageFreeContract(alpha=-1)
        coalition_totals(contract, profile, Coalition.of([0, 2]))
        assert "scaled" in vars(profile)
        assert "scaled_totals" not in vars(profile)
        contract.evaluate(profile, 0)
        assert "scaled_totals" in vars(profile)


class TestPaymentTermsCache:
    """Per-profile payment terms hold no alpha, so reuse is sound."""

    @given(
        st.one_of(profiles(max_m=6, max_n=5), fine_profiles()),
        fine_alphas,
        fine_alphas,
        st.data(),
    )
    def test_one_profile_under_two_alphas(self, profile, first, second, data):
        members = data.draw(
            st.lists(st.integers(0, profile.m - 1), min_size=1, unique=True)
        )
        coalition = Coalition.of(members)
        # A, then B, then A again on the same profile object.
        for alpha in (first, second, first):
            contract = ArbitrageFreeContract(alpha=alpha, permissive=True)
            want = [
                tuple(plain_reward(profile, i, j, alpha) for i in range(profile.m))
                for j in range(profile.n)
            ]
            for j in range(profile.n):
                assert contract.evaluate(profile, j) == want[j]
            assert coalition_totals(contract, profile, coalition) == tuple(
                sum(row[i] for i in coalition) for row in want
            )


# The contracts behind the CLI's --contract choices.
CLI_CONTRACTS = {
    "independent-quadratic": IndependentScoring(rule=QuadraticRule()),
    "independent-log": IndependentScoring(rule=LogRule()),
    "zero-sum-pair": ZERO_SUM_PAIR,
    "nr": ArbitrageFreeContract(alpha=-1),
}


class TestCoalitionTotal:
    @pytest.mark.parametrize("tag", sorted(CLI_CONTRACTS))
    @given(data=st.data())
    def test_is_one_entry_of_coalition_totals(self, tag, data):
        contract = CLI_CONTRACTS[tag]
        m = 2 if tag == "zero-sum-pair" else None
        profile = data.draw(
            st.one_of(profiles(m=m), fine_profiles(m=m, max_m=5, max_n=4))
        )
        members = data.draw(
            st.lists(st.integers(0, profile.m - 1), min_size=1, unique=True)
        )
        coalition = Coalition.of(members)
        totals = coalition_totals(contract, profile, coalition)
        for j in range(profile.n):
            total = coalition_total(contract, profile, coalition, j)
            assert total == totals[j] and type(total) is type(totals[j])
        # An index into the tuple would accept -1 silently.
        for j in (-1, profile.n):
            with pytest.raises(IndexError, match="out of range"):
                coalition_total(contract, profile, coalition, j)


    def test_log_rule_at_minus_infinity(self):
        contract = CLI_CONTRACTS["independent-log"]
        profile = ReportProfile.of((1, 0), (1, 0), ("1/2", "1/2"))
        coalition = Coalition.of([0, 1, 2])
        totals = coalition_totals(contract, profile, coalition)
        assert totals[1] == float("-inf")
        for j in range(2):
            assert coalition_total(contract, profile, coalition, j) == totals[j]

    def test_checks_the_outcome_before_the_coalition(self):
        profile = ReportProfile.of(("1/2", "1/2"), ("1/2", "1/2"))
        outside = Coalition.of([0, 5])
        for contract in CLI_CONTRACTS.values():
            with pytest.raises(IndexError, match="out of range"):
                coalition_total(contract, profile, outside, 2)
            with pytest.raises(ValueError, match="includes an expert >= m=2"):
                coalition_total(contract, profile, outside, 0)


GENERIC_TAGS = ["independent-log", "independent-quadratic"]


class TestGenericCoalitionTotals:
    """Contracts outside the alpha family sum the members' payments."""

    @pytest.mark.parametrize("tag", GENERIC_TAGS)
    @given(data=st.data())
    def test_equals_member_sum_of_evaluate(self, tag, data):
        contract = CLI_CONTRACTS[tag]
        profile = data.draw(profiles())
        members = data.draw(
            st.lists(st.integers(0, profile.m - 1), min_size=1, unique=True)
        )
        coalition = Coalition.of(members)
        assert coalition_totals(contract, profile, coalition) == tuple(
            sum(contract.evaluate(profile, j)[i] for i in coalition)
            for j in range(profile.n)
        )

    @pytest.mark.parametrize("tag", GENERIC_TAGS)
    def test_one_member_total_is_its_payment(self, tag):
        contract = CLI_CONTRACTS[tag]
        profile = ReportProfile.of(("1/4", "3/4"), ("2/3", "1/3"))
        for i in range(2):
            totals = coalition_totals(contract, profile, Coalition.of([i]))
            assert totals == tuple(
                contract.evaluate(profile, j)[i] for j in range(2)
            )

    def test_log_total_of_ruled_out_outcome_is_minus_inf(self):
        contract = CLI_CONTRACTS["independent-log"]
        profile = ReportProfile.of(("0", "1"), ("1/2", "1/2"), ("0", "1"))
        totals = coalition_totals(contract, profile, Coalition.of([0, 2]))
        assert totals == (float("-inf"), 0.0)
        assert coalition_totals(
            contract, profile, Coalition.of([0, 1, 2])
        ) == (float("-inf"), sum(contract.evaluate(profile, 1)))


class TestCoefficientCache:
    """The alpha family's coefficients, cached per (m, n)."""

    def test_band_is_still_checked_for_a_new_shape(self):
        contract = ArbitrageFreeContract(alpha=16)
        assert contract.evaluate(ALL_HALF, 0) == tuple(
            plain_reward(ALL_HALF, i, 0, Fraction(16)) for i in range(3)
        )
        # Same m and D as ALL_HALF; only n differs.
        three = ReportProfile.of(
            ("1/2", "1/2", "0"), ("0", "1/2", "1/2"), ("1/2", "0", "1/2")
        )
        with pytest.raises(AlphaRangeError) as fresh:
            ArbitrageFreeContract(alpha=16).evaluate(three, 0)
        assert "[0, 24) for m=3, n=3" in str(fresh.value)
        for _ in range(2):
            with pytest.raises(AlphaRangeError) as raised:
                contract.evaluate(three, 0)
            assert str(raised.value) == str(fresh.value)
            with pytest.raises(AlphaRangeError) as raised:
                coalition_totals(contract, three, Coalition.full(3))
            assert str(raised.value) == str(fresh.value)
        assert coalition_totals(contract, ALL_HALF, Coalition.of([0, 2])) == (
            Fraction(13),
            Fraction(13),
        )

    @given(fine_profiles(), fine_profiles(), fine_alphas)
    def test_shapes_and_denominators_in_turn(self, first, second, alpha):
        contract = ArbitrageFreeContract(alpha=alpha, permissive=True)
        # A, then B, then A again on the same contract object.
        for profile in (first, second, first):
            want = [
                tuple(plain_reward(profile, i, j, alpha) for i in range(profile.m))
                for j in range(profile.n)
            ]
            for j in range(profile.n):
                assert contract.evaluate(profile, j) == want[j]
            assert coalition_totals(
                contract, profile, Coalition.full(profile.m)
            ) == tuple(sum(row) for row in want)

    def test_cache_leaves_eq_hash_and_repr_alone(self):
        used = ArbitrageFreeContract(alpha=16)
        used.evaluate(ALL_HALF, 0)
        fresh = ArbitrageFreeContract(alpha=16)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert [f.name for f in dataclasses.fields(used)] == [
            "alpha",
            "permissive",
        ]


class TestInducedExpertRule:
    def test_offsets_shift_quadratic_score(self):
        rule = InducedExpertRule(offsets=(Fraction(3), Fraction(-1, 2)))
        d = Distribution.of("2/5", "3/5")
        assert rule.score(d, 0) == quadratic_score(d, 0) + 3
        assert rule.score(d, 1) == quadratic_score(d, 1) - Fraction(1, 2)

    @given(st.data())
    def test_score_equals_plain_fraction_sum(self, data):
        report = data.draw(mixed_denominator_reports())
        offsets = data.draw(st.tuples(*[exact_values] * report.n))
        rule = InducedExpertRule(offsets=offsets)
        for j in range(report.n):
            score = rule.score(report, j)
            assert score == plain_quadratic(report.weights, j) + offsets[j]
            assert type(score) is Fraction

    @given(st.data())
    def test_expected_score_equals_plain_expectation(self, data):
        belief = data.draw(int_weighted_distributions(max_n=6))
        report = data.draw(mixed_denominator_reports(n=belief.n))
        offsets = data.draw(st.tuples(*[exact_values] * belief.n))
        rule = InducedExpertRule(offsets=offsets)
        got = expected_score(rule, report, belief)
        assert got == plain_expectation(
            belief,
            [
                plain_quadratic(report.weights, j) + offsets[j]
                for j in range(belief.n)
            ],
        )
        assert type(got) is Fraction
        # The offsets' common denominator is cached on the rule, out of
        # eq, hash and repr.
        assert expected_score(rule, report, belief) == got
        fresh = InducedExpertRule(offsets=offsets)
        assert rule == fresh and hash(rule) == hash(fresh)
        assert repr(rule) == repr(fresh)

    @given(fine_profiles(max_m=5, max_n=4), st.data())
    def test_expert_view_expectation_equals_plain_reward(self, profile, data):
        # The view's expected score is the expert's expected payment with
        # everyone else's report held fixed.
        alpha = data.draw(fine_alphas)
        i = data.draw(st.integers(0, profile.m - 1))
        belief = data.draw(int_weighted_distributions(n=profile.n))
        report = data.draw(mixed_denominator_reports(n=profile.n))
        rule = ArbitrageFreeContract(alpha, permissive=True).expert_view(
            profile, i
        )
        moved = profile.replace({i: report})
        assert expected_score(rule, report, belief) == plain_expectation(
            belief,
            [plain_reward(moved, i, j, alpha) for j in range(profile.n)],
        )

    def test_mismatched_offsets_raise_the_score_error(self):
        rule = InducedExpertRule(offsets=(Fraction(1), Fraction(2)))
        wide = Distribution.of("1/3", "1/3", "1/3")
        message = "report has 3 outcomes, offsets cover 2"
        with pytest.raises(ValueError, match=message):
            rule.score(wide, 0)
        with pytest.raises(ValueError, match=message):
            expected_score(rule, wide, wide)
        with pytest.raises(ValueError, match=message):
            properness_probe(rule, wide, steps=3)

    def test_offsets_are_coerced_like_weights(self):
        with pytest.raises(TypeError, match="float"):
            InducedExpertRule(offsets=(0.5, 0.25))
        rule = InducedExpertRule(offsets=("1/2", 1))
        assert rule.offsets == (Fraction(1, 2), Fraction(1))
        assert all(type(o) is Fraction for o in rule.offsets)
        d = Distribution.of("2/5", "3/5")
        assert rule.score(d, 0) == quadratic_score(d, 0) + Fraction(1, 2)
        assert expected_score(rule, d, d) == (
            Fraction(2, 5) * rule.score(d, 0) + Fraction(3, 5) * rule.score(d, 1)
        )
        assert properness_probe(rule, d, steps=5).argmax == d

    def test_fraction_offsets_are_kept_as_they_are(self):
        offsets = (Fraction(3), Fraction(-1, 2))
        rule = InducedExpertRule(offsets=offsets)
        assert all(a is b for a, b in zip(rule.offsets, offsets))
        same = InducedExpertRule(offsets=(Fraction(3), Fraction(-1, 2)))
        assert rule == same and hash(rule) == hash(same)
        # Ints coerce to equal Fractions, so eq and hash agree with them.
        ints = InducedExpertRule(offsets=(3, Fraction(-1, 2)))
        assert ints == rule and hash(ints) == hash(rule)

    def test_expert_view_offsets_too_long_to_print_are_kept(self):
        # A printable alpha times the others' mean can pass the print
        # limit; the offsets stay exact and the rule stays usable.
        profile = ReportProfile.of(("1/3", "2/3"), ("1/7", "6/7"), ("1/2", "1/2"))
        alpha = Fraction(1, 10**4299)
        rule = ArbitrageFreeContract(alpha, permissive=True).expert_view(
            profile, 0
        )
        assert all(o.denominator > 10**4300 for o in rule.offsets)
        belief = Distribution.of("1/2", "1/2")
        assert properness_probe(rule, belief, steps=4).argmax == belief


@dataclasses.dataclass(frozen=True)
class TableContract(ContractFunction):
    """An exact contract paying table[j][i], whatever the reports."""

    table: tuple

    def evaluate(self, profile, j):
        return self.table[j]


@dataclasses.dataclass(frozen=True)
class CountContract(ContractFunction):
    """An exact contract paying ints: expert i's count on outcome j, less i."""

    def evaluate(self, profile, j):
        return tuple(
            r.scaled[1][j] - i for i, r in enumerate(profile.reports)
        )


def plain_sum(values) -> Fraction:
    return sum(values, Fraction(0))


def draw_coalition(data, m: int) -> Coalition:
    return Coalition.of(
        data.draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True))
    )


class TestMemberSums:
    """Integer member sums against plain Fraction sums."""

    def test_every_denominator_case(self):
        # After 1/6: an equal denominator, two that divide 6 (3, and the
        # int 2's 1), and 4, which shares only the factor 2 with 6.
        row = (
            Fraction(1, 6), Fraction(5, 6), Fraction(1, 3), 2, Fraction(-3, 4)
        )
        (total,) = _member_sums([row], range(5))
        assert total == plain_sum(row) == Fraction(31, 12)
        assert type(total) is Fraction

    def test_float_rows_start_from_the_first_member(self):
        # Log-rule payments are floats and may be -inf: a member who ruled
        # the outcome out makes the coalition's total -inf.
        rows = [(-math.inf, -math.inf, 0.5), (-math.inf, 0.25, 0.5)]
        assert _member_sums(rows, [0, 1], exact=False) == (-math.inf, -math.inf)
        assert _member_sums(rows, [1, 2], exact=False) == (-math.inf, 0.75)
        (total,) = _member_sums([(0.25, 0.5)], [0, 1], exact=False)
        assert type(total) is float

    @given(st.data())
    def test_equal_fraction_sums(self, data):
        m = data.draw(st.integers(1, 6))
        rows = data.draw(
            st.lists(st.tuples(*[exact_values] * m), min_size=1, max_size=5)
        )
        members = draw_coalition(data, m).members
        got = _member_sums(rows, members)
        assert got == tuple(plain_sum(row[i] for i in members) for row in rows)
        assert all(type(t) is Fraction for t in got)

    @given(profiles(max_m=5), st.data())
    def test_generic_totals_of_mixed_denominators(self, profile, data):
        table = tuple(
            data.draw(st.tuples(*[exact_values] * profile.m))
            for _ in range(profile.n)
        )
        coalition = draw_coalition(data, profile.m)
        got = coalition_totals(TableContract(table), profile, coalition)
        assert got == tuple(
            plain_sum(row[i] for i in coalition) for row in table
        )
        assert all(type(t) is Fraction for t in got)

    @given(fine_profiles(), st.data())
    def test_independent_quadratic_totals(self, profile, data):
        contract = IndependentScoring(rule=QuadraticRule())
        coalition = draw_coalition(data, profile.m)
        got = coalition_totals(contract, profile, coalition)
        weights = [r.weights for r in profile.reports]
        assert got == tuple(
            plain_sum(plain_quadratic(weights[i], j) for i in coalition)
            for j in range(profile.n)
        )
        assert all(type(t) is Fraction for t in got)

    @given(fine_profiles(), st.data())
    def test_int_payments_sum_to_fractions(self, profile, data):
        coalition = draw_coalition(data, profile.m)
        got = coalition_totals(CountContract(), profile, coalition)
        assert got == tuple(
            sum(profile.reports[i].scaled[1][j] - i for i in coalition)
            for j in range(profile.n)
        )
        assert all(type(t) is Fraction for t in got)


class TestRewardHelpers:
    @given(profiles(max_m=3, max_n=3), alphas)
    def test_expert_and_expected_reward(self, profile, alpha):
        contract = ArbitrageFreeContract(alpha=alpha, permissive=True)
        for i in range(profile.m):
            belief = profile.reports[i]
            expectation = expected_reward(contract, profile, i, belief)
            direct = sum(
                belief.weights[j] * contract.evaluate(profile, j)[i]
                for j in range(profile.n)
                if belief.weights[j] != 0
            )
            assert expectation == direct

    @given(st.data())
    def test_expected_reward_equals_plain_fraction_sum(self, data):
        belief = data.draw(int_weighted_distributions())
        profile = data.draw(profiles(n=belief.n))
        table = tuple(
            data.draw(st.tuples(*[exact_values] * profile.m))
            for _ in range(profile.n)
        )
        contract = TableContract(table)
        for i in range(profile.m):
            got = expected_reward(contract, profile, i, belief)
            assert got == plain_expectation(belief, [row[i] for row in table])
            assert type(got) is Fraction

    def test_coalition_totals_sum_member_payments(self):
        contract = ArbitrageFreeContract(alpha=16)
        coalition = Coalition.of([0, 2])
        totals = coalition_totals(contract, ALL_HALF, coalition)
        assert totals == (Fraction(13), Fraction(13))

    def test_expected_reward_skips_ruled_out_outcomes(self):
        contract = IndependentScoring(rule=LogRule())
        profile = ReportProfile.of(("1", "0"), ("1/2", "1/2"))
        assert expected_reward(
            contract, profile, 0, Distribution.of(1, 0)
        ) == pytest.approx(0.0)
