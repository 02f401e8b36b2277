"""Contract functions: alpha classification, payments, induced expert rules."""

from __future__ import annotations

import dataclasses
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
    ZeroSumPair,
    coalition_total,
    coalition_totals,
    expected_reward,
    leave_one_out_mean,
    properness_probe,
    quadratic_score,
    threshold_general,
    threshold_two_outcome,
    validate_alpha,
)
from elicit.contracts import InducedExpertRule
from elicit.simplex import Coalition

from conftest import distributions, fine_profiles, plain_reward, profiles

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
        + alpha * loo[j]
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

    def test_expert_view_ignores_opponents(self):
        profile = ReportProfile.of(("2/5", "3/5"), ("1/2", "1/2"))
        contract = IndependentScoring(rule=QuadraticRule())
        view = contract.expert_view(profile, 0)
        d = Distribution.of("1/4", "3/4")
        assert view.score(d, 1) == quadratic_score(d, 1)

    def test_exactness_tracks_rule(self):
        assert IndependentScoring(rule=QuadraticRule()).exact
        assert not IndependentScoring(rule=LogRule()).exact


class TestZeroSumPair:
    def test_antisymmetric_payments(self):
        profile = ReportProfile.of(("2/5", "3/5"), ("9/10", "1/10"))
        contract = ZeroSumPair()
        for j in range(2):
            a, b = contract.evaluate(profile, j)
            assert a == -b
            diff = quadratic_score(profile.reports[0], j) - quadratic_score(
                profile.reports[1], j
            )
            assert a == diff

    def test_requires_two_experts(self):
        contract = ZeroSumPair()
        with pytest.raises(ValueError, match="exactly 2 experts"):
            contract.evaluate(ALL_HALF, 0)


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
    "zero-sum-pair": ZeroSumPair(),
    "nr": ArbitrageFreeContract(alpha=-1),
}


class TestCoalitionTotal:
    @pytest.mark.parametrize("tag", sorted(CLI_CONTRACTS))
    @given(data=st.data())
    def test_is_one_entry_of_coalition_totals(self, tag, data):
        contract = CLI_CONTRACTS[tag]
        m = 2 if tag == "zero-sum-pair" else None
        profile = data.draw(profiles(m=m))
        members = data.draw(
            st.lists(st.integers(0, profile.m - 1), min_size=1, unique=True)
        )
        coalition = Coalition.of(members)
        totals = coalition_totals(contract, profile, coalition)
        for j in range(profile.n):
            assert coalition_total(contract, profile, coalition, j) == totals[j]
        # An index into the tuple would accept -1 silently.
        for j in (-1, profile.n):
            with pytest.raises(IndexError, match="out of range"):
                coalition_total(contract, profile, coalition, j)


GENERIC_TAGS = ["independent-log", "independent-quadratic", "zero-sum-pair"]


class TestGenericCoalitionTotals:
    """Contracts outside the alpha family sum the members' payments."""

    @pytest.mark.parametrize("tag", GENERIC_TAGS)
    @given(data=st.data())
    def test_equals_member_sum_of_evaluate(self, tag, data):
        contract = CLI_CONTRACTS[tag]
        m = 2 if tag == "zero-sum-pair" else None
        profile = data.draw(profiles(m=m))
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
    """The alpha family's coefficients, cached per (m, n, D)."""

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


class TestRewardHelpers:
    @given(profiles(max_m=3, max_n=3), alphas)
    def test_expert_and_expected_reward(self, profile, alpha):
        contract = ArbitrageFreeContract(alpha=alpha, permissive=True)
        for i in range(profile.m):
            belief = profile.reports[i]
            expectation = expected_reward(contract, profile, i, belief)
            direct = sum(
                belief[j] * contract.evaluate(profile, j)[i]
                for j in range(profile.n)
                if belief[j] != 0
            )
            assert expectation == direct

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
