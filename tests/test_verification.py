"""Algebraic rewrites, coalition polynomial, monotonicity, hurting outcome."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from elicit import (
    ArbitrageFreeContract,
    Coalition,
    CoalitionPolynomial,
    Distribution,
    Monotonicity,
    ReportProfile,
    coalition_reward_poly,
    coalition_total,
    coalition_totals,
    general_form_residual,
    hurting_outcome,
    monotonicity_check,
    parabola_vertex,
    threshold_two_outcome,
    two_outcome_form_residual,
)
from elicit.arbitrage import profile_with_coalition_sums
from elicit.contracts import safe_cutoff
from elicit.verification import (
    general_identity_report,
    two_outcome_identity_report,
)

from conftest import fine_profiles, plain_form_residual, profiles

BOUNDARY = ReportProfile.of(("1/2", "1/2"), ("1/2", "1/2"), ("0", "1"))

alphas = st.fractions(
    min_value=Fraction(-40), max_value=Fraction(60), max_denominator=6
)


class TestIdentityResiduals:
    @given(profiles(n=2), alphas, st.data())
    def test_two_outcome_residual_depends_only_on_shape_and_alpha(
        self, p1, alpha, data
    ):
        p2 = data.draw(profiles(m=p1.m, n=2))
        i1 = data.draw(st.integers(0, p1.m - 1))
        i2 = data.draw(st.integers(0, p2.m - 1))
        j1 = data.draw(st.integers(0, 1))
        j2 = data.draw(st.integers(0, 1))
        r1 = two_outcome_form_residual(p1, i1, j1, alpha)
        r2 = two_outcome_form_residual(p2, i2, j2, alpha)
        assert r1 == r2

    @given(profiles(), alphas, st.data())
    def test_general_residual_depends_only_on_shape_and_alpha(
        self, p1, alpha, data
    ):
        p2 = data.draw(profiles(m=p1.m, n=p1.n))
        i1 = data.draw(st.integers(0, p1.m - 1))
        i2 = data.draw(st.integers(0, p2.m - 1))
        j1 = data.draw(st.integers(0, p1.n - 1))
        j2 = data.draw(st.integers(0, p2.n - 1))
        assert general_form_residual(p1, i1, j1, alpha) == general_form_residual(
            p2, i2, j2, alpha
        )

    def test_two_outcome_requires_n2(self):
        wide = ReportProfile.of(("1/3", "1/3", "1/3"), ("1/3", "1/3", "1/3"))
        with pytest.raises(ValueError):
            two_outcome_form_residual(wide, 0, 0, Fraction(1))

    @given(st.lists(profiles(m=3, n=2), min_size=2, max_size=6), alphas)
    def test_report_builders_find_zero_spread(self, batch, alpha):
        two = two_outcome_identity_report(batch, alpha)
        general = general_identity_report(batch, alpha)
        assert two.passed and two.max_spread == 0
        assert general.passed and general.max_spread == 0
        assert two.samples > 0

    def test_recovered_constant_is_reported(self):
        batch = [BOUNDARY]
        report = two_outcome_identity_report(batch, Fraction(0))
        assert report.constant == two_outcome_form_residual(
            BOUNDARY, 0, 0, Fraction(0)
        )


@st.composite
def banded_alphas(draw, m: int, n: int):
    """An alpha from a uniformly drawn band: negative, prone or large.

    Denominators go up to 10**6; the prone band is [0, safe_cutoff).
    """
    den = draw(st.integers(1, 10**6))
    cut = safe_cutoff(m, n) * den
    band = draw(st.sampled_from(["negative", "prone", "large"]))
    if band == "negative":
        num = draw(st.integers(-3 * cut, -1))
    elif band == "prone":
        num = draw(st.integers(0, cut - 1))
    else:
        num = draw(st.integers(cut, 3 * cut))
    return Fraction(num, den)


def plain_identity_report(profiles, alpha, two_outcome):
    """(constant, max_spread, samples) over the plain-Fraction residuals."""
    residuals = [
        plain_form_residual(profile, i, k % profile.n, alpha, two_outcome)
        for k, profile in enumerate(profiles)
        for i in range(profile.m)
    ]
    return residuals[0], max(residuals) - min(residuals), len(residuals)


class TestIntegerRewrites:
    """The integer residuals against the plain-Fraction rewrites."""

    @given(fine_profiles(max_m=6, max_n=5), st.data())
    def test_general_residual_matches_oracle(self, profile, data):
        alpha = data.draw(banded_alphas(profile.m, profile.n))
        i = data.draw(st.integers(0, profile.m - 1))
        j = data.draw(st.integers(0, profile.n - 1))
        assert general_form_residual(profile, i, j, alpha) == (
            plain_form_residual(profile, i, j, alpha, two_outcome=False)
        )

    @given(fine_profiles(max_m=6, n=2), st.data())
    def test_two_outcome_residual_matches_oracle(self, profile, data):
        alpha = data.draw(banded_alphas(profile.m, 2))
        i = data.draw(st.integers(0, profile.m - 1))
        j = data.draw(st.integers(0, 1))
        assert two_outcome_form_residual(profile, i, j, alpha) == (
            plain_form_residual(profile, i, j, alpha, two_outcome=True)
        )

    @given(st.integers(2, 6), st.integers(2, 5), st.data())
    def test_identity_reports_match_oracle(self, m, n, data):
        batch = data.draw(
            st.lists(fine_profiles(m=m, n=n), min_size=1, max_size=4)
        )
        alpha = data.draw(banded_alphas(m, n))
        builders = [(general_identity_report, False)]
        if n == 2:
            builders.append((two_outcome_identity_report, True))
        for build, two_outcome in builders:
            report = build(batch, alpha)
            assert (report.constant, report.max_spread, report.samples) == (
                plain_identity_report(batch, alpha, two_outcome)
            )


class TestCoalitionPolynomial:
    @given(profiles(n=2, max_m=4), alphas, st.data())
    def test_predicts_reconstructed_totals(self, profile, alpha, data):
        size = data.draw(st.integers(2, profile.m))
        coalition = Coalition.of(range(size))
        j = data.draw(st.integers(0, 1))
        poly = coalition_reward_poly(profile, coalition, j, alpha)
        contract = ArbitrageFreeContract(alpha=alpha, permissive=True)
        c = coalition.size
        for k in range(5):
            s = Fraction(c * k, 4)
            sums = [Fraction(0), Fraction(0)]
            sums[j] = s
            sums[1 - j] = c - s
            deviation = profile_with_coalition_sums(profile, coalition, sums)
            assert poly.predict(s) == coalition_total(
                contract, deviation, coalition, j
            )

    def test_leading_coefficient_is_shape_determined(self):
        profile = ReportProfile.of(*([("1/2", "1/2")] * 4))
        for size in (2, 3, 4):
            coalition = Coalition.of(range(size))
            poly = coalition_reward_poly(profile, coalition, 0, Fraction(5))
            assert poly.quadratic == 2 * (size - 2)

    def test_linear_coefficient_formula(self):
        coalition = Coalition.of([0, 1, 2])
        alpha = Fraction(7, 2)
        poly = coalition_reward_poly(BOUNDARY, coalition, 0, alpha)
        d = threshold_two_outcome(3, alpha)
        complement_sum = Fraction(0)
        assert poly.linear == 4 * ((3 - 1) * (complement_sum - d) + 1)

    def test_predict_rejects_floats(self):
        poly = CoalitionPolynomial(
            quadratic=Fraction(2), linear=Fraction(0), constant=Fraction(1)
        )
        with pytest.raises(TypeError, match="float"):
            poly.predict(0.5)


class TestParabolaVertex:
    def test_formula(self):
        assert parabola_vertex(3, Fraction(0), Fraction(1)) == Fraction(-3)
        assert parabola_vertex(4, Fraction(5), Fraction(0)) == Fraction(7)

    def test_needs_true_parabola(self):
        with pytest.raises(ValueError, match="size"):
            parabola_vertex(2, Fraction(1), Fraction(0))

    @given(
        st.integers(3, 6),
        st.fractions(min_value=Fraction(-50), max_value=Fraction(0), max_denominator=4),
        st.fractions(min_value=Fraction(0), max_value=Fraction(3), max_denominator=4),
    )
    def test_nonpositive_threshold_pushes_vertex_left(self, size, d, comp):
        assert parabola_vertex(size, d, comp) <= 0

    @given(st.integers(3, 6), st.data())
    def test_large_threshold_pushes_vertex_right(self, size, data):
        m = data.draw(st.integers(size, 7))
        d = (m - 1) + data.draw(
            st.fractions(min_value=Fraction(1, 3), max_value=Fraction(50), max_denominator=3)
        )
        comp = data.draw(
            st.fractions(min_value=Fraction(0), max_value=Fraction(m - size), max_denominator=3)
        )
        assert parabola_vertex(size, d, comp) >= size


class TestMonotonicity:
    def test_increasing_regime(self):
        contract = ArbitrageFreeContract(alpha=16)
        report = monotonicity_check(
            contract, ReportProfile.of(*([("1/2", "1/2")] * 3)), Coalition.of([0, 1]), 0
        )
        assert report.verdict is Monotonicity.INCREASING
        assert report.witness is None

    def test_decreasing_regime(self):
        contract = ArbitrageFreeContract(alpha=-4)
        report = monotonicity_check(
            contract, ReportProfile.of(*([("1/2", "1/2")] * 3)), Coalition.of([0, 1]), 0
        )
        assert report.verdict is Monotonicity.DECREASING

    def test_alpha_zero_boundary_plateau_is_a_violation(self):
        # With the complement ruling out outcome 1, alpha = 0 flattens the
        # coalition total in the outcome-2 sum: the arbitrage edge case.
        contract = ArbitrageFreeContract(alpha=0, permissive=True)
        report = monotonicity_check(contract, BOUNDARY, Coalition.of([0, 1]), 1)
        assert report.verdict is Monotonicity.VIOLATION
        (s1, t1), (s2, t2) = report.witness
        assert t1 == t2

    def test_direction_change_is_a_violation(self):
        # alpha = 6 puts the vertex of the coalition polynomial at s = 3/2,
        # inside [0, 3]: the total falls until there and then rises, and
        # the witness is the first rising pair.
        contract = ArbitrageFreeContract(alpha=6, permissive=True)
        profile = ReportProfile.of(*([("1/2", "1/2")] * 3))
        report = monotonicity_check(contract, profile, Coalition.full(3), 0)
        assert report.verdict is Monotonicity.VIOLATION
        assert report.witness == (
            (Fraction(3, 2), Fraction(9, 2)),
            (Fraction(15, 8), Fraction(153, 32)),
        )

    def test_requires_two_outcomes(self):
        contract = ArbitrageFreeContract(alpha=-1)
        wide = ReportProfile.of(*([("1/3", "1/3", "1/3")] * 3))
        with pytest.raises(ValueError, match="n=2"):
            monotonicity_check(contract, wide, Coalition.of([0, 1]), 0)


class TestHurtingOutcome:
    def test_negative_alpha_points_at_largest_raise(self):
        contract = ArbitrageFreeContract(alpha=-1)
        baseline = ReportProfile.of(("2/5", "3/5"), ("1/2", "1/2"), ("9/10", "1/10"))
        coalition = Coalition.of([0, 1])
        deviation = baseline.replace(
            {i: Distribution.of("9/10", "1/10") for i in coalition}
        )
        j = hurting_outcome(contract, baseline, deviation, coalition)
        assert j == 0
        before = coalition_totals(contract, baseline, coalition)
        after = coalition_totals(contract, deviation, coalition)
        assert after[j] < before[j]

    def test_large_alpha_points_at_largest_drop(self):
        contract = ArbitrageFreeContract(alpha=16)
        baseline = ReportProfile.of(*([("1/2", "1/2")] * 3))
        coalition = Coalition.of([0, 1])
        deviation = baseline.replace(
            {i: Distribution.of("9/10", "1/10") for i in coalition}
        )
        j = hurting_outcome(contract, baseline, deviation, coalition)
        assert j == 1
        before = coalition_totals(contract, baseline, coalition)
        after = coalition_totals(contract, deviation, coalition)
        assert after[j] < before[j]

    def test_unmoved_sums_leave_totals_equal(self):
        contract = ArbitrageFreeContract(alpha=-1)
        baseline = ReportProfile.of(("2/5", "3/5"), ("3/5", "2/5"), ("1/2", "1/2"))
        coalition = Coalition.of([0, 1])
        # Swap reports inside the coalition: sums unchanged on both outcomes.
        deviation = baseline.replace(
            {0: baseline.reports[1], 1: baseline.reports[0]}
        )
        j = hurting_outcome(contract, baseline, deviation, coalition)
        before = coalition_totals(contract, baseline, coalition)
        after = coalition_totals(contract, deviation, coalition)
        assert after[j] == before[j]

    def test_tie_breaks_to_smallest_index(self):
        contract = ArbitrageFreeContract(alpha=-1)
        baseline = ReportProfile.of(
            ("1/2", "1/4", "1/4"), ("1/2", "1/4", "1/4")
        )
        coalition = Coalition.full(2)
        deviation = baseline.replace(
            {i: Distribution.of("5/8", "3/8", "0") for i in coalition}
        )
        # Sum moves are (+1/4, +1/4, -1/2): outcomes 1 and 2 tie.
        assert hurting_outcome(contract, baseline, deviation, coalition) == 0

    def test_invalid_alpha_is_rejected(self):
        contract = ArbitrageFreeContract(alpha=1, permissive=True)
        baseline = ReportProfile.of(*([("1/2", "1/2")] * 3))
        with pytest.raises(ValueError, match="arbitrage-prone"):
            hurting_outcome(
                contract, baseline, baseline.replace({}), Coalition.of([0, 1])
            )
