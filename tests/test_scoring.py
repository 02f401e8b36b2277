"""Scoring rules: exact values, properness, probes."""

from __future__ import annotations

import dataclasses
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from elicit import (
    Distribution,
    LogRule,
    QuadraticRule,
    expected_score,
    log_score,
    properness_probe,
    quadratic_score,
    simplex_lattice,
    vertex,
)
from elicit.contracts import InducedExpertRule
from elicit.scoring import ScoringRule, _expectation

from conftest import (
    distributions,
    exact_values,
    int_weighted_distributions,
    mixed_denominator_reports,
    plain_expectation,
    plain_quadratic,
)


@dataclasses.dataclass(frozen=True)
class TableRule(ScoringRule):
    """An exact rule scoring values[j] on outcome j, whatever the report.

    A None value stands for an outcome that must never be scored.
    """

    values: tuple

    def score(self, report, j):
        assert self.values[j] is not None, f"outcome {j} was scored"
        return self.values[j]


class TestQuadraticScore:
    def test_known_values(self):
        d = Distribution.of("2/5", "3/5")
        assert quadratic_score(d, 0) == Fraction(7, 25)
        assert quadratic_score(d, 1) == Fraction(17, 25)

    @given(st.integers(2, 5), st.integers(0, 4))
    def test_vertex_scores_one(self, n, j):
        j = j % n
        assert quadratic_score(vertex(n, j), j) == 1

    @given(st.integers(2, 5))
    def test_uniform_scores_isotropically(self, n):
        u = Distribution.of(*([Fraction(1, n)] * n))
        for j in range(n):
            assert quadratic_score(u, j) == Fraction(1, n)

    @given(distributions())
    def test_equals_one_minus_squared_distance_to_vertex(self, d):
        for j in range(d.n):
            dist_sq = sum(
                (w - (1 if k == j else 0)) ** 2 for k, w in enumerate(d.weights)
            )
            assert quadratic_score(d, j) == 1 - dist_sq

    @given(distributions())
    def test_bounded(self, d):
        for j in range(d.n):
            assert -1 <= quadratic_score(d, j) <= 1

    @given(mixed_denominator_reports())
    def test_integer_form_matches_plain_formula(self, d):
        w = d.weights
        for j in range(d.n):
            assert quadratic_score(d, j) == 2 * w[j] - sum(p * p for p in w)
        scale, counts, square = d.scaled
        assert all(scale % p.denominator == 0 for p in w)
        assert counts == tuple(p * scale for p in w)
        assert square == sum(c * c for c in counts)

    @given(mixed_denominator_reports())
    def test_cached_scores_match_plain_formula(self, d):
        scores = d.quadratic_scores
        assert scores is d.quadratic_scores
        assert scores == tuple(plain_quadratic(d.weights, j) for j in range(d.n))
        for j in range(d.n):
            assert quadratic_score(d, j) is scores[j]
        # A tuple index would accept -1; the range check refuses it.
        for j in (-1, d.n):
            with pytest.raises(IndexError) as raised:
                quadratic_score(d, j)
            assert str(raised.value) == f"outcome {j} out of range for n={d.n}"

    def test_cached_scores_leave_equality_and_hash_alone(self):
        scored = Distribution.of("1/3", "2/3")
        quadratic_score(scored, 0)
        fresh = Distribution.of("1/3", "2/3")
        assert scored == fresh and hash(scored) == hash(fresh)
        assert repr(scored) == repr(fresh)


class TestLogScore:
    def test_known_values(self):
        d = Distribution.of("2/5", "3/5")
        assert log_score(d, 0) == pytest.approx(math.log(0.4))

    def test_zero_weight_is_minus_infinity(self):
        assert log_score(Distribution.of(1, 0), 1) == -math.inf

    def test_rule_objects_agree_with_functions(self):
        d = Distribution.of("1/4", "3/4")
        assert QuadraticRule().score(d, 1) == quadratic_score(d, 1)
        assert LogRule().score(d, 1) == log_score(d, 1)
        assert QuadraticRule().exact and not LogRule().exact


class TestExpectedScore:
    @given(distributions(n=3), distributions(n=3))
    def test_matches_direct_sum(self, report, belief):
        value = expected_score(QuadraticRule(), report, belief)
        assert value == sum(
            belief.weights[j] * quadratic_score(report, j) for j in range(3)
        )

    @given(distributions(), st.data())
    def test_truthful_report_is_optimal(self, belief, data):
        other = data.draw(distributions(n=belief.n))
        truthful = expected_score(QuadraticRule(), belief, belief)
        alternative = expected_score(QuadraticRule(), other, belief)
        assert truthful >= alternative
        if other != belief:
            assert truthful > alternative

    @given(st.data())
    def test_exact_sum_equals_plain_fraction_sum(self, data):
        belief = data.draw(int_weighted_distributions())
        values = tuple(
            data.draw(exact_values) if w != 0 else None for w in belief.weights
        )
        got = expected_score(TableRule(values), belief, belief)
        assert got == plain_expectation(belief, values)
        assert type(got) is Fraction

    def test_every_denominator_case(self):
        # After 1/6 the running denominator meets an equal one, two that
        # divide it (3, and the int 2's 1), 4, which shares only the
        # factor 2 with 6, and 5, coprime to 12.  The outcome of zero
        # belief is never scored.
        belief = Distribution.of(
            "1/8", "1/8", "1/8", "0", "1/8", "1/4", "1/4"
        )
        values = (
            Fraction(1, 6), Fraction(5, 6), Fraction(1, 3), None, 2,
            Fraction(-3, 4), Fraction(2, 5),
        )
        got = _expectation(belief, values.__getitem__, exact=True)
        assert got == plain_expectation(belief, values) == Fraction(79, 240)
        assert type(got) is Fraction

    @given(st.data())
    def test_quadratic_expectation_on_mixed_denominators(self, data):
        # Beliefs include vertices and zero-belief outcomes; the closed
        # form reads them like any other.
        n = data.draw(st.integers(2, 6))
        belief = data.draw(
            st.one_of(
                st.builds(vertex, st.just(n), st.integers(0, n - 1)),
                int_weighted_distributions(n=n),
            )
        )
        report = data.draw(
            st.one_of(
                mixed_denominator_reports(n=n), int_weighted_distributions(n=n)
            )
        )
        got = expected_score(QuadraticRule(), report, belief)
        assert got == plain_expectation(
            belief, [plain_quadratic(report.weights, j) for j in range(n)]
        )
        assert type(got) is Fraction

    def test_closed_form_scores_nothing(self):
        report = Distribution.of("1/3", "1/6", "1/2")
        belief = Distribution.of("1/4", "0", "3/4")
        got = expected_score(QuadraticRule(), report, belief)
        assert got == Fraction(1, 4) * quadratic_score(report, 0) + Fraction(
            3, 4
        ) * quadratic_score(report, 2)
        # The closed form reads only the integer counts, so a fresh report
        # never builds its cached scores.
        fresh = Distribution.of("1/3", "1/6", "1/2")
        expected_score(QuadraticRule(), fresh, belief)
        assert "quadratic_scores" not in vars(fresh)

    @given(st.data())
    def test_new_score_without_new_expected_falls_back(self, data):
        @dataclasses.dataclass(frozen=True)
        class Shifted(QuadraticRule):
            def score(self, report, j):
                return quadratic_score(report, j) + j

        @dataclasses.dataclass(frozen=True)
        class Plain(QuadraticRule):
            pass

        assert Shifted.expected is ScoringRule.expected
        assert Plain.expected is QuadraticRule.expected
        belief = data.draw(int_weighted_distributions())
        report = data.draw(mixed_denominator_reports(n=belief.n))
        got = expected_score(Shifted(), report, belief)
        assert got == plain_expectation(
            belief,
            [plain_quadratic(report.weights, j) + j for j in range(belief.n)],
        )
        assert expected_score(Plain(), report, belief) == expected_score(
            QuadraticRule(), report, belief
        )

    def test_a_rule_with_its_own_expected_is_asked_for_it(self):
        class Constant(ScoringRule):
            def score(self, report, j):
                raise AssertionError("the expectation must not score")

            def expected(self, report, belief):
                return Fraction(7)

        d = Distribution.of("1/2", "1/2")
        assert expected_score(Constant(), d, d) == 7
        with pytest.raises(ValueError, match="report has 2 outcomes, belief has 3"):
            expected_score(Constant(), d, Distribution.of(1, 0, 0))

    def test_expected_refuses_mismatched_shapes(self):
        report, belief = Distribution.of(1, 0, 0), Distribution.of(1, 0)
        rules = [
            QuadraticRule(),
            LogRule(),
            InducedExpertRule(offsets=(0, 0, 0)),
            TableRule((1, 2, 3)),
        ]
        for rule in rules:
            with pytest.raises(ValueError, match="report has 3 outcomes, belief has 2"):
                rule.expected(report, belief)

    def test_zero_belief_terms_are_skipped_for_log(self):
        # ln(0) never enters when the belief rules the outcome out.
        report = Distribution.of(1, 0)
        assert expected_score(LogRule(), report, Distribution.of(1, 0)) == 0.0
        assert expected_score(
            LogRule(), report, Distribution.of("1/2", "1/2")
        ) == -math.inf


class TestPropernessProbe:
    def test_on_grid_belief_is_unique_argmax(self):
        belief = Distribution.of("2/5", "3/5")
        probe = properness_probe(QuadraticRule(), belief, steps=5)
        assert probe.unique
        assert probe.argmax == belief
        assert probe.best_value == expected_score(QuadraticRule(), belief, belief)

    def test_off_grid_belief_reports_tie_set(self):
        # (1/4, 3/4) is equidistant from the two nearest step-2 grid points.
        belief = Distribution.of("1/4", "3/4")
        probe = properness_probe(QuadraticRule(), belief, steps=2)
        assert not probe.unique
        assert set(probe.maximizers) == {
            Distribution.of(0, 1),
            Distribution.of("1/2", "1/2"),
        }
        assert probe.argmax == Distribution.of(0, 1)

    @pytest.mark.parametrize("steps", [2.5, True, "7", None, 2.0])
    def test_steps_that_are_not_an_int_are_refused(self, steps):
        belief = Distribution.of("1/2", "1/2")
        message = f"^steps must be an int, got {re.escape(repr(steps))}$"
        with pytest.raises(ValueError, match=message):
            properness_probe(QuadraticRule(), belief, steps)

    def test_log_rule_probe_finds_the_belief(self):
        belief = Distribution.of("1/2", "1/2")
        probe = properness_probe(LogRule(), belief, steps=4)
        assert probe.unique and probe.argmax == belief

    @given(st.integers(2, 4), st.data())
    def test_grid_beliefs_recovered_exactly(self, steps, data):
        belief = data.draw(st.sampled_from(list(simplex_lattice(2, steps))))
        probe = properness_probe(QuadraticRule(), belief, steps=steps)
        assert probe.unique and probe.argmax == belief
