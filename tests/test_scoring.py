"""Scoring rules: exact values, properness, affine closure, probes."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from elicit import (
    AffineRule,
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
from elicit.scoring import quadratic_score_float

from conftest import distributions, mixed_denominator_reports


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
            dist_sq = sum((w - (1 if k == j else 0)) ** 2 for k, w in enumerate(d))
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

    def test_float_variant_accepts_off_simplex_points(self):
        assert quadratic_score_float([0.5, 0.5], 0) == pytest.approx(0.5)
        off = quadratic_score_float([0.5, 0.6], 0)
        assert off == pytest.approx(2 * 0.5 - (0.25 + 0.36))


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


class TestAffineRule:
    def test_requires_positive_scale(self):
        with pytest.raises(ValueError, match="scale"):
            AffineRule(base=QuadraticRule(), scale=Fraction(0), shift=Fraction(1))
        with pytest.raises(ValueError, match="scale"):
            AffineRule(base=QuadraticRule(), scale=Fraction(-2), shift=Fraction(0))

    def test_transforms_scores(self):
        rule = AffineRule(base=QuadraticRule(), scale=Fraction(3), shift=Fraction(-1, 2))
        d = Distribution.of("2/5", "3/5")
        assert rule.score(d, 0) == 3 * Fraction(7, 25) - Fraction(1, 2)
        assert rule.exact

    def test_preserves_maximizer(self):
        # Positive-affine maps keep the argmax, hence strict properness.
        rule = AffineRule(base=QuadraticRule(), scale=Fraction(5), shift=Fraction(7))
        belief = Distribution.of("1/3", "2/3")
        probe = properness_probe(rule, belief, steps=3)
        assert probe.unique and probe.argmax == belief

    def test_wraps_float_rules(self):
        rule = AffineRule(base=LogRule(), scale=Fraction(2), shift=Fraction(0))
        assert not rule.exact
        assert rule.score(Distribution.of(1, 0), 1) == -math.inf


class TestExpectedScore:
    @given(distributions(n=3), distributions(n=3))
    def test_matches_direct_sum(self, report, belief):
        value = expected_score(QuadraticRule(), report, belief)
        assert value == sum(
            belief[j] * quadratic_score(report, j) for j in range(3)
        )

    @given(distributions(), st.data())
    def test_truthful_report_is_optimal(self, belief, data):
        other = data.draw(distributions(n=belief.n))
        truthful = expected_score(QuadraticRule(), belief, belief)
        alternative = expected_score(QuadraticRule(), other, belief)
        assert truthful >= alternative
        if other != belief:
            assert truthful > alternative

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

    def test_log_rule_probe_uses_tolerance(self):
        belief = Distribution.of("1/2", "1/2")
        probe = properness_probe(LogRule(), belief, steps=4, tolerance=1e-12)
        assert probe.unique and probe.argmax == belief

    @given(st.integers(2, 4), st.data())
    def test_grid_beliefs_recovered_exactly(self, steps, data):
        belief = data.draw(st.sampled_from(list(simplex_lattice(2, steps))))
        probe = properness_probe(QuadraticRule(), belief, steps=steps)
        assert probe.unique and probe.argmax == belief
