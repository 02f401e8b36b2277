"""Seeded random draws: determinism, snapping, bounds, coalitions."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from elicit.sampling import (
    DEFAULT_DENOMINATOR,
    derived_rng,
    random_coalition,
    random_distribution,
    random_profile,
)
from elicit.simplex import Distribution


def reference_draw(rng, n, denominator, bounds=None):
    """One draw by the plain-Fraction rule: snap with a (gap, index) key,
    compare every weight with the bounds as Fractions."""
    for _ in range(10**4):
        spacings = [rng.expovariate(1.0) for _ in range(n)]
        total = sum(spacings)
        scaled = [s / total * denominator for s in spacings]
        base = [int(x) for x in scaled]
        order = sorted(range(n), key=lambda k: (base[k] - scaled[k], k))
        for k in order[: denominator - sum(base)]:
            base[k] += 1
        weights = tuple(Fraction(b, denominator) for b in base)
        if bounds is None or all(bounds[0] <= w <= bounds[1] for w in weights):
            return Distribution(weights)
    raise AssertionError("reference draw found nothing within the bounds")


class TestDerivedRng:
    def test_same_seed_and_label_reproduce(self):
        a = derived_rng(42, "stream").random()
        b = derived_rng(42, "stream").random()
        assert a == b

    def test_labels_give_independent_streams(self):
        assert derived_rng(42, "a").random() != derived_rng(42, "b").random()
        assert derived_rng(42, "a").random() != derived_rng(43, "a").random()

    def test_streams_are_isolated_from_consumption_order(self):
        rng_a = derived_rng(7, "a")
        rng_a.random()
        rng_a.random()
        fresh_b = derived_rng(7, "b").random()
        assert fresh_b == derived_rng(7, "b").random()


class TestRandomDistribution:
    @given(st.integers(0, 1000), st.integers(2, 5))
    def test_lands_exactly_on_the_simplex(self, seed, n):
        d = random_distribution(derived_rng(seed, "t"), n)
        assert sum(d.weights) == 1
        assert all(0 <= w <= 1 for w in d.weights)

    @given(st.integers(0, 1000), st.integers(2, 5), st.integers(10, 500))
    def test_respects_denominator(self, seed, n, denominator):
        d = random_distribution(derived_rng(seed, "t"), n, denominator=denominator)
        for w in d.weights:
            assert (w * denominator).denominator == 1

    @given(st.integers(0, 200))
    def test_respects_bounds(self, seed):
        lo, hi = Fraction(1, 50), Fraction(49, 50)
        d = random_distribution(
            derived_rng(seed, "t"), 2, denominator=100, bounds=(lo, hi)
        )
        assert all(lo <= w <= hi for w in d.weights)

    def test_rejects_unreachable_bounds(self):
        rng = derived_rng(1, "t")
        with pytest.raises(ValueError, match="no distribution"):
            random_distribution(rng, 2, bounds=(Fraction(3, 5), Fraction(9, 10)))
        with pytest.raises(ValueError, match="no distribution"):
            random_distribution(rng, 3, bounds=(Fraction(0), Fraction(1, 4)))

    @given(st.integers(0, 10**6), st.integers(2, 6), st.integers(1, 10**4))
    def test_matches_plain_fraction_reference(self, seed, n, denominator):
        rng, ref = derived_rng(seed, "t"), derived_rng(seed, "t")
        for _ in range(3):
            got = random_distribution(rng, n, denominator)
            assert got == reference_draw(ref, n, denominator)
        # The same numbers were consumed from the generator.
        assert rng.random() == ref.random()

    @given(
        st.integers(0, 10**6),
        st.integers(2, 4),
        st.integers(8, 60),
        st.fractions(0, 1, max_denominator=30),
        st.fractions(0, 1, max_denominator=30),
    )
    def test_bounded_matches_plain_fraction_reference(
        self, seed, n, denominator, a, b
    ):
        # Small denominators put counts right on the bounds, where the
        # integer test must round the same way as the Fraction test.
        # lo <= 1/(2n) and hi >= 2/n keep a draw likely at d >= 2n.
        bounds = (min(a, b, Fraction(1, 2 * n)), max(a, b, Fraction(2, n)))
        rng, ref = derived_rng(seed, "t"), derived_rng(seed, "t")
        for _ in range(3):
            got = random_distribution(rng, n, denominator, bounds)
            assert got == reference_draw(ref, n, denominator, bounds)
        assert rng.random() == ref.random()

    def test_refuses_float_bounds(self):
        rng = derived_rng(1, "t")
        with pytest.raises(TypeError, match="float"):
            random_distribution(rng, 2, bounds=(0.1, 0.9))
        with pytest.raises(TypeError, match="float"):
            random_distribution(rng, 2, bounds=(Fraction(1, 10), 0.9))
        # Exact bounds in any form still work: ints and strings.
        d = random_distribution(rng, 2, denominator=10, bounds=("1/10", 1))
        assert all(Fraction(1, 10) <= w <= 1 for w in d.weights)

    def test_rejects_bounds_that_are_not_a_pair(self):
        rng = derived_rng(1, "t")
        with pytest.raises(ValueError, match="pair"):
            random_distribution(rng, 2, bounds=(0, Fraction(1, 2), 1))

    def test_rejects_bad_shape(self):
        rng = derived_rng(1, "t")
        with pytest.raises(ValueError):
            random_distribution(rng, 1)
        with pytest.raises(ValueError):
            random_distribution(rng, 2, denominator=0)


class TestRandomProfile:
    def test_shape_and_determinism(self):
        p1 = random_profile(derived_rng(5, "p"), m=4, n=3)
        p2 = random_profile(derived_rng(5, "p"), m=4, n=3)
        assert (p1.m, p1.n) == (4, 3)
        assert p1 == p2
        assert all(
            (w * DEFAULT_DENOMINATOR).denominator == 1
            for r in p1.reports
            for w in r
        )


class TestRandomCoalition:
    @given(st.integers(0, 500), st.integers(2, 6))
    def test_default_sizes_cover_two_to_m(self, seed, m):
        c = random_coalition(derived_rng(seed, "c"), m)
        assert 2 <= c.size <= m
        assert all(0 <= i < m for i in c)

    def test_explicit_size(self):
        c = random_coalition(derived_rng(9, "c"), 5, size=3)
        assert c.size == 3

    def test_explicit_singleton_is_allowed(self):
        assert random_coalition(derived_rng(2, "c"), 3, size=1).size == 1

    def test_rejects_bad_sizes(self):
        rng = derived_rng(1, "c")
        with pytest.raises(ValueError):
            random_coalition(rng, 1)
        with pytest.raises(ValueError):
            random_coalition(rng, 3, size=0)
        with pytest.raises(ValueError):
            random_coalition(rng, 3, size=4)
