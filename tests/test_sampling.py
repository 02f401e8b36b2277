"""Seeded random draws: determinism, snapping, bounds, coalitions."""

from __future__ import annotations

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from elicit.sampling import (
    DEFAULT_DENOMINATOR,
    derived_rng,
    random_coalition,
    random_deviation,
    random_distribution,
    random_profile,
)
from elicit.simplex import Coalition, Distribution, ReportProfile


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

    @pytest.mark.parametrize(
        "n, denominator, bounds, shown",
        [
            # n * lo = 1, but no count lies in [3334, 3333].
            (3, 10**4, (Fraction(1, 3), Fraction(1, 3)), "1/3, 1/3"),
            # Counts in [0, 3] cannot reach 10 over 3 outcomes.
            (3, 10, (0, Fraction(1, 3)), "0, 1/3"),
            # Counts in [4, 10] overshoot 10 over 3 outcomes.
            (3, 10, (Fraction(3, 10) + Fraction(1, 100), 1), "31/100, 1"),
            # A unit denominator puts every weight at 0 or 1.
            (2, 1, (Fraction(1, 10), 1), "1/10, 1"),
        ],
        ids=["one-third", "high-too-low", "low-too-high", "unit-denominator"],
    )
    def test_refuses_bounds_no_count_row_meets_before_drawing(
        self, n, denominator, bounds, shown
    ):
        rng = derived_rng(1, "t")
        state = rng.getstate()
        message = (
            f"bounds [{shown}] admit no distribution over {n} outcomes "
            f"at denominator {denominator}"
        )
        with pytest.raises(ValueError) as caught:
            random_distribution(rng, n, denominator, bounds)
        assert str(caught.value) == message
        assert rng.getstate() == state

    def test_bounds_met_by_one_count_row_draw_it(self):
        rng = derived_rng(3, "t")
        half = Fraction(1, 2)
        d = random_distribution(rng, 2, denominator=2, bounds=(half, half))
        assert d.weights == (half, half)

    @pytest.mark.parametrize(
        "n, denominator, bounds, count",
        [
            # n * low = denominator: every count is low.
            (3, 9999, (Fraction(1, 3), Fraction(1, 3)), 3333),
            (3, 9, (Fraction(1, 3), 1), 3),
            # n * high = denominator: every count is high.
            (2, 10, (0, Fraction(1, 2)), 5),
            (4, 8, (Fraction(1, 10), Fraction(1, 4)), 2),
        ],
        ids=["one-third", "low-row", "high-row", "high-row-four"],
    )
    def test_bounds_one_count_row_meets_return_it_without_drawing(
        self, n, denominator, bounds, count
    ):
        rng = derived_rng(1, "t")
        state = rng.getstate()
        d = random_distribution(rng, n, denominator, bounds)
        assert d.weights == (Fraction(count, denominator),) * n
        assert rng.getstate() == state

    def test_refuses_float_bounds(self):
        rng = derived_rng(1, "t")
        with pytest.raises(TypeError, match="float"):
            random_distribution(rng, 2, bounds=(0.1, 0.9))
        with pytest.raises(TypeError, match="float"):
            random_distribution(rng, 2, bounds=(Fraction(1, 10), 0.9))
        # Exact bounds in any form still work: ints and strings.
        d = random_distribution(rng, 2, denominator=10, bounds=("1/10", 1))
        assert all(Fraction(1, 10) <= w <= 1 for w in d.weights)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_an_all_zero_attempt_is_drawn_again(self, n):
        # The first n random() calls return 0.0: every spacing of the first
        # attempt is zero, so it is rejected rather than divided by.
        class ZerosFirst:
            def __init__(self, rng):
                self.zeros, self.rng = n, rng

            def random(self):
                if self.zeros:
                    self.zeros -= 1
                    return 0.0
                return self.rng.random()

        stub = ZerosFirst(derived_rng(3, "t"))
        d = random_distribution(stub, n, 10)
        assert stub.zeros == 0
        assert d == random_distribution(derived_rng(3, "t"), n, 10)

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


def reference_deviation(rng, baseline, coalition, bounds):
    """The deviation through ``reference_draw`` and the validating profile."""
    reports = list(baseline.reports)
    for i in coalition:
        reports[i] = reference_draw(rng, baseline.n, DEFAULT_DENOMINATOR, bounds)
    return ReportProfile(tuple(reports))


@st.composite
def deviation_cases(draw):
    """A baseline, a coalition of any size and bounds."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    baseline = random_profile(derived_rng(draw(st.integers(0, 10**6)), "b"), m, n)
    size = draw(st.integers(1, m))
    coalition = Coalition.of(draw(st.permutations(range(m)))[:size])
    bounds = None
    if draw(st.booleans()):
        a = draw(st.fractions(0, 1, max_denominator=30))
        b = draw(st.fractions(0, 1, max_denominator=30))
        # lo <= 1/(2n) and hi >= 2/n keep a draw likely.
        bounds = (min(a, b, Fraction(1, 2 * n)), max(a, b, Fraction(2, n)))
    return baseline, coalition, bounds


class TestRandomDeviation:
    @pytest.mark.parametrize(
        "n, bounds, shown",
        [
            (3, (Fraction(1, 3), Fraction(1, 3)), "1/3, 1/3"),
            # Counts in [0, 2500] cannot reach 10**4 over 3 outcomes.
            (3, (0, Fraction(1, 4)), "0, 1/4"),
            # Counts in [6000, 10**4] overshoot 10**4 over 2 outcomes.
            (2, (Fraction(3, 5), 1), "3/5, 1"),
        ],
        ids=["one-third", "high-too-low", "low-too-high"],
    )
    def test_refuses_bounds_no_count_row_meets_before_drawing(
        self, n, bounds, shown
    ):
        rng = derived_rng(1, "t")
        state = rng.getstate()
        baseline = random_profile(derived_rng(2, "t"), 2, n)
        with pytest.raises(ValueError) as caught:
            random_deviation(rng, baseline, Coalition.full(2), bounds)
        assert str(caught.value) == (
            f"bounds [{shown}] admit no distribution over {n} outcomes "
            f"at denominator {DEFAULT_DENOMINATOR}"
        )
        assert rng.getstate() == state

    @pytest.mark.parametrize(
        "n, bounds",
        [
            # n * low = 10**4: every count is low.
            (4, (Fraction(1, 4), Fraction(1, 4))),
            (2, (Fraction(1, 2), 1)),
            # n * high = 10**4: every count is high.
            (2, (0, Fraction(1, 2))),
            (4, (Fraction(1, 10), Fraction(1, 4))),
        ],
        ids=["quarter", "low-row", "high-row", "high-row-four"],
    )
    def test_bounds_one_count_row_meets_return_it_without_drawing(
        self, n, bounds
    ):
        rng = derived_rng(1, "t")
        state = rng.getstate()
        baseline = random_profile(derived_rng(2, "t"), 2, n)
        deviation = random_deviation(rng, baseline, Coalition.full(2), bounds)
        share = Distribution((Fraction(1, n),) * n)
        assert deviation.reports == (share, share)
        assert rng.getstate() == state

    @given(st.integers(0, 10**6), deviation_cases())
    def test_matches_plain_fraction_reference(self, seed, case):
        baseline, coalition, bounds = case
        rng, ref = derived_rng(seed, "d"), derived_rng(seed, "d")
        for _ in range(2):
            got = random_deviation(rng, baseline, coalition, bounds)
            want = reference_deviation(ref, baseline, coalition, bounds)
            assert got.reports == want.reports
            assert (got.m, got.n) == (want.m, want.n)
            for a, b in zip(got.reports, want.reports):
                assert a.scaled == b.scaled and a.n == b.n
                assert hash(a) == hash(b) and repr(a) == repr(b)
                assert all(type(w) is Fraction for w in a.weights)
            assert got.scaled == want.scaled
            assert got == want and hash(got) == hash(want)
            assert repr(got) == repr(want)
            # Members draw and nobody else does: the others keep their
            # baseline report objects.
            assert all(
                got.reports[i] is baseline.reports[i]
                for i in range(baseline.m)
                if i not in coalition
            )
        assert rng.getstate() == ref.getstate()


@st.composite
def count_rows(draw):
    """Nonnegative counts summing to a denominator, often sharing a factor."""
    n = draw(st.integers(1, 6))
    total = draw(st.integers(1, 10**4))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    counts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    factor = draw(st.sampled_from([1, 1, 2, 6, 10**4]))
    return [c * factor for c in counts], total * factor


class TestFromCounts:
    @given(count_rows())
    def test_equals_validated_distribution(self, row):
        counts, denominator = row
        got = Distribution._from_counts(counts, denominator)
        want = Distribution(tuple(Fraction(c, denominator) for c in counts))
        assert type(got) is Distribution
        assert got.weights == want.weights
        assert all(type(w) is Fraction for w in got.weights)
        assert got.scaled == want.scaled and got.n == want.n
        assert got == want and hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert vars(got).keys() == vars(want).keys()
        assert got.quadratic_scores == want.quadratic_scores

    @given(count_rows())
    def test_weights_are_built_on_first_read(self, row):
        counts, denominator = row
        got = Distribution._from_counts(counts, denominator)
        assert "weights" not in vars(got)
        assert got.n == len(counts)
        assert "weights" not in vars(got)
        weights = got.weights
        assert vars(got)["weights"] is weights and got.weights is weights
        assert weights == tuple(Fraction(c, denominator) for c in counts)

    @given(count_rows())
    def test_unread_weights_match_in_every_copy(self, row):
        # Each check starts from a report whose weights were never read.
        counts, denominator = row
        want = Distribution(tuple(Fraction(c, denominator) for c in counts))

        def fresh():
            return Distribution._from_counts(counts, denominator)

        assert fresh().weights == want.weights
        assert fresh().scaled == want.scaled
        assert fresh() == want and want == fresh()
        assert hash(fresh()) == hash(want)
        assert repr(fresh()) == repr(want)
        assert dataclasses.replace(fresh()) == want
        assert dataclasses.asdict(fresh()) == dataclasses.asdict(want)
        for clone in (copy.deepcopy(fresh()), copy.copy(fresh())):
            assert clone == want and clone.scaled == want.scaled
        for original in (fresh(), want):
            clone = pickle.loads(pickle.dumps(original))
            assert type(clone) is Distribution
            assert clone.weights == want.weights
            assert clone.scaled == want.scaled and clone.n == want.n

    @pytest.mark.parametrize(
        "counts, denominator, scaled",
        [
            ((0, 10, 0), 10, (1, (0, 1, 0), 1)),
            ((2, 4, 4), 10, (5, (1, 2, 2), 9)),
            ((3, 3, 4), 10, (10, (3, 3, 4), 34)),
            ((5000, 0, 5000), 10**4, (2, (1, 0, 1), 2)),
        ],
        ids=["vertex", "shared-factor", "coprime", "zero-count"],
    )
    def test_scale_is_reduced(self, counts, denominator, scaled):
        assert Distribution._from_counts(counts, denominator).scaled == scaled


class TestRandomProfile:
    def test_shape_and_determinism(self):
        p1 = random_profile(derived_rng(5, "p"), m=4, n=3)
        p2 = random_profile(derived_rng(5, "p"), m=4, n=3)
        assert (p1.m, p1.n) == (4, 3)
        assert p1 == p2
        assert all(
            (w * DEFAULT_DENOMINATOR).denominator == 1
            for r in p1.reports
            for w in r.weights
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
