"""Exact simplex primitives: distributions, profiles, coalitions, lattice."""

from __future__ import annotations

import dataclasses
import math
from decimal import Decimal
from fractions import Fraction
from numbers import Rational

import pytest
from hypothesis import given, strategies as st

from elicit import (
    Coalition,
    Distribution,
    ReportProfile,
    coalition_sums,
    leave_one_out_mean,
    mean_collusion,
    simplex_lattice,
    vertex,
)

from conftest import (
    distributions,
    fine_profiles,
    mixed_denominator_reports,
    profiles,
    profiles_with_coalitions,
)


class TestDistribution:
    def test_of_accepts_strings_ints_fractions(self):
        d = Distribution.of("2/5", Fraction(3, 5))
        assert d.weights == (Fraction(2, 5), Fraction(3, 5))
        assert Distribution.of(1, 0).weights == (Fraction(1), Fraction(0))
        assert Distribution.of("0.4", "0.6").weights == (Fraction(2, 5), Fraction(3, 5))

    def test_rejects_floats(self):
        with pytest.raises(TypeError, match="float"):
            Distribution.of(0.4, 0.6)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            Distribution.of("1/2", "1/3")

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="negative"):
            Distribution.of("3/2", "-1/2")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Distribution.of()

    def test_sequence_protocol(self):
        d = Distribution.of("1/4", "3/4")
        assert d.n == 2
        assert len(d) == 2
        assert d[1] == Fraction(3, 4)
        assert list(d) == [Fraction(1, 4), Fraction(3, 4)]

    @given(distributions())
    def test_invariants(self, d):
        assert sum(d.weights) == 1
        assert all(w >= 0 for w in d.weights)

    def test_vertex(self):
        assert vertex(3, 1).weights == (0, 1, 0)
        with pytest.raises(IndexError):
            vertex(3, 3)


def reference_validate(weights):
    """The plain-Fraction validation rule: the error it raises, or None."""
    try:
        if not weights:
            raise ValueError("a distribution needs at least one outcome")
        for w in weights:
            if isinstance(w, float) or not isinstance(w, Rational):
                raise TypeError(f"weight {w!r} is not an exact rational")
            if w < 0:
                raise ValueError(f"negative weight {w}")
        total = sum(weights)
        if total != 1:
            raise ValueError(f"weights sum to {Fraction(total)}, not 1")
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def weight_lists(draw):
    """Mostly exact simplex points with per-weight denominators up to 10**6,
    some nudged off by 1/10**6, negated, or holding a float, Decimal or int.
    """
    weights = list(draw(mixed_denominator_reports()).weights)
    k = draw(st.integers(0, len(weights) - 1))
    change = draw(
        st.sampled_from(
            ["none", "none", "up", "down", "negate", "float", "decimal", "int"]
        )
    )
    if change == "up":
        weights[k] += Fraction(1, 10**6)
    elif change == "down":
        weights[k] -= Fraction(1, 10**6)
    elif change == "negate":
        weights[k] = -weights[k]
    elif change == "float":
        weights[k] = float(weights[k])
    elif change == "decimal":
        weights[k] = Decimal(weights[k].numerator) / weights[k].denominator
    elif change == "int":
        weights[k] = draw(st.integers(-2, 2))
    return tuple(weights)


class TestIntegerValidation:
    """Integer validation against the plain-Fraction reference rule."""

    @given(weight_lists())
    def test_accepts_and_rejects_as_reference(self, weights):
        want = reference_validate(weights)
        try:
            d = Distribution(weights)
        except (TypeError, ValueError) as exc:
            assert (type(exc), str(exc)) == want
            return
        assert want is None
        scale = math.lcm(*(w.denominator for w in weights))
        counts = tuple(w.numerator * (scale // w.denominator) for w in weights)
        assert d.scaled == (scale, counts, sum(c * c for c in counts))

    @pytest.mark.parametrize(
        "weights",
        [
            (),
            (Fraction(1),),
            (Fraction(1, 2), 0.5),
            (0.5, Fraction(-1, 2), Fraction(1)),
            (Fraction(-1, 2), 0.5, Fraction(1)),
            (Decimal("0.5"), Fraction(1, 2)),
            ("1/2", Fraction(1, 2)),
            (True, False),
            (1, 1),
            (Fraction(1, 3), Fraction(1, 3)),
            (Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**6)),
        ],
    )
    def test_edge_cases_match_reference(self, weights):
        want = reference_validate(weights)
        if want is None:
            assert Distribution(weights).scaled[0] == 1
            return
        with pytest.raises(want[0]) as info:
            Distribution(weights)
        assert str(info.value) == want[1]


class TestReportProfile:
    def test_of_and_shape(self):
        p = ReportProfile.of(("2/5", "3/5"), ("1/2", "1/2"))
        assert (p.m, p.n) == (2, 2)
        assert p.reports[0] == Distribution.of("2/5", "3/5")

    def test_rejects_mismatched_outcome_counts(self):
        with pytest.raises(ValueError, match="outcome"):
            ReportProfile.of(("1/2", "1/2"), ("1/3", "1/3", "1/3"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ReportProfile.of()

    @given(profiles())
    def test_totals_are_column_sums(self, p):
        for j in range(p.n):
            assert p.totals()[j] == sum(r[j] for r in p.reports)
        assert sum(p.totals()) == p.m

    @given(st.one_of(profiles(max_m=5, max_n=4), fine_profiles()))
    def test_integer_caches_match_fresh_computation(self, p):
        scale = math.lcm(*(w.denominator for r in p.reports for w in r))
        rows = tuple(tuple(w * scale for w in r) for r in p.reports)
        assert p.scaled == (scale, rows)
        totals = tuple(t * scale for t in p.totals())
        others = [[t - x for t, x in zip(totals, a)] for a in rows]
        assert p.scaled_totals == (
            totals,
            tuple(
                sum(y * y for y in b) - sum(x * x for x in a)
                for a, b in zip(rows, others)
            ),
        )

    def test_replace_swaps_only_given_rows(self):
        p = ReportProfile.of(("2/5", "3/5"), ("1/2", "1/2"))
        q = p.replace({0: Distribution.of(1, 0)})
        assert q.reports[0] == Distribution.of(1, 0)
        assert q.reports[1] == p.reports[1]
        assert p.reports[0] == Distribution.of("2/5", "3/5")

    def test_replace_rejects_wrong_shape(self):
        p = ReportProfile.of(("1/2", "1/2"), ("1/2", "1/2"))
        with pytest.raises(ValueError):
            p.replace({0: Distribution.of("1/3", "1/3", "1/3")})
        with pytest.raises(IndexError):
            p.replace({2: Distribution.of(1, 0)})

    def test_replace_error_texts(self):
        p = ReportProfile.of(("1/2", "1/2"), ("1/2", "1/2"))
        with pytest.raises(IndexError, match=r"^expert 2 out of range for m=2$"):
            p.replace({2: Distribution.of(1, 0)})
        with pytest.raises(IndexError, match=r"^expert -1 out of range for m=2$"):
            p.replace({-1: Distribution.of(1, 0)})
        with pytest.raises(
            ValueError,
            match=r"^replacement for expert 0 has 3 outcomes, expected 2$",
        ):
            p.replace({0: Distribution.of("1/3", "1/3", "1/3")})

    def test_replace_reports_first_bad_key_and_leaves_source(self):
        p = ReportProfile.of(("2/5", "3/5"), ("1/2", "1/2"))
        reports = p.reports
        good = Distribution.of(1, 0)
        three = Distribution.of("1/3", "1/3", "1/3")
        with pytest.raises(IndexError, match=r"^expert 5 out of range"):
            p.replace({0: good, 5: good, 1: three})
        with pytest.raises(ValueError, match=r"^replacement for expert 1 "):
            p.replace({0: good, 1: three, 5: good})
        assert p.reports is reports
        assert p == ReportProfile.of(("2/5", "3/5"), ("1/2", "1/2"))


# The first-use caches and the first line of each one's docstring.
FIRST_USE_CACHES = [
    (Distribution, "quadratic_scores", "The quadratic score of this report"),
    (ReportProfile, "scaled", "The reports as integers over one common"),
    (ReportProfile, "scaled_totals", "The column totals over the same D"),
]


class TestFirstUseCaches:
    @pytest.mark.parametrize("cls, name, doc", FIRST_USE_CACHES)
    def test_class_access_returns_the_descriptor(self, cls, name, doc):
        descriptor = getattr(cls, name)
        assert descriptor is cls.__dict__[name]
        assert descriptor.__doc__.startswith(doc)
        assert descriptor.__doc__ == descriptor.func.__doc__

    def test_value_is_stored_on_the_instance(self):
        p = ReportProfile.of(("2/5", "3/5"), ("1/3", "2/3"))
        d = p.reports[0]
        cached = ((p, "scaled"), (p, "scaled_totals"), (d, "quadratic_scores"))
        for obj, name in cached:
            assert name not in vars(obj)
            value = getattr(obj, name)
            assert vars(obj)[name] is value
            assert getattr(obj, name) is value

    def test_caches_leave_fields_eq_hash_and_repr_alone(self):
        rows = (("2/5", "3/5"), ("1/3", "2/3"))
        used, fresh = ReportProfile.of(*rows), ReportProfile.of(*rows)
        used.scaled_totals
        for r in used.reports:
            r.quadratic_scores
        pairs = [(used, fresh)] + list(zip(used.reports, fresh.reports))
        for a, b in pairs:
            assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert [f.name for f in dataclasses.fields(ReportProfile)] == ["reports"]
        assert [f.name for f in dataclasses.fields(Distribution)] == ["weights"]


class TestCoalition:
    def test_of_sorts_and_dedups(self):
        assert tuple(Coalition.of([2, 0, 2])) == (0, 2)

    def test_full(self):
        assert tuple(Coalition.full(3)) == (0, 1, 2)

    def test_membership_and_size(self):
        c = Coalition.of([0, 2])
        assert c.size == 2
        assert 2 in c and 1 not in c

    def test_validate_for(self):
        with pytest.raises(ValueError, match="expert"):
            Coalition.of([0, 3]).validate_for(3)
        Coalition.of([0, 2]).validate_for(3)

    def test_rejects_negative_member(self):
        with pytest.raises(ValueError):
            Coalition.of([-1, 0])

    def test_complement(self):
        assert Coalition.of([0, 2]).complement(4) == (1, 3)
        assert Coalition.full(3).complement(3) == ()


class TestAggregates:
    @given(profiles_with_coalitions())
    def test_coalition_sums_match_membership(self, pc):
        profile, coalition = pc
        assert coalition_sums(profile, coalition) == tuple(
            sum(profile.reports[i][j] for i in coalition)
            for j in range(profile.n)
        )

    @given(fine_profiles(max_m=6, max_n=5), st.data())
    def test_coalition_sums_match_plain_fraction_sums(self, profile, data):
        members = data.draw(
            st.lists(st.integers(0, profile.m - 1), min_size=1, unique=True)
        )
        coalition = Coalition.of(members)
        want = tuple(
            sum(profile.reports[i].weights[j] for i in coalition)
            for j in range(profile.n)
        )
        assert coalition_sums(profile, coalition) == want

    @given(profiles_with_coalitions())
    def test_coalition_mean_is_scaled_sum(self, pc):
        profile, coalition = pc
        deviation = mean_collusion(profile, coalition)
        sums = coalition_sums(profile, coalition)
        for i in range(profile.m):
            if i in coalition:
                assert deviation.reports[i].weights == tuple(
                    s / coalition.size for s in sums
                )
            else:
                assert deviation.reports[i] == profile.reports[i]

    @given(profiles())
    def test_leave_one_out_mean(self, p):
        for i in range(p.m):
            loo = leave_one_out_mean(p, i)
            for j in range(p.n):
                assert loo[j] == (p.totals()[j] - p.reports[i][j]) / (p.m - 1)

    def test_leave_one_out_needs_two_experts(self):
        solo = ReportProfile.of(("1/2", "1/2"))
        with pytest.raises(ValueError):
            leave_one_out_mean(solo, 0)


class TestLattice:
    def test_small_case_exact(self):
        pts = list(simplex_lattice(2, 2))
        assert [p.weights for p in pts] == [
            (Fraction(0), Fraction(1)),
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1), Fraction(0)),
        ]

    @given(st.integers(2, 4), st.integers(1, 6))
    def test_count_and_membership(self, n, steps):
        pts = list(simplex_lattice(n, steps))
        assert len(pts) == math.comb(steps + n - 1, n - 1)
        assert len(set(pts)) == len(pts)
        for p in pts:
            assert all((w * steps).denominator == 1 for w in p.weights)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            list(simplex_lattice(2, 0))
