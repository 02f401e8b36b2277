"""Exact simplex primitives: distributions, profiles, coalitions, lattice."""

from __future__ import annotations

import copy
import dataclasses
import enum
import itertools
import math
import pickle
import re
from decimal import Decimal
from fractions import Fraction
from numbers import Rational
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from elicit import (
    ArbitrageFreeContract,
    Coalition,
    Distribution,
    ReportProfile,
    coalition_sums,
    leave_one_out_mean,
    mean_collusion,
    simplex_lattice,
    vertex,
)
from elicit.simplex import _as_fraction

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

    @pytest.mark.parametrize(
        "value, reason",
        [
            ("1e1000000", "its exponent exceeds 4300 in magnitude"),
            ("-1E-4301", "its exponent exceeds 4300 in magnitude"),
            (" 1e10000000\n", "its exponent exceeds 4300 in magnitude"),
            ("1e4300", "its numerator or denominator has more than 4300 digits"),
            (10**4300, "its numerator or denominator has more than 4300 digits"),
            (
                Fraction(1, 10**4300),
                "its numerator or denominator has more than 4300 digits",
            ),
        ],
        ids=[
            "huge-exponent",
            "negative-exponent",
            "padded",
            "text",
            "int",
            "fraction",
        ],
    )
    def test_refuses_values_too_long_to_print(self, value, reason):
        # The library shares the CLI's input limit, as a ValueError, and
        # refuses a huge exponent before building 10**e.
        for build in (
            lambda: Distribution.of(value, 1),
            lambda: ArbitrageFreeContract(alpha=value),
        ):
            with pytest.raises(ValueError) as info:
                build()
            shown = repr(value) if isinstance(value, str) else type(value).__name__
            assert str(info.value) == f"refusing {shown}: {reason}"
        assert ArbitrageFreeContract(alpha="1e4290").alpha == 10**4290
        assert Distribution.of("1e-4299", 1 - Fraction(1, 10**4299)).n == 2

    def test_exact_fraction_is_not_copied(self):
        f = Fraction(2, 5)
        assert _as_fraction(f) is f
        assert ArbitrageFreeContract(alpha=f).alpha is f
        with pytest.raises(ValueError, match="more than 4300 digits"):
            _as_fraction(Fraction(1, 10**4300))
        # Anything else still becomes a new plain Fraction.
        class Sub(Fraction):
            pass

        for value, equal in ((Sub(2, 5), f), (True, 1), ("2/5", f), (3, 3)):
            got = _as_fraction(value)
            assert type(got) is Fraction and got == equal
            assert got is not value

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            Distribution.of("1/2", "1/3")
        # Each weight prints, but their sum's denominator has 8598 digits.
        weights = (Fraction(1, 10**4299 - 1), Fraction(1, 10**4299 - 3))
        with pytest.raises(ValueError) as info:
            Distribution(weights)
        assert str(info.value) == (
            "weights do not sum to 1 (their sum has more than 4300 digits)"
        )

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="negative"):
            Distribution.of("3/2", "-1/2")
        # The negative weight's denominator has 4301 digits.
        w = Fraction(-1, 10**4300 + 1)
        with pytest.raises(ValueError) as info:
            Distribution((w, 1 - w))
        assert str(info.value) == (
            "negative weight (it has more than 4300 digits)"
        )
        # One digit fewer still prints.
        w = Fraction(-1, 10**4299 + 1)
        with pytest.raises(ValueError) as info:
            Distribution((w, 1 - w))
        assert str(info.value) == f"negative weight {w}"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Distribution.of()

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
            assert p.totals()[j] == sum(r.weights[j] for r in p.reports)
        assert sum(p.totals()) == p.m

    @given(st.one_of(profiles(max_m=5, max_n=4), fine_profiles()))
    def test_integer_caches_match_fresh_computation(self, p):
        scale = math.lcm(
            *(w.denominator for r in p.reports for w in r.weights)
        )
        rows = tuple(tuple(w * scale for w in r.weights) for r in p.reports)
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


def reference_replace(profile, changes):
    """``replace`` as a copy through the validating constructor.

    Each change is refused in key order, with the constructor's message
    for a value that is not a ``Distribution``.
    """
    reports = list(profile.reports)
    m, n = len(reports), reports[0].n
    for i, d in changes.items():
        if not 0 <= i < m:
            raise IndexError(f"expert {i} out of range for m={m}")
        if not isinstance(d, Distribution):
            raise TypeError(f"report {i} is not a Distribution")
        if d.n != n:
            raise ValueError(
                f"replacement for expert {i} has {d.n} outcomes, expected {n}"
            )
        reports[i] = d
    return ReportProfile(tuple(reports))


# A stand-in report with the right outcome count that is no Distribution.
NOT_A_REPORT = SimpleNamespace(n=2)
GOOD = Distribution.of(1, 0)
THREE = Distribution.of("1/3", "1/3", "1/3")


class Expert(enum.IntEnum):
    """Expert indices of an int subclass, which ``replace`` accepts."""

    FIRST = 0
    SECOND = 1
    THIRD = 2


class Marked(Distribution):
    """A Distribution subclass, which ``replace`` accepts."""


MARKED = Marked(GOOD.weights)
MARKED_THREE = Marked(THREE.weights)


class TestReplaceOracle:
    """``replace`` trusts the reports it keeps and checks the rest."""

    @given(st.one_of(profiles(max_m=5, max_n=4), fine_profiles()), st.data())
    def test_copy_equals_validated_profile(self, p, data):
        members = data.draw(st.sets(st.integers(0, p.m - 1)))
        changes = {i: data.draw(distributions(n=p.n)) for i in members}
        want = reference_replace(p, changes)
        calls = []
        original = ReportProfile.__post_init__
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                ReportProfile,
                "__post_init__",
                lambda self: calls.append(self) or original(self),
            )
            got = p.replace(changes)
        assert calls == []
        assert type(got) is ReportProfile
        assert got.reports == want.reports
        assert all(a is b for a, b in zip(got.reports, want.reports))
        assert (got.m, got.n) == (want.m, want.n) == (p.m, p.n)
        assert got.scaled == want.scaled
        assert got.scaled_totals == want.scaled_totals
        assert got == want and hash(got) == hash(want)
        assert repr(got) == repr(want)

    @pytest.mark.parametrize(
        "changes",
        [
            {2: GOOD},
            {-1: GOOD},
            {0: THREE},
            {0: ("1", "0")},
            {1: NOT_A_REPORT},
            {1: NOT_A_REPORT, 0: NOT_A_REPORT},
            {0: NOT_A_REPORT, 5: GOOD},
            {0: GOOD, 5: GOOD, 1: THREE},
            {0: GOOD, 1: THREE, 5: GOOD},
            {Expert.THIRD: GOOD},
            {0: MARKED_THREE},
            # The first pair is of the exact types a search swaps in
            # and passes; the second is refused by the checks in order.
            {0: GOOD, Expert.THIRD: GOOD},
            {0: GOOD, 2: GOOD},
            {0: GOOD, 1: NOT_A_REPORT},
            {0: GOOD, 1: MARKED_THREE},
            {0: GOOD, Expert.SECOND: THREE},
        ],
        ids=[
            "index-past-end", "negative-index", "outcome-count", "no-n",
            "not-a-distribution", "first-non-distribution",
            "bad-index-after-non-distribution", "first-bad-key-index",
            "first-bad-key-shape", "int-subclass-past-end",
            "subclass-outcome-count", "exact-then-int-subclass-past-end",
            "exact-then-past-end", "exact-then-not-a-distribution",
            "exact-then-subclass-outcome-count",
            "exact-then-int-subclass-outcome-count",
        ],
    )
    def test_refusals_match_validated_profile(self, changes):
        p = ReportProfile.of(("2/5", "3/5"), ("1/2", "1/2"))
        with pytest.raises(Exception) as want:
            reference_replace(p, changes)
        with pytest.raises(want.type) as got:
            p.replace(changes)
        assert type(got.value) is want.type
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "build",
        [
            lambda p: p.replace({0: "x"}),
            lambda p: p.replace({0: ("1/2", "1/2")}),
            lambda p: ReportProfile(("x",)),
        ],
        ids=["replace-str", "replace-tuple", "constructor-str"],
    )
    def test_a_value_that_is_no_distribution_is_a_type_error(self, build):
        p = ReportProfile.of(("1/2", "1/2"), ("1/3", "2/3"))
        with pytest.raises(TypeError, match=r"^report 0 is not a Distribution$"):
            build(p)

    @pytest.mark.parametrize(
        "key", [True, False, 1.0, "a", None, Fraction(1)],
        ids=["true", "false", "float", "str", "none", "fraction"],
    )
    def test_refuses_keys_that_are_not_int_indices(self, key):
        p = ReportProfile.of(("2/5", "3/5"), ("1/2", "1/2"))
        with pytest.raises(TypeError) as caught:
            p.replace({key: GOOD})
        assert str(caught.value) == f"expert index {key!r} is not an int"

    @pytest.mark.parametrize(
        "changes",
        [
            {Expert.SECOND: GOOD},
            {1: MARKED},
            {Expert.FIRST: MARKED},
            {0: GOOD, Expert.SECOND: MARKED},
        ],
        ids=[
            "int-subclass-key", "subclass-value", "both",
            "exact-then-both",
        ],
    )
    def test_pairs_off_the_exact_types_are_checked_and_kept(self, changes):
        p = ReportProfile.of(("2/5", "3/5"), ("1/2", "1/2"))
        got = p.replace(changes)
        want = reference_replace(p, changes)
        assert type(got) is ReportProfile
        assert all(a is b for a, b in zip(got.reports, want.reports))
        assert (got.m, got.n) == (2, 2)

    def test_a_bool_key_after_an_exact_pair_is_refused(self):
        p = ReportProfile.of(("2/5", "3/5"), ("1/2", "1/2"))
        reports = p.reports
        with pytest.raises(TypeError) as caught:
            p.replace({0: GOOD, True: GOOD})
        assert str(caught.value) == "expert index True is not an int"
        assert p.reports is reports

    def test_keys_are_checked_in_order(self):
        p = ReportProfile.of(("2/5", "3/5"), ("1/2", "1/2"))
        with pytest.raises(ValueError, match=r"^replacement for expert 0 has 3"):
            p.replace({0: THREE, "a": GOOD})
        with pytest.raises(TypeError, match=r"^expert index 'a' is not an int$"):
            p.replace({"a": THREE, 0: THREE})

    def test_int_subclass_keys_still_index(self):
        class Index(int):
            pass

        p = ReportProfile.of(("2/5", "3/5"), ("1/2", "1/2"))
        assert p.replace({Index(1): GOOD}).reports == (p.reports[0], GOOD)
        with pytest.raises(IndexError, match=r"^expert 2 out of range for m=2$"):
            p.replace({Index(2): GOOD})

    def test_shapes_are_instance_attributes(self):
        p = ReportProfile.of(("2/5", "3/5"), ("1/2", "1/2"), ("1", "0"))
        assert (vars(p)["m"], vars(p)["n"]) == (3, 2)
        assert vars(p.replace({0: GOOD}))["n"] == 2
        assert vars(p.reports[0])["n"] == 2
        assert "n" not in vars(Distribution) and "m" not in vars(ReportProfile)


# The first-use caches and the first line of each one's docstring.
FIRST_USE_CACHES = [
    (Distribution, "quadratic_scores", "The quadratic score of this report"),
    (Distribution, "weights", "The weights of a report built by"),
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
            for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
                assert clone == b and hash(clone) == hash(b)
                assert repr(clone) == repr(b)
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

    def test_rejects_bool_members(self):
        for make in (
            lambda: Coalition((False, True)),
            lambda: Coalition.of([True, 2]),
            lambda: Coalition((0, True)),
            lambda: Coalition.of([1, True]),
            lambda: Coalition.of(iter([2, 1, False])),
        ):
            with pytest.raises(ValueError, match=r"^bad expert index (True|False)$"):
                make()
        with pytest.raises(ValueError, match=r"^bad expert index 1\.0$"):
            Coalition.of([1, 1.0])


class TestAggregates:
    @given(profiles_with_coalitions())
    def test_coalition_sums_match_membership(self, pc):
        profile, coalition = pc
        assert coalition_sums(profile, coalition) == tuple(
            sum(profile.reports[i].weights[j] for i in coalition)
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
                assert loo.weights[j] == (
                    p.totals()[j] - p.reports[i].weights[j]
                ) / (p.m - 1)

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

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_points_equal_the_validated_construction(self, n):
        for steps in range(1, 9):
            got = list(simplex_lattice(n, steps))
            want = [
                Distribution(tuple(Fraction(k, steps) for k in ks))
                for ks in itertools.product(range(steps + 1), repeat=n)
                if sum(ks) == steps
            ]
            assert got == want
            for g, w in zip(got, want):
                assert type(g) is Distribution
                assert g.scaled == w.scaled and g.n == w.n
                assert g.weights == w.weights

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            list(simplex_lattice(2, 0))

    @pytest.mark.parametrize("steps", [2.5, True, "7", None, 2.0])
    def test_steps_that_are_not_an_int_are_refused(self, steps):
        # True would enumerate at steps = 1; 2.0 would fail inside range.
        message = f"^steps must be an int, got {re.escape(repr(steps))}$"
        with pytest.raises(ValueError, match=message):
            list(simplex_lattice(2, steps))

    @pytest.mark.parametrize("n", [2.5, True, "3", None])
    def test_outcome_count_that_is_not_an_int_is_refused(self, n):
        # 2.5 would recurse until Python's recursion limit.
        message = f"^n must be an int, got {re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            list(simplex_lattice(n, 2))
