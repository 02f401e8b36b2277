"""Shared strategies, fixtures and reference formulas for the test suite.

All strategies emit exact rationals only; probability weights are built
as integer counts over a common denominator so every drawn object sits
exactly on the simplex.  The reference formulas use plain Fraction
arithmetic on the weights and none of the library's integer forms.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import settings, strategies as st

from elicit import Coalition, Distribution, ReportProfile, vertex

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@st.composite
def distributions(draw, n: int | None = None, max_n: int = 4, resolution: int = 12):
    """An exact rational distribution; weights are multiples of 1/total."""
    if n is None:
        n = draw(st.integers(2, max_n))
    counts = draw(
        st.lists(st.integers(0, resolution), min_size=n, max_size=n).filter(
            lambda c: sum(c) > 0
        )
    )
    total = sum(counts)
    return Distribution.of(*(Fraction(c, total) for c in counts))


@st.composite
def profiles(draw, m: int | None = None, n: int | None = None, max_m: int = 4, max_n: int = 3):
    if m is None:
        m = draw(st.integers(2, max_m))
    if n is None:
        n = draw(st.integers(2, max_n))
    return ReportProfile.of(*(draw(distributions(n=n)) for _ in range(m)))


@st.composite
def mixed_denominator_reports(draw, n: int | None = None, max_n: int = 6):
    """A report whose weights each have their own denominator up to 10**6.

    Half of the draws are vertices.
    """
    if n is None:
        n = draw(st.integers(2, max_n))
    if draw(st.booleans()):
        return vertex(n, draw(st.integers(0, n - 1)))
    weights, left = [], Fraction(1)
    for _ in range(n - 1):
        den = draw(st.integers(1, 10**6))
        w = Fraction(draw(st.integers(0, math.floor(left * den))), den)
        weights.append(w)
        left -= w
    weights.append(left)
    return Distribution(tuple(draw(st.permutations(weights))))


@st.composite
def fine_profiles(draw, max_m: int = 5, max_n: int = 4):
    """A profile of ``mixed_denominator_reports``."""
    m = draw(st.integers(2, max_m))
    n = draw(st.integers(2, max_n))
    return ReportProfile(
        tuple(draw(mixed_denominator_reports(n=n)) for _ in range(m))
    )


@st.composite
def profiles_with_coalitions(draw, max_m: int = 4, max_n: int = 3):
    profile = draw(profiles(max_m=max_m, max_n=max_n))
    size = draw(st.integers(2, profile.m))
    members = draw(st.permutations(range(profile.m)))[:size]
    return profile, Coalition.of(members)


@st.composite
def outcome_indices(draw, n: int):
    return draw(st.integers(0, n - 1))


def plain_quadratic(w, j):
    """The quadratic score 2*w[j] - sum(w**2) on any weight sequence."""
    return 2 * w[j] - sum(p * p for p in w)


def plain_reward(profile: ReportProfile, i: int, j: int, alpha: Fraction):
    """Expert i's alpha-family payment on outcome j, in plain Fractions."""
    m, n = profile.m, profile.n
    others = [
        sum(profile.reports[o].weights[k] for o in range(m) if o != i) / (m - 1)
        for k in range(n)
    ]
    return (
        plain_quadratic(profile.reports[i].weights, j)
        - (m - 1) ** 2 * plain_quadratic(others, j)
        + alpha * others[j]
    )
