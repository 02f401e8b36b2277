"""Seeded random rational reports, profiles, coalitions and deviations.

Everything downstream compares exact rationals, so draws are snapped to a
fixed denominator instead of staying as floats.  A point is drawn uniformly
on the simplex by normalizing exponential spacings, scaled by the
denominator, floored, and the leftover units handed to the coordinates
with the largest fractional parts (ties to the lowest index).  One routine,
``_draw_counts``, does this on integers: it yields counts that sum to the
denominator, and bounds are compared as integer counts too.  Bounds that
no integer count can meet are refused before anything is drawn, and
bounds that one count row alone meets give that row without a draw.
``random_distribution`` turns one count row into a ``Distribution``
through the validating constructor (which re-checks the sum on
integers); ``random_deviation`` draws one count row per coalition member,
with the same generator use, and builds each report from counts it knows
are valid.  All randomness flows through an explicit ``random.Random``
instance, so any result is reproducible from one seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional

from .simplex import (
    Coalition, Distribution, ReportProfile, _as_fraction, _require_int,
    _require_shape,
)

__all__ = [
    "DEFAULT_DENOMINATOR",
    "exact_bounds",
    "random_distribution",
    "random_profile",
    "random_coalition",
    "random_deviation",
    "derived_rng",
]

DEFAULT_DENOMINATOR = 10**4

# Rejection-sampling cutoff for bounded draws; hitting it means the bounds
# leave (almost) no room at this denominator.
_MAX_REJECTS = 100_000


def derived_rng(seed: int, label: str) -> random.Random:
    """An independent generator for one named stream of a seeded run.

    Seeding with the combined string keeps streams stable when other
    streams change their consumption pattern.
    """
    return random.Random(f"{seed}:{label}")


def exact_bounds(bounds) -> tuple[Fraction, Fraction]:
    """``bounds`` as an exact pair (lo, hi) with 0 <= lo <= hi <= 1.

    Each bound is coerced as a report weight is: ints, Fractions and
    exact strings are accepted, and floats raise TypeError.
    """
    if len(bounds) != 2:
        raise ValueError(f"bounds must be a pair (lo, hi), got {bounds!r}")
    lo, hi = _as_fraction(bounds[0]), _as_fraction(bounds[1])
    if not 0 <= lo <= hi <= 1:
        raise ValueError(f"bad bounds [{lo}, {hi}]")
    return lo, hi


def _count_limits(
    n: int, denominator: int, bounds: Optional[tuple[Fraction, Fraction]]
) -> Optional[tuple[int, int]]:
    """The integer counts (low, high) that ``bounds`` allow, or None.

    count / denominator lies in [lo, hi] exactly when the integer count
    lies in [ceil(lo * denominator), floor(hi * denominator)].  Counts in
    [low, high] summing to the denominator exist exactly when
    n * low <= denominator <= n * high (which also rules out low > high),
    so bounds that fail this are refused before anything is drawn.
    """
    _require_int("n", n)
    _require_shape(n=n)
    _require_int("denominator", denominator, 1)
    if bounds is None:
        return None
    lo, hi = exact_bounds(bounds)
    low = math.ceil(lo * denominator)
    high = math.floor(hi * denominator)
    if not n * low <= denominator <= n * high:
        raise ValueError(
            f"bounds [{lo}, {hi}] admit no distribution over {n} outcomes "
            f"at denominator {denominator}"
        )
    return low, high


def _draw_counts(
    rng: random.Random,
    n: int,
    denominator: int,
    limits: Optional[tuple[int, int]],
) -> list[int]:
    """n integer counts summing to ``denominator``, within ``limits``.

    Each attempt normalizes n exponential spacings, scales them by the
    denominator and floors them; the leftover units, fewer than n, go one
    each to the largest fractional parts (the sort is stable, so ties go
    to the lowest index).  Attempts outside ``limits`` = (low, high) are
    rejected and drawn again, as is one of all-zero spacings (every
    ``random()`` returned 0.0).  A spacing is ``rng.expovariate(1.0)``
    written out: -log(1.0 - random()), since dividing by 1.0 changes no
    float; the draw uses the generator exactly as that call does.

    Limits with n * low = denominator or n * high = denominator admit one
    count row alone, every count denominator / n.  That row is returned
    at once, without using the generator: rejection would almost never
    meet it.
    """
    low, high = limits if limits is not None else (0, denominator)
    if limits is not None and denominator in (n * low, n * high):
        return [denominator // n] * n
    log, uniform = math.log, rng.random
    for _ in range(_MAX_REJECTS):
        spacings = [-log(1.0 - uniform()) for _ in range(n)]
        total = sum(spacings)
        if not total:
            continue
        scaled = [s / total * denominator for s in spacings]
        counts = list(map(int, scaled))
        leftover = denominator - sum(counts)
        if leftover:
            gaps = [c - x for c, x in zip(counts, scaled)]
            for k in sorted(range(n), key=gaps.__getitem__)[:leftover]:
                counts[k] += 1
        if limits is None or low <= min(counts) and max(counts) <= high:
            return counts
    raise RuntimeError(
        f"could not draw a distribution with counts in [{low}, {high}] "
        f"over {denominator} after {_MAX_REJECTS} attempts; widen the "
        f"bounds or the denominator"
    )


def random_distribution(
    rng: random.Random,
    n: int,
    denominator: int = DEFAULT_DENOMINATOR,
    bounds: Optional[tuple[Fraction, Fraction]] = None,
) -> Distribution:
    """One uniform-ish rational point of the simplex at the given resolution.

    With ``bounds = (lo, hi)`` every snapped weight is forced into
    [lo, hi] by rejection; bounds must be exact rationals (floats are
    refused) and some count row at this denominator must meet them
    (n * ceil(lo * denominator) <= denominator <= n * floor(hi *
    denominator)), or ValueError is raised before anything is drawn.
    """
    limits = _count_limits(n, denominator, bounds)
    counts = _draw_counts(rng, n, denominator, limits)
    return Distribution(tuple([Fraction(c, denominator) for c in counts]))


def random_profile(rng: random.Random, m: int, n: int) -> ReportProfile:
    """m independent random reports over n outcomes."""
    _require_int("m", m)
    if m < 1:
        raise ValueError(f"need at least 1 expert, got m={m}")
    return ReportProfile(tuple(random_distribution(rng, n) for _ in range(m)))


def random_coalition(
    rng: random.Random, m: int, size: Optional[int] = None
) -> Coalition:
    """A uniformly drawn coalition of the given size (default: any >= 2)."""
    _require_int("m", m)
    _require_shape(m=m)
    if size is None:
        size = rng.randint(2, m)
    _require_int("size", size)
    if not 1 <= size <= m:
        raise ValueError(f"coalition size {size} out of range for m={m}")
    return Coalition(tuple(sorted(rng.sample(range(m), size))))


def random_deviation(
    rng: random.Random,
    baseline: ReportProfile,
    coalition: Coalition,
    denominator: int = DEFAULT_DENOMINATOR,
    bounds: Optional[tuple[Fraction, Fraction]] = None,
) -> ReportProfile:
    """The baseline with a fresh random report for every coalition member.

    Members draw in coalition order, one count row each, using the
    generator exactly as one ``random_distribution`` each would, so the
    reports are the ones those calls return.  The bounds are checked once
    per deviation, and each report is built from its counts without
    validating them again.
    """
    n = baseline.n
    limits = _count_limits(n, denominator, bounds)
    return baseline.replace(
        {
            i: Distribution._from_counts(
                _draw_counts(rng, n, denominator, limits), denominator
            )
            for i in coalition
        }
    )
