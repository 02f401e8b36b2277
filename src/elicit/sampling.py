"""Seeded random rational reports, profiles, coalitions and deviations.

Everything downstream compares exact rationals, so draws are snapped to a
fixed denominator instead of staying as floats.  A point is drawn uniformly
on the simplex by normalizing exponential spacings, scaled by the
denominator, floored, and the leftover units handed to the coordinates
with the largest fractional parts (ties to the lowest index).  The snap
yields integer counts that sum to the denominator; bounds are compared
as integer counts too, and each weight becomes a ``Fraction`` once, when
the ``Distribution`` is built (which re-checks the sum on integers).  All
randomness flows through an explicit ``random.Random`` instance, so any
result is reproducible from one seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional

from .simplex import Coalition, Distribution, ReportProfile, _as_fraction

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


def _snap(weights: list[float], denominator: int) -> list[int]:
    """Integer counts summing to ``denominator``, one per weight."""
    scaled = [w * denominator for w in weights]
    base = list(map(int, scaled))
    leftover = denominator - sum(base)
    if leftover:
        # leftover in [0, n): give one unit each to the largest fractional
        # parts; the sort is stable, so ties go to the lowest index
        gaps = [b - s for b, s in zip(base, scaled)]
        for k in sorted(range(len(gaps)), key=gaps.__getitem__)[:leftover]:
            base[k] += 1
    return base


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


def random_distribution(
    rng: random.Random,
    n: int,
    denominator: int = DEFAULT_DENOMINATOR,
    bounds: Optional[tuple[Fraction, Fraction]] = None,
) -> Distribution:
    """One uniform-ish rational point of the simplex at the given resolution.

    With ``bounds = (lo, hi)`` every snapped weight is forced into
    [lo, hi] by rejection; bounds must be exact rationals (floats are
    refused) and leave the simplex reachable (n*lo <= 1 <= n*hi).
    """
    if n < 2:
        raise ValueError(f"need at least 2 outcomes, got n={n}")
    if denominator < 1:
        raise ValueError(f"denominator must be >= 1, got {denominator}")
    if bounds is not None:
        lo, hi = exact_bounds(bounds)
        if n * lo > 1 or n * hi < 1:
            raise ValueError(
                f"bounds [{lo}, {hi}] admit no distribution over {n} outcomes"
            )
        # count / denominator lies in [lo, hi] exactly when the integer
        # count lies in [ceil(lo * denominator), floor(hi * denominator)]
        low = math.ceil(lo * denominator)
        high = math.floor(hi * denominator)
    for _ in range(_MAX_REJECTS):
        spacings = [rng.expovariate(1.0) for _ in range(n)]
        total = sum(spacings)
        counts = _snap([s / total for s in spacings], denominator)
        if bounds is None or all(low <= c <= high for c in counts):
            return Distribution(
                tuple([Fraction(c, denominator) for c in counts])
            )
    raise RuntimeError(
        f"could not draw a distribution within bounds {bounds} after "
        f"{_MAX_REJECTS} attempts; widen the bounds or the denominator"
    )


def random_profile(
    rng: random.Random,
    m: int,
    n: int,
    denominator: int = DEFAULT_DENOMINATOR,
) -> ReportProfile:
    """m independent random reports over n outcomes."""
    if m < 1:
        raise ValueError(f"need at least 1 expert, got m={m}")
    return ReportProfile(
        tuple(random_distribution(rng, n, denominator) for _ in range(m))
    )


def random_coalition(
    rng: random.Random, m: int, size: Optional[int] = None
) -> Coalition:
    """A uniformly drawn coalition of the given size (default: any >= 2)."""
    if m < 2:
        raise ValueError(f"need at least 2 experts, got m={m}")
    if size is None:
        size = rng.randint(2, m)
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

    Members draw in coalition order, one ``random_distribution`` each.
    """
    return baseline.replace(
        {
            i: random_distribution(rng, baseline.n, denominator, bounds)
            for i in coalition
        }
    )
