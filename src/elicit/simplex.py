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
every combination, builds its n scores once.  Their denominator D**2 and
integer numerators are cached the same way, as one pair
(``_score_row``); the dominance screen of independent quadratic scoring
sums the members' rows of them over a running denominator.
``ReportProfile.scaled`` rescales the reports' counts to one common D,
and ``ReportProfile.scaled_totals`` holds the integer column totals and
per-expert sums that the alpha family's ``evaluate`` needs, once per
profile.  These first-use caches (``_cached``) store their value in the
instance ``__dict__`` and take no lock, so a cache hit is a plain
attribute lookup and a miss costs only the computation; none is a
dataclass field, so eq, hash and repr ignore them.

Shapes are set once: construction stores a report's outcome count ``n``
and a profile's ``m`` and ``n`` as plain instance attributes, the way
``scaled`` is stored, so reading them calls nothing.  ``replace`` checks
each swapped-in report's index (an int, not a bool), outcome count and
type, and trusts the reports it keeps, which come from a valid profile:
the copy is built without validating them again.  In the same way
``Distribution._from_counts`` builds a report from integer counts its
caller knows are valid (a random draw's count row, a lattice point): one
gcd of the denominator and the counts gives the reduced scale D, and
``scaled`` and ``n`` are set without the validating pass.  Such a report
builds its n weight ``Fraction``s only when ``weights`` is first read, so
a deviation that is only scored on its integer counts never builds them.

A value that could not be printed is refused: by default Python will not
convert an int of more than 4300 digits to or from text
(``sys.get_int_max_str_digits``), so ``_as_fraction`` refuses a
numerator or denominator that long.  Text with a decimal exponent above
4300 in magnitude is refused before it is built, since 10**e takes a
noticeable fraction of a second for e in the millions.

Expert and outcome indices are 0-based throughout the library.  The
command-line layer translates to and from 1-based labels for display.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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


# Python's default limit on the digits of an int converted to or from text
# (sys.get_int_max_str_digits): a rational whose numerator or denominator
# has more digits cannot be printed.
_MAX_DIGITS = 4300
_DIGITS_BOUND = 10**_MAX_DIGITS


def _printable(value: Fraction) -> bool:
    """Whether the int-to-text limit lets ``str(value)`` print a Fraction."""
    return max(value.denominator, abs(value.numerator)) < _DIGITS_BOUND


class _DigitLimitError(ValueError):
    """A rational too long to print."""

    def __init__(self, value, reason: str) -> None:
        # Text is quoted; any other value is too long to print itself.
        shown = repr(value) if isinstance(value, str) else type(value).__name__
        super().__init__(f"refusing {shown}: {reason}")


def _as_fraction(value) -> Fraction:
    """Coerce to Fraction, refusing floats and values too long to print.

    Floats raise TypeError (binary rounding is not exact).  A value whose
    numerator or denominator has more than _MAX_DIGITS digits raises
    ``_DigitLimitError``, a ValueError.  Text whose decimal exponent
    exceeds _MAX_DIGITS in magnitude is refused before it is built, since
    10**e takes seconds for e near 10**7.  A printable ``Fraction`` (not
    a subclass) is returned as it is, without a copy.
    """
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: pass a Fraction, int, or string "
            f"(e.g. '2/5' or '0.4') so the value stays exact"
        )
    if isinstance(value, str):
        # Fraction allows surrounding whitespace; the exponent is last.
        exponent = value.lower().partition("e")[2].rstrip()
        if exponent[:1] in ("+", "-"):
            exponent = exponent[1:]
        digits = exponent.replace("_", "").lstrip("0")
        if digits.isdecimal() and (
            len(digits) > 4 or int(digits) > _MAX_DIGITS
        ):
            raise _DigitLimitError(
                value, f"its exponent exceeds {_MAX_DIGITS} in magnitude"
            )
    result = value if type(value) is Fraction else Fraction(value)
    if not _printable(result):
        raise _DigitLimitError(
            value,
            f"its numerator or denominator has more than {_MAX_DIGITS} digits",
        )
    return result


def _require_int(name: str, value, low: int | None = None) -> None:
    """Refuse a bool or non-int count, seed or resolution, or one below low."""
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, int)
    ):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _require_shape(m: int = 2, n: int = 2) -> None:
    """Refuse fewer than 2 experts or 2 outcomes; an omitted count passes."""
    if m < 2:
        raise ValueError(f"need at least 2 experts, got m={m}")
    if n < 2:
        raise ValueError(f"need at least 2 outcomes, got n={n}")


def _require_index(kind: str, i: int, size: int) -> None:
    """Refuse an ``"expert"`` or ``"outcome"`` index that is not an int (a
    bool is refused) or lies outside range(size)."""
    if type(i) is not int and (isinstance(i, bool) or not isinstance(i, int)):
        raise TypeError(f"{kind} index {i!r} is not an int")
    if not 0 <= i < size:
        shape = "m" if kind == "expert" else "n"
        raise IndexError(f"{kind} {i} out of range for {shape}={size}")


@dataclass(frozen=True)
class Distribution:
    """A point of the probability simplex with exact rational weights.

    Invariants: every weight is >= 0 and the weights sum to exactly 1.
    Construction rejects anything else; there is no silent renormalization.

    Construction also sets ``n``, the number of outcomes, and ``scaled`` =
    (D, counts, square): D the lcm of the weight denominators, counts[j] =
    D * weight j as an integer, and square the sum of the squared counts.
    ``quadratic_scores`` is derived from it on first use and cached on the
    report.  ``weights`` is set at construction, except for a report
    built by ``_from_counts``: there it is built from ``scaled`` on first
    read and stored on the report, so eq, hash, repr, copies and pickles
    see the same weights either way.
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
                if not _printable(w):
                    raise ValueError(
                        f"negative weight (it has more than {_MAX_DIGITS} "
                        f"digits)"
                    )
                raise ValueError(f"negative weight {w}")
            if scale % d:
                scale = lcm(scale, d)
            ratios.append((p, d))
        counts = tuple([p * (scale // d) for p, d in ratios])
        total = sum(counts)
        if total != scale:
            total = Fraction(total, scale)
            if not _printable(total):
                raise ValueError(
                    f"weights do not sum to 1 (their sum has more than "
                    f"{_MAX_DIGITS} digits)"
                )
            raise ValueError(f"weights sum to {total}, not 1")
        object.__setattr__(
            self, "scaled", (scale, counts, sum([c * c for c in counts]))
        )
        object.__setattr__(self, "n", len(weights))

    @classmethod
    def of(cls, *values) -> "Distribution":
        """Build from ints, Fractions, or exact strings like '2/5' / '0.4'."""
        return cls(tuple(_as_fraction(v) for v in values))

    @classmethod
    def _from_counts(cls, counts, denominator: int) -> "Distribution":
        """The report with weights count / denominator, for valid counts.

        The caller guarantees nonnegative integer counts that sum to
        ``denominator``; nothing is checked.  One gcd of the denominator
        and every count gives the lcm of the reduced weights'
        denominators, so ``scaled`` equals what the validating
        constructor builds from the same weights.  Only ``scaled`` and
        ``n`` are set here; ``weights`` is built on its first read.
        """
        common = gcd(denominator, *counts)
        if common > 1:
            denominator //= common
            counts = [c // common for c in counts]
        counts = tuple(counts)
        report = object.__new__(cls)
        report.__dict__.update(
            scaled=(denominator, counts, sum([c * c for c in counts])),
            n=len(counts),
        )
        return report

    @_cached
    def _score_row(self) -> tuple[int, tuple[int, ...]]:
        """The quadratic score's denominator D**2 and its numerators.

        With (D, c, square) = ``scaled``, the score at j is
        2*w_j - sum(w**2) = (2*D*c_j - square) / D**2.  The one place that
        numerator is written: ``quadratic_scores`` and the dominance
        screen of independent quadratic scoring read the pair.  Built once
        per report on first use.
        """
        scale, counts, square = self.scaled
        return scale * scale, tuple([2 * scale * c - square for c in counts])

    @_cached
    def quadratic_scores(self) -> tuple[Fraction, ...]:
        """The quadratic score of this report at every outcome.

        Each ``_score_row`` numerator over its D**2: one ``Fraction`` per
        outcome, built once per report on first use.
        """
        denominator, numerators = self._score_row
        return tuple([Fraction(x, denominator) for x in numerators])


def _weights_from_counts(report: Distribution) -> tuple[Fraction, ...]:
    """The weights of a report built by ``Distribution._from_counts``.

    Such a report holds only ``scaled``; its weights, counts[j] / D, are
    built on first read and stored on the report.  A report built by the
    constructor holds its weights in the instance ``__dict__``, which
    attribute lookup finds before this class-level descriptor.
    """
    scale, counts, _ = report.scaled
    return tuple([Fraction(c, scale) for c in counts])


# Set once the dataclass exists: in the class body a class attribute named
# like a field would be taken as the field's default.  A class-level
# descriptor keeps attribute lookup on reports generic, which the
# interpreter's attribute caches need; a ``__getattr__`` would not.
Distribution.weights = _cached(_weights_from_counts)
Distribution.weights.__set_name__(Distribution, "weights")


def vertex(n: int, j: int) -> Distribution:
    """The distribution putting all mass on outcome j."""
    _require_int("n", n)
    _require_shape(n=n)
    _require_index("outcome", j, n)
    return Distribution(tuple(Fraction(1 if k == j else 0) for k in range(n)))


@dataclass(frozen=True)
class ReportProfile:
    """An ordered tuple of expert reports sharing one outcome space.

    Construction sets ``m``, the number of experts, and ``n``, the number
    of outcomes.
    """

    reports: tuple[Distribution, ...]

    def __post_init__(self) -> None:
        reports = self.reports
        if not reports:
            raise ValueError("a profile needs at least one expert")
        if not isinstance(reports[0], Distribution):
            raise TypeError("report 0 is not a Distribution")
        n = reports[0].n
        _require_shape(n=n)
        for i, r in enumerate(reports):
            if not isinstance(r, Distribution):
                raise TypeError(f"report {i} is not a Distribution")
            if r.n != n:
                raise ValueError(
                    f"report {i} has {r.n} outcomes, expected {n}"
                )
        object.__setattr__(self, "m", len(reports))
        object.__setattr__(self, "n", n)

    @classmethod
    def of(cls, *rows) -> "ReportProfile":
        """Build from Distributions or per-expert weight iterables."""
        dists = tuple(
            row if isinstance(row, Distribution) else Distribution.of(*row)
            for row in rows
        )
        return cls(dists)

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
        """A copy with the given experts' reports swapped out.

        Each key must be an int expert index (a bool is refused, as
        ``Coalition`` refuses it), and each swapped-in value is checked
        here, with the constructor's messages; the reports it keeps come
        from this valid profile, so the copy is built without re-running
        ``__post_init__`` over them.  The report check tests the exact
        ``Distribution`` type first, the type every grid search swaps in.
        """
        reports = list(self.reports)
        m, n = self.m, self.n
        for i, d in changes.items():
            # Inline, not _require_index: this runs per member per deviation.
            if type(i) is not int and (
                isinstance(i, bool) or not isinstance(i, int)
            ):
                raise TypeError(f"expert index {i!r} is not an int")
            if not 0 <= i < m:
                raise IndexError(f"expert {i} out of range for m={m}")
            if type(d) is not Distribution and not isinstance(d, Distribution):
                raise TypeError(f"report {i} is not a Distribution")
            if d.n != n:
                raise ValueError(
                    f"replacement for expert {i} has {d.n} outcomes, "
                    f"expected {n}"
                )
            reports[i] = d
        copy = object.__new__(ReportProfile)
        attributes = copy.__dict__
        attributes["reports"] = tuple(reports)
        attributes["m"] = m
        attributes["n"] = n
        return copy


@dataclass(frozen=True)
class Coalition:
    """A nonempty, sorted, duplicate-free set of expert indices."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a coalition must be nonempty")
        prev = -1
        for i in self.members:
            _check_expert_index(i)
            if i <= prev:
                raise ValueError(
                    f"members must be strictly increasing, got {self.members}"
                )
            prev = i

    @classmethod
    def of(cls, indices: Iterable[int]) -> "Coalition":
        """Build from any iterable of indices; sorts and deduplicates.

        Every index is checked before deduplication, which would let
        ``True`` or ``1.0`` pass as the equal ``1`` it meets first.
        """
        indices = tuple(indices)
        for i in indices:
            _check_expert_index(i)
        return cls(tuple(sorted(set(indices))))

    @classmethod
    def full(cls, m: int) -> "Coalition":
        """The grand coalition of all m experts."""
        _require_int("m", m)
        return cls(tuple(range(m)))

    @property
    def size(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def validate_for(self, m: int) -> None:
        if self.members[-1] >= m:
            raise ValueError(
                f"coalition {self.members} includes an expert >= m={m}"
            )


def _check_expert_index(i) -> None:
    # bool is an int subclass, but True is no expert index.
    if not isinstance(i, int) or isinstance(i, bool) or i < 0:
        raise ValueError(f"bad expert index {i!r}")


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
    _require_index("expert", i, profile.m)
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
    n > 3.  Each point is built from its counts (``_from_counts``), which
    are valid by construction.  ``n`` and ``steps`` must be ints, not
    bools; like the range checks, this runs when the first point is drawn.
    It stays a generator function: the benchmark's tracer counts lattice
    points only in generator functions, not in one returning a generator.
    """
    _require_int("n", n)
    _require_shape(n=n)
    _require_int("steps", steps, 1)
    for ks in _compositions(steps, n):
        yield Distribution._from_counts(ks, steps)
