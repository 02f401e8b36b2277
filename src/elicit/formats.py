"""Exact input parsing and deterministic output rendering.

Probabilities cross the boundary as text and are parsed exactly:
fraction strings like "2/5" and decimal strings like "0.4" both become
the same rational.  JSON floats are rejected rather than rounded, since a
binary float cannot round-trip a decimal probability.  Error messages use
1-based expert and outcome labels, matching everything the tool prints.

Rendering goes the other way: ``fraction_str`` is the one renderer of a
rational, as an exact fraction string, and refuses a value too long to
print; a decimal goes alongside where a human reads it, and JSON output is
byte-deterministic so runs with identical configuration diff clean.
"""

from __future__ import annotations

import decimal
import io
import json
import math
from csv import writer as csv_writer
from fractions import Fraction
from typing import Optional, Sequence

from .simplex import (
    Coalition,
    Distribution,
    ReportProfile,
    _as_fraction,
    _DigitLimitError,
    _MAX_DIGITS,
    _printable,
)

__all__ = [
    "InputError",
    "parse_rational",
    "parse_profile_json",
    "parse_inline_profile",
    "parse_coalition",
    "profile_to_obj",
    "fraction_str",
    "decimal_str",
    "decimal_value",
    "dumps",
    "csv_text",
]


class InputError(ValueError):
    """Malformed user input: bad file, bad number, bad shape."""


def parse_rational(text: str) -> Fraction:
    """Exact rational from "2/5", "0.4", or "-3" style text.

    A value whose numerator or denominator has more than 4300 digits is
    refused, since it could not be printed, and a decimal exponent above
    4300 in magnitude is refused before the value is built: building
    10**e takes seconds for e near 10**7.  The rule is the library's
    (``simplex._as_fraction``); here it raises ``InputError``.
    """
    if isinstance(text, float):
        raise InputError(
            f"refusing float {text!r}; write the value as a string"
        )
    try:
        return _as_fraction(str(text))
    except _DigitLimitError as exc:
        raise InputError(str(exc)) from None
    except (ValueError, ZeroDivisionError):
        raise InputError(
            f"cannot parse {text!r} as a rational; use a fraction like "
            f"'2/5' or a decimal like '0.4'"
        ) from None


def _parse_rows(rows: Sequence[Sequence], n: Optional[int]) -> ReportProfile:
    """Profile from rows of cell values, one row per expert.

    Each row's weights are summed once, by the ``Distribution`` built from
    them; only a row it refuses is summed again, as a Fraction, to name
    that sum in the error.
    """
    if not rows:
        raise InputError("no expert reports given")
    dists = []
    for r, row in enumerate(rows, start=1):
        if n is not None and len(row) != n:
            raise InputError(
                f"row {r} has {len(row)} entries, expected n={n}"
            )
        weights = []
        for c, cell in enumerate(row, start=1):
            if isinstance(cell, float):
                raise InputError(
                    f"row {r} entry {c} is a JSON float; write it as a "
                    f"string like \"0.4\" so it parses exactly"
                )
            try:
                value = parse_rational(cell)
            except InputError:
                raise InputError(
                    f"row {r} entry {c}: cannot parse {cell!r} as a "
                    f"rational"
                ) from None
            if value < 0:
                raise InputError(f"row {r} entry {c} is negative: {value}")
            weights.append(value)
        if len(weights) < 2:
            raise InputError(f"row {r} has fewer than 2 outcomes")
        try:
            dists.append(Distribution(tuple(weights)))
        except ValueError:
            # The weights are nonnegative rationals, so the sum is all the
            # report can refuse.
            total = sum(weights)
            if not _printable(total):
                raise InputError(
                    f"row {r} does not sum to 1 (its sum has more than "
                    f"{_MAX_DIGITS} digits)"
                ) from None
            raise InputError(f"row {r} sums to {total}, not 1") from None
    lengths = {d.n for d in dists}
    if len(lengths) > 1:
        raise InputError(
            f"rows disagree on the number of outcomes: {sorted(lengths)}"
        )
    return ReportProfile(tuple(dists))


def parse_profile_json(text: str) -> ReportProfile:
    """Profile from the JSON schema {"n": int, "reports": [["2/5", ...]]}."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    except ValueError:
        # json.loads builds each JSON integer with int(), which refuses
        # more digits than the int-to-text limit.
        raise InputError(
            f"invalid JSON: a number has more than {_MAX_DIGITS} digits"
        ) from None
    except RecursionError:
        raise InputError(
            "invalid JSON: arrays or objects nest too deeply"
        ) from None
    if not isinstance(obj, dict):
        raise InputError("top-level JSON value must be an object")
    if "reports" not in obj:
        raise InputError('missing "reports" key')
    reports = obj["reports"]
    if not isinstance(reports, list) or not all(
        isinstance(r, list) for r in reports
    ):
        raise InputError('"reports" must be a list of lists')
    n = obj.get("n")
    if n is not None and (not isinstance(n, int) or n < 2):
        raise InputError(f'"n" must be an integer >= 2, got {n!r}')
    return _parse_rows(reports, n)


def parse_inline_profile(text: str) -> ReportProfile:
    """Profile from inline text: rows split by ';', entries by ','."""
    rows = [
        [cell.strip() for cell in row.split(",")]
        for row in text.split(";")
        if row.strip()
    ]
    return _parse_rows(rows, None)


def parse_coalition(text: str, m: int) -> Coalition:
    """Coalition from 1-based text like "1,3"; stored 0-based."""
    members = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            label = int(part)
        except ValueError:
            raise InputError(
                f"coalition member {part!r} is not an integer"
            ) from None
        if not 1 <= label <= m:
            raise InputError(
                f"coalition member {label} out of range for {m} experts "
                f"(use 1-based labels 1..{m})"
            )
        members.append(label - 1)
    if not members:
        raise InputError("coalition is empty")
    return Coalition.of(members)


def profile_to_obj(profile: ReportProfile) -> dict:
    """The input-schema JSON object for a profile (lossless round-trip)."""
    return {
        "n": profile.n,
        "reports": [
            [fraction_str(w) for w in r.weights] for r in profile.reports
        ],
    }


def fraction_str(value) -> str:
    """Exact text like "2/5"; ``InputError`` past the int-to-text limit."""
    value = Fraction(value)
    if not _printable(value):
        raise InputError(f"a result is too long to print: over {_MAX_DIGITS} digits")
    return str(value)


def decimal_str(value) -> str:
    """Short decimal rendering of a rational or float, for table cells."""
    x = decimal_value(value)
    if isinstance(x, str):
        return x
    if math.isfinite(x):
        return f"{x:.6g}"
    return str(x)


def decimal_value(value):
    """The value as a float, or as ``%.6g`` text when no float holds it.

    A rational beyond float range (a payment at alpha = 1e400, say) is
    rounded exactly, half to even, to 6 significant digits and written in
    the style ``%.6g`` gives a float of that size, such as ``1e+400``
    (normalized, its exponent is positive, so ``g`` writes it that way).
    """
    try:
        return float(value)
    except OverflowError:
        pass
    with decimal.localcontext() as ctx:
        ctx.prec = 6
        ctx.rounding = decimal.ROUND_HALF_EVEN
        ctx.Emax = decimal.MAX_EMAX
        x = (decimal.Decimal(value.numerator) / value.denominator).normalize()
    return format(x, "g")


def _clean(value):
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, float):
        # JSON has no Infinity/NaN; spell them out as strings.
        return value if math.isfinite(value) else str(value)
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def dumps(obj: dict) -> str:
    """Deterministic JSON text: sorted keys, fixed layout, trailing newline."""
    return json.dumps(_clean(obj), sort_keys=True, indent=2) + "\n"


def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """RFC-4180-style CSV (CRLF line endings); None is an empty cell."""
    buf = io.StringIO()
    w = csv_writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([fraction_str(v) if isinstance(v, Fraction) else v for v in row])
    return buf.getvalue()
