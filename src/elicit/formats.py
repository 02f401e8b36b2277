"""Exact input parsing and deterministic output rendering.

Probabilities cross the boundary as text and are parsed exactly:
fraction strings like "2/5" and decimal strings like "0.4" both become
the same rational.  JSON floats are rejected rather than rounded, since a
binary float cannot round-trip a decimal probability.  Error messages use
1-based expert and outcome labels, matching everything the tool prints.

Rendering goes the other way: every rational is emitted as a fraction
string (and a decimal where a human will read it), and JSON output is
byte-deterministic so runs with identical configuration diff clean.
"""

from __future__ import annotations

import io
import json
import math
from csv import writer as csv_writer
from fractions import Fraction
from typing import Optional, Sequence

from .simplex import Coalition, Distribution, ReportProfile

__all__ = [
    "InputError",
    "parse_rational",
    "parse_profile_json",
    "parse_inline_profile",
    "parse_coalition",
    "profile_to_obj",
    "fraction_str",
    "decimal_str",
    "dumps",
    "csv_text",
]


class InputError(ValueError):
    """Malformed user input: bad file, bad number, bad shape."""


def parse_rational(text: str) -> Fraction:
    """Exact rational from "2/5", "0.4", or "-3" style text."""
    if isinstance(text, float):
        raise InputError(
            f"refusing float {text!r}; write the value as a string"
        )
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise InputError(
            f"cannot parse {text!r} as a rational; use a fraction like "
            f"'2/5' or a decimal like '0.4'"
        ) from None


def _parse_rows(rows: Sequence[Sequence], n: Optional[int]) -> ReportProfile:
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
        total = sum(weights)
        if total != 1:
            raise InputError(f"row {r} sums to {total}, not 1")
        dists.append(Distribution(tuple(weights)))
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
            [str(w) for w in r.weights] for r in profile.reports
        ],
    }


def fraction_str(value) -> str:
    return str(Fraction(value))


def decimal_str(value) -> str:
    """Short decimal rendering of a rational or float, for table cells."""
    x = float(value)
    if math.isfinite(x):
        return f"{x:.6g}"
    return str(x)


def _clean(value):
    if isinstance(value, Fraction):
        return str(value)
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
    """RFC-4180-style CSV (CRLF line endings) from header plus rows."""
    buf = io.StringIO()
    w = csv_writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow(["" if v is None else str(v) for v in row])
    return buf.getvalue()
