"""Time the library's layers at a fixed shape and write one JSON record.

Each layer runs on seeded inputs at (m, n) = (4, 3): the alpha family at
a safe alpha, independent quadratic scoring, and a three-member
coalition.  A layer is timed ``--repeats`` times, each timing a fixed
number of calls (``NUMBERS``), in µs per call.  The timings run in
rounds, each layer once a round, with the ``calibrate`` loop of
``bench/run.py`` just before every timing.  The host drifts between a
fast and a slow state, so each timing is scaled to reference host speed
by its own calibration: the reference mean calibration over the one
taken just before it.  A layer keeps its median scaled figure (the lower
middle one, a real timing), with the calibration that scaled it, and its
best raw figure beside them.  The median does not follow the timings
that ran in one state after a calibration in the other, as the least
scaled figure would.

After the timed rounds, a pass of its own counts each layer's work per
call of the layer, over ``COUNTED`` calls made after one warm call:
under ``sys.settrace``, the bytecode instructions executed (``opcodes``)
and the Python function calls (``calls``), and in one more untraced
batch the ``Fraction``s built (``fractions``), counted as the benchmark
tracer counts them.  The counts include the timing harness's own loop,
the same for every change, and are exact and repeatable where timings
drift; opcodes and calls do not see work done in C (big integer
arithmetic, ``gcd``, ``sum``), and all three compare only under one
Python version, which the record names.

    python tools/layers.py --out BENCH_<n>.json [--repeats 30]

The record holds each layer's fixed inputs, so records from different
changes compare like with like; nothing in it depends on the timings but
the timings themselves.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import timeit
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from run import CALIBRATION_REF_MS, calibrate  # noqa: E402

from elicit import (  # noqa: E402
    ArbitrageFreeContract,
    CertificateKind,
    Coalition,
    IndependentScoring,
    QuadraticRule,
    ReportProfile,
    check_dominance,
    coalition_totals,
    properness_probe,
    simplex_lattice,
)
from elicit.arbitrage import _baseline_totals  # noqa: E402
from elicit.formats import fraction_str  # noqa: E402
from elicit.sampling import (  # noqa: E402
    DEFAULT_DENOMINATOR,
    random_deviation,
    random_distribution,
    random_profile,
)

M, N = 4, 3
SEED = 26
ALPHA = Fraction(-1)
MEMBERS = (0, 1, 2)
LATTICE_STEPS = 50
SEARCH_STEPS = 4
# Calls per timing: each timing takes a few milliseconds on a 2-core
# Xeon at Python 3.11, short enough that most timings fall in the same
# state as the calibration just before them, on a host that drifts
# between a fast and a slow one.
NUMBERS = {
    "evaluate": 300,
    "coalition_totals": 300,
    "check_dominance": 300,
    "random_distribution": 300,
    "simplex_lattice": 1,
    "properness_probe": 1,
    "search_check": 1000,
    "search_build": 1000,
}
# Calls per counted pass: the one-call layers run once.
COUNTED = {name: min(number, 20) for name, number in NUMBERS.items()}


def _row(report) -> list:
    return [fraction_str(w) for w in report.weights]


def _rows(profile: ReportProfile) -> list:
    return [_row(r) for r in profile.reports]


def layers() -> dict:
    """Each layer's description, fixed inputs, and a factory of its call.

    A factory takes the number of calls and returns a no-argument
    function that makes that many; whatever it builds first is outside
    the timing.
    """
    rng = random.Random(SEED)
    baseline = random_profile(rng, M, N)
    coalition = Coalition.of(MEMBERS)
    deviation = random_deviation(rng, baseline, coalition)
    belief = random_distribution(rng, N)
    family = ArbitrageFreeContract(alpha=ALPHA)
    quadratic = IndependentScoring(rule=QuadraticRule())
    family_totals = coalition_totals(family, baseline, coalition)
    # A search deviation of the benchmark's kind, built as a grid search
    # builds it, from one lattice entry paired with each member: every
    # member reports a lattice point, and the screen rejects it.
    point = list(simplex_lattice(N, SEARCH_STEPS))[1]
    paired = [(i, point) for i in MEMBERS]
    search_deviation = baseline.replace(dict(paired))
    decided = _baseline_totals(
        quadratic,
        baseline,
        coalition_totals(quadratic, baseline, coalition),
        CertificateKind.DOMINANCE,
    )
    common = {
        "m": M,
        "n": N,
        "seed": SEED,
        "baseline": _rows(baseline),
        "coalition": list(MEMBERS),
    }

    def evaluate(number):
        # Profile caches live on the profile, so every call gets its own.
        fresh = [ReportProfile(baseline.reports) for _ in range(number)]
        return lambda: [family.evaluate(p, 0) for p in fresh]

    def draws(number):
        stream = random.Random(SEED)
        return lambda: [random_distribution(stream, N) for _ in range(number)]

    def repeat(call):
        return lambda number: lambda: [call() for _ in range(number)]

    return {
        "evaluate": (
            "ArbitrageFreeContract.evaluate on outcome 1 of a fresh profile",
            {**common, "alpha": fraction_str(ALPHA)},
            evaluate,
        ),
        "coalition_totals": (
            "coalition_totals of the alpha family, profile caches warm",
            {**common, "alpha": fraction_str(ALPHA)},
            repeat(lambda: coalition_totals(family, baseline, coalition)),
        ),
        "check_dominance": (
            "check_dominance of the alpha family given the baseline totals",
            {
                **common,
                "alpha": fraction_str(ALPHA),
                "deviation": _rows(deviation),
            },
            repeat(
                lambda: check_dominance(
                    family, baseline, deviation, coalition, family_totals
                )
            ),
        ),
        "random_distribution": (
            "one random_distribution draw",
            {"n": N, "seed": SEED, "denominator": DEFAULT_DENOMINATOR},
            draws,
        ),
        "simplex_lattice": (
            "a full simplex_lattice sweep",
            {"n": N, "steps": LATTICE_STEPS},
            repeat(lambda: sum(1 for _ in simplex_lattice(N, LATTICE_STEPS))),
        ),
        "properness_probe": (
            "properness_probe of the quadratic rule over the lattice",
            {"n": N, "steps": LATTICE_STEPS, "belief": _row(belief)},
            repeat(
                lambda: properness_probe(QuadraticRule(), belief, LATTICE_STEPS)
            ),
        ),
        "search_check": (
            "one search deviation check: independent quadratic scoring, "
            "baseline totals decided once",
            {**common, "steps": SEARCH_STEPS, "point": _row(point)},
            repeat(
                lambda: check_dominance(
                    quadratic, baseline, search_deviation, coalition, decided
                )
            ),
        ),
        "search_build": (
            "one grid search deviation built by replace from paired "
            "lattice entries",
            {**common, "steps": SEARCH_STEPS, "point": _row(point)},
            repeat(lambda: baseline.replace(dict(paired))),
        ),
    }


def figures(samples) -> dict:
    """A layer's figures from its (calibration ms, µs per call) timings.

    Each timing is scaled by the calibration taken just before it; the
    median scaled figure (the lower middle one) is kept with that
    calibration, and the best raw figure beside them.
    """
    reference = CALIBRATION_REF_MS["mean"]
    ranked = sorted(samples, key=lambda sample: sample[1] / sample[0])
    ms, us = ranked[(len(ranked) - 1) // 2]
    return {
        "us_per_call": round(us * reference / ms, 3),
        "calibration_ms": round(ms, 3),
        "raw_us_per_call": round(min(raw for _, raw in samples), 3),
    }


def fractions_built(batch) -> int:
    """The ``Fraction``s that ``batch()`` builds.

    Counts each ``Fraction.__new__`` and, where it exists, each
    ``Fraction._from_coprime_ints``, which newer Pythons use to build
    arithmetic results without ``__new__``, as ``bench/spans.py`` does.
    Both are restored afterwards.
    """
    count = 0

    def counted(fn):
        def counting(*args, **kwargs):
            nonlocal count
            count += 1
            return fn(*args, **kwargs)

        return counting

    originals = {
        name: Fraction.__dict__[name]
        for name in ("__new__", "_from_coprime_ints")
        if name in Fraction.__dict__
    }
    try:
        # A staticmethod and a classmethod: wrap the function inside each
        # and keep its kind.
        for name, original in originals.items():
            setattr(Fraction, name, type(original)(counted(original.__func__)))
        batch()
    finally:
        for name, original in originals.items():
            setattr(Fraction, name, original)
    return count


def work(make, number: int) -> dict:
    """Opcodes, Python calls and Fractions per call of ``make(number)``'s batch.

    One fresh batch runs untraced first, so first-use caches are warm
    and a seeded stream restarts; a second fresh batch runs traced, and
    a third counts its ``Fraction``s untraced, so the counting wrappers'
    own frames stay out of the traced counts.
    """
    make(number)()
    opcodes = calls = 0

    def local(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def enter(frame, event, arg):
        nonlocal calls
        calls += 1
        frame.f_trace_opcodes = True
        return local

    batch = make(number)
    sys.settrace(enter)
    try:
        batch()
    finally:
        sys.settrace(None)
    fractions = fractions_built(make(number))
    return {
        "opcodes": round(opcodes / number, 3),
        "calls": round(calls / number, 3),
        "fractions": round(fractions / number, 3),
    }


def record(repeats: int) -> dict:
    table = layers()
    samples = {name: [] for name in table}
    for _ in range(repeats):
        for name, (_, _, make) in table.items():
            ms = calibrate() * 1000
            number = NUMBERS[name]
            us = timeit.Timer(make(number)).timeit(number=1) / number * 1e6
            samples[name].append((ms, us))
    counts = {
        name: work(make, COUNTED[name]) for name, (_, _, make) in table.items()
    }
    return {
        "python": platform.python_version(),
        "repeats": repeats,
        "reference_calibration_ms": CALIBRATION_REF_MS["mean"],
        "layers": {
            name: {
                "what": what,
                "inputs": inputs,
                "number": NUMBERS[name],
                **figures(samples[name]),
                **counts[name],
            }
            for name, (what, inputs, _) in table.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--repeats", type=int, default=30)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")
    result = record(args.repeats)
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
