"""The per-layer record of ``tools/layers.py``: its schema and fixed inputs.

The tool runs twice with one timing per layer.  The times are only
checked to be positive numbers, each scaled by the calibration taken
just before it; the inputs must be the seeded ones, and the counted
work (opcodes, Python calls and Fractions built per call) must be the
same in both runs.  No test pins a count.
"""

from __future__ import annotations

import importlib.util
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from elicit import Coalition, simplex_lattice
from elicit.formats import fraction_str
from elicit.sampling import random_deviation, random_distribution, random_profile

TOOL = Path(__file__).resolve().parent.parent / "tools" / "layers.py"
LAYERS = {
    "evaluate",
    "coalition_totals",
    "check_dominance",
    "random_distribution",
    "simplex_lattice",
    "properness_probe",
    "search_check",
    "search_build",
}
FIELDS = {
    "what",
    "inputs",
    "number",
    "us_per_call",
    "raw_us_per_call",
    "calibration_ms",
    "opcodes",
    "calls",
    "fractions",
}
COUNTS = ("opcodes", "calls", "fractions")


def rows(profile):
    return [[fraction_str(w) for w in r.weights] for r in profile.reports]


def run_tool(tmp_path_factory):
    out = tmp_path_factory.mktemp("layers") / "record.json"
    subprocess.run(
        [sys.executable, str(TOOL), "--out", str(out), "--repeats", "1"],
        check=True,
        timeout=120,
    )
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    return run_tool(tmp_path_factory)


def test_schema(record):
    assert set(record) == {
        "python", "repeats", "reference_calibration_ms", "layers",
    }
    assert record["repeats"] == 1
    assert set(record["layers"]) == LAYERS
    for entry in record["layers"].values():
        assert set(entry) == FIELDS
        assert type(entry["number"]) is int and entry["number"] > 0
        assert isinstance(entry["what"], str) and entry["what"]
        for key in ("us_per_call", "raw_us_per_call", "calibration_ms"):
            assert isinstance(entry[key], float) and entry[key] > 0
        # Every layer runs Python code: at least the harness's own call.
        for key in ("opcodes", "calls"):
            assert isinstance(entry[key], float) and entry[key] >= 1
        # A layer may build no Fraction at all.
        assert isinstance(entry["fractions"], float) and entry["fractions"] >= 0


def test_two_runs_count_the_same_work(record, tmp_path_factory):
    again = run_tool(tmp_path_factory)["layers"]
    for name, entry in record["layers"].items():
        assert {k: entry[k] for k in COUNTS} == {
            k: again[name][k] for k in COUNTS
        }, name


def test_each_timing_is_scaled_by_its_own_calibration(record):
    # One repeat: a layer's one timing over the calibration taken just
    # before it.  All three figures are rounded to 0.001.
    reference = record["reference_calibration_ms"]
    for entry in record["layers"].values():
        assert entry["us_per_call"] == pytest.approx(
            entry["raw_us_per_call"] * reference / entry["calibration_ms"],
            rel=1e-3,
            abs=0.003,
        )


def load_tool():
    spec = importlib.util.spec_from_file_location("layers_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_median_scaled_and_best_raw_figures_are_kept_apart():
    tool = load_tool()
    reference = tool.CALIBRATION_REF_MS["mean"]
    # (calibration ms, µs per call).  Scaled, the timings read 0.6, 0.4,
    # 1.0 and 0.5 of the reference: the 0.4 ran fast after a slow
    # calibration, and the lower middle of the four is the 0.5.  The
    # fastest raw timing, 3.0, is kept beside it.
    samples = [(5.0, 3.0), (10.0, 4.0), (8.0, 8.0), (8.0, 4.0)]
    assert tool.figures(samples) == {
        "us_per_call": round(4.0 * reference / 8.0, 3),
        "calibration_ms": 8.0,
        "raw_us_per_call": 3.0,
    }
    # One timing is its own median.
    assert tool.figures([(4.0, 2.0)])["us_per_call"] == round(
        2.0 * reference / 4.0, 3
    )


def test_fractions_are_counted_and_the_constructors_restored():
    tool = load_tool()
    names = ("__new__", "_from_coprime_ints")
    originals = [Fraction.__dict__.get(name) for name in names]

    def restored():
        return all(
            Fraction.__dict__.get(name) is original
            for name, original in zip(names, originals)
        )

    assert tool.fractions_built(lambda: Fraction(1, 2)) == 1
    assert restored()
    with pytest.raises(ZeroDivisionError):
        tool.fractions_built(lambda: Fraction(1, 0))
    assert restored()


def test_inputs_are_the_seeded_ones(record):
    layers = record["layers"]
    rng = random.Random(26)
    baseline = random_profile(rng, 4, 3)
    deviation = random_deviation(rng, baseline, Coalition.of([0, 1, 2]))
    belief = random_distribution(rng, 3)
    common = {
        "m": 4, "n": 3, "seed": 26, "baseline": rows(baseline),
        "coalition": [0, 1, 2],
    }
    family = {**common, "alpha": "-1"}
    assert layers["evaluate"]["inputs"] == family
    assert layers["coalition_totals"]["inputs"] == family
    assert layers["check_dominance"]["inputs"] == {
        **family, "deviation": rows(deviation)
    }
    assert layers["random_distribution"]["inputs"] == {
        "n": 3, "seed": 26, "denominator": 10**4
    }
    assert layers["simplex_lattice"]["inputs"] == {"n": 3, "steps": 50}
    assert layers["properness_probe"]["inputs"] == {
        "n": 3, "steps": 50, "belief": [fraction_str(w) for w in belief.weights]
    }
    point = list(simplex_lattice(3, 4))[1]
    for name in ("search_check", "search_build"):
        assert layers[name]["inputs"] == {
            **common, "steps": 4,
            "point": [fraction_str(w) for w in point.weights],
        }
