"""The per-layer record of ``tools/layers.py``: its schema and fixed inputs.

The tool runs once with one timing per layer.  The times are only
checked to be positive numbers, scaled by the record's one calibration;
the inputs must be the seeded ones.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
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
}
FIELDS = {
    "what",
    "inputs",
    "number",
    "us_per_call",
    "raw_us_per_call",
}


def rows(profile):
    return [[fraction_str(w) for w in r.weights] for r in profile.reports]


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    out = tmp_path_factory.mktemp("layers") / "record.json"
    subprocess.run(
        [sys.executable, str(TOOL), "--out", str(out), "--repeats", "1"],
        check=True,
        timeout=120,
    )
    return json.loads(out.read_text())


def test_schema(record):
    assert set(record) == {
        "python", "repeats", "reference_calibration_ms", "calibration_ms",
        "layers",
    }
    assert record["repeats"] == 1
    assert isinstance(record["calibration_ms"], float)
    assert record["calibration_ms"] > 0
    assert set(record["layers"]) == LAYERS
    for entry in record["layers"].values():
        assert set(entry) == FIELDS
        assert type(entry["number"]) is int and entry["number"] > 0
        assert isinstance(entry["what"], str) and entry["what"]
        for key in ("us_per_call", "raw_us_per_call"):
            assert isinstance(entry[key], float) and entry[key] > 0


def test_one_factor_scales_every_layer(record):
    # Both figures and the calibration are rounded to 0.001.
    factor = record["reference_calibration_ms"] / record["calibration_ms"]
    for entry in record["layers"].values():
        assert entry["us_per_call"] == pytest.approx(
            entry["raw_us_per_call"] * factor, rel=1e-3, abs=0.003
        )


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
    assert layers["search_check"]["inputs"] == {
        **common, "steps": 4, "point": [fraction_str(w) for w in point.weights]
    }
