"""Byte-exact CLI output against committed golden files.

The README promises that JSON output is byte-deterministic for a given
seed and budget.  Each case below runs one CLI command in-process and
compares its standard output with ``tests/golden/<name>.json`` byte for
byte, together with the exit code.  Speed-ups must leave these files
untouched; a change that is meant to alter the output regenerates them
with

    PYTHONPATH=src python tests/test_golden.py

and the diff of the golden files shows exactly what moved.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from click.testing import CliRunner

from elicit.cli import main

GOLDEN = Path(__file__).with_name("golden")
INTRO = "2/5,3/5; 1/2,1/2; 9/10,1/10"
BUDGET = (
    "--trials", "300", "--baselines", "5", "--profiles", "20",
    "--probes", "5", "--grid", "10",
)

# name -> (exit code, CLI arguments)
CASES = {
    "verify_all": (0, ("verify", *BUDGET, "--format", "json")),
    "verify_freeness_prone": (
        0,
        (
            "verify", "--suite", "freeness", "--alpha", "1", "--permissive",
            "--trials", "300", "--baselines", "5", "--format", "json",
        ),
    ),
    "search_certificate": (
        3,
        (
            "search", "--reports", INTRO, "--contract",
            "independent-quadratic", "--grid", "10", "--format", "json",
        ),
    ),
    "search_none": (
        0,
        (
            "search", "--reports", INTRO, "--contract", "nr", "--alpha",
            "-1", "--grid", "20", "--format", "json",
        ),
    ),
    "search_nr_random": (
        3,
        (
            "search", "--reports", INTRO, "--contract", "nr", "--alpha", "3",
            "--permissive", "--trials", "300", "--seed", "5", "--format",
            "json",
        ),
    ),
}


def _run(args) -> tuple[int, bytes]:
    result = CliRunner().invoke(main, list(args), catch_exceptions=False)
    return result.exit_code, result.stdout_bytes


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    code, args = CASES[name]
    got_code, got = _run(args)
    assert got_code == code
    assert got == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (code, args) in sorted(CASES.items()):
        got_code, got = _run(args)
        if got_code != code:
            raise SystemExit(f"{name}: exit {got_code}, expected {code}")
        (GOLDEN / f"{name}.json").write_bytes(got)
        print(f"wrote {name}.json ({len(got)} bytes)")
