"""Byte-exact CLI output against committed golden files.

The README promises that JSON output is byte-deterministic for a given
seed and budget.  Each case below runs one CLI command in-process and
compares its standard output with ``tests/golden/<name>.json`` byte for
byte, together with the exit code.  The table and CSV renderings of
every command are pinned the same way, in ``<name>.txt`` and
``<name>.csv``, and the ``--help`` text of the group and of every
command in ``help_<command>.txt``.  Speed-ups and refactors must leave
these files untouched; a change that is meant to alter the output
regenerates them with

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
    "score_quadratic": (0, ("score", "--reports", INTRO, "--format", "json")),
    "reward_nr_coalition_outcome": (
        0,
        (
            "reward", "--reports", "1/2,1/2; 1/2,1/2; 1/2,1/2", "--contract",
            "nr", "--alpha", "16", "--coalition", "1,3", "--outcome", "1",
            "--format", "json",
        ),
    ),
    "demo_intro": (0, ("demo-intro", "--format", "json")),
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


# name -> (exit code, CLI arguments); each runs as table and as CSV
TEXT_CASES = {
    "score_quadratic": CASES["score_quadratic"],
    "score_log_outcome": (
        0,
        (
            "score", "--reports", "2/5,3/5; 0,1; 9/10,1/10", "--contract",
            "independent-log", "--outcome", "1",
        ),
    ),
    "reward_nr_coalition_outcome": CASES["reward_nr_coalition_outcome"],
    "reward_log_coalition": (
        0,
        (
            "reward", "--reports", INTRO, "--contract", "independent-log",
            "--coalition", "1,2",
        ),
    ),
    "reward_zero_sum_pair": (
        0,
        ("reward", "--reports", "2/5,3/5; 9/10,1/10", "--contract",
         "zero-sum-pair"),
    ),
    "demo_intro": CASES["demo_intro"],
    "demo_intro_coalition": (0, ("demo-intro", "--coalition", "1,3")),
    "search_certificate": CASES["search_certificate"],
    "search_none": CASES["search_none"],
    "search_deviation_expected": (
        3,
        (
            "search", "--reports", INTRO, "--deviation",
            str(GOLDEN / "intro_mean_deviation.json"), "--expected",
        ),
    ),
    "verify_readme": (
        0,
        (
            "verify", "--suite", "identities,freeness", "--m-max", "3",
            "--n-max", "2", "--trials", "1000",
        ),
    ),
}
TEXT_FORMATS = {"txt": "table", "csv": "csv"}


def _text_case(file: str) -> tuple[int, tuple]:
    name, ext = file.rsplit(".", 1)
    code, args = TEXT_CASES[name]
    if "--format" in args:
        args = args[: args.index("--format")]
    return code, (*args, "--format", TEXT_FORMATS[ext])


TEXT_FILES = [f"{name}.{ext}" for name in TEXT_CASES for ext in TEXT_FORMATS]

# The --help text of the group and of each command, as the installed
# console script prints it to a pipe (80 columns, so 78 for click's text).
HELP_COMMANDS = ("elicit", "score", "reward", "demo-intro", "search", "verify")


def _run(args) -> tuple[int, bytes]:
    result = CliRunner().invoke(main, list(args), catch_exceptions=False)
    return result.exit_code, result.stdout_bytes


def _help(command: str) -> bytes:
    args = ["--help"] if command == "elicit" else [command, "--help"]
    result = CliRunner().invoke(
        main, args, prog_name="elicit", terminal_width=78,
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    return result.stdout_bytes


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    code, args = CASES[name]
    got_code, got = _run(args)
    assert got_code == code
    assert got == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("file", TEXT_FILES)
def test_text_output_matches_golden(file):
    code, args = _text_case(file)
    got_code, got = _run(args)
    assert got_code == code
    assert got == (GOLDEN / file).read_bytes()


@pytest.mark.parametrize("command", HELP_COMMANDS)
def test_help_matches_golden(command):
    assert _help(command) == (GOLDEN / f"help_{command}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, (code, args) in sorted(CASES.items()):
        got_code, got = _run(args)
        if got_code != code:
            raise SystemExit(f"{name}: exit {got_code}, expected {code}")
        (GOLDEN / f"{name}.json").write_bytes(got)
        print(f"wrote {name}.json ({len(got)} bytes)")
    for file in TEXT_FILES:
        code, args = _text_case(file)
        got_code, got = _run(args)
        if got_code != code:
            raise SystemExit(f"{file}: exit {got_code}, expected {code}")
        (GOLDEN / file).write_bytes(got)
        print(f"wrote {file} ({len(got)} bytes)")
    for command in HELP_COMMANDS:
        got = _help(command)
        (GOLDEN / f"help_{command}.txt").write_bytes(got)
        print(f"wrote help_{command}.txt ({len(got)} bytes)")
