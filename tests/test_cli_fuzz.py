"""Seeded CLI fuzzing: hostile arguments exit with a documented code.

Each invocation runs the command in process with random, often hostile,
arguments: rationals too long to print or with huge exponents, ragged or
malformed profiles, bad coalitions, unknown formats and tiny or invalid
budgets.  Whatever the input, the command must exit with one of the
documented codes and must never end in a traceback.  Budgets stay small,
so every run finishes in well under a second.
"""

from __future__ import annotations

import random

from click.testing import CliRunner

from elicit.cli import main

EXIT_CODES = {0, 1, 2, 3, 64, 70}

# Each pool is (valid values, hostile values); a hostile one is drawn now
# and then, so most invocations get past parsing into the commands' work.
RATIONALS = (
    ["1e6", "1e9", "1e400", "-1e-4299", "-1", "0", "5/3", "16", "-10",
     "0.1", "1/3", "-0", "1_000"],
    ["1e4300", "1e-4301", "1/0", "nan", "inf", "-inf", "abc", "", " ",
     "10**5", "1" * 5000],
)
REPORTS = (
    ["2/5,3/5; 1/2,1/2; 9/10,1/10", "1,0; 0,1", "1/3,1/3,1/3; 1,0,0; 0,1/2,1/2",
     "1,0,0; 0,1,0; 0,0,1", "0.5,0.5; 0.25,0.75; 1,0; 0,1",
     "1e-4299,1-1e-4299; 1/2,1/2"],
    ["1/2,1/2", "0.4,0.6; 1e400,0", "1/2,1/2; 1/2", "", ";", "a,b; c,d",
     "-1,2; 1/2,1/2", "1/0,1; 1,0", "1e-4299,1; 1,0", "3/5,3/5; 1/2,1/2"],
)
COALITIONS = (
    ["1,2", "2,1", " 1 , 2 ", "1"],
    ["", "0", "1,1", "9", "a", "-1", "1,2,3,4,5"],
)
FORMATS = (["table", "json", "csv"], ["xml"])
CONTRACTS = (
    ["independent-quadratic", "independent-log", "zero-sum-pair", "nr"],
    ["bogus"],
)
OUTCOMES = (["1", "2"], ["0", "-1", "9", "x"])
SUITES = [
    "identities", "freeness", "properness", "collusion", "structure",
    "edge-case", "expected-arbitrage", "witness",
]
# Budgets stay tiny: hostile values are refused, valid ones run fast.
BUDGETS = {
    "--m-max": (["2", "3"], ["1", "x"]),
    "--n-max": (["2", "3"], ["1", "-3"]),
    "--trials": (["1", "3"], ["-1", "0", "1000001", "2.5"]),
    "--baselines": (["1", "2"], ["0"]),
    "--profiles": (["1", "2"], ["-1", "x"]),
    "--probes": (["1", "2"], ["0"]),
    "--grid": (["3", "4"], ["0", "1", "2", "x"]),
    "--seed": (["1", "-7", "99999999999999999999999"], ["x", "1.5"]),
}


def _pick(rng, pool, hostile=0.1):
    valid, bad = pool
    return rng.choice(bad if rng.random() < hostile else valid)


def _maybe(rng, args, flag, pool, p=0.5):
    if rng.random() < p:
        args += [flag, _pick(rng, pool)]


def _profile(rng, args):
    if rng.random() < 0.97:
        args += ["--reports", _pick(rng, REPORTS, 0.2)]
    else:
        args += ["--input", "no-such-profile.json"]


def _score(rng):
    args = ["score"]
    _profile(rng, args)
    _maybe(rng, args, "--contract", (CONTRACTS[0][:2], ["nr"]))
    _maybe(rng, args, "--outcome", OUTCOMES, 0.3)
    return args


def _contract(rng, args):
    _maybe(rng, args, "--contract", CONTRACTS, 0.8)
    if "nr" in args or rng.random() < 0.1:
        _maybe(rng, args, "--alpha", RATIONALS, 0.9)
    if rng.random() < 0.3:
        args.append("--permissive")


def _reward(rng):
    args = ["reward"]
    _profile(rng, args)
    _contract(rng, args)
    _maybe(rng, args, "--coalition", COALITIONS)
    _maybe(rng, args, "--outcome", OUTCOMES, 0.3)
    return args


def _demo(rng):
    args = ["demo-intro"]
    _maybe(rng, args, "--coalition", COALITIONS)
    return args


def _search(rng):
    args = ["search"]
    _profile(rng, args)
    _contract(rng, args)
    _maybe(rng, args, "--coalition", COALITIONS, 0.4)
    # Exactly one of --grid and --trials, now and then both or neither.
    modes = rng.choice([["--grid"], ["--trials"]] * 5 + [[], ["--grid", "--trials"]])
    if "--grid" in modes:
        args += ["--grid", _pick(rng, (["2", "3"], ["-1", "0", "1", "x"]))]
    if "--trials" in modes:
        args += ["--trials", _pick(rng, (["1", "5"], ["-1", "0", "1000001"]))]
        _maybe(rng, args, "--seed", BUDGETS["--seed"], 0.9)
    if rng.random() < 0.3:
        args.append("--expected")
    return args


def _verify(rng):
    if rng.random() < 0.95:
        chosen = rng.sample(SUITES, rng.randint(1, 2))
    else:
        chosen = [rng.choice([",", "nope", "properness,properness", " "])]
    args = ["verify", "--suite", ",".join(chosen)]
    # Every budget is given, so no default (full-size) budget ever runs.
    for flag, pool in BUDGETS.items():
        args += [flag, _pick(rng, pool, 0.05)]
    for _ in range(rng.choice([0, 1, 1, 2])):
        args += ["--alpha", _pick(rng, RATIONALS)]
    if rng.random() < 0.3:
        args.append("--permissive")
    return args


COMMANDS = [_score, _reward, _demo, _search, _verify, _verify]


def _properness_at_hostile_alphas():
    """The properness suite at each hostile alpha, at one and two probes."""
    for alpha in RATIONALS[0] + RATIONALS[1]:
        for probes in ("1", "2"):
            yield [
                "verify", "--suite", "properness", "--probes", probes,
                "--alpha", alpha, "--grid", "4", "--m-max", "3",
                "--n-max", "3",
            ]


def test_hostile_invocations_exit_with_a_documented_code():
    runner = CliRunner()
    rng = random.Random(20211019)
    cases = list(_properness_at_hostile_alphas())
    while len(cases) < 300:
        args = rng.choice(COMMANDS)(rng)
        _maybe(rng, args, "--format", FORMATS, 0.6)
        cases.append(args)
    for args in cases:
        result = runner.invoke(main, args)
        assert result.exit_code in EXIT_CODES, (args, result.output)
        assert result.exception is None or isinstance(
            result.exception, SystemExit
        ), (args, result.exc_info)


def test_properness_passes_where_floats_failed():
    # Float arithmetic cancels at these alphas and 1e400 overflows a
    # float, so only an exact properness check passes them.
    runner = CliRunner()
    for alpha, probes, checks in (("1e6", "4", 8), ("1e9", "4", 8), ("1e400", "1", 2)):
        result = runner.invoke(
            main,
            ["verify", "--suite", "properness", "--probes", probes, "--alpha", alpha],
        )
        assert result.exit_code == 0, result.output
        assert result.output.startswith(f"PASS  properness           {checks} checks\n")
