"""Command-line interface: score, reward, demo-intro, search, verify.

All user-facing indices are 1-based (experts 1..m, outcomes 1..n);
internals are 0-based.  Every rational is printed as an exact fraction
by ``formats.fraction_str``, with a decimal alongside wherever a human
reads the value.  JSON output is deterministic byte for byte given the
same configuration and seed.

Each command hands its config, results, table text and CSV rows to
``_emit``, which owns the JSON payload and renders only the format that
``--format`` asks for.

Exit codes: 0 success or nothing found, 1 verification failure, 2
configuration error, 3 certificate found, 64 malformed input, 70 internal
inconsistency.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import asdict, fields
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import click

from . import __version__
from .arbitrage import (
    ArbitrageCertificate,
    CertificateKind,
    DeviationMismatchError,
    GridSearch,
    RandomSearch,
    check_dominance,
    check_expected_arbitrage,
    search_arbitrage,
)
from .contracts import (
    ArbitrageFreeContract,
    ContractFunction,
    IndependentScoring,
    coalition_totals,
)
from .demo import InternalInconsistencyError, run_intro
from .formats import (
    InputError,
    csv_text,
    decimal_str,
    decimal_value,
    dumps,
    fraction_str,
    parse_coalition,
    parse_inline_profile,
    parse_profile_json,
    parse_rational,
    profile_to_obj,
)
from .scoring import LogRule, QuadraticRule
from .simplex import Coalition, ReportProfile
from .suites import SUITE_NAMES, SuiteResult, VerifyConfig, run_suites

CONTRACT_TAGS = ("independent-quadratic", "independent-log", "zero-sum-pair", "nr")

EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_FOUND = 3
EXIT_INPUT = 64
EXIT_INTERNAL = 70


def _die(code: int, message: str) -> None:
    click.echo(f"error: {message}", file=sys.stderr)  # see _emit
    sys.exit(code)


def _guarded(fn):
    """Map domain exceptions onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InputError, DeviationMismatchError) as exc:
            _die(EXIT_INPUT, str(exc))
        except InternalInconsistencyError as exc:
            _die(EXIT_INTERNAL, str(exc))
        except ValueError as exc:
            # AlphaRangeError, ReconstructionError and every other
            # configuration error.
            _die(EXIT_CONFIG, str(exc))

    return wrapper


def _read_profile(path: str) -> ReportProfile:
    """A profile from a JSON file (--input and --deviation)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return parse_profile_json(text)


def _load_profile(input_path: Optional[str], inline: Optional[str]) -> ReportProfile:
    if (input_path is None) == (inline is None):
        raise ValueError("provide exactly one of --input or --reports")
    if input_path is not None:
        return _read_profile(input_path)
    return parse_inline_profile(inline)


def _outcomes(profile: ReportProfile, outcome: Optional[int]) -> Sequence[int]:
    """The 0-based outcomes that a 1-based --outcome filter selects."""
    if outcome is None:
        return range(profile.n)
    if not 1 <= outcome <= profile.n:
        raise ValueError(f"--outcome {outcome} out of range 1..{profile.n}")
    return [outcome - 1]


def _build_contract(
    tag: str, alpha: Optional[str], permissive: bool, m: int
) -> ContractFunction:
    """The contract behind --contract for a profile of m experts.

    zero-sum-pair is the alpha family at alpha = 0 with two experts: each
    is paid their own quadratic score minus the other's.
    """
    if tag == "nr":
        if alpha is None:
            raise ValueError("--contract nr requires --alpha")
        return ArbitrageFreeContract(
            alpha=parse_rational(alpha), permissive=permissive
        )
    if alpha is not None:
        raise ValueError(f"--alpha does not apply to --contract {tag}")
    if tag == "independent-quadratic":
        return IndependentScoring(rule=QuadraticRule())
    if tag == "independent-log":
        return IndependentScoring(rule=LogRule())
    if m != 2:
        raise ValueError(
            f"zero-sum pair contract needs exactly 2 experts, got m={m}"
        )
    return ArbitrageFreeContract(alpha=Fraction(0), permissive=True)


def _contract_config(tag: str, alpha: Optional[str], permissive: bool) -> dict:
    """The config echo of --contract, --alpha and --permissive."""
    return {
        "contract": tag,
        "alpha": alpha if alpha is None else fraction_str(parse_rational(alpha)),
        "permissive": permissive,
    }


def _render_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned columns two spaces apart; the header is the first row."""
    table = [header, *rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    return "".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
        for row in table
    )


def _vcell(value) -> str:
    if isinstance(value, Fraction):
        return f"{fraction_str(value)} ({decimal_str(value)})"
    return decimal_str(value)


def _value_obj(value) -> dict:
    if isinstance(value, Fraction):
        return {"fraction": fraction_str(value), "decimal": decimal_value(value)}
    return {"decimal": value}


def _sqrt_obj(expr) -> dict:
    return {"exact": str(expr), "decimal": expr.value()}


def _cert_obj(cert: ArbitrageCertificate) -> dict:
    obj = {
        "kind": cert.kind.value,
        "certainty": "exact" if cert.exact else "numeric",
        "coalition": [i + 1 for i in cert.coalition],
        "baseline": profile_to_obj(cert.baseline),
        "deviation": profile_to_obj(cert.deviation),
        "deltas": list(cert.deltas),
    }
    if cert.kind is CertificateKind.EXPECTED:
        obj["member_expected_gains"] = list(cert.member_expected_gains())
    return obj


def _emit_expert_values(
    command: str,
    contract: ContractFunction,
    profile: ReportProfile,
    outcome: Optional[int],
    coalition: Optional[Coalition],
    config: dict,
    fmt: str,
) -> None:
    """Every expert's payment on the selected outcomes (score and reward).

    The value column is named after the command and the results list
    after its plural; score's CSV adds a decimal column.  A coalition
    appends its totals.
    """
    outcomes = _outcomes(profile, outcome)
    values = {j: contract.evaluate(profile, j) for j in outcomes}
    entries = [
        (i + 1, j + 1, values[j][i]) for i in range(profile.m) for j in outcomes
    ]
    rows = [(str(i), str(j), _vcell(v)) for i, j, v in entries]
    results = {
        "profile": profile_to_obj(profile),
        command + "s": [
            {"expert": i, "outcome": j, command: _value_obj(v)}
            for i, j, v in entries
        ],
    }
    header = csv_header = ("expert", "outcome", command)
    csv_rows = list(entries)
    if command == "score":
        csv_header += ("decimal",)
        csv_rows = [(i, j, v, decimal_str(v)) for i, j, v in entries]
    if coalition is not None:
        totals = coalition_totals(contract, profile, coalition)
        label = "C=" + ",".join(str(i + 1) for i in coalition)
        rows += [(label, str(j + 1), _vcell(totals[j])) for j in outcomes]
        results["coalition_totals"] = [
            {"outcome": j + 1, "total": _value_obj(totals[j])} for j in outcomes
        ]
        csv_rows += [("coalition", j + 1, totals[j]) for j in outcomes]
    table = _render_table(header, rows)
    _emit(fmt, command, config, results, table, (csv_header, csv_rows))


def _emit(
    fmt: str, command: str, config: dict, results: dict, table: str,
    csv: tuple, certificate: Optional[ArbitrageCertificate] = None,
) -> None:
    """Print a command's output in the one format that --format asks for.

    JSON is the payload below, CSV is ``csv_text`` of the (header, rows)
    pair ``csv``, and the table is printed as built; only the printed
    format is rendered.
    """
    if fmt == "json":
        certificates = [] if certificate is None else [_cert_obj(certificate)]
        text = dumps({
            "command": command, "config": config, "results": results,
            "certificates": certificates,
        })
    elif fmt == "csv":
        text = csv_text(*csv)
    else:
        text = table
    # An explicit file: click's default-stdout cache keeps every stream it
    # has seen alive, so a caller that redirects stdout per call would
    # leak one stream per command.
    click.echo(text, nl=False, file=sys.stdout)


_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "json", "csv"]),
    default="table",
    show_default=True,
    help="Output format.",
)
_input_option = click.option(
    "--input",
    "input_path",
    type=click.Path(),
    default=None,
    help="Path to a JSON profile {\"n\": ..., \"reports\": [[...], ...]}.",
)
_reports_option = click.option(
    "--reports",
    "inline",
    default=None,
    help="Inline profile, e.g. '2/5,3/5; 1/2,1/2; 9/10,1/10'.",
)
_outcome_option = click.option(
    "--outcome", type=int, default=None, help="1-based outcome filter."
)


@click.group()
@click.version_option(version=__version__, prog_name="elicit")
def main() -> None:
    """Truthful forecast elicitation and arbitrage checking."""


@main.command()
@_input_option
@_reports_option
@click.option(
    "--contract",
    "tag",
    type=click.Choice(["independent-quadratic", "independent-log"]),
    default="independent-quadratic",
    show_default=True,
    help="Scoring rule to apply per expert.",
)
@_outcome_option
@_format_option
@_guarded
def score(input_path, inline, tag, outcome, fmt) -> None:
    """Per-expert scores under an independent scoring rule."""
    profile = _load_profile(input_path, inline)
    contract = _build_contract(tag, None, False, profile.m)
    config = {"contract": tag, "outcome": outcome}
    _emit_expert_values("score", contract, profile, outcome, None, config, fmt)


@main.command()
@_input_option
@_reports_option
@click.option(
    "--contract",
    "tag",
    type=click.Choice(CONTRACT_TAGS),
    default="nr",
    show_default=True,
    help="Contract function paying the experts jointly.",
)
@click.option("--alpha", default=None, help="Linear coefficient for --contract nr.")
@click.option(
    "--permissive",
    is_flag=True,
    help="Evaluate nr even when alpha sits in the arbitrage-prone band.",
)
@click.option(
    "--coalition",
    "coalition_text",
    default=None,
    help="1-based members, e.g. '1,3'; adds coalition totals.",
)
@_outcome_option
@_format_option
@_guarded
def reward(
    input_path, inline, tag, alpha, permissive, coalition_text, outcome, fmt
) -> None:
    """Per-expert contract payments, optionally with coalition totals."""
    profile = _load_profile(input_path, inline)
    contract = _build_contract(tag, alpha, permissive, profile.m)
    coalition = None
    if coalition_text is not None:
        coalition = parse_coalition(coalition_text, profile.m)
    config = {
        **_contract_config(tag, alpha, permissive),
        "coalition": None if coalition is None else [i + 1 for i in coalition],
        "outcome": outcome,
    }
    _emit_expert_values(
        "reward", contract, profile, outcome, coalition, config, fmt
    )


@main.command("demo-intro")
@click.option(
    "--coalition",
    "coalition_text",
    default=None,
    help="1-based members to collude (default: everyone).",
)
@_format_option
@_guarded
def demo_intro(coalition_text, fmt) -> None:
    """The three-forecaster collusion walkthrough, self-verified."""
    coalition = None
    if coalition_text is not None:
        coalition = parse_coalition(coalition_text, 3)
    report = run_intro(coalition)
    iv = report.interval
    members = ",".join(str(i + 1) for i in report.coalition)

    lines = ["Three forecasters, paid independent quadratic scores.", ""]
    lines.append(
        _render_table(
            ("expert", "report", "score if outcome 1", "score if outcome 2"),
            [
                (
                    str(i + 1),
                    ", ".join(decimal_str(w) for w in r.weights),
                    _vcell(report.expert_scores[i][0]),
                    _vcell(report.expert_scores[i][1]),
                )
                for i, r in enumerate(report.profile.reports)
            ],
        ).rstrip()
    )
    lines.append("")
    lines.append(f"coalition: experts {members}")
    lines.append(
        f"baseline coalition totals:  "
        f"{_vcell(report.baseline_totals[0])} / "
        f"{_vcell(report.baseline_totals[1])}"
    )
    mean_text = ", ".join(map(fraction_str, report.collusion_report.weights))
    lines.append(f"all report the mean ({mean_text}):")
    lines.append(
        f"collusion coalition totals: "
        f"{_vcell(report.collusion_totals[0])} / "
        f"{_vcell(report.collusion_totals[1])}"
    )
    lines.append(
        f"riskless gain per outcome:  "
        f"{_vcell(report.deltas[0])} / {_vcell(report.deltas[1])}"
    )
    lines.append("")
    lines.append(
        "any shared report with outcome-1 probability in the closed "
        "interval below dominates the baseline:"
    )
    lines.append(f"  lower: {iv.lower}  = {iv.lower.value():.6f}")
    lines.append(f"  upper: {iv.upper}  = {iv.upper.value():.6f}")
    if report.reference_checked:
        lines.append("all values re-verified against frozen references")
    table = "\n".join(lines) + "\n"

    results = {
        "profile": profile_to_obj(report.profile),
        "coalition": [i + 1 for i in report.coalition],
        "expert_scores": [
            [_value_obj(v) for v in row] for row in report.expert_scores
        ],
        "baseline_totals": [_value_obj(v) for v in report.baseline_totals],
        "collusion_report": list(report.collusion_report.weights),
        "collusion_totals": [_value_obj(v) for v in report.collusion_totals],
        "deltas": [_value_obj(v) for v in report.deltas],
        "interval": {
            "outcome": iv.outcome + 1,
            "lower": _sqrt_obj(iv.lower),
            "upper": _sqrt_obj(iv.upper),
            "empty": iv.empty,
        },
        "reference_checked": report.reference_checked,
    }
    csv_rows = [
        ("baseline_total", 1, report.baseline_totals[0]),
        ("baseline_total", 2, report.baseline_totals[1]),
        ("collusion_total", 1, report.collusion_totals[0]),
        ("collusion_total", 2, report.collusion_totals[1]),
        ("delta", 1, report.deltas[0]),
        ("delta", 2, report.deltas[1]),
        ("interval_lower", 1, iv.lower.value()),
        ("interval_upper", 1, iv.upper.value()),
    ]
    _emit(
        fmt, "demo-intro", {"coalition": results["coalition"]}, results, table,
        (("quantity", "outcome", "value"), csv_rows), report.certificate,
    )


@main.command()
@_input_option
@_reports_option
@click.option(
    "--contract",
    "tag",
    type=click.Choice(CONTRACT_TAGS),
    default="independent-quadratic",
    show_default=True,
)
@click.option("--alpha", default=None, help="Linear coefficient for --contract nr.")
@click.option("--permissive", is_flag=True)
@click.option(
    "--coalition",
    "coalition_text",
    default=None,
    help="1-based members (default: everyone).",
)
@click.option("--grid", type=int, default=None, help="Exhaustive grid with this denominator.")
@click.option("--trials", type=int, default=None, help="Random deviations to try.")
@click.option(
    "--seed",
    type=int,
    default=None,
    envvar="ELICIT_SEED",
    help="Seed for --trials (or set ELICIT_SEED).",
)
@click.option(
    "--expected",
    is_flag=True,
    help="Search for expected arbitrage instead of dominance.",
)
@click.option(
    "--deviation",
    "deviation_path",
    type=click.Path(),
    default=None,
    help="Check this exact deviation profile instead of searching.",
)
@_format_option
@_guarded
def search(
    input_path,
    inline,
    tag,
    alpha,
    permissive,
    coalition_text,
    grid,
    trials,
    seed,
    expected,
    deviation_path,
    fmt,
) -> None:
    """Hunt for a coalition arbitrage certificate (exit 3 when found)."""
    profile = _load_profile(input_path, inline)
    contract = _build_contract(tag, alpha, permissive, profile.m)
    if coalition_text is None:
        coalition = Coalition.full(profile.m)
    else:
        coalition = parse_coalition(coalition_text, profile.m)
    kind = CertificateKind.EXPECTED if expected else CertificateKind.DOMINANCE

    if deviation_path is not None:
        if grid is not None or trials is not None:
            raise ValueError(
                "--deviation checks one profile; drop --grid/--trials"
            )
        deviation = _read_profile(deviation_path)
        checker = (
            check_expected_arbitrage
            if kind is CertificateKind.EXPECTED
            else check_dominance
        )
        cert = checker(contract, profile, deviation, coalition)
        strategy_obj = {"mode": "direct", "deviation": deviation_path}
    else:
        if (grid is None) == (trials is None):
            raise ValueError("provide exactly one of --grid or --trials")
        if grid is not None:
            strategy = GridSearch(steps=grid)
            strategy_obj = {"mode": "grid", "grid": grid}
        else:
            if seed is None:
                raise ValueError("random search needs --seed (or ELICIT_SEED)")
            strategy = RandomSearch(trials=trials, seed=seed)
            strategy_obj = {"mode": "random", "trials": trials, "seed": seed}
        cert = search_arbitrage(contract, profile, coalition, strategy, kind)

    config = {
        **_contract_config(tag, alpha, permissive),
        "coalition": [i + 1 for i in coalition],
        "kind": kind.value,
        "strategy": strategy_obj,
    }
    if cert is None:
        table = (
            f"no {kind.value} certificate found "
            f"(strategy: {strategy_obj}; coalition "
            f"{[i + 1 for i in coalition]})\n"
        )
        csv = (("found", "kind"), [("no", kind.value)])
    else:
        rows = [(str(j + 1), _vcell(d)) for j, d in enumerate(cert.deltas)]
        dev_lines = [
            f"  expert {i + 1}: "
            + ", ".join(map(fraction_str, cert.deviation.reports[i].weights))
            for i in cert.coalition
        ]
        table = (
            f"{kind.value} certificate "
            f"({'exact' if cert.exact else 'numeric'}) for coalition "
            f"{[i + 1 for i in cert.coalition]}\n"
            + "deviation reports:\n"
            + "\n".join(dev_lines)
            + "\n"
            + _render_table(("outcome", "coalition delta"), rows)
        )
        csv = (
            ("outcome", "delta"), [(j + 1, d) for j, d in enumerate(cert.deltas)]
        )
    _emit(fmt, "search", config, {"found": cert is not None}, table, csv, cert)
    if cert is not None:
        sys.exit(EXIT_FOUND)


def _verify_table(results: Sequence[SuiteResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:20s} {r.checks} checks")
        for f in r.failures:
            lines.append(f"      failure: {f}")
        for f in r.findings:
            lines.append(f"      finding: {f}")
    total = sum(r.checks for r in results)
    bad = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results)} suites, {total} checks, "
        + (f"{bad} failed" if bad else "all passed")
    )
    return "\n".join(lines) + "\n"


def _budget_options(command):
    """One verify flag per VerifyConfig field, in field order.

    Each takes its default from the field; --alpha repeats, --permissive
    is a flag and --seed also reads ELICIT_SEED.
    """
    for field in reversed(fields(VerifyConfig)):
        if field.name == "alphas":
            option = click.option(
                "--alpha",
                "alphas",
                multiple=True,
                help="Override the per-shape alpha sets (repeatable).",
            )
        elif field.name == "permissive":
            option = click.option("--permissive", is_flag=True)
        else:
            option = click.option(
                "--" + field.name.replace("_", "-"),
                default=field.default,
                show_default=True,
                envvar="ELICIT_SEED" if field.name == "seed" else None,
            )
        command = option(command)
    return command


@main.command()
@click.option(
    "--suite",
    "suite_text",
    default=None,
    help=f"Comma-separated subset of: {', '.join(SUITE_NAMES)}.",
)
@_budget_options
@_format_option
@_guarded
def verify(suite_text, fmt, **budget) -> None:
    """Run verification suites; exit 1 if any claim fails."""
    names = None
    if suite_text is not None:
        names = [s.strip() for s in suite_text.split(",") if s.strip()]
    alphas = tuple(parse_rational(a) for a in budget.pop("alphas"))
    config = VerifyConfig(alphas=alphas or None, **budget)
    results = run_suites(names, config)
    csv_rows = [
        (r.name, "pass" if r.passed else "fail", r.checks, len(r.failures),
         len(r.findings))
        for r in results
    ]
    all_passed = all(r.passed for r in results)
    _emit(
        fmt, "verify", {"suites": names or list(SUITE_NAMES), **asdict(config)},
        {"suites": [asdict(r) for r in results], "all_passed": all_passed},
        _verify_table(results),
        (("suite", "status", "checks", "failures", "findings"), csv_rows),
    )
    if not all_passed:
        sys.exit(EXIT_VERIFY_FAILED)


if __name__ == "__main__":
    main()
