"""Named verification suites behind the ``verify`` command.

Each suite turns one family of claims into a bulk, seeded, exact check:

- identities: the payment rewrites have zero residual spread.
- freeness: no random coalition deviation dominates under a safe alpha.
- properness: grid probes and gradients confirm truthful reporting wins.
- collusion: averaging reports always certifies against independent
  quadratic scoring.
- structure: the coalition polynomial, its vertex bound, and the
  monotonicity regimes.
- edge-case: alpha = 0 admits arbitrage exactly in its boundary setup.
- expected-arbitrage: the safe contract still invites belief-weighted
  collusion, reproducing the all-certain deviation numbers.
- witness: the per-deviation hurting outcome never gains, strictly so
  when the coalition actually moved its sums.

Suites draw their randomness from per-suite, per-configuration streams
derived from one seed, so adding or removing a suite never shifts
another's draws.  A certificate found under an alpha known to be unsafe
is recorded as a finding, not a failure; failures are reserved for claims
the safe regime is supposed to guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle
from typing import Callable, Iterator, Optional, Sequence

from .arbitrage import (
    GridSearch,
    RandomSearch,
    check_dominance,
    check_expected_arbitrage,
    mean_collusion,
    profile_with_coalition_sums,
    search_arbitrage,
)
# coalition_totals is not called here, but stays bound: the benchmark's
# self-tests (bench/test_bench.py) check that tracing wraps this binding.
from .contracts import (  # noqa: F401
    ArbitrageFreeContract,
    IndependentScoring,
    coalition_total,
    coalition_totals,
    expected_reward,
    safe_cutoff,
    validate_alpha,
)
from .formats import profile_to_obj
from .sampling import (
    derived_rng,
    random_coalition,
    random_deviation,
    random_distribution,
    random_profile,
)
from .scoring import QuadraticRule, properness_probe, quadratic_score_float
from .simplex import Coalition, ReportProfile, coalition_sums
from .verification import (
    Monotonicity,
    coalition_reward_poly,
    general_identity_report,
    hurting_outcome,
    monotonicity_check,
    parabola_vertex,
    two_outcome_identity_report,
)

__all__ = [
    "VerifyConfig",
    "SuiteResult",
    "SUITE_NAMES",
    "run_suites",
]

_MAX_RECORDED = 5


@dataclass(frozen=True)
class VerifyConfig:
    """Budgets and ranges for a verification run.

    ``alphas = None`` means each suite uses its default set, which for
    dominance-style suites is (-1, -10, cutoff, cutoff + 5) with cutoff
    the shape-dependent lower bound of the large-alpha safe band.
    ``m_max`` and ``n_max`` must be at least 2, every budget at least 1,
    and ``grid`` at least min(3, n_max): properness draws beliefs over up
    to that many outcomes inside [1/grid, 1 - 1/grid].
    """

    m_max: int = 5
    n_max: int = 4
    alphas: Optional[tuple[Fraction, ...]] = None
    trials: int = 10000
    baselines: int = 20
    profiles: int = 1000
    probes: int = 100
    grid: int = 50
    seed: int = 42
    permissive: bool = False

    def __post_init__(self) -> None:
        lows = {"m_max": 2, "n_max": 2, "trials": 1, "baselines": 1,
                "profiles": 1, "probes": 1, "grid": 2}
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ValueError(
                    f"{name} must be >= {low}, got {getattr(self, name)}"
                )
        if self.grid < min(3, self.n_max):
            raise ValueError(
                f"grid must be >= 3 when n_max >= 3, got {self.grid}: "
                f"properness draws 3-outcome beliefs inside "
                f"[1/grid, 1 - 1/grid]"
            )


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one suite: hard failures versus informational findings."""

    name: str
    passed: bool
    checks: int
    failures: tuple[str, ...]
    findings: tuple[str, ...]
    details: dict


class _Recorder:
    """Collects check counts plus capped failure/finding messages."""

    def __init__(self) -> None:
        self.checks = 0
        self.failures: list[str] = []
        self.findings: list[str] = []
        self.details: dict = {}
        self._dropped = 0

    def fail(self, message: str) -> None:
        if len(self.failures) < _MAX_RECORDED:
            self.failures.append(message)
        else:
            self._dropped += 1

    def find(self, message: str) -> None:
        if len(self.findings) < _MAX_RECORDED:
            self.findings.append(message)

    def result(self, name: str) -> SuiteResult:
        failures = list(self.failures)
        if self.checks == 0:
            failures.append("ran zero checks")
        if self._dropped:
            failures.append(f"... and {self._dropped} more failures")
        return SuiteResult(
            name=name,
            passed=not failures,
            checks=self.checks,
            failures=tuple(failures),
            findings=tuple(self.findings),
            details=self.details,
        )


def _shapes(config: VerifyConfig) -> Iterator[tuple[int, int]]:
    for m in range(2, config.m_max + 1):
        for n in range(2, config.n_max + 1):
            yield m, n


def _dominance_alphas(config: VerifyConfig, m: int, n: int) -> tuple[Fraction, ...]:
    if config.alphas is not None:
        return config.alphas
    c = safe_cutoff(m, n)
    return (Fraction(-1), Fraction(-10), Fraction(c), Fraction(c + 5))


def _freeness_cells(config: VerifyConfig) -> Iterator[tuple[int, int, Fraction]]:
    """The freeness suite's (m, n, alpha) cells, in the order it runs them."""
    for m, n in _shapes(config):
        for alpha in _dominance_alphas(config, m, n):
            yield m, n, alpha


def _identity_alphas(config: VerifyConfig, m: int, n: int) -> tuple[Fraction, ...]:
    if config.alphas is not None:
        return config.alphas
    # One alpha per band, including a deliberately unsafe one: the
    # rewrites are pure algebra and must hold everywhere.
    return (Fraction(-1), Fraction(5, 3), Fraction(safe_cutoff(m, n)))


def _suite_identities(config: VerifyConfig) -> SuiteResult:
    rec = _Recorder()
    for m, n in _shapes(config):
        for alpha in _identity_alphas(config, m, n):
            rng = derived_rng(config.seed, f"identities:{m}:{n}:{alpha}")
            profiles = [
                random_profile(rng, m, n) for _ in range(config.profiles)
            ]
            report = general_identity_report(profiles, alpha)
            rec.checks += report.samples
            if not report.passed:
                rec.fail(
                    f"general rewrite: spread {report.max_spread} over "
                    f"m={m} n={n} alpha={alpha}"
                )
            if n == 2:
                report2 = two_outcome_identity_report(profiles, alpha)
                rec.checks += report2.samples
                if not report2.passed:
                    rec.fail(
                        f"two-outcome rewrite: spread {report2.max_spread} "
                        f"over m={m} alpha={alpha}"
                    )
    return rec.result("identities")


def _suite_freeness(config: VerifyConfig) -> SuiteResult:
    rec = _Recorder()
    # Exactly `trials` deviations per cell: the first trials % baselines
    # baselines take one extra, and no baseline goes without a trial.
    baselines = min(config.baselines, config.trials)
    per_baseline, extra = divmod(config.trials, baselines)
    for m, n, alpha in _freeness_cells(config):
        verdict = validate_alpha(alpha, m, n)
        contract = ArbitrageFreeContract(
            alpha=alpha, permissive=config.permissive
        )
        rng = derived_rng(config.seed, f"freeness:{m}:{n}:{alpha}")
        sizes = cycle(range(2, m + 1))
        for b in range(baselines):
            baseline = random_profile(rng, m, n)
            rewards = [contract.evaluate(baseline, j) for j in range(n)]
            # The baseline's coalition totals, once per coalition.  They
            # are summed from `evaluate` rather than taken from
            # `coalition_totals` because the benchmark's freeness
            # workload expects calls in its contracts.nr_evaluate span.
            totals = {}
            for t in range(per_baseline + (b < extra)):
                coalition = random_coalition(rng, m, next(sizes))
                deviation = random_deviation(rng, baseline, coalition)
                before = totals.get(coalition)
                if before is None:
                    first, *rest = coalition.members
                    before = totals[coalition] = tuple(
                        [
                            sum([row[i] for i in rest], row[first])
                            for row in rewards
                        ]
                    )
                cert = check_dominance(
                    contract, baseline, deviation, coalition, before
                )
                rec.checks += 1
                if cert is not None:
                    message = (
                        f"m={m} n={n} alpha={alpha}: dominance "
                        f"certificate at baseline {b + 1}, trial {t + 1}, "
                        f"coalition {[i + 1 for i in coalition]}"
                    )
                    if verdict.valid:
                        rec.fail(message)
                        rec.details.setdefault("counterexamples", []).append(
                            {
                                "alpha": alpha,
                                "baseline": profile_to_obj(baseline),
                                "deviation": profile_to_obj(deviation),
                                "coalition": [i + 1 for i in coalition],
                                "deltas": list(cert.deltas),
                            }
                        )
                    else:
                        rec.find(message + " (alpha is outside the safe bands, so this is the anticipated behavior)")
    return rec.result("freeness")


def _fd_gradient_norm(offsets: Sequence[Fraction], belief) -> float:
    """Central-difference gradient norm of expected payment at the belief.

    The expected payment, as a function of the expert's own report with
    everyone else fixed, is maximized at the true belief; its gradient
    there must vanish up to float noise.
    """
    n = len(offsets)
    offs = [float(o) for o in offsets]
    b = [float(w) for w in belief.weights]

    def expected(x: list[float]) -> float:
        return sum(
            b[j] * (quadratic_score_float(x, j) + offs[j]) for j in range(n)
        )

    h = 1e-6
    grad = []
    for k in range(n):
        up = b[:]
        up[k] += h
        down = b[:]
        down[k] -= h
        grad.append((expected(up) - expected(down)) / (2 * h))
    return math.sqrt(sum(g * g for g in grad))


def _suite_properness(config: VerifyConfig) -> SuiteResult:
    rec = _Recorder()
    rng = derived_rng(config.seed, "properness")
    # Lattice size explodes with n, so probes stay at n <= 3; the gradient
    # check is cheap at any n and the acceptance bar pins n through m_max
    # elsewhere.
    n_cap = min(3, config.n_max)
    lo = Fraction(1, config.grid)
    hi = Fraction(config.grid - 1, config.grid)
    for k in range(config.probes):
        m = rng.randint(2, config.m_max)
        n = rng.randint(2, n_cap)
        if config.alphas is not None:
            alpha = config.alphas[k % len(config.alphas)]
        else:
            alpha = (Fraction(-1), Fraction(safe_cutoff(m, n)))[k % 2]
        # interior, on-grid belief so the unique-argmax claim applies
        belief = random_distribution(
            rng, n, denominator=config.grid, bounds=(lo, hi)
        )
        i = rng.randrange(m)
        reports = [
            belief if idx == i else random_distribution(rng, n)
            for idx in range(m)
        ]
        profile = ReportProfile(tuple(reports))
        contract = ArbitrageFreeContract(alpha=alpha, permissive=True)
        rule = contract.expert_view(profile, i)
        probe = properness_probe(rule, belief, steps=config.grid)
        rec.checks += 1
        if not (probe.unique and probe.argmax == belief):
            rec.fail(
                f"probe {k + 1}: m={m} n={n} alpha={alpha} returned "
                f"{len(probe.maximizers)} maximizers, first "
                f"{probe.argmax.weights}"
            )
        gnorm = _fd_gradient_norm(rule.offsets, belief)
        rec.checks += 1
        if not gnorm < 1e-6:
            rec.fail(
                f"probe {k + 1}: gradient norm {gnorm:.3e} at the belief"
            )
    return rec.result("properness")


def _collusion_case(
    rng, config: VerifyConfig
) -> tuple[ReportProfile, Coalition, ReportProfile]:
    """One random (profile, coalition, mean-report deviation) triple.

    The coalition's reports are never all equal, so the deviation moves.
    """
    m = rng.randint(2, config.m_max)
    n = rng.randint(2, config.n_max)
    coalition = random_coalition(rng, m)
    profile = random_profile(rng, m, n)
    while len({profile.reports[i] for i in coalition}) == 1:
        profile = random_profile(rng, m, n)
    return profile, coalition, mean_collusion(profile, coalition)


def _suite_collusion(config: VerifyConfig) -> SuiteResult:
    rec = _Recorder()
    rng = derived_rng(config.seed, "collusion")
    contract = IndependentScoring(rule=QuadraticRule())
    for k in range(config.profiles):
        profile, coalition, deviation = _collusion_case(rng, config)
        cert = check_dominance(contract, profile, deviation, coalition)
        rec.checks += 1
        if cert is None:
            rec.fail(
                f"profile {k + 1}: mean collusion did not certify for "
                f"m={profile.m} n={profile.n} coalition "
                f"{[i + 1 for i in coalition]}"
            )
    return rec.result("collusion")


def _structure_poly(config: VerifyConfig, rec: _Recorder) -> None:
    rng = derived_rng(config.seed, "structure:poly")
    for k in range(50):
        m = rng.randint(2, config.m_max)
        alpha = Fraction(rng.randint(-40, 60), rng.randint(1, 4))
        profile = random_profile(rng, m, 2)
        coalition = random_coalition(rng, m)
        j = rng.randrange(2)
        poly = coalition_reward_poly(profile, coalition, j, alpha)
        contract = ArbitrageFreeContract(alpha=alpha, permissive=True)
        c = coalition.size
        for t in range(5):
            s = Fraction(c * t, 4)
            sums = [Fraction(0), Fraction(0)]
            sums[j] = s
            sums[1 - j] = c - s
            deviation = profile_with_coalition_sums(profile, coalition, sums)
            direct = coalition_total(contract, deviation, coalition, j)
            rec.checks += 1
            if direct != poly.predict(s):
                rec.fail(
                    f"polynomial mismatch at sum {s}: predicted "
                    f"{poly.predict(s)}, direct {direct} "
                    f"(m={m}, alpha={alpha}, |C|={c})"
                )


def _structure_monotonicity(config: VerifyConfig, rec: _Recorder) -> None:
    rng = derived_rng(config.seed, "structure:monotonicity")
    for k in range(200):
        m = rng.randint(2, config.m_max)
        coalition = random_coalition(rng, m)
        profile = random_profile(rng, m, 2)
        j = rng.randrange(2)
        if k % 2 == 0:
            # threshold <= 0, equivalently alpha >= 4(m-1)^2
            alpha = Fraction(4 * (m - 1) ** 2 + rng.randint(0, 8))
            want = Monotonicity.INCREASING
        else:
            # negative alpha puts the threshold above m - 1
            alpha = Fraction(-rng.randint(1, 12))
            want = Monotonicity.DECREASING
        contract = ArbitrageFreeContract(alpha=alpha, permissive=True)
        verdict = monotonicity_check(
            contract, profile, coalition, j, samples=7
        ).verdict
        rec.checks += 1
        if verdict is not want:
            rec.fail(
                f"monotonicity {k + 1}: m={m} alpha={alpha} expected "
                f"{want.value}, got {verdict.value}"
            )


def _structure_vertex(config: VerifyConfig, rec: _Recorder) -> None:
    # Fixed symbolic sweep; the regimes bound the vertex away from the
    # reachable sums [0, |C|] for every coalition size from 3 up.
    for m in range(3, 7):
        for c in range(3, m + 1):
            comp_grid = [
                Fraction(k, 3) for k in range(3 * (m - c) + 1)
            ]
            for d in (Fraction(0), Fraction(-1, 2), Fraction(-3), Fraction(-50)):
                for comp in comp_grid:
                    v = parabola_vertex(c, d, comp)
                    rec.checks += 1
                    if not v <= 0:
                        rec.fail(
                            f"vertex {v} > 0 for |C|={c}, d={d}, "
                            f"complement sum {comp}"
                        )
            for d in (
                Fraction(m - 1) + Fraction(1, 3),
                Fraction(m),
                Fraction(m + 50),
            ):
                for comp in comp_grid:
                    v = parabola_vertex(c, d, comp)
                    rec.checks += 1
                    if not v >= c:
                        rec.fail(
                            f"vertex {v} < |C|={c} for d={d}, "
                            f"complement sum {comp}"
                        )


def _suite_structure(config: VerifyConfig) -> SuiteResult:
    rec = _Recorder()
    _structure_poly(config, rec)
    _structure_monotonicity(config, rec)
    _structure_vertex(config, rec)
    return rec.result("structure")


def _suite_edge_case(config: VerifyConfig) -> SuiteResult:
    rec = _Recorder()
    contract = ArbitrageFreeContract(alpha=Fraction(0), permissive=True)
    boundary = ReportProfile.of(("1/2", "1/2"), ("1/2", "1/2"), ("0", "1"))
    coalition = Coalition.of([0, 1])
    cert = search_arbitrage(contract, boundary, coalition, GridSearch(50))
    rec.checks += 1
    if cert is None:
        rec.fail(
            "no grid certificate against the boundary profile at alpha=0"
        )
    else:
        rec.find(
            f"alpha=0 boundary arbitrage confirmed: deltas "
            f"{[str(d) for d in cert.deltas]} by coalition report "
            f"{[str(w) for w in cert.deviation.reports[0].weights]}"
        )
        rec.details["boundary_certificate"] = {
            "deviation": profile_to_obj(cert.deviation),
            "deltas": list(cert.deltas),
        }
    # Same setup pushed off the boundary: every report interior means no
    # outcome is ruled out by the others, and the opportunity vanishes.
    lo, hi = Fraction(1, 50), Fraction(49, 50)
    interior = ReportProfile.of(
        ("1/2", "1/2"), ("1/2", "1/2"), ("1/50", "49/50")
    )
    seed = derived_rng(config.seed, "edge-case").getrandbits(32)
    strategy = RandomSearch(trials=config.trials, seed=seed, bounds=(lo, hi))
    cert2 = search_arbitrage(contract, interior, coalition, strategy)
    rec.checks += config.trials
    if cert2 is not None:
        rec.fail(
            f"interior deviation certified at alpha=0: deltas "
            f"{[str(d) for d in cert2.deltas]}"
        )
    return rec.result("edge-case")


def _suite_expected(config: VerifyConfig) -> SuiteResult:
    rec = _Recorder()
    alpha = Fraction(16)
    contract = ArbitrageFreeContract(alpha=alpha)
    half = Fraction(1, 2)
    baseline = ReportProfile.of(*[(half, half)] * 3)
    deviation = ReportProfile.of(*[(1, 0)] * 3)
    coalition = Coalition.full(3)

    for j in range(2):
        rewards = contract.evaluate(baseline, j)
        rec.checks += 1
        if rewards != (Fraction(13, 2),) * 3:
            rec.fail(
                f"baseline rewards on outcome {j + 1} are {rewards}, "
                f"expected 13/2 each"
            )
    cert = check_expected_arbitrage(contract, baseline, deviation, coalition)
    rec.checks += 1
    if cert is None:
        rec.fail("all-certain deviation did not certify expected arbitrage")
    else:
        gains = cert.member_expected_gains()
        rec.checks += 1
        if gains != (Fraction(9, 2),) * 3:
            rec.fail(f"member expected gains {gains}, expected 9/2 each")
        for i in range(3):
            before = expected_reward(
                contract, baseline, i, baseline.reports[i]
            )
            after = expected_reward(
                contract, deviation, i, baseline.reports[i]
            )
            rec.checks += 2
            if before != Fraction(13, 2):
                rec.fail(f"expert {i + 1} expected reward {before} != 13/2")
            if after != alpha / 2:
                rec.fail(
                    f"expert {i + 1} deviated expected reward {after} != "
                    f"alpha/2 = {alpha / 2}"
                )
    rec.checks += 1
    if check_expected_arbitrage(contract, baseline, baseline, coalition):
        rec.fail("identical deviation must not certify")

    # Dominance implies expected arbitrage when every member puts positive
    # probability on some strictly improved outcome.
    rng = derived_rng(config.seed, "expected:implication")
    indq = IndependentScoring(rule=QuadraticRule())
    for k in range(200):
        profile, coal, collusion = _collusion_case(rng, config)
        dom = check_dominance(indq, profile, collusion, coal)
        if dom is None:
            continue
        everyone_sees_gain = all(
            any(
                dom.deltas[j] > 0 and profile.reports[i].weights[j] > 0
                for j in range(profile.n)
            )
            for i in coal
        )
        if not everyone_sees_gain:
            continue
        rec.checks += 1
        if check_expected_arbitrage(indq, profile, collusion, coal) is None:
            rec.fail(
                f"implication {k + 1}: dominance without expected "
                f"arbitrage for m={profile.m} n={profile.n}"
            )
    return rec.result("expected-arbitrage")


def _suite_witness(config: VerifyConfig) -> SuiteResult:
    rec = _Recorder()
    rng = derived_rng(config.seed, "witness")
    skipped_invalid = 0
    safe_alphas: dict[tuple[int, int], list[Fraction]] = {}
    for t in range(config.trials):
        m = rng.randint(2, config.m_max)
        n = rng.randint(2, config.n_max)
        candidates = safe_alphas.get((m, n))
        if candidates is None:
            candidates = safe_alphas[m, n] = [
                a
                for a in _dominance_alphas(config, m, n)
                if validate_alpha(a, m, n).valid
            ]
        if not candidates:
            skipped_invalid += 1
            continue
        alpha = rng.choice(candidates)
        contract = ArbitrageFreeContract(alpha=alpha)
        baseline = random_profile(rng, m, n)
        coalition = random_coalition(rng, m)
        deviation = random_deviation(rng, baseline, coalition)
        j = hurting_outcome(contract, baseline, deviation, coalition)
        before = coalition_total(contract, baseline, coalition, j)
        after = coalition_total(contract, deviation, coalition, j)
        moved = coalition_sums(baseline, coalition) != coalition_sums(
            deviation, coalition
        )
        rec.checks += 1
        if moved and not after < before:
            rec.fail(
                f"trial {t + 1}: hurting outcome {j + 1} gained "
                f"{after - before} (m={m} n={n} alpha={alpha})"
            )
        elif not moved and after != before:
            rec.fail(
                f"trial {t + 1}: unchanged sums but totals moved "
                f"{before} -> {after}"
            )
    if skipped_invalid:
        rec.find(
            f"skipped {skipped_invalid} trials: no safe alpha in the "
            f"configured set"
        )
    return rec.result("witness")


_SUITES: dict[str, Callable[[VerifyConfig], SuiteResult]] = {
    "identities": _suite_identities,
    "freeness": _suite_freeness,
    "properness": _suite_properness,
    "collusion": _suite_collusion,
    "structure": _suite_structure,
    "edge-case": _suite_edge_case,
    "expected-arbitrage": _suite_expected,
    "witness": _suite_witness,
}

SUITE_NAMES = tuple(_SUITES)


def run_suites(
    names: Optional[Sequence[str]], config: VerifyConfig
) -> list[SuiteResult]:
    """Run the named suites (default all) in canonical order.

    Raises ValueError for an empty or unknown selection, and, before any
    suite runs, the freeness suite's own AlphaRangeError when freeness is
    selected with an arbitrage-prone alpha and no permissive flag.
    """
    if names is None:
        selected = list(SUITE_NAMES)
    else:
        unknown = [x for x in names if x not in _SUITES]
        if unknown or not names:
            problem = (
                f"unknown suite(s) {', '.join(unknown)}"
                if unknown
                else "no suite selected"
            )
            raise ValueError(
                f"{problem}; choose from {', '.join(SUITE_NAMES)}"
            )
        selected = [x for x in SUITE_NAMES if x in set(names)]
    if "freeness" in selected and not config.permissive:
        # Freeness evaluates every cell non-permissively; walk its cells
        # in its own order so the first prone alpha is refused up front.
        for m, n, alpha in _freeness_cells(config):
            ArbitrageFreeContract(alpha=alpha).require_valid(m, n)
    return [_SUITES[name](config) for name in selected]
