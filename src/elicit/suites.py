"""Named verification suites behind the ``verify`` command.

Each suite turns one family of claims into a bulk, seeded, exact check:

- identities: the payment rewrites have zero residual spread.
- freeness: no random coalition deviation dominates under a safe alpha.
- properness: the belief is the unique best grid report, and an exact
  identity proves every other report r loses |r - b|**2.
- collusion: averaging reports always certifies against independent
  quadratic scoring.
- structure: the coalition polynomial, its vertex bound, and the
  monotonicity regimes.
- edge-case: alpha = 0 admits arbitrage exactly in its boundary setup.
- expected-arbitrage: the safe contract still invites belief-weighted
  collusion, reproducing the all-certain deviation numbers.
- witness: the per-deviation hurting outcome never gains, strictly so
  when the coalition actually moved its sums.

Each suite is a list of cells (label, body, args), and ``run_suites`` is
the only loop: it runs a cell as ``body(config, derived_rng(config.seed,
label), rec, *args)`` into one recorder per suite.  Identities and
freeness have one ``suite:m:n:alpha`` cell per shape and alpha, structure
has three and the other suites one each.  A label names its cell's stream
of the seed, so adding or removing a suite, shape or alpha never shifts
another cell's draws.  A certificate found under an alpha known to be
unsafe is recorded as a finding, not a failure; failures are reserved for
claims the safe regime is supposed to guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle
from typing import Callable, Optional, Sequence

from .arbitrage import (
    GridSearch,
    RandomSearch,
    _refuse_over_limit,
    check_dominance,
    check_expected_arbitrage,
    mean_collusion,
    search_arbitrage,
)
# coalition_totals is not called here, but stays bound: the benchmark's
# self-tests (bench/test_bench.py) check that tracing wraps this binding.
from .contracts import (  # noqa: F401
    ArbitrageFreeContract,
    IndependentScoring,
    _member_sums,
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
from .scoring import QuadraticRule, properness_probe
from .simplex import (
    Coalition, ReportProfile, _as_fraction, _require_int, coalition_sums,
    simplex_lattice,
)
from .verification import (
    Monotonicity,
    _split_total,
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
    the shape-dependent lower bound of the large-alpha safe band; any
    other ``alphas`` is stored as a nonempty tuple of distinct exact
    ``Fraction``s.  ``m_max``, ``n_max`` and every budget are ints (not
    bools); ``m_max`` and ``n_max`` must be at least 2, every budget at
    least 1, and ``grid`` at least k = min(3, n_max): properness draws
    beliefs over up to k outcomes inside [1/grid, 1 - 1/grid].  Each
    probe lists all C(grid + k - 1, k - 1) lattice reports, so a grid
    whose lattice holds more than ``MAX_GRID_DEVIATIONS`` reports is
    refused, as ``search`` refuses such a grid; with n_max >= 3 the first
    refused grid is 1413.  ``trials`` above the same limit is refused, as
    ``search_arbitrage`` refuses such a random search.  ``seed`` is an int
    (not a bool) and ``permissive`` a bool: the seed's text names each
    random stream, so ``"7"`` would silently run as 7.
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
            _require_int(name, getattr(self, name), low)
        _require_int("seed", self.seed)
        if type(self.permissive) is not bool:
            raise ValueError(f"permissive must be a bool, got {self.permissive!r}")
        _refuse_over_limit(
            f"trials {self.trials} would have a suite cell check",
            self.trials, "deviations", "fewer trials",
        )
        alphas = self.alphas
        if alphas is not None:
            alphas = () if isinstance(alphas, str) else tuple(map(_as_fraction, alphas))
            if not alphas:
                raise ValueError(f"alphas must be None or nonempty, got {self.alphas!r}")
            if len(set(alphas)) < len(alphas):
                raise ValueError(f"alphas repeat a value: {', '.join(map(str, alphas))}")
            object.__setattr__(self, "alphas", alphas)
        k = min(3, self.n_max)
        if self.grid < k:
            raise ValueError(
                f"grid must be >= 3 when n_max >= 3, got {self.grid}: "
                f"properness draws 3-outcome beliefs inside "
                f"[1/grid, 1 - 1/grid]"
            )
        reports = math.comb(self.grid + k - 1, k - 1)
        _refuse_over_limit(
            f"grid {self.grid} would have each {k}-outcome properness probe "
            f"list", reports, "lattice reports", "a coarser grid",
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

    def fail(self, message: str, counterexample: Optional[dict] = None) -> None:
        """Record a failure; its counterexample, if any, is kept with it."""
        if len(self.failures) < _MAX_RECORDED:
            self.failures.append(message)
            if counterexample is not None:
                self.details.setdefault("counterexamples", []).append(
                    counterexample
                )
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


def _dominance_alphas(config: VerifyConfig, m: int, n: int) -> tuple[Fraction, ...]:
    if config.alphas is not None:
        return config.alphas
    c = safe_cutoff(m, n)
    return (Fraction(-1), Fraction(-10), Fraction(c), Fraction(c + 5))


def _identity_alphas(config: VerifyConfig, m: int, n: int) -> tuple[Fraction, ...]:
    if config.alphas is not None:
        return config.alphas
    # One alpha per band, including a deliberately unsafe one: the
    # rewrites are pure algebra and must hold everywhere.
    return (Fraction(-1), Fraction(5, 3), Fraction(safe_cutoff(m, n)))


def _identities_cell(config: VerifyConfig, rng, rec: _Recorder, m, n, alpha) -> None:
    profiles = [random_profile(rng, m, n) for _ in range(config.profiles)]
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


def _freeness_cell(config: VerifyConfig, rng, rec: _Recorder, m, n, alpha) -> None:
    # Exactly `trials` deviations per cell: the first trials % baselines
    # baselines take one extra, and no baseline goes without a trial.
    baselines = min(config.baselines, config.trials)
    per_baseline, extra = divmod(config.trials, baselines)
    verdict = validate_alpha(alpha, m, n)
    contract = ArbitrageFreeContract(alpha=alpha, permissive=config.permissive)
    sizes = cycle(range(2, m + 1))
    for b in range(baselines):
        baseline = random_profile(rng, m, n)
        rows = [contract.evaluate(baseline, j) for j in range(n)]
        # The baseline's coalition totals, once per coalition.
        totals = {}
        for t in range(per_baseline + (b < extra)):
            coalition = random_coalition(rng, m, next(sizes))
            deviation = random_deviation(rng, baseline, coalition)
            members = coalition.members
            before = totals.get(members)
            if before is None:
                before = totals[members] = _member_sums(rows, members)
            cert = check_dominance(contract, baseline, deviation, coalition, before)
            rec.checks += 1
            if cert is not None:
                message = (
                    f"m={m} n={n} alpha={alpha}: dominance "
                    f"certificate at baseline {b + 1}, trial {t + 1}, "
                    f"coalition {[i + 1 for i in coalition]}"
                )
                if verdict.valid:
                    rec.fail(
                        message,
                        {
                            "alpha": alpha,
                            "baseline": profile_to_obj(baseline),
                            "deviation": profile_to_obj(deviation),
                            "coalition": [i + 1 for i in coalition],
                            "deltas": list(cert.deltas),
                        },
                    )
                else:
                    rec.find(message + " (alpha is outside the safe bands, so this is the anticipated behavior)")


def _identity_failure(rule, belief):
    """The first order-2 lattice report that breaks the properness identity.

    Returns (report, gap, |r - b|**2) where the gap E_b[b] - E_b[r], from
    ``rule.expected``, is not |r - b|**2, else None.  The induced rule
    (quadratic score plus offsets o the others fix) pays 2*b.r - |r|**2 +
    b.o in expectation, so the identity holds for every r and alpha.  When
    ``rule.expected`` has degree <= 2 in r, as there, so do both sides, and
    equality at ``simplex_lattice(n, 2)`` (vertices and edge midpoints)
    proves it on the whole simplex (Chung and Yao, 1977): None then proves
    strict properness at this belief.  |r - b|**2 is summed on the
    ``scaled`` counts: sum((R_j*Db - B_j*Dr)**2) / (Dr*Db)**2.
    """
    truth = rule.expected(belief, belief)
    belief_scale, belief_counts = belief.scaled[:2]
    for report in simplex_lattice(belief.n, 2):
        scale, counts = report.scaled[:2]
        gap = truth - rule.expected(report, belief)
        distance = Fraction(
            sum([(c * belief_scale - b * scale) ** 2
                 for c, b in zip(counts, belief_counts)]),
            (scale * belief_scale) ** 2,
        )
        if gap != distance:
            return report, gap, distance
    return None


def _suite_properness(config: VerifyConfig, rng, rec: _Recorder) -> None:
    # Lattice size explodes with n, so probes stay at n <= 3; the identity
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
        failure = _identity_failure(rule, belief)
        rec.checks += 1
        if failure is not None:
            report, gap, distance = failure
            rec.fail(
                f"probe {k + 1}: m={m} n={n} alpha={alpha} expected-payment "
                f"gap {gap} != |r - b|^2 = {distance} at report "
                f"{[str(w) for w in report.weights]}"
            )


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


def _suite_collusion(config: VerifyConfig, rng, rec: _Recorder) -> None:
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


def _structure_poly(config: VerifyConfig, rng, rec: _Recorder) -> None:
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
            direct = _split_total(contract, profile, coalition, j, s)
            rec.checks += 1
            if direct != poly.predict(s):
                rec.fail(
                    f"polynomial mismatch at sum {s}: predicted "
                    f"{poly.predict(s)}, direct {direct} "
                    f"(m={m}, alpha={alpha}, |C|={c})"
                )


def _structure_monotonicity(config: VerifyConfig, rng, rec: _Recorder) -> None:
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


def _structure_vertex(config: VerifyConfig, rng, rec: _Recorder) -> None:
    # Fixed symbolic sweep that draws nothing from rng; the regimes bound
    # the vertex away from the reachable sums [0, |C|] for every coalition
    # size from 3 up.
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


def _suite_edge_case(config: VerifyConfig, rng, rec: _Recorder) -> None:
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
    strategy = RandomSearch(
        trials=config.trials, seed=rng.getrandbits(32), bounds=(lo, hi)
    )
    cert2 = search_arbitrage(contract, interior, coalition, strategy)
    rec.checks += config.trials
    if cert2 is not None:
        rec.fail(
            f"interior deviation certified at alpha=0: deltas "
            f"{[str(d) for d in cert2.deltas]}"
        )


def _suite_expected(config: VerifyConfig, rng, rec: _Recorder) -> None:
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


def _suite_witness(config: VerifyConfig, rng, rec: _Recorder) -> None:
    skipped_invalid = 0
    # The safe alphas per shape, and one contract per drawn alpha, shared
    # across shapes, so each coefficient cache serves every trial.
    safe: dict[tuple[int, int], list[Fraction]] = {}
    contracts: dict[Fraction, ArbitrageFreeContract] = {}
    for t in range(config.trials):
        m = rng.randint(2, config.m_max)
        n = rng.randint(2, config.n_max)
        candidates = safe.get((m, n))
        if candidates is None:
            candidates = safe[m, n] = [
                a
                for a in _dominance_alphas(config, m, n)
                if validate_alpha(a, m, n).valid
            ]
        if not candidates:
            skipped_invalid += 1
            continue
        alpha = rng.choice(candidates)
        contract = contracts.get(alpha)
        if contract is None:
            contract = contracts[alpha] = ArbitrageFreeContract(alpha=alpha)
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
                f"{after - before} (m={m} n={n} alpha={contract.alpha})"
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


def _shape_cells(suite: str, alphas, body) -> Callable[[VerifyConfig], list]:
    """A suite of ``suite:m:n:alpha`` cells, one per shape and alpha, in order."""
    return lambda config: [
        (f"{suite}:{m}:{n}:{alpha}", body, (m, n, alpha))
        for m in range(2, config.m_max + 1)
        for n in range(2, config.n_max + 1)
        for alpha in alphas(config, m, n)
    ]


def _fixed_cells(*cells) -> Callable[[VerifyConfig], list]:
    """A suite of (label, body) cells that take no shape or alpha."""
    return lambda config: [(label, body, ()) for label, body in cells]


_SUITES: dict[str, Callable[[VerifyConfig], list]] = {
    "identities": _shape_cells("identities", _identity_alphas, _identities_cell),
    "freeness": _shape_cells("freeness", _dominance_alphas, _freeness_cell),
    "properness": _fixed_cells(("properness", _suite_properness)),
    "collusion": _fixed_cells(("collusion", _suite_collusion)),
    "structure": _fixed_cells(
        ("structure:poly", _structure_poly),
        ("structure:monotonicity", _structure_monotonicity),
        ("structure:vertex", _structure_vertex),
    ),
    "edge-case": _fixed_cells(("edge-case", _suite_edge_case)),
    "expected-arbitrage": _fixed_cells(("expected:implication", _suite_expected)),
    "witness": _fixed_cells(("witness", _suite_witness)),
}

SUITE_NAMES = tuple(_SUITES)


def run_suites(
    names: Optional[Sequence[str]], config: VerifyConfig
) -> list[SuiteResult]:
    """Run the named suites (default all) in canonical order.

    Raises ValueError for a string, an empty or an unknown selection, and,
    before any suite runs, the freeness suite's own AlphaRangeError when
    freeness is selected with an arbitrage-prone alpha and no permissive
    flag.
    """
    if isinstance(names, str):
        raise ValueError(f"names must be a list of suite names, got {names!r}")
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
    cells = {name: _SUITES[name](config) for name in selected}
    if "freeness" in cells and not config.permissive:
        # Freeness evaluates every cell non-permissively; walk its cells
        # in order so the first prone alpha is refused up front.
        for _, _, (m, n, alpha) in cells["freeness"]:
            ArbitrageFreeContract(alpha=alpha).require_valid(m, n)
    results = []
    for name, suite in cells.items():
        rec = _Recorder()
        for label, body, args in suite:
            body(config, derived_rng(config.seed, label), rec, *args)
        results.append(rec.result(name))
    return results
