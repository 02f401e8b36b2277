"""The benchmark's workloads: seeded inputs, one request, and its checks.

Each workload is a closed loop with one client in one process: the next
request starts when the previous one has returned.  Every request in a
workload has the same kind and size; only the seeded inputs change, and
the program sees only those inputs.

- ``freeness``: one freeness suite over all 12 default shapes x 4 default
  alphas at a reduced budget that still runs 3 trials per baseline, so the
  suite's cached baseline rewards are reused as at full budget.  It sets
  the verification gate's wall time and drives the alpha-family kernel.
- ``algebra``: the identities, witness and properness suites at a reduced
  budget.  They use the same contracts one outcome and one expert at a
  time, and cover ``verification`` and ``scoring.properness_probe``.
- ``search``: one in-process ``elicit search --grid`` run against a fresh
  3-expert, 3-outcome profile where experts 1 and 2 report the same
  interior distribution.  Strict properness rules out a certificate, so
  every request enumerates the whole product lattice and exits 0.  It
  drives ``arbitrage.check_dominance``, the quadratic score and the CLI,
  and never reaches the alpha-family kernel or ``sampling``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import io
import json
import os
import random
import sys
from math import comb
from typing import Optional

# Default alphas per shape in the freeness suite, and in the identities suite.
FREENESS_ALPHAS = 4
IDENTITY_ALPHAS = 3

SEARCH_GRID = 4
SEARCH_DENOMINATOR = 10**4


class ProgramMissing(RuntimeError):
    """The checkout holds no elicit sources to benchmark."""


def load_program(root: str, module: str):
    """Import ``module`` from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    package = os.path.join(src, "elicit", "__init__.py")
    if not os.path.isfile(package):
        raise ProgramMissing(f"no elicit sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    loaded = importlib.import_module(module)
    origin = os.path.realpath(sys.modules["elicit"].__file__)
    if origin != os.path.realpath(package):
        raise ProgramMissing(f"elicit was imported from {origin}, not {src}")
    return loaded


def _no_span(name):
    return contextlib.nullcontext()


class SuiteWorkload:
    """One ``run_suites`` call per request with a seeded ``VerifyConfig``."""

    entry = "elicit.suites"

    def __init__(self, name, why, suites, budget, expected_spans, trace_requests):
        self.name = name
        self.why = why
        self.suites = tuple(suites)
        self.budget = dict(budget)
        self.expected_spans = tuple(expected_spans)
        self.trace_requests = trace_requests

    def make_input(self, rng: random.Random) -> int:
        return rng.getrandbits(32)

    def request(self, seed: int, span=_no_span):
        suites = sys.modules["elicit.suites"]
        return suites.run_suites(
            list(self.suites), suites.VerifyConfig(seed=seed, **self.budget)
        )

    def expected_checks(self) -> dict:
        """The exact check count each suite's budget implies."""
        config = sys.modules["elicit.suites"].VerifyConfig(**self.budget)
        shapes = [
            (m, n)
            for m in range(2, config.m_max + 1)
            for n in range(2, config.n_max + 1)
        ]
        per_baseline = max(1, config.trials // config.baselines)
        counts = {
            "freeness": len(shapes) * FREENESS_ALPHAS * config.baselines * per_baseline,
            "identities": sum(
                IDENTITY_ALPHAS * config.profiles * m * (2 if n == 2 else 1)
                for m, n in shapes
            ),
            "witness": config.trials,
            "properness": 2 * config.probes,
        }
        return {name: counts[name] for name in self.suites}

    def checks(self) -> int:
        return sum(self.expected_checks().values())

    def verify(self, output) -> Optional[str]:
        """None when the suites passed cleanly with the implied counts."""
        expected = self.expected_checks()
        got = [r.name for r in output]
        if sorted(got) != sorted(expected):
            return f"ran suites {got}, expected {sorted(expected)}"
        for r in output:
            if not r.passed or r.failures or r.findings:
                return f"{r.name}: passed={r.passed} failures={r.failures} findings={r.findings}"
            if r.checks != expected[r.name]:
                return f"{r.name}: {r.checks} checks, budget implies {expected[r.name]}"
        return None

    def render(self, output) -> str:
        return json.dumps(
            [dataclasses.asdict(r) for r in output], sort_keys=True, default=str
        )


class SearchWorkload:
    """One in-process ``elicit search --grid`` run per request."""

    name = "search"
    why = (
        "CLI grid search with no certificate: dominance checks and quadratic "
        "scores, never the alpha-family kernel or sampling"
    )
    entry = "elicit.cli"
    expected_spans = (
        "cli",
        "formats",
        "arbitrage.search_arbitrage",
        "arbitrage.check_dominance",
        "arbitrage.ensure_agreement_outside",
        "contracts.coalition_totals",
        "contracts.independent_evaluate",
        "scoring.quadratic_score",
        "simplex.lattice",
        "simplex.replace",
        "simplex.distribution_check",
    )
    trace_requests = 24

    def make_input(self, rng: random.Random) -> str:
        """Profile text: experts 1 and 2 share one interior report."""
        d = SEARCH_DENOMINATOR
        a, b = sorted(rng.sample(range(1, d), 2))
        shared = (a, b - a, d - b)
        c1, c2 = sorted(rng.randint(0, d) for _ in range(2))
        third = (c1, c2 - c1, d - c2)
        rows = [",".join(f"{k}/{d}" for k in ks) for ks in (shared, shared, third)]
        return "; ".join(rows)

    def args(self, reports: str) -> list:
        return [
            "search",
            "--reports", reports,
            "--contract", "independent-quadratic",
            "--coalition", "1,2",
            "--grid", str(SEARCH_GRID),
            "--format", "json",
        ]

    def request(self, reports: str, span=_no_span):
        main = sys.modules["elicit.cli"].main
        out = io.StringIO()
        code = None
        with span("cli"), contextlib.redirect_stdout(out):
            try:
                main.main(args=self.args(reports), prog_name="elicit")
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def checks(self) -> int:
        """Deviations examined: every pair of lattice points."""
        return comb(SEARCH_GRID + 2, 2) ** 2

    def verify(self, output) -> Optional[str]:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if payload.get("results") != {"found": False} or payload.get("certificates") != []:
            return f"unexpected result {payload.get('results')}"
        return None

    def render(self, output) -> str:
        code, text = output
        return f"{code}\n{text}"


WORKLOADS = {
    w.name: w
    for w in (
        SuiteWorkload(
            "freeness",
            "freeness suite over all default shapes and alphas: sets the "
            "gate's wall time through the alpha-family kernel",
            ["freeness"],
            {"baselines": 1, "trials": 3},
            (
                "suites",
                "contracts.nr_evaluate",
                "contracts.coalition_totals",
                "contracts.validate_alpha",
                "sampling.random_distribution",
                "sampling.random_profile",
                "sampling.random_coalition",
                "simplex.replace",
                "simplex.profile_totals",
                "simplex.distribution_check",
            ),
            trace_requests=12,
        ),
        SuiteWorkload(
            "algebra",
            "identity, witness and properness suites: the same contracts one "
            "outcome and one expert at a time",
            ["identities", "witness", "properness"],
            {"profiles": 1, "trials": 20, "probes": 2, "grid": 10},
            (
                "suites",
                "verification.identity_report",
                "verification.form_residual",
                "verification.hurting_outcome",
                "contracts.coalition_total",
                "contracts.nr_evaluate",
                "contracts.expert_view",
                "scoring.properness_probe",
                "scoring.expected_score",
                "scoring.quadratic_score",
                "simplex.lattice",
                "simplex.coalition_sums",
                "simplex.leave_one_out_mean",
                "sampling.random_profile",
                "sampling.random_distribution",
            ),
            trace_requests=24,
        ),
        SearchWorkload(),
    )
}
