"""Verification-run configuration: bad shapes and budgets fail up front."""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from elicit import arbitrage, suites
from elicit.arbitrage import MAX_GRID_DEVIATIONS
from elicit.contracts import (
    AlphaRangeError,
    ArbitrageFreeContract,
    InducedExpertRule,
    _member_sums,
    coalition_totals,
    safe_cutoff,
    validate_alpha,
)
from elicit.simplex import Coalition, Distribution, ReportProfile, simplex_lattice
from elicit.suites import SUITE_NAMES, VerifyConfig, run_suites

from conftest import distributions, fine_profiles, profiles


@pytest.mark.parametrize("name", ["m_max", "n_max"])
@pytest.mark.parametrize("value", [1, 0, -2])
def test_shape_limit_below_two_is_refused(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be >= 2, got {value}$"):
        VerifyConfig(**{name: value})


@pytest.mark.parametrize("name", ["m_max", "trials", "grid", "probes", "seed"])
@pytest.mark.parametrize("value", [2.5, True, "3", None])
def test_budget_that_is_not_an_int_is_refused(name, value):
    # A seed of "3" would run as 3: each random stream is named by the
    # seed's text.
    with pytest.raises(ValueError, match=rf"^{name} must be an int, got "):
        VerifyConfig(**{name: value})


@pytest.mark.parametrize("value", ["no", 1, 0, None])
def test_permissive_that_is_not_a_bool_is_refused(value):
    # "no" is truthy: it would evaluate permissively and skip the band check.
    with pytest.raises(ValueError, match=rf"^permissive must be a bool, got {value!r}$"):
        VerifyConfig(permissive=value)


def test_trials_above_the_search_limit_are_refused(monkeypatch):
    # A suite cell checks up to `trials` deviations, and the edge-case
    # suite's random search refuses more than the limit; so does the
    # configuration, whichever suites run.
    monkeypatch.setattr(arbitrage, "MAX_GRID_DEVIATIONS", 20)
    assert VerifyConfig(n_max=2, grid=2, trials=20).trials == 20
    with pytest.raises(ValueError) as caught:
        VerifyConfig(n_max=2, grid=2, trials=21)
    assert str(caught.value) == (
        "trials 21 would have a suite cell check 21 deviations, more than "
        "the limit of 20; use fewer trials"
    )


@pytest.mark.parametrize(
    "alphas,message",
    [
        ((), r"^alphas must be None or nonempty, got \(\)$"),
        ([], r"^alphas must be None or nonempty, got \[\]$"),
        ("-1", r"^alphas must be None or nonempty, got '-1'$"),
        ((Fraction(-1), "-1/1"), r"^alphas repeat a value: -1, -1$"),
        ([3, 5, "6/2"], r"^alphas repeat a value: 3, 5, 3$"),
    ],
)
def test_empty_or_repeated_alphas_are_refused(alphas, message):
    # An empty tuple would divide by zero inside properness, and a repeat
    # would run the same cells twice and double the check counts.
    with pytest.raises(ValueError, match=message):
        VerifyConfig(alphas=alphas)


def test_alphas_are_a_hashable_tuple_of_fractions():
    config = VerifyConfig(alphas=[Fraction(-1), "5/2", 7])
    assert config.alphas == (Fraction(-1), Fraction(5, 2), Fraction(7))
    assert all(type(a) is Fraction for a in config.alphas)
    assert hash(config) == hash(VerifyConfig(alphas=(-1, "5/2", "7")))
    with pytest.raises(TypeError, match="float"):
        VerifyConfig(alphas=(1.5,))


def test_smallest_shapes_run_every_suite():
    config = VerifyConfig(
        m_max=2, n_max=2, trials=4, baselines=2, profiles=3, probes=2, grid=2
    )
    results = run_suites(None, config)
    assert [r.name for r in results] == list(SUITE_NAMES)
    assert all(r.passed and r.checks > 0 for r in results)


@pytest.mark.parametrize("n_max", [3, 4, 7])
def test_grid_must_fit_three_outcome_beliefs(n_max):
    with pytest.raises(ValueError, match=r"^grid must be >= 3 when n_max >= 3, got 2"):
        VerifyConfig(n_max=n_max, grid=2)
    VerifyConfig(n_max=n_max, grid=3)


def test_grid_two_fits_two_outcome_beliefs():
    assert VerifyConfig(n_max=2, grid=2).grid == 2


def test_grid_below_two_keeps_its_message():
    with pytest.raises(ValueError, match=r"^grid must be >= 2, got 1$"):
        VerifyConfig(n_max=4, grid=1)


def test_properness_runs_at_the_smallest_grid():
    config = VerifyConfig(m_max=3, n_max=3, probes=6, grid=3)
    (result,) = run_suites(["properness"], config)
    assert result.passed and result.checks == 12


@pytest.mark.parametrize("n_max,largest", [(2, 999_999), (3, 1412), (4, 1412)])
def test_grid_bound_on_the_properness_lattice(n_max, largest):
    # C(grid + k - 1, k - 1) reports per probe, k = min(3, n_max), may not
    # exceed MAX_GRID_DEVIATIONS; only the configuration is built here.
    k = min(3, n_max)
    assert math.comb(largest + k - 1, k - 1) <= MAX_GRID_DEVIATIONS
    assert VerifyConfig(n_max=n_max, grid=largest).grid == largest
    refused = largest + 1
    count = math.comb(refused + k - 1, k - 1)
    with pytest.raises(ValueError) as caught:
        VerifyConfig(n_max=n_max, grid=refused)
    assert str(caught.value) == (
        f"grid {refused} would have each {k}-outcome properness probe list "
        f"{count} lattice reports, more than the limit of 1000000; use a "
        f"coarser grid"
    )


def test_properness_runs_the_alpha_override():
    config = VerifyConfig(
        m_max=3, n_max=3, probes=6, grid=6, alphas=(Fraction(3), Fraction(-1))
    )
    (result,) = run_suites(["properness"], config)
    assert result.passed and result.checks == 2 * config.probes


HOSTILE_ALPHAS = (
    Fraction(-(10**6)),
    Fraction(10**6),
    Fraction(1, 10**4299),
    Fraction(-1),
    Fraction(0),
    Fraction(7, 3),
)


def _plain_expected(offsets, report, belief):
    """E_b[r] = sum_j b_j * (2*r_j - sum(r**2) + o_j), on plain Fractions."""
    square = sum(w * w for w in report.weights)
    return sum(
        b * (2 * r - square + o)
        for b, r, o in zip(belief.weights, report.weights, offsets)
    )


@given(
    profile=profiles(max_m=5, max_n=4),
    data=st.data(),
    alpha=st.sampled_from(HOSTILE_ALPHAS),
)
def test_properness_identity_holds_on_the_whole_grid(profile, data, alpha):
    i = data.draw(st.integers(0, profile.m - 1))
    belief = data.draw(distributions(n=profile.n))
    rule = ArbitrageFreeContract(alpha=alpha, permissive=True).expert_view(
        profile, i
    )
    assert suites._identity_failure(rule, belief) is None
    truth = _plain_expected(rule.offsets, belief, belief)
    for report in simplex_lattice(profile.n, 5):
        value = _plain_expected(rule.offsets, report, belief)
        assert rule.expected(report, belief) == value
        assert truth - value == sum(
            (r - b) ** 2 for r, b in zip(report.weights, belief.weights)
        )


def _square(report):
    return sum(w * w for w in report.weights)


@pytest.mark.parametrize(
    "term",
    [
        _square,
        lambda report: report.weights[0],
        # Zero at every vertex and at the belief below: only an edge
        # midpoint sees it.
        lambda report: (
            report.weights[0] * report.weights[1] * Fraction(1, 2)
            - report.weights[0] * report.weights[2] * Fraction(3, 10)
        ),
    ],
    ids=["doubled-square", "linear", "cross"],
)
def test_properness_identity_fails_a_rule_off_by_a_term_in_the_report(term):
    profile = ReportProfile.of(("1/3", "2/3", "0"), ("1/2", "1/4", "1/4"))
    belief = Distribution.of("1/5", "3/10", "1/2")
    rule = ArbitrageFreeContract(alpha=-1).expert_view(profile, 0)
    mutated = SimpleNamespace(
        expected=lambda report, b: rule.expected(report, b) - term(report)
    )
    report, gap, distance = suites._identity_failure(mutated, belief)
    assert report in set(simplex_lattice(3, 2))
    assert gap != distance
    assert distance == sum(
        (r - b) ** 2 for r, b in zip(report.weights, belief.weights)
    )


def test_properness_suite_reports_a_failed_identity(monkeypatch):
    expected = InducedExpertRule.expected
    monkeypatch.setattr(
        InducedExpertRule,
        "expected",
        lambda rule, report, b: expected(rule, report, b) - _square(report),
    )
    config = VerifyConfig(m_max=3, n_max=3, probes=2, grid=6)
    (result,) = run_suites(["properness"], config)
    assert not result.passed and result.checks == 4
    gaps = [f for f in result.failures if "expected-payment gap" in f]
    assert len(gaps) == 2
    assert gaps[0].startswith("probe 1: m=") and "at report [" in gaps[0]


def test_witness_builds_one_contract_per_drawn_alpha(monkeypatch):
    built = []

    def recording(alpha, permissive=False):
        built.append(alpha)
        return ArbitrageFreeContract(alpha, permissive)

    config = VerifyConfig(m_max=4, n_max=3, trials=60)
    (plain,) = run_suites(["witness"], config)
    monkeypatch.setattr(suites, "ArbitrageFreeContract", recording)
    (result,) = run_suites(["witness"], config)
    assert result == plain and result.passed and result.checks == 60
    # Every built alpha is distinct, and each is safe for some shape.
    assert len(built) == len(set(built)) > 1
    shapes = [(m, n) for m in range(2, 5) for n in range(2, 4)]
    defaults = {
        a for m, n in shapes for a in suites._dominance_alphas(config, m, n)
    }
    assert set(built) <= defaults


def always_certify(contract, baseline, deviation, coalition, before=None):
    """A broken dominance check: every deviation certifies."""
    return SimpleNamespace(deltas=(Fraction(1),) * baseline.n)


def test_failing_freeness_keeps_one_counterexample_per_kept_failure(
    monkeypatch,
):
    monkeypatch.setattr(suites, "check_dominance", always_certify)
    config = VerifyConfig(m_max=3, n_max=2, trials=50, baselines=2)
    (result,) = run_suites(["freeness"], config)
    assert not result.passed and result.checks == 400
    kept, dropped = result.failures[:-1], result.failures[-1]
    assert len(kept) == 5 and dropped == "... and 395 more failures"
    examples = result.details["counterexamples"]
    assert len(examples) == 5
    for message, example in zip(kept, examples):
        assert message.endswith(f"coalition {example['coalition']}")
        assert f"alpha={example['alpha']}:" in message


@pytest.mark.parametrize("names", [[], ()])
def test_empty_selection_is_refused(names):
    with pytest.raises(ValueError, match=r"^no suite selected; choose from "):
        run_suites(names, VerifyConfig())


@pytest.mark.parametrize("names", ["freeness", ""])
def test_a_string_selection_is_refused(names):
    # Iterating "freeness" would report unknown suites f, r, e, e, ...
    message = rf"^names must be a list of suite names, got {names!r}$"
    with pytest.raises(ValueError, match=message):
        run_suites(names, VerifyConfig())


def test_cell_labels_name_each_stream_in_run_order():
    config = VerifyConfig(m_max=3, n_max=3)
    labels = {
        name: [label for label, _, _ in suites._SUITES[name](config)]
        for name in SUITE_NAMES
    }
    # safe_cutoff is 4 at (2, 2), 6 at (2, 3), 16 at (3, 2) and 24 at (3, 3).
    assert labels["freeness"] == [
        f"freeness:{m}:{n}:{a}"
        for m, n, c in ((2, 2, 4), (2, 3, 6), (3, 2, 16), (3, 3, 24))
        for a in (-1, -10, c, c + 5)
    ]
    assert labels["identities"] == [
        f"identities:{m}:{n}:{a}"
        for m, n, c in ((2, 2, 4), (2, 3, 6), (3, 2, 16), (3, 3, 24))
        for a in (-1, "5/3", c)
    ]
    assert labels["freeness"][0] == "freeness:2:2:-1"
    assert labels["structure"] == [
        "structure:poly", "structure:monotonicity", "structure:vertex"
    ]
    del labels["identities"], labels["freeness"], labels["structure"]
    assert labels == {
        "properness": ["properness"],
        "collusion": ["collusion"],
        "edge-case": ["edge-case"],
        "expected-arbitrage": ["expected:implication"],
        "witness": ["witness"],
    }
    # A shape cell's arguments are its exact (m, n, alpha).
    _, _, args = suites._SUITES["freeness"](config)[2]
    assert args == (2, 2, Fraction(4)) and type(args[2]) is Fraction


def test_a_cells_findings_do_not_depend_on_the_other_alphas():
    # Each cell draws from its own labelled stream, so adding the safe
    # alpha -1 (no findings) leaves the alpha = 1 cells' findings alone.
    def findings(alphas):
        config = VerifyConfig(
            m_max=3, n_max=2, alphas=alphas, permissive=True,
            trials=100, baselines=4,
        )
        (result,) = run_suites(["freeness"], config)
        assert result.passed
        return result.findings

    alone = findings((1,))
    assert alone and all("alpha=1:" in f for f in alone)
    assert findings((-1, 1)) == alone


@pytest.mark.parametrize(
    "alphas,band,shape",
    [
        # -1 is safe everywhere; 5/3 is prone from the first cell on.
        ((Fraction(-1), Fraction(5, 3)), "[0, 4)", "m=2, n=2"),
        # 5 clears the cutoff 4 at m=2, n=2 but not 6 at m=2, n=3.
        ((Fraction(5),), "[0, 6)", "m=2, n=3"),
    ],
)
def test_prone_alpha_with_freeness_is_refused_before_any_suite(
    monkeypatch, alphas, band, shape
):
    # Each suite keeps its real cells; their bodies only record the label.
    ran = []
    for name, cells in list(suites._SUITES.items()):
        monkeypatch.setitem(
            suites._SUITES,
            name,
            lambda config, cells=cells: [
                (label, lambda *_, label=label: ran.append(label), args)
                for label, _, args in cells(config)
            ],
        )
    alpha = alphas[-1]
    message = (
        f"alpha={alpha} lies in the arbitrage-prone band {band} for {shape}; "
        f"enable permissive mode to evaluate anyway"
    )
    with pytest.raises(AlphaRangeError) as caught:
        run_suites(["identities", "freeness"], VerifyConfig(alphas=alphas))
    assert str(caught.value) == message
    assert ran == []
    # The same selection, permissive, runs every stand-in cell in order.
    permissive = VerifyConfig(alphas=alphas, permissive=True)
    run_suites(["identities", "freeness"], permissive)
    cells = [
        f"{suite}:{m}:{n}:{a}"
        for suite in ("identities", "freeness")
        for m in range(2, 6)
        for n in range(2, 5)
        for a in alphas
    ]
    assert ran == cells


def test_prone_alpha_without_freeness_still_runs():
    # The rewrites are pure algebra, so identities accepts any alpha.
    config = VerifyConfig(m_max=3, n_max=2, alphas=(Fraction(5, 3),), profiles=5)
    (result,) = run_suites(["identities"], config)
    assert result.passed and result.checks > 0


@st.composite
def alpha_cases(draw):
    """A mixed-denominator profile, a coalition and a safe or prone alpha."""
    profile = draw(fine_profiles())
    m, n = profile.m, profile.n
    size = draw(st.integers(1, m))
    coalition = Coalition.of(draw(st.permutations(range(m)))[:size])
    cutoff = safe_cutoff(m, n)
    alpha = draw(
        st.sampled_from(
            [
                Fraction(-1), Fraction(-10), Fraction(-7, 3),
                Fraction(cutoff), Fraction(cutoff + 5), Fraction(cutoff * 7, 3),
                Fraction(0), Fraction(5, 3), Fraction(cutoff) - Fraction(1, 7),
            ]
        )
    )
    return profile, coalition, alpha


class TestFreenessBaselineTotals:
    @given(alpha_cases())
    def test_integer_member_sums_equal_fraction_sums(self, case):
        profile, coalition, alpha = case
        prone = not validate_alpha(alpha, profile.m, profile.n).valid
        contract = ArbitrageFreeContract(alpha=alpha, permissive=prone)
        rewards = [contract.evaluate(profile, j) for j in range(profile.n)]
        got = _member_sums(rewards, coalition.members)
        want = tuple(
            sum(contract.evaluate(profile, j)[i] for i in coalition)
            for j in range(profile.n)
        )
        assert got == want
        assert all(type(t) is Fraction for t in got)
        assert got == coalition_totals(contract, profile, coalition)
