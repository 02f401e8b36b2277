"""The library's three argument rules, each checked at every site it guards.

``simplex`` owns them: ``_require_shape`` (at least 2 experts and 2
outcomes), ``_require_index`` (an int expert or outcome index, not a
bool, inside the shape) and ``_require_int`` (an int, not a bool,
optionally with a lower bound).  Each case below calls one public entry
point with one bad argument and pins the exact exception type and
message; sites whose message another test already pins
(``quadratic_score``, ``replace``, ``VerifyConfig``) are left to it,
except that every index site is given each kind of non-int.
"""

from __future__ import annotations

import random

import pytest

from elicit import (
    ArbitrageFreeContract,
    Coalition,
    Distribution,
    IndependentScoring,
    QuadraticRule,
    ReportProfile,
    coalition_reward_poly,
    coalition_total,
    expected_reward,
    general_form_residual,
    leave_one_out_mean,
    log_score,
    monotonicity_check,
    quadratic_score,
    simplex_lattice,
    threshold_general,
    threshold_two_outcome,
    two_outcome_form_residual,
    uniform_report_arbitrage_interval,
    validate_alpha,
    vertex,
)
from elicit.sampling import (
    random_coalition,
    random_distribution,
    random_profile,
)

PAIR = ReportProfile.of(("1/4", "3/4"), ("1/2", "1/2"))
LONE = ReportProfile.of(("1/4", "3/4"))
REPORT = Distribution.of("1/4", "3/4")
FAMILY = ArbitrageFreeContract(alpha=-1)
INDEPENDENT = IndependentScoring(QuadraticRule())
BOTH = Coalition.full(2)


# (id, call, exception, message): each call takes a fresh generator,
# which it must leave as it found it.
CASES = [
    # Shape: at least 2 experts and 2 outcomes.
    ("threshold_general", lambda rng: threshold_general(1, 0),
     ValueError, "need at least 2 experts, got m=1"),
    ("threshold_two_outcome", lambda rng: threshold_two_outcome(0, 0),
     ValueError, "need at least 2 experts, got m=0"),
    ("validate_alpha_m", lambda rng: validate_alpha(-1, 1, 2),
     ValueError, "need at least 2 experts, got m=1"),
    ("validate_alpha_n", lambda rng: validate_alpha(-1, 2, 1),
     ValueError, "need at least 2 outcomes, got n=1"),
    ("family_evaluate_m", lambda rng: FAMILY.evaluate(LONE, 0),
     ValueError, "need at least 2 experts, got m=1"),
    ("family_expert_view_m", lambda rng: FAMILY.expert_view(LONE, 0),
     ValueError, "need at least 2 experts, got m=1"),
    ("random_coalition_m", lambda rng: random_coalition(rng, 1),
     ValueError, "need at least 2 experts, got m=1"),
    ("random_distribution_n", lambda rng: random_distribution(rng, 1),
     ValueError, "need at least 2 outcomes, got n=1"),
    ("vertex_n", lambda rng: vertex(1, 0),
     ValueError, "need at least 2 outcomes, got n=1"),
    ("profile_n", lambda rng: ReportProfile((Distribution.of(1),)),
     ValueError, "need at least 2 outcomes, got n=1"),
    ("lattice_n", lambda rng: list(simplex_lattice(1, 2)),
     ValueError, "need at least 2 outcomes, got n=1"),
    # Index: inside range(m) for experts, range(n) for outcomes.
    ("log_score", lambda rng: log_score(REPORT, 5),
     IndexError, "outcome 5 out of range for n=2"),
    ("vertex_j", lambda rng: vertex(2, 2),
     IndexError, "outcome 2 out of range for n=2"),
    ("independent_evaluate", lambda rng: INDEPENDENT.evaluate(PAIR, 5),
     IndexError, "outcome 5 out of range for n=2"),
    ("family_evaluate_j", lambda rng: FAMILY.evaluate(PAIR, 5),
     IndexError, "outcome 5 out of range for n=2"),
    ("coalition_total", lambda rng: coalition_total(FAMILY, PAIR, BOTH, 5),
     IndexError, "outcome 5 out of range for n=2"),
    ("uniform_report_interval",
     lambda rng: uniform_report_arbitrage_interval(PAIR, BOTH, 5),
     IndexError, "outcome 5 out of range for n=2"),
    ("family_expert_view_i", lambda rng: FAMILY.expert_view(PAIR, 5),
     IndexError, "expert 5 out of range for m=2"),
    ("expected_reward",
     lambda rng: expected_reward(INDEPENDENT, PAIR, 5, REPORT),
     IndexError, "expert 5 out of range for m=2"),
    ("leave_one_out_mean", lambda rng: leave_one_out_mean(PAIR, -1),
     IndexError, "expert -1 out of range for m=2"),
    # Lower bounds on ints.
    ("lattice_steps", lambda rng: list(simplex_lattice(2, 0)),
     ValueError, "steps must be >= 1, got 0"),
    ("random_distribution_denominator",
     lambda rng: random_distribution(rng, 2, denominator=0),
     ValueError, "denominator must be >= 1, got 0"),
]


@pytest.mark.parametrize(
    "call, error, message",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_owner_message_at_each_site(call, error, message):
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(error) as raised:
        call(rng)
    assert type(raised.value) is error
    assert str(raised.value) == message
    assert rng.getstate() == state


# (id, kind, call with the index under test): every site of the index
# rule, the two-outcome analyses and the residual rows included.
INDICES = [
    ("quadratic_score", "outcome", lambda j: quadratic_score(REPORT, j)),
    ("log_score", "outcome", lambda j: log_score(REPORT, j)),
    ("vertex", "outcome", lambda j: vertex(2, j)),
    ("independent_evaluate", "outcome",
     lambda j: INDEPENDENT.evaluate(PAIR, j)),
    ("family_evaluate", "outcome", lambda j: FAMILY.evaluate(PAIR, j)),
    ("coalition_total", "outcome",
     lambda j: coalition_total(FAMILY, PAIR, BOTH, j)),
    ("uniform_report_interval", "outcome",
     lambda j: uniform_report_arbitrage_interval(PAIR, BOTH, j)),
    ("coalition_reward_poly", "outcome",
     lambda j: coalition_reward_poly(PAIR, BOTH, j, -1)),
    ("monotonicity_check", "outcome",
     lambda j: monotonicity_check(FAMILY, PAIR, BOTH, j)),
    ("two_outcome_form_residual", "outcome",
     lambda j: two_outcome_form_residual(PAIR, j, -1)),
    ("general_form_residual", "outcome",
     lambda j: general_form_residual(PAIR, j, -1)),
    ("family_expert_view", "expert", lambda i: FAMILY.expert_view(PAIR, i)),
    ("expected_reward", "expert",
     lambda i: expected_reward(INDEPENDENT, PAIR, i, REPORT)),
    ("leave_one_out_mean", "expert", lambda i: leave_one_out_mean(PAIR, i)),
]


@pytest.mark.parametrize("value", [True, False, 1.0, 1.5, "1", None])
@pytest.mark.parametrize(
    "kind, call",
    [case[1:] for case in INDICES],
    ids=[case[0] for case in INDICES],
)
def test_index_must_be_an_int(kind, call, value):
    with pytest.raises(TypeError) as raised:
        call(value)
    assert str(raised.value) == f"{kind} index {value!r} is not an int"


# (id, name, call with the count under test): the count must be an int.
COUNTS = [
    ("coalition_full", "m", lambda rng, v: Coalition.full(v)),
    ("vertex", "n", lambda rng, v: vertex(v, 0)),
    ("random_profile", "m", lambda rng, v: random_profile(rng, v, 2)),
    ("random_coalition_m", "m", lambda rng, v: random_coalition(rng, v)),
    ("random_coalition_size", "size",
     lambda rng, v: random_coalition(rng, 3, v)),
    ("random_distribution_n", "n",
     lambda rng, v: random_distribution(rng, v)),
    ("random_distribution_denominator", "denominator",
     lambda rng, v: random_distribution(rng, 2, denominator=v)),
]


@pytest.mark.parametrize("value", [True, 2.5])
@pytest.mark.parametrize(
    "name, call", [case[1:] for case in COUNTS], ids=[case[0] for case in COUNTS]
)
def test_count_must_be_an_int_before_any_draw(name, call, value):
    rng = random.Random(7)
    state = rng.getstate()
    with pytest.raises(ValueError) as raised:
        call(rng, value)
    assert str(raised.value) == f"{name} must be an int, got {value!r}"
    assert rng.getstate() == state
