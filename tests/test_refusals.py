"""Refusals that no other test reaches, each with its exact type and text.

Each case calls one public entry point with one argument it must refuse
and pins the exception's type and message, as ``test_argument_rules``
does for the three shared argument rules.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from elicit import (
    ArbitrageCertificate,
    ArbitrageFreeContract,
    CertificateKind,
    Coalition,
    Distribution,
    IndependentScoring,
    QuadraticRule,
    ReportProfile,
    expected_reward,
    monotonicity_check,
    search_arbitrage,
)
from elicit.formats import InputError, parse_profile_json
from elicit.sampling import random_profile
from elicit.verification import general_identity_report

PAIR = ReportProfile.of(("1/2", "1/2"), ("1/2", "1/2"))
BOTH = Coalition.full(2)
QUADRATIC = IndependentScoring(QuadraticRule())
DOMINANCE, EXPECTED = CertificateKind.DOMINANCE, CertificateKind.EXPECTED

# (id, call, exception, message)
CASES = [
    ("certificate_delta_count",
     lambda: ArbitrageCertificate(PAIR, PAIR, BOTH, (1,), DOMINANCE),
     ValueError, "1 deltas for 2 outcomes"),
    ("certificate_no_dominance",
     lambda: ArbitrageCertificate(PAIR, PAIR, BOTH, (1, -1), DOMINANCE),
     ValueError, "deltas (1, -1) do not witness dominance"),
    # Rationals print as text, not as Fraction reprs.
    ("certificate_fraction_deltas",
     lambda: ArbitrageCertificate(
         PAIR, PAIR, BOTH, (Fraction(1, 2), Fraction(-1, 2)), DOMINANCE
     ),
     ValueError, "deltas (1/2, -1/2) do not witness dominance"),
    # Each member's belief is (1/2, 1/2), so each expects 1/2 - 1/2 = 0.
    ("certificate_no_expected_arbitrage",
     lambda: ArbitrageCertificate(PAIR, PAIR, BOTH, (1, -1), EXPECTED),
     ValueError,
     "member expected gains (0, 0) do not witness expected arbitrage"),
    ("search_strategy",
     lambda: search_arbitrage(QUADRATIC, PAIR, BOTH, "grid"),
     TypeError, "unknown search strategy 'grid'"),
    ("expected_reward_belief",
     lambda: expected_reward(
         QUADRATIC, PAIR, 0, Distribution.of("1/3", "1/3", "1/3")
     ),
     ValueError, "belief has 3 outcomes, profile has 2"),
    ("profile_json_n_below_two",
     lambda: parse_profile_json('{"n": 1, "reports": [["1/2", "1/2"]]}'),
     InputError, '"n" must be an integer >= 2, got 1'),
    ("profile_json_n_text",
     lambda: parse_profile_json('{"n": "2", "reports": [["1/2", "1/2"]]}'),
     InputError, "\"n\" must be an integer >= 2, got '2'"),
    ("coalition_empty", lambda: Coalition(()),
     ValueError, "a coalition must be nonempty"),
    ("coalition_decreasing", lambda: Coalition((1, 0)),
     ValueError, "members must be strictly increasing, got (1, 0)"),
    ("coalition_repeated", lambda: Coalition((0, 2, 2)),
     ValueError, "members must be strictly increasing, got (0, 2, 2)"),
    ("profile_later_report",
     lambda: ReportProfile((Distribution.of("1/2", "1/2"), ("1/2", "1/2"))),
     TypeError, "report 1 is not a Distribution"),
    ("random_profile_m", lambda: random_profile(random.Random(7), 0, 2),
     ValueError, "need at least 1 expert, got m=0"),
    ("identity_report_no_profiles",
     lambda: general_identity_report([], Fraction(-1)),
     ValueError, "need at least one profile"),
    ("monotonicity_samples",
     lambda: monotonicity_check(
         ArbitrageFreeContract(alpha=-1), PAIR, BOTH, 0, samples=1
     ),
     ValueError, "need at least 2 samples, got 1"),
]


@pytest.mark.parametrize(
    "call, error, message",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_refusal_type_and_text(call, error, message):
    with pytest.raises(Exception) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message
