"""Truthful multi-expert forecast elicitation with exact arithmetic.

The package models probability reports as exact rationals, scores them
with strictly proper rules, pays groups of experts through contract
functions, and hunts for coalition arbitrage: joint misreports that
risklessly raise a coalition's total payment.  The central object is a
one-parameter family of contracts that stays truthful while provably
removing arbitrage for the right parameter ranges; verification suites
re-check the underlying algebraic identities and no-arbitrage behavior
instance by instance.
"""

from .simplex import (
    Coalition,
    Distribution,
    ReportProfile,
    coalition_sums,
    leave_one_out_mean,
    simplex_lattice,
    vertex,
)
from .scoring import (
    LogRule,
    ProbeResult,
    QuadraticRule,
    ScoringRule,
    expected_score,
    log_score,
    properness_probe,
    quadratic_score,
)
from .contracts import (
    AlphaRangeError,
    AlphaVerdict,
    ArbitrageFreeContract,
    ContractFunction,
    IndependentScoring,
    ZeroSumPair,
    coalition_total,
    coalition_totals,
    expected_reward,
    threshold_general,
    threshold_two_outcome,
    validate_alpha,
)
from .arbitrage import (
    ArbitrageCertificate,
    ArbitrageInterval,
    CertificateKind,
    GridSearch,
    RandomSearch,
    check_dominance,
    check_expected_arbitrage,
    mean_collusion,
    search_arbitrage,
    uniform_report_arbitrage_interval,
)
from .verification import (
    CoalitionPolynomial,
    IdentityReport,
    Monotonicity,
    coalition_reward_poly,
    general_form_residual,
    hurting_outcome,
    monotonicity_check,
    parabola_vertex,
    two_outcome_form_residual,
)

__version__ = "0.1.0"
