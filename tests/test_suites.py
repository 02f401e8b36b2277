"""Verification-run configuration: bad shapes and budgets fail up front."""

from __future__ import annotations

import pytest

from elicit.suites import SUITE_NAMES, VerifyConfig, run_suites


@pytest.mark.parametrize("name", ["m_max", "n_max"])
@pytest.mark.parametrize("value", [1, 0, -2])
def test_shape_limit_below_two_is_refused(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be >= 2, got {value}$"):
        VerifyConfig(**{name: value})


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
