"""The test-only oracle and fixture of ``oracles.py``, checked on their own."""

import numpy as np
import pytest
from oracles import monte_carlo_oracle, sinusoidal_split

from bikecast.queueing import RateSeries

# -- Monte Carlo oracle ----------------------------------------------------------


def test_monte_carlo_lost_counts_have_expected_magnitude():
    # pickups only, start 1, cap 1: lost pickups = Poisson(4) arrivals minus
    # the single bike, in expectation 4 - (1 - e^-4) = 3.0183
    rates = RateSeries(60, [4.0], [0.0])
    mc = monte_carlo_oracle(rates, 1, 1, n_paths=60000, seed=5)
    expected = 4.0 - (1.0 - np.exp(-4.0))
    se = mc.lost_pickups.std() / np.sqrt(mc.n_paths)
    assert abs(mc.lost_pickups.mean() - expected) < 4 * se
    assert mc.lost_returns.mean() == 0.0


# -- sinusoidal fixture ----------------------------------------------------------


def test_sinusoidal_rates_and_split_sizes():
    split, pickup_rate, return_rate = sinusoidal_split(n_days=20, seed=5)
    assert split.train.n_days == 14
    assert split.validation.n_days == 3
    assert split.test.n_days == 3
    assert pickup_rate.shape == (24,)
    assert pickup_rate.min() == pytest.approx(5.0)
    assert pickup_rate.max() == pytest.approx(15.0)
    # returns run a quarter period behind pickups
    assert np.allclose(return_rate, np.roll(pickup_rate, 6))


def test_sinusoidal_split_is_deterministic():
    a, _, _ = sinusoidal_split(n_days=12, seed=9, day_log_noise=0.5)
    b, _, _ = sinusoidal_split(n_days=12, seed=9, day_log_noise=0.5)
    assert np.array_equal(a.train.pickups, b.train.pickups)
    assert np.array_equal(a.test.returns, b.test.returns)


def test_sinusoidal_covariates_follow_calendar():
    split, _, _ = sinusoidal_split(n_days=9, seed=0)
    cov = split.train.covariates
    assert cov is not None
    # 2018-01-01 is a Monday; day 3 rows carry dow_3
    row = cov[3 * 24 + 5]
    assert row[2 + 3] == 1.0
    assert row[9 + 5] == 1.0
    assert row[1] == 0.0  # dry benchmark


def test_day_noise_overdisperses_daily_totals():
    calm, _, _ = sinusoidal_split(n_days=40, seed=4)
    noisy, _, _ = sinusoidal_split(n_days=40, seed=4, day_log_noise=1.0)

    def day_totals(series):
        return series.pickups.reshape(series.n_days, -1).sum(axis=1)

    var_calm = day_totals(calm.train).var()
    var_noisy = day_totals(noisy.train).var()
    assert var_noisy > 10 * var_calm
