"""Transient distribution of the censored pickup/return chain.

The uniformized interval operators are checked against closed forms, against
per-interval matrix exponentials (including the Van Loan block form of their
integral), and against a direct event simulation.
"""

import numpy as np
import pytest
import udf_sweep
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import monte_carlo_oracle

from bikecast import queueing
from bikecast.errors import DomainError
from bikecast.inventory import udf_curve
from bikecast.queueing import (
    RateSeries,
    adjoint_interval,
    generator_matrix,
    log_factorial,
    matrix_exponential_oracle,
)


def random_instance(rng, max_capacity=20, max_rate=30.0, n_intervals=24):
    capacity = int(rng.integers(1, max_capacity + 1))
    start = int(rng.integers(0, capacity + 1))
    rates = RateSeries(
        60,
        rng.uniform(0.0, max_rate, n_intervals),
        rng.uniform(0.0, max_rate, n_intervals),
    )
    return rates, start, capacity


def transition(mu, lam, capacity, hours):
    """e^{A h}: column s is the distribution after ``hours`` from s bikes."""
    n = capacity + 1
    return adjoint_interval(np.eye(n), np.zeros((n, n)), mu, lam, capacity, hours)


def integral(mu, lam, capacity, hours):
    """integral_0^h e^{A t} dt."""
    n = capacity + 1
    return adjoint_interval(np.zeros((n, n)), np.eye(n), mu, lam, capacity, hours)


def boundary_distributions(rates, start, capacity):
    """Occupancy distribution at every interval boundary, chained forward."""
    mu_h, lam_h = rates.hourly()
    p = np.zeros(capacity + 1)
    p[start] = 1.0
    out = [p]
    for mu, lam in zip(mu_h, lam_h):
        p = transition(mu, lam, capacity, rates.interval_hours) @ p
        out.append(p)
    return np.array(out)


def van_loan(mu, lam, capacity, hours):
    """(e^{A h}, integral_0^h e^{A t} dt) from one block matrix exponential."""
    from scipy.linalg import expm  # scipy is a dev dependency: only the oracles need it

    n = capacity + 1
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = generator_matrix(mu, lam, capacity)
    block[:n, n:] = np.eye(n)
    full = expm(block * hours)
    return full[:n, :n], full[:n, n:]


def test_generator_columns_sum_to_zero():
    a = generator_matrix(3.0, 5.0, 7)
    np.testing.assert_allclose(a.sum(axis=0), 0.0, atol=1e-12)


def test_generator_moves_probability_correctly():
    # pickups drain sigma -> sigma-1, returns fill sigma -> sigma+1
    a = generator_matrix(2.0, 3.0, 2)
    expected = np.array(
        [
            [-3.0, 2.0, 0.0],
            [3.0, -5.0, 2.0],
            [0.0, 3.0, -2.0],
        ]
    )
    np.testing.assert_allclose(a, expected)


def test_two_state_closed_form():
    # start empty, no pickups, returns at 1/h, capacity 1:
    # p(full at t=1h) = 1 - exp(-1), and the expected time spent full over
    # the hour is the integral of that, exp(-1)
    np.testing.assert_allclose(transition(0.0, 1.0, 1, 1.0)[1, 0], 1.0 - np.exp(-1.0),
                               atol=1e-14)
    np.testing.assert_allclose(integral(0.0, 1.0, 1, 1.0)[1, 0], np.exp(-1.0), atol=1e-14)


def test_pure_death_closed_form():
    # start full, pickups at 2/h, no returns, capacity 1:
    # p(still full at 30min) = exp(-1)
    rates = RateSeries(30, [1.0], [0.0])
    probs = boundary_distributions(rates, start=1, capacity=1)
    np.testing.assert_allclose(probs[-1, 1], np.exp(-1.0), atol=1e-14)


def test_initial_condition_is_point_mass():
    rates = RateSeries(60, [4.0, 2.0], [1.0, 5.0])
    expected = np.zeros(7)
    expected[3] = 1.0
    exact = matrix_exponential_oracle(rates, start=3, capacity=6)
    mc = monte_carlo_oracle(rates, start=3, capacity=6, n_paths=10, seed=1)
    for traj in (exact, mc):
        np.testing.assert_array_equal(traj.probs[0], expected)
        assert traj.grid[0] == 0.0


def test_zero_rates_freeze_the_distribution():
    u = np.arange(10.0)
    w = np.ones(10)
    np.testing.assert_array_equal(adjoint_interval(u, w, 0.0, 0.0, 9, 0.25), u + 0.25 * w)
    rates = RateSeries(60, np.zeros(24), np.zeros(24))
    probs = boundary_distributions(rates, start=4, capacity=9)
    assert np.all(probs[:, 4] == 1.0)


def test_conservation_and_nonnegativity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        rates, start, capacity = random_instance(rng)
        probs = boundary_distributions(rates, start, capacity)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs.min() >= 0.0


def test_matches_matrix_exponential():
    rng = np.random.default_rng(11)
    for _ in range(10):
        rates, start, capacity = random_instance(rng)
        probs = boundary_distributions(rates, start, capacity)
        oracle = matrix_exponential_oracle(rates, start, capacity)
        assert probs.shape == oracle.probs.shape
        # 24 chained intervals, each truncated within 1e-12
        np.testing.assert_allclose(probs, oracle.probs, rtol=0, atol=3e-11)


@pytest.mark.parametrize("capacity", [1, 20, 60])
@pytest.mark.parametrize("mu,lam,hours", [
    (0.3, 0.0, 1.0),
    (12.0, 3.0, 0.25),
    (45.0, 40.0, 1.0),  # q h = 85, past where 1 - cumsum loses the tails
    (150.0, 90.0, 1.0),
])
def test_interval_operators_match_van_loan(capacity, mu, lam, hours):
    exp_ref, int_ref = van_loan(mu, lam, capacity, hours)
    np.testing.assert_allclose(transition(mu, lam, capacity, hours), exp_ref,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(integral(mu, lam, capacity, hours), int_ref,
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("capacity", [1, 20, 60])
@pytest.mark.parametrize("mu,lam,hours", [
    (0.3, 0.0, 1.0),
    (0.0, 7.5, 0.5),
    (12.0, 3.0, 0.25),
    (45.0, 40.0, 1.0),
    (150.0, 90.0, 1.0),
])
def test_interval_block_forms_are_the_first_sweep_bit_for_bit(capacity, mu, lam, hours):
    n = capacity + 1
    rng = np.random.default_rng(capacity)
    for u, w in ((np.eye(n), np.zeros((n, n))), (np.zeros((n, n)), np.eye(n)),
                 (rng.random((3, n)), rng.random((3, n))), (rng.random(n), rng.random(n))):
        assert np.array_equal(adjoint_interval(u, w, mu, lam, capacity, hours),
                              udf_sweep.interval(u, w, mu, lam, capacity, hours))


def test_truncation_that_cannot_be_bounded_is_rejected():
    n = 6
    # the dropped terms scale with |u|: no affordable number of terms keeps
    # them within the tolerance at this magnitude
    with pytest.raises(DomainError, match="truncation"):
        adjoint_interval(np.full(n, 1e40), np.zeros(n), 50.0, 50.0, n - 1, 1.0)
    # a day's worth of events per second is beyond the term budget
    with pytest.raises(DomainError, match="terms"):
        adjoint_interval(np.zeros(n), np.ones(n), 1e9, 0.0, n - 1, 1.0)


def test_mirror_symmetry():
    # swapping the two event kinds and counting free docks instead of bikes
    # is the same process
    rng = np.random.default_rng(3)
    pickups = rng.uniform(0, 10, 24)
    returns = rng.uniform(0, 10, 24)
    capacity = 7
    fwd = boundary_distributions(RateSeries(60, pickups, returns), 2, capacity)
    rev = boundary_distributions(RateSeries(60, returns, pickups), capacity - 2, capacity)
    np.testing.assert_allclose(fwd, rev[:, ::-1], atol=1e-12)


def test_empty_full_sweep_matches_per_start_runs():
    # the backward sweep prices every start at once; running each start
    # forward and integrating its empty and full probabilities interval by
    # interval must give the same dissatisfaction
    rates = RateSeries(60, [5.0, 1.0, 9.0, 0.0], [2.0, 7.0, 3.0, 0.0])
    capacity = 5
    mu_h, lam_h = rates.hourly()
    sweep = udf_curve(rates, capacity).values
    for s in range(capacity + 1):
        p = np.zeros(capacity + 1)
        p[s] = 1.0
        total = 0.0
        for mu, lam in zip(mu_h, lam_h):
            occupancy = integral(mu, lam, capacity, 1.0) @ p
            total += mu * occupancy[0] + lam * occupancy[capacity]
            p = transition(mu, lam, capacity, 1.0) @ p
        # the forward route truncates each unit basis row within 1e-12, then
        # scales by rates up to 9 per hour
        np.testing.assert_allclose(sweep[s], total, rtol=0, atol=1e-10)


def test_monte_carlo_agrees_with_integrator():
    rates = RateSeries(60, [6.0, 2.0, 4.0], [1.0, 5.0, 3.0])
    start, capacity = 3, 6
    mc = monte_carlo_oracle(rates, start, capacity, n_paths=40000, seed=17)
    exact = boundary_distributions(rates, start, capacity)
    # allow 4 standard errors per cell with an exact-tie floor
    tol = 4.0 * np.maximum(mc.stderr, 1e-4)
    assert np.all(np.abs(mc.probs - exact) <= tol)


def test_rejects_bad_start_and_substeps():
    rates = RateSeries(60, [1.0], [1.0])
    for start in (-1, 4):
        with pytest.raises(DomainError):
            matrix_exponential_oracle(rates, start=start, capacity=3)
    # the solver is exact: there is no step count to choose
    # (test_cli checks that a config setting one is refused)
    with pytest.raises(TypeError):
        udf_curve(rates, capacity=3, substeps_per_interval=12)


def test_rejects_negative_rates():
    with pytest.raises(DomainError):
        RateSeries(60, [-0.5], [1.0])


@pytest.mark.parametrize("interval, pickups, returns, message", [
    (0, [1.0], [1.0], "interval_minutes must be positive, got 0"),
    (60, [[1.0]], [[1.0]], "rate series must be one-dimensional"),
    (60, [1.0, 2.0], [1.0], "pickup and return series differ in length: 2 vs 1"),
    (60, [1.0], [np.nan], "return rates contain non-finite values"),
], ids=["interval-not-positive", "not-1-d", "unequal-lengths", "non-finite"])
def test_rate_series_refusals(interval, pickups, returns, message):
    with pytest.raises(DomainError) as err:
        RateSeries(interval, pickups, returns)
    assert str(err.value) == message


def test_log_factorial_is_within_4_ulp_of_gammaln():
    from scipy.special import gammaln

    k = np.arange(queueing._MAX_TERMS + 1)  # every k the Poisson weights may use
    expected = gammaln(k + 1.0)
    assert np.all(np.abs(log_factorial(k) - expected) <= 4 * np.spacing(expected))
    assert log_factorial(np.array([[0.0, 2.0], [3.0, 4.0]])).shape == (2, 2)


def test_log_factorial_table_grows_and_keeps_its_values(monkeypatch):
    from scipy.special import gammaln

    monkeypatch.setattr(queueing, "_LOG_FACTORIALS", np.zeros(1))
    small = log_factorial(np.arange(8))
    np.testing.assert_allclose(small, gammaln(np.arange(8) + 1.0), rtol=1e-15, atol=0)
    size = len(queueing._LOG_FACTORIALS)
    np.testing.assert_allclose(log_factorial(5000), gammaln(5001.0), rtol=1e-15)
    assert len(queueing._LOG_FACTORIALS) > max(size, 5000)
    np.testing.assert_array_equal(log_factorial(np.arange(8)), small)


@pytest.mark.parametrize("bad", [-1, 2.5, [1.0, np.nan]])
def test_log_factorial_rejects_non_integers(bad):
    with pytest.raises(DomainError):
        log_factorial(bad)


@settings(max_examples=25, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_conservation_property(capacity, seed):
    rng = np.random.default_rng(seed)
    mu, lam, hours = rng.uniform(0, 40), rng.uniform(0, 40), rng.choice([0.25, 0.5, 1.0])
    forward = transition(mu, lam, capacity, hours)
    occupancy = integral(mu, lam, capacity, hours)
    # each start's distribution keeps unit mass, and its expected time over
    # all occupancies is the interval length
    np.testing.assert_allclose(forward.sum(axis=0), 1.0, atol=1e-12)
    np.testing.assert_allclose(occupancy.sum(axis=0), hours, atol=1e-12)
    assert forward.min() >= 0.0 and occupancy.min() >= 0.0
