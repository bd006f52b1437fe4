"""Expected-dissatisfaction objective and the inventory decision it implies."""

import numpy as np
import pytest
import udf_sweep
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import monte_carlo_oracle

from bikecast.errors import DomainError
from bikecast.inventory import PenaltyConfig, UdfCurve, oracle_decision, udf_curve
from bikecast.queueing import RateSeries, generator_matrix


def test_empty_station_pure_pickups_loses_everything():
    # start 0, pickups 1/h for 24h, no returns: every arrival is lost
    rates = RateSeries(60, np.ones(24), np.zeros(24))
    value = udf_curve(rates, capacity=5).values[0]
    np.testing.assert_allclose(value, 24.0, atol=1e-9)


def test_no_demand_no_cost():
    rates = RateSeries(60, np.zeros(24), np.zeros(24))
    curve = udf_curve(rates, capacity=8)
    np.testing.assert_allclose(curve.values, 0.0, atol=1e-12)
    assert curve.s_star == 0


def test_full_station_pure_returns():
    # start C, returns 2/h, no pickups: every return is blocked
    rates = RateSeries(60, np.zeros(6), np.full(6, 2.0))
    value = udf_curve(rates, capacity=4).values[4]
    np.testing.assert_allclose(value, 12.0, atol=1e-8)


def test_symmetric_day_symmetric_curve():
    rng = np.random.default_rng(2)
    shared = rng.uniform(0.5, 6.0, 24)
    rates = RateSeries(60, shared, shared)
    curve = udf_curve(rates, capacity=10)
    assert curve.s_star == 5
    np.testing.assert_allclose(curve.values, curve.values[::-1], atol=1e-8)


def test_penalty_scaling_is_linear():
    rates = RateSeries(60, [3.0, 1.0], [0.5, 2.5])
    base = udf_curve(rates, 4, PenaltyConfig(1.0, 1.0)).values[2]
    scaled = udf_curve(rates, 4, PenaltyConfig(3.0, 3.0)).values[2]
    np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12)


def test_one_sided_penalty_isolates_one_boundary():
    rates = RateSeries(60, [2.0], [2.0])
    only_pickups = udf_curve(rates, 3, PenaltyConfig(1.0, 0.0)).values[1]
    only_returns = udf_curve(rates, 3, PenaltyConfig(0.0, 1.0)).values[1]
    both = udf_curve(rates, 3, PenaltyConfig(1.0, 1.0)).values[1]
    np.testing.assert_allclose(only_pickups + only_returns, both, rtol=1e-12)
    assert only_pickups > 0 and only_returns > 0


def van_loan_udf(rates, capacity, penalties=PenaltyConfig()):
    """UDF of every start from the backward recursion, with each interval's
    exponential and its integral read off one block ``expm`` (Van Loan 1978)."""
    from scipy.linalg import expm  # scipy is a dev dependency: only the oracles need it

    n = capacity + 1
    mu_h, lam_h = rates.hourly()
    block = np.zeros((2 * n, 2 * n))
    block[:n, n:] = np.eye(n)
    u = np.zeros(n)
    for i in reversed(range(len(rates))):
        block[:n, :n] = generator_matrix(mu_h[i], lam_h[i], capacity)
        full = expm(block * rates.interval_hours)
        w = np.zeros(n)
        w[0] += penalties.lost_pickup * mu_h[i]
        w[capacity] += penalties.lost_return * lam_h[i]
        u = w @ full[:n, n:] + u @ full[:n, :n]
    return u


def van_loan_day(interval_minutes, capacity, peak_per_hour):
    """A day of rates up to ``peak_per_hour``, with idle and one-sided intervals."""
    rng = np.random.default_rng(capacity * 1000 + int(peak_per_hour) + interval_minutes)
    n = 1440 // interval_minutes
    hours = interval_minutes / 60.0
    pickups = rng.uniform(0.0, peak_per_hour, n) * hours
    returns = rng.uniform(0.0, peak_per_hour, n) * hours
    idle = rng.random(n) < 0.2  # whole intervals without any event
    pickups[idle] = 0.0
    returns[idle] = 0.0
    returns[rng.random(n) < 0.1] = 0.0  # and intervals with one kind only
    return RateSeries(interval_minutes, pickups, returns)


VAN_LOAN_DAYS = pytest.mark.parametrize("interval_minutes, capacity, peak_per_hour", [
    (interval, capacity, peak) for interval in (60, 15) for capacity in (1, 20, 60)
    for peak in (8.0, 40.0, 90.0)])


@VAN_LOAN_DAYS
def test_udf_curve_matches_van_loan_reference(interval_minutes, capacity, peak_per_hour):
    rates = van_loan_day(interval_minutes, capacity, peak_per_hour)
    penalties = PenaltyConfig(1.5, 0.75)
    curve = udf_curve(rates, capacity, penalties)
    reference = van_loan_udf(rates, capacity, penalties)
    np.testing.assert_allclose(curve.values, reference, rtol=0, atol=1e-9)
    assert curve.s_star == int(np.argmin(reference))


@VAN_LOAN_DAYS
def test_udf_curve_is_the_first_sweep_bit_for_bit(interval_minutes, capacity, peak_per_hour):
    rates = van_loan_day(interval_minutes, capacity, peak_per_hour)
    penalties = PenaltyConfig(1.5, 0.75)
    assert np.array_equal(udf_curve(rates, capacity, penalties).values,
                          udf_sweep.sweep(rates, capacity, penalties))


# an interval's expected count: often none, so that idle and one-sided ones come up
_COUNTS = st.one_of(st.just(0.0), st.floats(0.0, 30.0), st.floats(0.0, 1e-3))


@settings(max_examples=60, deadline=None)
@given(interval_minutes=st.sampled_from([15, 30, 60]), capacity=st.integers(1, 40),
       counts=st.lists(st.tuples(_COUNTS, _COUNTS), min_size=1, max_size=24),
       penalties=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)))
def test_udf_curve_sweeps_any_day_as_the_first_sweep(interval_minutes, capacity, counts,
                                                     penalties):
    rates = RateSeries(interval_minutes, [p for p, _ in counts], [r for _, r in counts])
    penalties = PenaltyConfig(*penalties)
    assert np.array_equal(udf_curve(rates, capacity, penalties).values,
                          udf_sweep.sweep(rates, capacity, penalties))


def test_udf_matches_monte_carlo_lost_cost():
    # expected lost pickups + returns from simulation vs the integral
    rates = RateSeries(60, [5.0, 2.0, 6.0], [1.0, 4.0, 2.0])
    start, capacity = 3, 6
    pen = PenaltyConfig(1.0, 1.0)
    value = udf_curve(rates, capacity, pen).values[start]
    mc = monte_carlo_oracle(rates, start, capacity, n_paths=60000, seed=23)
    losses = pen.lost_pickup * mc.lost_pickups + pen.lost_return * mc.lost_returns
    se = losses.std() / np.sqrt(mc.n_paths)
    assert abs(value - losses.mean()) < 3 * se


def test_tie_break_takes_smallest_start():
    values = np.array([1.0, 0.25, 0.25, 0.9])
    curve = UdfCurve(capacity=3, values=values, s_star=int(np.argmin(values)))
    assert curve.s_star == 1


def test_oracle_decision_uses_counts_as_rates():
    pickups = np.concatenate([np.full(12, 3), np.zeros(12)]).astype(np.int64)
    returns = np.concatenate([np.zeros(12), np.full(12, 3)]).astype(np.int64)
    curve = oracle_decision(np.stack([pickups, returns], axis=1), 60, capacity=40)
    direct = udf_curve(RateSeries(60, pickups.astype(float), returns.astype(float)), capacity=40)
    np.testing.assert_allclose(curve.values, direct.values, atol=1e-12)
    assert curve.s_star == direct.s_star


def test_oracle_decision_refuses_counts_that_are_not_one_day():
    two_days = np.ones((48, 2), np.int64)
    with pytest.raises(DomainError) as err:
        oracle_decision(two_days, 60, capacity=40)
    assert str(err.value) == ("oracle_decision expects exactly one day of counts, "
                              "(24, 2) at 60 min, got (48, 2)")


def test_rejects_invalid_capacity():
    rates = RateSeries(60, [1.0], [1.0])
    with pytest.raises(DomainError):
        udf_curve(rates, capacity=0)


def test_rejects_negative_penalties():
    for penalties in ((-1.0, 1.0), (float("nan"), 1.0), (1.0, float("inf"))):
        with pytest.raises(DomainError, match="penalties must be finite and non-negative"):
            PenaltyConfig(*penalties)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_udf_is_nonnegative_and_bounded_by_total_demand(seed):
    rng = np.random.default_rng(seed)
    capacity = int(rng.integers(1, 9))
    start = int(rng.integers(0, capacity + 1))
    pickups = rng.uniform(0, 8, 6)
    returns = rng.uniform(0, 8, 6)
    rates = RateSeries(60, pickups, returns)
    value = udf_curve(rates, capacity).values[start]
    assert value >= -1e-12
    # cannot lose more users than arrive in expectation
    assert value <= pickups.sum() + returns.sum() + 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_curve_minimum_is_argmin(seed):
    rng = np.random.default_rng(seed)
    capacity = int(rng.integers(1, 9))
    rates = RateSeries(60, rng.uniform(0, 6, 5), rng.uniform(0, 6, 5))
    curve = udf_curve(rates, capacity)
    assert curve.values[curve.s_star] == curve.values.min()
    assert curve.s_star == int(np.argmin(curve.values))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       interval_minutes=st.sampled_from([15, 30, 60]))
def test_udf_is_convex_in_start(seed, interval_minutes):
    # Raviv & Kolka (2013): the expected dissatisfaction of a finite
    # double-ended queue is convex in the starting inventory
    rng = np.random.default_rng(seed)
    capacity = int(rng.integers(2, 50))
    n = 1440 // interval_minutes
    scale = rng.uniform(0.5, 40.0) * interval_minutes / 60.0
    rates = RateSeries(interval_minutes, rng.uniform(0, scale, n), rng.uniform(0, scale, n))
    penalties = PenaltyConfig(rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0))
    values = udf_curve(rates, capacity, penalties).values
    assert np.min(np.diff(values, 2)) >= -1e-9
