"""Checks of the exact UDF reference against the program's own oracles.

Run with: PYTHONPATH=src python -m pytest -q bench/test_reference.py
"""

import numpy as np
import pytest

from bikecast.inventory import udf_curve
from bikecast.queueing import RateSeries, matrix_exponential_oracle
from bikecast.synthetic import peaked_day_rates

from reference import exact_udf_values, interval_operators
from score import UDF_ABS_ERR_TOL


def commute_day(interval_minutes: int) -> RateSeries:
    pickup, ret = peaked_day_rates(interval_minutes)
    hours = interval_minutes / 60.0
    return RateSeries(interval_minutes=interval_minutes,
                      pickup_rates=pickup * hours, return_rates=ret * hours)


@pytest.mark.parametrize("interval_minutes,capacity,start", [(60, 34, 0), (15, 42, 20)])
def test_boundary_probabilities_match_expm_oracle(interval_minutes, capacity, start):
    rates = commute_day(interval_minutes)
    oracle = matrix_exponential_oracle(rates, start, capacity)
    p = np.zeros(capacity + 1)
    p[start] = 1.0
    for k, (transition, _integral) in enumerate(interval_operators(rates, capacity)):
        p = transition @ p
        np.testing.assert_allclose(p, oracle.probs[k + 1], atol=1e-12)


@pytest.mark.parametrize("capacity", [34, 40])
def test_fine_grid_solver_converges_to_reference(capacity):
    # The program's trapezoid quadrature is O(h^2): ten times the substeps
    # must cut its distance to the reference about a hundredfold.
    rates = commute_day(60)
    exact = exact_udf_values(rates, capacity)
    fine = udf_curve(rates, capacity, substeps_per_interval=600)
    coarse = udf_curve(rates, capacity, substeps_per_interval=60)
    err_fine = np.max(np.abs(exact - fine.values))
    err_coarse = np.max(np.abs(exact - coarse.values))
    assert err_fine < 5e-5
    assert 50 < err_coarse / err_fine < 200
    assert int(np.argmin(exact)) == fine.s_star


def test_empty_station_loses_every_pickup():
    rates = RateSeries(interval_minutes=60, pickup_rates=np.full(3, 2.5),
                       return_rates=np.zeros(3))
    values = exact_udf_values(rates, 5, lost_pickup=2.0)
    assert values[0] == pytest.approx(2.0 * 7.5, rel=1e-12)


def test_error_tolerance_separates_default_from_coarse_steps():
    rates = commute_day(60)
    exact = exact_udf_values(rates, 40)
    for substeps, within in ((60, True), (12, False)):
        values = udf_curve(rates, 40, substeps_per_interval=substeps).values
        assert bool(np.max(np.abs(values - exact)) <= UDF_ABS_ERR_TOL) == within
