"""Baseline forecasters: cell-mean profiles and OLS regression."""

from datetime import date, datetime, time, timedelta

import numpy as np
import pytest
from conftest import demand_series

from bikecast import classical
from bikecast.errors import DataError, FormatError, TrainingError
from bikecast.ingest import DemandSeries, covariate_columns


def grid_covariates(start: date, n_days: int, temps, rains) -> np.ndarray:
    """Hourly covariate rows with correct calendar one-hots, in the column
    order of ``covariate_columns(60)``, as (days, slots, width)."""
    cols = covariate_columns(60)
    n = n_days * 24
    values = np.zeros((n, len(cols)))
    values[:, 0] = temps
    values[:, 1] = rains
    base = datetime.combine(start, datetime.min.time())
    for i in range(n):
        t = base + np.timedelta64(i, "h").astype("timedelta64[s]").item()
        values[i, 2 + t.weekday()] = 1.0
        values[i, 9 + t.hour] = 1.0
    return values.reshape(n_days, 24, -1)


def make_series(start: date, pickups, returns, covariates=None) -> DemandSeries:
    return demand_series(np.asarray(pickups, dtype=np.int64), np.asarray(returns, dtype=np.int64),
                         first_day=start, station="S", covariates=covariates)


# -- historical average ------------------------------------------------------


def test_ha_constant_series_fills_every_cell():
    n = 14 * 24
    series = make_series(date(2018, 1, 1), np.full(n, 5), np.full(n, 5))
    profile = classical.fit_ha(series)
    assert np.all(profile.pickup_table == 5.0)
    assert np.all(profile.return_table == 5.0)


def test_ha_cell_mean_hand_example():
    # Mondays 8am pickups {2, 4} -> cell (Mon, slot 8) averages to 3.
    n = 14 * 24
    pickups = np.zeros(n, dtype=np.int64)
    pickups[8] = 2            # Mon 2018-01-01 08:00
    pickups[7 * 24 + 8] = 4   # Mon 2018-01-08 08:00
    series = make_series(date(2018, 1, 1), pickups, np.zeros(n))
    profile = classical.fit_ha(series)
    assert profile.pickup_table[0, 8] == 3.0
    assert profile.return_table[0, 8] == 0.0


def test_ha_unobserved_cells_default_to_zero():
    # One Friday of data: every other weekday's cells stay 0.
    n = 24
    series = make_series(date(2018, 6, 1), np.full(n, 7), np.full(n, 7))
    profile = classical.fit_ha(series)
    assert np.all(profile.pickup_table[4] == 7.0)
    assert profile.pickup_table[[0, 1, 2, 3, 5, 6]].sum() == 0.0


def test_ha_empty_series_raises():
    series = make_series(date(2018, 1, 1), np.zeros(0), np.zeros(0))
    with pytest.raises(DataError):
        classical.fit_ha(series)


def test_ha_idempotence():
    # Refitting on the profile's own one-week predictions reproduces it.
    rng = np.random.default_rng(5)
    n = 7 * 24
    series = make_series(date(2018, 1, 1), rng.poisson(4, n), rng.poisson(3, n))
    profile = classical.fit_ha(series)
    rates = profile.predict(series)
    assert rates.shape == (7, 24, 2)
    pred_p, pred_r = rates[..., 0].ravel(), rates[..., 1].ravel()
    refit = classical.fit_ha(make_series(date(2018, 1, 1), pred_p, pred_r))
    np.testing.assert_array_equal(refit.pickup_table, profile.pickup_table)
    np.testing.assert_array_equal(refit.return_table, profile.return_table)


def test_ha_profile_prediction_is_flat():
    profile = classical.SeasonalProfile(60, np.full((7, 24), 5.0), np.full((7, 24), 5.0))
    rates = profile.predict(make_series(date(2018, 3, 14), np.zeros(24), np.zeros(24)))
    assert rates.shape == (1, 24, 2)
    assert np.all(rates[..., 0] == 5.0)
    assert np.all(rates[..., 1] == 5.0)


def test_profile_rejects_bad_shape_and_negative_means():
    with pytest.raises(DataError):
        classical.SeasonalProfile(60, np.zeros((7, 23)), np.zeros((7, 24)))
    bad = np.zeros((7, 24))
    bad[3, 5] = -0.1
    with pytest.raises(DataError):
        classical.SeasonalProfile(60, bad, np.zeros((7, 24)))


# -- moving average ----------------------------------------------------------


def test_ma_window_contains_only_recent_days():
    # Counts switch from 2 to 8 exactly 30 days before as_of: only 8s remain.
    n = 60 * 24
    values = np.concatenate([np.full(30 * 24, 2), np.full(30 * 24, 8)])
    series = make_series(date(2018, 1, 1), values, values)
    profile = classical.fit_ma(series, date(2018, 3, 2))
    assert np.all(profile.pickup_table == 8.0)


def test_ma_equals_ha_on_exactly_30_days():
    rng = np.random.default_rng(11)
    n = 30 * 24
    series = make_series(date(2018, 1, 1), rng.poisson(6, n), rng.poisson(2, n))
    ha = classical.fit_ha(series)
    ma = classical.fit_ma(series, date(2018, 1, 31))
    np.testing.assert_array_equal(ma.pickup_table, ha.pickup_table)
    np.testing.assert_array_equal(ma.return_table, ha.return_table)


def test_ma_as_of_shift_changes_window():
    # Day 0 holds a 9; one day later it falls out of the window.
    n = 31 * 24
    pickups = np.ones(n, dtype=np.int64)
    pickups[8] = 9  # Mon 2018-01-01 08:00
    series = make_series(date(2018, 1, 1), pickups, np.ones(n))
    with_day0 = classical.fit_ma(series, date(2018, 1, 31))
    without = classical.fit_ma(series, date(2018, 2, 1))
    assert with_day0.pickup_table[0, 8] > without.pickup_table[0, 8]
    assert without.pickup_table[0, 8] == 1.0


def test_ma_empty_window_raises():
    series = make_series(date(2018, 6, 1), np.ones(24), np.ones(24))
    # as_of at the series start, long before it, and long after its end
    for as_of in (date(2018, 6, 1), date(2018, 5, 1), date(2018, 7, 20)):
        with pytest.raises(DataError):
            classical.fit_ma(series, as_of)


def brute_force_ma(series: DemandSeries, as_of: date, window_days: int):
    """Cell means over the window, walking every timestamp of the series."""
    hi = datetime.combine(as_of, time.min)
    lo = hi - timedelta(days=window_days)
    shape = (7, series.intervals_per_day)
    sums_p, sums_r, counts = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    step = timedelta(minutes=series.interval_minutes)
    for i in range(len(series.pickups)):
        t = datetime.combine(series.first_day, time.min) + i * step
        if lo <= t < hi:
            cell = (t.weekday(), (t.hour * 60 + t.minute) // series.interval_minutes)
            sums_p[cell] += series.pickups[i]
            sums_r[cell] += series.returns[i]
            counts[cell] += 1
    seen = counts > 0
    pickup_table, return_table = np.zeros(shape), np.zeros(shape)
    pickup_table[seen] = sums_p[seen] / counts[seen]
    return_table[seen] = sums_r[seen] / counts[seen]
    return pickup_table, return_table


@pytest.mark.parametrize("interval", [15, 60])
@pytest.mark.parametrize("as_of_day,window_days", [
    (10, 30),  # window starts before the series
    (40, 30),  # window ends at the last row
    (25, 7),
    (44, 30),  # window runs past the end of the series
    (1, 1),
])
def test_ma_matches_timestamp_walk(interval, as_of_day, window_days):
    rng = np.random.default_rng(as_of_day * interval + window_days)
    n = 40 * 1440 // interval
    start = date(2018, 1, 3)  # a Wednesday
    series = demand_series(rng.poisson(5, n), rng.poisson(3, n), interval_minutes=interval,
                           first_day=start, station="S")
    as_of = start + timedelta(days=as_of_day)
    profile = classical.fit_ma(series, as_of, window_days=window_days)
    pickup_table, return_table = brute_force_ma(series, as_of, window_days)
    np.testing.assert_array_equal(profile.pickup_table, pickup_table)
    np.testing.assert_array_equal(profile.return_table, return_table)


# -- linear regression -------------------------------------------------------


def lr_fixture(counts_fn, n_days=14, seed=0):
    rng = np.random.default_rng(seed)
    n = n_days * 24
    temps = rng.integers(0, 30, size=n).astype(float)
    rains = rng.uniform(0.0, 1.0, size=n)
    cov = grid_covariates(date(2018, 1, 1), n_days, temps, rains)
    counts = counts_fn(temps, rains)
    return make_series(date(2018, 1, 1), counts, counts, covariates=cov)


def test_lr_recovers_exact_linear_relationship():
    series = lr_fixture(lambda t, r: 2 + 3 * t)
    model = classical.fit_lr(series)
    temp_idx = 1 + model.columns.index("temperature_c")
    np.testing.assert_allclose(model.pickup_coef[0], 2.0, atol=1e-8)
    np.testing.assert_allclose(model.pickup_coef[temp_idx], 3.0, atol=1e-8)
    other = np.delete(model.pickup_coef, [0, temp_idx])
    np.testing.assert_allclose(other, 0.0, atol=1e-8)


def test_lr_constant_counts_load_on_intercept():
    series = lr_fixture(lambda t, r: np.full(len(t), 4))
    model = classical.fit_lr(series)
    np.testing.assert_allclose(model.pickup_coef[0], 4.0, atol=1e-8)
    np.testing.assert_allclose(model.pickup_coef[1:], 0.0, atol=1e-8)


def test_lr_permutation_invariance():
    rng = np.random.default_rng(3)
    series = lr_fixture(lambda t, r: rng.poisson(4 + t / 10.0), seed=3)
    model = classical.fit_lr(series)
    perm = rng.permutation(len(series.pickups))
    covariates = series.covariates.reshape(len(perm), -1)[perm].reshape(series.covariates.shape)
    shuffled = make_series(date(2018, 1, 1), series.pickups[perm], series.returns[perm],
                           covariates=covariates)
    again = classical.fit_lr(shuffled)
    np.testing.assert_allclose(again.pickup_coef, model.pickup_coef, atol=1e-10)
    np.testing.assert_allclose(again.return_coef, model.return_coef, atol=1e-10)


def test_lr_residuals_orthogonal_to_design():
    rng = np.random.default_rng(7)
    series = lr_fixture(lambda t, r: rng.poisson(5, len(t)), seed=7)
    model = classical.fit_lr(series)
    x = classical._design(series.covariates, 60, model.columns)
    resid = series.pickups - x @ model.pickup_coef
    np.testing.assert_allclose(x.T @ resid, 0.0, atol=1e-8)


def test_lr_clamps_negative_predictions():
    cols = classical._kept_columns(covariate_columns(60))
    width = len(cols) + 1
    coef = np.zeros(width)
    coef[0] = -1.2
    model = classical.LinearModel(columns=cols, pickup_coef=coef, return_coef=coef)
    cov = grid_covariates(date(2018, 1, 1), 1, np.full(24, 10.0), np.zeros(24))
    rates = model.predict(make_series(date(2018, 1, 1), np.zeros(24), np.zeros(24), cov))
    assert rates.shape == (1, 24, 2)
    assert np.all(rates[..., 0] == 0.0)
    assert np.all(rates[..., 1] == 0.0)


def test_lr_rank_deficient_design_raises():
    # Constant temperature duplicates the intercept column.
    rng = np.random.default_rng(1)
    n = 14 * 24
    cov = grid_covariates(date(2018, 1, 1), 14, np.full(n, 12.0), rng.uniform(0, 1, n))
    series = make_series(date(2018, 1, 1), np.ones(n), np.ones(n), covariates=cov)
    with pytest.raises(TrainingError):
        classical.fit_lr(series)


def test_lr_requires_covariates():
    series = make_series(date(2018, 1, 1), np.ones(24), np.ones(24))
    with pytest.raises(DataError):
        classical.fit_lr(series)


def test_one_hot_blocks_drop_their_first_column():
    kept = classical._kept_columns(covariate_columns(60))
    assert "dow_0" not in kept
    assert "tod_0" not in kept
    assert "dow_1" in kept and "tod_1" in kept
    assert "temperature_c" in kept and "rain_probability" in kept


# -- serialization ----------------------------------------------


def test_model_json_roundtrip():
    rng = np.random.default_rng(9)
    n = 14 * 24
    series = make_series(date(2018, 1, 1), rng.poisson(3, n), rng.poisson(2, n))
    profile = classical.fit_ha(series)
    back = classical.model_from_json(classical.model_to_json(profile))
    np.testing.assert_array_equal(back.pickup_table, profile.pickup_table)
    assert back.interval_minutes == 60

    lr = classical.fit_lr(lr_fixture(lambda t, r: rng.poisson(2 + t / 15.0), seed=9))
    lr_back = classical.model_from_json(classical.model_to_json(lr))
    np.testing.assert_array_equal(lr_back.pickup_coef, lr.pickup_coef)
    assert lr_back.columns == lr.columns


def test_model_from_json_rejects_unknown_kind():
    with pytest.raises(FormatError):
        classical.model_from_json('{"kind": "boosted_trees"}')


def test_model_to_json_rejects_unknown_type():
    with pytest.raises(TypeError):
        classical.model_to_json({"not": "a model"})
