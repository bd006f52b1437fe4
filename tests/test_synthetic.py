"""Generators: corpus files, sinusoidal benchmark, peaked reference day."""

from datetime import date, datetime, timedelta

import numpy as np
import pytest

from bikecast import synthetic
from bikecast.ingest import (
    PICKUP,
    RETURN,
    aggregate,
    parse_stations,
    parse_trips,
    parse_weather,
    to_event_streams,
)

SMALL = (
    synthetic.StationSpec("7", 20, "residential"),
    synthetic.StationSpec("8", 24, "business"),
)


# -- full-year corpus ----------------------------------------------------------


def test_corpus_files_are_deterministic(tmp_path):
    a = synthetic.write_corpus(str(tmp_path / "a"), seed=11, stations=SMALL, base_rate=2.0)
    b = synthetic.write_corpus(str(tmp_path / "b"), seed=11, stations=SMALL, base_rate=2.0)
    for key in ("trips", "weather", "stations"):
        with open(a[key], "rb") as fa, open(b[key], "rb") as fb:
            assert fa.read() == fb.read()


def test_corpus_seed_changes_trips(tmp_path):
    a = synthetic.write_corpus(str(tmp_path / "a"), seed=11, stations=SMALL, base_rate=2.0)
    b = synthetic.write_corpus(str(tmp_path / "b"), seed=12, stations=SMALL, base_rate=2.0)
    with open(a["trips"], "rb") as fa, open(b["trips"], "rb") as fb:
        assert fa.read() != fb.read()


def test_corpus_roundtrips_through_parsers(tmp_path):
    paths = synthetic.write_corpus(str(tmp_path), seed=11, stations=SMALL, base_rate=2.0)

    capacities = parse_stations(paths["stations"])
    assert capacities == {"7": 20, "8": 24}

    trips = parse_trips(paths["trips"])
    assert all(t1 >= t0 for t0, t1 in zip(trips.start_times, trips.end_times))
    assert all(t0.year == 2018 for t0 in trips.start_times)
    assert trips.start_times == sorted(trips.start_times)

    streams = to_event_streams(trips)
    series = aggregate(streams["7"], 60, (date(2018, 1, 1), date(2018, 12, 31)))
    assert series.n_days == 365
    assert series.pickups.sum() == trips.start_stations.count("7")

    weather = parse_weather(paths["weather"])
    assert len(weather.observations) == 365 * 24
    temps = np.array([t for t, _ in weather.observations.values()])
    rains = np.array([r for _, r in weather.observations.values()])
    assert rains.min() >= 0.0 and rains.max() <= 1.0
    # seasonal swing: winter mean well below summer mean
    jan = [t for ts, (t, _) in weather.observations.items() if ts.month == 1]
    jul = [t for ts, (t, _) in weather.observations.items() if ts.month == 7]
    assert np.mean(jul) - np.mean(jan) > 15.0
    assert temps.min() > -20.0 and temps.max() < 45.0


def test_commute_peaks_oppose_by_profile():
    res = synthetic._commute_shape(8.5, True, "residential", start=True)
    bus = synthetic._commute_shape(8.5, True, "business", start=True)
    assert res > 3 * bus
    res_pm = synthetic._commute_shape(17.5, True, "residential", start=True)
    assert res > 3 * res_pm
    # destinations mirror: business stations receive the morning wave
    assert synthetic._commute_shape(8.5, True, "business", start=False) == res


def test_weekend_shape_is_flat_midday_hump():
    wk = [synthetic._commute_shape(h + 0.5, False, "residential", start=True) for h in range(24)]
    assert int(np.argmax(wk)) == 14
    assert min(wk) >= 0.05


def test_daylight_bottoms_at_winter_solstice():
    values = np.array([synthetic._daylight(d) for d in range(1, 366)])
    assert int(np.argmin(values)) + 1 == 355
    assert values.min() == pytest.approx(0.55)
    assert values.max() <= 1.0
    assert synthetic._daylight(172) > 0.999


def test_weather_factor_morning_reacts_harder():
    cold_wet = dict(temp_c=np.asarray(2.0), rain=np.asarray(0.8))
    am = float(synthetic._weather_factor(hour=8.5, doy=172, **cold_wet))
    pm = float(synthetic._weather_factor(hour=17.5, doy=172, **cold_wet))
    assert pm > 2 * am
    warm_dry = dict(temp_c=np.asarray(24.0), rain=np.asarray(0.0))
    assert float(synthetic._weather_factor(hour=8.5, doy=172, **warm_dry)) > 0.9


# -- sinusoidal benchmark ------------------------------------------------------


def test_sinusoidal_rates_and_split_sizes():
    split, pickup_rate, return_rate = synthetic.sinusoidal_split(n_days=20, seed=5)
    assert split.train.n_days == 14
    assert split.validation.n_days == 3
    assert split.test.n_days == 3
    assert pickup_rate.shape == (24,)
    assert pickup_rate.min() == pytest.approx(5.0)
    assert pickup_rate.max() == pytest.approx(15.0)
    # returns run a quarter period behind pickups
    assert np.allclose(return_rate, np.roll(pickup_rate, 6))


def test_sinusoidal_split_is_deterministic():
    a, _, _ = synthetic.sinusoidal_split(n_days=12, seed=9, day_log_noise=0.5)
    b, _, _ = synthetic.sinusoidal_split(n_days=12, seed=9, day_log_noise=0.5)
    assert np.array_equal(a.train.pickups, b.train.pickups)
    assert np.array_equal(a.test.returns, b.test.returns)


def test_sinusoidal_covariates_follow_calendar():
    split, _, _ = synthetic.sinusoidal_split(n_days=9, seed=0)
    cov = split.train.covariates
    assert cov is not None
    # 2018-01-01 is a Monday; day 3 rows carry dow_3
    row = cov.values[3 * 24 + 5]
    assert row[2 + 3] == 1.0
    assert row[9 + 5] == 1.0
    assert row[1] == 0.0  # dry benchmark


def test_day_noise_overdisperses_daily_totals():
    calm, _, _ = synthetic.sinusoidal_split(n_days=40, seed=4)
    noisy, _, _ = synthetic.sinusoidal_split(n_days=40, seed=4, day_log_noise=1.0)

    def day_totals(series):
        return series.pickups.reshape(series.n_days, -1).sum(axis=1)

    var_calm = day_totals(calm.train).var()
    var_noisy = day_totals(noisy.train).var()
    assert var_noisy > 10 * var_calm


# -- peaked reference day --------------------------------------------------------


def test_peaked_rates_spike_morning_and_evening():
    pickup, ret = synthetic.peaked_day_rates()
    assert int(np.argmax(pickup)) == 8
    # 18:00 sits exactly between the 17:30 and 18:30 midpoints
    assert ret[17] == pytest.approx(ret[18])
    assert ret[17] > 10 * ret[12]
    assert pickup.min() >= 0.3


def test_peaked_day_counts_match_stream():
    series, stream = synthetic.peaked_day(seed=3)
    assert series.pickups.sum() == 25
    assert series.returns.sum() == 26
    kinds = [k for _, k in stream.events]
    assert kinds.count(PICKUP) == 25
    assert kinds.count(RETURN) == 26

    times = [ts for ts, _ in stream.events]
    assert times == sorted(times)
    day_start = datetime(2018, 6, 5)
    assert all(day_start <= ts < day_start + timedelta(days=1) for ts in times)

    # interval-by-interval agreement between counts and events
    for i in range(len(series)):
        lo = day_start + timedelta(hours=i)
        hi = lo + timedelta(hours=1)
        inside = [k for ts, k in stream.events if lo <= ts < hi]
        assert inside.count(PICKUP) == series.pickups[i]
        assert inside.count(RETURN) == series.returns[i]


def test_peaked_day_is_deterministic():
    a, sa = synthetic.peaked_day(seed=3)
    b, sb = synthetic.peaked_day(seed=3)
    assert np.array_equal(a.pickups, b.pickups)
    assert sa.events == sb.events
