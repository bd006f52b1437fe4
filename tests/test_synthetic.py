"""Generators: corpus files and the peaked reference day."""

from datetime import date, datetime, timedelta

import numpy as np
import pytest
from conftest import STATIONS

from bikecast import synthetic
from bikecast.ingest import (
    PICKUP,
    RETURN,
    aggregate,
    parse_stations,
    parse_trips,
    parse_weather,
    read_input,
    to_event_streams,
)


# -- full-year corpus ----------------------------------------------------------


def test_corpus_files_are_deterministic(tmp_path):
    a = synthetic.write_corpus(str(tmp_path / "a"), seed=11, stations=STATIONS, base_rate=2.0)
    b = synthetic.write_corpus(str(tmp_path / "b"), seed=11, stations=STATIONS, base_rate=2.0)
    for key in ("trips", "weather", "stations"):
        with open(a[key], "rb") as fa, open(b[key], "rb") as fb:
            assert fa.read() == fb.read()


def test_corpus_seed_changes_trips(tmp_path):
    a = synthetic.write_corpus(str(tmp_path / "a"), seed=11, stations=STATIONS, base_rate=2.0)
    b = synthetic.write_corpus(str(tmp_path / "b"), seed=12, stations=STATIONS, base_rate=2.0)
    with open(a["trips"], "rb") as fa, open(b["trips"], "rb") as fb:
        assert fa.read() != fb.read()


def test_corpus_roundtrips_through_parsers(tmp_path):
    paths = synthetic.write_corpus(str(tmp_path), seed=11, stations=STATIONS, base_rate=2.0)

    capacities = read_input(paths["stations"], parse_stations)
    assert capacities == {"7": 20, "8": 24}

    trips = read_input(paths["trips"], parse_trips)
    starts, ends = trips.start_times.tolist(), trips.end_times.tolist()
    assert all(t1 >= t0 for t0, t1 in zip(starts, ends))
    assert all(t0.year == 2018 for t0 in starts)
    assert starts == sorted(starts)

    streams = to_event_streams(trips, ["7"])
    series = aggregate(streams["7"], 60, (date(2018, 1, 1), date(2018, 12, 31)))
    assert series.n_days == 365
    assert series.pickups.sum() == trips.start_stations.tolist().count("7")

    weather = read_input(paths["weather"], parse_weather)
    assert len(weather.hours) == 365 * 24
    temps, rains = weather.temperature_c, weather.rain_probability
    assert rains.min() >= 0.0 and rains.max() <= 1.0
    # seasonal swing: winter mean well below summer mean
    months = np.array([ts.month for ts in weather.hours.tolist()])
    jan, jul = temps[months == 1], temps[months == 7]
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
    kinds = stream.kinds.tolist()
    assert kinds.count(PICKUP) == 25
    assert kinds.count(RETURN) == 26

    times = stream.times.tolist()
    assert times == sorted(times)
    day_start = datetime(2018, 6, 5)
    assert all(day_start <= ts < day_start + timedelta(days=1) for ts in times)

    # interval-by-interval agreement between counts and events
    for i in range(series.intervals_per_day):
        lo = day_start + timedelta(hours=i)
        hi = lo + timedelta(hours=1)
        inside = [k for ts, k in zip(times, kinds) if lo <= ts < hi]
        assert inside.count(PICKUP) == series.pickups[i]
        assert inside.count(RETURN) == series.returns[i]


def test_peaked_day_is_deterministic():
    a, sa = synthetic.peaked_day(seed=3)
    b, sb = synthetic.peaked_day(seed=3)
    assert np.array_equal(a.pickups, b.pickups)
    assert np.array_equal(sa.times, sb.times)
    assert np.array_equal(sa.kinds, sb.kinds)
