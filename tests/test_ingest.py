"""Trip parsing, interval aggregation, covariates, and the chronological split."""

import dataclasses
import gc
import io
import warnings
from datetime import date, datetime, time, timedelta

import numpy as np
import pytest

from bikecast import synthetic
from bikecast.errors import ConfigError, DataError, FormatError, RowError
from bikecast.ingest import (
    PICKUP,
    RETURN,
    CovariateMatrix,
    DemandSeries,
    EventStream,
    WeatherTable,
    aggregate,
    build_covariates,
    covariate_columns,
    demand_from_csv,
    demand_to_csv,
    events_from_csv,
    events_to_csv,
    parse_stations,
    parse_trips,
    parse_weather,
    split,
    to_event_streams,
    top_stations,
    weather_to_csv,
)

TRIPS_CSV = """starttime,stoptime,start station id,end station id
2018-06-01 07:58:30,2018-06-01 08:14:02,A,B
2018-06-01 08:59:59,2018-06-01 09:10:00,A,C
2018-06-01 09:00:00,2018-06-01 09:20:00,B,A
2018-06-02 10:30:00,2018-06-02 10:45:00,C,A
"""


def test_parse_trips_basic():
    trips = parse_trips(io.StringIO(TRIPS_CSV))
    assert len(trips) == 4
    assert trips.start_stations == ["A", "A", "B", "C"]
    assert trips.end_stations == ["B", "C", "A", "A"]
    assert trips.start_times[0] == datetime(2018, 6, 1, 7, 58, 30)
    assert trips.end_times[0] == datetime(2018, 6, 1, 8, 14, 2)


def test_event_streams_are_built_only_for_the_given_stations():
    trips = parse_trips(io.StringIO(TRIPS_CSV))
    streams = to_event_streams(trips, ["B", "Z"])
    # B is the end of the first trip and the start of the third; Z has no events
    assert list(streams) == ["B"]
    assert streams["B"].events == [(datetime(2018, 6, 1, 8, 14, 2), RETURN),
                                   (datetime(2018, 6, 1, 9, 0), PICKUP)]


def test_parse_trips_missing_column():
    with pytest.raises(FormatError):
        parse_trips(io.StringIO("starttime,stoptime,start station id\n"))


def test_parse_trips_bad_timestamp_reports_line():
    bad = TRIPS_CSV + "not-a-date,2018-06-03 00:00:00,A,B\n"
    with pytest.raises(RowError) as err:
        parse_trips(io.StringIO(bad))
    assert err.value.line_number == 6


def test_parse_trips_rejects_offset_aware_timestamps():
    aware = TRIPS_CSV + "2018-06-03 10:00:00+00:00,2018-06-03 10:20:00+00:00,A,B\n"
    with pytest.raises(RowError, match="UTC offset") as err:
        parse_trips(io.StringIO(aware))
    assert err.value.line_number == 6


def test_parse_trips_rejects_reversed_interval():
    bad = "starttime,stoptime,start station id,end station id\n" \
          "2018-06-01 10:00:00,2018-06-01 09:00:00,A,B\n"
    with pytest.raises(RowError):
        parse_trips(io.StringIO(bad))


@pytest.mark.parametrize("row, message", [
    pytest.param("2018-06-03 10:00:00,2018-06-03 10:20:00, ,B", "empty station id",
                 id="blank-start-station"),
    pytest.param("2018-06-03 10:00:00,2018-06-03 10:20:00,A,", "empty station id",
                 id="empty-end-station"),
    pytest.param("2018-06-03 10:00:00,2018-06-03 10:20:00,A", "empty station id",
                 id="short-row"),
    pytest.param("not-a-date,2018-06-03 10:20:00,A,B", "unparseable timestamp",
                 id="bad-start-time"),
    pytest.param("2018-06-03 10:00:00,2018-06-03 25:00:00,A,B", "unparseable timestamp",
                 id="bad-end-time"),
    pytest.param("2018-06-03 10:00:00+00:00,2018-06-03 10:20:00,A,B", "UTC offset",
                 id="aware-start-time"),
    pytest.param("2018-06-03 10:00:00,2018-06-03 10:20:00-05:00,A,B", "UTC offset",
                 id="aware-end-time"),
    pytest.param("2018-06-03 10:20:00,2018-06-03 10:00:00,A,B", "ends before it starts",
                 id="reversed"),
])
def test_parse_trips_row_errors_carry_their_line(row, message):
    # the blank line before the bad row counts: line numbers are physical lines
    text = TRIPS_CSV + "\n" + row + "\n" + "2018-06-04 10:00:00,2018-06-04 10:20:00,A,B\n"
    with pytest.raises(RowError, match=message) as err:
        parse_trips(io.StringIO(text))
    assert err.value.line_number == 7


def quoted_citi_bike_file(text: str) -> str:
    """``text`` in the public Citi Bike layout: extra columns, every field quoted."""
    out = ['"tripduration","starttime","stoptime","start station id","start station name",'
           '"end station id","end station name","bikeid"']
    for line in text.splitlines()[1:]:
        t0, t1, a, b = line.split(",")
        fields = ["600", t0, t1, a, f"{a} St, north side", b, f"{b} Ave", "31956"]
        out.append(",".join(f'"{f}"' for f in fields))
    return "\n".join(out) + "\n"


def test_parse_trips_reads_a_fully_quoted_file():
    quoted = quoted_citi_bike_file(TRIPS_CSV)
    assert quoted.startswith('"tripduration","starttime","stoptime"')
    assert parse_trips(io.StringIO(quoted)) == parse_trips(io.StringIO(TRIPS_CSV))


def reference_event_streams(trips) -> dict[str, list]:
    """One pickup and one return per trip, sorted by (time, pickups first)."""
    events: dict[str, list] = {}
    for t0, t1, a, b in zip(trips.start_times, trips.end_times,
                            trips.start_stations, trips.end_stations):
        events.setdefault(a, []).append((t0, PICKUP))
        events.setdefault(b, []).append((t1, RETURN))
    return {station: sorted(ev, key=lambda e: (e[0], 0 if e[1] == PICKUP else 1))
            for station, ev in sorted(events.items())}


def every_station(trips) -> set[str]:
    return set(trips.start_stations) | set(trips.end_stations)


def test_event_streams_match_the_per_trip_reference_on_a_corpus(tmp_path):
    stations = (synthetic.StationSpec("7", 20, "residential"),
                synthetic.StationSpec("8", 24, "business"))
    paths = synthetic.write_corpus(str(tmp_path), seed=11, stations=stations, base_rate=2.0)
    trips = parse_trips(paths["trips"])
    streams = to_event_streams(trips, every_station(trips))
    reference = reference_event_streams(trips)
    assert list(streams) == list(reference)
    for station, stream in streams.items():
        assert stream.station == station
        assert stream.events == reference[station]


def test_event_streams_put_pickups_first_at_equal_times():
    text = ("starttime,stoptime,start station id,end station id\n"
            "2018-06-01 09:00:00,2018-06-01 09:30:00,B,A\n"
            "2018-06-01 09:30:00,2018-06-01 09:45:00,A,C\n"
            "2018-06-01 09:30:00,2018-06-01 09:30:00,A,A\n")
    trips = parse_trips(io.StringIO(text))
    streams = to_event_streams(trips, every_station(trips))
    assert {s: st.events for s, st in streams.items()} == reference_event_streams(trips)
    at = datetime(2018, 6, 1, 9, 30)
    assert streams["A"].events == [(at, PICKUP), (at, PICKUP), (at, RETURN), (at, RETURN)]
    stream = EventStream(station="A", events=[(at, RETURN), (at, PICKUP)])
    stream.sort()
    assert stream.events == [(at, PICKUP), (at, RETURN)]


def test_slice_day_matches_the_linear_filter():
    midnight, next_midnight = datetime(2018, 6, 2), datetime(2018, 6, 3)
    tick = timedelta(microseconds=1)
    times = [midnight - tick, midnight, midnight, midnight + timedelta(hours=5),
             next_midnight - tick, next_midnight, next_midnight + timedelta(hours=1)]
    stream = EventStream(station="S", events=[(t, k) for t in times for k in (RETURN, PICKUP)])
    stream.sort()
    for day in (date(2018, 5, 1), date(2018, 6, 1), date(2018, 6, 2), date(2018, 6, 3),
                date(2018, 6, 4)):
        lo = datetime.combine(day, time.min)
        expected = [e for e in stream.events if lo <= e[0] < lo + timedelta(days=1)]
        sliced = stream.slice_day(day)
        assert sliced.station == "S"
        assert sliced.events == expected, day
    assert stream.slice_day(date(2018, 6, 2)).events[:2] == [(midnight, PICKUP)] * 2
    assert stream.slice_day(date(2018, 6, 3)).events[0] == (next_midnight, PICKUP)


@pytest.mark.parametrize("microsecond", [0, 143447])
def test_events_csv_roundtrip_is_exact(microsecond):
    base = datetime(2018, 6, 1, 7, 58, 30, microsecond)
    stream = EventStream(station="A", events=[
        (base, PICKUP), (base, RETURN), (base + timedelta(minutes=3), RETURN),
        (base + timedelta(days=40, microseconds=1), PICKUP)])
    text = events_to_csv(stream)
    lines = text.splitlines()
    assert lines[0] == "time,kind"
    assert lines[1] == f"{base.isoformat(sep=' ')},pickup"
    back = events_from_csv(io.StringIO("# config: abc seed: 1\n" + text), "A")
    assert back == stream


def test_events_csv_rejects_malformed_files():
    with pytest.raises(FormatError):
        events_from_csv(io.StringIO("# config: abc seed: 1\n"), "A")
    with pytest.raises(FormatError):
        events_from_csv(io.StringIO("time,kind\n2018-06-01 07:00:00,dock\n"), "A")


def _demand_text() -> str:
    series = DemandSeries(station="A", interval_minutes=60, start=datetime(2018, 6, 1),
                          pickups=np.ones(24, dtype=np.int64),
                          returns=np.zeros(24, dtype=np.int64))
    return demand_to_csv(series)


READERS = {
    "trips": (TRIPS_CSV, parse_trips),
    "weather": ("timestamp,temperature_c,rain_probability\n2018-06-01 00:00:00,15.0,0.2\n",
                parse_weather),
    "stations": ("station_id,capacity\nA,20\n", parse_stations),
    "demand": (_demand_text(), lambda src: demand_from_csv(src, "A", 60)),
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_readers_close_only_the_files_they_open(tmp_path, kind):
    text, read = READERS[kind]
    path = tmp_path / "input.csv"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        read(str(path))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    with open(path, "rb") as owned:
        read(owned)
        gc.collect()
        assert not owned.closed


def test_parse_trips_repeated_column_reads_the_last():
    # the csv.DictReader rule: a later column of the same name wins
    text = ("starttime,stoptime,start station id,end station id,end station id\n"
            "2018-06-01 07:00:00,2018-06-01 07:30:00,X,old,Y\n")
    assert parse_trips(io.StringIO(text)).end_stations == ["Y"]


def test_event_streams_order_and_kinds():
    trips = parse_trips(io.StringIO(TRIPS_CSV))
    streams = to_event_streams(trips, ["A", "B", "C"])
    assert set(streams) == {"A", "B", "C"}
    a = streams["A"].events
    assert all(a[i][0] <= a[i + 1][0] for i in range(len(a) - 1))
    # A: two pickups, two returns
    kinds = [k for _, k in a]
    assert kinds.count("pickup") == 2
    assert kinds.count("return") == 2


def test_top_stations_orders_by_pickups_then_id():
    trips = parse_trips(io.StringIO(TRIPS_CSV))
    # pickups: A=2, B=1, C=1 -> B before C on id tie-break
    assert top_stations(trips, 3) == ["A", "B", "C"]
    assert top_stations(trips, 1) == ["A"]


def test_aggregate_boundaries_left_closed():
    trips = parse_trips(io.StringIO(TRIPS_CSV))
    streams = to_event_streams(trips, ["A"])
    series = aggregate(streams["A"], 60, (date(2018, 6, 1), date(2018, 6, 2)))
    assert series.n_days == 2
    by_hour = series.pickups.reshape(2, 24)
    assert by_hour[0, 7] == 1  # 07:58 pickup
    assert by_hour[0, 8] == 1  # 08:59:59 stays in hour 8
    ret = series.returns.reshape(2, 24)
    assert ret[0, 9] == 1  # B->A return lands at 09:20
    assert ret[1, 10] == 1  # C->A return next day


def test_aggregate_ignores_out_of_range_events():
    trips = parse_trips(io.StringIO(TRIPS_CSV))
    streams = to_event_streams(trips, ["A"])
    series = aggregate(streams["A"], 60, (date(2018, 6, 2), date(2018, 6, 2)))
    assert series.pickups.sum() == 0
    assert series.returns.sum() == 1


def test_aggregate_rejects_bad_interval():
    trips = parse_trips(io.StringIO(TRIPS_CSV))
    streams = to_event_streams(trips, ["A"])
    with pytest.raises(ConfigError):
        aggregate(streams["A"], 45, (date(2018, 6, 1), date(2018, 6, 1)))


def test_parse_stations_and_errors():
    good = "station_id,capacity\nA,20\nB,31\n"
    caps = parse_stations(io.StringIO(good))
    assert caps == {"A": 20, "B": 31}
    with pytest.raises(RowError):
        parse_stations(io.StringIO("station_id,capacity\nA,-3\n"))
    with pytest.raises(FormatError):
        parse_stations(io.StringIO("station_id\nA\n"))


def test_parse_weather_validates_hours():
    good = "timestamp,temperature_c,rain_probability\n2018-06-01 00:00:00,15.0,0.2\n"
    table = parse_weather(io.StringIO(good))
    assert table.observations[datetime(2018, 6, 1, 0)] == (15.0, 0.2)
    off_hour = "timestamp,temperature_c,rain_probability\n2018-06-01 00:30:00,15.0,0.2\n"
    with pytest.raises(RowError):
        parse_weather(io.StringIO(off_hour))
    bad_rain = "timestamp,temperature_c,rain_probability\n2018-06-01 00:00:00,15.0,1.4\n"
    with pytest.raises(RowError):
        parse_weather(io.StringIO(bad_rain))


@pytest.mark.parametrize("temperature", ["nan", "inf", "-inf"])
def test_parse_weather_rejects_non_finite_temperature(temperature):
    text = ("timestamp,temperature_c,rain_probability\n"
            "2018-06-01 00:00:00,15.0,0.2\n"
            f"2018-06-01 01:00:00,{temperature},0.2\n")
    with pytest.raises(RowError, match="not finite") as err:
        parse_weather(io.StringIO(text))
    assert err.value.line_number == 3
    with pytest.raises(DataError):
        WeatherTable().add(datetime(2018, 6, 1), float(temperature), 0.2)


def weather_for_days(first: date, n_days: int, temp=12.0, rain=0.1) -> WeatherTable:
    obs = {}
    start = datetime.combine(first, datetime.min.time())
    for h in range(n_days * 24):
        from datetime import timedelta

        obs[start + timedelta(hours=h)] = (temp, rain)
    return WeatherTable(observations=obs)


def test_covariate_columns_layout():
    cols = covariate_columns(60)
    assert cols[:2] == ["temperature_c", "rain_probability"]
    assert cols[2:9] == [f"dow_{d}" for d in range(7)]
    assert len(cols) == 2 + 7 + 24
    assert len(covariate_columns(15)) == 2 + 7 + 96


def test_build_covariates_one_hots_sum_to_one():
    table = weather_for_days(date(2018, 6, 1), 2)
    cov = build_covariates(table, (date(2018, 6, 1), date(2018, 6, 2)), 30)
    values = cov.values
    assert values.shape == (2 * 48, 2 + 7 + 48)
    np.testing.assert_allclose(values[:, 2:9].sum(axis=1), 1.0)
    np.testing.assert_allclose(values[:, 9:].sum(axis=1), 1.0)
    # 2018-06-01 is a Friday
    assert values[0, 2 + 4] == 1.0


def test_build_covariates_forward_fills_gaps():
    table = weather_for_days(date(2018, 6, 1), 1, temp=20.0)
    del table.observations[datetime(2018, 6, 1, 5)]
    cov = build_covariates(table, (date(2018, 6, 1), date(2018, 6, 1)), 60)
    assert cov.values[5, 0] == 20.0  # filled from hour 4


def test_build_covariates_leading_gap_is_an_error():
    table = weather_for_days(date(2018, 6, 1), 1)
    del table.observations[datetime(2018, 6, 1, 0)]
    with pytest.raises(DataError):
        build_covariates(table, (date(2018, 6, 1), date(2018, 6, 1)), 60)


def test_sub_hourly_intervals_replicate_hourly_weather():
    table = weather_for_days(date(2018, 6, 1), 1, temp=17.5)
    cov = build_covariates(table, (date(2018, 6, 1), date(2018, 6, 1)), 15)
    assert np.all(cov.values[0:4, 0] == 17.5)


def test_attach_covariates_validates_length():
    series = DemandSeries(
        station="A", interval_minutes=60, start=datetime(2018, 6, 1),
        pickups=np.zeros(24, dtype=np.int64), returns=np.zeros(24, dtype=np.int64),
    )
    table = weather_for_days(date(2018, 6, 1), 2)
    cov = build_covariates(table, (date(2018, 6, 1), date(2018, 6, 2)), 60)
    with pytest.raises(DataError):
        dataclasses.replace(series, covariates=cov)


def test_split_needs_month_aligned_year():
    series = DemandSeries(
        station="A", interval_minutes=60, start=datetime(2018, 1, 1),
        pickups=np.zeros(365 * 24, dtype=np.int64),
        returns=np.zeros(365 * 24, dtype=np.int64),
    )
    parts = split(series)
    # 9 months train (Jan..Sep), 1 month validation (Oct), 2 test (Nov, Dec)
    assert parts.train.n_days == 273
    assert parts.validation.n_days == 31
    assert parts.test.n_days == 61
    assert parts.validation.start == datetime(2018, 10, 1)
    assert parts.test.start == datetime(2018, 11, 1)

    short = DemandSeries(
        station="A", interval_minutes=60, start=datetime(2018, 1, 1),
        pickups=np.zeros(100 * 24, dtype=np.int64),
        returns=np.zeros(100 * 24, dtype=np.int64),
    )
    with pytest.raises(ConfigError):
        split(short)


def test_split_rejects_mid_month_start():
    series = DemandSeries(
        station="A", interval_minutes=60, start=datetime(2018, 1, 15),
        pickups=np.zeros(365 * 24, dtype=np.int64),
        returns=np.zeros(365 * 24, dtype=np.int64),
    )
    with pytest.raises(ConfigError):
        split(series)


def test_demand_series_validates_whole_days():
    with pytest.raises(DataError):
        DemandSeries(
            station="A", interval_minutes=60, start=datetime(2018, 6, 1),
            pickups=np.zeros(25, dtype=np.int64), returns=np.zeros(25, dtype=np.int64),
        )


def test_demand_csv_roundtrip_keeps_only_counts():
    table = weather_for_days(date(2018, 6, 1), 1, temp=21.0, rain=0.3)
    cov = build_covariates(table, (date(2018, 6, 1), date(2018, 6, 1)), 60)
    rng = np.random.default_rng(0)
    series = DemandSeries(
        station="A", interval_minutes=60, start=datetime(2018, 6, 1),
        pickups=rng.poisson(3, 24).astype(np.int64),
        returns=rng.poisson(2, 24).astype(np.int64),
        covariates=cov,
    )
    text = demand_to_csv(series)
    lines = text.splitlines()
    assert lines[0] == "interval_start,pickups,returns"
    assert lines[1] == f"2018-06-01 00:00:00,{series.pickups[0]},{series.returns[0]}"
    back = demand_from_csv(io.StringIO(text), station="A", interval_minutes=60)
    np.testing.assert_array_equal(back.pickups, series.pickups)
    np.testing.assert_array_equal(back.returns, series.returns)
    assert back.start == series.start
    assert back.covariates is None


def test_demand_csv_skips_comment_lines():
    series = DemandSeries(
        station="A", interval_minutes=60, start=datetime(2018, 6, 1),
        pickups=np.ones(24, dtype=np.int64), returns=np.zeros(24, dtype=np.int64),
    )
    text = "# config: abc seed: 1\n" + demand_to_csv(series)
    back = demand_from_csv(io.StringIO(text), station="A", interval_minutes=60)
    assert back.pickups.sum() == 24


@pytest.mark.parametrize("row, message", [
    pytest.param("2018-06-01 03:00:00,1", "expected interval_start", id="short-row"),
    pytest.param("", "expected interval_start", id="blank-line"),
    pytest.param("2018-06-01 03:00:00,1,x", "unparseable counts", id="non-integer"),
    pytest.param("2018-06-01 03:00:00,1.5,0", "unparseable counts", id="fractional"),
    pytest.param("yesterday,1,0", "unparseable timestamp", id="bad-time"),
])
def test_demand_csv_row_errors_carry_their_line(row, message):
    # the comment line counts: line numbers are physical lines
    series = DemandSeries(
        station="A", interval_minutes=60, start=datetime(2018, 6, 1),
        pickups=np.ones(24, dtype=np.int64), returns=np.zeros(24, dtype=np.int64),
    )
    lines = ("# config: abc seed: 1\n" + demand_to_csv(series)).splitlines()
    lines[5] = row
    with pytest.raises(RowError, match=message) as err:
        demand_from_csv(io.StringIO("\n".join(lines) + "\n"), station="A", interval_minutes=60)
    assert err.value.line_number == 6


def test_demand_csv_rejects_a_covariate_header():
    text = "interval_start,pickups,returns,temperature_c\n2018-06-01 00:00:00,1,0,12.0\n"
    with pytest.raises(FormatError):
        demand_from_csv(io.StringIO(text), station="A", interval_minutes=60)


@pytest.mark.parametrize("temperature, rain", [
    (0.1 + 0.2, 0.1 + 0.2), (-0.0, 0.0), (1 / 3, 1.0), (-12.345678901234567, 5e-324)])
def test_weather_csv_roundtrip_is_exact(temperature, rain):
    table = WeatherTable()
    table.add(datetime(2018, 6, 1, 1), 10.0, 0.5)
    table.add(datetime(2018, 6, 1, 0), temperature, rain)
    text = weather_to_csv(table)
    assert text.splitlines()[0] == "timestamp,temperature_c,rain_probability"
    back = parse_weather(io.StringIO(text))
    assert back.observations == table.observations
    assert list(back.observations) == sorted(table.observations)
    assert str(back.observations[datetime(2018, 6, 1, 0)][0]) == str(temperature)


def test_covariate_matrix_rejects_bad_one_hots():
    cols = covariate_columns(60)
    values = np.zeros((24, len(cols)))
    values[:, 0] = 10.0
    values[:, 1] = 0.0
    values[:, 2] = 1.0  # dow block ok
    # tod block left all-zero -> invalid
    with pytest.raises(DataError):
        CovariateMatrix(values=values, columns=cols)
