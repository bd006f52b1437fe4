"""Bias-sensitivity machinery and the staged file pipeline."""

import functools
import os
import pickle
import signal
import subprocess
import sys
import time
from datetime import date, datetime, timedelta
from pathlib import Path

import lane_jobs
import numpy as np
import pytest
import yaml

from bikecast import experiments, neural, synthetic
from bikecast.cli import EXIT_DATA, EXIT_NUMERIC, _exit_code_for, main
from bikecast.config import RunConfig, derive_seed
from bikecast.errors import DataError, DomainError, RowError, StageError, TrainingError
from bikecast.evaluate import replay_cost
from bikecast.inventory import udf_curve
from bikecast.experiments import BIAS_KINDS, BiasSpec, apply_bias, bias_study
from bikecast.ingest import (
    PICKUP,
    RETURN,
    DemandSeries,
    EventStream,
    build_covariates,
    events_from_csv,
    events_to_csv,
    parse_trips,
    parse_weather,
    split,
    to_event_streams,
)
from bikecast.queueing import RateSeries


def flat_rates(mu: float, lam: float) -> RateSeries:
    return RateSeries(interval_minutes=60,
                      pickup_rates=np.full(24, mu),
                      return_rates=np.full(24, lam))


# -- bias perturbations --------------------------------------------------------


def test_bias_spec_validates():
    with pytest.raises(DataError):
        BiasSpec("sideways", 1.0)
    with pytest.raises(DataError):
        BiasSpec("same_side", -0.5)


def test_apply_bias_same_side_shifts_both_up():
    out = apply_bias(flat_rates(4.0, 2.0), BiasSpec("same_side", 1.5))
    assert np.allclose(out.pickup_rates, 5.5)
    assert np.allclose(out.return_rates, 3.5)


def test_apply_bias_opposite_truncates_at_zero():
    out = apply_bias(flat_rates(4.0, 3.0), BiasSpec("opposite_1", 5.0))
    assert np.allclose(out.pickup_rates, 9.0)
    assert np.allclose(out.return_rates, 0.0)
    out = apply_bias(flat_rates(4.0, 3.0), BiasSpec("opposite_2", 5.0))
    assert np.allclose(out.pickup_rates, 0.0)
    assert np.allclose(out.return_rates, 8.0)


def test_apply_bias_zero_delta_is_identity():
    base = flat_rates(4.0, 2.0)
    for kind in BIAS_KINDS:
        out = apply_bias(base, BiasSpec(kind, 0.0))
        assert np.array_equal(out.pickup_rates, base.pickup_rates)
        assert np.array_equal(out.return_rates, base.return_rates)


def test_default_delta_grid_covers_range():
    grid = experiments.default_delta_grid(25.0, 0.5)
    assert len(grid) == 51
    assert grid[0] == 0.0 and grid[-1] == 25.0
    assert np.allclose(np.diff(grid), 0.5)


# -- bias study on a small day ---------------------------------------------------


def small_day() -> tuple[DemandSeries, EventStream]:
    """One day, 3 pickups/h and 2 returns/h, events on the half hour."""
    start = datetime(2018, 6, 5)
    pickups = np.full(24, 3)
    returns = np.full(24, 2)
    times, kinds = [], []
    for h in range(24):
        base = start + timedelta(hours=h)
        times += [base + timedelta(minutes=10 * (j + 1)) for j in range(3)]
        times += [base + timedelta(minutes=15 * (j + 1) + 1) for j in range(2)]
        kinds += [PICKUP] * 3 + [RETURN] * 2
    stream = EventStream(station="S", times=times, kinds=kinds)
    series = DemandSeries(station="S", interval_minutes=60, start=start,
                          pickups=pickups, returns=returns)
    return series, stream


def test_bias_study_zero_delta_is_the_oracle():
    series, stream = small_day()
    result = bias_study(series, stream, capacity=12,
                        delta_grid=np.array([0.0, 1.0, 2.0]))
    assert set(result.curves) == set(BIAS_KINDS)
    base_s = result.curves["same_side"].s_star[0]
    base_cost = result.curves["same_side"].cost[0]
    for kind in BIAS_KINDS:
        assert result.curves[kind].s_star[0] == base_s
        assert result.curves[kind].cost[0] == base_cost
    assert result.oracle_s == base_s
    assert result.oracle_cost == base_cost


def test_bias_study_ce_tracks_the_pattern():
    series, stream = small_day()
    result = bias_study(series, stream, capacity=12,
                        delta_grid=np.array([0.0, 1.0, 2.0]))
    # same-side shifts cancel in the net, so CE stays exactly zero
    assert np.all(result.curves["same_side"].ce == 0.0)
    # opposing shifts move the net by 2*delta per interval (no truncation here)
    for kind in ("opposite_1", "opposite_2"):
        assert np.allclose(result.curves[kind].ce, 2.0 * np.array([0.0, 1.0, 2.0]) * 24)


def test_bias_study_decisions_move_with_the_bias():
    series, stream = small_day()
    result = bias_study(series, stream, capacity=12,
                        delta_grid=np.array([0.0, 2.0, 4.0]))
    s1 = result.curves["opposite_1"].s_star
    s2 = result.curves["opposite_2"].s_star
    assert np.all(np.diff(s1) >= 0)  # inflated pickups ask for more bikes
    assert np.all(np.diff(s2) <= 0)  # inflated returns ask for more docks
    assert s1[-1] > s2[-1]


def test_bias_study_rejects_multi_day_series():
    series, stream = small_day()
    two = DemandSeries(station="S", interval_minutes=60, start=series.start,
                       pickups=np.tile(series.pickups, 2),
                       returns=np.tile(series.returns, 2))
    with pytest.raises(DataError):
        bias_study(two, stream, capacity=12)


def test_bias_result_csv_layout():
    series, stream = small_day()
    result = bias_study(series, stream, capacity=12,
                        delta_grid=np.array([0.0, 1.0]))
    lines = result.to_csv().splitlines()
    assert lines[0] == "kind,delta,s_star,cost"
    assert len(lines) == 1 + 3 * 2
    assert lines[1].startswith("same_side,0,")
    assert lines[3].startswith("opposite_1,0,")


# -- pipeline stages ------------------------------------------------------------

STATIONS = (
    synthetic.StationSpec("7", 20, "residential"),
    synthetic.StationSpec("8", 24, "business"),
)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """Classical-models-only pipeline on a small two-station corpus."""
    root = tmp_path_factory.mktemp("pipe")
    paths = synthetic.write_corpus(str(root / "data"), seed=11, stations=STATIONS,
                                   base_rate=2.0)
    config = RunConfig(
        trips_path=paths["trips"], weather_path=paths["weather"],
        stations_path=paths["stations"], out_dir=str(root / "out"), seed=5,
        start_date="2018-01-01", end_date="2018-12-31",
        stations=["7", "8"], models=["ha", "ma", "lr"],
        bias_delta_max=4.0, bias_delta_step=2.0,
    )
    result = experiments.run_pipeline(config)
    return config, result


def test_pipeline_writes_expected_artifacts(pipeline_run):
    config, result = pipeline_run
    rel = sorted(os.path.relpath(p, config.out_dir) for p in result.artifacts)
    for expected in (
        "decisions/7.csv",
        "decisions/8.csv",
        "demand/events_7.csv",
        "demand/events_8.csv",
        "demand/station_7.csv",
        "demand/stations_selected.csv",
        "demand/weather.csv",
        "forecasts/7_ha.csv",
        "forecasts/8_lr.csv",
        "models/7_ha.json",
        "models/7_lr.json",
        "reports/bias_curves.csv",
        "reports/metrics.csv",
        "reports/summary.csv",
    ):
        assert expected in rel, expected


def test_every_artifact_carries_config_hash(pipeline_run):
    config, result = pipeline_run
    stamp = config.artifact_header()
    for path in result.artifacts:
        with open(path) as fh:
            assert fh.readline() == stamp, path


def test_summary_has_one_row_per_model_plus_oracle(pipeline_run):
    config, result = pipeline_run
    with open(os.path.join(config.out_dir, "reports", "summary.csv")) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    assert lines[0] == "model,mean_cost,rpd,mean_ce"
    models = [ln.split(",")[0] for ln in lines[1:]]
    assert models == ["oracle", "ha", "lr", "ma"]
    oracle = lines[1].split(",")
    # perfect information loses nothing on this light corpus; rpd is undefined
    assert float(oracle[1]) == 0.0 and float(oracle[3]) == 0.0
    assert oracle[2] == ""
    assert [s.model for s in result.overall] == models


def test_forecasts_cover_the_test_split(pipeline_run):
    config, _ = pipeline_run
    days, series_list = experiments.load_forecasts(config, "7", "ha", 60)
    assert days[0] == date(2018, 11, 1)
    assert days[-1] == date(2018, 12, 31)
    assert len(days) == 61
    assert all(len(r) == 24 for r in series_list)
    assert all(np.all(r.pickup_rates >= 0) for r in series_list)


def test_stages_rerun_from_artifacts(pipeline_run):
    config, result = pipeline_run
    overall, per_station, _ = experiments.stage_evaluate(config)
    assert [s.model for s in overall] == [s.model for s in result.overall]
    assert [s.mean_cost for s in overall] == pytest.approx(
        [s.mean_cost for s in result.overall])
    assert set(per_station) == {"7", "8"}


def test_rerun_is_byte_identical(pipeline_run, tmp_path):
    """Same config, rerun in place: every report reproduces byte for byte."""
    config, _ = pipeline_run
    reports = os.path.join(config.out_dir, "reports")
    before = {}
    for name in sorted(os.listdir(reports)):
        with open(os.path.join(reports, name), "rb") as fh:
            before[name] = fh.read()
    experiments.run_pipeline(config)
    for name, blob in before.items():
        with open(os.path.join(reports, name), "rb") as fh:
            assert fh.read() == blob, name


def test_stage_requires_upstream_artifacts(tmp_path):
    paths = synthetic.write_corpus(str(tmp_path / "data"), seed=11, stations=STATIONS,
                                   base_rate=2.0)
    config = RunConfig(
        trips_path=paths["trips"], weather_path=paths["weather"],
        stations_path=paths["stations"], out_dir=str(tmp_path / "out"), seed=5,
        start_date="2018-01-01", end_date="2018-12-31",
        stations=["7"], models=["ha"],
    )
    with pytest.raises(StageError) as err:
        experiments.stage_train(config)
    assert "ingest" in str(err.value)
    assert "stations_selected" in str(err.value)


def test_stage_ingest_names_missing_input(tmp_path):
    paths = synthetic.write_corpus(str(tmp_path / "data"), seed=11, stations=STATIONS,
                                   base_rate=2.0)
    config = RunConfig(
        trips_path=str(tmp_path / "nope.csv"), weather_path=paths["weather"],
        stations_path=paths["stations"], out_dir=str(tmp_path / "out"), seed=5,
        start_date="2018-01-01", end_date="2018-12-31", stations=["7"],
    )
    with pytest.raises(StageError) as err:
        experiments.stage_ingest(config)
    assert "nope.csv" in str(err.value)


def test_stage_ingest_rejects_unknown_station(tmp_path):
    paths = synthetic.write_corpus(str(tmp_path / "data"), seed=11, stations=STATIONS,
                                   base_rate=2.0)
    config = RunConfig(
        trips_path=paths["trips"], weather_path=paths["weather"],
        stations_path=paths["stations"], out_dir=str(tmp_path / "out"), seed=5,
        start_date="2018-01-01", end_date="2018-12-31", stations=["99"],
    )
    with pytest.raises(StageError) as err:
        experiments.stage_ingest(config)
    assert "99" in str(err.value)


def test_neural_models_run_through_pipeline(tmp_path):
    """Ingest to evaluate with only the recurrent models, whose checkpoints
    are the first files written under ``models/``."""
    paths = synthetic.write_corpus(str(tmp_path / "data"), seed=11, stations=STATIONS,
                                   base_rate=2.0)
    config = RunConfig(
        trips_path=paths["trips"], weather_path=paths["weather"],
        stations_path=paths["stations"], out_dir=str(tmp_path / "out"), seed=5,
        start_date="2018-01-01", end_date="2018-12-31", stations=["7"],
        models=["prnn", "vprnn", "movprnn"], hidden_width=4, max_epochs=1,
        forecast_samples=4,
    )
    experiments.stage_ingest(config)
    experiments.stage_train(config)
    for name in ("7_prnn_pickups", "7_prnn_returns", "7_vprnn_pickups",
                 "7_vprnn_returns", "7_movprnn"):
        assert os.path.exists(os.path.join(config.out_dir, "models", f"{name}.ckpt")), name
    experiments.stage_forecast(config)
    # each written column is its net's forecast under the seeds of the net's label
    test = split(experiments.load_ingested(config)["7"].series).test
    for name, checkpoint, label, columns in (
            ("prnn", "7_prnn_pickups", "prnn:pickups", [0]),
            ("vprnn", "7_vprnn_returns", "vprnn:returns", [1]),
            ("movprnn", "7_movprnn", "movprnn", [0, 1])):
        days, forecasts = experiments.load_forecasts(config, "7", name, 60)
        net = neural.load_checkpoint(
            os.path.join(config.out_dir, "models", f"{checkpoint}.ckpt"))
        expected = neural.predict_rates(
            net, test.covariates.values.reshape(len(days), test.intervals_per_day, -1),
            n_samples=config.forecast_samples,
            seed=[derive_seed(config.seed, f"forecast:7:{label}:{day}") for day in days])
        written = np.array([np.stack([r.pickup_rates, r.return_rates], axis=1)
                            for r in forecasts])
        np.testing.assert_allclose(written[:, :, columns], expected, rtol=1e-9, atol=0.0)
    decisions = experiments.stage_optimize(config)
    assert sorted(decisions["7"]) == ["movprnn", "prnn", "vprnn"]
    overall, _, _ = experiments.stage_evaluate(config)
    assert [s.model for s in overall] == ["oracle", "movprnn", "prnn", "vprnn"]
    assert all(np.isfinite(s.mean_cost) for s in overall)


def staged_run(tmp_path) -> tuple[RunConfig, dict]:
    """A one-station, ha-only run taken through ingest, train, forecast, optimize."""
    paths = synthetic.write_corpus(str(tmp_path / "data"), seed=11, stations=STATIONS,
                                   base_rate=2.0)
    config = RunConfig(
        trips_path=paths["trips"], weather_path=paths["weather"],
        stations_path=paths["stations"], out_dir=str(tmp_path / "out"), seed=5,
        start_date="2018-01-01", end_date="2018-12-31", stations=["7"], models=["ha"],
    )
    for stage in (experiments.stage_ingest, experiments.stage_train,
                  experiments.stage_forecast, experiments.stage_optimize):
        stage(config)
    return config, paths


def _reports(config: RunConfig) -> dict[str, bytes]:
    reports = os.path.join(config.out_dir, "reports")
    blobs = {}
    for name in sorted(os.listdir(reports)):
        with open(os.path.join(reports, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


def test_evaluate_does_not_read_the_trip_file(tmp_path):
    config, paths = staged_run(tmp_path)
    experiments.stage_evaluate(config)
    kept = _reports(config)
    assert sorted(kept) == ["metrics.csv", "summary.csv"]
    os.remove(paths["trips"])
    experiments.stage_evaluate(config)
    assert _reports(config) == kept


def _full_stream_csv(paths) -> str:
    """``events_to_csv`` of station 7's whole event stream in the trip file."""
    return events_to_csv(to_event_streams(parse_trips(paths["trips"]), ["7"])["7"])


def test_ingest_keeps_the_events_of_the_test_days_alone(tmp_path):
    config, paths = staged_run(tmp_path)
    test = split(experiments.load_ingested(config)["7"].series).test
    assert (test.start, test.n_days) == (datetime(2018, 11, 1), 61)
    header, *rows = _full_stream_csv(paths).splitlines(keepends=True)
    cut = [row for row in rows if row.startswith(("2018-11-", "2018-12-"))]
    assert 0 < len(cut) < len(rows) // 4
    kept = Path(config.out_dir, "demand", "events_7.csv").read_text()
    assert kept == config.artifact_header() + header + "".join(cut)


def test_evaluate_scores_the_cut_events_as_the_full_stream(tmp_path):
    config, paths = staged_run(tmp_path)
    experiments.stage_evaluate(config)
    kept = _reports(config)
    events = Path(config.out_dir, "demand", "events_7.csv")
    events.write_text(config.artifact_header() + _full_stream_csv(paths))
    experiments.stage_evaluate(config)
    assert _reports(config) == kept


def _train_and_forecast(config: RunConfig) -> dict[str, bytes]:
    experiments.stage_train(config)
    experiments.stage_forecast(config)
    forecasts = os.path.join(config.out_dir, "forecasts")
    blobs = {}
    for name in sorted(os.listdir(forecasts)):
        with open(os.path.join(forecasts, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


def test_quarter_hour_run_rebuilds_the_covariates_from_the_kept_weather(tmp_path):
    paths = synthetic.write_corpus(str(tmp_path / "data"), seed=11, stations=STATIONS,
                                   base_rate=2.0)
    config = RunConfig(
        trips_path=paths["trips"], weather_path=paths["weather"],
        stations_path=paths["stations"], out_dir=str(tmp_path / "out"), seed=5,
        start_date="2018-01-01", end_date="2018-12-31", stations=["7"],
        models=["ha", "lr"], interval_minutes=15,
    )
    experiments.stage_ingest(config)
    with open(os.path.join(config.out_dir, "demand", "station_7.csv")) as fh:
        assert fh.readline() == config.artifact_header()
        assert fh.readline() == "interval_start,pickups,returns\n"
    series = experiments.load_ingested(config)["7"].series
    expected = build_covariates(parse_weather(paths["weather"]),
                                (date(2018, 1, 1), date(2018, 12, 31)), 15)
    assert series.covariates.values.shape == (365 * 96, 105)
    np.testing.assert_array_equal(series.covariates.values, expected.values)
    assert series.covariates.columns == expected.columns
    forecasts = _train_and_forecast(config)
    assert sorted(forecasts) == ["7_ha.csv", "7_lr.csv"]
    days, rates = experiments.load_forecasts(config, "7", "lr", 15)
    assert len(days) == 61 and all(len(r) == 96 for r in rates)


def test_train_and_forecast_do_not_read_the_weather_input(tmp_path):
    paths = synthetic.write_corpus(str(tmp_path / "data"), seed=11, stations=STATIONS,
                                   base_rate=2.0)
    config = RunConfig(
        trips_path=paths["trips"], weather_path=paths["weather"],
        stations_path=paths["stations"], out_dir=str(tmp_path / "out"), seed=5,
        start_date="2018-01-01", end_date="2018-12-31", stations=["7"],
        models=["ha", "lr"],
    )
    experiments.stage_ingest(config)
    kept = _train_and_forecast(config)
    os.remove(paths["weather"])
    assert _train_and_forecast(config) == kept


def test_train_without_kept_weather_names_ingest(tmp_path):
    paths = synthetic.write_corpus(str(tmp_path / "data"), seed=11, stations=STATIONS,
                                   base_rate=2.0)
    config = RunConfig(
        trips_path=paths["trips"], weather_path=paths["weather"],
        stations_path=paths["stations"], out_dir=str(tmp_path / "out"), seed=5,
        start_date="2018-01-01", end_date="2018-12-31", stations=["7"], models=["lr"],
    )
    experiments.stage_ingest(config)
    os.remove(os.path.join(config.out_dir, "demand", "weather.csv"))
    with pytest.raises(StageError) as err:
        experiments.stage_train(config)
    assert isinstance(err.value.__cause__, DataError)
    assert "weather.csv" in str(err.value)
    assert "run the ingest stage first" in str(err.value)


def test_load_ingested_names_the_line_and_path_of_a_bad_kept_weather_row(tmp_path):
    paths = synthetic.write_corpus(str(tmp_path / "data"), seed=11, stations=STATIONS,
                                   base_rate=2.0)
    config = RunConfig(
        trips_path=paths["trips"], weather_path=paths["weather"],
        stations_path=paths["stations"], out_dir=str(tmp_path / "out"), seed=5,
        start_date="2018-01-01", end_date="2018-12-31", stations=["7"], models=["lr"],
    )
    experiments.stage_ingest(config)
    weather = Path(config.out_dir) / "demand" / "weather.csv"
    lines = weather.read_text().splitlines()
    assert lines[0].startswith("# ") and lines[1] == "timestamp,temperature_c,rain_probability"
    lines[6] = ",".join(lines[6].split(",")[:2] + ["1.5"])
    weather.write_text("\n".join(lines) + "\n")
    with pytest.raises(RowError) as err:
        experiments.load_ingested(config)
    assert err.value.line_number == 7
    assert str(err.value).startswith(f"{weather}: line 7: rain_probability 1.5 outside [0, 1]")


def test_evaluate_without_kept_events_names_ingest(tmp_path):
    config, _ = staged_run(tmp_path)
    os.remove(os.path.join(config.out_dir, "demand", "events_7.csv"))
    with pytest.raises(StageError) as err:
        experiments.stage_evaluate(config)
    assert isinstance(err.value.__cause__, DataError)
    assert "events_7.csv" in str(err.value)
    assert "run the ingest stage first" in str(err.value)


def test_evaluate_replays_the_decisions_that_optimize_wrote(tmp_path):
    config, _ = staged_run(tmp_path)
    day = "2018-11-07"
    path = Path(config.out_dir, "decisions", "7.csv")
    lines = path.read_text().splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(f"{day},ha,"))
    _, _, s_star, cost = lines[i].split(",")
    edited = 0 if int(s_star) > 0 else 20
    lines[i] = f"{day},ha,{edited},{cost}"
    path.write_text("\n".join(lines) + "\n")
    experiments.stage_evaluate(config)
    with open(os.path.join(config.out_dir, "reports", "metrics.csv")) as fh:
        rows = [ln.split(",") for ln in fh.read().splitlines() if not ln.startswith("#")]
    reported = {r[3]: r[4] for r in rows if r[1] == day and r[2] == "ha"}
    assert reported["s_star"] == str(edited)
    events = events_from_csv(os.path.join(config.out_dir, "demand", "events_7.csv"), "7")
    cost = replay_cost(events.slice_day(date.fromisoformat(day)), edited, 20).cost
    assert float(reported["cost"]) == cost


def test_evaluate_without_decisions_names_optimize(tmp_path):
    config, _ = staged_run(tmp_path)
    os.remove(os.path.join(config.out_dir, "decisions", "7.csv"))
    with pytest.raises(StageError) as err:
        experiments.stage_evaluate(config)
    assert isinstance(err.value.__cause__, DataError)
    assert "run the optimize stage first" in str(err.value)


def test_evaluate_rejects_decisions_missing_a_test_day(tmp_path):
    config, _ = staged_run(tmp_path)
    path = Path(config.out_dir, "decisions", "7.csv")
    kept = [ln for ln in path.read_text().splitlines() if not ln.startswith("2018-12-31,")]
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(StageError) as err:
        experiments.stage_evaluate(config)
    assert isinstance(err.value.__cause__, DataError)
    assert "2018-12-31" in str(err.value) and "ha" in str(err.value)


def _read_only(data: dict) -> dict:
    """``data``, as :func:`experiments.load_ingested` returns it, with every
    array in it made read-only, so that a stage that writes to one fails."""
    for station in data.values():
        series = station.series
        for array in (series.pickups, series.returns, series.covariates.values):
            array.flags.writeable = False
    return data


def test_pipeline_reads_the_demand_files_once_and_writes_nothing_to_them(tmp_path,
                                                                         monkeypatch):
    paths = synthetic.write_corpus(str(tmp_path / "data"), seed=11, stations=STATIONS,
                                   base_rate=2.0)
    config = RunConfig(
        trips_path=paths["trips"], weather_path=paths["weather"],
        stations_path=paths["stations"], out_dir=str(tmp_path / "out"), seed=5,
        start_date="2018-01-01", end_date="2018-12-31", stations=["7", "8"],
        models=["ha", "ma", "lr", "prnn"], hidden_width=4, max_epochs=1, patience=1,
        bias_delta_max=4.0, bias_delta_step=2.0,
    )
    load, calls = experiments.load_ingested, []
    monkeypatch.setattr(experiments, "load_ingested",
                        lambda config: calls.append(config) or _read_only(load(config)))
    result = experiments.run_pipeline(config)
    assert calls == [config]
    assert [s.model for s in result.overall] == ["oracle", "ha", "lr", "ma", "prnn"]


def test_optimize_solves_each_distinct_forecast_once(tmp_path, monkeypatch):
    config, _ = staged_run(tmp_path)
    path = Path(config.out_dir, "decisions", "7.csv")
    before = path.read_bytes()
    solved = []

    def counting_udf_curve(rates, capacity, penalties):
        solved.append((rates.pickup_rates.tobytes(), rates.return_rates.tobytes()))
        return udf_curve(rates, capacity, penalties)

    monkeypatch.setattr(experiments, "udf_curve", counting_udf_curve)
    # one lane: a worker's calls would append to its own copy of ``solved``
    monkeypatch.setattr(experiments, "_cores", lambda: 1)
    experiments.stage_optimize(config)
    assert path.read_bytes() == before
    _, forecasts = experiments.load_forecasts(config, "7", "ha", 60)
    distinct = {(r.pickup_rates.tobytes(), r.return_rates.tobytes()) for r in forecasts}
    # ha repeats by weekday: 61 test days, 7 forecasts
    assert len(forecasts) == 61 and len(distinct) == 7
    assert len(solved) == len(set(solved)) == len(distinct)


def test_bias_study_solves_each_distinct_series_once(monkeypatch):
    series, stream = small_day()
    solved = []

    def counting_udf_curve(rates, capacity, penalties):
        solved.append((rates.pickup_rates.tobytes(), rates.return_rates.tobytes()))
        return udf_curve(rates, capacity, penalties)

    monkeypatch.setattr(experiments, "udf_curve", counting_udf_curve)
    # one lane: a worker's calls would append to its own copy of ``solved``
    monkeypatch.setattr(experiments, "_cores", lambda: 1)
    result = bias_study(series, stream, capacity=12, delta_grid=np.array([0.0, 1.0, 2.0]))
    # delta 0 is one series for the three kinds
    assert len(solved) == len(set(solved)) == 1 + 3 * 2
    for kind in BIAS_KINDS:
        for delta, s_star in zip((0.0, 1.0, 2.0), result.curves[kind].s_star):
            rates = apply_bias(flat_rates(3.0, 2.0), BiasSpec(kind, delta))
            assert s_star == udf_curve(rates, 12).s_star


# -- training lanes ------------------------------------------------------------


@pytest.fixture
def two_lanes(monkeypatch):
    # this process decides the lane count, so the patch reaches it
    monkeypatch.setattr(experiments, "_cores", lambda: 2)


def _reaped(pid: int) -> bool:
    """True once ``pid`` is no process at all; an unreaped child is a zombie."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _pid(path) -> int:
    return int(Path(path).read_text())


def test_lanes_return_results_in_job_order_from_both_lanes(two_lanes):
    results = experiments._in_lanes(lane_jobs.tagged, [(i, 0.3) for i in range(4)])
    assert [tag for tag, _ in results] == [0, 1, 2, 3]
    pids = {pid for _, pid in results}
    # this process and the worker both claim jobs
    assert os.getpid() in pids and len(pids) == 2
    assert all(_reaped(pid) for pid in pids - {os.getpid()})


def test_training_error_in_a_worker_reads_as_in_process(two_lanes, tmp_path):
    # one job fails in the worker while this process sleeps through the other
    paths = [tmp_path / "0", tmp_path / "1"]
    with pytest.raises(StageError) as in_worker:
        with experiments._stage("train"):
            experiments._in_lanes(lane_jobs.in_worker,
                                  [(lane_jobs.fail, p, os.getpid()) for p in paths])
    [failed] = [p for p in paths if p.exists()]
    worker = _pid(failed)
    with pytest.raises(StageError) as here:
        with experiments._stage("train"):
            lane_jobs.fail(failed)
    assert str(in_worker.value) == str(here.value)
    assert isinstance(in_worker.value.__cause__, TrainingError)
    assert _exit_code_for(in_worker.value) == _exit_code_for(here.value) == EXIT_NUMERIC
    assert worker != os.getpid() and _reaped(worker)


def test_a_worker_that_dies_fails_the_train_stage_numeric(two_lanes, tmp_path):
    paths = [tmp_path / "0", tmp_path / "1"]
    with pytest.raises(StageError) as err:
        with experiments._stage("train"):
            experiments._in_lanes(lane_jobs.in_worker,
                                  [(lane_jobs.die, p, os.getpid()) for p in paths])
    assert err.value.stage == "train" and "worker" in str(err.value)
    assert _exit_code_for(err.value) == EXIT_NUMERIC
    [died] = [p for p in paths if p.exists()]
    assert _reaped(_pid(died))


def test_after_a_failure_no_lane_starts_another_job(two_lanes, tmp_path):
    # job 0 ends well after half a second and job 1 fails at once: the lane of
    # job 0 finishes it and claims no other, so jobs 2 and 3 never start
    paths = [tmp_path / str(i) for i in range(4)]
    with pytest.raises(TrainingError, match="^net 1: "):
        experiments._in_lanes(lane_jobs.fail, [(paths[0], 0.5, False), (paths[1],)]
                              + [(p, 0.0, False) for p in paths[2:]])
    assert paths[0].exists()
    assert not paths[2].exists() and not paths[3].exists()
    workers = {_pid(p) for p in paths[:2]} - {os.getpid()}
    assert all(_reaped(pid) for pid in workers)


def test_the_error_of_the_lowest_job_index_wins(two_lanes, tmp_path):
    # job 0 fails after half a second and job 1 at once; job 0's error is
    # raised, once its lane has finished it
    paths = [tmp_path / "0", tmp_path / "1"]
    with pytest.raises(TrainingError, match="^net 0: "):
        experiments._in_lanes(lane_jobs.fail, [(paths[0], 0.5), (paths[1],)])
    assert paths[0].exists()


def test_more_lanes_than_cores_run_every_job_once(monkeypatch, tmp_path):
    # a lost update of the shared counter would run a job twice, which fails
    # to create its file again, or skip one, which leaves no result
    monkeypatch.setattr(experiments, "_cores", lambda: 4)
    paths = [tmp_path / str(i) for i in range(3000)]
    pids = experiments._in_lanes(lane_jobs.once, [(p,) for p in paths])
    assert pids == [_pid(p) for p in paths]
    assert len(set(pids)) > 1


# -- decision curves over the lanes ------------------------------------------------


def _run_files(out_dir) -> dict[str, bytes]:
    return {str(p.relative_to(out_dir)): p.read_bytes()
            for p in sorted(Path(out_dir).rglob("*")) if p.is_file()}


def test_pipeline_artifacts_do_not_depend_on_the_lane_count(tmp_path, monkeypatch):
    paths = synthetic.write_corpus(str(tmp_path / "data"), seed=11, stations=STATIONS,
                                   base_rate=2.0)
    config = RunConfig(
        trips_path=paths["trips"], weather_path=paths["weather"],
        stations_path=paths["stations"], out_dir=str(tmp_path / "out"), seed=5,
        start_date="2018-01-01", end_date="2018-12-31", stations=["7", "8"],
        models=["ha", "lr"], bias_delta_max=4.0, bias_delta_step=1.0,
    )
    runs = {}
    for cores in (1, 2):
        monkeypatch.setattr(experiments, "_cores", lambda: cores)
        experiments.run_pipeline(config)
        runs[cores] = _run_files(config.out_dir)
        os.rename(config.out_dir, tmp_path / f"out{cores}")
    for name in ("decisions/7.csv", "decisions/8.csv", "reports/metrics.csv",
                 "reports/summary.csv", "reports/bias_curves.csv"):
        assert name in runs[1], name
    assert runs[1] == runs[2]


def test_a_solve_error_in_a_worker_reads_as_in_process(two_lanes):
    # the worker solves a day too busy for the solver while this process
    # sleeps through the other job
    busy = flat_rates(1e7, 1e7)
    solve = functools.partial(udf_curve, capacity=20)
    with pytest.raises(StageError) as in_worker:
        with experiments._stage("optimize"):
            experiments._in_lanes(lane_jobs.in_worker, [(solve, busy, os.getpid())] * 2)
    with pytest.raises(StageError) as here:
        with experiments._stage("optimize"):
            solve(busy)
    assert str(in_worker.value) == str(here.value)
    assert "terms" in str(here.value)
    assert type(in_worker.value.__cause__) is type(here.value.__cause__) is DomainError
    assert _exit_code_for(in_worker.value) == _exit_code_for(here.value) == EXIT_NUMERIC


def test_a_bias_grid_beyond_the_solver_exits_numeric_on_any_lane_count(tmp_path, monkeypatch,
                                                                       capsys):
    config = ingest_config(tmp_path, {"trips": "t", "weather": "w", "stations": "s"},
                           bias_delta_max=2e6, bias_delta_step=1e6)
    errors = []
    for cores in (1, 2):
        monkeypatch.setattr(experiments, "_cores", lambda: cores)
        assert main(["bias-study", "--config", config]) == EXIT_NUMERIC
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("bikecast: stage bias: uniformization needs more than")


def _env() -> dict:
    """This environment with the checkout's ``src`` and ``tests`` first on the path."""
    tests = Path(__file__).resolve().parent
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")])))


def _children(pid: int) -> list[int]:
    children = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def _running(pid: int) -> bool:
    """False once ``pid`` has exited, reaped or left a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_no_worker_outlives_a_killed_parent(tmp_path):
    paths = [tmp_path / "0", tmp_path / "1"]
    code = ("import sys, lane_jobs; from bikecast import experiments; "
            "experiments._cores = lambda: 2; "
            "experiments._in_lanes(lane_jobs.hang, [(p,) for p in sys.argv[1:]])")
    parent = subprocess.Popen([sys.executable, "-c", code, *map(str, paths)], env=_env())
    try:
        deadline = time.monotonic() + 60
        while not all(p.exists() and p.read_text() for p in paths):
            assert parent.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        children = _children(parent.pid)
        # one job hangs in the parent and the other in its worker
        pids = {_pid(p) for p in paths}
        assert parent.pid in pids and len(pids) == 2 and pids - {parent.pid} <= set(children)
    finally:
        parent.send_signal(signal.SIGKILL)
        parent.wait()
    deadline = time.monotonic() + 5
    while any(_running(pid) for pid in children) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in children if _running(pid)]


def test_one_lane_spawns_nothing_and_loads_no_multiprocessing(tmp_path):
    code = ("import sys; from bikecast import experiments; "
            "experiments._cores = lambda: 1; "
            "print(experiments._in_lanes(abs, [(-1,), (-2,)]), "
            "[m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))])")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[1, 2] []"


@pytest.mark.parametrize("error", [RowError(3, "bad", "p.csv"), RowError(4, "bad"),
                                   StageError("train", "x")], ids=repr)
def test_errors_survive_pickling(error):
    # an error raised in a worker lane comes back pickled
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error) and str(copy) == str(error)
    assert vars(copy) == vars(error)


# -- the trip file in ranges ------------------------------------------------------


@pytest.fixture
def small_ranges(monkeypatch):
    """Two lanes and ranges of 64 bytes. Lists, for each parse_trips call in
    this process, whether it read a path: the whole file at once."""
    monkeypatch.setattr(experiments, "_cores", lambda: 2)
    monkeypatch.setattr(experiments, "_RANGE_BYTES", 64)
    whole = []
    parse = experiments.parse_trips
    monkeypatch.setattr(experiments, "parse_trips",
                        lambda source: whole.append(isinstance(source, str)) or parse(source))
    return whole


def trip_lines(n: int, stations=lambda i: (str(100 + i % 7), str(100 + i % 5))) -> list[str]:
    lines = ["starttime,stoptime,start station id,end station id"]
    for i in range(n):
        start = datetime(2018, 6, 1) + timedelta(hours=i)
        origin, dest = stations(i)
        lines.append(f"{start},{start + timedelta(minutes=30)},{origin},{dest}")
    return lines


def _mixed_endings(lines: list[str]) -> str:
    return "".join(line + ("\r" if i % 3 else "\n") for i, line in enumerate(lines))


def _reordered(lines: list[str]) -> list[str]:
    out = ["bikeid,end station id,stoptime,usertype,start station id,starttime"]
    for i, line in enumerate(lines[1:]):
        start, stop, origin, dest = line.split(",")
        out.append(f"{i},{dest},{stop},Subscriber,{origin},{start}")
    return out


# a quoted station id of many lines, with doubled quotes, that a cut must fall in
_LONG_FIELD = '"' + "\n".join(f'dock ""{k}"", north, {k}' for k in range(12)) + '"'

RANGE_FILES = {
    "crlf": "\r\n".join(trip_lines(40)) + "\r\n",
    "bare-cr": "\r".join(trip_lines(40)) + "\r",
    "mixed-endings": _mixed_endings(trip_lines(40)),
    "blank-lines": "\n\n".join(trip_lines(40)) + "\n\n\n",
    "short-rows": "\n".join([trip_lines(0)[0] + ",bikeid,usertype"] + [
        line + ",7" * (i % 3) for i, line in enumerate(trip_lines(40)[1:])]) + "\n",
    "quoted-commas": "\n".join(trip_lines(
        40, lambda i: (f'"{i % 4}, east"', f'"{i % 3}, west"'))) + "\n",
    "reordered-columns": "\n".join(_reordered(trip_lines(40))) + "\n",
    "no-final-newline": "\n".join(trip_lines(40)),
    "header-only": trip_lines(0)[0] + "\n",
    "straddling-quoted-field": "\n".join(trip_lines(
        40, lambda i: (_LONG_FIELD if i == 20 else str(i), "101"))) + "\n",
    # a quoted end station whose lines read as trip rows on their own: both
    # ranges at a cut inside it parse cleanly, and only the sentinel tells
    "straddling-rows-in-a-quoted-field": "\n".join(trip_lines(
        40, lambda i: ("101", '"' + "\n".join(trip_lines(9)[1:]) + '""x"' if i == 20
                       else "102"))) + "\n",
}


def assert_same_table(got, want):
    for name in ("start_times", "end_times", "start_stations", "end_stations"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name


@pytest.mark.parametrize("name", sorted(RANGE_FILES))
def test_trip_ranges_read_as_the_serial_parse(small_ranges, tmp_path, name):
    path = tmp_path / "trips.csv"
    path.write_bytes(RANGE_FILES[name].encode())
    got = experiments._read_trips(str(path))
    assert_same_table(got, parse_trips(str(path)))
    # a file without a line feed after its header has one range, and a cut
    # inside the quoted field sends the file to one serial parse
    assert (True in small_ranges) == (name in ("bare-cr", "header-only") or "straddling" in name)


def test_trip_ranges_keep_the_quoted_line_breaks_they_do_not_cut(small_ranges, tmp_path):
    # ranges of 4 KiB hold the long field whole, so it reads back from a range
    experiments._RANGE_BYTES = 4096
    text = RANGE_FILES["straddling-quoted-field"] + "\n".join(trip_lines(400)[1:]) + "\n"
    path = tmp_path / "trips.csv"
    path.write_text(text)
    got = experiments._read_trips(str(path))
    assert True not in small_ranges
    assert_same_table(got, parse_trips(str(path)))
    assert got.start_stations[20] == _LONG_FIELD[1:-1].replace('""', '"')


def ingest_config(tmp_path, paths, **extra) -> str:
    """A config file for an ingest of station 7 from the corpus at ``paths``,
    with the fields of ``extra`` added."""
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({
        "trips_path": paths["trips"], "weather_path": paths["weather"],
        "stations_path": paths["stations"], "out_dir": str(tmp_path / "out"), "seed": 5,
        "start_date": "2018-01-01", "end_date": "2018-12-31", "stations": ["7"], **extra}))
    return str(config)


@pytest.fixture
def corpus_with_two_bad_rows(tmp_path):
    """A small corpus whose trip file breaks a row early and a row late, and
    the config of an ingest over it."""
    paths = synthetic.write_corpus(str(tmp_path / "data"), seed=11, stations=STATIONS,
                                   base_rate=2.0)
    with open(paths["trips"]) as fh:
        lines = fh.read().split("\n")
    start, stop, origin, _dest = lines[100].split(",")
    lines[100] = f"{start},{stop},{origin}"  # short: the end station pads as empty
    start, stop, origin, dest = lines[-400].split(",")
    lines[-400] = f"{stop},{start},{origin},{dest}"
    with open(paths["trips"], "w") as fh:
        fh.write("\n".join(lines))
    return paths["trips"], ingest_config(tmp_path, paths)


def test_a_bad_row_in_a_range_raises_the_serial_error(small_ranges, corpus_with_two_bad_rows,
                                                      capsys):
    experiments._RANGE_BYTES = 4096
    trips, config = corpus_with_two_bad_rows
    with pytest.raises(RowError) as serial:
        parse_trips(trips)
    with pytest.raises(RowError) as ranged:
        experiments._read_trips(trips)
    assert serial.value.line_number == 101 and "empty station id" in str(serial.value)
    assert str(ranged.value) == str(serial.value)
    assert vars(ranged.value) == vars(serial.value)
    assert False in small_ranges  # this process parsed ranges before the serial parse
    capsys.readouterr()
    assert main(["ingest", "--config", config]) == EXIT_DATA
    assert capsys.readouterr().err == f"bikecast: stage ingest: {serial.value}\n"


def test_a_two_lane_pipeline_warns_of_nothing_in_dev_mode(tmp_path):
    # -X dev shows a file left open (ResourceWarning) and, from Python 3.12, a
    # fork while a thread runs (DeprecationWarning); -W error fails on them.
    # The pipeline runs every lane call: the trip file in ranges, the nets,
    # and the curves of optimize, evaluate and bias
    paths = synthetic.write_corpus(str(tmp_path / "data"), seed=11, stations=STATIONS,
                                   base_rate=2.0)
    config = ingest_config(tmp_path, paths, models=["ha", "prnn"], hidden_width=4,
                           max_epochs=1, forecast_samples=2, bias_delta_max=4.0,
                           bias_delta_step=2.0)
    code = ("import sys; from bikecast import cli, experiments; "
            "experiments._cores = lambda: 2; experiments._RANGE_BYTES = 1 << 14; "
            "sys.exit(cli.main(sys.argv[1:]))")
    assert os.path.getsize(paths["trips"]) > 8 << 14
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code,
                           "pipeline", "--config", config],
                          env=_env(), cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert (tmp_path / "out" / "reports" / "bias_curves.csv").exists()


@pytest.mark.parametrize("cores, range_bytes, pool", [(2, 1 << 20, False), (1, 64, False),
                                                      (2, 64, True)])
def test_a_trip_file_of_one_range_or_one_core_starts_no_pool(tmp_path, cores, range_bytes,
                                                              pool):
    path = tmp_path / "trips.csv"
    path.write_text(RANGE_FILES["crlf"])
    code = ("import sys; from bikecast import experiments; "
            f"experiments._cores = lambda: {cores}; experiments._RANGE_BYTES = {range_bytes}; "
            "print(len(experiments._read_trips(sys.argv[1])), "
            "any(m.startswith(('multiprocessing', 'concurrent')) for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, str(path)], env=_env(), cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["40", str(pool)]


def test_a_cut_that_opens_a_field_past_the_csv_limit_falls_back(small_ranges, tmp_path):
    # a quoted end station of blank lines straddles the first cut. The range
    # after the cut reads the field's closing quote as an opening one, which
    # swallows the rest of that range into one field past csv's limit of
    # 128 KiB; the range before it fails its sentinel, and that failure of the
    # lower index sends the file to the serial parse
    experiments._RANGE_BYTES = 1 << 18
    lines = trip_lines(12000)
    first, offset = 0, 0
    while offset <= (1 << 18) - 2000:  # the first row to start past this offset
        offset += len(lines[first]) + 1
        first += 1
    start, stop, origin, dest = lines[first].split(",")
    lines[first] = f'{start},{stop},{origin},"{dest}' + "\n" * 4000 + '"'
    path = tmp_path / "trips.csv"
    path.write_text("\n".join(lines) + "\n")
    got = experiments._read_trips(str(path))
    assert True in small_ranges
    assert_same_table(got, parse_trips(str(path)))
    assert len(got) == 12000 and got.end_stations[first - 1] == dest  # ids are stripped


def test_a_bad_byte_in_a_range_raises_the_serial_decode_error(small_ranges, tmp_path):
    # a range decodes alone, so its error would give the byte's position in
    # the range; the serial parse gives it in the file
    lines = trip_lines(40)
    lines[30] = lines[30].replace("10", "1\xff", 1)
    path = tmp_path / "trips.csv"
    path.write_bytes("\n".join(lines).encode("latin-1"))
    with pytest.raises(UnicodeDecodeError) as serial:
        parse_trips(str(path))
    with pytest.raises(UnicodeDecodeError) as ranged:
        experiments._read_trips(str(path))
    assert str(ranged.value) == str(serial.value)
