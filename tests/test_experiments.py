"""Bias-sensitivity machinery and the staged file pipeline."""

import os
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

from bikecast import experiments, neural, synthetic
from bikecast.config import RunConfig, derive_seed
from bikecast.errors import DataError, RowError, StageError
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
    parse_weather,
    split,
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


def test_optimize_solves_each_distinct_forecast_once(tmp_path, monkeypatch):
    config, _ = staged_run(tmp_path)
    path = Path(config.out_dir, "decisions", "7.csv")
    before = path.read_bytes()
    solved = []

    def counting_udf_curve(rates, capacity, penalties):
        solved.append((rates.pickup_rates.tobytes(), rates.return_rates.tobytes()))
        return udf_curve(rates, capacity, penalties)

    monkeypatch.setattr(experiments, "udf_curve", counting_udf_curve)
    experiments.stage_optimize(config)
    assert path.read_bytes() == before
    _, forecasts = experiments.load_forecasts(config, "7", "ha", 60)
    distinct = {(r.pickup_rates.tobytes(), r.return_rates.tobytes()) for r in forecasts}
    # ha repeats by weekday: 61 test days, 7 forecasts
    assert len(forecasts) == 61 and len(distinct) == 7
    assert len(solved) == len(set(solved)) == len(distinct)
