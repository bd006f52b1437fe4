"""Command-line interface: exit codes, overrides, stage smoke runs."""

import csv
import os
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import pytest
import yaml

from bikecast import synthetic
from bikecast.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main

REPO_ROOT = Path(__file__).resolve().parent.parent

STATIONS = (
    synthetic.StationSpec("7", 20, "residential"),
    synthetic.StationSpec("8", 24, "business"),
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    paths = synthetic.write_corpus(str(root), seed=11, stations=STATIONS, base_rate=2.0)
    return paths


def write_config(path, paths, out_dir, **extra):
    payload = {
        "trips_path": paths["trips"],
        "weather_path": paths["weather"],
        "stations_path": paths["stations"],
        "out_dir": str(out_dir),
        "seed": 5,
        "start_date": "2018-01-01",
        "end_date": "2018-12-31",
        "stations": ["7", "8"],
        "models": ["ha"],
        "bias_delta_max": 4.0,
        "bias_delta_step": 2.0,
    }
    payload.update(extra)
    with open(path, "w") as fh:
        yaml.safe_dump(payload, fh)
    return str(path)


# -- usage and configuration problems ---------------------------------------------


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


def test_bad_interval_flag_rejected_before_work(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--config", "x.yaml", "--interval", "45"])
    assert exc.value.code == EXIT_USAGE


def test_config_file_not_found(capsys):
    code = main(["ingest", "--config", "/nowhere/run.yaml"])
    assert code == EXIT_USAGE
    assert "/nowhere/run.yaml" in capsys.readouterr().err


def test_unknown_config_key(tmp_path, capsys, corpus):
    path = write_config(tmp_path / "run.yaml", corpus, tmp_path / "out",
                        optimizer="adam")
    assert main(["ingest", "--config", path]) == EXIT_USAGE
    assert "optimizer" in capsys.readouterr().err


def test_retired_substeps_key_is_unknown(tmp_path, capsys, corpus):
    # the UDF solver is exact, so the old step-count knob no longer exists
    path = write_config(tmp_path / "run.yaml", corpus, tmp_path / "out",
                        substeps_per_interval=60)
    assert main(["pipeline", "--config", path]) == EXIT_USAGE
    assert "substeps_per_interval" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["jobs", "eval_is_samples"])
def test_retired_knob_keys_are_unknown(tmp_path, capsys, corpus, key):
    # nothing read these knobs, so they were deleted
    path = write_config(tmp_path / "run.yaml", corpus, tmp_path / "out", **{key: 2})
    assert main(["pipeline", "--config", path]) == EXIT_USAGE
    assert key in capsys.readouterr().err


def test_jobs_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--config", "x.yaml", "--jobs", "2"])
    assert exc.value.code == EXIT_USAGE


def test_bad_interval_in_config(tmp_path, capsys, corpus):
    path = write_config(tmp_path / "run.yaml", corpus, tmp_path / "out",
                        interval_minutes=45)
    assert main(["ingest", "--config", path]) == EXIT_USAGE


# -- data problems -----------------------------------------------------------------


def test_missing_trips_file_names_path(tmp_path, capsys, corpus):
    paths = dict(corpus, trips=str(tmp_path / "gone.csv"))
    path = write_config(tmp_path / "run.yaml", paths, tmp_path / "out")
    assert main(["ingest", "--config", path]) == EXIT_DATA
    assert "gone.csv" in capsys.readouterr().err


def test_offset_aware_trip_timestamp_exits_data(tmp_path, corpus):
    trips = tmp_path / "aware_trips.csv"
    trips.write_text("starttime,stoptime,start station id,end station id\n"
                     "2018-03-01 08:00:00,2018-03-01 08:10:00,7,8\n"
                     "2018-03-01 09:00:00+00:00,2018-03-01 09:10:00+00:00,7,8\n")
    path = write_config(tmp_path / "run.yaml", dict(corpus, trips=str(trips)),
                        tmp_path / "out")
    proc = run_console_script(["ingest", "--config", path], cwd=tmp_path)
    assert proc.returncode == EXIT_DATA, proc.stderr
    assert "line 3" in proc.stderr and "UTC offset" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_train_before_ingest_names_artifact(tmp_path, capsys, corpus):
    path = write_config(tmp_path / "run.yaml", corpus, tmp_path / "out")
    assert main(["train", "--config", path]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "stations_selected" in err and "ingest" in err


def test_evaluate_before_optimize_names_stage(tmp_path, capsys, corpus):
    path = write_config(tmp_path / "run.yaml", corpus, tmp_path / "out", stations=["7"])
    for command in ("ingest", "train", "forecast"):
        assert main([command, "--config", path]) == EXIT_OK
    assert main(["evaluate", "--config", path]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "decisions" in err and "optimize" in err


# -- numeric problems --------------------------------------------------------------


def test_degenerate_covariates_exit_numeric(tmp_path, capsys, corpus):
    # constant weather makes the regression design rank-deficient
    flat_weather = tmp_path / "flat_weather.csv"
    with open(flat_weather, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", "temperature_c", "rain_probability"])
        ts = datetime(2018, 1, 1)
        while ts < datetime(2019, 1, 1):
            writer.writerow([ts.isoformat(sep=" "), "10.00", "0.000"])
            ts += timedelta(hours=1)
    paths = dict(corpus, weather=str(flat_weather))
    path = write_config(tmp_path / "run.yaml", paths, tmp_path / "out", models=["lr"])
    assert main(["ingest", "--config", path]) == EXIT_OK
    assert main(["train", "--config", path]) == EXIT_NUMERIC


# -- smoke runs --------------------------------------------------------------------


def test_ingest_writes_demand_files(tmp_path, capsys, corpus):
    out = tmp_path / "out"
    path = write_config(tmp_path / "run.yaml", corpus, out)
    assert main(["ingest", "--config", path]) == EXIT_OK
    assert "ingest: ok" in capsys.readouterr().out
    assert (out / "demand" / "station_7.csv").exists()
    assert (out / "demand" / "stations_selected.csv").exists()


def test_seed_override_restamps_artifacts(tmp_path, corpus):
    out = tmp_path / "out"
    path = write_config(tmp_path / "run.yaml", corpus, out)
    assert main(["ingest", "--config", path, "--seed", "9"]) == EXIT_OK
    with open(out / "demand" / "stations_selected.csv") as fh:
        first = fh.readline()
    assert first.startswith("# config: ") and first.endswith("seed: 9\n")


def test_bias_study_writes_curves(tmp_path, capsys, corpus):
    out = tmp_path / "out"
    path = write_config(tmp_path / "run.yaml", corpus, out)
    assert main(["bias-study", "--config", path]) == EXIT_OK
    assert (out / "reports" / "bias_curves.csv").exists()


def test_pipeline_chains_all_stages(tmp_path, capsys, corpus):
    out = tmp_path / "out"
    path = write_config(tmp_path / "run.yaml", corpus, out)
    assert main(["pipeline", "--config", path]) == EXIT_OK
    assert "pipeline: ok" in capsys.readouterr().out
    for artifact in ("demand/station_7.csv", "models/7_ha.json",
                     "forecasts/7_ha.csv", "decisions/7.csv",
                     "reports/metrics.csv", "reports/summary.csv",
                     "reports/bias_curves.csv"):
        assert (out / artifact).exists(), artifact


def run_console_script(args, cwd):
    """Run the ``bikecast`` script that pyproject.toml declares, in a fresh process.

    The command is the one an installer's wrapper runs: import the declared
    callable and pass its return value to ``sys.exit``. It runs against this
    checkout's ``src``, so no install and no ``bikecast`` on ``PATH`` is needed.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["bikecast"]
    module, func = target.split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", wrapper, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_installed_entry_point_runs(tmp_path, corpus):
    out = tmp_path / "out"
    path = write_config(tmp_path / "run.yaml", corpus, out)
    proc = run_console_script(["ingest", "--config", path], cwd=tmp_path)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "ingest: ok" in proc.stdout

    missing = str(tmp_path / "absent.yaml")
    proc = run_console_script(["ingest", "--config", missing], cwd=tmp_path)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert missing in proc.stderr
