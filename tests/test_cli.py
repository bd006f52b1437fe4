"""Command-line interface: exit codes, overrides, stage smoke runs."""

import csv
import os
import shutil
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


@pytest.mark.parametrize("damage", ["directory", "yaml", "encoding", "date", "type"])
def test_a_malformed_config_exits_usage_naming_its_path(tmp_path, corpus, damage):
    path = tmp_path / "run.yaml"
    if damage == "directory":
        path.mkdir()
    elif damage == "yaml":
        path.write_text("seed: [1\n")
    elif damage == "encoding":
        path.write_bytes(b"seed: \xff\xfe\n")
    elif damage == "date":
        write_config(path, corpus, tmp_path / "out", start_date="2018-13-01")
    else:
        write_config(path, corpus, tmp_path / "out", seed=[1])
    proc = run_console_script(["ingest", "--config", str(path)], cwd=tmp_path)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith(f"bikecast: config file {path} ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("start, end, message", [
    ("2018-01-01", "2018-11-30",
     "split requires exactly 12 calendar months (365 days), got 334 days"),
    ("2018-01-02", "2018-12-31", "split requires the series to start on the first of a month"),
])
def test_ingest_refuses_a_range_that_split_refuses(tmp_path, capsys, corpus, start, end,
                                                    message):
    out = tmp_path / "out"
    path = write_config(tmp_path / "run.yaml", corpus, out, start_date=start, end_date=end)
    assert main(["ingest", "--config", path]) == EXIT_USAGE
    assert capsys.readouterr().err == f"bikecast: stage ingest: {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("damage", ["short-row", "trailing-blank-line"])
def test_damaged_demand_file_exits_data_with_its_line(tmp_path, capsys, corpus, damage):
    out = tmp_path / "out"
    path = write_config(tmp_path / "run.yaml", corpus, out, stations=["7"])
    assert main(["ingest", "--config", path]) == EXIT_OK
    demand = out / "demand" / "station_7.csv"
    lines = demand.read_text().splitlines()
    if damage == "short-row":
        line = 10
        lines[line - 1] = ",".join(lines[line - 1].split(",")[:2])
    else:
        lines.append("")
        line = len(lines)
    demand.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--config", path]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"line {line}:" in err
    assert f"{demand}: line {line}:" in err
    assert "Traceback" not in err


def test_demand_rows_out_of_order_exit_data_with_their_line(tmp_path, capsys, corpus):
    out = tmp_path / "out"
    path = write_config(tmp_path / "run.yaml", corpus, out, stations=["7"])
    assert main(["ingest", "--config", path]) == EXIT_OK
    demand = out / "demand" / "station_7.csv"
    lines = demand.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("2018-01-01 08:00:00,"))
    assert lines[at + 1].startswith("2018-01-01 09:00:00,")
    lines[at], lines[at + 1] = lines[at + 1], lines[at]
    demand.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--config", path]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{demand}: line {at + 1}: interval_start 2018-01-01 09:00:00 out of sequence" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("damage", ["missing", "repeated", "reordered", "short-last-day",
                                    "read-at-15-minutes", "garbled"])
def test_forecast_slots_out_of_order_exit_data_with_their_line(tmp_path, capsys, corpus,
                                                                damage):
    out = tmp_path / "out"
    path = write_config(tmp_path / "run.yaml", corpus, out, stations=["7"])
    for command in ("ingest", "train", "forecast"):
        assert main([command, "--config", path]) == EXIT_OK
    forecast = out / "forecasts" / "7_ha.csv"
    lines = forecast.read_text().splitlines()
    assert lines[1:3] == ["date,slot,pickup_rate,return_rate", lines[2]]
    at = next(i for i, ln in enumerate(lines) if ln.startswith("2018-11-07,5,"))
    args = []
    if damage == "missing":
        del lines[at]  # slot 6 comes where slot 5 was
        line, reason = at + 1, "slot 6 of 2018-11-07 out of order: expected slot 5 of 0 to 23"
    elif damage == "repeated":
        lines.insert(at, lines[at])
        line, reason = at + 2, "slot 5 of 2018-11-07 out of order: expected slot 6 of 0 to 23"
    elif damage == "reordered":
        lines[at], lines[at + 1] = lines[at + 1], lines[at]
        line, reason = at + 1, "slot 6 of 2018-11-07 out of order: expected slot 5 of 0 to 23"
    elif damage == "garbled":
        lines[at] = "2018-11-07,5,abc,1"
        line = at + 1
        reason = "expected date,slot,pickup_rate,return_rate, got '2018-11-07,5,abc,1'"
    elif damage == "short-last-day":
        lines.pop()
        line, reason = len(lines), "2018-12-31 ends at slot 22 of 0 to 23"
    else:
        args = ["--interval", "15"]  # each day ends at slot 23 of 95
        line, reason = 26, "2018-11-01 ends at slot 23 of 0 to 95 (15 minutes)"
    forecast.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["optimize", "--config", path, *args]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"bikecast: stage optimize: {forecast}: line {line}: {reason}")
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def optimized_run(tmp_path_factory, corpus):
    """The config of a run of station 7 taken through optimize, and its output."""
    root = tmp_path_factory.mktemp("optimized")
    path = write_config(root / "run.yaml", corpus, root / "out", stations=["7"])
    for command in ("ingest", "train", "forecast", "optimize"):
        assert main([command, "--config", path]) == EXIT_OK
    return path, root / "out"


@pytest.mark.parametrize("file, damage", [
    ("decisions", "short-row"), ("decisions", "bad-s-star"), ("decisions", "repeated"),
    ("stations", "bad-capacity"), ("stations", "repeated"),
])
def test_damaged_decision_and_station_rows_exit_data_with_their_line(
        tmp_path, capsys, optimized_run, file, damage):
    path, run = optimized_run
    out = tmp_path / "out"
    shutil.copytree(run, out)
    target = out / ("decisions/7.csv" if file == "decisions" else "demand/stations_selected.csv")
    lines = target.read_text().splitlines()
    if file == "decisions":
        command = "evaluate"
        at = next(i for i, ln in enumerate(lines) if ln.startswith("2018-11-08,ha,"))
        day, name, s_star, cost = lines[at].split(",")
        if damage == "short-row":
            lines[at] = "2018-11-08,ha"
            reason = "expected date,model,s_star,expected_cost, got '2018-11-08,ha'"
        elif damage == "bad-s-star":
            lines[at] = f"2018-11-08,ha,x,{cost}"
            reason = f"expected date,model,s_star,expected_cost, got '2018-11-08,ha,x,{cost}'"
        else:
            lines.insert(at + 1, f"{day},{name},{int(s_star) + 9},{cost}")
            at += 1
            reason = "a second decision for ha on 2018-11-08"
    else:
        command = "optimize"
        if damage == "bad-capacity":
            at = lines.index("7,20")
            lines[at] = "7,abc"
            reason = "expected station_id,capacity, got '7,abc'"
        else:
            lines.append("7,20")
            at = len(lines) - 1
            reason = "station 7 is listed twice"
    target.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, "--config", path, "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"bikecast: stage {command}: {target}: line {at + 1}: {reason}\n"


def _tree(root) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def test_pipeline_writes_what_the_six_commands_write(tmp_path, corpus):
    out = tmp_path / "out"
    path = write_config(tmp_path / "run.yaml", corpus, out, models=["ha", "ma", "lr"])
    for command in ("ingest", "train", "forecast", "optimize", "evaluate", "bias-study"):
        proc = run_console_script([command, "--config", path], cwd=tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
    separate = _tree(out)
    assert "reports/summary.csv" in separate and "reports/bias_curves.csv" in separate
    shutil.rmtree(out)
    assert main(["pipeline", "--config", path]) == EXIT_OK
    assert _tree(out) == separate


@pytest.mark.parametrize("body", ["", "\n\n"])
def test_weather_without_rows_exits_data(tmp_path, capsys, corpus, body):
    weather = tmp_path / "weather.csv"
    weather.write_text("timestamp,temperature_c,rain_probability\n" + body)
    path = write_config(tmp_path / "run.yaml", {**corpus, "weather": str(weather)},
                        tmp_path / "out", stations=["7"])
    assert main(["ingest", "--config", path]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "no weather observation at or before 2018-01-01 00:00:00" in err
    assert "Traceback" not in err


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
    return run_python(wrapper, args, cwd)


def run_python(code, args, cwd, env=None, preexec_fn=None):
    """Run ``python -c code`` in a fresh process, with this checkout's ``src``
    first; ``env`` adds to this process's environment."""
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          preexec_fn=preexec_fn, capture_output=True, text=True)


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


def test_cli_import_loads_no_scipy(tmp_path):
    # the runtime needs only numpy and PyYAML; scipy serves the test oracles,
    # and train imports its process pool only when it has more than one core
    probe = ("import sys, bikecast.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
             "or m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures')))")
    proc = run_python(probe, [], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and two CPUs")
def test_checkpoints_do_not_depend_on_the_host(tmp_path, corpus):
    """Two BLAS threads asked for and a lane per CPU, then one CPU and so one
    lane: every checkpoint must come out with the same bytes."""
    one_cpu = min(os.sched_getaffinity(0))
    hosts = {"wide": ({"OPENBLAS_NUM_THREADS": "2"}, None),
             "narrow": ({}, lambda: os.sched_setaffinity(0, {one_cpu}))}
    checkpoints = {}
    for host, (env, preexec_fn) in hosts.items():
        out = tmp_path / host
        path = write_config(tmp_path / f"{host}.yaml", corpus, out, stations=["7"],
                            models=["prnn", "movprnn"], hidden_width=32, max_epochs=2)
        for command in ("ingest", "train"):
            proc = run_python("import sys; from bikecast.cli import main; sys.exit(main())",
                              [command, "--config", path], cwd=tmp_path, env=env,
                              preexec_fn=preexec_fn)
            assert proc.returncode == EXIT_OK, proc.stderr
        checkpoints[host] = {p.name: p.read_bytes() for p in (out / "models").glob("*.ckpt")}
    assert sorted(checkpoints["wide"]) == ["7_movprnn.ckpt", "7_prnn_pickups.ckpt",
                                           "7_prnn_returns.ckpt"]
    assert checkpoints["wide"] == checkpoints["narrow"]
