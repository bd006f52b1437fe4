"""Command-line interface: exit codes, overrides, stage smoke runs."""

import ast
import csv
import dataclasses
import importlib.util
import json
import math
import os
import shutil
import struct
import subprocess
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
import yaml

from bikecast import neural, synthetic
from bikecast.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from bikecast.config import RunConfig

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


class Spelled(str):
    """A YAML integer written just as spelled, such as ``010`` or ``0x10``."""

    def __repr__(self):
        return str(self)


class _Dumper(yaml.SafeDumper):
    pass


_Dumper.add_representer(
    Spelled, lambda dumper, text: dumper.represent_scalar("tag:yaml.org,2002:int", text))


def write_config(path, paths, out, **extra):
    payload = {
        "trips_path": paths["trips"],
        "weather_path": paths["weather"],
        "stations_path": paths["stations"],
        "out_dir": str(out),
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
        yaml.dump(payload, fh, Dumper=_Dumper)
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


@pytest.mark.parametrize("damage", ["directory", "yaml", "encoding", "date", "type",
                                    "removed-key"])
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
    elif damage == "removed-key":
        # a key the config no longer has: the latent-rate forecasts need no sample count
        write_config(path, corpus, tmp_path / "out", forecast_samples=100)
    else:
        write_config(path, corpus, tmp_path / "out", seed=[1])
    proc = run_console_script(["ingest", "--config", str(path)], cwd=tmp_path)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith(f"bikecast: config file {path} ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


OUT_OF_RANGE = [
    ("hidden_width", 0, "hidden_width must be at least 1, got 0"),
    ("batch_days", 0, "batch_days must be at least 1, got 0"),
    ("max_epochs", 0, "max_epochs must be at least 1, got 0"),
    ("patience", -1, "patience must be at least 0, got -1"),
    ("top_n", 0, "top_n must be at least 1, got 0"),
    ("ma_window_days", 0, "ma_window_days must be at least 1, got 0"),
    ("bias_capacity", 0, "bias_capacity must be at least 1, got 0"),
    ("learning_rate", 0.0, "learning_rate must be finite and positive, got 0.0"),
    ("learning_rate", float("nan"), "learning_rate must be finite and positive, got nan"),
    ("bias_delta_max", float("inf"), "bias_delta_max must be finite, got inf"),
    ("bias_delta_max", float("nan"), "bias_delta_max must be finite, got nan"),
    ("bias_delta_step", float("nan"), "bias_delta_step must be finite, got nan"),
    ("lost_pickup_penalty", float("nan"), "lost_pickup_penalty must be finite, got nan"),
    ("lost_return_penalty", float("inf"), "lost_return_penalty must be finite, got inf"),
    ("interval_minutes", 60.0, "interval_minutes must be an integer, got 60.0"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("lost_pickup_penalty", 10 ** 400, "int too large to convert to float"),
    ("end_date", "2017-12-31", "end_date precedes start_date"),
    ("models", ["ha", "lr", "ha"], "models listed more than once: ['ha']"),
    ("stations", ["7", "7"], "stations listed more than once: ['7']"),
    ("bias_seed", -1, "bias_seed must be at least 0, got -1"),
    # a wrong type is refused by name before any range check runs
    ("seed", "7", "seed must be an integer, got '7'"),
    ("bias_seed", "abc", "bias_seed must be an integer, got 'abc'"),
    ("bias_capacity", "40", "bias_capacity must be an integer, got '40'"),
    ("max_epochs", "4", "max_epochs must be an integer, got '4'"),
    ("top_n", [3], "top_n must be an integer, got [3]"),
    ("learning_rate", "0.01", "learning_rate must be a number, got '0.01'"),
    ("lost_pickup_penalty", "1", "lost_pickup_penalty must be a number, got '1'"),
    ("interval_minutes", "60", "interval_minutes must be an integer, got '60'"),
    ("stations", "102", "stations must be a list of strings, got '102'"),
    ("stations", 102, "stations must be a list of strings, got 102"),
    ("models", "ha", "models must be a list of strings, got 'ha'"),
    ("out_dir", 5, "out_dir must be a string, got 5"),
    ("start_date", 20180101, "start_date must be a date, got 20180101"),
    # YAML 1.1 would read these as 8, 16, 102 and 90
    ("stations", [Spelled("010")],
     "integer 010 is not written in decimal; quote it to keep a string"),
    ("stations", [Spelled("0x10")],
     "integer 0x10 is not written in decimal; quote it to keep a string"),
    ("stations", [Spelled("1_02")],
     "integer 1_02 is not written in decimal; quote it to keep a string"),
    ("max_epochs", Spelled("1:30"),
     "integer 1:30 is not written in decimal; quote it to keep a string"),
]


@pytest.mark.parametrize("key, value, message", OUT_OF_RANGE,
                         ids=[f"{key}={value}"[:40] for key, value, _ in OUT_OF_RANGE])
def test_a_config_value_out_of_range_exits_usage_naming_its_path(tmp_path, corpus, key, value,
                                                                  message):
    path = write_config(tmp_path / "run.yaml", corpus, tmp_path / "out", **{key: value})
    proc = run_console_script(["ingest", "--config", path], cwd=tmp_path)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr == f"bikecast: config file {path} holds a bad value: {message}\n"
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


@pytest.mark.parametrize("key, field, reason", [
    ("trips", 0, "unparseable timestamp 'garbled'"),
    ("weather", 1, "unparseable temperature_c 'garbled'"),
    ("stations", 1, "unparseable capacity 'garbled'"),
])
def test_a_bad_input_row_exits_data_naming_its_file_and_line(tmp_path, capsys, corpus, key,
                                                             field, reason):
    lines = Path(corpus[key]).read_text().splitlines()
    row = lines[2].split(",")
    row[field] = "garbled"
    lines[2] = ",".join(row)
    damaged = tmp_path / f"{key}.csv"
    damaged.write_text("\n".join(lines) + "\n")
    path = write_config(tmp_path / "run.yaml", {**corpus, key: str(damaged)}, tmp_path / "out")
    assert main(["ingest", "--config", path]) == EXIT_DATA
    assert capsys.readouterr().err == f"bikecast: stage ingest: {damaged}: line 3: {reason}\n"


@pytest.mark.parametrize("sid", ["1,02", "a/b", "a\\b", 'a"b', "a\tb", "a\x85", ".", "..",
                                 "../../esc", "#12"])
def test_ingest_refuses_a_station_id_that_cannot_name_a_file(tmp_path, capsys, corpus, sid):
    # an id names files under out_dir and leads CSV rows; "#12" is selected
    # through top_n, as the busiest station of its trip file
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    paths, selection = corpus, {"stations": [sid]}
    if sid == "#12":
        paths = {"trips": inputs / "trips.csv", "weather": corpus["weather"],
                 "stations": inputs / "stations.csv"}
        paths["trips"].write_text("starttime,stoptime,start station id,end station id\n" + "".join(
            f"2018-03-01 0{h}:00:00,2018-03-01 0{h}:10:00,{a},9\n"
            for h, a in enumerate(["#12", "#12", "9"])))
        paths["stations"].write_text("station_id,capacity\n#12,30\n9,20\n")
        paths = {key: str(value) for key, value in paths.items()}
        selection = {"stations": [], "top_n": 2}
    out = tmp_path / "runs" / "out"
    path = write_config(inputs / "run.yaml", paths, out, **selection)
    before = sorted(tmp_path.rglob("*"))
    assert main(["ingest", "--config", path]) == EXIT_DATA
    assert capsys.readouterr().err == (f"bikecast: stage ingest: station ids that cannot name a "
                                       f"file or lead a CSV row: {[sid]}\n")
    assert sorted(tmp_path.rglob("*")) == before


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


@pytest.mark.parametrize("damage", ["short-row", "garbled-count", "negative-count"])
def test_damaged_demand_file_exits_data_with_its_line(tmp_path, capsys, corpus, damage):
    out = tmp_path / "out"
    path = write_config(tmp_path / "run.yaml", corpus, out, stations=["7"])
    assert main(["ingest", "--config", path]) == EXIT_OK
    demand = out / "demand" / "station_7.csv"
    lines = demand.read_text().splitlines()
    line = 10
    stamp, pickups, _ = lines[line - 1].split(",")
    if damage == "short-row":
        lines[line - 1], reason = f"{stamp},{pickups}", "unparseable returns ''"
    elif damage == "garbled-count":
        lines[line - 1], reason = f"{stamp},{pickups},x", "unparseable returns 'x'"
    else:
        lines[line - 1], reason = f"{stamp},-1,0", "pickups must be non-negative, got -1"
    demand.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--config", path]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{demand}: line {line}: {reason}" in err
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
                                    "read-at-15-minutes", "garbled", "negative-rate",
                                    "nan-rate"])
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
        reason = "unparseable pickup_rate 'abc'"
    elif damage == "negative-rate":
        lines[at] = "2018-11-07,5,-1,1"
        line, reason = at + 1, "pickup_rate -1 outside [0, inf)"
    elif damage == "nan-rate":
        lines[at] = "2018-11-07,5,1,nan"
        line, reason = at + 1, "return_rate nan outside [0, inf)"
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
    ("decisions", "s-star-above-capacity"), ("stations", "bad-capacity"),
    ("stations", "repeated"), ("stations", "zero-capacity"),
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
            reason = "unparseable s_star ''"
        elif damage == "bad-s-star":
            lines[at] = f"2018-11-08,ha,x,{cost}"
            reason = "unparseable s_star 'x'"
        elif damage == "s-star-above-capacity":
            lines[at] = f"2018-11-08,ha,99,{cost}"
            reason = "s_star 99 outside [0, 20]"
        else:
            lines.insert(at + 1, f"{day},{name},{int(s_star) + 9},{cost}")
            at += 1
            reason = "a second decision for ha on 2018-11-08"
    else:
        command = "optimize"
        if damage == "bad-capacity":
            at = lines.index("7,20")
            lines[at] = "7,abc"
            reason = "unparseable capacity 'abc'"
        elif damage == "zero-capacity":
            at = lines.index("7,20")
            lines[at] = "7,0"
            reason = "capacity must be positive, got 0"
        else:
            lines.append("7,20")
            at = len(lines) - 1
            reason = "station 7 is listed twice"
    target.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([command, "--config", path, "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"bikecast: stage {command}: {target}: line {at + 1}: {reason}\n"


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, corpus):
    """The config of a run of station 7 with two classical models and three
    neural ones, taken through train, and its output."""
    root = tmp_path_factory.mktemp("trained")
    path = write_config(root / "run.yaml", corpus, root / "out", stations=["7"],
                        models=["ha", "lr", "prnn", "vprnn", "movprnn"], hidden_width=4,
                        max_epochs=1)
    for command in ("ingest", "train"):
        assert main([command, "--config", path]) == EXIT_OK
    return path, root / "out"


def test_a_forecast_rerun_with_another_seed_writes_the_same_latent_forecasts(tmp_path,
                                                                             trained_run):
    # the latent-rate forecasts are expectations, not draws, so the run seed
    # reaches them only through training
    path, run = trained_run
    out = tmp_path / "out"
    shutil.copytree(run, out)
    written = {}
    for seed in ("5", "6"):
        assert main(["forecast", "--config", path, "--out", str(out), "--seed", seed]) == EXIT_OK
        written[seed] = [(out / "forecasts" / f"7_{name}.csv").read_text().split("\n", 1)
                         for name in ("vprnn", "movprnn")]
    for (header_5, body_5), (header_6, body_6) in zip(written["5"], written["6"]):
        assert header_5.endswith("seed: 5") and header_6.endswith("seed: 6")
        # the first differing row, not a diff of two long files
        assert next(((row_5, row_6) for row_5, row_6 in
                     zip(body_5.splitlines(), body_6.splitlines()) if row_5 != row_6), None) is None
        assert len(body_5) == len(body_6)


def _checkpoint_without_kind(blob: bytes) -> bytes:
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + length])
    del header["kind"]
    text = json.dumps(header).encode()
    return blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + length:]


def _with_tensors(blob: bytes, edit) -> bytes:
    """The checkpoint ``blob`` with its tensors, name to array, passed through ``edit``."""
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16:16 + length])
    tensors, at = {}, 16 + length
    for entry in header["params"]:
        size = 8 * math.prod(entry["shape"])
        tensors[entry["name"]] = np.frombuffer(blob[at:at + size]).reshape(entry["shape"])
        at += size
    tensors = edit(tensors)
    header["params"] = [{"name": k, "shape": list(v.shape)} for k, v in tensors.items()]
    text = json.dumps(header).encode()
    return (blob[:8] + struct.pack("<Q", len(text)) + text
            + b"".join(v.tobytes() for v in tensors.values()))


def _per_gate(tensors: dict) -> dict:
    """The older layout, one tensor per cell gate: prior_rnn/Wxz, prior_rnn/Wxr, ..."""
    split = {}
    for name, value in tensors.items():
        prefix, key = name.split("/")
        gates = {"prior_rnn": "zrc", "inf_rnn": "ifog"}.get(prefix, "")
        if gates and key in ("Wx", "Wh", "b"):
            split.update(zip((name + g for g in gates), np.split(value, len(gates), axis=-1)))
        else:
            split[name] = value
    return split


@pytest.mark.parametrize("name, damage", [
    ("7_prnn_pickups.ckpt", lambda models: models["7_prnn_pickups.ckpt"][:12]),
    ("7_prnn_pickups.ckpt", lambda models: _checkpoint_without_kind(
        models["7_prnn_pickups.ckpt"])),
    ("7_prnn_pickups.ckpt", lambda models: models["7_movprnn.ckpt"]),
    ("7_prnn_pickups.ckpt", lambda models: _with_tensors(
        models["7_prnn_pickups.ckpt"],
        lambda t: {k: v for k, v in t.items() if k != "prior_head/b2"})),
    ("7_prnn_pickups.ckpt", lambda models: _with_tensors(
        models["7_prnn_pickups.ckpt"], lambda t: t | {"prior_rnn/Wx": t["prior_rnn/Wx"][:, :-1]})),
    ("7_movprnn.ckpt", lambda models: _with_tensors(models["7_movprnn.ckpt"], _per_gate)),
    ("7_ha.json", lambda models: models["7_lr.json"]),
    ("7_ha.json", lambda models: b'{"kind": "ha"}\n'),
    ("7_ha.json", lambda models: models["7_ha.json"][:len(models["7_ha.json"]) // 2]),
    ("7_ha.json", lambda models: models["7_ha.json"].split(b"\n", 1)[1]),
], ids=["checkpoint-cut-in-its-length", "checkpoint-without-kind", "checkpoint-of-another-net",
        "checkpoint-without-a-tensor", "checkpoint-with-a-misshaped-tensor",
        "checkpoint-in-per-gate-layout", "lr-model-as-ha", "unknown-kind", "truncated-json",
        "json-without-its-config-line"])
def test_damaged_model_files_exit_data_naming_the_file(tmp_path, capsys, trained_run, name,
                                                       damage):
    path, run = trained_run
    out = tmp_path / "out"
    shutil.copytree(run, out)
    models = {p.name: p.read_bytes() for p in (out / "models").iterdir()}
    target = out / "models" / name
    target.write_bytes(damage(models))
    capsys.readouterr()
    assert main(["forecast", "--config", path, "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("bikecast: stage forecast: ") and err.count("\n") == 1, err
    assert str(target) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("model, name, after_path", [
    ("ha", "7_ha.json", ": a SeasonalProfile fitted at 60 minutes, not a SeasonalProfile at 15"),
    ("lr", "7_lr.json", ": a LinearModel fitted at 60 minutes, not a LinearModel at 15"),
    ("prnn", "7_prnn_pickups.ckpt",
     " holds a prnn net of pickups fitted at 60 minutes, not a prnn net of pickups at 15"),
])
def test_a_model_fitted_at_another_interval_exits_data_naming_the_file(tmp_path, capsys, corpus,
                                                                       trained_run, model, name,
                                                                       after_path):
    # trained hourly, then ingested and forecast at 15 minutes
    _, run = trained_run
    out = tmp_path / "out"
    shutil.copytree(run, out)
    path = write_config(tmp_path / "run.yaml", corpus, out, stations=["7"], models=[model],
                        hidden_width=4, max_epochs=1, interval_minutes=15)
    assert main(["ingest", "--config", path]) == EXIT_OK
    capsys.readouterr()
    assert main(["forecast", "--config", path]) == EXIT_DATA
    assert capsys.readouterr().err == (f"bikecast: stage forecast: {out / 'models' / name}"
                                       f"{after_path}; run the train stage again\n")
    assert not (out / "forecasts").exists()


def test_the_bench_tracer_records_every_model_layer(tmp_path, corpus):
    """Train and forecast run under ``bench/tracer.py``, which wraps functions
    by replacing module attributes: every fit, net and checkpoint function
    that the stages reach must record a span."""
    path = write_config(tmp_path / "run.yaml", corpus, tmp_path / "out", stations=["7"],
                        models=["ha", "ma", "lr", "movprnn"], hidden_width=4, max_epochs=1)
    assert main(["ingest", "--config", path]) == EXIT_OK
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    names = set()
    for command in ("train", "forecast"):
        spans = tmp_path / f"{command}.json"
        proc = subprocess.run([sys.executable, str(REPO_ROOT / "bench" / "tracer.py"),
                               str(spans), command, "--config", path],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        names |= {span["name"] for span in json.loads(spans.read_text())}
    assert names >= {"classical.fit_ha", "classical.fit_lr", "classical.fit_ma",
                     "experiments.load_models", "neural.train", "neural.save_checkpoint",
                     "neural.load_checkpoint", "neural.predict_rates", "autodiff.grad"}


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
    # train imports its process pool only when it has more than one core, and
    # forecast builds the latent models' Gauss–Hermite rule on first use
    probe = ("import sys, bikecast.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
             "or m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent.futures') "
             "or m.startswith('numpy.polynomial')))")
    proc = run_python(probe, [], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_function_the_bench_tracer_wraps_exists(tmp_path):
    # bench/tracer.py wraps functions by name after importing bikecast.cli, so
    # a refactor that renames or inlines a traced layer must fail here, and not
    # only in a traced bench run; the bench files are read, never changed
    probe = ("import importlib.util, sys, bikecast.cli; "
             "spec = importlib.util.spec_from_file_location('tracer', sys.argv[1]); "
             "tracer = importlib.util.module_from_spec(spec); spec.loader.exec_module(tracer); "
             "print([f'{short}.{name}' for short, names in tracer.TRACED.items() "
             "for name in names if not callable(getattr(sys.modules.get('bikecast.' + short), "
             "name, None))])")
    proc = run_python(probe, [str(REPO_ROOT / "bench" / "tracer.py")], cwd=tmp_path,
                      env={"PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_the_bench_tracer_sees_every_span_a_pipeline_workload_expects(tmp_path, corpus,
                                                                     monkeypatch):
    # a stage that calls a traced function through a name the tracer does not
    # replace would drop its span; one core keeps every call in this process,
    # as a forked lane's spans never reach the tracer's list
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # the bench files are only read
    spec = importlib.util.spec_from_file_location("workloads",
                                                  REPO_ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS["decide-hourly"]
    path = write_config(tmp_path / "run.yaml", corpus, tmp_path / "out",
                        **dict(workload.config, stations=["7"]))
    probe = ("import importlib.util, sys; "
             "spec = importlib.util.spec_from_file_location('tracer', sys.argv[1]); "
             "tracer = importlib.util.module_from_spec(spec); spec.loader.exec_module(tracer); "
             "sys.exit(tracer.main(sys.argv[2:]))")
    one_cpu = min(os.sched_getaffinity(0))
    spans = tmp_path / "spans.json"
    proc = run_python(probe, [str(REPO_ROOT / "bench" / "tracer.py"), str(spans),
                              *workload.commands, "--config", path],
                      cwd=tmp_path, env={"PYTHONDONTWRITEBYTECODE": "1"},
                      preexec_fn=lambda: os.sched_setaffinity(0, {one_cpu}))
    assert proc.returncode == EXIT_OK, proc.stderr
    recorded = {span["name"] for span in json.loads(spans.read_text())}
    assert sorted(set(workload.expected_spans) - recorded) == []


def bench_names() -> set[str]:
    """Every dotted ``bikecast`` name that a file of ``bench/`` reads: each name
    it imports from a bikecast module, and each attribute chain it reads from
    a name that an import bound to one."""
    names = set()
    for path in sorted((REPO_ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top == "bikecast":  # import bikecast.cli binds bikecast
                        bound[alias.asname or top] = alias.name if alias.asname else top
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bikecast"):
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                    names.add(f"{node.module}.{alias.name}")
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.insert(0, node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id in bound:
                names.add(".".join([bound[node.id], *chain]))
    return names


def test_every_bikecast_name_the_bench_reads_exists(tmp_path):
    # a refactor that drops a name the bench reads would otherwise show only
    # as a failed bench run; each dotted name is followed through modules, and
    # counts as found once it reaches an object that is not a module
    names = bench_names()
    assert {"bikecast.experiments.apply_bias", "bikecast.experiments.BiasSpec",
            "bikecast.neural.load_checkpoint", "bikecast.synthetic.peaked_day",
            "bikecast.synthetic.write_corpus", "bikecast.queueing.generator_matrix",
            "bikecast.queueing.matrix_exponential_oracle", "bikecast.inventory.udf_curve",
            "bikecast.synthetic.peaked_day_rates", "bikecast.cli._COMMANDS"} <= names
    probe = """if True:
        import importlib, sys, types
        missing = []
        for name in sys.argv[1:]:
            parts = name.split(".")
            found = importlib.import_module(parts[0])
            for i, part in enumerate(parts[1:], 2):
                if not isinstance(found, types.ModuleType):
                    break
                if not hasattr(found, part):
                    try:
                        importlib.import_module(".".join(parts[:i]))
                    except ImportError:
                        missing.append(name)
                        break
                found = getattr(found, part)
        print(missing)
    """
    proc = run_python(probe, sorted(names), cwd=tmp_path, env={"PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_a_name_it_never_reads():
    # a top-level import that the module never loads is left over from code
    # that moved or went
    unused = []
    for path in sorted((REPO_ROOT / "src" / "bikecast").glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                unused += [f"{path.name}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in used]
    assert unused == []


def test_every_module_level_name_has_a_reader_in_the_package_or_the_bench():
    # the package holds what the CLI runs and what bench/ reads; a top-level
    # def, class or assignment that neither reads is left over from code that
    # went, or serves only the tests, which keep such code in tests/. A
    # reader is a loaded name, an attribute, an import alias, or a string in
    # bench/, such as the names in bench/tracer.py's TRACED
    package = sorted((REPO_ROOT / "src" / "bikecast").glob("*.py"))
    read, defined = set(), []
    for path in package + sorted((REPO_ROOT / "bench").glob("*.py")):
        tree, in_package = ast.parse(path.read_text()), path in package
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and not in_package:
                read.add(node.value)
        for node in tree.body if in_package else ():
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                defined += [(path.stem, name.id) for name in ast.walk(node)
                            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
    assert [f"{module}.{name}" for module, name in defined if name not in read] == []


def test_every_config_field_is_read_outside_the_config_module():
    # no config knob that nothing reads: a field is read where a module names
    # it as config.<field>, or as a field of neural.TrainConfig, which
    # stage_train fills by name
    read = {field.name for field in dataclasses.fields(neural.TrainConfig)}
    for path in sorted((REPO_ROOT / "src" / "bikecast").glob("*.py")):
        if path.name != "config.py":
            read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id == "config"}
    assert sorted({field.name for field in dataclasses.fields(RunConfig)} - read) == []


def test_no_module_reads_csv_rows_but_the_one_reader():
    # every CSV row goes through ingest._column_chunks, so one rule set holds
    # for blank lines, short rows and headers; the only other csv.reader
    # splits the trip header in experiments._read_trips as that reader would
    allowed = {("ingest.py", "_column_chunks"), ("experiments.py", "_read_trips")}
    splitters = {"split", "rsplit", "partition", "rpartition"}
    found = []
    for path in sorted((REPO_ROOT / "src" / "bikecast").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom) and node.module == "csv":
                    found.append(f"{path.name}: from csv import")
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    if (node.value.id, node.attr) in {("csv", "reader"), ("csv", "DictReader")} \
                            and where not in allowed:
                        found.append(f"{path.name}: csv.{node.attr} in {where[1]}")
                    if node.value.id == "str" and node.attr in splitters:
                        found.append(f"{path.name}: str.{node.attr} in {where[1]}")
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in splitters
                        and any(isinstance(arg, ast.Constant) and arg.value == ","
                                for arg in node.args)):
                    found.append(f"{path.name}: .{node.func.attr}(',') in {where[1]}")
    assert found == []


def test_no_module_but_artifacts_knows_the_config_line():
    # artifacts.write puts the config line first and artifacts.read takes
    # off that line alone; a second stripper of lines that begin with "#"
    # would drop data rows, as it dropped a station "#12"
    found = []
    for path in sorted((REPO_ROOT / "src" / "bikecast").glob("*.py")):
        if path.name == "artifacts.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and "# config" in str(node.value):
                found.append(f"{path.name}:{node.lineno}: '# config'")
            if isinstance(node, ast.Call) and any(
                    isinstance(part, ast.Attribute) and part.attr == "startswith"
                    for part in (node.func, *node.args)) and any(
                    isinstance(part, ast.Constant) and part.value == "#"
                    for arg in node.args for part in ast.walk(arg)):
                found.append(f"{path.name}:{node.lineno}: startswith('#')")
    assert found == []


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
