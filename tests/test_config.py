"""Run configuration: validation, hashing, YAML loading, seed derivation."""

import re
from dataclasses import fields
from datetime import date

import pytest
import yaml

from bikecast import artifacts
from bikecast.config import RunConfig, derive_seed, load_config
from bikecast.errors import ConfigError

REQUIRED = dict(
    trips_path="t.csv", weather_path="w.csv", stations_path="s.csv",
    out_dir="out", seed=5, start_date="2018-01-01", end_date="2018-12-31",
)


def make(**overrides) -> RunConfig:
    return RunConfig(**{**REQUIRED, **overrides})


def test_dates_and_stations_are_coerced():
    config = make(stations=[101, 102])
    assert config.start_date == date(2018, 1, 1)
    assert config.end_date == date(2018, 12, 31)
    assert config.stations == ["101", "102"]


def test_validation_rejects_bad_values():
    with pytest.raises(ConfigError):
        make(interval_minutes=45)
    with pytest.raises(ConfigError):
        make(end_date="2017-12-31")
    with pytest.raises(ConfigError):
        make(models=["ha", "lstm"])
    with pytest.raises(ConfigError, match=r"models listed more than once: \['ha'\]"):
        make(models=["ha", "lr", "ha"])
    with pytest.raises(ConfigError):
        make(lost_pickup_penalty=-1.0)
    with pytest.raises(ConfigError):
        make(bias_delta_step=0.0)
    with pytest.raises(ConfigError):
        make(seed=None)
    for name in ("hidden_width", "batch_days", "max_epochs", "top_n", "ma_window_days",
                 "bias_capacity"):
        with pytest.raises(ConfigError, match=f"{name} must be at least 1, got 0"):
            make(**{name: 0})
        make(**{name: 1})
    with pytest.raises(ConfigError, match="patience must be at least 0, got -1"):
        make(patience=-1)
    make(patience=0)
    for rate in (0.0, -0.01, float("nan"), float("inf")):
        with pytest.raises(ConfigError, match="learning_rate must be finite and positive"):
            make(learning_rate=rate)
    for name, value in (("bias_delta_max", float("inf")), ("bias_delta_max", float("nan")),
                        ("bias_delta_step", float("nan")), ("lost_pickup_penalty", float("nan")),
                        ("lost_return_penalty", float("inf"))):
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got {value}$"):
            make(**{name: value})
    for name, value in (("interval_minutes", 60.0), ("seed", 1.5), ("top_n", True)):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {value}$"):
            make(**{name: value})
    for name, value in (("seed", "7"), ("bias_seed", "abc"), ("bias_capacity", "40")):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got '{value}'$"):
            make(**{name: value})
    with pytest.raises(ConfigError, match=r"^stations listed more than once: \['102'\]$"):
        make(stations=["102", 102])
    with pytest.raises(ConfigError, match="^bias_seed must be at least 0, got -1$"):
        make(bias_seed=-1)
    make(bias_seed=0, seed=-1)


def test_hash_is_stable_and_sensitive():
    a, b = make(), make()
    assert a.hash() == b.hash()
    assert re.fullmatch(r"[0-9a-f]{12}", a.hash())
    assert make(seed=6).hash() != a.hash()
    assert make(hidden_width=64).hash() != a.hash()


# the config line of every artifact: a change to how a field is checked or
# coerced must leave both literals as they are
EVERY_FIELD = dict(
    trips_path="trips.csv", weather_path="weather.csv", stations_path="stations.csv",
    out_dir="runs/a", seed=-21, start_date="2018-02-01", end_date="2019-01-31",
    interval_minutes=15, stations=["102", 7], top_n=5, models=["movprnn", "ha"],
    hidden_width=16, learning_rate=0.005, batch_days=8, max_epochs=4, patience=0,
    lost_pickup_penalty=2.5, lost_return_penalty=0, ma_window_days=14,
    bias_delta_max=10.0, bias_delta_step=2.5, bias_capacity=20, bias_seed=0,
)


@pytest.mark.parametrize("values, payload, digest", [
    (REQUIRED,
     '{"batch_days":32,"bias_capacity":40,"bias_delta_max":25.0,"bias_delta_step":0.5,'
     '"bias_seed":3,"end_date":"2018-12-31","hidden_width":128,"interval_minutes":60,'
     '"learning_rate":0.01,"lost_pickup_penalty":1.0,"lost_return_penalty":1.0,'
     '"ma_window_days":30,"max_epochs":200,'
     '"models":["ha","ma","lr","prnn","vprnn","movprnn"],"out_dir":"out","patience":10,'
     '"seed":5,"start_date":"2018-01-01","stations":[],"stations_path":"s.csv","top_n":30,'
     '"trips_path":"t.csv","weather_path":"w.csv"}',
     "a638b27a6020"),
    (EVERY_FIELD,
     '{"batch_days":8,"bias_capacity":20,"bias_delta_max":10.0,"bias_delta_step":2.5,'
     '"bias_seed":0,"end_date":"2019-01-31","hidden_width":16,"interval_minutes":15,'
     '"learning_rate":0.005,"lost_pickup_penalty":2.5,"lost_return_penalty":0,'
     '"ma_window_days":14,"max_epochs":4,"models":["movprnn","ha"],"out_dir":"runs/a",'
     '"patience":0,"seed":-21,"start_date":"2018-02-01","stations":["102","7"],'
     '"stations_path":"stations.csv","top_n":5,"trips_path":"trips.csv",'
     '"weather_path":"weather.csv"}',
     "1f2fe22d82cb"),
], ids=["required", "every-field"])
def test_config_line_is_pinned(values, payload, digest):
    config = RunConfig(**values)
    assert config.canonical_json() == payload
    assert config.hash() == digest


def test_every_field_of_the_pinned_config_differs_from_its_default():
    defaults = RunConfig(**REQUIRED)
    assert set(EVERY_FIELD) == {f.name for f in fields(RunConfig)}
    assert all(getattr(RunConfig(**EVERY_FIELD), name) != getattr(defaults, name)
               for name in EVERY_FIELD)


def test_artifact_header_format():
    config = make()
    assert artifacts.artifact_header(config) == f"# config: {config.hash()} seed: 5\n"


def test_canonical_json_is_key_sorted():
    payload = make().canonical_json()
    import json
    keys = list(json.loads(payload))
    assert keys == sorted(keys)


# -- YAML loading ----------------------------------------------------------------


def write_yaml(path, payload):
    with open(path, "w") as fh:
        yaml.safe_dump(payload, fh)


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.yaml"
    write_yaml(path, {**REQUIRED, "stations": ["101"], "hidden_width": 16})
    config = load_config(str(path))
    assert config.stations == ["101"]
    assert config.hidden_width == 16
    assert config.seed == 5


# forecast_samples is no key: the latent-rate forecasts need no sample count
@pytest.mark.parametrize("key, value", [("hidden_layers", 2), ("forecast_samples", 100)])
def test_load_config_rejects_unknown_keys(tmp_path, key, value):
    path = tmp_path / "run.yaml"
    write_yaml(path, {**REQUIRED, key: value})
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value) == f"config file {path} has unknown config keys: [{key!r}]"


def test_load_config_rejects_missing_keys(tmp_path):
    payload = dict(REQUIRED)
    del payload["seed"], payload["out_dir"]
    path = tmp_path / "run.yaml"
    write_yaml(path, payload)
    with pytest.raises(ConfigError) as err:
        load_config(str(path))
    assert str(err.value) == f"config file {path} is missing config keys: ['out_dir', 'seed']"


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError):
        load_config(str(path))


def test_overrides_replace_only_given_values(tmp_path):
    path = tmp_path / "run.yaml"
    write_yaml(path, REQUIRED)
    config = load_config(str(path), {"seed": 9, "out_dir": None})
    assert config.seed == 9
    assert config.out_dir == "out"


# -- seed derivation ---------------------------------------------------------------


def test_derive_seed_is_deterministic_and_labeled():
    a = derive_seed(5, "train:101:prnn")
    assert a == derive_seed(5, "train:101:prnn")
    assert a != derive_seed(5, "train:102:prnn")
    assert a != derive_seed(6, "train:101:prnn")
    assert 0 <= a < 2 ** 63
