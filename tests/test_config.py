"""Run configuration: validation, hashing, YAML loading, seed derivation."""

import re
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


def test_hash_is_stable_and_sensitive():
    a, b = make(), make()
    assert a.hash() == b.hash()
    assert re.fullmatch(r"[0-9a-f]{12}", a.hash())
    assert make(seed=6).hash() != a.hash()
    assert make(hidden_width=64).hash() != a.hash()


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
