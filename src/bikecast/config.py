"""Run configuration: one YAML document drives a whole reproducible run.

Every artifact a run writes is stamped with the sha256-based hash of the
canonicalized config plus the seed, and all stage-level randomness is derived
from the single seed by hashing a stage label, so nothing depends on call
order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import date

import yaml

from .errors import ConfigError
from .ingest import VALID_INTERVALS

DEFAULT_MODELS = ("ha", "ma", "lr", "prnn", "vprnn", "movprnn")


@dataclass
class RunConfig:
    trips_path: str
    weather_path: str
    stations_path: str
    out_dir: str
    seed: int
    start_date: date
    end_date: date
    interval_minutes: int = 60
    stations: list[str] = field(default_factory=list)  # empty: use top_n
    top_n: int = 30
    models: list[str] = field(default_factory=lambda: list(DEFAULT_MODELS))
    hidden_width: int = 128
    learning_rate: float = 0.01
    batch_days: int = 32
    max_epochs: int = 200
    patience: int = 10
    lost_pickup_penalty: float = 1.0
    lost_return_penalty: float = 1.0
    forecast_samples: int = 100
    ma_window_days: int = 30
    bias_delta_max: float = 25.0
    bias_delta_step: float = 0.5
    bias_capacity: int = 40
    bias_seed: int = 3

    def __post_init__(self):
        if self.interval_minutes not in VALID_INTERVALS:
            raise ConfigError(
                f"interval must be one of {VALID_INTERVALS}, got {self.interval_minutes}")
        if self.seed is None:
            raise ConfigError("seed is required")
        self.seed = int(self.seed)
        if isinstance(self.start_date, str):
            self.start_date = date.fromisoformat(self.start_date)
        if isinstance(self.end_date, str):
            self.end_date = date.fromisoformat(self.end_date)
        if self.end_date < self.start_date:
            raise ConfigError("end_date precedes start_date")
        self.stations = [str(s) for s in self.stations]
        unknown = set(self.models) - set(DEFAULT_MODELS)
        if unknown:
            raise ConfigError(f"unknown models: {sorted(unknown)}")
        if self.lost_pickup_penalty < 0 or self.lost_return_penalty < 0:
            raise ConfigError("penalties must be non-negative")
        if self.bias_delta_step <= 0 or self.bias_delta_max < 0:
            raise ConfigError("bias grid must have positive step and non-negative max")

    def canonical_json(self) -> str:
        payload = asdict(self)
        payload["start_date"] = self.start_date.isoformat()
        payload["end_date"] = self.end_date.isoformat()
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()[:12]

    def artifact_header(self) -> str:
        return f"# config: {self.hash()} seed: {self.seed}\n"


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """The config of the YAML file ``path``, with the overrides that are not
    None. A file that cannot be read or parsed, or a value of the wrong type
    or form, raises :class:`ConfigError` naming ``path``; a missing file
    raises :class:`FileNotFoundError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise
    except (OSError, ValueError, yaml.YAMLError) as e:  # ValueError: bad UTF-8, bad date
        raise ConfigError(f"config file {path} cannot be read: {_one_line(e)}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = {"trips_path", "weather_path", "stations_path", "out_dir", "seed",
               "start_date", "end_date"} - set(raw)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    try:
        return RunConfig(**raw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"config file {path} holds a bad value: {_one_line(e)}") from None


def _one_line(error: Exception) -> str:
    return " ".join(str(error).split())


def save_config(config: RunConfig, path: str) -> None:
    payload = asdict(config)
    payload["start_date"] = config.start_date.isoformat()
    payload["end_date"] = config.end_date.isoformat()
    with open(path, "w") as fh:
        yaml.safe_dump(payload, fh, sort_keys=True)


def derive_seed(seed: int, label: str) -> int:
    """Stage seed = hash of the run seed and a stable label; order-independent."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % (2 ** 63)
