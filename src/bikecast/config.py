"""Run configuration: one YAML document drives a whole reproducible run.

Every artifact a run writes is stamped, by :mod:`.artifacts`, with the
sha256-based hash of the canonicalized config plus the seed, and all
stage-level randomness is derived from the single seed by hashing a stage
label, so nothing depends on call order.

Each :class:`RunConfig` field's rule is declared once, beside the field: its
annotation is its type, and its :func:`_rule` gives its default and its
range checks (its least value, its choices, or that no entry repeats). A
field without a default is a required key. ``__post_init__`` checks every
field in three passes and refuses the first rule broken, in one line that
names the field:

1. every field's type. An ISO date string is taken as a date and a station
   id written as a number as a string; a ``float`` field takes an int and
   keeps it, so the config line stays as written; no field takes a bool;
2. every field's range checks, in the order declared;
3. the one cross-field rule: ``end_date`` is not before ``start_date``.
"""

import hashlib
import json
import math
import re
from dataclasses import MISSING, asdict, dataclass, field, fields
from datetime import date

import yaml

from .errors import ConfigError
from .ingest import VALID_INTERVALS

DEFAULT_MODELS = ("ha", "ma", "lr", "prnn", "vprnn", "movprnn")
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", date: "a date",
               list[str]: "a list of strings"}


def _rule(default, *checks):
    """A field's default and its range checks. A check takes a value of the
    field's type and returns what is wrong with it, or None."""
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata={"checks": checks})
    return field(default=default, metadata={"checks": checks})


def _at_least(floor):
    return lambda v: None if v >= floor else f"must be at least {floor}, got {v!r}"


def _one_of(choices):
    return lambda v: None if v in choices else f"must be one of {choices}, got {v!r}"


def _each(check):
    return lambda values: next(filter(None, map(check, values)), None)


def _finite(v):  # an int too large for a float raises OverflowError
    return None if math.isfinite(v) else f"must be finite, got {v!r}"


def _positive(v):
    return None if math.isfinite(v) and v > 0 else f"must be finite and positive, got {v!r}"


def _distinct(values):
    repeated = sorted({v for v in values if values.count(v) > 1})
    return f"listed more than once: {repeated}" if repeated else None


def _typed(name, kind, value):
    """``value`` as a ``kind``; raises :class:`ConfigError` naming field ``name`` if it is none."""
    if kind is date and type(value) is str:
        return date.fromisoformat(value)
    if kind == list[str] and type(value) is list and all(type(v) in (str, int) for v in value):
        return [str(v) for v in value]
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


@dataclass
class RunConfig:
    trips_path: str
    weather_path: str
    stations_path: str
    out_dir: str
    seed: int
    start_date: date
    end_date: date
    interval_minutes: int = _rule(60, _one_of(VALID_INTERVALS))
    stations: list[str] = _rule([], _distinct)  # empty: use top_n
    top_n: int = _rule(30, _at_least(1))
    models: list[str] = _rule(list(DEFAULT_MODELS), _each(_one_of(DEFAULT_MODELS)), _distinct)
    hidden_width: int = _rule(128, _at_least(1))
    learning_rate: float = _rule(0.01, _positive)
    batch_days: int = _rule(32, _at_least(1))
    max_epochs: int = _rule(200, _at_least(1))
    patience: int = _rule(10, _at_least(0))
    lost_pickup_penalty: float = _rule(1.0, _finite, _at_least(0))
    lost_return_penalty: float = _rule(1.0, _finite, _at_least(0))
    ma_window_days: int = _rule(30, _at_least(1))
    bias_delta_max: float = _rule(25.0, _finite, _at_least(0))
    bias_delta_step: float = _rule(0.5, _finite, _positive)
    bias_capacity: int = _rule(40, _at_least(1))
    bias_seed: int = _rule(3, _at_least(0))

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, _typed(f.name, f.type, getattr(self, f.name)))
        for f in fields(self):
            for check in f.metadata.get("checks", ()):
                if wrong := check(getattr(self, f.name)):
                    raise ConfigError(f"{f.name} {wrong}")
        if self.end_date < self.start_date:
            raise ConfigError("end_date precedes start_date")

    def canonical_json(self) -> str:
        payload = asdict(self)
        payload["start_date"] = self.start_date.isoformat()
        payload["end_date"] = self.end_date.isoformat()
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()[:12]


def decimal(text: str) -> int:
    """The integer ``text`` writes in decimal, ``[-+]?(0|[1-9][0-9]*)``; any
    other spelling raises ``ValueError``, though ``int`` reads ``1_0``, and
    digits beyond ASCII, as 10. It reads the config file's integers and the
    CLI's integer flags."""
    if not re.fullmatch(r"[-+]?(0|[1-9][0-9]*)", text):
        raise ValueError(f"integer {text} is not written in decimal")
    return int(text)


class _Loader(yaml.SafeLoader):
    """YAML 1.1 reads ``010`` as 8, ``0x10`` as 16, ``0b101`` as 5, ``1_0`` as
    10 and ``1:30`` as 90, so ``stations: [010]`` would select station 8. This
    loader refuses every integer not written in decimal (:func:`decimal`)."""


def _decimal_int(loader, node):
    try:
        return decimal(loader.construct_scalar(node))
    except ValueError as e:
        raise ConfigError(f"{e}; quote it to keep a string") from None


_Loader.add_constructor("tag:yaml.org,2002:int", _decimal_int)


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """The config of the YAML file ``path``, with the overrides that are not
    None. A file that cannot be read or parsed, an unknown or missing key, an
    integer not written in decimal, or a value of the wrong type, form or
    range raises :class:`ConfigError` naming ``path``; a missing file raises
    :class:`FileNotFoundError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_Loader)
    except FileNotFoundError:
        raise
    except ConfigError as e:
        raise ConfigError(f"config file {path} holds a bad value: {e}") from None
    except (OSError, ValueError, yaml.YAMLError) as e:  # ValueError: bad UTF-8, bad date
        raise ConfigError(f"config file {path} cannot be read: {_one_line(e)}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(raw) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"config file {path} has unknown config keys: "
                          f"{sorted(unknown, key=str)}")
    missing = {f.name for f in fields(RunConfig)
               if f.default is MISSING and f.default_factory is MISSING} - set(raw)
    if missing:
        raise ConfigError(f"config file {path} is missing config keys: {sorted(missing)}")
    try:
        return RunConfig(**raw)
    except (ValueError, OverflowError, ConfigError) as e:  # Overflow: huge int
        raise ConfigError(f"config file {path} holds a bad value: {_one_line(e)}") from None


def _one_line(error: Exception) -> str:
    return " ".join(str(error).split())


def derive_seed(seed: int, label: str) -> int:
    """Stage seed = hash of the run seed and a stable label; order-independent."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % (2 ** 63)
