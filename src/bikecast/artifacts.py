"""The files of a run under its output directory: where each kind lives, which
stage writes it, and how it is written and read back.

This module alone knows the config line, ``# config: <hash> seed: <n>``.
:func:`write` puts it first in every text artifact, and :func:`read` takes
off exactly that line and no other before the parser of the kind sees the
file's lines: a data row that begins with ``#`` stays a row. Every CSV
artifact is then read by the row reader of :mod:`.ingest`, its rows at their
physical line numbers. :func:`read` names the file in every error it raises.
"""

from __future__ import annotations

import os
from dataclasses import replace
from datetime import date

import numpy as np

from . import classical, neural
from .config import RunConfig
from .errors import DataError, FormatError, RowError
from .ingest import (DemandSeries, _check_rows, _columns, _converted, build_covariates,
                     demand_from_csv, parse_stations, parse_weather)
from .queueing import RateSeries

# each kind of artifact: the stage that writes it, and its path under out_dir
# for station ``sid`` and model, net label or report ``name``; evaluate and
# bias write the reports, which no stage reads
KINDS = {
    "demand": ("ingest", "demand/station_{sid}.csv"),
    "events": ("ingest", "demand/events_{sid}.csv"),
    "weather": ("ingest", "demand/weather.csv"),
    "stations": ("ingest", "demand/stations_selected.csv"),
    "model": ("train", "models/{sid}_{name}.json"),
    "checkpoint": ("train", "models/{sid}_{name}.ckpt"),
    "forecast": ("forecast", "forecasts/{sid}_{name}.csv"),
    "decisions": ("optimize", "decisions/{sid}.csv"),
    "report": (None, "reports/{name}"),
}

# the columns of the forecast and decision files, for their writer and reader
FORECAST_COLUMNS = ("date", "slot", "pickup_rate", "return_rate")
DECISION_COLUMNS = ("date", "model", "s_star", "expected_cost")

# how the config line, the first line of every text artifact, begins
_CONFIG_LINE = "# config: "


def path(config: RunConfig, kind: str, sid: str = "", name: str = "") -> str:
    """Where the artifact lives; a net label's colon (prnn:pickups) becomes _."""
    parts = KINDS[kind][1].format(sid=sid, name=name.replace(":", "_")).split("/")
    return os.path.join(config.out_dir, *parts)


def artifact_header(config: RunConfig) -> str:
    """The config line that begins every text artifact of a run of ``config``."""
    return f"{_CONFIG_LINE}{config.hash()} seed: {config.seed}\n"


def write(config: RunConfig, kind: str, text: str, sid: str = "", name: str = "") -> None:
    """Write ``text`` as the artifact, after the config line."""
    file = path(config, kind, sid, name)
    os.makedirs(os.path.dirname(file), exist_ok=True)
    with open(file, "w", newline="") as fh:
        fh.write(artifact_header(config))
        fh.write(text)


def read(config: RunConfig, kind: str, parse, *args, sid: str = "", name: str = ""):
    """``parse(lines, *args)`` of the artifact's file; of a checkpoint,
    ``parse(file, *args)``.

    A missing file raises :class:`DataError` naming the stage to run. A text
    artifact is read whole as lines. Its first line must be a config line, or
    :class:`FormatError` names the file and the stage to run again; that one
    line is blanked, so that every other line keeps its physical number, and
    ``parse`` gets the lines. What ``parse`` raises names the file: a
    :class:`RowError` gets its path, and any other :class:`DataError`,
    ``ValueError`` or ``KeyError`` that does not start with it becomes a
    :class:`FormatError` that does.
    """
    file = path(config, kind, sid, name)
    if not os.path.exists(file):
        raise DataError(f"missing artifact {file}; run the {KINDS[kind][0]} stage first")
    try:
        if kind == "checkpoint":
            return parse(file, *args)
        with open(file, newline="") as fh:
            if not fh.readline().startswith(_CONFIG_LINE):
                raise FormatError(f"{file} does not begin with a config line; "
                                  f"run the {KINDS[kind][0]} stage again")
            lines = ["\n", *fh]
        return parse(lines, *args)
    except RowError as e:
        raise RowError(e.line_number, e.reason, file) from None
    except (DataError, ValueError, KeyError) as e:
        if isinstance(e, DataError) and str(e).startswith(file):
            raise
        raise FormatError(f"{file}: {e}") from None


def _kept_file(lines: list[str], what: str, names: tuple[str, ...], *kinds):
    """The physical line numbers and the columns of the ``lines`` of a kept
    CSV with exactly the columns ``names`` (:func:`~.ingest._columns`), column
    i converted by ``kinds[i]`` (:func:`~.ingest._converted`) or, where that
    is None, kept as read. The first row with a field that does not convert
    raises :class:`RowError` naming the column."""
    numbers, columns = _columns(lines, what, names, exact=True)
    rules = []
    for i, kind in enumerate(kinds):
        if kind is not None:
            values, rule = _converted(names[i], columns[i], kind)
            columns[i] = values.tolist()
            rules.append(rule)
    _check_rows(numbers, rules)
    return numbers, columns


def load_ingested(config: RunConfig) -> dict[str, DemandSeries]:
    """Each selected station's series, read back from the ``demand/`` files of
    stage_ingest; the covariates are not stored but rebuilt from
    ``demand/weather.csv``, once, into the one array that every series shares."""
    stations = read(config, "stations", parse_stations)
    covariates = build_covariates(read(config, "weather", parse_weather),
                                  (config.start_date, config.end_date), config.interval_minutes)
    return {sid: replace(read(config, "demand", demand_from_csv, sid, config.interval_minutes,
                              sid=sid), covariates=covariates)
            for sid in stations}


def parse_model(lines: list[str], model_type: type, interval_minutes: int):
    """The classical model of the lines of a JSON model file, refused unless a
    ``model_type`` fitted at ``interval_minutes``."""
    model = classical.model_from_json("".join(lines))
    if (type(model), model.interval_minutes) != (model_type, interval_minutes):
        raise DataError(f"a {type(model).__name__} fitted at {model.interval_minutes} minutes, "
                        f"not a {model_type.__name__} at {interval_minutes}; "
                        f"run the train stage again")
    return model


def parse_checkpoint(file: str, kind: str, targets: tuple[str, ...],
                     interval_minutes: int) -> neural.NeuralModel:
    """The net of a checkpoint, refused unless a ``kind`` net of ``targets``
    fitted at ``interval_minutes`` that holds every tensor of its kind and
    widths in its shape; a tensor it holds beyond those is ignored."""
    model = neural.load_checkpoint(file)
    if (model.kind, model.targets, model.interval_minutes) != (kind, targets, interval_minutes):
        raise DataError(f"{file} holds a {model.kind} net of {'+'.join(model.targets)} fitted "
                        f"at {model.interval_minutes} minutes, not a {kind} net of "
                        f"{'+'.join(targets)} at {interval_minutes}; run the train stage again")
    width = model.input_width
    expected = {"norm/cov_mean": (width,), "norm/cov_std": (width,)} | {
        name: value.shape for name, value in neural.init_params(
            kind, width, model.hidden_width, model.processes, 0).items()}
    for name, shape in sorted(expected.items()):
        if name not in model.params:
            raise DataError(f"{file} lacks the tensor {name}; run the train stage again")
        if model.params[name].shape != shape:
            raise DataError(f"{file} holds {name} of shape {model.params[name].shape}, not "
                            f"{shape}; run the train stage again")
    return model


def _forecasts(lines: list[str], interval_minutes: int) -> tuple[list[date], list[RateSeries]]:
    slots = 1440 // interval_minutes
    by_day: dict[date, list[tuple[float, float]]] = {}
    last_line: dict[date, int] = {}
    numbers, columns = _kept_file(lines, "forecast", FORECAST_COLUMNS,
                                  date.fromisoformat, int, float, float)
    for n, day, slot, p, r in zip(numbers, *columns):
        day_rows = by_day.setdefault(day, [])
        if slot != len(day_rows) or slot >= slots:
            raise RowError(n, f"slot {slot} of {day} out of order: expected slot "
                              f"{len(day_rows)} of 0 to {slots - 1} "
                              f"({interval_minutes} minutes)")
        for column, rate in (("pickup_rate", p), ("return_rate", r)):
            if not 0 <= rate < np.inf:
                raise RowError(n, f"{column} {rate:g} outside [0, inf)")
        day_rows.append((p, r))
        last_line[day] = n
    short = [day for day in by_day if len(by_day[day]) < slots]
    if short:
        day = min(short, key=last_line.get)
        raise RowError(last_line[day], f"{day} ends at slot {len(by_day[day]) - 1} of 0 to "
                                       f"{slots - 1} ({interval_minutes} minutes)")
    days = sorted(by_day)
    return days, [RateSeries(interval_minutes=interval_minutes,
                             pickup_rates=np.array([p for p, _ in by_day[d]]),
                             return_rates=np.array([r for _, r in by_day[d]]))
                  for d in days]


def load_forecasts(config: RunConfig, sid: str, name: str) -> tuple[list[date], list[RateSeries]]:
    """Each day's forecast, as stage_forecast wrote it, in date order.

    The rows of each day must number its slots 0 to n - 1 in order, n being
    the intervals of the config's ``interval_minutes`` in a day, and hold
    finite rates >= 0. A row that breaks this or does not parse raises
    :class:`RowError` with the path and its line; a day that ends early, at
    its last row.
    """
    return read(config, "forecast", _forecasts, config.interval_minutes, sid=sid, name=name)


def parse_decisions(lines: list[str], names: list[str], days: list[date],
                    capacity: int) -> dict[str, list[int]]:
    """Each of the models ``names``' s* per day of ``days``, from the lines of
    a decision file; an s* outside [0, ``capacity``] or a repeated (date,
    model) raises :class:`RowError`, and a missing one :class:`DataError`."""
    s_star: dict[tuple[date, str], int] = {}
    numbers, columns = _kept_file(lines, "decision", DECISION_COLUMNS,
                                  date.fromisoformat, None, int, float)
    for n, day, name, s, _ in zip(numbers, *columns):
        if not 0 <= s <= capacity:
            raise RowError(n, f"s_star {s} outside [0, {capacity}]")
        if (day, name) in s_star:
            raise RowError(n, f"a second decision for {name} on {day}")
        s_star[day, name] = s
    for name in names:
        missing = [d for d in days if (d, name) not in s_star]
        if missing:
            raise DataError(f"no decision for {name} on {missing[0]}; "
                            f"run the optimize stage again")
    return {name: [s_star[d, name] for d in days] for name in names}
