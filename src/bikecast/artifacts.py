"""The files of a run under its output directory: where each kind lives, which
stage writes it, and how it is written and read back.

This module alone knows the config line, ``# config: <hash> seed: <n>``.
:func:`write` writes every text artifact in UTF-8, that line first. :func:`read`
opens a text artifact through :func:`.ingest.read_input`, the opener of the
inputs, and takes off exactly that line and no other before the parser of the
kind sees the file's lines: a data row that begins with ``#`` stays a row.
Every CSV artifact is then read by the table reader of :mod:`.ingest`, its
rows at their physical line numbers. A checkpoint is binary: :mod:`.neural`
writes and reads it, and :func:`read` hands its parser the path. Every error
that :func:`read` raises names the file.

A forecast is one (days, slots, 2) array of expected counts per interval,
pickups then returns, from the forecaster to the report: the shape of a
station's realized counts in the :class:`.ingest.DemandSeries` that
:func:`load_ingested` reads back. A forecast file holds one
:data:`FORECAST_COLUMNS` row per day and slot, the days in increasing order:
:func:`forecast_to_csv` writes it and :func:`load_forecasts` reads back the
same array. The decision file, each forecast day's s* per model, is written
by :func:`decisions_to_csv` and read by :func:`parse_decisions`.
"""

from __future__ import annotations

import os
from dataclasses import replace
from datetime import date, timedelta

import numpy as np

from . import classical, neural
from .config import RunConfig
from .errors import DataError, DomainError, FormatError, RowError
from .ingest import (DemandSeries, _check_rows, _table, build_covariates, demand_from_csv,
                     parse_stations, parse_weather, read_input)

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
    """Write ``text`` as the artifact, in UTF-8, after the config line."""
    file = path(config, kind, sid, name)
    os.makedirs(os.path.dirname(file), exist_ok=True)
    with open(file, "w", newline="", encoding="utf-8") as fh:
        fh.write(artifact_header(config))
        fh.write(text)


def read(config: RunConfig, kind: str, parse, *args, sid: str = "", name: str = ""):
    """``parse(lines, *args)`` of the artifact's file; of a checkpoint,
    ``parse(file, *args)``.

    A missing file raises :class:`DataError` naming the stage to run. A
    checkpoint is parsed from its path, and its parser names the file in
    every error. A text artifact is opened by :func:`.ingest.read_input`,
    which names the file in what ``parse`` raises, and read whole as lines.
    Its first line must be a config line, or :class:`FormatError` names the
    file and the stage to run again; that one line is blanked, so that every
    other line keeps its physical number, and ``parse`` gets the lines.
    """
    file = path(config, kind, sid, name)
    if not os.path.exists(file):
        raise DataError(f"missing artifact {file}; run the {KINDS[kind][0]} stage first")
    if kind == "checkpoint":
        return parse(file, *args)

    def unheaded(stream):
        if not stream.readline().startswith(_CONFIG_LINE):
            raise FormatError(f"{file} does not begin with a config line; "
                              f"run the {KINDS[kind][0]} stage again")
        return parse(["\n", *stream], *args)
    return read_input(file, unheaded)


def load_ingested(config: RunConfig) -> dict[str, DemandSeries]:
    """Each selected station's series, read back from the ``demand/`` files of
    stage_ingest; the covariates are not stored but rebuilt from
    ``demand/weather.csv``, once, into the one array that every series shares.

    A demand file whose days are not those from the config's ``start_date``
    to its ``end_date`` raises :class:`DataError` naming the file."""
    stations = read(config, "stations", parse_stations)
    first, last = config.start_date, config.end_date
    covariates = build_covariates(read(config, "weather", parse_weather), (first, last),
                                  config.interval_minutes)
    data = {}
    for sid in stations:
        series = read(config, "demand", demand_from_csv, sid, config.interval_minutes, sid=sid)
        if (series.first_day, series.n_days) != (first, len(covariates)):
            raise DataError(f"{path(config, 'demand', sid)} holds {series.n_days} days from "
                            f"{series.first_day}, not {first} to {last}; "
                            f"run the ingest stage again")
        data[sid] = replace(series, covariates=covariates)
    return data


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
    widths in its shape, every entry finite; a tensor it holds beyond those is
    ignored."""
    model = neural.load_checkpoint(file)
    if (model.kind, model.targets, model.interval_minutes) != (kind, targets, interval_minutes):
        raise DataError(f"{file} holds a {model.kind} net of {'+'.join(map(str, model.targets))} "
                        f"fitted at {model.interval_minutes} minutes, not a {kind} net of "
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
        if not np.all(np.isfinite(model.params[name])):
            raise DataError(f"{file} holds {name} with a non-finite entry; "
                            f"run the train stage again")
    return model


def forecast_to_csv(first_day: date, rates: np.ndarray) -> str:
    """The forecast file of ``rates``, a (days, slots, 2) array of pickups then
    returns whose first day is ``first_day``: one :data:`FORECAST_COLUMNS` row
    per day and slot, rates as ``.10g``. A rate that is not finite and >= 0
    raises :class:`DomainError`, worded as :func:`load_forecasts` would refuse
    its row."""
    days, slots, _ = rates.shape
    stamps = [(first_day + timedelta(days=d)).isoformat() for d in range(days)]
    bad = np.argwhere(~(np.isfinite(rates) & (rates >= 0)))
    if len(bad):
        day, slot, k = bad[0]
        raise DomainError(f"{FORECAST_COLUMNS[2 + k]} {rates[day, slot, k]:g} of "
                          f"{stamps[day]} slot {slot} outside [0, inf)")
    return ",".join(FORECAST_COLUMNS) + "\n" + "".join(map(
        "{},{},{:.10g},{:.10g}\n".format, np.repeat(stamps, slots).tolist(),
        list(range(slots)) * days, *rates.reshape(-1, 2).T.tolist()))


def _forecasts(lines: list[str], interval_minutes: int) -> tuple[list[date], np.ndarray]:
    slots = 1440 // interval_minutes
    numbers, (days, slot, pickups, returns), rules = _table(
        lines, "forecast", FORECAST_COLUMNS, (date.fromisoformat, int, float, float), exact=True)
    _check_rows(numbers, rules)
    rows = np.arange(len(numbers))
    first = np.ones(len(rows), bool)  # the rows that begin a day
    first[1:] = days[1:] != days[:-1]
    back = np.zeros(len(rows), bool)  # the rows whose day comes before the day above
    back[1:] = days[1:] < days[:-1]
    expected = rows - np.maximum.accumulate(np.where(first, rows, 0))
    span = f"0 to {slots - 1} ({interval_minutes} minutes)"
    _check_rows(numbers, [
        (back, lambda i: f"{days[i]} comes after {days[i - 1]}: the days of a forecast "
                         f"must increase, each once"),
        ((slot != expected) | (slot >= slots),
         lambda i: f"slot {slot[i]} of {days[i]} out of order: expected slot {expected[i]} "
                   f"of {span}"),
        (~(np.isfinite(pickups) & (pickups >= 0)),
         lambda i: f"pickup_rate {pickups[i]:g} outside [0, inf)"),
        (~(np.isfinite(returns) & (returns >= 0)),
         lambda i: f"return_rate {returns[i]:g} outside [0, inf)"),
    ])
    last = np.roll(first, -1)  # the rows that end a day
    _check_rows(numbers, [(last & (slot < slots - 1),
                           lambda i: f"{days[i]} ends at slot {slot[i]} of {span}")])
    return days[first].tolist(), np.stack([pickups, returns], axis=1).reshape(-1, slots, 2)


def load_forecasts(config: RunConfig, sid: str, name: str) -> tuple[list[date], np.ndarray]:
    """The days of a forecast, as stage_forecast wrote it, and its
    (days, slots, 2) array of pickups then returns.

    The days must increase, each once, and the rows of each day must number
    its slots 0 to n - 1 in order, n being the intervals of the config's
    ``interval_minutes`` in a day, and hold finite rates >= 0. A row that
    breaks this or does not parse raises :class:`RowError` with the path and
    its line; a day that ends early, at its last row.
    """
    return read(config, "forecast", _forecasts, config.interval_minutes, sid=sid, name=name)


def decisions_to_csv(rows: list[tuple[date, str, int, float]]) -> str:
    """The decision file of ``(day, model, s_star, expected_cost)`` rows: one
    :data:`DECISION_COLUMNS` row each, the cost as ``.12g``."""
    return ",".join(DECISION_COLUMNS) + "\n" + "".join(
        f"{day.isoformat()},{model},{s_star},{cost:.12g}\n" for day, model, s_star, cost in rows)


def parse_decisions(lines: list[str], names: list[str], days: list[date],
                    capacity: int) -> dict[str, list[int]]:
    """Each of the models ``names``' s* per day of ``days``, from the lines of
    a decision file; an s* outside [0, ``capacity``] or a repeated (date,
    model) raises :class:`RowError`, and a missing one :class:`DataError`."""
    s_star: dict[tuple[date, str], int] = {}
    numbers, (dates, models, s_stars, _), rules = _table(
        lines, "decision", DECISION_COLUMNS, (date.fromisoformat, str, int, float), exact=True)
    _check_rows(numbers, rules)
    for n, day, name, s in zip(numbers, dates, models, s_stars.tolist()):
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
