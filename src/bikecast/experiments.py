"""Bias-sensitivity study, the forecaster registry and the staged pipeline runner.

The bias study perturbs a day's realized counts-as-rates by a growing margin
delta, in the same direction for both processes or in opposing directions,
and tracks how the inventory decision and its replayed cost move.

:data:`FORECASTERS` holds the paper's six forecasters by name: how each is
fitted, kept and read back, and how it forecasts. The stages loop over it.

The pipeline is a chain of stages (ingest, train, forecast, optimize,
evaluate, bias): their files under the run's output directory, written and
read through :mod:`.artifacts`, are their only output. :data:`STAGES`
declares them in run order, each with its CLI command and help text and
whether it reads the ``demand/`` files; the CLI builds its subcommands from
it. Each stage can run on its own provided its upstream artifacts exist, and
then reads them itself. ``run_pipeline`` loops over :data:`STAGES` and reads
the ``demand/`` files once, after ingest writes them, for the three stages
that need them.
"""

from __future__ import annotations

import csv
import functools
import io
import os
import re
import sys
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from . import classical, neural
from .artifacts import (
    decisions_to_csv,
    forecast_to_csv,
    load_forecasts,
    load_ingested,
    parse_checkpoint,
    parse_decisions,
    parse_model,
    path,
    read,
    write,
)
from .config import RunConfig, derive_seed
from .errors import BikecastError, DataError, DomainError, StageError, TrainingError
from .evaluate import (
    benchmark,
    cumulative_error,
    point_metrics,
    replay_cost,
    rows_to_csv,
    summarize,
)
from .ingest import (
    STATION_COLUMNS,
    TRIP_COLUMNS,
    DemandSeries,
    EventStream,
    TripTable,
    aggregate,
    check_weather_covers,
    demand_to_csv,
    events_from_csv,
    events_to_csv,
    parse_stations,
    parse_trips,
    parse_weather,
    read_input,
    split,
    to_event_streams,
    top_stations,
    weather_to_csv,
)
from .inventory import PenaltyConfig, UdfCurve, oracle_decision, udf_curve
from .queueing import RateSeries
from .synthetic import peaked_day

BIAS_KINDS = ("same_side", "opposite_1", "opposite_2")


@dataclass(frozen=True)
class BiasSpec:
    kind: str
    delta: float

    def __post_init__(self):
        if self.kind not in BIAS_KINDS:
            raise DataError(f"unknown bias kind {self.kind!r}")
        if self.delta < 0:
            raise DataError("delta must be non-negative")


def apply_bias(rates: RateSeries, spec: BiasSpec) -> RateSeries:
    """Shift both rate curves by delta, same side or opposing sides.

    Downward shifts truncate at zero, so the perturbed series is always a
    valid rate series.
    """
    d = spec.delta
    if spec.kind == "same_side":
        mu, lam = rates.pickup_rates + d, rates.return_rates + d
    elif spec.kind == "opposite_1":
        mu, lam = rates.pickup_rates + d, np.maximum(rates.return_rates - d, 0.0)
    else:
        mu, lam = np.maximum(rates.pickup_rates - d, 0.0), rates.return_rates + d
    return RateSeries(interval_minutes=rates.interval_minutes,
                      pickup_rates=mu, return_rates=lam)


def default_delta_grid(delta_max: float, step: float) -> np.ndarray:
    """The multiples of ``step`` from 0 to ``delta_max``, up to rounding error."""
    n = int(np.floor(delta_max / step + 1e-9))
    return np.arange(n + 1) * step


def bias_study(day_counts: DemandSeries, events: EventStream, capacity: int,
               delta_grid: np.ndarray, penalties: PenaltyConfig = PenaltyConfig()) -> list[dict]:
    """Decision, replay cost and CE under each bias pattern across the delta grid.

    One report row per (kind, delta), by kind in :data:`BIAS_KINDS` order and
    then by delta: kind, delta, s_star, cost and ce. The unbiased rates are
    the day's realized counts-as-rates, so delta=0 reproduces the
    perfect-information oracle decision for every pattern. The grid's curves
    are solved in one batch over the lanes of :func:`_in_lanes`, each distinct
    biased series once (:func:`_solve`): delta=0 is the same series for every
    pattern. The day's events are replayed once, and every row reads its
    cost off that curve (:func:`replay_cost`).
    """
    if day_counts.n_days != 1:
        raise DataError("bias study expects exactly one day of counts")
    counts = day_counts.counts[0]
    base = RateSeries(day_counts.interval_minutes, *counts.T.astype(float))
    biased = [(kind, d, apply_bias(base, BiasSpec(kind, d)))
              for kind in BIAS_KINDS for d in map(float, delta_grid)]
    curves = _solve([(rates, capacity, penalties) for _, _, rates in biased])
    cost = replay_cost(events, capacity, penalties)
    return [{"kind": kind, "delta": delta, "s_star": curve.s_star,
             "cost": float(cost[curve.s_star]),
             "ce": cumulative_error(*counts.T, rates.pickup_rates, rates.return_rates)}
            for (kind, delta, rates), curve in zip(biased, curves)]


# -- pipeline stages ----------------------------------------------------------


@contextmanager
def _stage(name: str):
    """Re-raise stage failures with the stage name attached."""
    try:
        yield
    except StageError:
        raise
    except (BikecastError, OSError, ValueError, KeyError) as exc:
        raise StageError(name, str(exc)) from exc


@dataclass(frozen=True)
class Stage:
    """One stage as :data:`STAGES` declares it: its CLI command and help text,
    and whether it reads the ``demand/`` files.

    Used as a decorator on ``stage_<name>``, it enters itself in
    :data:`STAGES` as ``name`` and runs the function under ``_stage(name)``.
    The wrapped stage takes ``data``, what :func:`load_ingested` returns, and
    returns it for the next stage: as given, or, for a stage that reads
    demand and got none, as read here. The function itself returns nothing,
    and gets ``data`` only if it reads demand.
    """

    command: str
    help: str
    reads_demand: bool = False

    def __call__(self, fn):
        name = fn.__name__.removeprefix("stage_")
        STAGES[name] = self

        @functools.wraps(fn)
        def run(config: RunConfig, data: dict[str, DemandSeries] | None = None):
            with _stage(name):
                if self.reads_demand:
                    data = load_ingested(config) if data is None else data
                    fn(config, data)
                else:
                    fn(config)
            return data
        return run


# the stages by the name their errors carry, in run order: the order in which
# they are declared below
STAGES: dict[str, Stage] = {}


# a station id names files under out_dir and leads the rows of CSV artifacts:
# it may not climb or nest directories, need quoting, or begin with # and so
# read as a comment line to readers that skip them
_REFUSED_ID = re.compile(r'[/\\,"\x00-\x1f\x7f-\x9f]|\A#|\A\.\.?\Z')


@Stage("ingest", "parse trips and weather into per-station demand files")
def stage_ingest(config: RunConfig) -> None:
    """Parse the inputs, here and nowhere else, and write the ``demand/`` files.

    Each input is opened by :func:`read_input`. The trip file is parsed in
    byte ranges over the lanes of :func:`_in_lanes` (:func:`_read_trips`),
    into the table one :func:`parse_trips` call reads. Each selected station
    gets ``station_<sid>.csv`` (interval counts of the whole range) and
    ``events_<sid>.csv``: the events of the days of ``split(series).test``,
    the only ones evaluate replays. A day range that :func:`split` refuses
    fails here. The run gets ``weather.csv``. Weather without an observation
    at the first hour of the range is refused (:func:`check_weather_covers`).
    A selected station id that cannot name a file or lead a CSV row
    (:data:`_REFUSED_ID`), or that has no trips or no events in the day
    range, fails before anything is written, as does a trip file with no
    trips to select stations from.
    """
    capacities = read_input(config.stations_path, parse_stations)
    trips = read_input(config.trips_path, _read_trips)
    selected = list(config.stations) or top_stations(trips, config.top_n)
    if not selected:
        raise DataError("no station to select: the trip file holds no trips")
    refused = [s for s in selected if _REFUSED_ID.search(s)]
    if refused:
        raise DataError(f"station ids that cannot name a file or lead a CSV row: {refused}")
    missing = [s for s in selected if s not in capacities]
    if missing:
        raise DataError(f"stations without metadata: {missing}")
    streams = to_event_streams(trips, selected)
    weather = read_input(config.weather_path, parse_weather)
    day_range = (config.start_date, config.end_date)
    check_weather_covers(weather, day_range)
    if idle := [s for s in selected if s not in streams]:
        raise DataError(f"station {idle[0]} has no events in the trip file")
    series = {sid: aggregate(streams[sid], config.interval_minutes, day_range)
              for sid in selected}
    test = split(series[selected[0]]).test  # every series spans day_range
    if empty := [sid for sid in selected if not series[sid].counts.any()]:
        raise DataError(f"station {empty[0]} has no events from {config.start_date} "
                        f"to {config.end_date}")
    lines = [",".join(STATION_COLUMNS)]
    for sid in selected:
        write(config, "demand", demand_to_csv(series[sid]), sid)
        write(config, "events", events_to_csv(
            streams[sid].slice_day(test.first_day, test.n_days)), sid)
        lines.append(f"{sid},{capacities[sid]}")
    write(config, "weather", weather_to_csv(weather))
    write(config, "stations", "\n".join(lines) + "\n")


# bytes of the trip file per lane job
_RANGE_BYTES = 1 << 20

# the fields of the sentinel row that ends every range, in TRIP_COLUMNS order
_SENTINEL = ("0001-01-01", "0001-01-01", "~", "~")


def _parse_trip_range(path: str, head: bytes, sentinel: bytes, start: int,
                      stop: int) -> TripTable:
    """:func:`parse_trips` over ``head``, bytes ``start:stop`` of ``path`` and
    ``sentinel``, less the sentinel row. Raises :class:`DataError` if that row
    does not come back last, as after a cut inside a quoted field."""
    with open(path, "rb") as fh:
        fh.seek(start)
        body = fh.read(stop - start)
    with io.TextIOWrapper(io.BytesIO(head + body + sentinel), encoding="utf-8",
                          newline="") as stream:
        columns = list(vars(parse_trips(stream)).values())
    if not all(np.array_equal(column[-1:], np.array([value], column.dtype))
               for column, value in zip(columns, _SENTINEL)):
        raise DataError(f"bytes {start}:{stop} of {path} do not end where a row ends")
    return TripTable(*(column[:-1] for column in columns))


def _read_trips(stream) -> TripTable:
    """:func:`parse_trips` of the trip file open as ``stream``, over the lanes
    of :func:`_in_lanes` in byte ranges of the file ``stream.name`` cut at line
    breaks about every :data:`_RANGE_BYTES`, each one after a copy of the
    header line and before a sentinel row.

    The file is parsed whole when it has one range or the host one core, when
    its header line, split by ``csv.reader`` as :func:`parse_trips` splits it,
    ends inside a quoted field, holds a CR, lacks a trip column or is longer
    than ``csv.field_size_limit()``, or when a range fails or its worker dies:
    a cut inside a quoted field can break the rows on both sides of it, and
    the serial parse, :func:`parse_trips` of ``stream``, reads them right or
    raises the serial error.
    """
    path = stream.name
    with open(path, "rb") as fh:
        head = fh.readline()
        size = os.fstat(fh.fileno()).st_size
        cuts = [len(head)]
        while cuts[-1] + _RANGE_BYTES < size and _cores() > 1:
            fh.seek(cuts[-1] + _RANGE_BYTES - 1)
            fh.readline()
            cuts.append(fh.tell())
    line = head.removesuffix(b"\n").removesuffix(b"\r")
    # split as parse_trips splits it: a quote left open keeps the line feed, and
    # a line beyond csv's field limit, which may hold a field beyond it, is not split
    names = [] if b"\r" in line or len(line) > csv.field_size_limit() else next(
        csv.reader([line.decode("latin-1") + "\n"]), [])
    if len(cuts) < 2 or "\n" in "".join(names) or not set(names) >= set(TRIP_COLUMNS):
        return parse_trips(stream)
    index = {name: i for i, name in enumerate(names)}
    row = [""] * len(names)
    for name, value in zip(TRIP_COLUMNS, _SENTINEL):
        row[index[name]] = value
    sentinel = ("\n" + ",".join(row)).encode()
    try:
        tables = _in_lanes(_parse_trip_range, [(path, head, sentinel, start, stop)
                                               for start, stop in zip(cuts, cuts[1:] + [size])])
    except (BikecastError, ValueError):
        return parse_trips(stream)
    return TripTable(*map(np.concatenate, zip(*(vars(table).values() for table in tables))))


# -- the forecasters ----------------------------------------------------------


def _from_nets(model, test, **_) -> np.ndarray:
    """One :func:`neural.predict_rates` call per net over all test days; the
    nets' process columns side by side give (days, steps, 2)."""
    return np.concatenate([neural.predict_rates(net, test.covariates)
                           for net in model.values()], axis=2)


@dataclass(frozen=True)
class Forecaster:
    """What sets one forecaster apart: how it is fitted, kept and forecasts.

    ``forecast(model, config=, series=, test=, days=)`` gives the forecast of
    ``test``, the test split of ``series``, unseeded: one (days, slots, 2)
    array of expected counts, pickups then returns, which is what
    stage_forecast writes, stage_optimize decides from and stage_evaluate
    scores.
    With ``nets``, the model is one net per ``(label, targets)``, by label:
    trained in a lane from its label's seed and kept in its label's
    checkpoint; nets of a lower ``train_order`` start first. With a ``fitted``
    type, ``classical.fit_<name>`` fits it on the train split, and its JSON
    model file must hold that type. With neither, it is fitted per forecast
    day, keeps no file, and its model is empty. :func:`stage_train` writes
    these files and :func:`load_models` reads them back.
    """

    forecast: Callable
    fitted: type | None = None
    nets: tuple[tuple[str, tuple[str, ...]], ...] = ()
    train_order: int = 0


# The paper's forecasters by name. The nets start by their time per epoch,
# longest first: movprnn, vprnn, prnn.
FORECASTERS = {
    "ha": Forecaster(lambda model, test, **_: model.predict(test),
                     fitted=classical.SeasonalProfile),
    "ma": Forecaster(lambda model, config, series, test, days, **_: np.concatenate([
        classical.fit_ma(series, day, window_days=config.ma_window_days)
        .predict(test.days(i, i + 1)) for i, day in enumerate(days)])),
    "lr": Forecaster(lambda model, test, **_: model.predict(test), fitted=classical.LinearModel),
    "prnn": Forecaster(_from_nets, nets=(("prnn:pickups", ("pickups",)),
                                         ("prnn:returns", ("returns",))), train_order=2),
    "vprnn": Forecaster(_from_nets, nets=(("vprnn:pickups", ("pickups",)),
                                          ("vprnn:returns", ("returns",))), train_order=1),
    "movprnn": Forecaster(_from_nets, nets=(("movprnn", ("pickups", "returns")),)),
}


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _claim_jobs(fn, jobs: list[tuple], counter):
    """``(i, fn(*jobs[i]), None)`` for each index ``i`` claimed in turn from the
    shared ``counter``, until none is left. A failure yields ``(i, None,
    error)``, ends the loop and moves the counter to the end, so that no lane
    starts another job."""
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(jobs):
            return
        try:
            result = fn(*jobs[i])
        except Exception as error:
            counter.value = len(jobs)
            yield i, None, error
            return
        yield i, result, None


def _lane(fn, jobs: list[tuple], counter, writer) -> None:
    """A worker lane: claim jobs until none is left, then send each outcome of
    :func:`_claim_jobs` as a message of its own, and None. The worker ends as
    soon as the process that started it is gone, killed or not, so that no
    worker outlives its command."""
    import multiprocessing
    import threading

    parent = multiprocessing.parent_process()
    threading.Thread(target=lambda: (parent.join(), os._exit(1)), daemon=True).start()
    for outcome in [*_claim_jobs(fn, jobs, counter), None]:
        writer.send(outcome)


def _in_lanes(fn, jobs: list[tuple]) -> list:
    """``fn(*job)`` for every job, in job order, over ``min(cores, len(jobs))``
    lanes: this process and worker processes, forked on Linux and spawned
    elsewhere. The callers are :func:`_read_trips` (byte ranges of the trip
    file), :func:`stage_train` (nets), :func:`_solve` (the decision curves of
    :func:`stage_optimize` and :func:`bias_study`) and :func:`stage_evaluate`
    (the oracle curves), each with one batch.

    Every lane claims the next job from one shared counter until none is left
    (:func:`_claim_jobs`). After a failure no lane starts another job; the
    running ones finish, every worker is reaped, and then the error of the
    lowest job index is raised. A worker that dies raises :class:`TrainingError`.
    With one lane nothing is started and ``multiprocessing`` is not imported.
    Results come back one job per message, read in this thread: freeing a
    large message, or memory of a reader thread's malloc arena, leaves it
    resident, and ingest then peaked 12% higher.
    """
    lanes = min(_cores(), len(jobs))
    if lanes < 2:
        return [fn(*job) for job in jobs]
    import multiprocessing

    context = multiprocessing.get_context("fork" if sys.platform == "linux" else "spawn")
    counter = context.Value("i", 0)
    workers, readers, outcomes = [], [], []
    try:
        for _ in range(lanes - 1):
            reader, writer = context.Pipe(duplex=False)
            readers.append(reader)
            workers.append(context.Process(target=_lane, args=(fn, jobs, counter, writer)))
            workers[-1].start()
            writer.close()
        outcomes += _claim_jobs(fn, jobs, counter)
        for reader in readers:
            outcomes += iter(reader.recv, None)
    except EOFError as e:
        raise TrainingError("a worker lane ended unexpectedly") from e
    finally:
        counter.value = len(jobs)
        for reader in readers:
            reader.close()
        for worker in workers:
            worker.join()
    failures = [(i, error) for i, _, error in outcomes if error is not None]
    if failures:
        raise min(failures)[1]  # each index is claimed once, so no two tie
    results = {i: result for i, result, _ in outcomes}
    return [results[i] for i in range(len(jobs))]


def _solve(problems: list[tuple[RateSeries, int, PenaltyConfig]]) -> list[UdfCurve]:
    """``udf_curve(*problem)`` for every problem, over the lanes of
    :func:`_in_lanes`. A problem that repeats one before it, with the same
    rates, capacity and penalties, is not solved again but shares its curve."""
    keys = [(rates.pickup_rates.tobytes(), rates.return_rates.tobytes(),
             rates.interval_minutes, capacity, penalties)
            for rates, capacity, penalties in problems]
    first: dict[tuple, int] = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    curves = _in_lanes(udf_curve, [problems[i] for i in first.values()])
    solved = dict(zip(first, curves))
    return [solved[key] for key in keys]


@Stage("train", "fit all configured models", reads_demand=True)
def stage_train(config: RunConfig, data: dict[str, DemandSeries]) -> None:
    """Fit every configured model per station and write its files under ``models/``.

    One job is one net of one station. The jobs train over the lanes of
    :func:`_in_lanes`, by ``train_order``; each net has its own seed, so its
    bits do not depend on its lane. This process saves each net's checkpoint
    as the lanes return it, then fits and writes each classical model. The
    stage does not write to ``data``.
    """
    parts = {sid: split(data[sid]) for sid in sorted(data)}
    jobs = sorted(((sid, name, label, targets) for sid in parts
                   for name in sorted(config.models)
                   for label, targets in FORECASTERS[name].nets),
                  key=lambda job: FORECASTERS[job[1]].train_order)
    trained = _in_lanes(neural.train, [
        (name, parts[sid], config, derive_seed(config.seed, f"train:{sid}:{label}"),
         targets) for sid, name, label, targets in jobs])
    for (sid, _, label, _), net in zip(jobs, trained):
        neural.save_checkpoint(net, path(config, "checkpoint", sid, label))
    for sid in parts:
        for name in sorted(config.models):
            if FORECASTERS[name].fitted:
                model = getattr(classical, f"fit_{name}")(parts[sid].train)
                write(config, "model", classical.model_to_json(model) + "\n", sid, name)


def load_models(config: RunConfig, stations: list[str]) -> dict[str, dict]:
    """Read back each model as stage_train saved it: a classical model, or
    its nets by label, of which a model fitted per forecast day has none."""
    def load(sid: str, name: str):
        entry = FORECASTERS[name]
        if entry.fitted:
            return read(config, "model", parse_model, entry.fitted, config.interval_minutes,
                        sid=sid, name=name)
        return {label: read(config, "checkpoint", parse_checkpoint, name, targets,
                            config.interval_minutes, sid=sid, name=label)
                for label, targets in entry.nets}
    return {sid: {name: load(sid, name) for name in sorted(config.models)} for sid in stations}


def _test_days(series: DemandSeries) -> tuple[DemandSeries, list[date]]:
    test = split(series).test
    return test, [test.first_day + timedelta(days=i) for i in range(test.n_days)]


@Stage("forecast", "predict every test day with every model", reads_demand=True)
def stage_forecast(config: RunConfig, data: dict[str, DemandSeries]) -> None:
    """Predict every test day with every model; one CSV per station and model.

    A forecast that :func:`.artifacts.forecast_to_csv` refuses fails with its
    station and model named. The stage does not write to ``data``."""
    fitted = load_models(config, sorted(data))
    for sid in sorted(data):
        test, days = _test_days(data[sid])
        for name in sorted(config.models):
            rates = FORECASTERS[name].forecast(fitted[sid][name], config=config,
                                               series=data[sid], test=test, days=days)
            try:
                text = forecast_to_csv(days[0], rates)
            except DomainError as e:
                raise DomainError(f"forecast {sid}/{name}: {e}") from e
            write(config, "forecast", text, sid, name)


@Stage("optimize", "turn forecasts into starting-inventory decisions")
def stage_optimize(config: RunConfig) -> None:
    """Decide each forecast day's starting inventory, into ``decisions/<sid>.csv``.

    The curves are solved in one batch over the lanes (:func:`_solve`). A
    forecast that repeats another, with the same capacity and penalties,
    shares its curve: HA repeats by weekday.
    """
    capacities = read(config, "stations", parse_stations)
    penalties = PenaltyConfig(config.lost_pickup_penalty, config.lost_return_penalty)
    forecasts = {(sid, name): load_forecasts(config, sid, name)
                 for sid in sorted(capacities) for name in sorted(config.models)}
    curves = iter(_solve([
        (RateSeries(config.interval_minutes, day[:, 0], day[:, 1]), capacities[sid], penalties)
        for (sid, _), (_, rates) in forecasts.items() for day in rates]))
    for sid in sorted(capacities):
        write(config, "decisions", decisions_to_csv([
            (day, name, curve.s_star, curve.values[curve.s_star])
            for name in sorted(config.models)
            for day, curve in zip(forecasts[sid, name][0], curves)]), sid)


@Stage("evaluate", "score decisions by replayed cost, RPD and CE", reads_demand=True)
def stage_evaluate(config: RunConfig, data: dict[str, DemandSeries]) -> None:
    """Score every model's decisions and forecasts against replayed reality,
    into ``reports/metrics.csv`` and ``reports/summary.csv``.

    The decisions are the s* that stage_optimize wrote per station; they are
    replayed at the capacities of ``demand/stations_selected.csv``, not
    solved again. The perfect-information oracle's s* of every station-day is
    solved here, in one batch over the lanes of :func:`_in_lanes`, and
    replayed likewise. The forecasts give CE and the point metrics. The
    replayed events are the test days' that stage_ingest kept per station;
    the trip file itself is not read again. The stage does not write to
    ``data``.

    One list of report rows holds it all: per station, the point metrics of
    each model and then the rows :func:`benchmark` returns. ``metrics.csv``
    is that list, and ``summary.csv`` is :func:`summarize` of it.
    """
    capacities = read(config, "stations", parse_stations)
    penalties = PenaltyConfig(config.lost_pickup_penalty, config.lost_return_penalty)

    rows: list[dict] = []
    inputs, oracle_jobs = {}, []
    for sid in sorted(data):
        test, days = _test_days(data[sid])
        predictions = {}
        for name in sorted(config.models):
            fdays, predictions[name] = load_forecasts(config, sid, name)
            if fdays != days:
                raise DataError(f"forecast days for {sid}/{name} do not match the "
                                f"test split")
            for k, proc in enumerate(("pickups", "returns")):
                metrics = point_metrics(test.counts[..., k].ravel(),
                                        predictions[name][..., k].ravel())
                rows += [{"station": sid, "date": "test", "model": name,
                          "metric": f"{metric}_{proc}", "value": value}
                         for metric, value in metrics.items()]
        decisions = read(config, "decisions", parse_decisions, sorted(predictions), days,
                         capacities[sid], sid=sid)
        events = read(config, "events", events_from_csv, sid, sid=sid)
        inputs[sid] = (predictions, decisions, test, [events.slice_day(d) for d in days])
        oracle_jobs += [(day, config.interval_minutes, capacities[sid], penalties)
                        for day in test.counts]
    oracle = iter(_in_lanes(oracle_decision, oracle_jobs))
    for sid, (predictions, decisions, test, day_events) in inputs.items():
        decisions["oracle"] = [next(oracle).s_star for _ in day_events]
        rows += benchmark(predictions, decisions, day_events, test, capacities[sid], penalties)
    metrics = rows_to_csv(rows, ("station", "date", "model", "metric", "value"))
    write(config, "report", metrics, name="metrics.csv")
    summary = rows_to_csv(summarize(rows), ("model", "mean_cost", "rpd", "mean_ce"))
    write(config, "report", summary, name="summary.csv")


@Stage("bias-study", "decision sensitivity to forecast bias on a synthetic day")
def stage_bias(config: RunConfig) -> None:
    """Bias study on the bundled peaked synthetic day, into ``reports/bias_curves.csv``:
    the kind, delta, s_star and cost of each row :func:`bias_study` returns,
    over the grid of the config's ``bias_delta_max`` and ``bias_delta_step``."""
    penalties = PenaltyConfig(config.lost_pickup_penalty, config.lost_return_penalty)
    day_counts, day_events = peaked_day(seed=config.bias_seed,
                                        interval_minutes=config.interval_minutes)
    rows = bias_study(day_counts, day_events, config.bias_capacity,
                      default_delta_grid(config.bias_delta_max, config.bias_delta_step),
                      penalties)
    write(config, "report", rows_to_csv(rows, ("kind", "delta", "s_star", "cost")),
          name="bias_curves.csv")


def run_pipeline(config: RunConfig) -> None:
    """Run every stage of :data:`STAGES` in order; deterministic given config
    and seed.

    The ``demand/`` files are read once, by the first stage that reads them
    after stage_ingest writes them, and each stage passes the result on to the
    next (:class:`Stage`). It is what each of them reads when run alone, so
    the run scores what the files hold. Each stage
    is called by its module-level name, so that a wrapper put in its place
    is the one called.
    """
    data = None
    for name in STAGES:
        data = globals()[f"stage_{name}"](config, data)
