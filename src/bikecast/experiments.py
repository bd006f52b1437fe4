"""Bias-sensitivity study, the forecaster registry and the staged pipeline runner.

The bias study perturbs a day's realized counts-as-rates by a growing margin
delta, in the same direction for both processes or in opposing directions,
and tracks how the inventory decision and its replayed cost move.

:data:`FORECASTERS` holds the paper's six forecasters by name: how each is
fitted, kept and read back, and how it forecasts. The stages loop over it.

The pipeline is a chain of stages (ingest, train, forecast, optimize,
evaluate, bias) that return nothing: their files under the run's output
directory, written and read through :mod:`.artifacts`, are their only output.
Each stage can run on its own provided its upstream artifacts exist, and then
reads them itself. ``run_pipeline`` runs them all in order and reads the
``demand/`` files once, after ingest writes them, for the three stages that
need them.
"""

from __future__ import annotations

import csv
import io
import os
import re
import sys
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import date, timedelta

import numpy as np

from . import classical, neural
from .artifacts import (
    DECISION_COLUMNS,
    FORECAST_COLUMNS,
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
from .errors import BikecastError, DataError, StageError, TrainingError
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
    build_covariates,
    demand_to_csv,
    events_from_csv,
    events_to_csv,
    parse_stations,
    parse_trips,
    parse_weather,
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
    pattern.
    """
    if day_counts.n_days != 1:
        raise DataError("bias study expects exactly one day of counts")
    base = RateSeries(
        interval_minutes=day_counts.interval_minutes,
        pickup_rates=day_counts.pickups.astype(float),
        return_rates=day_counts.returns.astype(float),
    )
    biased = [(kind, d, apply_bias(base, BiasSpec(kind, d)))
              for kind in BIAS_KINDS for d in map(float, delta_grid)]
    curves = _solve([(rates, capacity, penalties) for _, _, rates in biased])
    return [{"kind": kind, "delta": delta, "s_star": curve.s_star,
             "cost": replay_cost(events, curve.s_star, capacity, penalties).cost,
             "ce": cumulative_error(day_counts.pickups, day_counts.returns,
                                    rates.pickup_rates, rates.return_rates)}
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


# a station id names files under out_dir and leads the rows of CSV artifacts:
# it may not climb or nest directories, need quoting, or begin with # and so
# read as a comment line to readers that skip them
_REFUSED_ID = re.compile(r'[/\\,"\x00-\x1f\x7f-\x9f]|\A#|\A\.\.?\Z')


def stage_ingest(config: RunConfig) -> None:
    """Parse the inputs, here and nowhere else, and write the ``demand/`` files.

    The trip file is parsed in byte ranges over the lanes of :func:`_in_lanes`
    (:func:`_read_trips`), into the table one :func:`parse_trips` call reads.
    Each selected station gets ``station_<sid>.csv`` (interval counts of the
    whole range) and ``events_<sid>.csv``: the events of the days of
    ``split(series).test``, the only ones evaluate replays. A day range that
    :func:`split` refuses fails here. The run gets ``weather.csv``.
    Covariates are built only to refuse weather that does not cover the range.
    A selected station id that cannot name a file or lead a CSV row
    (:data:`_REFUSED_ID`) fails before anything is written.
    """
    with _stage("ingest"):
        capacities = parse_stations(_require_input(config.stations_path))
        trips = _read_trips(_require_input(config.trips_path))
        selected = list(config.stations) or top_stations(trips, config.top_n)
        refused = [s for s in selected if _REFUSED_ID.search(s)]
        if refused:
            raise DataError(f"station ids that cannot name a file or lead a CSV row: {refused}")
        missing = [s for s in selected if s not in capacities]
        if missing:
            raise DataError(f"stations without metadata: {missing}")
        streams = to_event_streams(trips, selected)
        weather = parse_weather(_require_input(config.weather_path))
        day_range = (config.start_date, config.end_date)
        build_covariates(weather, day_range, config.interval_minutes)
        lines = [",".join(STATION_COLUMNS)]
        for sid in selected:
            if sid not in streams:
                raise DataError(f"station {sid} has no events in the trip file")
            series = aggregate(streams[sid], config.interval_minutes, day_range)
            test = split(series).test
            write(config, "demand", demand_to_csv(series), sid)
            write(config, "events", events_to_csv(
                streams[sid].slice_day(test.start.date(), test.n_days)), sid)
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
    with io.TextIOWrapper(io.BytesIO(head + body + sentinel), newline="") as stream:
        columns = list(vars(parse_trips(stream)).values())
    if not all(np.array_equal(column[-1:], np.array([value], column.dtype))
               for column, value in zip(columns, _SENTINEL)):
        raise DataError(f"bytes {start}:{stop} of {path} do not end where a row ends")
    return TripTable(*(column[:-1] for column in columns))


def _read_trips(path: str) -> TripTable:
    """:func:`parse_trips` of ``path``, over the lanes of :func:`_in_lanes` in
    byte ranges cut at line breaks about every :data:`_RANGE_BYTES`, each one
    after a copy of the header line and before a sentinel row.

    The file is parsed whole when it has one range or the host one core, when
    its header line, split by ``csv.reader`` as :func:`parse_trips` splits it,
    ends inside a quoted field, holds a CR or lacks a trip column, or when a
    range fails or its worker dies: a cut inside a quoted field can break
    the rows on both sides of it, and the serial parse reads them right or
    raises the serial error.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        size = os.fstat(fh.fileno()).st_size
        cuts = [len(head)]
        while cuts[-1] + _RANGE_BYTES < size and _cores() > 1:
            fh.seek(cuts[-1] + _RANGE_BYTES - 1)
            fh.readline()
            cuts.append(fh.tell())
    line = head.removesuffix(b"\n").removesuffix(b"\r")
    # split as parse_trips splits it: a quote left open keeps the line feed
    names = [] if b"\r" in line else next(csv.reader([line.decode("latin-1") + "\n"]), [])
    if len(cuts) < 2 or "\n" in "".join(names) or not set(names) >= set(TRIP_COLUMNS):
        return parse_trips(path)
    index = {name: i for i, name in enumerate(names)}
    row = [""] * len(names)
    for name, value in zip(TRIP_COLUMNS, _SENTINEL):
        row[index[name]] = value
    sentinel = ("\n" + ",".join(row)).encode()
    try:
        tables = _in_lanes(_parse_trip_range, [(path, head, sentinel, start, stop)
                                               for start, stop in zip(cuts, cuts[1:] + [size])])
    except (BikecastError, ValueError):
        return parse_trips(path)
    return TripTable(*map(np.concatenate, zip(*(vars(table).values() for table in tables))))


def _require_input(path: str) -> str:
    if not os.path.exists(path):
        raise DataError(f"input file not found: {path}")
    return path


# -- the forecasters ----------------------------------------------------------


def _from_nets(model, config, test, days, **_) -> list[RateSeries]:
    """One :func:`neural.predict_rates` call per net over all test days; the
    nets' process columns side by side give (days, steps, 2)."""
    covariates = test.covariates.reshape(len(days), test.intervals_per_day, -1)
    stacked = np.concatenate([neural.predict_rates(net, covariates) for net in model.values()],
                             axis=2)
    return [RateSeries(interval_minutes=config.interval_minutes,
                       pickup_rates=day_rates[:, 0], return_rates=day_rates[:, 1])
            for day_rates in stacked]


@dataclass(frozen=True)
class Forecaster:
    """What sets one forecaster apart: how it is fitted, kept and forecasts.

    ``forecast(model, config=, series=, test=, days=)`` gives each day's
    :class:`RateSeries` of ``test``, the test split of ``series``, unseeded.
    With ``nets``, the model is one net per ``(label, targets)``, by label:
    trained in a lane from its label's seed and kept in a checkpoint; nets of
    a lower ``train_order`` start first. With a ``fitted`` type,
    ``classical.fit_<name>`` fits it on the train split, and its JSON file must
    hold that type. With neither, it is fitted per forecast day, keeps no file,
    and its model is None.
    """

    forecast: Callable
    fitted: type | None = None
    nets: tuple[tuple[str, tuple[str, ...]], ...] = ()
    train_order: int = 0

    def save(self, model, config: RunConfig, sid: str, name: str) -> None:
        if self.nets:
            for label, net in model.items():
                neural.save_checkpoint(net, path(config, "checkpoint", sid, label))
        elif self.fitted:
            write(config, "model", classical.model_to_json(model) + "\n", sid, name)

    def load(self, config: RunConfig, sid: str, name: str):
        if self.nets:
            return {label: read(config, "checkpoint", parse_checkpoint, name, targets,
                                config.interval_minutes, sid=sid, name=label)
                    for label, targets in self.nets}
        if self.fitted:
            return read(config, "model", parse_model, self.fitted, config.interval_minutes,
                        sid=sid, name=name)
        return None


# The paper's forecasters by name. The nets start by their time per epoch,
# longest first: movprnn, vprnn, prnn.
FORECASTERS = {
    "ha": Forecaster(lambda model, days, **_: [model.predict_day(day) for day in days],
                     fitted=classical.SeasonalProfile),
    "ma": Forecaster(lambda model, config, series, days, **_: [
        classical.fit_ma(series, day, window_days=config.ma_window_days)
        .predict_day(day) for day in days]),
    "lr": Forecaster(lambda model, config, test, days, **_: [
        model.predict_day(test.day(i).covariates, config.interval_minutes)
        for i in range(len(days))], fitted=classical.LinearModel),
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


def stage_train(config: RunConfig, data: dict[str, DemandSeries] | None = None) -> None:
    """Fit every configured model per station and write its files under ``models/``.

    One job is one net of one station. The jobs train over the lanes of
    :func:`_in_lanes`, by ``train_order``; each net has its own seed, so its
    bits do not depend on its lane. This process then fits the classical
    models and writes every model's files. ``data`` is what
    :func:`load_ingested` returns, read here when not given; the stage does
    not write to it.
    """
    with _stage("train"):
        data = load_ingested(config) if data is None else data
        train_cfg = neural.TrainConfig(**{f.name: getattr(config, f.name)
                                          for f in fields(neural.TrainConfig)})
        parts = {sid: split(data[sid]) for sid in sorted(data)}
        jobs = sorted(((sid, name, label, targets) for sid in parts
                       for name in sorted(config.models)
                       for label, targets in FORECASTERS[name].nets),
                      key=lambda job: FORECASTERS[job[1]].train_order)
        trained = _in_lanes(neural.train, [
            (name, parts[sid], train_cfg, derive_seed(config.seed, f"train:{sid}:{label}"),
             targets) for sid, name, label, targets in jobs])
        nets = {(sid, label): net for (sid, _, label, _), net in zip(jobs, trained)}
        for sid in parts:
            for name in sorted(config.models):
                entry = FORECASTERS[name]
                if entry.nets:
                    model = {label: nets[sid, label] for label, _ in entry.nets}
                elif entry.fitted:
                    model = getattr(classical, f"fit_{name}")(parts[sid].train)
                else:
                    continue
                entry.save(model, config, sid, name)


def load_models(config: RunConfig, stations: list[str]) -> dict[str, dict]:
    """Read back each model as stage_train saved it: a classical model, the
    nets by label, or None for a model fitted per forecast day."""
    return {sid: {name: FORECASTERS[name].load(config, sid, name)
                  for name in sorted(config.models)} for sid in stations}


def _test_days(series: DemandSeries) -> tuple[DemandSeries, list[date]]:
    test = split(series).test
    first = test.start.date()
    return test, [first + timedelta(days=i) for i in range(test.n_days)]


def _rate_series_csv(days: list[date], series_list: list[RateSeries]) -> str:
    lines = [",".join(FORECAST_COLUMNS)]
    for day, rates in zip(days, series_list):
        for slot in range(len(rates)):
            lines.append(f"{day.isoformat()},{slot},"
                         f"{rates.pickup_rates[slot]:.10g},{rates.return_rates[slot]:.10g}")
    return "\n".join(lines) + "\n"


def stage_forecast(config: RunConfig, data: dict[str, DemandSeries] | None = None) -> None:
    """Predict every test day with every model; one CSV per station and model.

    ``data`` is what :func:`load_ingested` returns, read here when not given;
    the stage does not write to it."""
    with _stage("forecast"):
        data = load_ingested(config) if data is None else data
        fitted = load_models(config, sorted(data))
        for sid in sorted(data):
            test, days = _test_days(data[sid])
            for name in sorted(config.models):
                rates = FORECASTERS[name].forecast(fitted[sid][name], config=config,
                                                   series=data[sid], test=test, days=days)
                write(config, "forecast", _rate_series_csv(days, rates), sid, name)


def stage_optimize(config: RunConfig) -> None:
    """Decide each forecast day's starting inventory, into ``decisions/<sid>.csv``.

    The curves are solved in one batch over the lanes (:func:`_solve`). A
    forecast that repeats another, with the same capacity and penalties,
    shares its curve: HA repeats by weekday.
    """
    with _stage("optimize"):
        capacities = read(config, "stations", parse_stations)
        penalties = PenaltyConfig(config.lost_pickup_penalty, config.lost_return_penalty)
        forecasts = {(sid, name): load_forecasts(config, sid, name)
                     for sid in sorted(capacities) for name in sorted(config.models)}
        curves = iter(_solve([(rates, capacities[sid], penalties)
                              for (sid, _), (_, series_list) in forecasts.items()
                              for rates in series_list]))
        for sid in sorted(capacities):
            lines = [",".join(DECISION_COLUMNS)]
            for name in sorted(config.models):
                for day in forecasts[sid, name][0]:
                    curve = next(curves)
                    lines.append(f"{day.isoformat()},{name},{curve.s_star},"
                                 f"{curve.values[curve.s_star]:.12g}")
            write(config, "decisions", "\n".join(lines) + "\n", sid)


def stage_evaluate(config: RunConfig, data: dict[str, DemandSeries] | None = None) -> None:
    """Score every model's decisions and forecasts against replayed reality,
    into ``reports/metrics.csv`` and ``reports/summary.csv``.

    The decisions are the s* that stage_optimize wrote per station; they are
    replayed at the capacities of ``demand/stations_selected.csv``, not
    solved again. The perfect-information oracle's s* of every station-day is
    solved here, in one batch over the lanes of :func:`_in_lanes`, and
    replayed likewise. The forecasts give CE and the point metrics. The
    replayed events are the test days' that stage_ingest kept per station;
    the trip file itself is not read again. ``data`` is what
    :func:`load_ingested` returns, read here when not given; the stage does
    not write to it.

    One list of report rows holds it all: per station, the point metrics of
    each model and then the rows :func:`benchmark` returns. ``metrics.csv``
    is that list, and ``summary.csv`` is :func:`summarize` of it.
    """
    with _stage("evaluate"):
        data = load_ingested(config) if data is None else data
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
                for proc, column in (("pickups", "pickup_rates"), ("returns", "return_rates")):
                    rep = point_metrics(getattr(test, proc), np.concatenate(
                        [getattr(rates, column) for rates in predictions[name]]))
                    rows += [{"station": sid, "date": "test", "model": name,
                              "metric": f"{metric}_{proc}", "value": float(getattr(rep, metric))}
                             for metric in ("rmse", "mae", "r_squared")
                             if getattr(rep, metric) is not None]
            decisions = read(config, "decisions", parse_decisions, sorted(predictions), days,
                             capacities[sid], sid=sid)
            day_counts = [test.day(i) for i in range(test.n_days)]
            events = read(config, "events", events_from_csv, sid, sid=sid)
            inputs[sid] = (predictions, decisions, day_counts,
                           [events.slice_day(d) for d in days])
            oracle_jobs += [(counts, capacities[sid], penalties) for counts in day_counts]
        oracle = iter(_in_lanes(oracle_decision, oracle_jobs))
        for sid, (predictions, decisions, day_counts, day_events) in inputs.items():
            decisions["oracle"] = [next(oracle).s_star for _ in day_counts]
            rows += benchmark(predictions, decisions, day_events, day_counts,
                              capacities[sid], penalties)
        metrics = rows_to_csv(rows, ("station", "date", "model", "metric", "value"))
        write(config, "report", metrics, name="metrics.csv")
        summary = rows_to_csv(summarize(rows), ("model", "mean_cost", "rpd", "mean_ce"))
        write(config, "report", summary, name="summary.csv")


def stage_bias(config: RunConfig) -> None:
    """Bias study on the bundled peaked synthetic day, into ``reports/bias_curves.csv``:
    the kind, delta, s_star and cost of each row :func:`bias_study` returns,
    over the grid of the config's ``bias_delta_max`` and ``bias_delta_step``."""
    with _stage("bias"):
        penalties = PenaltyConfig(config.lost_pickup_penalty, config.lost_return_penalty)
        day_counts, day_events = peaked_day(seed=config.bias_seed,
                                            interval_minutes=config.interval_minutes)
        rows = bias_study(day_counts, day_events, config.bias_capacity,
                          default_delta_grid(config.bias_delta_max, config.bias_delta_step),
                          penalties)
        write(config, "report", rows_to_csv(rows, ("kind", "delta", "s_star", "cost")),
              name="bias_curves.csv")


def run_pipeline(config: RunConfig) -> None:
    """Run every stage in order; deterministic given config and seed.

    The ``demand/`` files are read once, after stage_ingest writes them, and
    the result goes to train, forecast and evaluate. It is what each of them
    reads when run alone, so the run scores what the files hold.
    """
    stage_ingest(config)
    with _stage("train"):  # a failed read fails as train, its first reader, would
        data = load_ingested(config)
    stage_train(config, data)
    stage_forecast(config, data)
    stage_optimize(config)
    stage_evaluate(config, data)
    stage_bias(config)
