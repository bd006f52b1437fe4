"""Bias-sensitivity study and the staged pipeline runner.

The bias study perturbs a day's realized counts-as-rates by a growing margin
delta, in the same direction for both processes or in opposing directions,
and tracks how the inventory decision and its replayed cost move.

The pipeline is a chain of stages (ingest, train, forecast, optimize,
evaluate, bias) that communicate through files under the run's output
directory. Each stage can run on its own provided its upstream artifacts
exist, and then reads them itself. ``run_pipeline`` runs them all in order
and reads the ``demand/`` files once, after ingest writes them, for the
three stages that need them. Every text artifact starts with a comment
carrying the config hash and seed.
"""

from __future__ import annotations

import io
import os
import sys
from dataclasses import dataclass, field, replace
from datetime import date, timedelta

import numpy as np

from . import classical, neural
from .config import RunConfig, derive_seed
from .errors import BikecastError, DataError, RowError, StageError, TrainingError
from .evaluate import (
    BenchmarkResult,
    DecisionSummary,
    benchmark,
    cumulative_error,
    point_metrics,
    replay_cost,
    rows_to_csv,
    rpd,
    summaries_to_csv,
)
from .ingest import (
    TRIP_COLUMNS,
    DemandSeries,
    EventStream,
    TripTable,
    _open_text,
    aggregate,
    build_covariates,
    demand_from_csv,
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


@dataclass
class BiasCurve:
    kind: str
    deltas: np.ndarray
    s_star: np.ndarray
    cost: np.ndarray
    ce: np.ndarray


@dataclass
class BiasStudyResult:
    curves: dict[str, BiasCurve]
    oracle_s: int
    oracle_cost: float

    def to_csv(self) -> str:
        lines = ["kind,delta,s_star,cost"]
        for kind in BIAS_KINDS:
            curve = self.curves[kind]
            for d, s, c in zip(curve.deltas, curve.s_star, curve.cost):
                lines.append(f"{kind},{d:.10g},{int(s)},{c:.10g}")
        return "\n".join(lines) + "\n"


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


def default_delta_grid(delta_max: float = 25.0, step: float = 0.5) -> np.ndarray:
    n = int(round(delta_max / step))
    return np.arange(n + 1) * step


def bias_study(day_counts: DemandSeries, events: EventStream, capacity: int,
               penalties: PenaltyConfig = PenaltyConfig(),
               delta_grid: np.ndarray | None = None) -> BiasStudyResult:
    """Decision and replay cost under each bias pattern across the delta grid.

    The unbiased rates are the day's realized counts-as-rates, so delta=0
    reproduces the perfect-information oracle decision for every pattern.
    The grid's curves are solved in one batch over the lanes of
    :func:`_in_lanes`, each distinct biased series once (:func:`_solve`):
    delta=0 is the same series for every pattern.
    """
    if day_counts.n_days != 1:
        raise DataError("bias study expects exactly one day of counts")
    if delta_grid is None:
        delta_grid = default_delta_grid()
    base = RateSeries(
        interval_minutes=day_counts.interval_minutes,
        pickup_rates=day_counts.pickups.astype(float),
        return_rates=day_counts.returns.astype(float),
    )
    biased = {kind: [apply_bias(base, BiasSpec(kind, float(d))) for d in delta_grid]
              for kind in BIAS_KINDS}
    solved = iter(_solve([(rates, capacity, penalties)
                          for kind in BIAS_KINDS for rates in biased[kind]]))
    curves = {}
    for kind in BIAS_KINDS:
        s_stars = np.array([next(solved).s_star for _ in delta_grid], dtype=int)
        costs = np.array([replay_cost(events, s, capacity, penalties).cost
                          for s in s_stars.tolist()], dtype=float)
        ces = np.array([cumulative_error(day_counts.pickups, day_counts.returns,
                                         rates.pickup_rates, rates.return_rates)
                        for rates in biased[kind]], dtype=float)
        curves[kind] = BiasCurve(kind=kind, deltas=delta_grid.astype(float),
                                 s_star=s_stars, cost=costs, ce=ces)
    oracle_s = int(curves["same_side"].s_star[0])
    oracle_cost = float(curves["same_side"].cost[0])
    return BiasStudyResult(curves=curves, oracle_s=oracle_s, oracle_cost=oracle_cost)


# -- pipeline stages ----------------------------------------------------------


@dataclass
class StationData:
    station: str
    capacity: int
    series: DemandSeries


@dataclass
class PipelineResult:
    out_dir: str
    overall: list[DecisionSummary]
    per_station: dict[str, BenchmarkResult]
    metrics_rows: list[dict]
    bias: BiasStudyResult
    artifacts: list[str] = field(default_factory=list)


class _stage:
    """Re-raise stage failures with the stage name attached."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and not isinstance(exc, StageError) and isinstance(
                exc, (BikecastError, OSError, ValueError, KeyError)):
            raise StageError(self.name, str(exc)) from exc
        return False


def _write(path: str, text: str, header: str = "") -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as fh:
        if header:
            fh.write(header)
        fh.write(text)
    return path


def _require(path: str, produced_by: str) -> str:
    if not os.path.exists(path):
        raise DataError(f"missing artifact {path}; run the {produced_by} stage first")
    return path


def _read_commented(path: str) -> str:
    with open(path) as fh:
        return "".join(ln for ln in fh if not ln.startswith("#"))


def _data_rows(path: str) -> list[tuple[int, str]]:
    """``(physical line number, line)`` of each row of ``path`` after the
    comment lines and the column header, without its line break."""
    with open(path) as fh:
        return [(n, line.rstrip("\r\n")) for n, line in enumerate(fh, 1)
                if not line.startswith("#")][1:]


def _blank_comments(lines):
    """``lines`` with each comment line (starting with #) made blank, so a
    reader that skips blank lines still numbers the others as in the file."""
    return ("\n" if line.startswith("#") else line for line in lines)


def stage_ingest(config: RunConfig) -> dict[str, StationData]:
    """Parse the inputs, here and nowhere else, and write the ``demand/`` files.

    The trip file is parsed in byte ranges over the lanes of :func:`_in_lanes`
    (:func:`_read_trips`), into the table one :func:`parse_trips` call reads.
    Each selected station gets ``station_<sid>.csv`` (interval counts of the
    whole range) and ``events_<sid>.csv``: the events of the days of
    ``split(series).test``, the only ones evaluate replays. A day range that
    :func:`split` refuses fails here. The run gets ``weather.csv``.
    Covariates check the weather and go only into the returned series.
    """
    with _stage("ingest"):
        capacities = parse_stations(_require_input(config.stations_path))
        trips = _read_trips(_require_input(config.trips_path))
        selected = list(config.stations) or top_stations(trips, config.top_n)
        missing = [s for s in selected if s not in capacities]
        if missing:
            raise DataError(f"stations without metadata: {missing}")
        streams = to_event_streams(trips, selected)
        weather = parse_weather(_require_input(config.weather_path))
        day_range = (config.start_date, config.end_date)
        covariates = build_covariates(weather, day_range, config.interval_minutes)
        header = config.artifact_header()
        data: dict[str, StationData] = {}
        lines = ["station_id,capacity"]
        for sid in selected:
            if sid not in streams:
                raise DataError(f"station {sid} has no events in the trip file")
            series = aggregate(streams[sid], config.interval_minutes, day_range)
            test = split(series).test
            _write(_demand_path(config, sid), demand_to_csv(series), header)
            _write(_events_path(config, sid), events_to_csv(
                streams[sid].slice_day(test.start.date(), test.n_days)), header)
            data[sid] = StationData(station=sid, capacity=capacities[sid],
                                    series=replace(series, covariates=covariates))
            lines.append(f"{sid},{capacities[sid]}")
        _write(_weather_path(config), weather_to_csv(weather), header)
        _write(_selected_path(config), "\n".join(lines) + "\n", header)
        return data


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
    its header is not one unquoted line that names every trip column, or when
    a range fails or its worker dies: a cut inside a quoted field can break
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
    index = {name: i for i, name in enumerate(line.decode("latin-1").split(","))}
    if len(cuts) < 2 or b'"' in line or b"\r" in line or not index.keys() >= set(TRIP_COLUMNS):
        return parse_trips(path)
    row = [""] * len(index)
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


def _demand_path(config: RunConfig, sid: str) -> str:
    return os.path.join(config.out_dir, "demand", f"station_{sid}.csv")


def _events_path(config: RunConfig, sid: str) -> str:
    return os.path.join(config.out_dir, "demand", f"events_{sid}.csv")


def _weather_path(config: RunConfig) -> str:
    return os.path.join(config.out_dir, "demand", "weather.csv")


def _selected_path(config: RunConfig) -> str:
    return os.path.join(config.out_dir, "demand", "stations_selected.csv")


def _model_path(config: RunConfig, sid: str, name: str) -> str:
    return os.path.join(config.out_dir, "models", f"{sid}_{name}.json")


def _checkpoint_path(config: RunConfig, sid: str, label: str) -> str:
    return os.path.join(config.out_dir, "models", f"{sid}_{label.replace(':', '_')}.ckpt")


def _forecast_path(config: RunConfig, sid: str, name: str) -> str:
    return os.path.join(config.out_dir, "forecasts", f"{sid}_{name}.csv")


def _decisions_path(config: RunConfig, sid: str) -> str:
    return os.path.join(config.out_dir, "decisions", f"{sid}.csv")


def _load_capacities(config: RunConfig) -> dict[str, int]:
    """The selected stations and their capacities, as stage_ingest wrote them.
    A row that does not parse or names a station again raises
    :class:`RowError` with the path and its line."""
    path = _require(_selected_path(config), "ingest")
    capacities: dict[str, int] = {}
    for n, line in _data_rows(path):
        try:
            sid, cap = line.split(",")
            cap = int(cap)
        except ValueError:
            raise RowError(n, f"expected station_id,capacity, got {line!r}", path) from None
        if sid in capacities:
            raise RowError(n, f"station {sid} is listed twice", path)
        capacities[sid] = cap
    return capacities


def load_ingested(config: RunConfig) -> dict[str, StationData]:
    """Read back the ``demand/`` files of stage_ingest; the covariates are not
    stored but rebuilt from ``demand/weather.csv``, once for all stations."""
    capacities = _load_capacities(config)
    with _open_text(_require(_weather_path(config), "ingest")) as stream:
        weather = parse_weather(_blank_comments(stream))
    covariates = build_covariates(weather, (config.start_date, config.end_date),
                                  config.interval_minutes)
    data: dict[str, StationData] = {}
    for sid, capacity in capacities.items():
        series = demand_from_csv(
            _require(_demand_path(config, sid), "ingest"), sid, config.interval_minutes)
        data[sid] = StationData(station=sid, capacity=capacity,
                                series=replace(series, covariates=covariates))
    return data


def _train_config(config: RunConfig) -> neural.TrainConfig:
    return neural.TrainConfig(
        hidden_width=config.hidden_width,
        learning_rate=config.learning_rate,
        batch_days=config.batch_days,
        max_epochs=config.max_epochs,
        patience=config.patience,
    )


# Each neural model is a list of nets, (label, targets). movprnn models both
# processes jointly; prnn and vprnn fit one net per process. The label names
# the net's checkpoint and its train and forecast seeds.
NEURAL_NETS = {
    "movprnn": [("movprnn", ("pickups", "returns"))],
    "prnn": [("prnn:pickups", ("pickups",)), ("prnn:returns", ("returns",))],
    "vprnn": [("vprnn:pickups", ("pickups",)), ("vprnn:returns", ("returns",))],
}


# kinds by their time per epoch, longest first: the lanes start the long nets first
_TRAIN_ORDER = ("movprnn", "vprnn", "prnn")


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


def stage_train(config: RunConfig,
                data: dict[str, StationData] | None = None) -> dict[str, dict]:
    """Fit every configured model per station and write model artifacts.

    One job is one net of one station. The jobs train over the lanes of
    :func:`_in_lanes`, longest kinds first; each net has its own seed, so its
    bits do not depend on its lane. This process then writes every checkpoint,
    in job order, and fits the classical models. ``data`` is what
    :func:`load_ingested` returns, read here when not given; the stage does
    not write to it.
    """
    with _stage("train"):
        data = load_ingested(config) if data is None else data
        train_cfg = _train_config(config)
        header = config.artifact_header()
        parts = {sid: split(data[sid].series) for sid in sorted(data)}
        jobs = sorted(((sid, name, label, targets) for sid in parts
                       for name in sorted(config.models) if name in NEURAL_NETS
                       for label, targets in NEURAL_NETS[name]),
                      key=lambda job: _TRAIN_ORDER.index(job[1]))
        trained = _in_lanes(neural.train, [
            (name, parts[sid], train_cfg, derive_seed(config.seed, f"train:{sid}:{label}"),
             targets) for sid, name, label, targets in jobs])
        nets = {(sid, label): net for (sid, _, label, _), net in zip(jobs, trained)}
        fitted: dict[str, dict] = {}
        for sid in parts:
            fitted[sid] = {}
            for name in sorted(config.models):
                if name == "ma":
                    continue  # fitted per forecast day from the rolling window
                if name in NEURAL_NETS:
                    model = [nets[sid, label] for label, _ in NEURAL_NETS[name]]
                    for (label, _), net in zip(NEURAL_NETS[name], model):
                        neural.save_checkpoint(net, _checkpoint_path(config, sid, label))
                else:
                    model = getattr(classical, f"fit_{name}")(parts[sid].train)
                    _write(_model_path(config, sid, name),
                           header + classical.model_to_json(model) + "\n")
                fitted[sid][name] = model
        return fitted


def load_models(config: RunConfig, stations: list[str]) -> dict[str, dict]:
    """Read back what stage_train wrote; a neural model is the list of its nets."""
    fitted: dict[str, dict] = {}
    for sid in stations:
        fitted[sid] = {}
        for name in sorted(config.models):
            if name == "ma":
                fitted[sid][name] = None
            elif name in NEURAL_NETS:
                fitted[sid][name] = [
                    neural.load_checkpoint(
                        _require(_checkpoint_path(config, sid, label), "train"))
                    for label, _ in NEURAL_NETS[name]]
            else:
                path = _require(_model_path(config, sid, name), "train")
                fitted[sid][name] = classical.model_from_json(_read_commented(path))
    return fitted


def _test_days(series: DemandSeries) -> tuple[DemandSeries, list[date]]:
    test = split(series).test
    first = test.start.date()
    return test, [first + timedelta(days=i) for i in range(test.n_days)]


def _rate_series_csv(days: list[date], series_list: list[RateSeries]) -> str:
    lines = ["date,slot,pickup_rate,return_rate"]
    for day, rates in zip(days, series_list):
        for slot in range(len(rates)):
            lines.append(f"{day.isoformat()},{slot},"
                         f"{rates.pickup_rates[slot]:.10g},{rates.return_rates[slot]:.10g}")
    return "\n".join(lines) + "\n"


def stage_forecast(config: RunConfig, data: dict[str, StationData] | None = None
                   ) -> dict[str, dict[str, list[RateSeries]]]:
    """Predict every test day with every model; one CSV per station and model.

    ``data`` is what :func:`load_ingested` returns, read here when not given;
    the stage does not write to it."""
    with _stage("forecast"):
        data = load_ingested(config) if data is None else data
        fitted = load_models(config, sorted(data))
        header = config.artifact_header()
        predictions: dict[str, dict[str, list[RateSeries]]] = {}
        for sid in sorted(data):
            series = data[sid].series
            test, days = _test_days(series)
            covariates = test.covariates.values.reshape(len(days), test.intervals_per_day, -1)
            predictions[sid] = {}
            for name in sorted(config.models):
                model = fitted[sid][name]
                if name == "ha":
                    rates = [model.predict_day(day) for day in days]
                elif name == "ma":
                    rates = [classical.fit_ma(series, day, window_days=config.ma_window_days)
                             .predict_day(day) for day in days]
                elif name == "lr":
                    rates = [model.predict_day(test.day(i).covariates, config.interval_minutes)
                             for i in range(len(days))]
                else:
                    # one call per net for the whole test split, one seed per day;
                    # the nets' process columns side by side give (days, steps, 2)
                    stacked = np.concatenate([
                        neural.predict_rates(
                            net, covariates, n_samples=config.forecast_samples,
                            seed=[derive_seed(config.seed, f"forecast:{sid}:{label}:{day}")
                                  for day in days])
                        for (label, _), net in zip(NEURAL_NETS[name], model)], axis=2)
                    rates = [RateSeries(interval_minutes=config.interval_minutes,
                                        pickup_rates=day_rates[:, 0],
                                        return_rates=day_rates[:, 1])
                             for day_rates in stacked]
                predictions[sid][name] = rates
                _write(_forecast_path(config, sid, name), _rate_series_csv(days, rates), header)
        return predictions


def load_forecasts(config: RunConfig, sid: str, name: str,
                   interval_minutes: int) -> tuple[list[date], list[RateSeries]]:
    """Each day's forecast, as stage_forecast wrote it, in date order.

    The rows of each day must number its slots 0 to n - 1 in order, n being
    the intervals of ``interval_minutes`` in a day. A row that breaks this or
    does not parse raises :class:`RowError` with the path and its line; a day
    that ends early, at its last row.
    """
    path = _require(_forecast_path(config, sid, name), "forecast")
    slots = 1440 // interval_minutes
    by_day: dict[date, list[tuple[float, float]]] = {}
    last_line: dict[date, int] = {}
    for n, line in _data_rows(path):
        try:
            day, slot, p, r = line.split(",")
            day, slot, rates = date.fromisoformat(day), int(slot), (float(p), float(r))
        except ValueError:
            raise RowError(n, f"expected date,slot,pickup_rate,return_rate, got {line!r}",
                           path) from None
        day_rows = by_day.setdefault(day, [])
        if slot != len(day_rows) or slot >= slots:
            raise RowError(n, f"slot {slot} of {day} out of order: expected slot "
                              f"{len(day_rows)} of 0 to {slots - 1} "
                              f"({interval_minutes} minutes)", path)
        day_rows.append(rates)
        last_line[day] = n
    short = [day for day in by_day if len(by_day[day]) < slots]
    if short:
        day = min(short, key=last_line.get)
        raise RowError(last_line[day], f"{day} ends at slot {len(by_day[day]) - 1} of 0 to "
                                       f"{slots - 1} ({interval_minutes} minutes)", path)
    days = sorted(by_day)
    series_list = [
        RateSeries(interval_minutes=interval_minutes,
                   pickup_rates=np.array([p for p, _ in by_day[d]]),
                   return_rates=np.array([r for _, r in by_day[d]]))
        for d in days
    ]
    return days, series_list


def stage_optimize(config: RunConfig) -> dict[str, dict[str, list[int]]]:
    """Turn every forecast into a starting-inventory decision.

    The curves are solved in one batch over the lanes (:func:`_solve`). A
    forecast that repeats another, with the same capacity and penalties,
    shares its curve: HA repeats by weekday.
    """
    with _stage("optimize"):
        capacities = _load_capacities(config)
        penalties = PenaltyConfig(config.lost_pickup_penalty, config.lost_return_penalty)
        header = config.artifact_header()
        forecasts = {(sid, name): load_forecasts(config, sid, name, config.interval_minutes)
                     for sid in sorted(capacities) for name in sorted(config.models)}
        curves = iter(_solve([(rates, capacities[sid], penalties)
                              for (sid, _), (_, series_list) in forecasts.items()
                              for rates in series_list]))
        decisions: dict[str, dict[str, list[int]]] = {}
        for sid in sorted(capacities):
            decisions[sid] = {}
            lines = ["date,model,s_star,expected_cost"]
            for name in sorted(config.models):
                days, _ = forecasts[sid, name]
                picks = []
                for day in days:
                    curve = next(curves)
                    picks.append(curve.s_star)
                    lines.append(f"{day.isoformat()},{name},{curve.s_star},"
                                 f"{curve.values[curve.s_star]:.12g}")
                decisions[sid][name] = picks
            _write(_decisions_path(config, sid), "\n".join(lines) + "\n", header)
        return decisions


def _load_decisions(config: RunConfig, sid: str, names: list[str],
                    days: list[date]) -> dict[str, list[int]]:
    """Each model's s* per day, as stage_optimize wrote them. A row that does
    not parse or repeats a (date, model) raises :class:`RowError` with the
    path and its line."""
    path = _require(_decisions_path(config, sid), "optimize")
    s_star: dict[tuple[date, str], int] = {}
    for n, line in _data_rows(path):
        try:
            day, name, s, cost = line.split(",")
            key, s = (date.fromisoformat(day), name), int(s)
            float(cost)
        except ValueError:
            raise RowError(n, f"expected date,model,s_star,expected_cost, got {line!r}",
                           path) from None
        if key in s_star:
            raise RowError(n, f"a second decision for {name} on {day}", path)
        s_star[key] = s
    decisions: dict[str, list[int]] = {}
    for name in names:
        missing = [d for d in days if (d, name) not in s_star]
        if missing:
            raise DataError(f"{path} has no decision for {name} on {missing[0]}; "
                            f"run the optimize stage again")
        decisions[name] = [s_star[d, name] for d in days]
    return decisions


def stage_evaluate(config: RunConfig, data: dict[str, StationData] | None = None
                   ) -> tuple[list[DecisionSummary], dict[str, BenchmarkResult], list[dict]]:
    """Score every model's decisions and forecasts against replayed reality.

    The decisions are the s* that stage_optimize wrote per station; they are
    replayed, not solved again. The perfect-information oracle's s* of every
    station-day is solved here, in one batch over the lanes of
    :func:`_in_lanes`, and replayed likewise. The forecasts give CE and the
    point metrics. The replayed events are the test days' that stage_ingest
    kept per station; the trip file itself is not read again. ``data`` is
    what :func:`load_ingested` returns, read here when not given; the stage
    does not write to it.
    """
    with _stage("evaluate"):
        data = load_ingested(config) if data is None else data
        penalties = PenaltyConfig(config.lost_pickup_penalty, config.lost_return_penalty)
        header = config.artifact_header()

        inputs, oracle_jobs = {}, []
        for sid in sorted(data):
            test, days = _test_days(data[sid].series)
            predictions = {}
            for name in sorted(config.models):
                fdays, forecasts = load_forecasts(config, sid, name,
                                                  config.interval_minutes)
                if fdays != days:
                    raise DataError(f"forecast days for {sid}/{name} do not match the "
                                    f"test split")
                predictions[name] = forecasts
            decisions = _load_decisions(config, sid, sorted(predictions), days)
            day_counts = [test.day(i) for i in range(test.n_days)]
            events = events_from_csv(_require(_events_path(config, sid), "ingest"), sid)
            inputs[sid] = (test, predictions, decisions, day_counts,
                           [events.slice_day(d) for d in days])
            oracle_jobs += [(counts, data[sid].capacity, penalties) for counts in day_counts]
        oracle = iter(_in_lanes(oracle_decision, oracle_jobs))

        all_rows: list[dict] = []
        metrics_rows: list[dict] = []
        per_station: dict[str, BenchmarkResult] = {}
        cost_acc: dict[str, list[float]] = {}
        ce_acc: dict[str, list[float]] = {}
        oracle_acc: list[float] = []
        for sid, (test, predictions, decisions, day_counts, day_events) in inputs.items():
            decisions["oracle"] = [next(oracle).s_star for _ in day_counts]
            result = benchmark(predictions, decisions, day_events, day_counts,
                               data[sid].capacity, penalties)
            per_station[sid] = result
            all_rows.extend(result.rows)
            for summary in result.summaries:
                if summary.model == "oracle":
                    oracle_acc.append(summary.mean_cost)
                else:
                    cost_acc.setdefault(summary.model, []).append(summary.mean_cost)
                    ce_acc.setdefault(summary.model, []).append(summary.mean_ce)
            for name in sorted(config.models):
                pred_p = np.concatenate([r.pickup_rates for r in predictions[name]])
                pred_r = np.concatenate([r.return_rates for r in predictions[name]])
                for proc, actual, pred in (("pickups", test.pickups, pred_p),
                                           ("returns", test.returns, pred_r)):
                    rep = point_metrics(actual, pred)
                    for metric in ("rmse", "mae", "r_squared"):
                        value = getattr(rep, metric)
                        if value is None:
                            continue
                        metrics_rows.append({"station": sid, "date": "test",
                                             "model": name,
                                             "metric": f"{metric}_{proc}",
                                             "value": float(value)})

        mean_oracle = float(np.mean(oracle_acc)) if oracle_acc else 0.0
        overall = [DecisionSummary(model="oracle", mean_cost=mean_oracle,
                                   rpd=rpd(mean_oracle, mean_oracle), mean_ce=0.0)]
        for name in sorted(cost_acc):
            mean_cost = float(np.mean(cost_acc[name]))
            overall.append(DecisionSummary(
                model=name, mean_cost=mean_cost, rpd=rpd(mean_cost, mean_oracle),
                mean_ce=float(np.mean(ce_acc[name]))))
        _write(os.path.join(config.out_dir, "reports", "metrics.csv"),
               rows_to_csv(metrics_rows + all_rows), header)
        _write(os.path.join(config.out_dir, "reports", "summary.csv"),
               summaries_to_csv(overall), header)
        return overall, per_station, metrics_rows


def stage_bias(config: RunConfig) -> BiasStudyResult:
    """Bias study on the bundled peaked synthetic day."""
    with _stage("bias"):
        penalties = PenaltyConfig(config.lost_pickup_penalty, config.lost_return_penalty)
        day_counts, day_events = peaked_day(seed=config.bias_seed,
                                            interval_minutes=config.interval_minutes)
        study = bias_study(day_counts, day_events, config.bias_capacity, penalties,
                           default_delta_grid(config.bias_delta_max,
                                              config.bias_delta_step))
        _write(os.path.join(config.out_dir, "reports", "bias_curves.csv"),
               study.to_csv(), config.artifact_header())
        return study


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Run every stage in order; deterministic given config and seed.

    The ``demand/`` files are read once, after stage_ingest writes them, and
    the result goes to train, forecast and evaluate. It is what each of them
    reads when run alone, not what ingest returns, so the run scores what the
    files hold.
    """
    stage_ingest(config)
    with _stage("train"):  # a failed read fails as train, its first reader, would
        data = load_ingested(config)
    stage_train(config, data)
    stage_forecast(config, data)
    stage_optimize(config)
    overall, per_station, metrics_rows = stage_evaluate(config, data)
    study = stage_bias(config)
    artifacts = []
    for root, _dirs, files in os.walk(config.out_dir):
        for name in sorted(files):
            artifacts.append(os.path.join(root, name))
    return PipelineResult(out_dir=config.out_dir, overall=overall,
                          per_station=per_station, metrics_rows=metrics_rows,
                          bias=study, artifacts=sorted(artifacts))
