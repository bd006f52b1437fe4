"""Predictive metrics and prescriptive cost evaluation.

The prescriptive side scores a forecaster by what its forecasts cost: replay
the day's actual events against the starting inventory that the optimize
stage chose from the forecast, and count shortages. Evaluation replays those
decisions; it does not make them again. The oracle benchmark uses the
realized counts of the day as if they were the true rates (perfect
information); the evaluate stage solves it, because only evaluation reads the
realized counts, and this module replays its decision as it replays a
model's. Nothing here solves a UDF. The realized counts of the test split
(:class:`.ingest.DemandSeries`) and each forecast are both (days, slots, 2)
arrays, pickups then returns, so day i of one is scored against day i of the
other.

A replay gives the cost of every start at once (:func:`replay_cost`). Each
event moves the inventory by x -> clip(x +- 1, 0, C), and a composition of
such moves is again a clip map, x -> clip(x + a, lo, hi): a is the unclipped
net flow so far, and lo and hi are the trajectories from 0 and from C. So two
replays, from 0 and from C, tell for every event the starts at which it is
lost. This is the discrete form of the Skorokhod map on [0, C] (Kruk,
Lehoczky, Ramanan & Shreve, "An explicit formula for the Skorokhod map on
[0, a]", Ann. Probab. 2007). Each station-day is replayed once, and every
decision of that day reads its cost off the one curve.

Scores travel as report rows, one dict per row: :func:`benchmark` returns
one per station-day, model and metric, :func:`summarize` reduces those to
one per model, and :func:`rows_to_csv` writes every report of a run.
"""

from __future__ import annotations

import csv
import io
from datetime import timedelta

import numpy as np

from .errors import DataError
from .ingest import PICKUP, DemandSeries, EventStream
from .inventory import PenaltyConfig


def point_metrics(actual: np.ndarray, predicted: np.ndarray) -> dict[str, float]:
    """RMSE, MAE and coefficient of determination of a point forecast, by
    name and in that order.

    R² uses total variation about the actuals' own mean; a constant actual
    series has no variation to explain, and ``r_squared`` is left out.
    """
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape or actual.ndim != 1:
        raise DataError("actual and predicted must be 1-D and equal length")
    if len(actual) < 2:
        raise DataError("need at least 2 points")
    err = actual - predicted
    metrics = {"rmse": float(np.sqrt(np.mean(err ** 2))), "mae": float(np.mean(np.abs(err)))}
    sst = float(np.sum((actual - actual.mean()) ** 2))
    if sst != 0:
        metrics["r_squared"] = 1.0 - float(np.sum(err ** 2)) / sst
    return metrics


def replay_cost(events: EventStream, capacity: int,
                penalties: PenaltyConfig = PenaltyConfig()) -> np.ndarray:
    """The replayed cost of one day's events from every starting inventory:
    a float array whose entry s is the cost from start s, for s in [0, C].

    A pickup at an empty station is lost; a return at a full station is lost;
    either leaves the inventory unchanged. Events are replayed in the order
    the stream keeps them: by time, a pickup before a return at the same
    instant.

    One walk tracks the trajectories from 0 (lo) and from C (hi) and the
    unclipped net flow a, so the inventory from start s is clip(s + a, lo,
    hi). A pickup is lost from every s <= -a when lo = 0 < hi, from every s
    when hi = 0, and from none when lo > 0. A return is lost from every
    s >= C - a when lo < C = hi, from every s when lo = C, and from none when
    hi < C. A count of these thresholds, summed cumulatively, gives the lost
    pickups and returns at every s.
    """
    lo, hi, net = 0, capacity, 0
    pickups_upto, returns_from = [], []  # a pickup is lost from s <= t, a return from s >= t
    for kind in events.kinds.tolist():
        if kind == PICKUP:
            if lo == 0:
                pickups_upto.append(-net if hi > 0 else capacity)
            lo, hi, net = max(lo - 1, 0), max(hi - 1, 0), net - 1
        else:
            if hi == capacity:
                returns_from.append(capacity - net if lo < capacity else 0)
            lo, hi, net = min(lo + 1, capacity), min(hi + 1, capacity), net + 1

    def counts(thresholds: list[int]) -> np.ndarray:
        return np.bincount(np.asarray(thresholds, dtype=np.intp), minlength=capacity + 1)

    lost_pickups = np.cumsum(counts(pickups_upto)[::-1], dtype=float)[::-1]
    lost_returns = np.cumsum(counts(returns_from), dtype=float)
    return penalties.lost_pickup * lost_pickups + penalties.lost_return * lost_returns


def rpd(model_cost: float, oracle_cost: float) -> float | None:
    """Relative difference from oracle cost; undefined when the oracle is free."""
    if oracle_cost < 0 or model_cost < 0:
        raise DataError("costs must be non-negative")
    if oracle_cost == 0:
        return None
    return (model_cost - oracle_cost) / oracle_cost


def cumulative_error(pickup_actual, return_actual, pickup_pred, return_pred) -> float:
    """Absolute summed error of predicted net demand over a day.

    Equal biases on both processes cancel: only the pickup-minus-return
    difference matters to the inventory decision, and this metric tracks it.
    """
    mu = np.asarray(pickup_actual, dtype=float)
    lam = np.asarray(return_actual, dtype=float)
    mu_hat = np.asarray(pickup_pred, dtype=float)
    lam_hat = np.asarray(return_pred, dtype=float)
    if not (mu.shape == lam.shape == mu_hat.shape == lam_hat.shape):
        raise DataError("all four series must share a shape")
    return float(np.abs(np.sum((mu - lam) - (mu_hat - lam_hat))))


def benchmark(predictions: dict[str, np.ndarray], decisions: dict[str, list[int]],
              day_events: list[EventStream], test: DemandSeries, capacity: int,
              penalties: PenaltyConfig = PenaltyConfig()) -> list[dict]:
    """Report rows that score each model's decisions by replayed inventory
    cost, and its forecasts by CE.

    ``predictions`` maps model name to its (days, slots, 2) forecast array,
    pickups then returns, and ``decisions`` maps it to the starting inventory
    chosen from each day of it, both aligned with ``day_events``, one stream
    per day, and with the days of ``test``, whose (days, slots, 2) realized
    counts give CE. ``decisions["oracle"]`` holds each day's
    perfect-information s* (:func:`.inventory.oracle_decision`). The oracle's
    rows come first, then each model's in name order: per day, ``s_star`` and
    ``cost``, and for a model's forecast ``ce``. A row has the keys station,
    date, model, metric and value.

    Each day is replayed once (:func:`replay_cost`), and every s* of that day
    reads its cost off the one curve; an s* outside [0, ``capacity``] is
    refused.
    """
    n_days = test.n_days
    for name, rates in predictions.items():
        if len(rates) != n_days:
            raise DataError(f"model {name!r} supplied {len(rates)} forecasts "
                            f"for {n_days} days")
    for name in ("oracle", *predictions):
        if len(decisions.get(name, ())) != n_days:
            raise DataError(f"model {name!r} needs one decision for each of {n_days} days")
    if len(day_events) != n_days:
        raise DataError("test days and day_events must align")

    costs = [replay_cost(events, capacity, penalties) for events in day_events]
    rows: list[dict] = []
    for name in ("oracle", *sorted(predictions)):
        for i, cost in enumerate(costs):
            s_star = decisions[name][i]
            if not 0 <= s_star <= capacity:
                raise DataError(f"starting inventory {s_star} outside [0, {capacity}]")
            metrics = {"s_star": s_star, "cost": float(cost[s_star])}
            if name in predictions:
                metrics["ce"] = cumulative_error(*test.counts[i].T, *predictions[name][i].T)
            day = (test.first_day + timedelta(days=i)).isoformat()
            rows += [{"station": test.station, "date": day, "model": name, "metric": metric,
                      "value": value} for metric, value in metrics.items()]
    return rows


def summarize(rows: list[dict]) -> list[dict]:
    """One row per model of the ``cost`` rows of ``rows``, in the order of its
    first one: model, mean_cost, rpd against the oracle's mean cost (None when
    undefined) and mean_ce (0 without ``ce`` rows). Each mean is the mean over
    stations of each station's mean over its days."""
    values: dict[tuple[str, str], dict[str, list]] = {}
    for row in rows:
        values.setdefault((row["metric"], row["model"]), {}).setdefault(
            row["station"], []).append(row["value"])

    def mean(metric: str, model: str) -> float:
        by_station = values.get((metric, model), {}).values()
        return float(np.mean([np.mean(days) for days in by_station])) if by_station else 0.0

    costs = {model: mean("cost", model) for metric, model in values if metric == "cost"}
    return [{"model": model, "mean_cost": cost, "rpd": rpd(cost, costs["oracle"]),
             "mean_ce": mean("ce", model)} for model, cost in costs.items()]


def rows_to_csv(rows: list[dict], columns: tuple[str, ...]) -> str:
    """The ``columns`` of ``rows`` as CSV under a header line: a float as
    ``.10g``, None as an empty field, any other value as ``str`` gives it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([f"{row[c]:.10g}" if isinstance(row[c], float) else row[c] for c in columns]
                     for row in rows)
    return out.getvalue()
