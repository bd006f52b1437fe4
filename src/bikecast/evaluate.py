"""Predictive metrics and prescriptive cost evaluation.

The prescriptive side scores a forecaster by what its forecasts cost: replay
the day's actual events against the starting inventory that the optimize
stage chose from the forecast, and count shortages. Evaluation replays those
decisions; it does not make them again. The oracle benchmark uses the
realized counts of the day as if they were the true rates (perfect
information); the evaluate stage solves it, because only evaluation reads the
realized counts, and this module replays its decision as it replays a
model's. Nothing here solves a UDF.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ingest import PICKUP, DemandSeries, EventStream
from .inventory import PenaltyConfig
from .queueing import RateSeries


@dataclass
class PredictionReport:
    rmse: float
    mae: float
    r_squared: float | None


@dataclass
class LostSalesReport:
    station: str
    lost_pickups: int
    lost_returns: int
    cost: float


@dataclass
class DecisionSummary:
    model: str
    mean_cost: float
    rpd: float | None
    mean_ce: float


@dataclass
class BenchmarkResult:
    summaries: list[DecisionSummary]
    rows: list[dict]


def point_metrics(actual: np.ndarray, predicted: np.ndarray) -> PredictionReport:
    """RMSE, MAE and coefficient of determination of a point forecast.

    R² uses total variation about the actuals' own mean; a constant actual
    series has no variation to explain and R² is reported as missing.
    """
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape or actual.ndim != 1:
        raise DataError("actual and predicted must be 1-D and equal length")
    if len(actual) < 2:
        raise DataError("need at least 2 points")
    err = actual - predicted
    rmse = float(np.sqrt(np.mean(err ** 2)))
    mae = float(np.mean(np.abs(err)))
    sst = float(np.sum((actual - actual.mean()) ** 2))
    r2 = None if sst == 0 else 1.0 - float(np.sum(err ** 2)) / sst
    return PredictionReport(rmse=rmse, mae=mae, r_squared=r2)


def replay_cost(events: EventStream, s: int, capacity: int,
                penalties: PenaltyConfig = PenaltyConfig()) -> LostSalesReport:
    """Replay one day's events against a starting inventory and count shortages.

    A pickup at an empty station is lost; a return at a full station is lost;
    either leaves the inventory unchanged. Events are replayed in the order
    the stream keeps them: by time, a pickup before a return at the same
    instant.
    """
    if not 0 <= s <= capacity:
        raise DataError(f"starting inventory {s} outside [0, {capacity}]")
    inventory = s
    lost_p = lost_r = 0
    for kind in events.kinds.tolist():
        if kind == PICKUP:
            if inventory == 0:
                lost_p += 1
            else:
                inventory -= 1
        else:
            if inventory == capacity:
                lost_r += 1
            else:
                inventory += 1
    return LostSalesReport(
        station=events.station,
        lost_pickups=lost_p,
        lost_returns=lost_r,
        cost=penalties.lost_pickup * lost_p + penalties.lost_return * lost_r,
    )


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


def benchmark(predictions: dict[str, list[RateSeries]], decisions: dict[str, list[int]],
              day_events: list[EventStream], day_counts: list[DemandSeries], capacity: int,
              penalties: PenaltyConfig = PenaltyConfig()) -> BenchmarkResult:
    """Score each model's decisions by replayed inventory cost, and its forecasts by CE.

    ``predictions`` maps model name to one RateSeries per test day and
    ``decisions`` maps it to the starting inventory chosen from each of them,
    both aligned with ``day_events`` and ``day_counts`` (realized per-interval
    counts, used for CE). ``decisions["oracle"]`` holds each day's
    perfect-information s* (:func:`.inventory.oracle_decision`). One loop
    replays the oracle's and then each model's decisions, in name order, and
    also scores each model's forecasts by CE. The oracle's summary comes first.
    """
    n_days = len(day_events)
    for name, series_list in predictions.items():
        if len(series_list) != n_days:
            raise DataError(f"model {name!r} supplied {len(series_list)} forecasts "
                            f"for {n_days} days")
    for name in ("oracle", *predictions):
        if len(decisions.get(name, ())) != n_days:
            raise DataError(f"model {name!r} needs one decision for each of {n_days} days")
    if len(day_counts) != n_days:
        raise DataError("day_counts and day_events must align")

    costs: dict[str, list[float]] = {name: [] for name in ("oracle", *sorted(predictions))}
    ces: dict[str, list[float]] = {name: [] for name in predictions}
    rows: list[dict] = []
    for name in costs:
        for i, (events, counts) in enumerate(zip(day_events, day_counts)):
            s_star = decisions[name][i]
            costs[name].append(replay_cost(events, s_star, capacity, penalties).cost)
            metrics = {"s_star": s_star, "cost": costs[name][-1]}
            if name in ces:
                rates = predictions[name][i]
                ces[name].append(cumulative_error(counts.pickups, counts.returns,
                                                  rates.pickup_rates, rates.return_rates))
                metrics["ce"] = ces[name][-1]
            rows += [{"station": counts.station, "date": counts.start.date().isoformat(),
                      "model": name, "metric": metric, "value": value}
                     for metric, value in metrics.items()]
    return BenchmarkResult(summaries=summarize(costs, ces), rows=rows)


def summarize(costs: dict[str, list], ces: dict[str, list]) -> list[DecisionSummary]:
    """One summary per model of ``costs``, in its order: the mean cost, its RPD
    against the oracle's mean, and the mean CE (0 without any). An empty list
    has mean 0. The evaluate stage passes each station's means."""
    mean = {name: float(np.mean(values)) if values else 0.0 for name, values in costs.items()}
    return [DecisionSummary(model=name, mean_cost=mean[name], rpd=rpd(mean[name], mean["oracle"]),
                            mean_ce=float(np.mean(ces[name])) if ces.get(name) else 0.0)
            for name in costs]


def rows_to_csv(rows: list[dict]) -> str:
    """Long-format report: station, date, model, metric, value."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["station", "date", "model", "metric", "value"])
    for row in rows:
        value = row["value"]
        text = f"{value:.10g}" if isinstance(value, float) else str(value)
        writer.writerow([row["station"], row["date"], row["model"], row["metric"], text])
    return out.getvalue()


def summaries_to_csv(summaries: list[DecisionSummary]) -> str:
    """One row per model: model, mean_cost, rpd, mean_ce; rpd blank when undefined."""
    lines = ["model,mean_cost,rpd,mean_ce"]
    for s in summaries:
        rpd_text = f"{s.rpd:.10g}" if s.rpd is not None else ""
        lines.append(f"{s.model},{s.mean_cost:.10g},{rpd_text},{s.mean_ce:.10g}")
    return "\n".join(lines) + "\n"
