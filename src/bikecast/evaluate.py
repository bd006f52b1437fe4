"""Predictive metrics and prescriptive cost evaluation.

The prescriptive side scores a forecaster by what its forecasts cost: replay
the day's actual events against the starting inventory that the optimize
stage chose from the forecast, and count shortages. Evaluation replays those
decisions; it does not make them again. The oracle benchmark uses the
realized counts of the day as if they were the true rates (perfect
information); it is solved here, because only evaluation reads the realized
counts.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import DataError
from .ingest import PICKUP, DemandSeries, EventStream
from .inventory import PenaltyConfig, oracle_decision
from .queueing import RateSeries


@dataclass
class PredictionReport:
    rmse: float
    mae: float
    r_squared: float | None
    log_likelihood: float | None = None


@dataclass
class LostSalesReport:
    station: str
    day: date | None
    starting_inventory: int
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


def point_metrics(actual: np.ndarray, predicted: np.ndarray,
                  log_likelihood: float | None = None) -> PredictionReport:
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
    return PredictionReport(rmse=rmse, mae=mae, r_squared=r2, log_likelihood=log_likelihood)


def replay_cost(events: EventStream, s: int, capacity: int,
                penalties: PenaltyConfig = PenaltyConfig(),
                day: date | None = None) -> LostSalesReport:
    """Replay one day's events against a starting inventory and count shortages.

    A pickup at an empty station is lost; a return at a full station is lost;
    either leaves the inventory unchanged. Events are replayed in time order,
    a pickup before a return at the same instant (``"pickup" < "return"``).
    """
    if not 0 <= s <= capacity:
        raise DataError(f"starting inventory {s} outside [0, {capacity}]")
    inventory = s
    lost_p = lost_r = 0
    for _, kind in sorted(events.events):
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
        day=day,
        starting_inventory=s,
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
    counts, used both for the perfect-information oracle and for CE). An
    ``oracle`` row is always included; its RPD is 0 by construction.
    """
    n_days = len(day_events)
    for name, series_list in predictions.items():
        if len(series_list) != n_days:
            raise DataError(f"model {name!r} supplied {len(series_list)} forecasts "
                            f"for {n_days} days")
        if len(decisions.get(name, ())) != n_days:
            raise DataError(f"model {name!r} needs one decision for each of {n_days} days")
    if len(day_counts) != n_days:
        raise DataError("day_counts and day_events must align")

    rows: list[dict] = []
    oracle_costs = np.zeros(n_days)
    for i, (events, counts) in enumerate(zip(day_events, day_counts)):
        curve = oracle_decision(counts, capacity, penalties)
        report = replay_cost(events, curve.s_star, capacity, penalties,
                             day=counts.start.date())
        oracle_costs[i] = report.cost
        rows.append({"station": counts.station, "date": counts.start.date().isoformat(),
                     "model": "oracle", "metric": "s_star", "value": curve.s_star})
        rows.append({"station": counts.station, "date": counts.start.date().isoformat(),
                     "model": "oracle", "metric": "cost", "value": report.cost})

    mean_oracle = float(oracle_costs.mean()) if n_days else 0.0
    summaries = [DecisionSummary(model="oracle", mean_cost=mean_oracle,
                                 rpd=rpd(mean_oracle, mean_oracle), mean_ce=0.0)]

    for name in sorted(predictions):
        costs = np.zeros(n_days)
        ces = np.zeros(n_days)
        for i, (events, counts) in enumerate(zip(day_events, day_counts)):
            rates = predictions[name][i]
            s_star = decisions[name][i]
            report = replay_cost(events, s_star, capacity, penalties,
                                 day=counts.start.date())
            costs[i] = report.cost
            ces[i] = cumulative_error(counts.pickups, counts.returns,
                                      rates.pickup_rates, rates.return_rates)
            day_iso = counts.start.date().isoformat()
            rows.append({"station": counts.station, "date": day_iso, "model": name,
                         "metric": "s_star", "value": s_star})
            rows.append({"station": counts.station, "date": day_iso, "model": name,
                         "metric": "cost", "value": report.cost})
            rows.append({"station": counts.station, "date": day_iso, "model": name,
                         "metric": "ce", "value": ces[i]})
        summaries.append(DecisionSummary(
            model=name,
            mean_cost=float(costs.mean()) if n_days else 0.0,
            rpd=rpd(float(costs.mean()), mean_oracle) if n_days else None,
            mean_ce=float(ces.mean()) if n_days else 0.0,
        ))
    return BenchmarkResult(summaries=summaries, rows=rows)


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
