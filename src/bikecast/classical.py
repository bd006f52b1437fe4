"""Baseline rate forecasters: historical average, moving average, OLS regression.

All three predict per-interval expected counts for one day ahead, which makes
them directly comparable to the recurrent models and usable as inputs to the
inventory optimizer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta

import numpy as np

from .errors import DataError, FormatError, TrainingError
from .ingest import CovariateMatrix, DemandSeries
from .queueing import RateSeries


@dataclass
class SeasonalProfile:
    """Mean count per (day-of-week, time-of-day slot) cell, pickups and returns."""

    interval_minutes: int
    pickup_table: np.ndarray
    return_table: np.ndarray

    def __post_init__(self):
        slots = 1440 // self.interval_minutes
        for table in (self.pickup_table, self.return_table):
            if table.shape != (7, slots):
                raise DataError(f"profile table must be 7 x {slots}, got {table.shape}")
            if np.any(table < 0):
                raise DataError("profile means must be non-negative")

    def predict_day(self, day: date) -> RateSeries:
        dow = day.weekday()
        return RateSeries(
            interval_minutes=self.interval_minutes,
            pickup_rates=self.pickup_table[dow].copy(),
            return_rates=self.return_table[dow].copy(),
        )


@dataclass
class LinearModel:
    """OLS coefficients on the covariates, one set per process, intercept first."""

    columns: list[str]
    pickup_coef: np.ndarray
    return_coef: np.ndarray

    def __post_init__(self):
        width = len(self.columns) + 1
        if len(self.pickup_coef) != width or len(self.return_coef) != width:
            raise DataError("coefficient length must be covariate width + 1")

    def predict_day(self, covariates: CovariateMatrix, interval_minutes: int) -> RateSeries:
        x = _design(covariates, self.columns)
        pickups = x @ self.pickup_coef
        returns = x @ self.return_coef
        # Negative affine outputs are clamped: rates feed a Poisson model.
        return RateSeries(
            interval_minutes=interval_minutes,
            pickup_rates=np.maximum(pickups, 0.0),
            return_rates=np.maximum(returns, 0.0),
        )


def _cell_means(series: DemandSeries, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    slots = series.intervals_per_day
    # The series starts at local midnight, so row i is slot i % slots of day i // slots.
    day, slot = np.divmod(rows, slots)
    cell = ((series.start.weekday() + day) % 7, slot)
    sums_p = np.zeros((7, slots))
    sums_r = np.zeros((7, slots))
    counts = np.zeros((7, slots))
    np.add.at(sums_p, cell, series.pickups[rows])
    np.add.at(sums_r, cell, series.returns[rows])
    np.add.at(counts, cell, 1.0)
    seen = counts > 0
    pickup_table = np.zeros((7, slots))
    return_table = np.zeros((7, slots))
    pickup_table[seen] = sums_p[seen] / counts[seen]
    return_table[seen] = sums_r[seen] / counts[seen]
    return pickup_table, return_table


def fit_ha(train: DemandSeries) -> SeasonalProfile:
    """Historical average: mean count for every (day-of-week, slot) combination."""
    if len(train) == 0:
        raise DataError("cannot fit on an empty series")
    pickup_table, return_table = _cell_means(train, np.arange(len(train)))
    return SeasonalProfile(train.interval_minutes, pickup_table, return_table)


def fit_ma(history: DemandSeries, as_of: date, window_days: int = 30) -> SeasonalProfile:
    """Same cell means as :func:`fit_ha` over the trailing window before as_of."""
    hi = datetime.combine(as_of, time.min)
    lo = hi - timedelta(days=window_days)
    # Whole days from the series' midnight start to as_of, so the window's rows
    # follow by index arithmetic.
    slots = history.intervals_per_day
    end_day = (hi - history.start).days
    rows = np.arange(max(0, (end_day - window_days) * slots),
                     min(len(history), max(0, end_day * slots)))
    if len(rows) == 0:
        raise DataError(f"no history in [{lo}, {hi}) to average")
    pickup_table, return_table = _cell_means(history, rows)
    return SeasonalProfile(history.interval_minutes, pickup_table, return_table)


def _kept_columns(columns: list[str]) -> list[str]:
    # Drop the first column of each one-hot block so the design with an
    # intercept has full rank.
    drop = set()
    for prefix in ("dow_", "tod_"):
        block = [c for c in columns if c.startswith(prefix)]
        if block:
            drop.add(block[0])
    return [c for c in columns if c not in drop]


def _design(covariates: CovariateMatrix, kept: list[str]) -> np.ndarray:
    cols = [np.ones(len(covariates))]
    cols.extend(covariates.column(name) for name in kept)
    return np.column_stack(cols)


def fit_lr(train: DemandSeries) -> LinearModel:
    """Ordinary least squares of counts on covariates, per process."""
    if train.covariates is None:
        raise DataError("linear regression needs covariates")
    kept = _kept_columns(train.covariates.columns)
    x = _design(train.covariates, kept)
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise TrainingError("design matrix is rank deficient after dropping redundant columns")
    pickup_coef, *_ = np.linalg.lstsq(x, train.pickups.astype(float), rcond=None)
    return_coef, *_ = np.linalg.lstsq(x, train.returns.astype(float), rcond=None)
    return LinearModel(columns=kept, pickup_coef=pickup_coef, return_coef=return_coef)


def model_to_json(model) -> str:
    if isinstance(model, SeasonalProfile):
        payload = {
            "kind": "seasonal_profile",
            "interval_minutes": model.interval_minutes,
            "pickup_table": model.pickup_table.tolist(),
            "return_table": model.return_table.tolist(),
        }
    elif isinstance(model, LinearModel):
        payload = {
            "kind": "linear",
            "columns": model.columns,
            "pickup_coef": model.pickup_coef.tolist(),
            "return_coef": model.return_coef.tolist(),
        }
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    return json.dumps(payload, indent=2)


def model_from_json(text: str):
    payload = json.loads(text)
    kind = payload.get("kind")
    if kind == "seasonal_profile":
        return SeasonalProfile(
            interval_minutes=payload["interval_minutes"],
            pickup_table=np.array(payload["pickup_table"], dtype=float),
            return_table=np.array(payload["return_table"], dtype=float),
        )
    if kind == "linear":
        return LinearModel(
            columns=list(payload["columns"]),
            pickup_coef=np.array(payload["pickup_coef"], dtype=float),
            return_coef=np.array(payload["return_coef"], dtype=float),
        )
    raise FormatError(f"unknown model kind {kind!r}")
