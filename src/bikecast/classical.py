"""Baseline rate forecasters: historical average, moving average, OLS regression.

All three predict per-interval expected counts for one day ahead, which makes
them directly comparable to the recurrent models and usable as inputs to the
inventory optimizer. They fit on a :class:`.ingest.DemandSeries`, whose counts
are one (days, slots, 2) array, pickups then returns; a prediction has that
shape too, as every forecaster gives it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from datetime import date, datetime, time, timedelta

import numpy as np

from .errors import DataError, FormatError, TrainingError
from .ingest import PICKUP, RETURN, DemandSeries, covariate_columns


@dataclass
class SeasonalProfile:
    """Mean count per (day-of-week, time-of-day slot) cell, pickups and returns."""

    interval_minutes: int
    pickup_table: np.ndarray
    return_table: np.ndarray

    def __post_init__(self):
        slots = 1440 // self.interval_minutes
        self.pickup_table, self.return_table = (
            np.asarray(table, dtype=float) for table in (self.pickup_table, self.return_table))
        for table in (self.pickup_table, self.return_table):
            if table.shape != (7, slots):
                raise DataError(f"profile table must be 7 x {slots}, got {table.shape}")
            if not np.all(np.isfinite(table) & (table >= 0)):
                raise DataError("profile means must be finite and non-negative")

    def predict(self, series: DemandSeries) -> np.ndarray:
        """The (days, slots, 2) forecast of every day of ``series``: each day's
        weekday row of the pickup table, then of the return table."""
        weekdays = (series.first_day.weekday() + np.arange(series.n_days)) % 7
        return np.stack([self.pickup_table[weekdays], self.return_table[weekdays]], axis=2)


@dataclass
class LinearModel:
    """OLS coefficients, one set per process, intercept first, on the covariates
    named in ``columns``: names of :func:`covariate_columns`, not positions."""

    columns: list[str]
    pickup_coef: np.ndarray
    return_coef: np.ndarray

    def __post_init__(self):
        self.pickup_coef, self.return_coef = (
            np.asarray(coef, dtype=float) for coef in (self.pickup_coef, self.return_coef))
        width = len(self.columns) + 1
        if len(self.pickup_coef) != width or len(self.return_coef) != width:
            raise DataError("coefficient length must be covariate width + 1")
        if not np.all(np.isfinite(self.pickup_coef) & np.isfinite(self.return_coef)):
            raise DataError("coefficients must be finite")

    @property
    def interval_minutes(self) -> int:
        """The fit's interval: a ``tod_*`` column per slot of a day but the first."""
        return 1440 // (1 + sum(name.startswith("tod_") for name in self.columns))

    def predict(self, series: DemandSeries) -> np.ndarray:
        """The (days, slots, 2) forecast of every day of ``series``, from its covariates."""
        x = _design(series.covariates, series.interval_minutes, self.columns)
        rates = np.stack([x @ self.pickup_coef, x @ self.return_coef], axis=1)
        # Negative affine outputs are clamped: rates feed a Poisson model.
        return np.maximum(rates, 0.0).reshape(series.counts.shape)


def _weekday_means(series: DemandSeries, lo: int, hi: int) -> SeasonalProfile:
    """The mean count per (weekday, slot) cell over days ``lo`` to ``hi - 1``;
    a cell's days are summed in day order."""
    weekdays = (series.first_day.weekday() + np.arange(lo, hi)) % 7
    sums = np.zeros((7, series.intervals_per_day, 2))
    np.add.at(sums, weekdays, series.counts[lo:hi])
    days = np.bincount(weekdays, minlength=7)[:, None, None]
    means = np.divide(sums, days, out=np.zeros_like(sums), where=days > 0)
    return SeasonalProfile(series.interval_minutes, means[..., PICKUP], means[..., RETURN])


def fit_ha(train: DemandSeries) -> SeasonalProfile:
    """Historical average: mean count for every (day-of-week, slot) combination."""
    if train.n_days == 0:
        raise DataError("cannot fit on an empty series")
    return _weekday_means(train, 0, train.n_days)


def fit_ma(history: DemandSeries, as_of: date, window_days: int = 30) -> SeasonalProfile:
    """Same cell means as :func:`fit_ha` over the trailing window before as_of."""
    end = (as_of - history.first_day).days
    lo, hi = max(0, end - window_days), min(history.n_days, max(0, end))
    if hi <= lo:
        hi_time = datetime.combine(as_of, time.min)
        raise DataError(f"no history in [{hi_time - timedelta(days=window_days)}, {hi_time}) "
                        f"to average")
    return _weekday_means(history, lo, hi)


def _kept_columns(columns: list[str]) -> list[str]:
    # Drop the first column of each one-hot block so the design with an
    # intercept has full rank.
    drop = set()
    for prefix in ("dow_", "tod_"):
        block = [c for c in columns if c.startswith(prefix)]
        if block:
            drop.add(block[0])
    return [c for c in columns if c not in drop]


def _design(covariates: np.ndarray, interval_minutes: int, kept: list[str]) -> np.ndarray:
    # one row per interval, from views of single columns stacked once: no
    # copy of the kept block first
    rows = covariates.reshape(-1, covariates.shape[-1])
    column = covariate_columns(interval_minutes).index
    return np.column_stack([np.ones(len(rows)), *(rows[:, column(name)] for name in kept)])


def fit_lr(train: DemandSeries) -> LinearModel:
    """Ordinary least squares of counts on covariates, per process."""
    if train.covariates is None:
        raise DataError("linear regression needs covariates")
    kept = _kept_columns(covariate_columns(train.interval_minutes))
    x = _design(train.covariates, train.interval_minutes, kept)
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise TrainingError("design matrix is rank deficient after dropping redundant columns")
    pickup_coef, *_ = np.linalg.lstsq(x, train.pickups.astype(float), rcond=None)
    return_coef, *_ = np.linalg.lstsq(x, train.returns.astype(float), rcond=None)
    return LinearModel(columns=kept, pickup_coef=pickup_coef, return_coef=return_coef)


# each model type by the kind its JSON names
_JSON_KINDS = {"seasonal_profile": SeasonalProfile, "linear": LinearModel}


def model_to_json(model) -> str:
    """The model's kind, then its fields in order, arrays as lists."""
    kind = next((k for k, cls in _JSON_KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"unknown model type {type(model).__name__}")
    payload = {"kind": kind, **{f.name: getattr(model, f.name) for f in fields(model)}}
    return json.dumps(payload, indent=2, default=np.ndarray.tolist)


def model_from_json(text: str):
    payload = json.loads(text)
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind not in _JSON_KINDS:
        raise FormatError(f"unknown model kind {kind!r}")
    return _JSON_KINDS[kind](**{f.name: payload[f.name] for f in fields(_JSON_KINDS[kind])})
