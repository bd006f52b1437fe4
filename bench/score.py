"""Output checks and accuracy scores computed from a run's artifacts.

Everything here reads the files a run left in ``out_dir``, the way a user
would, by column name; nothing is taken from the program's memory.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from datetime import date

import numpy as np

from bikecast import experiments, neural, synthetic
from bikecast.queueing import RateSeries

from reference import exact_udf_values

# Nov 1 to Dec 31 of the corpus year: the test split of 12 whole months
TEST_DAYS = (date(2019, 1, 1) - date(2018, 11, 1)).days
# a decision counts as optimal when the exact UDF of s* is this close to the minimum
OPTIMAL_TOL = 1e-9
# Largest accepted gap, in expected users, between a decision's reported
# expected cost and the exact UDF. At the default 60 substeps the solver
# misses by about 1e-3 on the corpus and 2.4e-3 on the peaked bias day; with
# five times fewer it misses the peaked day by 0.27.
UDF_ABS_ERR_TOL = 5e-3


def _lines(path: str) -> list[str]:
    with open(path) as fh:
        return [ln for ln in fh.read().splitlines() if not ln.startswith("#")]


def read_rows(path: str) -> list[dict]:
    return list(csv.DictReader(_lines(path)))


def artifact_digest(out_dir: str) -> str:
    """sha256 over every artifact's relative path and bytes, in path order."""
    digest = hashlib.sha256()
    for root, _dirs, files in sorted(os.walk(out_dir)):
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, out_dir).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def selected_stations(out_dir: str) -> dict[str, int]:
    rows = read_rows(os.path.join(out_dir, "demand", "stations_selected.csv"))
    return {r["station_id"]: int(r["capacity"]) for r in rows}


def _all_finite(path: str) -> bool:
    if path.endswith(".ckpt"):
        model = neural.load_checkpoint(path)
        return all(np.all(np.isfinite(v)) for v in model.params.values())
    for line in _lines(path):
        for field in line.split(","):
            try:
                value = float(field)
            except ValueError:
                continue
            if not math.isfinite(value):
                return False
    return True


def _s_star_in_range(rows: list[dict], capacity: int) -> bool:
    return all(0 <= int(r["s_star"]) <= capacity for r in rows)


def check_outputs(workload, config, out_dir: str) -> dict[str, bool]:
    """Named pass/fail checks on the artifacts of one run."""
    checks: dict[str, bool] = {}
    try:
        stations = selected_stations(out_dir)
    except OSError:
        return {"stations_selected": False}
    slots = 1440 // config.interval_minutes
    expected = [os.path.join("demand", "stations_selected.csv")]
    for sid in stations:
        expected.append(os.path.join("demand", f"station_{sid}.csv"))
        for name in workload.models:
            expected.append(os.path.join("forecasts", f"{sid}_{name}.csv"))
            if name in ("ha", "lr", "movprnn"):
                ext = "json" if name in ("ha", "lr") else "ckpt"
                expected.append(os.path.join("models", f"{sid}_{name}.{ext}"))
            elif name != "ma":
                expected += [os.path.join("models", f"{sid}_{name}_{t}.ckpt")
                             for t in ("pickups", "returns")]
        if workload.decides:
            expected.append(os.path.join("decisions", f"{sid}.csv"))
    if workload.decides:
        expected += [os.path.join("reports", n)
                     for n in ("metrics.csv", "summary.csv", "bias_curves.csv")]
    for rel in expected:
        path = os.path.join(out_dir, rel)
        checks[f"finite:{rel}"] = os.path.exists(path) and _all_finite(path)
    if not all(checks.values()):
        return checks
    for sid in stations:
        for name in workload.models:
            rows = _lines(os.path.join(out_dir, "forecasts", f"{sid}_{name}.csv"))
            checks[f"days:{sid}_{name}"] = len(rows) - 1 == TEST_DAYS * slots
    if workload.decides:
        for sid, capacity in stations.items():
            rows = read_rows(os.path.join(out_dir, "decisions", f"{sid}.csv"))
            checks[f"s_star:decisions/{sid}"] = _s_star_in_range(rows, capacity)
        metric_rows = [r for r in read_rows(os.path.join(out_dir, "reports", "metrics.csv"))
                       if r["metric"] == "s_star"]
        checks["s_star:metrics"] = all(
            0 <= int(r["value"]) <= stations[r["station"]] for r in metric_rows)
        bias_rows = read_rows(os.path.join(out_dir, "reports", "bias_curves.csv"))
        checks["s_star:bias"] = _s_star_in_range(bias_rows, config.bias_capacity)
    return checks


def realized_counts(out_dir: str, sid: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Realized (pickups, returns) per day, from the station's demand file."""
    by_day: dict[str, tuple[list, list]] = {}
    for line in _lines(os.path.join(out_dir, "demand", f"station_{sid}.csv"))[1:]:
        stamp, pickups, returns = line.split(",", 3)[:3]
        day = by_day.setdefault(stamp[:10], ([], []))
        day[0].append(int(pickups))
        day[1].append(int(returns))
    return {d: (np.array(p), np.array(r)) for d, (p, r) in by_day.items()}


def forecast_rates(out_dir: str, sid: str, name: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    by_day: dict[str, tuple[list, list]] = {}
    for row in read_rows(os.path.join(out_dir, "forecasts", f"{sid}_{name}.csv")):
        day = by_day.setdefault(row["date"], ([], []))
        day[0].append(float(row["pickup_rate"]))
        day[1].append(float(row["return_rate"]))
    return {d: (np.array(p), np.array(r)) for d, (p, r) in by_day.items()}


def rmse_by_model(workload, out_dir: str) -> dict[str, float]:
    """Test-split RMSE per model: mean over stations and over both processes."""
    stations = selected_stations(out_dir)
    counts = {sid: realized_counts(out_dir, sid) for sid in stations}
    result = {}
    for name in workload.models:
        per_series = []
        for sid in stations:
            rates = forecast_rates(out_dir, sid, name)
            for proc in (0, 1):
                actual = np.concatenate([counts[sid][d][proc] for d in sorted(rates)])
                predicted = np.concatenate([rates[d][proc] for d in sorted(rates)])
                per_series.append(float(np.sqrt(np.mean((actual - predicted) ** 2))))
        result[name] = float(np.mean(per_series))
    return result


def udf_accuracy(workload, config, out_dir: str) -> dict[str, float]:
    """Score decisions against the exact reference.

    ``abs_err_mean`` and ``abs_err_max`` are the mean and the largest gap
    between a forecaster decision's reported expected cost and the exact UDF
    of its s*. ``regret_sum`` adds exact UDF(s*) - min_s exact UDF(s) over
    the forecaster, oracle and bias-grid decisions; ``optimal_share`` is the
    share of them whose regret is within OPTIMAL_TOL.
    """
    stations = selected_stations(out_dir)
    penalties = (config.lost_pickup_penalty, config.lost_return_penalty)
    minutes = config.interval_minutes
    errors, regrets = [], []

    def exact_cost(pickups, returns, capacity, s_star):
        rates = RateSeries(interval_minutes=minutes, pickup_rates=pickups,
                           return_rates=returns)
        values = exact_udf_values(rates, capacity, *penalties)
        regrets.append(float(values[s_star] - values.min()))
        return values[s_star]

    for sid, capacity in stations.items():
        forecasts = {name: forecast_rates(out_dir, sid, name) for name in workload.models}
        for row in read_rows(os.path.join(out_dir, "decisions", f"{sid}.csv")):
            if row["model"] not in forecasts:
                continue
            pickups, returns = forecasts[row["model"]][row["date"]]
            exact = exact_cost(pickups, returns, capacity, int(row["s_star"]))
            errors.append(abs(float(row["expected_cost"]) - exact))
    counts = {sid: realized_counts(out_dir, sid) for sid in stations}
    for row in read_rows(os.path.join(out_dir, "reports", "metrics.csv")):
        if row["model"] == "oracle" and row["metric"] == "s_star":
            pickups, returns = counts[row["station"]][row["date"]]
            exact_cost(pickups.astype(float), returns.astype(float),
                       stations[row["station"]], int(row["value"]))
    day_counts, _events = synthetic.peaked_day(seed=config.bias_seed,
                                               interval_minutes=minutes)
    base = RateSeries(interval_minutes=minutes,
                      pickup_rates=day_counts.pickups.astype(float),
                      return_rates=day_counts.returns.astype(float))
    for row in read_rows(os.path.join(out_dir, "reports", "bias_curves.csv")):
        biased = experiments.apply_bias(
            base, experiments.BiasSpec(row["kind"], float(row["delta"])))
        exact_cost(biased.pickup_rates, biased.return_rates, config.bias_capacity,
                   int(row["s_star"]))
    return {
        "abs_err_mean": float(np.mean(errors)),
        "abs_err_max": float(max(errors)),
        "regret_sum": float(sum(regrets)),
        "optimal_share": sum(r <= OPTIMAL_TOL for r in regrets) / len(regrets),
        "scored": len(regrets),
    }
