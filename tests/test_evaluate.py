"""Point metrics, event replay, RPD, cumulative error, benchmark assembly."""

from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bikecast import evaluate
from bikecast.errors import DataError
from bikecast.ingest import PICKUP, RETURN, DemandSeries, EventStream
from bikecast.inventory import PenaltyConfig
from bikecast.queueing import RateSeries

DAY = date(2018, 11, 5)


def stream(*events) -> EventStream:
    base = datetime.combine(DAY, datetime.min.time())
    return EventStream(
        station="S",
        events=[(base.replace(hour=h, minute=m), kind) for h, m, kind in events],
    )


# -- point metrics -----------------------------------------------------------


def test_point_metrics_hand_example():
    report = evaluate.point_metrics([0.0, 2.0], [1.0, 1.0])
    assert report.mae == 1.0
    assert report.rmse == 1.0
    assert report.r_squared == 0.0


def test_point_metrics_perfect_prediction():
    report = evaluate.point_metrics([1.0, 2.0, 5.0], [1.0, 2.0, 5.0])
    assert report.rmse == 0.0 and report.mae == 0.0
    assert report.r_squared == 1.0


def test_point_metrics_constant_actuals_have_no_r_squared():
    report = evaluate.point_metrics([3.0, 3.0, 3.0], [2.0, 3.0, 4.0])
    assert report.r_squared is None
    assert report.log_likelihood is None


def test_point_metrics_validates_shapes():
    with pytest.raises(DataError):
        evaluate.point_metrics([1.0, 2.0], [1.0])
    with pytest.raises(DataError):
        evaluate.point_metrics([1.0], [1.0])


# -- event replay ------------------------------------------------------------


def test_replay_hand_example():
    # s=1, C=1: the return finds the station full, the second pickup finds
    # it empty; both are lost.
    ev = stream((8, 0, RETURN), (9, 0, PICKUP), (10, 0, PICKUP))
    report = evaluate.replay_cost(ev, s=1, capacity=1)
    assert report.lost_returns == 1
    assert report.lost_pickups == 1
    assert report.cost == 2.0


def test_replay_empty_station_loses_first_pickup():
    ev = stream((8, 0, PICKUP))
    report = evaluate.replay_cost(ev, s=0, capacity=5)
    assert report.lost_pickups == 1 and report.lost_returns == 0


def test_replay_pickup_first_tie_break():
    # Simultaneous pickup+return at s=0, listed return first: the pickup is
    # replayed first and lost.
    ev = stream((8, 0, RETURN), (8, 0, PICKUP))
    lost = evaluate.replay_cost(ev, s=0, capacity=5)
    assert lost.lost_pickups == 1


def test_replay_penalty_weights():
    ev = stream((8, 0, RETURN), (9, 0, PICKUP), (10, 0, PICKUP))
    report = evaluate.replay_cost(ev, s=1, capacity=1,
                                  penalties=PenaltyConfig(lost_pickup=3.0, lost_return=0.5))
    assert report.cost == 3.0 + 0.5


def test_replay_rejects_bad_inventory():
    with pytest.raises(DataError):
        evaluate.replay_cost(stream(), s=6, capacity=5)
    with pytest.raises(DataError):
        evaluate.replay_cost(stream(), s=-1, capacity=5)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 23), st.integers(0, 59),
                       st.sampled_from([PICKUP, RETURN])), max_size=60),
    st.integers(0, 8),
)
def test_replay_conserves_events(events, s):
    capacity = 8
    ev = stream(*events)
    report = evaluate.replay_cost(ev, s=s, capacity=capacity)
    n_pick = sum(1 for e in events if e[2] == PICKUP)
    n_ret = sum(1 for e in events if e[2] == RETURN)
    served_p = n_pick - report.lost_pickups
    served_r = n_ret - report.lost_returns
    final = s - served_p + served_r
    assert 0 <= final <= capacity
    assert 0 <= report.lost_pickups <= n_pick
    assert 0 <= report.lost_returns <= n_ret


# -- relative percentage difference ------------------------------------------


def test_rpd_reference_pairs():
    assert 100.0 * evaluate.rpd(9.37, 8.18) == pytest.approx(14.6, abs=0.1)
    assert 100.0 * evaluate.rpd(10.14, 8.18) == pytest.approx(24.1, abs=0.2)


def test_rpd_zero_oracle_is_undefined():
    assert evaluate.rpd(1.0, 0.0) is None
    assert evaluate.rpd(0.0, 0.0) is None


def test_rpd_rejects_negative_costs():
    with pytest.raises(DataError):
        evaluate.rpd(-1.0, 2.0)
    with pytest.raises(DataError):
        evaluate.rpd(1.0, -2.0)


# -- cumulative error --------------------------------------------------------


def test_cumulative_error_hand_example():
    # actual net = (2+0) - (0+1) = 1; predicted net = 3; CE = 2.
    ce = evaluate.cumulative_error([2, 0], [0, 1], [3, 1], [1, 0])
    assert ce == 2.0


def test_cumulative_error_ignores_same_side_bias():
    rng = np.random.default_rng(2)
    mu, lam = rng.poisson(5, 24), rng.poisson(4, 24)
    mu_hat, lam_hat = rng.uniform(0, 8, 24), rng.uniform(0, 8, 24)
    base = evaluate.cumulative_error(mu, lam, mu_hat, lam_hat)
    bias = rng.uniform(0, 3, 24)
    shifted = evaluate.cumulative_error(mu, lam, mu_hat + bias, lam_hat + bias)
    assert shifted == pytest.approx(base, abs=1e-9)


def test_cumulative_error_zero_for_perfect_net():
    mu = np.array([4.0, 1.0]); lam = np.array([0.0, 2.0])
    assert evaluate.cumulative_error(mu, lam, mu, lam) == 0.0


def test_cumulative_error_validates_shapes():
    with pytest.raises(DataError):
        evaluate.cumulative_error([1, 2], [1], [1, 2], [1, 2])


# -- benchmark assembly ------------------------------------------------------


def one_day_fixture():
    base = datetime.combine(DAY, datetime.min.time())
    pickups = np.zeros(24, dtype=np.int64)
    returns = np.zeros(24, dtype=np.int64)
    pickups[8] = 2
    returns[17] = 1
    counts = DemandSeries(station="S", interval_minutes=60, start=base,
                          pickups=pickups, returns=returns)
    events = stream((8, 10, PICKUP), (8, 40, PICKUP), (17, 30, RETURN))
    flat = RateSeries(interval_minutes=60,
                      pickup_rates=np.full(24, 2 / 24),
                      return_rates=np.full(24, 1 / 24))
    return counts, events, flat


def test_benchmark_includes_oracle_with_zero_rpd():
    counts, events, flat = one_day_fixture()
    result = evaluate.benchmark({"flat": [flat]}, {"flat": [2]}, [events], [counts],
                                capacity=4)
    by_model = {s.model: s for s in result.summaries}
    assert set(by_model) == {"oracle", "flat"}
    oracle = by_model["oracle"]
    assert oracle.rpd == 0.0 or oracle.rpd is None
    assert oracle.mean_ce == 0.0
    flat_summary = by_model["flat"]
    assert flat_summary.mean_ce == pytest.approx(
        evaluate.cumulative_error(counts.pickups, counts.returns,
                                  flat.pickup_rates, flat.return_rates))


def test_benchmark_rows_cover_every_day_and_model():
    counts, events, flat = one_day_fixture()
    result = evaluate.benchmark({"flat": [flat]}, {"flat": [2]}, [events], [counts],
                                capacity=4)
    kinds = {(r["model"], r["metric"]) for r in result.rows}
    assert ("oracle", "s_star") in kinds and ("oracle", "cost") in kinds
    assert ("flat", "s_star") in kinds and ("flat", "ce") in kinds
    assert all(r["date"] == DAY.isoformat() for r in result.rows)
    # the decision is replayed as given, not solved again from the forecast
    flat_rows = {r["metric"]: r["value"] for r in result.rows if r["model"] == "flat"}
    assert flat_rows["s_star"] == 2
    assert flat_rows["cost"] == evaluate.replay_cost(events, 2, 4).cost


def test_benchmark_validates_alignment():
    counts, events, flat = one_day_fixture()
    with pytest.raises(DataError):
        evaluate.benchmark({"flat": [flat, flat]}, {"flat": [2, 2]}, [events], [counts],
                           capacity=4)
    with pytest.raises(DataError):
        evaluate.benchmark({"flat": [flat]}, {"flat": [2]}, [events], [], capacity=4)
    with pytest.raises(DataError):
        evaluate.benchmark({"flat": [flat]}, {}, [events], [counts], capacity=4)
    with pytest.raises(DataError):
        evaluate.benchmark({"flat": [flat]}, {"flat": [2, 2]}, [events], [counts],
                           capacity=4)


def test_rows_to_csv_layout():
    rows = [{"station": "S", "date": "2018-11-05", "model": "m",
             "metric": "cost", "value": 1.5},
            {"station": "S", "date": "2018-11-05", "model": "m",
             "metric": "s_star", "value": 3}]
    text = evaluate.rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "station,date,model,metric,value"
    assert lines[1] == "S,2018-11-05,m,cost,1.5"
    assert lines[2] == "S,2018-11-05,m,s_star,3"

