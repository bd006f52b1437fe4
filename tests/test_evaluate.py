"""Point metrics, event replay, RPD, cumulative error, benchmark assembly."""

from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import demand_series
from hypothesis import strategies as st
from oracles import replay_one

from bikecast import evaluate
from bikecast.errors import DataError
from bikecast.ingest import PICKUP, RETURN, EventStream
from bikecast.inventory import PenaltyConfig, oracle_decision

DAY = date(2018, 11, 5)


def stream(*events) -> EventStream:
    base = datetime.combine(DAY, datetime.min.time())
    return EventStream(
        station="S",
        times=[base.replace(hour=h, minute=m) for h, m, _ in events],
        kinds=[kind for _, _, kind in events],
    )


# -- point metrics -----------------------------------------------------------


def test_point_metrics_hand_example():
    report = evaluate.point_metrics([0.0, 2.0], [1.0, 1.0])
    assert list(report) == ["rmse", "mae", "r_squared"]
    assert report["mae"] == 1.0
    assert report["rmse"] == 1.0
    assert report["r_squared"] == 0.0


def test_point_metrics_perfect_prediction():
    report = evaluate.point_metrics([1.0, 2.0, 5.0], [1.0, 2.0, 5.0])
    assert report["rmse"] == 0.0 and report["mae"] == 0.0
    assert report["r_squared"] == 1.0


def test_point_metrics_constant_actuals_have_no_r_squared():
    report = evaluate.point_metrics([3.0, 3.0, 3.0], [2.0, 3.0, 4.0])
    assert list(report) == ["rmse", "mae"]


def test_point_metrics_validates_shapes():
    with pytest.raises(DataError):
        evaluate.point_metrics([1.0, 2.0], [1.0])
    with pytest.raises(DataError):
        evaluate.point_metrics([1.0], [1.0])


# -- event replay ------------------------------------------------------------

# one-sided penalties: the curve then counts one kind of lost event
PICKUPS_ONLY = PenaltyConfig(lost_pickup=1.0, lost_return=0.0)
RETURNS_ONLY = PenaltyConfig(lost_pickup=0.0, lost_return=1.0)


def lost(ev: EventStream, s: int, capacity: int) -> tuple[float, float]:
    """The lost pickups and lost returns from start ``s``, read off the curve."""
    return (evaluate.replay_cost(ev, capacity, PICKUPS_ONLY)[s],
            evaluate.replay_cost(ev, capacity, RETURNS_ONLY)[s])


def test_replay_hand_example():
    # s=1, C=1: the return finds the station full, the second pickup finds
    # it empty; both are lost.
    ev = stream((8, 0, RETURN), (9, 0, PICKUP), (10, 0, PICKUP))
    assert lost(ev, 1, 1) == (1, 1)
    assert evaluate.replay_cost(ev, capacity=1)[1] == 2.0


def test_replay_empty_station_loses_first_pickup():
    ev = stream((8, 0, PICKUP))
    assert lost(ev, 0, 5) == (1, 0)


def test_replay_pickup_first_tie_break():
    # Simultaneous pickup+return at s=0, listed return first: the pickup is
    # replayed first and lost.
    ev = stream((8, 0, RETURN), (8, 0, PICKUP))
    assert lost(ev, 0, 5)[0] == 1


def test_replay_penalty_weights():
    ev = stream((8, 0, RETURN), (9, 0, PICKUP), (10, 0, PICKUP))
    cost = evaluate.replay_cost(ev, capacity=1,
                                penalties=PenaltyConfig(lost_pickup=3.0, lost_return=0.5))
    assert cost[1] == 3.0 + 0.5


EVENTS = st.lists(st.tuples(st.integers(0, 23), st.integers(0, 59),
                            st.sampled_from([PICKUP, RETURN])), max_size=60)


@settings(max_examples=60, deadline=None)
@given(EVENTS, st.integers(0, 8))
def test_replay_conserves_events(events, s):
    capacity = 8
    ev = stream(*events)
    lost_p, lost_r = lost(ev, s, capacity)
    n_pick = sum(1 for e in events if e[2] == PICKUP)
    n_ret = sum(1 for e in events if e[2] == RETURN)
    served_p = n_pick - lost_p
    served_r = n_ret - lost_r
    final = s - served_p + served_r
    assert 0 <= final <= capacity
    assert 0 <= lost_p <= n_pick
    assert 0 <= lost_r <= n_ret


def in_order(kinds) -> EventStream:
    """Events one minute apart, in the order of ``kinds``."""
    return stream(*((i // 60, i % 60, kind) for i, kind in enumerate(kinds)))


REPLAY_DAYS = {
    # fills, empties, fills and empties again: events lost at both bounds
    "both-bounds": (3, [RETURN] * 2 + [PICKUP] * 5 + [RETURN] * 7 + [PICKUP] * 2
                    + [RETURN] * 4 + [PICKUP] * 6),
    "no-events": (5, []),
    "capacity-1": (1, [RETURN, PICKUP, PICKUP, RETURN, RETURN, PICKUP, RETURN, RETURN]),
    "drifting-day": (20, np.random.default_rng(29).choice(
        [PICKUP, RETURN], 400, p=[0.55, 0.45]).tolist()),
}
PENALTIES = {"equal": PenaltyConfig(), "unequal": PenaltyConfig(3.0, 0.5),
             "pickups-only": PICKUPS_ONLY, "returns-only": PenaltyConfig(0.0, 2.5)}


def per_start(ev: EventStream, capacity: int, penalties: PenaltyConfig) -> list[float]:
    return [replay_one(ev, s, capacity, penalties)[2] for s in range(capacity + 1)]


@pytest.mark.parametrize("penalties", PENALTIES.values(), ids=PENALTIES)
@pytest.mark.parametrize("capacity, kinds", REPLAY_DAYS.values(), ids=REPLAY_DAYS)
def test_replay_cost_is_the_per_start_replay_at_every_start(capacity, kinds, penalties):
    ev = in_order(kinds)
    curve = evaluate.replay_cost(ev, capacity, penalties)
    assert curve.dtype == float
    assert curve.tolist() == per_start(ev, capacity, penalties)


def test_both_bounds_day_loses_events_at_both_bounds():
    capacity, kinds = REPLAY_DAYS["both-bounds"]
    ev = in_order(kinds)
    pickups = evaluate.replay_cost(ev, capacity, PICKUPS_ONLY)
    returns = evaluate.replay_cost(ev, capacity, RETURNS_ONLY)
    # every start is empty after the five pickups; from then on each loses
    # 3 pickups and 6 returns
    assert pickups.tolist() == [3 + 3, 2 + 3, 2 + 3, 2 + 3]
    assert returns.tolist() == [0 + 6, 0 + 6, 1 + 6, 2 + 6]


@settings(max_examples=60, deadline=None)
@given(EVENTS, st.integers(1, 8), st.sampled_from(list(PENALTIES.values())))
def test_replay_cost_is_the_per_start_replay_on_random_days(events, capacity, penalties):
    ev = stream(*events)
    assert evaluate.replay_cost(ev, capacity, penalties).tolist() == per_start(
        ev, capacity, penalties)


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
    pickups = np.zeros(24, dtype=np.int64)
    returns = np.zeros(24, dtype=np.int64)
    pickups[8] = 2
    returns[17] = 1
    counts = demand_series(pickups, returns, first_day=DAY, station="S")
    events = stream((8, 10, PICKUP), (8, 40, PICKUP), (17, 30, RETURN))
    # the forecast of one day: (days, slots, 2), pickups then returns
    flat = np.stack([np.full(24, 2 / 24), np.full(24, 1 / 24)], axis=1)[None]
    return counts, events, flat


def oracle_s(counts) -> list[int]:
    return [oracle_decision(counts.counts[0], 60, 4).s_star]


def test_benchmark_includes_oracle_with_zero_rpd():
    counts, events, flat = one_day_fixture()
    rows = evaluate.benchmark({"flat": flat}, {"flat": [2], "oracle": oracle_s(counts)},
                              [events], counts, capacity=4)
    by_model = {s["model"]: s for s in evaluate.summarize(rows)}
    assert set(by_model) == {"oracle", "flat"}
    oracle = by_model["oracle"]
    assert oracle["rpd"] == 0.0 or oracle["rpd"] is None
    assert oracle["mean_ce"] == 0.0
    flat_summary = by_model["flat"]
    assert flat_summary["mean_ce"] == pytest.approx(
        evaluate.cumulative_error(counts.pickups, counts.returns,
                                  flat[0, :, 0], flat[0, :, 1]))


def test_benchmark_rows_cover_every_day_and_model():
    counts, events, flat = one_day_fixture()
    rows = evaluate.benchmark({"flat": flat}, {"flat": [2], "oracle": oracle_s(counts)},
                              [events], counts, capacity=4)
    assert [(r["model"], r["metric"]) for r in rows] == [
        ("oracle", "s_star"), ("oracle", "cost"), ("flat", "s_star"), ("flat", "cost"),
        ("flat", "ce")]
    assert all(r["station"] == "S" and r["date"] == DAY.isoformat() for r in rows)
    # the decision is replayed as given, not solved again from the forecast
    flat_rows = {r["metric"]: r["value"] for r in rows if r["model"] == "flat"}
    assert flat_rows["s_star"] == 2
    assert flat_rows["cost"] == evaluate.replay_cost(events, 4)[2]


def test_benchmark_replays_the_oracle_decision_it_is_given():
    # the oracle's s* is solved by the caller; any s* given is replayed as is
    counts, events, flat = one_day_fixture()
    rows = evaluate.benchmark({"flat": flat}, {"flat": [2], "oracle": [0]},
                              [events], counts, capacity=4)
    oracle_rows = {r["metric"]: r["value"] for r in rows if r["model"] == "oracle"}
    assert oracle_rows["s_star"] == 0
    assert oracle_rows["cost"] == evaluate.replay_cost(events, 4)[0] == 2.0


def test_benchmark_validates_alignment():
    counts, events, flat = one_day_fixture()
    oracle = oracle_s(counts)
    with pytest.raises(DataError):
        evaluate.benchmark({"flat": np.concatenate([flat, flat])},
                           {"flat": [2, 2], "oracle": oracle}, [events], counts, capacity=4)
    with pytest.raises(DataError, match="^test days and day_events must align$"):
        evaluate.benchmark({"flat": flat}, {"flat": [2], "oracle": oracle}, [events, events],
                           counts, capacity=4)
    with pytest.raises(DataError):
        evaluate.benchmark({"flat": flat}, {"oracle": oracle}, [events], counts,
                           capacity=4)
    with pytest.raises(DataError):
        evaluate.benchmark({"flat": flat}, {"flat": [2, 2], "oracle": oracle}, [events],
                           counts, capacity=4)
    with pytest.raises(DataError, match="'oracle'"):
        evaluate.benchmark({"flat": flat}, {"flat": [2]}, [events], counts, capacity=4)


def test_benchmark_rejects_a_decision_outside_the_station():
    counts, events, flat = one_day_fixture()
    for s_star in (5, -1):
        with pytest.raises(DataError, match=rf"^starting inventory {s_star} outside \[0, 4\]$"):
            evaluate.benchmark({"flat": flat}, {"flat": [s_star], "oracle": oracle_s(counts)},
                               [events], counts, capacity=4)


def test_rows_to_csv_layout():
    rows = [{"station": "S", "date": "2018-11-05", "model": "m",
             "metric": "cost", "value": 1.5},
            {"station": "S", "date": "2018-11-05", "model": "m",
             "metric": "s_star", "value": 3},
            {"station": "S", "date": "2018-11-05", "model": "m",
             "metric": "rpd", "value": None}]
    text = evaluate.rows_to_csv(rows, ("station", "date", "model", "metric", "value"))
    lines = text.splitlines()
    assert lines[0] == "station,date,model,metric,value"
    assert lines[1] == "S,2018-11-05,m,cost,1.5"
    assert lines[2] == "S,2018-11-05,m,s_star,3"
    assert lines[3] == "S,2018-11-05,m,rpd,"
    # only the columns asked for, in their order
    assert evaluate.rows_to_csv(rows[:1], ("value", "model")) == "value,model\n1.5,m\n"


def metric_row(station, model, metric, value) -> dict:
    return {"station": station, "date": "2018-11-05", "model": model, "metric": metric,
            "value": value}


def test_summarize_means_each_station_then_the_stations():
    # a pooled mean of the model's costs would give 2.0, not 2.5
    rows = [metric_row("A", "m", "cost", 0.0), metric_row("A", "m", "cost", 2.0),
            metric_row("A", "m", "ce", 1.0), metric_row("A", "m", "s_star", 9),
            metric_row("B", "m", "cost", 4.0), metric_row("B", "m", "ce", 5.0),
            metric_row("A", "oracle", "cost", 1.0), metric_row("A", "oracle", "cost", 1.0),
            metric_row("B", "oracle", "cost", 2.0)]
    # models keep the order of their first cost row
    assert evaluate.summarize(rows) == [
        {"model": "m", "mean_cost": 2.5, "rpd": pytest.approx(2 / 3), "mean_ce": 3.0},
        {"model": "oracle", "mean_cost": 1.5, "rpd": 0.0, "mean_ce": 0.0}]


def test_summary_rpd_is_blank_when_the_oracle_is_free():
    rows = [metric_row("A", "oracle", "cost", 0.0), metric_row("A", "m", "cost", 1.0),
            metric_row("A", "m", "ce", 0.5)]
    text = evaluate.rows_to_csv(evaluate.summarize(rows), ("model", "mean_cost", "rpd", "mean_ce"))
    assert text.splitlines() == ["model,mean_cost,rpd,mean_ce", "oracle,0,,0", "m,1,,0.5"]
