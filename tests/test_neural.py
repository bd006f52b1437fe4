"""Recurrent rate models: kernels, losses, training loop, and serialization.

The whole-sequence kernels in ``neural`` are checked against the
tape-built model in ``tape_model`` (the gradient oracle) and against
finite differences.
"""

import json
import re
import struct

import numpy as np
import pytest
import tape
import tape_model as tm
from oracles import sinusoidal_split

from bikecast import autodiff, neural
from bikecast.config import RunConfig
from bikecast.errors import ConfigError, DataError, FormatError, TrainingError
from bikecast.neural import (
    MODEL_KINDS,
    NeuralModel,
    day_arrays,
    gaussian_kl,
    init_params,
    poisson_nll,
    trainable_keys,
)


def training(**fields) -> RunConfig:
    """A run config with the training ``fields``; its paths, seed and dates are
    placeholders that training does not read."""
    return RunConfig(trips_path="t.csv", weather_path="w.csv", stations_path="s.csv",
                     out_dir="out", seed=5, start_date="2018-01-01", end_date="2018-12-31",
                     **fields)


def tiny_model(kind="vprnn", hidden=4, input_width=3, processes=1, seed=0):
    params = init_params(kind, input_width, hidden, processes, seed)
    params["norm/cov_mean"] = np.zeros(input_width)
    params["norm/cov_std"] = np.ones(input_width)
    return NeuralModel(
        kind=kind,
        hidden_width=hidden,
        input_width=input_width,
        processes=processes,
        interval_minutes=60,
        targets=("pickups",) if processes == 1 else ("pickups", "returns"),
        seed=seed,
        params=params,
    )


def first_day_covariates(split):
    """The test split's first day as a one-day stack, ``(1, steps, width)``."""
    return split.test.covariates[:1]


def test_init_params_layout():
    params = init_params("vprnn", input_width=5, hidden_width=8, processes=2, seed=1)
    # a cell's gates sit side by side: 3 for the GRU, 4 for the LSTM
    assert params["prior_rnn/Wx"].shape == (5, 3 * 8)
    assert params["prior_rnn/Wh"].shape == (8, 3 * 8)
    assert params["prior_rnn/b"].shape == (3 * 8,)
    assert params["prior_head/W2"].shape[1] == 4  # mean and scale per process
    assert params["inf_rnn/Wx"].shape == (7, 4 * 8)  # covariates + counts
    assert params["inf_rnn/Wh"].shape == (8, 4 * 8)
    assert params["inf_rnn/c0"].shape == (1, 8)
    assert params["inf_head/W2"].shape[1] == 4
    only_prior = init_params("prnn", 5, 8, 2, 1)
    assert "inf_rnn/Wx" not in only_prior
    assert only_prior["prior_head/W2"].shape[1] == 2


def test_init_params_draws_each_gate_in_turn():
    # each gate's Wx and then its Wh, in gate order and each with its own
    # Glorot bound: the stream of the per-gate layout, so a seed keeps its nets
    params = init_params("vprnn", input_width=3, hidden_width=4, processes=1, seed=7)
    rng = np.random.default_rng(7)

    def draw(fan_in, fan_out):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-a, a, size=(fan_in, fan_out))

    prior = [(draw(3, 4), draw(4, 4)) for _ in "zrc"]
    draw(4, 4), draw(4, 2)  # the prior head's W1 and W2
    inference = [(draw(4, 4), draw(4, 4)) for _ in "ifog"]  # covariates + counts
    for prefix, gates in (("prior_rnn", prior), ("inf_rnn", inference)):
        np.testing.assert_array_equal(params[f"{prefix}/Wx"],
                                      np.concatenate([wx for wx, _ in gates], axis=1))
        np.testing.assert_array_equal(params[f"{prefix}/Wh"],
                                      np.concatenate([wh for _, wh in gates], axis=1))


def test_init_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        init_params("transformer", 5, 8, 1, 0)


def test_trainable_keys_exclude_normalization():
    params = init_params("prnn", 3, 4, 1, 0)
    params["norm/cov_mean"] = np.zeros(3)
    keys = trainable_keys(params)
    assert all(not k.startswith("norm/") for k in keys)
    assert keys == sorted(keys)


# -- kernels ------------------------------------------------------------------


def run_gru(params, x):
    return neural.gru(*(params[k] for k in neural.PRIOR_RNN), x)[0]


def test_gru_zero_state_zero_input_stays_zero():
    params = {k: np.zeros_like(v) for k, v in init_params("prnn", 3, 4, 1, 0).items()}
    out = run_gru(params, np.zeros((5, 2, 3)))
    assert out.shape == (5, 2, 4)
    np.testing.assert_allclose(out, 0.0)


def test_gru_output_is_bounded():
    params = {k: v * 5.0 for k, v in init_params("prnn", 3, 4, 1, 2).items()}
    out = run_gru(params, np.random.default_rng(0).normal(size=(50, 1, 3)))
    assert np.all(np.abs(out) <= 1.0 + 1e-9)


def test_lstm_shapes_and_width_check():
    params = init_params("vprnn", 3, 4, 1, 0)
    cell = [params[k] for k in neural.INF_RNN]
    out, _ = neural.lstm(*cell, np.zeros((3, 2, 4)))  # covariates + 1 count column
    assert out.shape == (3, 2, 4)
    with pytest.raises(ConfigError):
        neural.lstm(*cell, np.zeros((3, 2, 9)))
    with pytest.raises(ConfigError):
        run_gru(params, np.zeros((3, 2, 4)))


def stable_sigmoid(x):
    return tape.sigmoid(tape.Var(x)).value  # the two-branch form, three exps


def test_sigmoid_tanh_form_matches_stable_form_and_underflows_below_minus_38():
    x = np.linspace(-36.0, 36.0, 200_001)
    assert np.abs(neural.sigmoid(x) - stable_sigmoid(x)).max() <= np.finfo(float).eps
    tail = np.linspace(-700.0, -38.0, 1001)
    assert np.all(neural.sigmoid(tail) == 0.0)
    assert np.all(stable_sigmoid(tail) > 0.0)
    assert stable_sigmoid(np.array(-38.0)) == pytest.approx(3.1e-17, rel=0.05)
    assert neural.sigmoid(np.array(-37.5)) > 0.0


def test_poisson_nll_reference_value():
    # -log pmf of observing 2 at rate 2: 2 - 2 log 2 + log 2!
    value = poisson_nll(np.array([[2.0]]), np.array([[2.0]]))
    np.testing.assert_allclose(value, 2.0 - 2.0 * np.log(2.0) + np.log(2.0), atol=1e-12)


def test_poisson_nll_zero_counts():
    np.testing.assert_allclose(poisson_nll(np.array([[3.0]]), np.array([[0.0]])), 3.0, atol=1e-12)


def test_gaussian_kl_reference_and_identity():
    one, zero = np.array([[1.0]]), np.array([[0.0]])
    np.testing.assert_allclose(gaussian_kl(one, one, zero, one).sum(), 0.5, atol=1e-12)
    np.testing.assert_allclose(gaussian_kl(one, one, one, one).sum(), 0.0, atol=1e-12)


def test_gaussian_kl_nonnegative_property():
    rng = np.random.default_rng(9)
    mq, mp = rng.normal(size=(2, 200))
    sq, sp = rng.uniform(0.1, 3.0, size=(2, 200))
    assert np.all(gaussian_kl(mq, sq, mp, sp) >= -1e-12)


def test_batch_noise_is_the_per_step_stream():
    # one (T, B, P) draw equals T successive (B, P) draws, which the tape made
    whole = np.random.default_rng(17).standard_normal((6, 4, 2))
    rng = np.random.default_rng(17)
    steps = np.stack([rng.standard_normal((4, 2)) for _ in range(6)])
    np.testing.assert_array_equal(whole, steps)


# -- gradients ------------------------------------------------------------------


def relative_gradient_error(loss, grads, params, keys, eps=1e-5):
    """Worst relative gap between ``grads`` and central differences of ``loss(params)``."""
    worst = 0.0
    rng = np.random.default_rng(0)
    for key in keys:
        flat = params[key].reshape(-1)
        # probe a few coordinates per tensor
        idx = rng.choice(flat.size, size=min(3, flat.size), replace=False)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + eps
            hi = loss(params)
            flat[i] = keep - eps
            lo = loss(params)
            flat[i] = keep
            fd = (hi - lo) / (2 * eps)
            g = grads[key].reshape(-1)[i]
            worst = max(worst, abs(g - fd) / max(abs(fd), abs(g), 1e-8))
    return worst


def tape_gradient_error(build, params):
    keys = sorted(params)
    p_vars = tm.as_vars({k: v.copy() for k, v in params.items()})
    grads = dict(zip(keys, tape.grad(build(p_vars), [p_vars[k] for k in keys])))
    return relative_gradient_error(lambda prm: float(build(tm.as_vars(prm)).value),
                                   grads, params, keys)


def test_prnn_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    params = init_params("prnn", 3, 8, 1, 3)
    counts = rng.poisson(2.0, size=(2, 6, 1)).astype(float)
    covs = rng.normal(size=(2, 6, 3))
    assert tape_gradient_error(lambda p: tm.prnn_nll(p, counts, covs), params) < 1e-4


def test_vprnn_elbo_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    params = init_params("vprnn", 3, 6, 1, 4)
    counts = rng.poisson(2.0, size=(2, 4, 1)).astype(float)
    covs = rng.normal(size=(2, 4, 3))

    def build(p):
        noise = np.random.default_rng(11)  # same draws on every call
        return tape.mul(tm.vprnn_elbo(p, counts, covs, noise), tape.const(-1.0))

    assert tape_gradient_error(build, params) < 1e-4


KERNEL_KINDS = [("prnn", 1), ("vprnn", 1), ("movprnn", 2)]


def batch_problem(kind, processes, days=5, steps=7, width=3, hidden=6, seed=0):
    """Parameters with nonzero biases and start states, and one batch of days."""
    rng = np.random.default_rng(seed)
    params = init_params(kind, width, hidden, processes, seed)
    for key in params:
        if key.rsplit("/", 1)[1].startswith(("b", "h0", "c0")):
            params[key] = rng.normal(scale=0.5, size=params[key].shape)
    counts = rng.poisson(2.0, size=(days, steps, processes)).astype(float)
    covariates = rng.normal(size=(days, steps, width))
    return params, counts, covariates, (counts - 2.0) / 1.5


@pytest.mark.parametrize("kind,processes", KERNEL_KINDS)
def test_kernel_gradients_match_finite_differences(kind, processes):
    params, counts, covs, cond = batch_problem(kind, processes, days=2, steps=4)

    def loss(prm):
        return neural._loss_and_grads(kind, prm, counts, covs, cond, np.random.default_rng(11))

    _, grads = loss(params)
    assert relative_gradient_error(lambda prm: loss(prm)[0], grads, params, sorted(params)) < 1e-4


@pytest.mark.parametrize("kind,processes", KERNEL_KINDS)
def test_kernel_gradients_match_tape(kind, processes):
    params, counts, covs, cond = batch_problem(kind, processes)
    loss, grads = neural._loss_and_grads(kind, params, counts, covs, cond,
                                         np.random.default_rng(7))
    ref_loss, ref_grads = tm.loss_and_grads(kind, params, counts, covs, cond,
                                            np.random.default_rng(7))
    assert sorted(grads) == sorted(ref_grads) == trainable_keys(params)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    for key, ref in ref_grads.items():
        assert grads[key].shape == ref.shape, key
        assert np.abs(grads[key] - ref).max() <= 1e-12 * np.abs(ref).max(), key
    assert np.abs(ref_grads["prior_rnn/h0"]).max() > 0.0
    if kind != "prnn":
        assert np.abs(ref_grads["inf_rnn/c0"]).max() > 0.0


@pytest.mark.parametrize("kind,processes", KERNEL_KINDS)
def test_training_tape_holds_one_node_per_kernel(kind, processes, monkeypatch):
    params, counts, covs, cond = batch_problem(kind, processes)
    tapes = []
    grad = autodiff.grad
    monkeypatch.setattr(autodiff, "grad", lambda entries: tapes.append(entries) or grad(entries))
    neural._loss_and_grads(kind, params, counts, covs, cond, np.random.default_rng(7))
    assert len(tapes) == 1
    assert len(tapes[0]) == (3 if kind == "prnn" else 5)


@pytest.mark.parametrize("kind,processes", KERNEL_KINDS)
def test_forward_passes_match_tape(kind, processes):
    params, counts, covs, cond = batch_problem(kind, processes)
    val = neural._validation_loss(kind, params, counts, covs, cond, 21)
    ref = tm.validation_loss(kind, params, counts, covs, cond, 21)
    assert abs(val - ref) <= 1e-12 * abs(ref)
    model = tiny_model(kind, hidden=6, processes=processes)
    model.params.update(params)
    rates = neural.predict_rates(model, covs)
    expected = tm.predict_rates(model, covs)
    assert np.abs(rates - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("kind,processes", KERNEL_KINDS)
def test_training_history_matches_tape(kind, processes, monkeypatch):
    monkeypatch.setattr(neural, "TRAIN_DTYPE", np.float64)
    split, _, _ = sinusoidal_split(n_days=16, seed=8, mean_rate=4.0, amplitude=1.5)
    hyper = training(hidden_width=5, max_epochs=4, patience=10, batch_days=4)
    targets = ("pickups", "returns")[:processes]
    kernels = neural.train(kind, split, hyper, seed=5, targets=targets)
    monkeypatch.setattr(neural, "_loss_and_grads", tm.loss_and_grads)
    monkeypatch.setattr(neural, "_validation_loss", tm.validation_loss)
    tape = neural.train(kind, split, hyper, seed=5, targets=targets)
    assert len(kernels.train_history) == len(tape.train_history) == 4
    np.testing.assert_allclose(kernels.train_history, tape.train_history, rtol=1e-9, atol=0.0)


# -- mixed precision -------------------------------------------------------------
#
# Training runs the kernels in float32. Their error is bounded from the dtype:
# 100 float32 epsilons (1.2e-5) relative to a tensor's largest entry for one
# batch, and 1e-4 relative for validation losses after a few epochs of Adam.

F32_RTOL = 100 * np.finfo(np.float32).eps


@pytest.mark.parametrize("kind,processes", KERNEL_KINDS)
def test_a_float32_training_batch_stays_float32(kind, processes, monkeypatch):
    # catches NumPy 2 promotion: one float64 scalar in a vjp turns every
    # gradient below it float64
    assert neural.TRAIN_DTYPE == np.float32
    split, _, _ = sinusoidal_split(n_days=16, seed=8, mean_rate=4.0, amplitude=1.5)
    batches, swept = [], []
    loss, grad = neural._loss, autodiff.grad
    monkeypatch.setattr(neural, "_loss", lambda *args: batches.append(loss(*args)) or batches[-1])
    monkeypatch.setattr(autodiff, "grad", lambda entries: swept.append(grad(entries)) or swept[-1])
    neural.train(kind, split, training(hidden_width=5, max_epochs=1, batch_days=4), seed=5,
                 targets=("pickups", "returns")[:processes])
    values, entries = batches[0]
    kernel_values = [values[name] for name, _, _ in entries[:-1]]  # the loss is a Python float
    assert len(kernel_values) == (2 if kind == "prnn" else 4)
    assert {v.dtype for v in kernel_values} == {np.dtype(np.float32)}
    assert {g.dtype for g in swept[0].values()} == {np.dtype(np.float32)}


@pytest.mark.parametrize("kind,processes", KERNEL_KINDS)
def test_float32_kernels_match_float64(kind, processes):
    params, counts, covs, cond = batch_problem(kind, processes, days=8, steps=24, hidden=16)
    loss, grads = neural._loss_and_grads(kind, params, counts, covs, cond,
                                         np.random.default_rng(7))
    low = {k: v.astype(np.float32) for k, v in params.items()}
    loss32, grads32 = neural._loss_and_grads(
        kind, low, *(a.astype(np.float32) for a in (counts, covs, cond)),
        np.random.default_rng(7))
    assert abs(loss32 - loss) <= F32_RTOL * abs(loss)
    for key, ref in grads.items():
        assert grads32[key].dtype == np.float32
        assert np.abs(grads32[key] - ref).max() <= F32_RTOL * np.abs(ref).max(), key


@pytest.mark.parametrize("kind,processes", KERNEL_KINDS)
def test_float32_training_history_matches_float64(kind, processes, monkeypatch):
    split, _, _ = sinusoidal_split(n_days=30, seed=9, mean_rate=4.0, amplitude=1.5)
    hyper = training(hidden_width=8, max_epochs=6, patience=10, batch_days=8)
    targets = ("pickups", "returns")[:processes]
    low = neural.train(kind, split, hyper, seed=5, targets=targets)
    monkeypatch.setattr(neural, "TRAIN_DTYPE", np.float64)
    high = neural.train(kind, split, hyper, seed=5, targets=targets)
    assert len(low.train_history) == len(high.train_history) == 6
    np.testing.assert_allclose(low.train_history, high.train_history, rtol=1e-4, atol=0.0)
    assert all(v.dtype == np.float64 for v in low.params.values())


def test_elbo_reduces_to_likelihood_when_posterior_equals_prior():
    # zero both head maps so prior and posterior emit the same distribution:
    # the KL term vanishes and the bound equals the reconstruction term
    params = init_params("vprnn", 2, 4, 1, 5)
    for key in list(params):
        if key.startswith(("prior_head/", "inf_head/")):
            params[key] = np.zeros_like(params[key])
    counts = np.ones((1, 3, 1))
    covs = np.zeros((1, 3, 2))

    # both heads emit mean 0 and scale softplus(0) + floor at every step
    scale = np.log(2.0) + neural.SCALE_FLOOR
    noise = np.random.default_rng(0)
    recon = 0.0
    for _ in range(3):
        lam = scale * float(noise.standard_normal((1, 1))[0, 0])
        rate = np.logaddexp(0.0, lam) + neural.RATE_FLOOR
        recon -= rate - np.log(rate)  # -log pmf at count 1

    kernel_elbo = -neural._validation_loss("vprnn", params, counts, covs, counts, 0)
    np.testing.assert_allclose(kernel_elbo, recon, atol=1e-10)
    tape_elbo = float(tm.vprnn_elbo(tm.as_vars(params), counts, covs,
                                    np.random.default_rng(0)).value)
    np.testing.assert_allclose(tape_elbo, recon, atol=1e-10)


def test_training_runs_and_is_deterministic():
    split, _, _ = sinusoidal_split(n_days=20, seed=1, mean_rate=4.0, amplitude=2.0)
    hyper = training(hidden_width=6, max_epochs=8, patience=3, batch_days=8)
    a = neural.train("prnn", split, hyper, seed=13, targets=("pickups",))
    b = neural.train("prnn", split, hyper, seed=13, targets=("pickups",))
    assert a.train_history == b.train_history
    for key in a.params:
        np.testing.assert_array_equal(a.params[key], b.params[key])
    assert len(a.train_history) >= 1
    assert "norm/cov_mean" in a.params


def scripted_validation(monkeypatch, losses):
    """Make ``neural._validation_loss`` return ``losses`` in turn. Returns the
    list of the parameters each call was given, copied."""
    seen = []

    def validation_loss(kind, params, *args):
        seen.append({key: value.copy() for key, value in params.items()})
        return losses[len(seen) - 1]

    monkeypatch.setattr(neural, "_validation_loss", validation_loss)
    return seen


def test_early_stopping_ends_at_the_first_long_plateau_past_min_epochs(monkeypatch):
    # patience 2: epochs 1-3 are 3 stale epochs, but epoch 3 comes before
    # MIN_EPOCHS; epoch 4 is the best, and epochs 5-7 are the plateau that stops
    assert neural.MIN_EPOCHS == 5
    losses = [3.0, 3.5, 3.6, 3.7, 2.0, 2.5, 2.6, 2.7, 1.0, 0.5]
    monkeypatch.setattr(neural, "TRAIN_DTYPE", np.float64)  # params reach the loss as kept
    seen = scripted_validation(monkeypatch, losses)
    split, _, _ = sinusoidal_split(n_days=16, seed=8, mean_rate=4.0, amplitude=1.5)
    model = neural.train("prnn", split, training(hidden_width=3, max_epochs=len(losses),
                                                 patience=2, batch_days=8), seed=5)
    assert model.train_history == losses[:8]
    assert len(seen) == 8
    trainable = trainable_keys(model.params)
    for key in trainable:
        np.testing.assert_array_equal(model.params[key], seen[4][key])
    assert any(not np.array_equal(model.params[key], seen[7][key]) for key in trainable)


def test_a_non_finite_validation_loss_aborts_training(monkeypatch):
    scripted_validation(monkeypatch, [3.0, 2.0, np.nan])
    split, _, _ = sinusoidal_split(n_days=16, seed=8, mean_rate=4.0, amplitude=1.5)
    with pytest.raises(TrainingError) as err:
        neural.train("prnn", split, training(hidden_width=3, max_epochs=10, batch_days=8),
                     seed=5)
    assert str(err.value) == "prnn validation loss became nan at epoch 2"


def test_training_improves_on_initial_validation_loss():
    split, _, _ = sinusoidal_split(n_days=30, seed=2, mean_rate=6.0, amplitude=3.0)
    hyper = training(hidden_width=8, max_epochs=25, patience=25, batch_days=8)
    model = neural.train("prnn", split, hyper, seed=3, targets=("pickups",))
    assert model.train_history[-1] <= model.train_history[0]


def test_movprnn_trains_both_processes():
    split, _, _ = sinusoidal_split(n_days=16, seed=3, mean_rate=4.0, amplitude=1.0)
    hyper = training(hidden_width=5, max_epochs=4, patience=2, batch_days=8)
    model = neural.train("movprnn", split, hyper, seed=1, targets=("pickups", "returns"))
    assert model.processes == 2
    rates = neural.predict_rates(model, first_day_covariates(split))
    assert rates.shape == (1, split.test.intervals_per_day, 2)


def test_predictions_are_deterministic():
    split, _, _ = sinusoidal_split(n_days=16, seed=4, mean_rate=4.0, amplitude=1.0)
    hyper = training(hidden_width=5, max_epochs=3, patience=2, batch_days=8)
    model = neural.train("vprnn", split, hyper, seed=2, targets=("pickups",))
    f1 = neural.predict_rates(model, first_day_covariates(split))
    f2 = neural.predict_rates(model, first_day_covariates(split))
    np.testing.assert_array_equal(f1, f2)
    assert np.all(f1 > 0.0)


def test_day_arrays_shapes_and_target_validation():
    split, _, _ = sinusoidal_split(n_days=10, seed=6)
    counts, covs = day_arrays(split.train, ("pickups", "returns"))
    assert counts.shape == (7, 24, 2)
    assert covs.shape[0:2] == (7, 24)
    with pytest.raises(ConfigError):
        day_arrays(split.train, ("dropoffs",))


def test_checkpoint_roundtrip(tmp_path):
    split, _, _ = sinusoidal_split(n_days=12, seed=7, mean_rate=3.0, amplitude=1.0)
    hyper = training(hidden_width=5, max_epochs=2, patience=2, batch_days=8)
    model = neural.train("vprnn", split, hyper, seed=6, targets=("pickups",))
    path = str(tmp_path / "model.ckpt")
    neural.save_checkpoint(model, path)
    loaded = neural.load_checkpoint(path)
    assert loaded.kind == model.kind
    assert loaded.targets == model.targets
    assert loaded.interval_minutes == model.interval_minutes
    assert len(model.train_history) == 2
    assert loaded.train_history == model.train_history
    assert sorted(loaded.params) == sorted(model.params)
    for key in model.params:
        np.testing.assert_array_equal(loaded.params[key], model.params[key])
    f_orig = neural.predict_rates(model, first_day_covariates(split))
    f_load = neural.predict_rates(loaded, first_day_covariates(split))
    np.testing.assert_array_equal(f_orig, f_load)


def test_a_checkpoint_with_count_statistics_forecasts_the_same(tmp_path):
    # training keeps only the covariates' statistics; a file written when it
    # kept the counts' too must load and forecast as before
    split, _, _ = sinusoidal_split(n_days=12, seed=7, mean_rate=3.0, amplitude=1.0)
    hyper = training(hidden_width=5, max_epochs=2, patience=2, batch_days=8)
    model = neural.train("vprnn", split, hyper, seed=6, targets=("pickups",))
    assert [k for k in model.params if k.startswith("norm/")] == ["norm/cov_mean", "norm/cov_std"]
    paths = {name: str(tmp_path / f"{name}.ckpt") for name in ("new", "old")}
    neural.save_checkpoint(model, paths["new"])
    model.params.update({"norm/count_mean": np.array([2.5]), "norm/count_std": np.array([1.5])})
    neural.save_checkpoint(model, paths["old"])
    new, old = (neural.load_checkpoint(paths[name]) for name in ("new", "old"))
    np.testing.assert_array_equal(old.params["norm/count_std"], [1.5])
    covs = first_day_covariates(split)
    np.testing.assert_array_equal(neural.predict_rates(old, covs), neural.predict_rates(new, covs))


def test_checkpoint_rejects_corrupt_files(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(FormatError):
        neural.load_checkpoint(str(path))
    model = tiny_model()
    good = tmp_path / "good.ckpt"
    neural.save_checkpoint(model, str(good))
    truncated = good.read_bytes()[:-16]
    bad2 = tmp_path / "trunc.ckpt"
    bad2.write_bytes(truncated)
    with pytest.raises(FormatError):
        neural.load_checkpoint(str(bad2))
    # cut inside the 8-byte header length, a header without its kind, and one
    # without the training history that every checkpoint's header holds
    blob = good.read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])

    def without(key: str) -> bytes:
        header = json.loads(blob[16:16 + length])
        del header[key]
        text = json.dumps(header).encode()
        return blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + length:]

    for name, damaged in (("cut.ckpt", blob[:12]), ("kindless.ckpt", without("kind")),
                          ("historyless.ckpt", without("train_history"))):
        bad = tmp_path / name
        bad.write_bytes(damaged)
        with pytest.raises(FormatError, match=f"^{re.escape(str(bad))}: "):
            neural.load_checkpoint(str(bad))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_all_kinds_roundtrip_headers(kind, tmp_path):
    processes = 2 if kind == "movprnn" else 1
    model = tiny_model(kind=kind, processes=processes)
    path = str(tmp_path / f"{kind}.ckpt")
    neural.save_checkpoint(model, path)
    assert neural.load_checkpoint(path).kind == kind


# -- multi-day forecasts ----------------------------------------------------

FORECAST_KINDS = [("prnn", 1), ("vprnn", 1), ("movprnn", 2)]


def forecast_inputs():
    return np.random.default_rng(5).normal(size=(4, 6, 3))


@pytest.mark.parametrize("kind,processes", FORECAST_KINDS)
def test_multi_day_forecast_matches_one_day_stacks(kind, processes):
    model = tiny_model(kind, processes=processes, seed=3)
    cov = forecast_inputs()
    batch = neural.predict_rates(model, cov)
    assert batch.shape == (4, 6, processes)
    for d in range(4):
        single = neural.predict_rates(model, cov[d][None])
        assert single.shape == (1, 6, processes)
        np.testing.assert_allclose(batch[d], single[0], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind,processes", FORECAST_KINDS)
def test_day_forecast_does_not_depend_on_other_days_in_the_call(kind, processes):
    model = tiny_model(kind, processes=processes, seed=3)
    cov = forecast_inputs()
    full = neural.predict_rates(model, cov)
    subset = neural.predict_rates(model, cov[[2, 0]])
    np.testing.assert_allclose(subset[0], full[2], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(subset[1], full[0], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind,processes", FORECAST_KINDS)
def test_forecast_rejects_a_single_day_and_the_wrong_covariate_width(kind, processes):
    model = tiny_model(kind, processes=processes, seed=3)
    cov = forecast_inputs()
    with pytest.raises(DataError):
        neural.predict_rates(model, cov[0])
    with pytest.raises(DataError):
        neural.predict_rates(model, cov[:, :, :2])
    with pytest.raises(DataError):
        neural.predict_rates(model, cov[0, :, :2])


def normal_expectation(f, mean_, scale, step=0.02):
    """``E[f(mean_ + scale Z)]`` for standard normal ``Z``, by the trapezoid
    rule over ``Z`` in [-14, 14], a row of ``mean_`` and ``scale`` at a time.
    For softplus, which is analytic within ``pi / scale`` of the real axis,
    the trapezoid rule converges geometrically in ``1 / step``: at ``scale``
    up to 6.5, ``step`` 0.05 and 0.02 agree to 1e-13."""
    z = np.arange(-14.0, 14.0 + step / 2, step)
    w = np.exp(-0.5 * z * z) * (step / np.sqrt(2.0 * np.pi))
    return np.array([f(m[:, None] + s[:, None] * z) @ w
                     for m, s in zip(np.atleast_2d(mean_), np.atleast_2d(scale))])


# the relative error of the latent-rate expectation that predict_rates states
# for mu0 in [-8, 16] and sigma0 in [0, 6.5]
LATENT_RATE_BOUND = 3e-5


def test_the_latent_rate_rule_meets_its_stated_bound():
    # a grid over the stated domain; trained nets have reached sigma0 = 6.24.
    # test_forward_passes_match_tape holds predict_rates to this rule
    mu0, sigma0 = np.meshgrid(np.linspace(-8.0, 16.0, 97), np.linspace(0.0, 6.5, 66))
    nodes, weights = neural._hermite_rule()
    got = neural.softplus(mu0[..., None] + sigma0[..., None] * nodes) @ weights
    expected = normal_expectation(neural.softplus, mu0, sigma0)
    assert np.abs(got / expected - 1.0).max() <= LATENT_RATE_BOUND


def test_latent_forecast_is_the_expected_rate_of_the_prior():
    # Reference: step the prior one row at a time, and take each slot's
    # expected rate under its N(mu0, sigma0^2) by the trapezoid rule.
    model = tiny_model("movprnn", processes=2, seed=4)
    cov = np.random.default_rng(6).normal(size=(6, 3))
    forecast = neural.predict_rates(model, cov[None])[0]
    p = tm.as_vars(model.params)
    h = p["prior_rnn/h0"]
    for t in range(len(cov)):
        h = tm.gru_step(p, "prior_rnn", h, tape.const(cov[t:t + 1]))  # identity normalization
        out = tm.head(p, "prior_head", h).value
        mean_, scale = out[:, :2], np.logaddexp(0.0, out[:, 2:]) + neural.SCALE_FLOOR
        expected = normal_expectation(neural.softplus, mean_.T, scale.T)[:, 0] + neural.RATE_FLOOR
        np.testing.assert_allclose(forecast[t], expected, rtol=LATENT_RATE_BOUND, atol=0.0)
