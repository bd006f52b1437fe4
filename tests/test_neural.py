"""Recurrent rate models: cells, losses, training loop, and serialization."""

import numpy as np
import pytest

from bikecast import autodiff as ad
from bikecast import neural
from bikecast.errors import ConfigError, DataError, FormatError
from bikecast.neural import (
    MODEL_KINDS,
    NeuralModel,
    TrainConfig,
    day_arrays,
    gaussian_kl,
    gru_step,
    head,
    init_params,
    lstm_step,
    poisson_nll,
    prnn_nll,
    trainable_keys,
    vprnn_elbo,
)
from bikecast.synthetic import sinusoidal_split


def tiny_model(kind="vprnn", hidden=4, input_width=3, processes=1, seed=0):
    params = init_params(kind, input_width, hidden, processes, seed)
    params["norm/cov_mean"] = np.zeros(input_width)
    params["norm/cov_std"] = np.ones(input_width)
    params["norm/count_mean"] = np.zeros(processes)
    params["norm/count_std"] = np.ones(processes)
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
    return split.test.day(0).covariates.values


def test_init_params_layout():
    params = init_params("vprnn", input_width=5, hidden_width=8, processes=2, seed=1)
    assert params["prior_rnn/Wxz"].shape == (5, 8)
    assert params["prior_head/W2"].shape[1] == 4  # mean and scale per process
    assert params["inf_rnn/Wxi"].shape == (7, 8)  # covariates + counts
    assert params["inf_head/W2"].shape[1] == 4
    only_prior = init_params("prnn", 5, 8, 2, 1)
    assert "inf_rnn/Wxi" not in only_prior
    assert only_prior["prior_head/W2"].shape[1] == 2


def test_init_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        init_params("transformer", 5, 8, 1, 0)


def test_trainable_keys_exclude_normalization():
    params = init_params("prnn", 3, 4, 1, 0)
    params["norm/cov_mean"] = np.zeros(3)
    keys = trainable_keys(params)
    assert all(not k.startswith("norm/") for k in keys)
    assert keys == sorted(keys)


def test_gru_zero_state_zero_input_stays_zero():
    params = {k: ad.Var(np.zeros_like(v)) for k, v in init_params("prnn", 3, 4, 1, 0).items()}
    h = ad.Var(np.zeros((2, 4)))
    x = ad.Var(np.zeros((2, 3)))
    out = gru_step(params, "prior_rnn", h, x)
    np.testing.assert_allclose(out.value, 0.0)


def test_gru_output_is_bounded():
    params = {k: ad.Var(v * 5.0) for k, v in init_params("prnn", 3, 4, 1, 2).items()}
    h = ad.Var(np.zeros((1, 4)))
    rng = np.random.default_rng(0)
    for _ in range(50):
        h = gru_step(params, "prior_rnn", h, ad.Var(rng.normal(size=(1, 3))))
    assert np.all(np.abs(h.value) <= 1.0 + 1e-9)


def test_lstm_shapes_and_width_check():
    params = {k: ad.Var(v) for k, v in init_params("vprnn", 3, 4, 1, 0).items()}
    h = ad.Var(np.zeros((2, 4)))
    c = ad.Var(np.zeros((2, 4)))
    x = ad.Var(np.zeros((2, 4)))  # covariates + 1 count column
    h2, c2 = lstm_step(params, "inf_rnn", h, c, x)
    assert h2.value.shape == (2, 4)
    assert c2.value.shape == (2, 4)
    with pytest.raises(ConfigError):
        lstm_step(params, "inf_rnn", h, c, ad.Var(np.zeros((2, 9))))


def test_poisson_nll_reference_value():
    # -log pmf of observing 2 at rate 2: 2 - 2 log 2 + log 2!
    rate = ad.Var(np.array([[2.0]]))
    value = poisson_nll(rate, np.array([[2.0]])).value
    np.testing.assert_allclose(value, 2.0 - 2.0 * np.log(2.0) + np.log(2.0), atol=1e-12)


def test_poisson_nll_zero_counts():
    rate = ad.Var(np.array([[3.0]]))
    np.testing.assert_allclose(poisson_nll(rate, np.array([[0.0]])).value, 3.0, atol=1e-12)


def test_gaussian_kl_reference_and_identity():
    one = ad.Var(np.array([[1.0]]))
    zero = ad.Var(np.array([[0.0]]))
    kl = gaussian_kl(one, one, zero, one).sum().value
    np.testing.assert_allclose(kl, 0.5, atol=1e-12)
    same = gaussian_kl(one, one, one, one).sum().value
    np.testing.assert_allclose(same, 0.0, atol=1e-12)


def test_gaussian_kl_nonnegative_property():
    rng = np.random.default_rng(9)
    for _ in range(200):
        mq, mp = rng.normal(size=2)
        sq, sp = rng.uniform(0.1, 3.0, size=2)
        kl = gaussian_kl(
            ad.Var(np.array([[mq]])), ad.Var(np.array([[sq]])),
            ad.Var(np.array([[mp]])), ad.Var(np.array([[sp]])),
        ).sum().value
        assert kl >= -1e-12


def relative_gradient_error(build, params, keys, eps=1e-5):
    p_vars = {k: ad.Var(v.copy()) for k, v in params.items()}
    loss = build(p_vars)
    grads = ad.grad(loss, [p_vars[k] for k in keys])
    worst = 0.0
    rng = np.random.default_rng(0)
    for key, g in zip(keys, grads):
        flat = params[key].reshape(-1)
        # probe a few coordinates per tensor
        idx = rng.choice(flat.size, size=min(3, flat.size), replace=False)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + eps
            hi = float(build({k: ad.Var(v) for k, v in params.items()}).value)
            flat[i] = keep - eps
            lo = float(build({k: ad.Var(v) for k, v in params.items()}).value)
            flat[i] = keep
            fd = (hi - lo) / (2 * eps)
            denom = max(abs(fd), abs(g.reshape(-1)[i]), 1e-8)
            worst = max(worst, abs(g.reshape(-1)[i] - fd) / denom)
    return worst


def test_prnn_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    params = init_params("prnn", 3, 8, 1, 3)
    counts = rng.poisson(2.0, size=(2, 6, 1)).astype(float)
    covs = rng.normal(size=(2, 6, 3))
    err = relative_gradient_error(lambda p: prnn_nll(p, counts, covs), params,
                                  sorted(params))
    assert err < 1e-4


def test_vprnn_elbo_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    params = init_params("vprnn", 3, 6, 1, 4)
    counts = rng.poisson(2.0, size=(2, 4, 1)).astype(float)
    covs = rng.normal(size=(2, 4, 3))

    def build(p):
        noise = np.random.default_rng(11)  # same draws on every call
        return ad.mul(vprnn_elbo(p, counts, covs, 2, noise), ad.const(-1.0))

    err = relative_gradient_error(build, params, sorted(params))
    assert err < 1e-4


def test_elbo_reduces_to_likelihood_when_posterior_equals_prior():
    # zero both head maps so prior and posterior emit the same distribution:
    # the KL term vanishes and the bound equals the reconstruction term
    params = init_params("vprnn", 2, 4, 1, 5)
    for key in list(params):
        if key.startswith(("prior_head/", "inf_head/")):
            params[key] = np.zeros_like(params[key])
    counts = np.ones((1, 3, 1))
    covs = np.zeros((1, 3, 2))
    p_vars = {k: ad.Var(v) for k, v in params.items()}
    elbo = float(vprnn_elbo(p_vars, counts, covs, 1, np.random.default_rng(0)).value)

    # both heads emit mean 0 and scale softplus(0) + floor at every step
    scale = np.log(2.0) + neural.SCALE_FLOOR
    noise = np.random.default_rng(0)
    recon = 0.0
    for _ in range(3):
        lam = scale * float(noise.standard_normal((1, 1))[0, 0])
        rate = np.logaddexp(0.0, lam) + neural.RATE_FLOOR
        recon -= rate - np.log(rate)  # -log pmf at count 1
    np.testing.assert_allclose(elbo, recon, atol=1e-10)


def test_training_runs_and_is_deterministic():
    split, _, _ = sinusoidal_split(n_days=20, seed=1, mean_rate=4.0, amplitude=2.0)
    hyper = TrainConfig(hidden_width=6, max_epochs=8, patience=3, batch_days=8)
    a = neural.train("prnn", split, hyper, seed=13, targets=("pickups",))
    b = neural.train("prnn", split, hyper, seed=13, targets=("pickups",))
    assert a.train_history == b.train_history
    for key in a.params:
        np.testing.assert_array_equal(a.params[key], b.params[key])
    assert len(a.train_history) >= 1
    assert "norm/cov_mean" in a.params


def test_training_improves_on_initial_validation_loss():
    split, _, _ = sinusoidal_split(n_days=30, seed=2, mean_rate=6.0, amplitude=3.0)
    hyper = TrainConfig(hidden_width=8, max_epochs=25, patience=25, batch_days=8)
    model = neural.train("prnn", split, hyper, seed=3, targets=("pickups",))
    assert model.train_history[-1] <= model.train_history[0]


def test_movprnn_trains_both_processes():
    split, _, _ = sinusoidal_split(n_days=16, seed=3, mean_rate=4.0, amplitude=1.0)
    hyper = TrainConfig(hidden_width=5, max_epochs=4, patience=2, batch_days=8)
    model = neural.train("movprnn", split, hyper, seed=1, targets=("pickups", "returns"))
    assert model.processes == 2
    rates = neural.predict_rates(model, first_day_covariates(split), n_samples=20, seed=0)
    assert rates.shape == (split.test.intervals_per_day, 2)


def test_predictions_are_deterministic():
    split, _, _ = sinusoidal_split(n_days=16, seed=4, mean_rate=4.0, amplitude=1.0)
    hyper = TrainConfig(hidden_width=5, max_epochs=3, patience=2, batch_days=8)
    model = neural.train("vprnn", split, hyper, seed=2, targets=("pickups",))
    f1 = neural.predict_rates(model, first_day_covariates(split), n_samples=40, seed=9)
    f2 = neural.predict_rates(model, first_day_covariates(split), n_samples=40, seed=9)
    np.testing.assert_array_equal(f1, f2)
    assert np.all(f1 > 0.0)


def test_is_log_likelihood_rejects_point_models():
    model = tiny_model(kind="prnn")
    with pytest.raises(ConfigError):
        neural.is_log_likelihood(model, np.ones((4, 1)), np.zeros((4, 3)))


def test_single_sample_importance_estimate_is_unbiased_for_the_elbo():
    # E[IS_1] equals the ELBO for any parameters; check by averaging
    model = tiny_model(kind="vprnn", hidden=4, input_width=2, processes=1, seed=8)
    rng = np.random.default_rng(0)
    counts = rng.poisson(2.0, size=(4, 1))
    covs = rng.normal(size=(4, 2))
    is_draws = np.array([
        neural.is_log_likelihood(model, counts, covs, n_samples=1, seed=s)
        for s in range(1000)
    ])
    elbo_draws = np.array([
        neural.elbo_value(model, counts, covs, n_samples=1, seed=10_000 + s)
        for s in range(1000)
    ])
    se = np.sqrt(is_draws.var() / 1000 + elbo_draws.var() / 1000)
    assert abs(is_draws.mean() - elbo_draws.mean()) < 3 * se


def test_importance_estimate_is_deterministic_given_seed():
    model = tiny_model(kind="vprnn")
    counts = np.ones((3, 1))
    covs = np.zeros((3, 3))
    a = neural.is_log_likelihood(model, counts, covs, n_samples=10, seed=4)
    b = neural.is_log_likelihood(model, counts, covs, n_samples=10, seed=4)
    assert a == b


def test_day_arrays_shapes_and_target_validation():
    split, _, _ = sinusoidal_split(n_days=10, seed=6)
    counts, covs = day_arrays(split.train, ("pickups", "returns"))
    assert counts.shape == (7, 24, 2)
    assert covs.shape[0:2] == (7, 24)
    with pytest.raises(ConfigError):
        day_arrays(split.train, ("dropoffs",))


def test_checkpoint_roundtrip(tmp_path):
    split, _, _ = sinusoidal_split(n_days=12, seed=7, mean_rate=3.0, amplitude=1.0)
    hyper = TrainConfig(hidden_width=5, max_epochs=2, patience=2, batch_days=8)
    model = neural.train("vprnn", split, hyper, seed=6, targets=("pickups",))
    path = str(tmp_path / "model.ckpt")
    neural.save_checkpoint(model, path)
    loaded = neural.load_checkpoint(path)
    assert loaded.kind == model.kind
    assert loaded.targets == model.targets
    assert loaded.interval_minutes == model.interval_minutes
    assert sorted(loaded.params) == sorted(model.params)
    for key in model.params:
        np.testing.assert_array_equal(loaded.params[key], model.params[key])
    f_orig = neural.predict_rates(model, first_day_covariates(split), n_samples=10, seed=1)
    f_load = neural.predict_rates(loaded, first_day_covariates(split), n_samples=10, seed=1)
    np.testing.assert_array_equal(f_orig, f_load)


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
    rng = np.random.default_rng(5)
    return rng.normal(size=(4, 6, 3)), [101, 202, 303, 404]


@pytest.mark.parametrize("kind,processes", FORECAST_KINDS)
def test_multi_day_forecast_matches_single_day_calls(kind, processes):
    model = tiny_model(kind, processes=processes, seed=3)
    cov, seeds = forecast_inputs()
    batch = neural.predict_rates(model, cov, n_samples=30, seed=seeds)
    assert batch.shape == (4, 6, processes)
    for d in range(4):
        single = neural.predict_rates(model, cov[d], n_samples=30, seed=seeds[d])
        assert single.shape == (6, processes)
        np.testing.assert_allclose(batch[d], single, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind,processes", FORECAST_KINDS)
def test_day_forecast_does_not_depend_on_other_days_in_the_call(kind, processes):
    model = tiny_model(kind, processes=processes, seed=3)
    cov, seeds = forecast_inputs()
    full = neural.predict_rates(model, cov, n_samples=30, seed=seeds)
    subset = neural.predict_rates(model, cov[[2, 0]], n_samples=30, seed=[seeds[2], seeds[0]])
    np.testing.assert_allclose(subset[0], full[2], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(subset[1], full[0], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind,processes", FORECAST_KINDS)
def test_forecast_rejects_seed_count_and_covariate_width(kind, processes):
    model = tiny_model(kind, processes=processes, seed=3)
    cov, seeds = forecast_inputs()
    with pytest.raises(DataError):
        neural.predict_rates(model, cov, seed=seeds[:3])
    with pytest.raises(DataError):
        neural.predict_rates(model, cov, seed=seeds + [505])
    with pytest.raises(DataError):
        neural.predict_rates(model, cov[:, :, :2], seed=seeds)
    with pytest.raises(DataError):
        neural.predict_rates(model, cov[0, :, :2], seed=seeds[0])


def test_latent_forecast_draws_per_step_noise_from_the_day_seed():
    # Reference: step the prior one row at a time and draw each step's fan
    # from one generator, in step order.
    model = tiny_model("movprnn", processes=2, seed=4)
    cov = np.random.default_rng(6).normal(size=(6, 3))
    n_samples = 25
    forecast = neural.predict_rates(model, cov, n_samples=n_samples, seed=8)
    p = {k: ad.Var(v) for k, v in model.params.items() if not k.startswith("norm/")}
    rng = np.random.default_rng(8)
    h = p["prior_rnn/h0"]
    for t in range(len(cov)):
        h = gru_step(p, "prior_rnn", h, ad.const(cov[t:t + 1]))  # identity normalization
        out = head(p, "prior_head", h).value[0]
        mean_, scale = out[:2], np.logaddexp(0.0, out[2:]) + neural.SCALE_FLOOR
        eps = rng.standard_normal((n_samples, 2))
        draws = np.logaddexp(0.0, mean_ + scale * eps) + neural.RATE_FLOOR
        np.testing.assert_allclose(forecast[t], draws.mean(axis=0), rtol=1e-12)
