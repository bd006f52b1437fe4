"""Recurrent count forecasters.

Three model kinds share one codebase:

* ``prnn``: a gated recurrent state rolled on covariates with a feed-forward
  head mapping to a Poisson rate; exact maximum likelihood.
* ``vprnn``: the rate becomes a latent Gaussian variable. A prior network
  (recurrent state on covariates only) emits N(mu0, sigma0); an inference
  network (recurrent-with-memory state on covariates and observed counts)
  emits the posterior. Trained by a step-wise evidence lower bound with
  reparameterized sampling and closed-form Gaussian KL.
* ``movprnn``: the vprnn with a 2-dimensional latent rate covering pickups
  and returns jointly.

The latent Gaussian draw passes through softplus before entering the Poisson
likelihood so the rate is always positive while the KL stays closed form.
Hidden state resets at day boundaries: forecasts are consumed once per day,
so each day is its own sequence.

Forecasting reads the prior network only, which sees covariates and no
counts. :func:`predict_rates` therefore steps it once over a stack of days,
one row per day, and draws the sample fan of the latent-rate models only at
its output.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from . import autodiff as ad
from .autodiff import Var
from .errors import ConfigError, DataError, FormatError, TrainingError
from .ingest import DataSplit, DemandSeries

RATE_FLOOR = 1e-6
SCALE_FLOOR = 1e-6

MODEL_KINDS = ("prnn", "vprnn", "movprnn")

_CHECKPOINT_MAGIC = b"BKCKPT01"


# -- parameter initialization --------------------------------------------


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def _init_gru(rng, prefix: str, input_width: int, hidden: int, params: dict) -> None:
    for gate in ("z", "r", "c"):
        params[f"{prefix}/Wx{gate}"] = _glorot(rng, input_width, hidden)
        params[f"{prefix}/Wh{gate}"] = _glorot(rng, hidden, hidden)
        params[f"{prefix}/b{gate}"] = np.zeros(hidden)
    params[f"{prefix}/h0"] = np.zeros((1, hidden))


def _init_lstm(rng, prefix: str, input_width: int, hidden: int, params: dict) -> None:
    for gate in ("i", "f", "o", "g"):
        params[f"{prefix}/Wx{gate}"] = _glorot(rng, input_width, hidden)
        params[f"{prefix}/Wh{gate}"] = _glorot(rng, hidden, hidden)
        params[f"{prefix}/b{gate}"] = np.zeros(hidden)
    params[f"{prefix}/h0"] = np.zeros((1, hidden))
    params[f"{prefix}/c0"] = np.zeros((1, hidden))


def _init_head(rng, prefix: str, hidden: int, out: int, params: dict) -> None:
    params[f"{prefix}/W1"] = _glorot(rng, hidden, hidden)
    params[f"{prefix}/b1"] = np.zeros(hidden)
    params[f"{prefix}/W2"] = _glorot(rng, hidden, out)
    params[f"{prefix}/b2"] = np.zeros(out)


def init_params(kind: str, input_width: int, hidden_width: int, processes: int, seed: int) -> dict:
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    _init_gru(rng, "prior_rnn", input_width, hidden_width, params)
    if kind == "prnn":
        _init_head(rng, "prior_head", hidden_width, processes, params)
    else:
        _init_head(rng, "prior_head", hidden_width, 2 * processes, params)
        _init_lstm(rng, "inf_rnn", input_width + processes, hidden_width, params)
        _init_head(rng, "inf_head", hidden_width, 2 * processes, params)
    return params


def trainable_keys(params: dict) -> list[str]:
    return sorted(k for k in params if not k.startswith("norm/"))


# -- cells and heads (autodiff) ------------------------------------------


def _check_width(x_width: int, w: np.ndarray, where: str) -> None:
    if x_width != w.shape[0]:
        raise ConfigError(f"{where}: input width {x_width} does not match weights {w.shape}")


def gru_step(p: dict[str, Var], prefix: str, h: Var, x: Var) -> Var:
    """One gated recurrent update; candidate state bounded in (-1, 1) by tanh."""
    _check_width(x.value.shape[1], p[f"{prefix}/Wxz"].value, prefix)
    z = ad.sigmoid(ad.affine(x, p[f"{prefix}/Wxz"], p[f"{prefix}/bz"]) + h @ p[f"{prefix}/Whz"])
    r = ad.sigmoid(ad.affine(x, p[f"{prefix}/Wxr"], p[f"{prefix}/br"]) + h @ p[f"{prefix}/Whr"])
    c = ad.tanh(ad.affine(x, p[f"{prefix}/Wxc"], p[f"{prefix}/bc"]) + ad.mul(r, h) @ p[f"{prefix}/Whc"])
    one = ad.const(1.0)
    return ad.add(ad.mul(ad.sub(one, z), h), ad.mul(z, c))


def lstm_step(p: dict[str, Var], prefix: str, h: Var, c: Var, x: Var) -> tuple[Var, Var]:
    _check_width(x.value.shape[1], p[f"{prefix}/Wxi"].value, prefix)
    i = ad.sigmoid(ad.affine(x, p[f"{prefix}/Wxi"], p[f"{prefix}/bi"]) + h @ p[f"{prefix}/Whi"])
    f = ad.sigmoid(ad.affine(x, p[f"{prefix}/Wxf"], p[f"{prefix}/bf"]) + h @ p[f"{prefix}/Whf"])
    o = ad.sigmoid(ad.affine(x, p[f"{prefix}/Wxo"], p[f"{prefix}/bo"]) + h @ p[f"{prefix}/Who"])
    g = ad.tanh(ad.affine(x, p[f"{prefix}/Wxg"], p[f"{prefix}/bg"]) + h @ p[f"{prefix}/Whg"])
    c_next = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_next = ad.mul(o, ad.tanh(c_next))
    return h_next, c_next


def head(p: dict[str, Var], prefix: str, x: Var) -> Var:
    hidden = ad.tanh(ad.affine(x, p[f"{prefix}/W1"], p[f"{prefix}/b1"]))
    return ad.affine(hidden, p[f"{prefix}/W2"], p[f"{prefix}/b2"])


def _broadcast_rows(v: Var, n: int) -> Var:
    return ad.mul(ad.const(np.ones((n, 1))), v)


def positive_rate(x: Var) -> Var:
    return ad.add(ad.softplus(x), ad.const(RATE_FLOOR))


def positive_scale(x: Var) -> Var:
    return ad.add(ad.softplus(x), ad.const(SCALE_FLOOR))


# -- probabilistic building blocks ---------------------------------------


def poisson_nll(rate: Var, counts: np.ndarray) -> Var:
    """-log Pois(counts | rate), summed over all entries; log-factorial included."""
    x = np.asarray(counts, dtype=float)
    ll = ad.sub(ad.mul(ad.const(x), ad.log(rate)), rate)
    return ad.sub(ad.const(gammaln(x + 1.0).sum()), ll.sum())


def gaussian_kl(mean_q: Var, scale_q: Var, mean_p: Var, scale_p: Var) -> Var:
    """Elementwise KL(N(mean_q, scale_q^2) || N(mean_p, scale_p^2))."""
    var_ratio = ad.mul(scale_q, scale_q)
    diff = ad.sub(mean_q, mean_p)
    quad = ad.add(var_ratio, ad.mul(diff, diff))
    inv_2var_p = ad.mul(ad.const(0.5), ad.mul(_reciprocal(scale_p), _reciprocal(scale_p)))
    return ad.sub(
        ad.add(ad.sub(ad.log(scale_p), ad.log(scale_q)), ad.mul(quad, inv_2var_p)),
        ad.const(0.5),
    )


def _reciprocal(x: Var) -> Var:
    return ad.exp(ad.mul(ad.const(-1.0), ad.log(x)))


def _gaussian_logpdf(x: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    z = (x - mean) / scale
    return -0.5 * z * z - np.log(scale) - 0.5 * np.log(2.0 * np.pi)


def _poisson_logpmf(x: np.ndarray, rate: np.ndarray) -> np.ndarray:
    return x * np.log(rate) - rate - gammaln(x + 1.0)


# -- losses ---------------------------------------------------------------


def _as_vars(params: dict[str, np.ndarray]) -> dict[str, Var]:
    return {k: Var(v) for k, v in params.items() if not k.startswith("norm/")}


def _normalize(raw: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (raw - mean) / std


def prnn_nll(p: dict[str, Var], counts: np.ndarray, covariates: np.ndarray) -> Var:
    """Negative Poisson log-likelihood of (B, T, P) counts given (B, T, U) covariates."""
    n_batch, n_steps, _ = covariates.shape
    h = _broadcast_rows(p["prior_rnn/h0"], n_batch)
    total = ad.const(0.0)
    for t in range(n_steps):
        h = gru_step(p, "prior_rnn", h, ad.const(covariates[:, t, :]))
        rate = positive_rate(head(p, "prior_head", h))
        total = ad.add(total, poisson_nll(rate, counts[:, t, :]))
    return total


def _split_head(out: Var, processes: int) -> tuple[Var, Var]:
    mean_ = out[:, :processes]
    scale = positive_scale(out[:, processes:])
    return mean_, scale


def vprnn_elbo(
    p: dict[str, Var],
    counts: np.ndarray,
    covariates: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
    counts_normalized: np.ndarray | None = None,
) -> Var:
    """Step-wise evidence lower bound, summed over batch and steps.

    The reconstruction expectation uses ``n_samples`` reparameterized draws;
    the KL between the diagonal-Gaussian posterior and prior is closed form.
    The deterministic prior-state transition contributes no parameters and is
    omitted. ``counts_normalized`` is what the inference net conditions on
    (raw counts when absent); the likelihood always uses raw counts.
    """
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    n_batch, n_steps, processes = counts.shape
    cond = counts_normalized if counts_normalized is not None else counts.astype(float)
    h_p = _broadcast_rows(p["prior_rnn/h0"], n_batch)
    h_q = _broadcast_rows(p["inf_rnn/h0"], n_batch)
    c_q = _broadcast_rows(p["inf_rnn/c0"], n_batch)
    elbo = ad.const(0.0)
    inv_n = ad.const(1.0 / n_samples)
    for t in range(n_steps):
        u_t = ad.const(covariates[:, t, :])
        h_p = gru_step(p, "prior_rnn", h_p, u_t)
        mu0, sigma0 = _split_head(head(p, "prior_head", h_p), processes)
        h_q, c_q = lstm_step(p, "inf_rnn", h_q, c_q,
                             ad.const(np.concatenate([covariates[:, t, :], cond[:, t, :]], axis=1)))
        mu_q, sigma_q = _split_head(head(p, "inf_head", h_q), processes)

        recon = ad.const(0.0)
        for _ in range(n_samples):
            lam = ad.gaussian_sample(mu_q, sigma_q, rng.standard_normal((n_batch, processes)))
            recon = ad.sub(recon, poisson_nll(positive_rate(lam), counts[:, t, :]))
        kl = gaussian_kl(mu_q, sigma_q, mu0, sigma0).sum()
        elbo = ad.add(elbo, ad.sub(ad.mul(recon, inv_n), kl))
    return elbo


# -- model container -------------------------------------------------------


@dataclass
class TrainConfig:
    hidden_width: int = 128
    learning_rate: float = 0.01
    batch_days: int = 32
    max_epochs: int = 200
    patience: int = 10
    n_samples: int = 1
    min_epochs: int = 5


@dataclass
class NeuralModel:
    kind: str
    hidden_width: int
    input_width: int
    processes: int
    interval_minutes: int
    targets: tuple[str, ...]
    seed: int
    params: dict[str, np.ndarray] = field(default_factory=dict)
    train_history: list[float] = field(default_factory=list)

    def normalize_covariates(self, raw: np.ndarray) -> np.ndarray:
        return _normalize(raw, self.params["norm/cov_mean"], self.params["norm/cov_std"])

    def normalize_counts(self, raw: np.ndarray) -> np.ndarray:
        return _normalize(raw.astype(float), self.params["norm/count_mean"],
                          self.params["norm/count_std"])


def day_arrays(series: DemandSeries, targets: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Reshape a series into (days, steps, processes) counts and (days, steps, width) covariates."""
    if series.covariates is None:
        raise DataError("series has no covariates attached")
    t = series.intervals_per_day
    d = series.n_days
    cols = []
    for name in targets:
        if name == "pickups":
            cols.append(series.pickups)
        elif name == "returns":
            cols.append(series.returns)
        else:
            raise ConfigError(f"unknown target {name!r}")
    counts = np.stack(cols, axis=1).reshape(d, t, len(targets))
    covariates = series.covariates.values.reshape(d, t, -1)
    return counts, covariates


# -- optimization ----------------------------------------------------------


class _Adam:
    """Per-parameter adaptive step sizes (exponential moment estimates)."""

    def __init__(self, keys: list[str], params: dict, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.keys = keys
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = {k: np.zeros_like(params[k]) for k in keys}
        self.v = {k: np.zeros_like(params[k]) for k in keys}
        self.t = 0

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        correction1 = 1.0 - b1 ** self.t
        correction2 = 1.0 - b2 ** self.t
        for k in self.keys:
            g = grads[k]
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            m_hat = self.m[k] / correction1
            v_hat = self.v[k] / correction2
            params[k] = params[k] - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _loss_and_grads(kind: str, params: dict, counts, covariates, cond, n_samples, rng):
    keys = trainable_keys(params)
    p = _as_vars(params)
    if kind == "prnn":
        loss = prnn_nll(p, counts, covariates)
    else:
        loss = ad.mul(vprnn_elbo(p, counts, covariates, n_samples, rng, cond), ad.const(-1.0))
    per_day = ad.mul(loss, ad.const(1.0 / counts.shape[0]))
    grads = ad.grad(per_day, [p[k] for k in keys])
    return float(per_day.value), dict(zip(keys, grads))


def _validation_loss(kind: str, params: dict, counts, covariates, cond, n_samples, seed) -> float:
    p = _as_vars(params)
    if kind == "prnn":
        loss = prnn_nll(p, counts, covariates)
    else:
        # fixed draws so successive evaluations are comparable
        rng = np.random.default_rng(seed)
        loss = ad.mul(vprnn_elbo(p, counts, covariates, n_samples, rng, cond), ad.const(-1.0))
    return float(loss.value) / counts.shape[0]


def train(kind: str, split: DataSplit, hyper: TrainConfig, seed: int,
          targets: tuple[str, ...] = ("pickups",)) -> NeuralModel:
    """Fit a model by Adam on day-length sequence chunks with early stopping.

    Validation loss (NLL or -ELBO with fixed draws) decides the checkpoint;
    the best one is returned. A non-finite training loss aborts with
    :class:`TrainingError`.
    """
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    processes = len(targets)
    if kind == "movprnn" and processes != 2:
        raise ConfigError("movprnn models two processes jointly")

    counts_tr, cov_tr = day_arrays(split.train, targets)
    counts_va, cov_va = day_arrays(split.validation, targets)

    # standardization statistics from the training split only
    cov_flat = cov_tr.reshape(-1, cov_tr.shape[-1])
    cov_mean = cov_flat.mean(axis=0)
    cov_std = np.maximum(cov_flat.std(axis=0), 1e-8)
    cnt_flat = counts_tr.reshape(-1, processes).astype(float)
    cnt_mean = cnt_flat.mean(axis=0)
    cnt_std = np.maximum(cnt_flat.std(axis=0), 1e-8)

    cov_tr_n = _normalize(cov_tr, cov_mean, cov_std)
    cov_va_n = _normalize(cov_va, cov_mean, cov_std)
    cond_tr = _normalize(counts_tr.astype(float), cnt_mean, cnt_std)
    cond_va = _normalize(counts_va.astype(float), cnt_mean, cnt_std)

    ss = np.random.SeedSequence(seed)
    init_ss, shuffle_ss, elbo_ss, val_ss = ss.spawn(4)
    params = init_params(kind, cov_tr.shape[-1], hyper.hidden_width, processes,
                         int(init_ss.generate_state(1)[0]))
    params["norm/cov_mean"] = cov_mean
    params["norm/cov_std"] = cov_std
    params["norm/count_mean"] = cnt_mean
    params["norm/count_std"] = cnt_std

    shuffle_rng = np.random.default_rng(shuffle_ss)
    elbo_rng = np.random.default_rng(elbo_ss)
    val_seed = int(val_ss.generate_state(1)[0])

    optimizer = _Adam(trainable_keys(params), params, hyper.learning_rate)
    n_days = counts_tr.shape[0]
    batch = min(hyper.batch_days, n_days)

    best_val = np.inf
    best_params = {k: v.copy() for k, v in params.items()}
    stale = 0
    history = []
    for epoch in range(hyper.max_epochs):
        order = shuffle_rng.permutation(n_days)
        for lo in range(0, n_days, batch):
            rows = order[lo:lo + batch]
            loss, grads = _loss_and_grads(
                kind, params, counts_tr[rows], cov_tr_n[rows], cond_tr[rows],
                hyper.n_samples, elbo_rng)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"{kind} diverged at epoch {epoch}: loss {loss}; "
                    f"last validation loss {history[-1] if history else 'n/a'}")
            optimizer.step(params, grads)
        val = _validation_loss(kind, params, counts_va, cov_va_n, cond_va,
                               hyper.n_samples, val_seed)
        if not np.isfinite(val):
            raise TrainingError(f"{kind} validation loss became {val} at epoch {epoch}")
        history.append(val)
        if val < best_val - 1e-12:
            best_val = val
            best_params = {k: v.copy() for k, v in params.items()}
            stale = 0
        else:
            stale += 1
            if epoch + 1 >= hyper.min_epochs and stale > hyper.patience:
                break

    return NeuralModel(
        kind=kind,
        hidden_width=hyper.hidden_width,
        input_width=cov_tr.shape[-1],
        processes=processes,
        interval_minutes=split.train.interval_minutes,
        targets=tuple(targets),
        seed=seed,
        params=best_params,
        train_history=history,
    )


# -- prediction ------------------------------------------------------------


def predict_rates(model: NeuralModel, covariates: np.ndarray, n_samples: int = 100,
                  seed: int | list[int] = 0) -> np.ndarray:
    """Forecast per-interval expected counts from covariates alone.

    ``covariates`` holds one day, ``(steps, width)``, with an integer ``seed``,
    and the result is ``(steps, processes)``; or a stack of days,
    ``(days, steps, width)``, with one seed per day, and the result is
    ``(days, steps, processes)``. The prior recurrent state never sees counts,
    so day-of forecasts cannot leak the day's observations, and it is the same
    for every draw: the prior network steps once over all days, one row per
    day. The deterministic model returns its transformed output directly. For
    latent-rate models the sample fan is drawn only at the output, day d's
    noise being ``default_rng(seed_d).standard_normal((steps, n_samples,
    processes))``, and the forecast is the mean transformed prior draw per step.
    """
    covariates = np.asarray(covariates, dtype=float)
    single_day = covariates.ndim == 2
    if single_day:
        covariates = covariates[None]
    if covariates.ndim != 3 or covariates.shape[2] != model.input_width:
        raise DataError(f"covariates must be (steps, {model.input_width}) "
                        f"or (days, steps, {model.input_width})")
    seeds = [seed] if np.ndim(seed) == 0 else list(seed)
    n_days, n_steps, _ = covariates.shape
    if len(seeds) != n_days:
        raise DataError(f"need one seed per day: {len(seeds)} seeds for {n_days} days")
    cov_n = model.normalize_covariates(covariates)
    p = _as_vars(model.params)

    h = _broadcast_rows(p["prior_rnn/h0"], n_days)
    outputs = []
    for t in range(n_steps):
        h = gru_step(p, "prior_rnn", h, ad.const(cov_n[:, t, :]))
        outputs.append(head(p, "prior_head", h))

    if model.kind == "prnn":
        rates = np.stack([positive_rate(out).value for out in outputs], axis=1)
    else:
        prior = [_split_head(out, model.processes) for out in outputs]
        mu0 = np.stack([m.value for m, _ in prior], axis=1)[:, :, None, :]
        sigma0 = np.stack([s.value for _, s in prior], axis=1)[:, :, None, :]
        eps = np.stack([
            np.random.default_rng(s).standard_normal((n_steps, n_samples, model.processes))
            for s in seeds])
        draws = positive_rate(ad.gaussian_sample(ad.const(mu0), ad.const(sigma0), eps)).value
        rates = draws.mean(axis=2)
    return rates[0] if single_day else rates


# -- marginal likelihood ----------------------------------------------------


def is_log_likelihood(model: NeuralModel, counts: np.ndarray, covariates: np.ndarray,
                      n_samples: int = 30, seed: int = 0) -> float:
    """Importance-sampled marginal log-likelihood of one (T, P) count sequence.

    Per step: draw posterior rates, weight by prior x likelihood / posterior,
    log-mean-exp the weights, and sum over steps. Stabilized by subtracting
    the max log-weight before exponentiation.
    """
    if model.kind == "prnn":
        raise ConfigError("importance sampling applies to latent-rate models")
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2:
        raise DataError("counts must be (steps, processes)")
    n_steps, processes = counts.shape
    cov_n = model.normalize_covariates(covariates)
    cond = model.normalize_counts(counts)
    rng = np.random.default_rng(seed)
    p = _as_vars(model.params)

    h_p = p["prior_rnn/h0"]
    h_q, c_q = p["inf_rnn/h0"], p["inf_rnn/c0"]
    total = 0.0
    for t in range(n_steps):
        u = ad.const(cov_n[t:t + 1])
        h_p = gru_step(p, "prior_rnn", h_p, u)
        mu0, sigma0 = _split_head(head(p, "prior_head", h_p), processes)
        h_q, c_q = lstm_step(p, "inf_rnn", h_q, c_q,
                             ad.const(np.concatenate([cov_n[t:t + 1], cond[t:t + 1]], axis=1)))
        mu_q, sigma_q = _split_head(head(p, "inf_head", h_q), processes)

        m0, s0 = mu0.value[0], sigma0.value[0]
        mq, sq = mu_q.value[0], sigma_q.value[0]
        lam = mq + sq * rng.standard_normal((n_samples, processes))
        rate = np.logaddexp(0.0, lam) + RATE_FLOOR
        log_w = (
            _poisson_logpmf(counts[t], rate).sum(axis=1)
            + _gaussian_logpdf(lam, m0, s0).sum(axis=1)
            - _gaussian_logpdf(lam, mq, sq).sum(axis=1)
        )
        m = log_w.max()
        total += m + np.log(np.mean(np.exp(log_w - m)))
    return float(total)


def elbo_value(model: NeuralModel, counts: np.ndarray, covariates: np.ndarray,
               n_samples: int = 1, seed: int = 0) -> float:
    """Monte Carlo ELBO of one (T, P) sequence, for bound comparisons."""
    counts = np.asarray(counts)
    cov_n = model.normalize_covariates(covariates)
    cond = model.normalize_counts(counts)
    rng = np.random.default_rng(seed)
    p = _as_vars(model.params)
    value = vprnn_elbo(p, counts[None, :, :], cov_n[None, :, :], n_samples, rng,
                       cond[None, :, :])
    return float(value.value)


# -- serialization -----------------------------------------------------------


def save_checkpoint(model: NeuralModel, path: str) -> None:
    """Versioned container: magic, JSON header with shapes, then raw float64."""
    keys = sorted(model.params)
    header = {
        "kind": model.kind,
        "hidden_width": model.hidden_width,
        "input_width": model.input_width,
        "processes": model.processes,
        "interval_minutes": model.interval_minutes,
        "targets": list(model.targets),
        "seed": model.seed,
        "params": [{"name": k, "shape": list(model.params[k].shape)} for k in keys],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for k in keys:
            fh.write(np.ascontiguousarray(model.params[k], dtype=np.float64).tobytes())


def load_checkpoint(path: str) -> NeuralModel:
    with open(path, "rb") as fh:
        magic = fh.read(len(_CHECKPOINT_MAGIC))
        if magic != _CHECKPOINT_MAGIC:
            raise FormatError(f"not a checkpoint file (magic {magic!r})")
        (length,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(length).decode("utf-8"))
        params = {}
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            n = int(np.prod(shape)) if shape else 1
            raw = fh.read(n * 8)
            if len(raw) != n * 8:
                raise FormatError("checkpoint truncated")
            params[entry["name"]] = np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()
    return NeuralModel(
        kind=header["kind"],
        hidden_width=header["hidden_width"],
        input_width=header["input_width"],
        processes=header["processes"],
        interval_minutes=header["interval_minutes"],
        targets=tuple(header["targets"]),
        seed=header["seed"],
        params=params,
    )
