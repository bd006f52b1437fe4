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

Training is backpropagation through time over whole day-batches. Each
piece of the model is one numpy kernel that returns its value and its
hand-written vector-Jacobian product: the GRU and LSTM over all steps, a
head over all rows, the softplus Poisson likelihood and the negative ELBO
with its reparameterized draw and closed-form KL. ``_loss`` records each
kernel call as one ``(name, parents, vjp)`` entry in a plain list, three per
batch for prnn and five for the latent models, and :func:`~.autodiff.grad`
walks that list backward. A cell's weights are kept as the kernels take them,
its gates side by side in one ``Wx``, ``Wh`` and ``b``, from initialization
through Adam to the checkpoint. Validation and forecasting call the same
kernels, through ``_loss`` and ``_prior``, and never sweep back.

The kernels compute in the dtype of their inputs. :func:`train` runs them in
float32 (``TRAIN_DTYPE``) over float64 master weights, as in mixed-precision
training: each batch casts the parameters down and the gradients back up,
and Adam, early stopping, checkpoints and :func:`predict_rates` stay
float64. Against float64 training, validation losses agree to about 1e-7
relative and forecasts to a few parts in a million.

Forecasting reads the prior network only, which sees covariates and no
counts. :func:`predict_rates` therefore steps it once over a stack of days,
one row per day, and takes a latent-rate model's expected rate under the
prior by a fixed Gauss–Hermite rule, which needs no seed.
"""

from __future__ import annotations

import functools
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .config import RunConfig
from .errors import ConfigError, DataError, FormatError, TrainingError
from .ingest import PICKUP, RETURN, DataSplit, DemandSeries
from .queueing import log_factorial

RATE_FLOOR = 1e-6
SCALE_FLOOR = 1e-6
MIN_EPOCHS = 5  # early stopping never ends training before this many epochs
# dtype of the kernels in training; master weights and Adam stay float64
TRAIN_DTYPE = np.float32

MODEL_KINDS = ("prnn", "vprnn", "movprnn")
GRU_GATES = "zrc"
LSTM_GATES = "ifog"

_CHECKPOINT_MAGIC = b"BKCKPT01"


# -- parameter initialization --------------------------------------------


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def _init_cell(rng, prefix: str, gates: str, states: tuple[str, ...], input_width: int,
               hidden: int, params: dict) -> None:
    """A cell's ``Wx``, ``Wh`` and ``b`` with its gates side by side; each gate's
    ``Wx`` and then its ``Wh`` are drawn in ``gates`` order, each with its own
    Glorot bound."""
    draws = [(_glorot(rng, input_width, hidden), _glorot(rng, hidden, hidden)) for _ in gates]
    params[f"{prefix}/Wx"] = np.concatenate([wx for wx, _ in draws], axis=1)
    params[f"{prefix}/Wh"] = np.concatenate([wh for _, wh in draws], axis=1)
    params[f"{prefix}/b"] = np.zeros(len(gates) * hidden)
    for state in states:
        params[f"{prefix}/{state}"] = np.zeros((1, hidden))


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
    _init_cell(rng, "prior_rnn", GRU_GATES, ("h0",), input_width, hidden_width, params)
    if kind == "prnn":
        _init_head(rng, "prior_head", hidden_width, processes, params)
    else:
        _init_head(rng, "prior_head", hidden_width, 2 * processes, params)
        _init_cell(rng, "inf_rnn", LSTM_GATES, ("h0", "c0"), input_width + processes,
                   hidden_width, params)
        _init_head(rng, "inf_head", hidden_width, 2 * processes, params)
    return params


def trainable_keys(params: dict) -> list[str]:
    return sorted(k for k in params if not k.startswith("norm/"))


# -- whole-sequence kernels ------------------------------------------------
#
# Each kernel runs a whole batch of day sequences at once and returns
# ``(value, vjp)``: ``vjp(g)`` maps the gradient of a scalar with respect to
# ``value`` to its gradients with respect to the kernel's leading array
# arguments, in order; the trailing ones (inputs, counts, noise) take none.
# Sequences are time-major, ``(steps, days, width)``. A cell's gates sit side
# by side in one ``(Wx, Wh, b)`` stack, so the inputs of all steps are
# projected in one matmul and ``dWx`` comes from one more.
#
# Every buffer takes the dtype of the kernel's inputs, so a float64 call
# computes what it always did and a float32 call stays float32 through its
# vjp. A loss vjp takes its scalar gradient ``g`` as a Python float, which
# is what :func:`~.autodiff.grad` seeds the sweep with: a 0-d float64 array
# is strongly typed in NumPy 2 and would promote everything below it.


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, computed as ``0.5 * (1 + tanh(x / 2))``.

    One tanh replaces the three exps of the two-branch stable form
    ``exp(min(x, 0)) / (1 + exp(-|x|))``. On [-36, 36] the two agree to
    2.2e-16 (one machine epsilon). Below about -38 this form rounds to
    exactly 0, where the two-branch form gives 3e-17 at -38 and falls
    smoothly from there.
    """
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def positive_rate(x: np.ndarray) -> np.ndarray:
    return softplus(x) + RATE_FLOOR


def positive_scale(x: np.ndarray) -> np.ndarray:
    return softplus(x) + SCALE_FLOOR


def _check_width(x: np.ndarray, wx: np.ndarray) -> None:
    if x.shape[2] != wx.shape[0]:
        raise ConfigError(f"input width {x.shape[2]} does not match weights {wx.shape}")


def gru(wx, wh, b, h0, x):
    """Gated recurrent unit over ``(T, B, U)`` inputs, gates stacked as (z, r, c).

    The value is the ``(T, B, H)`` state after each step. Each update is
    ``(1 - z) * h + z * c`` with the candidate ``c`` bounded by tanh.
    """
    _check_width(x, wx)
    n_steps, n_rows, width = x.shape
    n = wh.shape[0]
    xa = (x.reshape(-1, width) @ wx + b).reshape(n_steps, n_rows, 3 * n)
    wh_zr, wh_c = np.ascontiguousarray(wh[:, :2 * n]), np.ascontiguousarray(wh[:, 2 * n:])
    hs = np.empty((n_steps + 1, n_rows, n), xa.dtype)
    hs[0] = h0
    zr = np.empty((n_steps, n_rows, 2 * n), xa.dtype)
    cs = np.empty((n_steps, n_rows, n), xa.dtype)
    rh = np.empty((n_steps, n_rows, n), xa.dtype)
    for t in range(n_steps):
        h = hs[t]
        zr[t] = sigmoid(xa[t, :, :2 * n] + h @ wh_zr)
        z = zr[t, :, :n]
        np.multiply(zr[t, :, n:], h, out=rh[t])
        cs[t] = np.tanh(xa[t, :, 2 * n:] + rh[t] @ wh_c)
        hs[t + 1] = (1.0 - z) * h + z * cs[t]

    def vjp(dhs):
        dxa = np.empty((n_steps, n_rows, 3 * n), xa.dtype)
        dh = np.zeros((n_rows, n), xa.dtype)
        for t in range(n_steps - 1, -1, -1):
            dh = dh + dhs[t]
            h, z, r, c = hs[t], zr[t, :, :n], zr[t, :, n:], cs[t]
            da = dxa[t]
            np.multiply(dh * z, 1.0 - c * c, out=da[:, 2 * n:])
            drh = da[:, 2 * n:] @ wh_c.T
            np.multiply(dh, c - h, out=da[:, :n])
            np.multiply(drh, h, out=da[:, n:2 * n])
            da[:, :2 * n] *= zr[t] * (1.0 - zr[t])
            dh = dh * (1.0 - z) + drh * r + da[:, :2 * n] @ wh_zr.T
        flat = dxa.reshape(-1, 3 * n)
        dwh = np.concatenate([hs[:-1].reshape(-1, n).T @ flat[:, :2 * n],
                              rh.reshape(-1, n).T @ flat[:, 2 * n:]], axis=1)
        return (x.reshape(-1, width).T @ flat, dwh, flat.sum(axis=0),
                dh.sum(axis=0, keepdims=True))

    return hs[1:], vjp


def lstm(wx, wh, b, h0, c0, x):
    """Long short-term memory over ``(T, B, U)`` inputs, gates stacked as (i, f, o, g).

    The value is the ``(T, B, H)`` output state after each step.
    """
    _check_width(x, wx)
    n_steps, n_rows, width = x.shape
    n = wh.shape[0]
    xa = (x.reshape(-1, width) @ wx + b).reshape(n_steps, n_rows, 4 * n)
    hs = np.empty((n_steps + 1, n_rows, n), xa.dtype)
    cs = np.empty((n_steps + 1, n_rows, n), xa.dtype)
    hs[0], cs[0] = h0, c0
    gates = np.empty((n_steps, n_rows, 4 * n), xa.dtype)
    tcs = np.empty((n_steps, n_rows, n), xa.dtype)
    for t in range(n_steps):
        a = xa[t] + hs[t] @ wh
        gates[t, :, :3 * n] = sigmoid(a[:, :3 * n])
        gates[t, :, 3 * n:] = np.tanh(a[:, 3 * n:])
        i, f, o, g = (gates[t, :, k * n:(k + 1) * n] for k in range(4))
        cs[t + 1] = f * cs[t] + i * g
        tcs[t] = np.tanh(cs[t + 1])
        hs[t + 1] = o * tcs[t]

    def vjp(dhs):
        dxa = np.empty((n_steps, n_rows, 4 * n), xa.dtype)
        dh = np.zeros((n_rows, n), xa.dtype)
        dc = np.zeros((n_rows, n), xa.dtype)
        for t in range(n_steps - 1, -1, -1):
            dh = dh + dhs[t]
            i, f, o, g = (gates[t, :, k * n:(k + 1) * n] for k in range(4))
            tc = tcs[t]
            dc = dc + dh * o * (1.0 - tc * tc)
            da = dxa[t]
            np.multiply(dc, g, out=da[:, :n])
            np.multiply(dc, cs[t], out=da[:, n:2 * n])
            np.multiply(dh, tc, out=da[:, 2 * n:3 * n])
            da[:, :3 * n] *= gates[t, :, :3 * n] * (1.0 - gates[t, :, :3 * n])
            np.multiply(dc * i, 1.0 - g * g, out=da[:, 3 * n:])
            dc = dc * f
            dh = da @ wh.T
        flat = dxa.reshape(-1, 4 * n)
        return (x.reshape(-1, width).T @ flat, hs[:-1].reshape(-1, n).T @ flat,
                flat.sum(axis=0), dh.sum(axis=0, keepdims=True), dc.sum(axis=0, keepdims=True))

    return hs[1:], vjp


def head(w1, b1, w2, b2, h):
    """Two-layer map ``tanh(h @ w1 + b1) @ w2 + b2`` over all rows of ``(..., H)`` states."""
    rows = h.reshape(-1, h.shape[-1])
    a = np.tanh(rows @ w1 + b1)
    out = a @ w2 + b2

    def vjp(g):
        g = g.reshape(out.shape)
        da = (g @ w2.T) * (1.0 - a * a)
        return rows.T @ da, da.sum(axis=0), a.T @ g, g.sum(axis=0), (da @ w1.T).reshape(h.shape)

    return out.reshape(*h.shape[:-1], out.shape[1]), vjp


def poisson_nll(rate: np.ndarray, counts: np.ndarray) -> float:
    """-log Pois(counts | rate), summed over all entries; log-factorial included."""
    return float(log_factorial(counts).sum() - (counts * np.log(rate) - rate).sum())


def gaussian_kl(mean_q, scale_q, mean_p, scale_p) -> np.ndarray:
    """Elementwise KL(N(mean_q, scale_q^2) || N(mean_p, scale_p^2))."""
    diff = mean_q - mean_p
    return (np.log(scale_p) - np.log(scale_q)
            + (scale_q * scale_q + diff * diff) / (2.0 * scale_p * scale_p) - 0.5)


def rate_nll(out, counts):
    """Poisson NLL per day of ``(T, B, P)`` counts at rates ``positive_rate(out)``."""
    rate = positive_rate(out)
    per_day = 1.0 / counts.shape[1]

    def vjp(g):
        return (float(g) * per_day * (1.0 - counts / rate) * sigmoid(out),)

    return poisson_nll(rate, counts) * per_day, vjp


def negative_elbo(out_p, out_q, counts, eps):
    """Negative step-wise ELBO per day of ``(T, B, P)`` counts.

    ``out_p`` and ``out_q`` are the prior and posterior head outputs, means
    then pre-softplus scales. The reconstruction term takes the one
    reparameterized draw ``mu_q + sigma_q * eps`` per step; the Gaussian KL
    between posterior and prior is closed form.
    """
    p = counts.shape[2]
    mu0, sigma0 = out_p[..., :p], positive_scale(out_p[..., p:])
    mu_q, sigma_q = out_q[..., :p], positive_scale(out_q[..., p:])
    lam = mu_q + sigma_q * eps
    rate = positive_rate(lam)
    per_day = 1.0 / counts.shape[1]
    kl = float(gaussian_kl(mu_q, sigma_q, mu0, sigma0).sum())
    value = (poisson_nll(rate, counts) + kl) * per_day

    def vjp(g):
        w = float(g) * per_day
        dlam = w * (1.0 - counts / rate) * sigmoid(lam)
        inv_var_p = 1.0 / (sigma0 * sigma0)
        dmu = w * (mu_q - mu0) * inv_var_p
        dsigma_q = dlam * eps + w * (sigma_q * inv_var_p - 1.0 / sigma_q)
        dsigma0 = w * (1.0 - (sigma_q * sigma_q + (mu_q - mu0) ** 2) * inv_var_p) / sigma0
        return (np.concatenate([-dmu, dsigma0 * sigmoid(out_p[..., p:])], axis=-1),
                np.concatenate([dlam + dmu, dsigma_q * sigmoid(out_q[..., p:])], axis=-1))

    return value, vjp


# -- wiring the kernels ------------------------------------------------------
#
# ``values`` maps each name to its array: the parameters, and the output of
# each kernel call, which appends its ``(name, parents, vjp)`` entry to
# ``tape``.

PRIOR_RNN = ("prior_rnn/Wx", "prior_rnn/Wh", "prior_rnn/b", "prior_rnn/h0")
PRIOR_HEAD = ("prior_head/W1", "prior_head/b1", "prior_head/W2", "prior_head/b2", "h_p")
INF_RNN = ("inf_rnn/Wx", "inf_rnn/Wh", "inf_rnn/b", "inf_rnn/h0", "inf_rnn/c0")
INF_HEAD = ("inf_head/W1", "inf_head/b1", "inf_head/W2", "inf_head/b2", "h_q")


def _time_major(a: np.ndarray) -> np.ndarray:
    """``(days, steps, ...)`` as contiguous ``(steps, days, ...)``; integers become
    float64, floats keep their dtype."""
    return np.ascontiguousarray(np.swapaxes(a, 0, 1), dtype=np.result_type(a, 0.0))


def _call(values: dict, tape: list, name: str, kernel, parents: tuple[str, ...], *consts):
    """``kernel`` on the named ``parents``, then ``consts``; its value is ``values[name]``."""
    values[name], vjp = kernel(*(values[k] for k in parents), *consts)
    tape.append((name, parents, vjp))
    return values[name]


def _prior(values: dict, tape: list, x: np.ndarray) -> np.ndarray:
    """The prior head's output over ``(steps, days, width)`` covariates."""
    _call(values, tape, "h_p", gru, PRIOR_RNN, x)
    return _call(values, tape, "out_p", head, PRIOR_HEAD)


def _loss(kind: str, params: dict, counts, covariates, cond, rng) -> tuple[dict, list]:
    """The named values and the kernel tape of a batch's per-day ``loss``.

    The latent models draw the batch's noise as one ``(steps, days,
    processes)`` call on ``rng``, the same stream as one ``(days,
    processes)`` call per step.
    """
    values, tape = dict(params), []
    x, n = _time_major(covariates), _time_major(counts)
    _prior(values, tape, x)
    if kind == "prnn":
        _call(values, tape, "loss", rate_nll, ("out_p",), n)
        return values, tape
    _call(values, tape, "h_q", lstm, INF_RNN, np.concatenate([x, _time_major(cond)], axis=2))
    _call(values, tape, "out_q", head, INF_HEAD)
    _call(values, tape, "loss", negative_elbo, ("out_p", "out_q"), n,
          rng.standard_normal(n.shape).astype(n.dtype, copy=False))
    return values, tape


# -- model container -------------------------------------------------------


def _normalize(raw: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (raw - mean) / std


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


# each target's index on the process axis of a series' counts
_TARGETS = {"pickups": PICKUP, "returns": RETURN}


def day_arrays(series: DemandSeries, targets: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """A series' (days, steps, processes) counts of ``targets``, in that
    order, and its (days, steps, width) covariates."""
    if series.covariates is None:
        raise DataError("series has no covariates attached")
    unknown = [name for name in targets if name not in _TARGETS]
    if unknown:
        raise ConfigError(f"unknown target {unknown[0]!r}")
    counts = np.stack([series.counts[..., _TARGETS[name]] for name in targets], axis=2)
    return counts, series.covariates


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


def _loss_and_grads(kind: str, params: dict, counts, covariates, cond, rng):
    """Per-day training loss of :func:`_loss` and its gradient per trainable key."""
    values, tape = _loss(kind, params, counts, covariates, cond, rng)
    return float(values["loss"]), ad.grad(tape)


def _validation_loss(kind: str, params: dict, counts, covariates, cond, seed) -> float:
    # fixed draws so successive evaluations are comparable
    return float(_loss(kind, params, counts, covariates, cond,
                       np.random.default_rng(seed))[0]["loss"])


def train(kind: str, split: DataSplit, config: RunConfig, seed: int,
          targets: tuple[str, ...] = ("pickups",)) -> NeuralModel:
    """Fit a model by Adam on day-length sequence chunks with early stopping,
    with the hidden width, learning rate, batch size in days, epoch limit and
    patience of the run ``config``.

    Validation loss (NLL or -ELBO with fixed draws) decides the checkpoint;
    the best one is returned. A non-finite training loss aborts with
    :class:`TrainingError`.

    Mixed precision: each batch and each validation pass runs in
    ``TRAIN_DTYPE``, on a copy of the float64 master parameters cast down,
    and the gradients are cast back up to float64 for Adam. Normalization,
    early stopping and the returned parameters stay float64.
    """
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    processes = len(targets)
    if kind == "movprnn" and processes != 2:
        raise ConfigError("movprnn models two processes jointly")

    counts_tr, cov_tr = day_arrays(split.train, targets)
    counts_va, cov_va = day_arrays(split.validation, targets)

    # standardization from the training split only; forecasting reads no counts,
    # so the checkpoint keeps only the covariates' statistics
    cov_flat = cov_tr.reshape(-1, cov_tr.shape[-1])
    cov_mean = cov_flat.mean(axis=0)
    cov_std = np.maximum(cov_flat.std(axis=0), 1e-8)
    cnt_flat = counts_tr.reshape(-1, processes).astype(float)
    cnt_mean = cnt_flat.mean(axis=0)
    cnt_std = np.maximum(cnt_flat.std(axis=0), 1e-8)

    def low(a: np.ndarray) -> np.ndarray:
        return a.astype(TRAIN_DTYPE, copy=False)

    cov_tr_n = low(_normalize(cov_tr, cov_mean, cov_std))
    cov_va_n = low(_normalize(cov_va, cov_mean, cov_std))
    cond_tr = low(_normalize(counts_tr.astype(float), cnt_mean, cnt_std))
    cond_va = low(_normalize(counts_va.astype(float), cnt_mean, cnt_std))
    counts_tr, counts_va = low(counts_tr), low(counts_va)

    ss = np.random.SeedSequence(seed)
    init_ss, shuffle_ss, elbo_ss, val_ss = ss.spawn(4)
    params = init_params(kind, cov_tr.shape[-1], config.hidden_width, processes,
                         int(init_ss.generate_state(1)[0]))
    params["norm/cov_mean"] = cov_mean
    params["norm/cov_std"] = cov_std

    shuffle_rng = np.random.default_rng(shuffle_ss)
    elbo_rng = np.random.default_rng(elbo_ss)
    val_seed = int(val_ss.generate_state(1)[0])

    keys = trainable_keys(params)
    optimizer = _Adam(keys, params, config.learning_rate)
    n_days = counts_tr.shape[0]
    batch = min(config.batch_days, n_days)

    best_val = np.inf
    best_params = {k: v.copy() for k, v in params.items()}
    stale = 0
    history = []
    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(n_days)
        for lo in range(0, n_days, batch):
            rows = order[lo:lo + batch]
            loss, grads = _loss_and_grads(kind, {k: low(params[k]) for k in keys},
                                          counts_tr[rows], cov_tr_n[rows], cond_tr[rows],
                                          elbo_rng)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"{kind} diverged at epoch {epoch}: loss {loss}; "
                    f"last validation loss {history[-1] if history else 'n/a'}")
            optimizer.step(params, {k: g.astype(float, copy=False) for k, g in grads.items()})
        val = _validation_loss(kind, {k: low(params[k]) for k in keys},
                               counts_va, cov_va_n, cond_va, val_seed)
        if not np.isfinite(val):
            raise TrainingError(f"{kind} validation loss became {val} at epoch {epoch}")
        history.append(val)
        if val < best_val - 1e-12:
            best_val = val
            best_params = {k: v.copy() for k, v in params.items()}
            stale = 0
        else:
            stale += 1
            if epoch + 1 >= MIN_EPOCHS and stale > config.patience:
                break

    return NeuralModel(
        kind=kind,
        hidden_width=config.hidden_width,
        input_width=cov_tr.shape[-1],
        processes=processes,
        interval_minutes=split.train.interval_minutes,
        targets=tuple(targets),
        seed=seed,
        params=best_params,
        train_history=history,
    )


# -- prediction ------------------------------------------------------------


# nodes of the Gauss–Hermite rule of the latent-rate forecasts: the bound that
# predict_rates states holds at 96 (at 64 it is 1.9e-4, at 128 it is 5e-6)
LATENT_NODES = 96


@functools.cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``x_i`` and weights ``w_i``, summing to 1, of the probabilists'
    Gauss–Hermite rule: ``Σ w_i f(x_i) ≈ E[f(Z)]`` for standard normal ``Z``.
    Built on first use, so that importing the CLI loads no ``numpy.polynomial``."""
    from numpy.polynomial.hermite_e import hermegauss

    nodes, weights = hermegauss(LATENT_NODES)
    return nodes, weights / weights.sum()


def predict_rates(model: NeuralModel, covariates: np.ndarray) -> np.ndarray:
    """Forecast per-interval expected counts from ``(days, steps, width)``
    covariates alone, as ``(days, steps, processes)``.

    The prior recurrent state never sees counts, so day-of forecasts cannot
    leak the day's observations: the prior network steps once over all days,
    one row per day. The deterministic model returns its transformed output
    directly. A latent-rate model returns ``E[softplus(mu0 + sigma0 Z)] +
    RATE_FLOOR`` per slot by the rule of :func:`_hermite_rule`. Against a fine
    trapezoid reference, that expectation's relative error is at most 3e-5
    for mu0 in [-8, 16] and sigma0 in [0, 6.5], and 1.6e-4 for mu0 in
    [-12, 16] and sigma0 in [0, 8]; trained nets have reached sigma0 = 6.24.
    """
    covariates = np.asarray(covariates, dtype=float)
    if covariates.ndim != 3 or covariates.shape[2] != model.input_width:
        raise DataError(f"covariates must be (days, steps, {model.input_width})")
    x = _time_major(model.normalize_covariates(covariates))
    out = np.swapaxes(_prior(dict(model.params), [], x), 0, 1)
    if model.kind == "prnn":
        return positive_rate(out)
    nodes, weights = _hermite_rule()
    mu0 = out[..., :model.processes, None]
    sigma0 = positive_scale(out[..., model.processes:, None])
    return softplus(mu0 + sigma0 * nodes) @ weights + RATE_FLOOR


# -- serialization -----------------------------------------------------------


def save_checkpoint(model: NeuralModel, path: str) -> None:
    """Versioned container: magic, JSON header with shapes and the validation
    loss per epoch, then raw float64."""
    keys = sorted(model.params)
    header = {
        "kind": model.kind,
        "hidden_width": model.hidden_width,
        "input_width": model.input_width,
        "processes": model.processes,
        "interval_minutes": model.interval_minutes,
        "targets": list(model.targets),
        "seed": model.seed,
        "train_history": model.train_history,
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
    """The model :func:`save_checkpoint` wrote. A file that is not a whole
    checkpoint, its header's ``train_history`` included, or whose header
    holds a width, process count or interval that is not a positive integer,
    raises :class:`FormatError` naming ``path``."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_CHECKPOINT_MAGIC))
        if magic != _CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint file (magic {magic!r})")
        try:
            (length,) = struct.unpack("<Q", fh.read(8))
            header = json.loads(fh.read(length).decode("utf-8"))
            sizes = ("hidden_width", "input_width", "processes", "interval_minutes")
            if wrong := [key for key in sizes if type(header[key]) is not int or header[key] < 1]:
                raise FormatError(f"{path}: the checkpoint header's {wrong[0]} is not a "
                                  f"positive integer")
            params = {}
            for entry in header["params"]:
                shape = tuple(entry["shape"])
                n = int(np.prod(shape)) if shape else 1
                raw = fh.read(n * 8)
                if len(raw) != n * 8:
                    raise FormatError(f"{path}: checkpoint truncated")
                params[entry["name"]] = np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()
            return NeuralModel(kind=header["kind"], **{key: header[key] for key in sizes},
                               targets=tuple(header["targets"]), seed=header["seed"],
                               params=params, train_history=header["train_history"])
        except KeyError as e:
            raise FormatError(f"{path}: the checkpoint header lacks {e}") from None
        except (struct.error, ValueError, TypeError) as e:
            raise FormatError(f"{path}: damaged checkpoint: {e}") from None
