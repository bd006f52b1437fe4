"""The recurrent count models written on the reverse-mode tape.

This is the gradient oracle for the whole-sequence kernels in
:mod:`bikecast.neural`. Every elementwise operation of every step is one
:class:`tape.Var` node, so ``ad.grad`` differentiates the model
mechanically, with no hand-written backward pass to get wrong. Each gate
reads its weights and bias as a column slice of the cell's stacked tensor,
which is how the kernels keep them. The parity tests check the kernels'
losses, gradients, validation curves and forecasts against the functions
here.

The oracle keeps the two-branch stable sigmoid of :func:`ad.sigmoid` and the
step-by-step loop, so it shares no arithmetic shortcut with the kernels.
"""

from __future__ import annotations

import numpy as np
import tape as ad
from numpy.polynomial.hermite_e import hermegauss
from tape import Var

from bikecast.neural import (
    GRU_GATES,
    LATENT_NODES,
    LSTM_GATES,
    RATE_FLOOR,
    SCALE_FLOOR,
    NeuralModel,
    trainable_keys,
)
from bikecast.queueing import log_factorial

# -- cells and heads -------------------------------------------------------


def gru_step(p: dict[str, Var], prefix: str, h: Var, x: Var) -> Var:
    """One gated recurrent update; candidate state bounded in (-1, 1) by tanh."""
    z = ad.sigmoid(ad.affine(x, p[f"{prefix}/Wxz"], p[f"{prefix}/bz"]) + h @ p[f"{prefix}/Whz"])
    r = ad.sigmoid(ad.affine(x, p[f"{prefix}/Wxr"], p[f"{prefix}/br"]) + h @ p[f"{prefix}/Whr"])
    c = ad.tanh(ad.affine(x, p[f"{prefix}/Wxc"], p[f"{prefix}/bc"]) + ad.mul(r, h) @ p[f"{prefix}/Whc"])
    one = ad.const(1.0)
    return ad.add(ad.mul(ad.sub(one, z), h), ad.mul(z, c))


def lstm_step(p: dict[str, Var], prefix: str, h: Var, c: Var, x: Var) -> tuple[Var, Var]:
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
    return ad.sub(ad.const(log_factorial(x).sum()), ll.sum())


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


# -- losses ---------------------------------------------------------------


def as_vars(params: dict[str, np.ndarray]) -> dict[str, Var]:
    """A leaf per trainable tensor, and each cell gate's weights and bias under
    the gate's own name (``prior_rnn/Wxz``), sliced from the stacked leaf."""
    p = {k: Var(v) for k, v in params.items() if not k.startswith("norm/")}
    for prefix, gates in (("prior_rnn", GRU_GATES), ("inf_rnn", LSTM_GATES)):
        if f"{prefix}/Wh" not in p:
            continue
        n = p[f"{prefix}/Wh"].shape[0]
        for k, gate in enumerate(gates):
            cols = slice(k * n, (k + 1) * n)
            p[f"{prefix}/Wx{gate}"] = p[f"{prefix}/Wx"][:, cols]
            p[f"{prefix}/Wh{gate}"] = p[f"{prefix}/Wh"][:, cols]
            p[f"{prefix}/b{gate}"] = p[f"{prefix}/b"][cols]
    return p


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
    rng: np.random.Generator,
    counts_normalized: np.ndarray | None = None,
) -> Var:
    """Step-wise evidence lower bound, summed over batch and steps.

    The reconstruction term uses one reparameterized draw per step, each a
    ``(B, P)`` call on ``rng`` in step order; the KL between the
    diagonal-Gaussian posterior and prior is closed form. The deterministic
    prior-state transition contributes no parameters and is omitted.
    ``counts_normalized`` is what the inference net conditions on (raw counts
    when absent); the likelihood always uses raw counts.
    """
    n_batch, n_steps, processes = counts.shape
    cond = counts_normalized if counts_normalized is not None else counts.astype(float)
    h_p = _broadcast_rows(p["prior_rnn/h0"], n_batch)
    h_q = _broadcast_rows(p["inf_rnn/h0"], n_batch)
    c_q = _broadcast_rows(p["inf_rnn/c0"], n_batch)
    elbo = ad.const(0.0)
    for t in range(n_steps):
        u_t = ad.const(covariates[:, t, :])
        h_p = gru_step(p, "prior_rnn", h_p, u_t)
        mu0, sigma0 = _split_head(head(p, "prior_head", h_p), processes)
        h_q, c_q = lstm_step(p, "inf_rnn", h_q, c_q,
                             ad.const(np.concatenate([covariates[:, t, :], cond[:, t, :]], axis=1)))
        mu_q, sigma_q = _split_head(head(p, "inf_head", h_q), processes)
        lam = ad.gaussian_sample(mu_q, sigma_q, rng.standard_normal((n_batch, processes)))
        recon = ad.mul(poisson_nll(positive_rate(lam), counts[:, t, :]), ad.const(-1.0))
        kl = gaussian_kl(mu_q, sigma_q, mu0, sigma0).sum()
        elbo = ad.add(elbo, ad.sub(recon, kl))
    return elbo


def _loss(kind: str, p: dict[str, Var], counts, covariates, cond, rng) -> Var:
    if kind == "prnn":
        return prnn_nll(p, counts, covariates)
    return ad.mul(vprnn_elbo(p, counts, covariates, rng, cond), ad.const(-1.0))


# -- the training and forecast entry points, on the tape ----------------------


def loss_and_grads(kind: str, params: dict, counts, covariates, cond, rng):
    """Drop-in oracle for ``neural._loss_and_grads``."""
    keys = trainable_keys(params)
    p = as_vars(params)
    per_day = ad.mul(_loss(kind, p, counts, covariates, cond, rng),
                     ad.const(1.0 / counts.shape[0]))
    grads = ad.grad(per_day, [p[k] for k in keys])
    return float(per_day.value), dict(zip(keys, grads))


def validation_loss(kind: str, params: dict, counts, covariates, cond, seed) -> float:
    """Drop-in oracle for ``neural._validation_loss``."""
    loss = _loss(kind, as_vars(params), counts, covariates, cond, np.random.default_rng(seed))
    return float(loss.value) / counts.shape[0]


def predict_rates(model: NeuralModel, covariates: np.ndarray) -> np.ndarray:
    """Oracle for ``neural.predict_rates`` on a ``(days, steps, width)`` stack.

    A latent-rate slot adds up, node by node, each weight of the
    ``LATENT_NODES``-point probabilists' Gauss–Hermite rule times the rate of
    the prior drawn at that node."""
    cov_n = model.normalize_covariates(np.asarray(covariates, dtype=float))
    n_days, n_steps, _ = cov_n.shape
    p = as_vars(model.params)
    h = _broadcast_rows(p["prior_rnn/h0"], n_days)
    outputs = []
    for t in range(n_steps):
        h = gru_step(p, "prior_rnn", h, ad.const(cov_n[:, t, :]))
        outputs.append(head(p, "prior_head", h))
    if model.kind == "prnn":
        return np.stack([positive_rate(out).value for out in outputs], axis=1)
    prior = [_split_head(out, model.processes) for out in outputs]
    mu0 = ad.const(np.stack([m.value for m, _ in prior], axis=1))
    sigma0 = ad.const(np.stack([s.value for _, s in prior], axis=1))
    nodes, weights = hermegauss(LATENT_NODES)
    rates = np.zeros(mu0.value.shape)
    for node, weight in zip(nodes, weights / weights.sum()):
        eps = np.full(rates.shape, node)
        rates += weight * positive_rate(ad.gaussian_sample(mu0, sigma0, eps)).value
    return rates
