"""The backward sweep of :mod:`bikecast.autodiff`, and the one-op tape of
``tests/tape.py`` against central finite differences."""

import numpy as np
import pytest
import tape as ad

from bikecast import autodiff


def test_sweep_sums_the_gradients_of_a_name_read_twice():
    # loss = sum(y * w) with y = 3 * w, so w feeds both entries: d loss / dw = 6 w
    w = np.array([1.0, -2.0])
    y = 3.0 * w
    tape = [("y", ("w",), lambda g: (3.0 * g,)),
            ("loss", ("y", "w"), lambda g: (g * w, g * y))]
    grads = autodiff.grad(tape)
    assert sorted(grads) == ["w"]  # only the names that no entry writes
    np.testing.assert_array_equal(grads["w"], 6.0 * w)


def test_sweep_seeds_a_python_float_and_keeps_float32():
    # a 0-d float64 seed would promote every float32 gradient below the loss
    w = np.array([0.5, 2.0, -1.0], dtype=np.float32)
    seeds = []

    def loss_vjp(g):
        seeds.append(g)
        return (g * w,)

    grads = autodiff.grad([("h", ("w",), lambda g: (g * w,)), ("loss", ("h",), loss_vjp)])
    assert type(seeds[0]) is float and seeds[0] == 1.0
    assert grads["w"].dtype == np.float32
    np.testing.assert_array_equal(grads["w"], w * w)


def central_difference(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x, dtype=float)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        keep = xf[i]
        xf[i] = keep + eps
        hi = f(x)
        xf[i] = keep - eps
        lo = f(x)
        xf[i] = keep
        flat[i] = (hi - lo) / (2 * eps)
    return g


def check_gradient(build, x0: np.ndarray, rtol: float = 1e-6):
    """build(Var) -> scalar Var; compares grad against finite differences."""
    p = ad.Var(x0.copy())
    loss = build(p)
    (g,) = ad.grad(loss, [p])

    def value(x):
        return float(build(ad.Var(x)).value)

    fd = central_difference(value, x0.copy())
    scale = np.maximum(np.abs(fd), 1.0)
    np.testing.assert_allclose(g, fd, atol=rtol, rtol=rtol * 10)
    assert np.max(np.abs(g - fd) / scale) < 1e-4


def test_add_mul_chain():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(3, 4))
    other = rng.normal(size=(3, 4))
    check_gradient(lambda p: ((p + ad.const(other)) * p).sum(), x0)


def test_broadcast_bias_gradient():
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(1, 5))
    data = rng.normal(size=(6, 5))
    check_gradient(lambda p: (ad.const(data) + p).sum(), x0)
    p = ad.Var(x0)
    loss = (ad.const(data) + p).sum()
    (g,) = ad.grad(loss, [p])
    assert g.shape == x0.shape
    np.testing.assert_allclose(g, np.full((1, 5), 6.0))


def test_matmul_gradient():
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(4, 3))
    w = rng.normal(size=(3, 2))
    check_gradient(lambda p: (p @ ad.const(w)).sum(), x0)
    check_gradient(lambda p: (ad.const(x0) @ p).sum(), w.copy())


def test_affine_gradient():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 3))
    w0 = rng.normal(size=(3, 2))
    b0 = rng.normal(size=(1, 2))
    check_gradient(lambda p: ad.affine(ad.const(x), p, ad.const(b0)).sum(), w0)
    check_gradient(lambda p: ad.affine(ad.const(x), ad.const(w0), p).sum(), b0)


@pytest.mark.parametrize("op", [ad.sigmoid, ad.tanh, ad.softplus, ad.exp])
def test_elementwise_gradients(op):
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(2, 7)) * 3.0
    check_gradient(lambda p: op(p).sum(), x0)


def test_log_gradient_on_positive_inputs():
    rng = np.random.default_rng(5)
    x0 = rng.uniform(0.5, 4.0, size=(3, 3))
    check_gradient(lambda p: ad.log(p).sum(), x0)


def test_softplus_is_stable_for_large_inputs():
    v = ad.softplus(ad.Var(np.array([800.0, -800.0])))
    assert np.isfinite(v.value).all()
    np.testing.assert_allclose(v.value[0], 800.0)
    np.testing.assert_allclose(v.value[1], 0.0, atol=1e-12)


def test_gather_scatters_gradient():
    x0 = np.arange(12.0).reshape(3, 4)
    p = ad.Var(x0.copy())
    # take row 1 twice so the scatter has to accumulate
    loss = (ad.gather(p, 1) + ad.gather(p, 1) + ad.gather(p, 2)).sum()
    (g,) = ad.grad(loss, [p])
    expected = np.zeros_like(x0)
    expected[1] = 2.0
    expected[2] = 1.0
    np.testing.assert_array_equal(g, expected)


def test_axis_sum_gradient():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(4, 5))
    check_gradient(lambda p: ad.sum_(p, axis=0).sum(), x0)


def test_gaussian_sample_reparameterization():
    eps = np.array([[0.7, -1.2]])
    m0 = np.array([[0.3, 0.5]])
    s0 = np.array([[1.1, 0.4]])
    m, s = ad.Var(m0.copy()), ad.Var(s0.copy())
    z = ad.gaussian_sample(m, s, eps)
    loss = (z * z).sum()
    gm, gs = ad.grad(loss, [m, s])
    zv = m0 + s0 * eps
    np.testing.assert_allclose(gm, 2 * zv)
    np.testing.assert_allclose(gs, 2 * zv * eps)


def test_grad_accumulates_through_reuse():
    x0 = np.array([2.0])
    p = ad.Var(x0)
    y = p * p + p  # dy/dp = 2p + 1 = 5
    (g,) = ad.grad(y.sum(), [p])
    np.testing.assert_allclose(g, [5.0])


def test_unused_parameter_gets_zero_gradient(monkeypatch):
    a, b = ad.Var(np.ones(3)), ad.Var(np.ones(2, dtype=np.float32))
    loss = a.sum()
    built = []
    zeros_like = np.zeros_like
    monkeypatch.setattr(np, "zeros_like", lambda x: built.append(x) or zeros_like(x))
    ga, gb = ad.grad(loss, [a, b])
    np.testing.assert_allclose(ga, np.ones(3))
    np.testing.assert_allclose(gb, np.zeros(2))
    assert gb.dtype == np.float32
    assert [x is b.value for x in built] == [True]  # a zero only where one is missing


def test_nodes_keep_float_dtypes_and_make_the_rest_float64():
    assert ad.Var(np.ones(2, dtype=np.float32)).value.dtype == np.float32
    assert ad.Var(np.ones(2)).value.dtype == np.float64
    assert ad.Var(np.arange(3)).value.dtype == np.float64
    assert ad.Var(2).value.dtype == ad.Var(2.5).value.dtype == np.float64


def test_deep_chain_does_not_recurse():
    # iterative topological sort must handle graphs deeper than the
    # interpreter recursion limit
    p = ad.Var(np.array([0.5]))
    node = p
    for _ in range(5000):
        node = node + ad.const(np.array([0.0]))
    (g,) = ad.grad(node.sum(), [p])
    np.testing.assert_allclose(g, [1.0])


def test_composite_expression_matches_finite_differences():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, 4))
    w0 = rng.normal(size=(4, 3)) * 0.5

    def build(p):
        h = ad.tanh(ad.const(x) @ p)
        return (ad.softplus(h) * ad.sigmoid(h)).sum()

    check_gradient(build, w0)
