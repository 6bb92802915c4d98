"""Dense helpers and the finite-difference derivative oracle."""

import numpy as np

from flowgeom.linalg import DerivOracle, sym

rng = np.random.default_rng(42)


def test_sym_is_symmetric_part():
    a = rng.normal(size=(3, 3))
    s = sym(a)
    np.testing.assert_allclose(s, s.T)
    np.testing.assert_allclose(s + (a - s), a)


def test_sym_batched():
    a = rng.normal(size=(4, 3, 3))
    s = sym(a)
    np.testing.assert_allclose(s, np.swapaxes(s, -1, -2))


# ------------------------------------------------------- derivative oracle


def test_directional_on_polynomial():
    # Richardson-extrapolated central differences resolve low-degree
    # polynomials to near machine precision.
    oracle = DerivOracle()

    def f(x):
        return np.array([x[0] ** 3 + x[1], x[0] * x[1] ** 2])

    x = np.array([1.2, -0.7])
    v = np.array([0.3, 0.5])
    want = np.array([3 * x[0] ** 2 * v[0] + v[1],
                     v[0] * x[1] ** 2 + 2 * x[0] * x[1] * v[1]])
    got = oracle.directional(f, x, v)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)


def test_directional_on_transcendental():
    oracle = DerivOracle()
    x = np.array([0.4, 0.9])
    v = np.array([1.0, -2.0])
    got = oracle.directional(lambda y: np.array([np.sin(y[0]) * np.exp(y[1])]),
                             x, v)
    want = (np.cos(x[0]) * v[0] + np.sin(x[0]) * v[1]) * np.exp(x[1])
    np.testing.assert_allclose(got, [want], rtol=1e-8)


def test_jacobian_shape_and_values():
    # f maps (..., 2) -> (..., 3); jacobian appends the direction axis last
    oracle = DerivOracle()

    def f(x):
        return np.stack([x[..., 0] ** 2, x[..., 0] * x[..., 1], x[..., 1]],
                        axis=-1)

    x = np.array([2.0, 3.0])
    jac = oracle.jacobian(f, x)
    assert jac.shape == (3, 2)
    want = np.array([[4.0, 0.0], [3.0, 2.0], [0.0, 1.0]])
    np.testing.assert_allclose(jac, want, rtol=1e-9, atol=1e-10)


def test_richardson_levels_tighten_truncation():
    x = np.array([0.5])
    v = np.array([1.0])
    f = lambda y: np.array([np.exp(3.0 * y[0])])
    want = 3.0 * np.exp(1.5)
    crude = DerivOracle(h0=1e-2, richardson_levels=0)
    sharp = DerivOracle(h0=1e-2, richardson_levels=2)
    err_crude = abs(crude.directional(f, x, v)[0] - want)
    err_sharp = abs(sharp.directional(f, x, v)[0] - want)
    assert err_sharp < err_crude / 100
