"""Dense helpers and the finite-difference derivative oracle."""

import re

import numpy as np
import pytest

from flowgeom.errors import EvalFailure
from flowgeom.geometry import _metric_field, lw_christoffel
from flowgeom.linalg import DerivOracle, sym
from flowgeom.model import build_scenario

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
        return np.stack([x[..., 0] ** 3 + x[..., 1], x[..., 0] * x[..., 1] ** 2], axis=-1)

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
    got = oracle.directional(lambda y: np.sin(y[..., :1]) * np.exp(y[..., 1:]),
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


def test_extrapolation_beats_a_plain_central_difference_at_its_step():
    # the O(h^2) truncation error of D(h) is what the Richardson level removes
    x = np.array([0.5])
    f = lambda y: np.exp(3.0 * y)
    want = 3.0 * np.exp(1.5)
    oracle = DerivOracle()
    h = oracle._step(x)
    err_plain = abs((f(x + h) - f(x - h))[0] / (2.0 * h) - want)
    err_oracle = abs(oracle.directional(f, x, np.array([1.0]))[0] - want)
    assert err_oracle < err_plain / 100


# ------------------------------------------------- stacked-stencil Jacobian


def _jacobian_by_column(oracle, f, x):
    """Reference Jacobian: one call of ``f`` per stencil point, then
    ``(4 D(h/2) - D(h)) / 3``."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    h = oracle._step(x)
    cols = []
    for j in range(n):
        ej = np.zeros(n)
        ej[j] = 1.0
        samples = []
        for hl in (h, h / 2.0):
            step = np.asarray(hl)[..., None] * ej
            diff = np.asarray(f(x + step), dtype=float) - np.asarray(f(x - step), dtype=float)
            hdiv = np.reshape(hl, np.shape(hl) + (1,) * (diff.ndim - np.ndim(hl)))
            samples.append(diff / (2.0 * hdiv))
        d0, d1 = samples
        cols.append((4.0 * d1 - d0) / 3.0)
    return np.stack(cols, axis=-1)


SCENARIOS = (
    ("flat", {"n": 2, "drift": ["-x1", "-x2"]}),
    ("sphere-gradient", {"n": 2}),
    ("sphere-gradient", {"n": 3}),
    ("so3-left-invariant", {}),
    ("twisted-plane", {"alpha": 0.5}),
    ("circle", {}),
    ("custom", {"n": 2, "m": 3,
                "x_entries": [["cos(x1)", "sin(x1)*x2", "0.3"],
                              ["0.2*x1", "cos(x2)", "sin(x2)"]],
                "a_entries": ["-0.5*x1", "-0.5*sin(x2)"]}),
)


def _fields(system, cid):
    return {
        "coeff_x": lambda y: system.coeff_x(cid, y),
        "coeff_a": lambda y: system.coeff_a(cid, y),
        "metric": _metric_field(system, cid),
        "lw": lambda y: lw_christoffel(system, cid, y),
    }


@pytest.mark.parametrize("name,params", SCENARIOS,
                         ids=[s[0] + str(s[1].get("n", "")) for s in SCENARIOS])
@pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
def test_jacobian_matches_column_at_a_time_reference(name, params, batched):
    system = build_scenario(name, params).system
    cid = system.charts[0]
    pts = np.array([x for c, x in system.sample_points(np.random.default_rng(3), 6) if c == cid])
    x = pts if batched else pts[0]
    for label, f in _fields(system, cid).items():
        got = system.oracle.jacobian(f, x)
        want = _jacobian_by_column(system.oracle, f, x)
        assert got.shape == want.shape, label
        assert np.array_equal(got, want), label


@pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 4, 3)])
def test_jacobian_calls_field_once_per_column_on_its_stencil(shape):
    # one call in all: every column's +/- points at h and h/2 sit once on
    # the one 4-row stencil
    oracle = DerivOracle()
    x = rng.normal(size=shape)
    seen = []

    def f(y):
        seen.append(y)
        return np.stack([np.sin(y[..., 0]) * y[..., 1], y[..., 2] ** 2], axis=-1)

    jac = oracle.jacobian(f, x)
    n = shape[-1]
    assert len(seen) == 1
    y = seen[0]
    assert y.shape == (4, n) + shape and y.flags["C_CONTIGUOUS"]
    assert jac.shape == shape[:-1] + (2, n) and jac.flags["C_CONTIGUOUS"]
    h = oracle._step(x)[..., None]
    for j, ej in enumerate(np.eye(n)):
        for row, hl in ((0, h), (2, h / 2.0)):
            assert np.array_equal(y[row, j], x + hl * ej)
            assert np.array_equal(y[row + 1, j], x - hl * ej)


def test_nested_jacobian_calls_inner_field_once():
    # the outer stencil, every level and axis, is one batch for the inner jacobian
    oracle = DerivOracle()
    calls = []

    def inner(y):
        calls.append(y.shape)
        return np.stack([y[..., 0] ** 2 * y[..., 1], np.cos(y[..., 1])], axis=-1)

    x = np.array([0.3, -0.8])
    hess = oracle.jacobian(lambda y: oracle.jacobian(inner, y), x)
    assert calls == [(4, 2, 4, 2, 2)]
    want = np.array([[[2 * x[1], 2 * x[0]], [2 * x[0], 0.0]],
                     [[0.0, 0.0], [0.0, -np.cos(x[1])]]])
    np.testing.assert_allclose(hess, want, atol=1e-6)


def test_jacobian_rejects_a_per_point_field():
    # a field indexing y[0] reads the stacked stencil's first row, not x1
    oracle = DerivOracle()
    f = lambda y: np.array([y[0] ** 2 + 3.0 * y[1]])
    x = np.array([1.0, 2.0])
    with pytest.raises(EvalFailure, match=re.escape("must map (..., n) arrays to (..., S)")):
        oracle.jacobian(f, x)
    # directional stacks its stencil the same way, so it rejects the field too
    with pytest.raises(EvalFailure, match=re.escape("must map (..., n) arrays to (..., S)")):
        oracle.directional(f, x, np.array([0.0, 1.0]))


def test_jacobian_error_names_the_base_point():
    oracle = DerivOracle()
    x = np.array([0.25, -1.5, 3.0])

    def f(y):
        if np.any(y[..., 1] < -1.5):
            raise ValueError("out of domain")
        return y

    with pytest.raises(EvalFailure) as err:
        oracle.jacobian(f, x)
    msg = str(err.value)
    assert "[ 0.25 -1.5   3.  ]" in msg and "out of domain" in msg and len(msg) < 120
    with pytest.raises(EvalFailure, match="non-finite") as err:
        oracle.jacobian(lambda y: np.where(y < -1.5, np.inf, y), x)
    assert "[ 0.25 -1.5   3.  ]" in str(err.value) and len(str(err.value)) < 120


def test_jacobian_error_on_a_batch_stays_short():
    oracle = DerivOracle()
    x = rng.normal(size=(500, 3))

    def f(y):
        raise ValueError("boom")

    with pytest.raises(EvalFailure) as err:
        oracle.jacobian(f, x)
    assert "boom" in str(err.value) and len(str(err.value)) < 200


# ----------------------------------------------- stacked-stencil directional


def _directional_by_point(oracle, f, x, v):
    """Reference directional derivative: one call of ``f`` per stencil point
    of each row of the broadcast ``(x, v)``, then ``(4 D(h/2) - D(h)) / 3``."""
    x, v = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
    xs, vs = x.reshape(-1, x.shape[-1]), v.reshape(-1, v.shape[-1])
    rows = []
    for xr, vr in zip(xs, vs):
        vnorm = np.linalg.norm(vr, axis=-1)
        vhat = vr / vnorm if vnorm else vr
        h = oracle._step(xr)
        samples = []
        for hl in (h, h / 2.0):
            fp = np.asarray(f(xr + hl * vhat), dtype=float)
            fm = np.asarray(f(xr - hl * vhat), dtype=float)
            samples.append((fp - fm) / (2.0 * hl))
        d0, d1 = samples
        rows.append(vnorm * ((4.0 * d1 - d0) / 3.0))
    return np.stack(rows).reshape(x.shape[:-1] + rows[0].shape)


def _poly(y):
    return np.stack([np.sin(y[..., 0]) * y[..., 1], y[..., 2] ** 2], axis=-1)


@pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 4, 3)])
def test_directional_calls_field_once_on_its_stencil(shape):
    oracle = DerivOracle()
    x = rng.normal(size=shape)
    v = rng.normal(size=shape)
    seen = []

    def f(y):
        seen.append(y.copy())
        return _poly(y)

    got = oracle.directional(f, x, v)
    assert len(seen) == 1
    y = seen[0]
    assert y.shape == (4,) + shape
    vhat = v / np.linalg.norm(v, axis=-1, keepdims=True)
    h = oracle._step(x)[..., None]
    for row, hl in ((0, h), (2, h / 2.0)):
        assert np.array_equal(y[row], x + hl * vhat)
        assert np.array_equal(y[row + 1], x - hl * vhat)
    assert got.shape == shape[:-1] + (2,)
    assert np.array_equal(got, _directional_by_point(oracle, _poly, x, v))


def test_directional_broadcasts_points_against_directions():
    # one point per row of x, several directions per point
    oracle = DerivOracle()
    x = rng.normal(size=(4, 1, 3))
    v = rng.normal(size=(5, 3))
    got = oracle.directional(_poly, x, v)
    assert got.shape == (4, 5, 2)
    assert np.array_equal(got, _directional_by_point(oracle, _poly, x, v))


def test_directional_zero_direction_rows_give_zeros():
    oracle = DerivOracle()
    x = rng.normal(size=(4, 3))
    v = rng.normal(size=(4, 3))
    v[[0, 2]] = 0.0
    got = oracle.directional(_poly, x, v)
    assert np.array_equal(got[[0, 2]], np.zeros((2, 2)))
    for k in (1, 3):
        assert np.array_equal(got[k], oracle.directional(_poly, x[k], v[k]))


def test_directional_error_names_the_base_point():
    oracle = DerivOracle()
    x = np.array([0.25, -1.5, 3.0])

    def f(y):
        if np.any(y[..., 1] < -1.5):
            raise ValueError("out of domain")
        return y

    with pytest.raises(EvalFailure) as err:
        oracle.directional(f, x, np.array([0.0, 1.0, 0.0]))
    msg = str(err.value)
    assert "[ 0.25 -1.5   3.  ]" in msg and "out of domain" in msg and len(msg) < 120
