"""Connection, curvature, and generator identities on the bundled scenarios.

Closed-form constants used as references (orthonormal frames, unit vectors):
  sphere S^n, gradient system:  sectional curvature 1, Ricci = (n-1) g,
                                moment form on unit vectors = p - n
  so(3), left-invariant fields: Gamma(v, w) = -(v x w)/2 at the identity,
                                torsion(e1, e2) = -e3, curvature = 0,
                                Levi-Civita Ricci = g/2
  flat with drift a(x) = -x:    moment form = -2 on unit vectors, any p
"""

from functools import cached_property

import numpy as np
import pytest

from flowgeom.errors import DegenerateX
from flowgeom.geometry import (
    PointData,
    _grad_x,
    _gram_inverse,
    _induced_gamma,
    _probes,
    _ric_sharp,
    _torsion_skew,
    christoffel,
    codifferential_1form,
    codifferential_1form_lie,
    connection_routes_residual,
    covariant_derivative,
    curvature_from_christoffel,
    curvature_lw_direct,
    defining_property_residual,
    exterior_derivative_1form,
    geometry_point,
    levi_civita_christoffel,
    lie_bracket,
    lw_lc_split_residual,
    metricity_residual,
    moment_form,
    moment_form_extremes,
    moment_quadratic,
    one_form_from_spec,
    one_form_generator,
    one_form_generator_hodge,
    pairing_derivative_residual,
    point_data,
    ricci_bilinear,
    ricci_sharp,
    scalar_from_expr,
    scalar_generator,
    sectional_curvature,
    stratonovich_term,
    torsion_from_christoffel,
    torsion_via_bracket,
    torsion_via_dy,
    tss_check,
)
from flowgeom.expr import evaluate, parse
from flowgeom.linalg import as_engine, path_fastest
from flowgeom.model import build_scenario

rng = np.random.default_rng(7)


def system_of(name, params=None):
    return build_scenario(name, params or {}).system


@pytest.fixture(scope="module")
def sphere():
    return system_of("sphere-gradient", {"n": 2})


@pytest.fixture(scope="module")
def so3():
    return system_of("so3-left-invariant")


@pytest.fixture(scope="module")
def twisted():
    return system_of("twisted-plane", {"alpha": 0.5})


# ------------------------------------------------------------ sphere facts


def test_sphere_metric_is_conformal(sphere):
    u = np.array([0.3, -0.2])
    pd = point_data(sphere, "n", u)
    g, ginv, PT, PN = pd.g, pd.ginv, pd.PT, pd.PN
    s = 1.0 + u @ u
    np.testing.assert_allclose(g, (4.0 / s**2) * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(g @ ginv, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(PT + PN, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(PT @ PT, PT, atol=1e-12)


def test_sphere_connection_is_levi_civita(sphere):
    for cid, x in sphere.sample_points(np.random.default_rng(1), 20):
        gap = np.max(np.abs(christoffel(sphere, cid, x, "lw")
                            - christoffel(sphere, cid, x, "lc")))
        assert gap < 1e-8


def test_sphere_sectional_curvature_is_one(sphere):
    for cid, x in sphere.sample_points(np.random.default_rng(2), 8):
        gp = geometry_point(sphere, cid, x)
        u, v = rng.normal(size=2), rng.normal(size=2)
        k = sectional_curvature(gp.curvature_lw, gp.g, u, v)
        assert k == pytest.approx(1.0, abs=1e-6)


def test_sphere_ricci_is_g(sphere):
    # unit S^2 carries Ric = (n-1) g = g
    cid, x = sphere.sample_points(np.random.default_rng(3), 1)[0]
    gp = geometry_point(sphere, cid, x)
    np.testing.assert_allclose(gp.ricci_lw, gp.g, atol=1e-7)
    np.testing.assert_allclose(gp.ric_sharp, np.eye(2), atol=1e-7)


def test_sphere_moment_form_is_p_minus_n(sphere):
    cid, x = "n", np.array([0.4, 0.1])
    pd = point_data(sphere, cid, x)
    for p in (1.0, 2.0, 4.0):
        for _ in range(4):
            v = rng.normal(size=2)
            v = v / np.sqrt(v @ pd.g @ v)
            assert moment_form(pd, v, p) == pytest.approx(p - 2.0, abs=1e-6)
        lo, hi = moment_form_extremes(pd, p)
        assert lo == pytest.approx(p - 2.0, abs=1e-6)
        assert hi == pytest.approx(p - 2.0, abs=1e-6)


def test_sphere_generator_on_coordinate_functions(sphere):
    # embedded coordinates are degree-1 eigenfunctions: L x_i = -x_i
    cid, x = "n", np.array([0.3, -0.2])
    emb = sphere.embed(cid, x)
    for i, src in enumerate(["x1", "x2", "x3"]):
        f = scalar_from_expr(sphere, cid, src)
        lw, lc = scalar_generator(point_data(sphere, cid, x), f)
        assert lw == pytest.approx(-emb[i], abs=1e-7)
        assert lw == pytest.approx(lc, abs=1e-9)


def test_sphere_is_tss_with_zero_torsion(sphere):
    ok, res, _ = tss_check(point_data(sphere, "n", np.array([0.2, 0.5])))
    assert ok and res < 1e-8
    gamma = christoffel(sphere, "n", np.array([0.2, 0.5]), "lw")
    assert np.max(np.abs(torsion_from_christoffel(gamma))) < 1e-8


# -------------------------------------------------------------- so3 facts


def test_so3_christoffel_is_half_cross_product(so3):
    gamma = christoffel(so3, "exp", np.zeros(3), "lw")
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[i, k, j] = -1.0
    np.testing.assert_allclose(gamma, -0.5 * eps, atol=1e-9)
    # adjoint transposes the last two slots
    gadj = christoffel(so3, "exp", np.zeros(3), "adjoint")
    np.testing.assert_allclose(gadj, 0.5 * eps, atol=1e-9)
    # Levi-Civita is their average here, which cancels to zero
    glc = christoffel(so3, "exp", np.zeros(3), "lc")
    np.testing.assert_allclose(glc, np.zeros((3, 3, 3)), atol=1e-9)


def test_so3_torsion_constant(so3):
    for x in [np.zeros(3), np.array([0.4, -0.2, 0.1])]:
        gamma = christoffel(so3, "exp", x, "lw")
        T = torsion_from_christoffel(gamma)
        e1, e2 = np.eye(3)[0], np.eye(3)[1]
        # at the identity the frame is the coordinate basis
        if not x.any():
            np.testing.assert_allclose(
                np.einsum("ijk,j,k->i", T, e1, e2), [0.0, 0.0, -1.0],
                atol=1e-9)
        np.testing.assert_allclose(T, torsion_via_dy(so3, "exp", x), atol=1e-8)


def test_so3_curvature_vanishes(so3):
    for x in [np.zeros(3), np.array([0.3, 0.2, -0.5])]:
        R = curvature_from_christoffel(so3, "exp", x, "lw")
        assert np.max(np.abs(R)) < 1e-7
        pd = point_data(so3, "exp", x)
        np.testing.assert_allclose(curvature_lw_direct(pd.gradX, pd.g), R,
                                   atol=1e-7)


def test_so3_levi_civita_ricci_is_half_metric(so3):
    x = np.array([0.1, -0.3, 0.2])
    pd = point_data(so3, "exp", x)
    R_lc = curvature_from_christoffel(so3, "exp", x, "lc")
    ric_lc = ricci_bilinear(ricci_sharp(R_lc, pd.ginv), pd.g)
    np.testing.assert_allclose(ric_lc, 0.5 * pd.g, atol=1e-6)


def test_so3_is_tss_and_adjoint_metric(so3):
    ok, res, _ = tss_check(point_data(so3, "exp", np.zeros(3)))
    assert ok and res < 1e-8
    assert metricity_residual(point_data(so3, "exp", np.array([0.2, 0.1, -0.4])),
                              kind="adjoint") < 1e-8


# ------------------------------------------------- identities, all systems

CASES = [
    ("flat", {"n": 3}),
    ("flat", {"n": 2, "drift": ["-x1", "-x2"]}),
    ("sphere-gradient", {"n": 2}),
    ("sphere-gradient", {"n": 3}),
    ("so3-left-invariant", {}),
    ("twisted-plane", {"alpha": 0.5}),
    ("circle", {}),
]


@pytest.mark.parametrize("name,params", CASES)
def test_defining_property(name, params):
    sys = system_of(name, params)
    for cid, x in [sys.start()] + sys.sample_points(np.random.default_rng(5), 3):
        assert defining_property_residual(point_data(sys, cid, x)) < 1e-7


@pytest.mark.parametrize("name,params", CASES)
def test_metricity_and_pairing(name, params):
    sys = system_of(name, params)
    cid, x = sys.sample_points(np.random.default_rng(6), 1)[0]
    assert metricity_residual(point_data(sys, cid, x), kind="lw") < 1e-8
    assert pairing_derivative_residual(point_data(sys, cid, x)) < 1e-7


@pytest.mark.parametrize("name,params", CASES)
def test_christoffel_route_equivalence(name, params):
    sys = system_of(name, params)
    cid, x = sys.sample_points(np.random.default_rng(8), 1)[0]
    assert connection_routes_residual(point_data(sys, cid, x)) < 1e-7


@pytest.mark.parametrize("name,params", CASES)
def test_torsion_route_equivalence(name, params):
    sys = system_of(name, params)
    cid, x = sys.sample_points(np.random.default_rng(9), 1)[0]
    gamma = christoffel(sys, cid, x, "lw")
    T = torsion_from_christoffel(gamma)
    np.testing.assert_allclose(T, torsion_via_dy(sys, cid, x), atol=1e-6)
    r = np.random.default_rng(10)
    for _ in range(3):
        v1, v2 = r.normal(size=sys.n), r.normal(size=sys.n)
        tb = torsion_via_bracket(sys, cid, x, v1, v2)
        np.testing.assert_allclose(tb, np.einsum("ijk,j,k->i", T, v1, v2),
                                   atol=1e-5)


@pytest.mark.parametrize("name,params", CASES)
def test_stratonovich_term_vanishes(name, params):
    # sum of LW derivatives of the diffusion fields along themselves is
    # identically zero, including on non-TSS systems
    sys = system_of(name, params)
    for cid, x in [sys.start()] + sys.sample_points(np.random.default_rng(11), 2):
        s = stratonovich_term(point_data(sys, cid, x))
        assert np.max(np.abs(s)) < 1e-9


@pytest.mark.parametrize("name,params",
                         [(n, p) for n, p in CASES if n != "twisted-plane"])
def test_lw_lc_split(name, params):
    # torsion-half split of the Levi-Civita connection needs skew torsion,
    # so the non-TSS twisted plane is excluded
    sys = system_of(name, params)
    cid, x = sys.sample_points(np.random.default_rng(12), 1)[0]
    identity_res, _ = lw_lc_split_residual(point_data(sys, cid, x))
    assert identity_res < 1e-6


def test_lw_lc_split_detects_non_tss(twisted):
    cid, x = twisted.sample_points(np.random.default_rng(12), 1)[0]
    identity_res, _ = lw_lc_split_residual(point_data(twisted, cid, x))
    assert identity_res > 1e-3


def test_twisted_plane_profile(twisted):
    cid, x = "plane", np.array([0.8, -0.4])
    ok, _, _ = tss_check(point_data(twisted, cid, x))
    assert not ok
    gamma_gap = np.max(np.abs(christoffel(twisted, cid, x, "lw")
                              - christoffel(twisted, cid, x, "lc")))
    assert gamma_gap > 1e-3
    assert np.max(np.abs(curvature_from_christoffel(twisted, cid, x, "lw"))) < 1e-7
    T = torsion_from_christoffel(christoffel(twisted, cid, x, "lw"))
    assert np.max(np.abs(T)) > 1e-3


def test_ricci_comparison_on_tss_systems():
    # Levi-Civita Ricci dominates the induced-connection Ricci wherever the
    # torsion is skew; equality holds when the connections coincide.
    for name, params in [("flat", {"n": 2}), ("sphere-gradient", {"n": 2}),
                         ("so3-left-invariant", {})]:
        sys = system_of(name, params)
        cid, x = sys.sample_points(np.random.default_rng(13), 1)[0]
        pd = point_data(sys, cid, x)
        R_lc = curvature_from_christoffel(sys, cid, x, "lc")
        diff = (ricci_bilinear(ricci_sharp(R_lc, pd.ginv), pd.g)
                - ricci_bilinear(pd.ric_sharp, pd.g))
        diff = 0.5 * (diff + diff.T)
        Linv = np.linalg.inv(np.linalg.cholesky(pd.g))
        eigs = np.linalg.eigvalsh(Linv @ diff @ Linv.T)
        assert eigs.min() > -1e-7
        if name != "so3-left-invariant":
            assert np.max(np.abs(eigs)) < 1e-7


# -------------------------------------------------------------- generators


def test_generator_routes_flat_ou():
    sys = system_of("flat", {"n": 2, "drift": ["-x1", "-x2"]})
    x = np.array([0.5, -1.0])
    f = scalar_from_expr(sys, "u", "x1*x1")
    lw, lc = scalar_generator(point_data(sys, "u", x), f)
    # a.grad f + (1/2) laplacian f = -2 x1^2 + 1
    assert lw == pytest.approx(-2 * x[0] ** 2 + 1.0, abs=1e-7)
    assert lw == pytest.approx(lc, abs=1e-9)


def test_covariant_derivative_of_defining_field(sphere):
    # the field y -> X(y) e, e in the row space at x, is LW-parallel at x
    cid, x = "n", np.array([0.1, 0.6])
    pd = point_data(sphere, cid, x)
    e = pd.Y @ np.array([1.0, -0.5])

    def z_field(y):
        return sphere.coeff_x(cid, y) @ e

    for _ in range(3):
        v = rng.normal(size=2)
        dz = covariant_derivative(sphere, cid, x, z_field, v)
        assert np.max(np.abs(dz)) < 1e-7


def test_lie_bracket_coordinate_fields():
    sys = system_of("flat", {"n": 2})

    def z1(y):
        return np.stack([y[..., 1], 0.0 * y[..., 0]], axis=-1)

    def z2(y):
        return np.stack([0.0 * y[..., 0], y[..., 0] * y[..., 1]], axis=-1)

    x = np.array([1.0, 2.0])
    got = lie_bracket(z1, z2, x)
    # [z1, z2] = Dz2 z1 - Dz1 z2
    want = np.array([-x[0] * x[1], x[1] ** 2])
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9)


def test_lie_bracket_of_linear_fields_batched_over_points_and_probes():
    # [Ax, Bx] = (BA - AB) x: a stencil laid out on the wrong axis (a field
    # mixing rows of different points or probes) breaks this by orders of
    # magnitude, not in the last digits
    r = np.random.default_rng(21)
    A, B = r.normal(size=(2, 6, 3, 3))            # one pair per probe
    x = r.normal(size=(5, 1, 3))                  # points, then the probe axis
    u = lambda y: np.einsum("...ij,...j->...i", A, y)
    v = lambda y: np.einsum("...ij,...j->...i", B, y)
    got = lie_bracket(u, v, x)
    want = np.einsum("...ij,...j->...i", B @ A - A @ B, x)
    assert got.shape == (5, 6, 3)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


# ------------------------------------------------------------ moment forms


def test_ou_moment_form_constant():
    sys = system_of("flat", {"n": 2, "drift": ["-x1", "-x2"]})
    pd = point_data(sys, "u", np.array([0.3, 0.7]))
    B = moment_quadratic(pd)
    np.testing.assert_allclose(B, -2.0 * np.eye(2), atol=1e-7)
    for p in (2.0, 4.0):
        v = rng.normal(size=2)
        v = v / np.linalg.norm(v)
        assert moment_form(pd, v, p) == pytest.approx(-2.0, abs=1e-7)
        lo, hi = moment_form_extremes(pd, p)
        assert lo == pytest.approx(-2.0, abs=1e-6)
        assert hi == pytest.approx(-2.0, abs=1e-6)


def test_moment_form_homogeneous_degree_two(sphere):
    pd = point_data(sphere, "n", np.array([0.2, -0.5]))
    v = rng.normal(size=2)
    h1 = moment_form(pd, v, 4.0)
    h2 = moment_form(pd, 3.0 * v, 4.0)
    assert h2 == pytest.approx(9.0 * h1, rel=1e-9)


def test_moment_form_extremes_deterministic(sphere):
    pd = point_data(sphere, "n", np.array([0.1, 0.2]))
    a = moment_form_extremes(pd, 3.0)
    b = moment_form_extremes(pd, 3.0)
    assert a == b


# n = 2 takes the angular grid, n = 3 the restarts
MOMENT_CUSTOM = {
    2: {"n": 2, "m": 3,
        "x_entries": [["cos(x1)", "sin(x1)*x2", "0.3"], ["0.2*x1", "cos(x2)", "sin(x2)"]],
        "a_entries": ["-0.5*x1", "-0.5*sin(x2)"]},
    3: {"n": 3, "m": 4,
        "x_entries": [["1 + 0.3*sin(x2)", "0.2*x3", "0", "0.4*x1"],
                      ["0.1*x1", "1", "0.2*cos(x3)", "0.3*x3"],
                      ["0", "0.3*x2", "1 + 0.1*x1*x1", "0.5*sin(x1)"]]},
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
def test_moment_form_extremes_of_a_batch_are_those_of_each_row(n, p):
    # each row picks its route and stops on its own values, bit for bit
    sys = system_of("custom", MOMENT_CUSTOM[n])
    xs = np.array([x for _, x in sys.sample_points(np.random.default_rng(0), 8)])
    lo, hi = moment_form_extremes(point_data(sys, "u", xs), p)
    for row, x in enumerate(xs):
        assert (lo[row], hi[row]) == moment_form_extremes(point_data(sys, "u", x), p)


@pytest.mark.parametrize("n", [2, 3])
def test_moment_form_extremes_take_the_eigen_route_row_by_row(n):
    # X = (I | x1^2 e1) has DX = 0, and so nab X = 0, where x1 = 0: the
    # quartic term vanishes on those rows alone, which read the p = 2
    # extremes; the drift makes them nonzero
    entries = [[str(int(i == j)) for j in range(n)] + ["x1*x1" if i == 0 else "0"]
               for i in range(n)]
    drift = ["-x1 - 0.5*x2", "0.3*x1 - x2", "0.2*x1 - x3"][:n]
    sys = system_of("custom", {"n": n, "m": n + 1, "x_entries": entries, "a_entries": drift})
    xs = np.array([[0.0, 0.3, 0.1], [0.5, -0.2, 0.4], [0.0, 1.0, -0.3]])[:, :n]
    pd = point_data(sys, "u", xs)
    lo, hi = moment_form_extremes(pd, 3.0)
    lo2, hi2 = moment_form_extremes(pd, 2.0)
    assert lo[[0, 2]].tolist() == lo2[[0, 2]].tolist()
    assert hi[[0, 2]].tolist() == hi2[[0, 2]].tolist()
    assert (lo[1], hi[1]) != (lo2[1], hi2[1])
    for row, x in enumerate(xs):
        assert (lo[row], hi[row]) == moment_form_extremes(point_data(sys, "u", x), 3.0)


# ---------------------------------------------------------------- 1-forms


def test_one_form_generator_routes_agree(sphere):
    cid, x = "n", np.array([0.3, 0.1])
    phi = one_form_from_spec(sphere, cid, {"d_of": "x1"})
    v = np.array([0.7, -0.2])
    gp = point_data(sphere, cid, x)
    direct = one_form_generator(gp, phi, v)
    hodge = one_form_generator_hodge(gp, phi, v)
    assert direct == pytest.approx(hodge, abs=1e-7)


def test_codifferential_routes_agree(sphere):
    cid, x = "n", np.array([-0.2, 0.4])
    phi = one_form_from_spec(sphere, cid, {"d_of": "x3"})
    a = float(codifferential_1form(sphere, cid, x, phi))
    b = codifferential_1form_lie(sphere, cid, x, phi)
    assert a == pytest.approx(b, abs=1e-6)


def test_codifferential_is_batch_safe(sphere):
    # a (k, n) batch gives exactly the per-row values, so the oracle can
    # differentiate the codifferential on a stacked stencil
    cid = "n"
    xs = np.array([[-0.2, 0.4], [0.3, 0.1], [0.05, -0.6], [0.9, 0.2]])
    phi = one_form_from_spec(sphere, cid, {"d_of": "x3"})
    batch = codifferential_1form(sphere, cid, xs, phi)
    rows = np.array([codifferential_1form(sphere, cid, x, phi) for x in xs])
    assert batch.shape == (4,)
    assert np.array_equal(batch, rows)
    # the Lie-derivative route batches the same way and agrees with it
    lie = codifferential_1form_lie(sphere, cid, xs, phi)
    lie_rows = np.array([codifferential_1form_lie(sphere, cid, x, phi) for x in xs])
    assert lie.shape == (4,)
    assert np.array_equal(lie, lie_rows)
    np.testing.assert_allclose(lie, batch, rtol=0, atol=1e-6)


@pytest.mark.parametrize("name, params, spec", [
    ("sphere-gradient", {"n": 2}, {"d_of": "x2"}),
    ("sphere-gradient", {"n": 3}, {"d_of": "x1*x4"}),
    ("custom", {"n": 2, "m": 3,
                "x_entries": [["cos(x1)", "sin(x1)*x2", "0.3"],
                              ["0.2*x1", "cos(x2)", "sin(x2)"]],
                "a_entries": ["-0.5*x1", "-0.5*sin(x2)"]}, {"d_of": "x1*x2"}),
])
def test_one_form_generators_are_batch_safe(name, params, spec):
    # a batch of points, in mixed charts where the scenario has two, with
    # one v per point, gives exactly the per-row values of both routes
    sys = build_scenario(name, params).system
    pts = [sys.start()] + sys.sample_points(np.random.default_rng(41), 3)
    cids = np.array([cid for cid, _ in pts])
    xs = np.array([x for _, x in pts])
    vs = np.random.default_rng(1).normal(size=xs.shape)
    gp = point_data(sys, cids, xs)
    phi = one_form_from_spec(sys, cids, spec)
    for generator in (one_form_generator, one_form_generator_hodge):
        batch = generator(gp, phi, vs)
        rows = np.array([generator(point_data(sys, cid, x),
                                   one_form_from_spec(sys, cid, spec), v)
                         for cid, x, v in zip(cids, xs, vs)])
        assert batch.shape == (4,)
        assert np.array_equal(batch, rows), generator.__name__


def test_exterior_derivative_of_exact_form_vanishes(sphere):
    cid, x = "n", np.array([0.5, 0.2])
    phi = one_form_from_spec(sphere, cid, {"d_of": "x2"})
    d = exterior_derivative_1form(phi, x)
    assert np.max(np.abs(d)) < 1e-6


def test_one_form_component_spec():
    sys = system_of("flat", {"n": 2})
    phi = one_form_from_spec(sys, "u", {"components": ["x2", "x1"]})
    np.testing.assert_allclose(phi(np.array([3.0, 4.0])), [4.0, 3.0],
                               atol=1e-12)


@pytest.mark.parametrize("layout", ["C", "engine"])
def test_component_one_form_equals_per_component_evaluation(layout):
    sys = system_of("custom", {"n": 2, "m": 2, "x_entries": [["1", "0"], ["0", "1"]]})
    components = ["x2*cos(x1)", "0.5 - x1*x2"]
    ys = np.random.default_rng(3).uniform(-1.0, 1.0, size=(6, 2))
    if layout == "engine":
        ys = as_engine(ys)
    got = one_form_from_spec(sys, "u", {"components": components})(ys)
    want = np.stack([evaluate(parse(s), [ys[:, 0], ys[:, 1]]) for s in components], axis=-1)
    assert path_fastest(got) == (layout == "engine")
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


# ----------------------------------------------------------------- guards


def test_degenerate_coefficient_detected():
    sys = system_of("custom", {
        "n": 1, "m": 2, "x_entries": [["x1", "0"]],
    })
    with pytest.raises(DegenerateX):
        geometry_point(sys, sys.start()[0], np.zeros(1))


def test_geometry_point_evaluates_the_coefficients_once(sphere, monkeypatch):
    # the rank check tests the bundle's own X
    calls = []
    inner = sphere.coeff_x
    monkeypatch.setattr(sphere, "coeff_x", lambda cid, x: calls.append(cid) or inner(cid, x))
    xs = np.array([[0.1, 0.2], [0.3, -0.1], [0.0, 0.4]])
    gp = geometry_point(sphere, np.array(["n", "s", "n"]), xs)
    gp.X, gp.g, gp.gamma  # the bundle reads X in turn
    assert len(calls) == 1
    np.testing.assert_array_equal(gp.X, inner(gp.cid, xs))


def test_christoffel_batched_points(sphere):
    xs = np.array([[0.1, 0.2], [0.3, -0.1], [0.0, 0.4]])
    gammas = christoffel(sphere, "n", xs, "lw")
    assert gammas.shape == (3, 2, 2, 2)
    one = christoffel(sphere, "n", xs[1], "lw")
    np.testing.assert_allclose(gammas[1], one, atol=1e-12)


# ------------------------------------------------------- batch consistency

# the scenarios of tools/report_digests.py
DIGEST_SCENARIOS = (
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


def _identities(sys, cid, x, v1, v2):
    """Every probe-batched identity at ``x`` (charts ``cid``: one name, or
    one per point), as a flat list of arrays."""
    f = scalar_from_expr(sys, cid, "x1")
    gp = geometry_point(sys, cid, x)
    # the bracket's points carry a probe axis, and so do their charts
    bracket_cid = cid if np.ndim(cid) == 0 else np.asarray(cid)[..., None]
    return [
        defining_property_residual(gp),
        metricity_residual(gp, kind="lw"),
        metricity_residual(gp, kind="adjoint"),
        pairing_derivative_residual(gp),
        pairing_derivative_residual(gp, kind="lc"),
        connection_routes_residual(gp),
        torsion_via_bracket(sys, bracket_cid, x[..., None, :], v1, v2),
        *tss_check(gp),
        *lw_lc_split_residual(gp),
        *scalar_generator(gp, f),
        stratonovich_term(gp),
        stratonovich_term(gp, kind="lc"),
        gp.g, gp.gamma, gp.gamma_lc, gp.torsion, gp.curvature_lw, gp.ricci_lw,
    ]


@pytest.mark.parametrize("name,params", DIGEST_SCENARIOS,
                         ids=[s[0] + str(s[1].get("n", "")) for s in DIGEST_SCENARIOS])
def test_identities_batched_agree_with_single_points(name, params):
    # each chart's points as one batch, and the whole point set as one batch
    # with one chart per row, agree with every point on its own
    sys = system_of(name, params)
    pts = [sys.start()] + sys.sample_points(np.random.default_rng(31), 6)
    cids = np.array([cid for cid, _ in pts])
    xs = np.array([x for _, x in pts])
    v1, v2 = np.random.default_rng(32).normal(size=(2, len(pts), 2, sys.n))
    if name == "sphere-gradient" and params["n"] == 2:
        assert set(cids) == {"n", "s"}
    rows = [_identities(sys, cid, x, a, b) for cid, x, a, b in zip(cids, xs, v1, v2)]
    batches = [(cids == cid, cid) for cid in sorted(set(cids))] + [(slice(None), cids)]
    for sel, cid in batches:
        batch = _identities(sys, cid, xs[sel], v1[sel], v2[sel])
        for k, got in enumerate(batch):
            want = np.array([row[k] for row in rows])[sel]
            assert np.shape(got) == want.shape, k
            if want.dtype == bool:
                assert np.array_equal(got, want), k
            else:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, err_msg=str(k))


# every field a PointData computes on first read
BUNDLE_FIELDS = tuple(name for name, attr in vars(PointData).items()
                      if isinstance(attr, (property, cached_property))
                      and not name.startswith("_"))


def _assert_bundle_is_fresh(gp):
    fresh = point_data(gp.system, gp.cid, gp.x)
    assert len(BUNDLE_FIELDS) == 18
    for name in BUNDLE_FIELDS:
        got, want = getattr(gp, name), getattr(fresh, name)
        assert (got is None and want is None) or np.array_equal(got, want), name
    assert np.array_equal(gp.gamma_lc, levi_civita_christoffel(gp.system, gp.cid, gp.x))


def test_identities_never_write_into_the_shared_bundle(sphere):
    # every PointData-taking function, with each connection kind it takes,
    # leaves each field of the PointData it shares as a fresh computation
    # gives it; the verify digests rely on this
    pts = [sphere.start()] + sphere.sample_points(np.random.default_rng(41), 5)
    cids = np.array([cid for cid, _ in pts])
    assert set(cids) == {"n", "s"}
    gp = point_data(sphere, cids, np.array([x for _, x in pts]))
    defining_property_residual(gp)
    connection_routes_residual(gp)
    _torsion_skew(gp)
    tss_check(gp)
    lw_lc_split_residual(gp)
    scalar_generator(gp, scalar_from_expr(sphere, cids, "x1*x3"))
    for kind in ("lw", "adjoint", "lc"):
        pairing_derivative_residual(gp, kind=kind)
        metricity_residual(gp, kind=kind)
        stratonovich_term(gp, kind=kind)
    phi = one_form_from_spec(sphere, cids, {"d_of": "x2"})
    one_form_generator(gp, phi, np.array([0.4, -1.0]))
    one_form_generator_hodge(gp, phi, np.array([0.4, -1.0]))
    _assert_bundle_is_fresh(gp)


# ------------------------------------------ matmul contractions, Gram inverse

# (n, m) with m = n and m > n, for n = 1, 2, 3; the batch shapes of one
# point, a vector of points and a grid of points
SHAPES = [(n, m) for n in (1, 2, 3) for m in (n, n + 2)]
BATCHES = [(), (5,), (2, 4)]


def _rel_gap(got, want):
    # Ric# vanishes identically for n = 1: there the gap is absolute
    return np.max(np.abs(got - want)) / (np.max(np.abs(want)) or 1.0)


@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("n,m", SHAPES)
def test_matmul_contractions_match_einsum(n, m, batch):
    r = np.random.default_rng(100 * n + m)
    X = r.normal(size=batch + (n, m))
    DX = r.normal(size=batch + (n, m, n))
    Y = r.normal(size=batch + (m, n))
    gamma = r.normal(size=batch + (n, n, n))
    gradX = r.normal(size=batch + (n, m, n))
    # the einsum forms of the same sums, index for index
    want_gamma = -np.einsum("...irj,...rk->...ijk", DX, Y)
    want_grad = DX + np.einsum("...ajk,...ki->...aij", gamma, X)
    tr = np.einsum("...aia->...i", gradX)
    want_ric = (np.einsum("...i,...aib->...ab", tr, gradX)
                - np.einsum("...aib,...bic->...ac", gradX, gradX))
    for got, want in ((_induced_gamma(DX, Y), want_gamma),
                      (_grad_x(DX, gamma, X), want_grad),
                      (_ric_sharp(gradX), want_ric)):
        assert got.shape == want.shape
        assert _rel_gap(got, want) <= 1e-13


@pytest.mark.parametrize("batch", BATCHES, ids=str)
@pytest.mark.parametrize("n,m", SHAPES)
def test_gram_inverse_matches_linalg_inv(n, m, batch):
    r = np.random.default_rng(10 * n + m)
    # well conditioned: a perturbed [I | 0]
    X = np.eye(n, m) + 0.3 * r.normal(size=batch + (n, m))
    gram, g, Y = _gram_inverse(X)
    want = np.linalg.inv(X @ np.swapaxes(X, -1, -2))
    assert g.shape == want.shape
    assert _rel_gap(g, want) <= 1e-12
    assert _rel_gap(gram, X @ np.swapaxes(X, -1, -2)) <= 1e-15
    assert _rel_gap(Y, np.swapaxes(X, -1, -2) @ want) <= 1e-12


def _probes_one_by_one(rng, n_probes, *parts):
    """The reference draw: probe after probe, part after part, a unit vector
    normalised by ``np.linalg.norm`` of that one vector."""
    rows = []
    for _ in range(n_probes):
        row = []
        for part in parts:
            v = rng.normal(size=part)
            row.append(v / np.linalg.norm(v) if np.ndim(part) == 0 else v)
        rows.append(row)
    return tuple(np.array(col) for col in zip(*rows))


@pytest.mark.parametrize("parts", [(1,), (2, 3), (3, (3, 3), 3),
                                   (2, (2, 2), (2, 2), 2), (4, 4, 4), (5, (2, 3))], ids=str)
@pytest.mark.parametrize("seed", range(6))
def test_probes_match_a_draw_probe_by_probe(parts, seed):
    got = _probes(np.random.default_rng(seed), 7, *parts)
    want = _probes_one_by_one(np.random.default_rng(seed), 7, *parts)
    assert len(got) == len(want) == len(parts)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.flags.c_contiguous
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_inverse_raises_on_one_singular_row_in_a_batch(n):
    X = np.eye(n, n + 1) + 0.1 * np.random.default_rng(n).normal(size=(6, n, n + 1))
    X[3, -1] = 0.0  # one zero row of X: an exactly singular Gram matrix
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _gram_inverse(X)
