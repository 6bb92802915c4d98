"""Scenario registry, coefficient fields, charts, and transitions."""

import numpy as np
import pytest

import flowgeom.expr as ex
from flowgeom import quat
from flowgeom.errors import BadParams, DegenerateX, OutOfOverlap, UnknownScenario
from flowgeom.linalg import as_engine, path_fastest
from flowgeom.model import SphereSystem, build_scenario, scenario_names

rng = np.random.default_rng(0)


def test_registry_names():
    assert scenario_names() == [
        "circle", "custom", "flat", "so3-left-invariant",
        "sphere-gradient", "twisted-plane",
    ]


def test_unknown_scenario_lists_alternatives():
    with pytest.raises(UnknownScenario) as exc:
        build_scenario("moebius", {})
    assert "sphere-gradient" in str(exc.value)


def test_param_validation():
    with pytest.raises(BadParams):
        build_scenario("flat", {"n": 0})
    with pytest.raises(BadParams):
        build_scenario("flat", {"n": 17})
    with pytest.raises(BadParams):
        build_scenario("sphere-gradient", {"n": 1})
    with pytest.raises(BadParams):
        # drift list length must match the dimension
        build_scenario("flat", {"n": 2, "drift": ["-x1"]})
    with pytest.raises(BadParams):
        # drift may only reference coordinates that exist
        build_scenario("flat", {"n": 2, "drift": ["-x1", "x3"]})
    with pytest.raises(BadParams):
        build_scenario("custom", {"n": 3, "m": 2, "x_entries": []})


def test_flat_coefficients():
    sc = build_scenario("flat", {"n": 3})
    sys = sc.system
    cid, x0 = sys.start()
    assert cid == "u"
    np.testing.assert_allclose(x0, np.zeros(3))
    np.testing.assert_allclose(sys.coeff_x(cid, x0), np.eye(3))
    assert not sys.has_drift
    assert sc.reference["lw_equals_lc"] is True
    assert sc.reference["curvature_zero"] is True


def test_flat_drift_expressions():
    sys = build_scenario("flat", {"n": 2, "drift": ["-x1", "-x2"]}).system
    assert sys.has_drift
    a = sys.coeff_a("u", np.array([0.5, -2.0]))
    np.testing.assert_allclose(a, [-0.5, 2.0])


def test_sphere_embedding_is_unit_norm():
    sys = build_scenario("sphere-gradient", {"n": 2}).system
    for cid, x in sys.sample_points(rng, 10):
        p = sys.embed(cid, x)
        assert p.shape == (3,)
        assert abs(np.linalg.norm(p) - 1.0) < 1e-12


def test_sphere_coefficient_is_tangent_projection():
    # X(u)^T maps ambient vectors onto the tangent space at the embedded
    # point: X X^T has eigenvalues g^{-1} on the tangent pair, and the
    # composite Y X fixes every chart vector.
    sys = build_scenario("sphere-gradient", {"n": 2}).system
    cid, x = sys.sample_points(rng, 1)[0]
    X = sys.coeff_x(cid, x)
    assert X.shape == (2, 3)
    p = sys.embed(cid, x)
    # rows of X pair to zero with the normal direction
    np.testing.assert_allclose(X @ p, np.zeros(2), atol=1e-12)
    Y = X.T @ np.linalg.inv(X @ X.T)
    np.testing.assert_allclose(X @ Y, np.eye(2), atol=1e-12)


def test_sphere_chart_transition_consistency():
    sys = build_scenario("sphere-gradient", {"n": 2}).system
    x = np.array([0.8, -0.6])
    y = sys.transition("n", "s", x)
    np.testing.assert_allclose(x, sys.transition("s", "n", y), atol=1e-14)
    # same embedded point in both charts
    np.testing.assert_allclose(sys.embed("n", x), sys.embed("s", y), atol=1e-14)
    # jacobian matches finite differences
    jac = sys.transition_jacobian("n", "s", x)
    h = 1e-6
    for j in range(2):
        dx = np.zeros(2)
        dx[j] = h
        fd = (sys.transition("n", "s", x + dx)
              - sys.transition("n", "s", x - dx)) / (2 * h)
        np.testing.assert_allclose(jac[:, j], fd, atol=1e-8)


def test_sphere_transition_rejects_chart_center():
    sys = build_scenario("sphere-gradient", {"n": 2}).system
    with pytest.raises(OutOfOverlap):
        sys.transition("n", "s", np.zeros(2))


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_per_row_charts_equal_per_row_calls(n):
    # a batch that mixes charts gives, row by row, the values of one call per row
    sys = build_scenario("sphere-gradient", {"n": n}).system
    gen = np.random.default_rng(4)
    x = gen.uniform(-2.5, 2.5, size=(9, n))
    cids = np.array(["n", "s", "s", "n", "s", "n", "n", "s", "n"])
    target = sys.switch_target(cids)
    np.testing.assert_array_equal(target, [sys.switch_target(c) for c in cids])
    per_row = {
        "coeff_x": lambda c, y: sys.coeff_x(c, y),
        "coeff_dx": lambda c, y: sys.coeff_dx(c, y),
        "embed": lambda c, y: sys.embed(c, y),
        "embed_jacobian": lambda c, y: sys.embed_jacobian(c, y),
        "transition": lambda c, y: sys.transition(c, sys.switch_target(c), y),
        "transition_jacobian": lambda c, y: sys.transition_jacobian(
            c, sys.switch_target(c), y),
    }
    batched = {
        "coeff_x": sys.coeff_x(cids, x),
        "coeff_dx": sys.coeff_dx(cids, x),
        "embed": sys.embed(cids, x),
        "embed_jacobian": sys.embed_jacobian(cids, x),
        "transition": sys.transition(cids, target, x),
        "transition_jacobian": sys.transition_jacobian(cids, target, x),
    }
    for name, f in per_row.items():
        rows = np.stack([f(c, y) for c, y in zip(cids, x)])
        assert np.array_equal(batched[name], rows), name


def test_sphere_transition_rejects_a_per_row_pair_to_the_same_chart():
    sys = build_scenario("sphere-gradient", {"n": 2}).system
    x = np.array([[0.8, -0.6], [1.1, 0.2], [-0.4, 0.9]])
    with pytest.raises(OutOfOverlap):
        sys.transition(np.array(["n", "s", "n"]), np.array(["s", "s", "s"]), x)


def test_so3_coefficients_at_identity():
    sc = build_scenario("so3-left-invariant", {})
    sys = sc.system
    cid, x0 = sys.start()
    np.testing.assert_allclose(sys.coeff_x(cid, x0), np.eye(3), atol=1e-14)
    assert sys.is_group
    assert sc.reference["tss"] is True
    assert sc.reference["lw_equals_lc"] is False
    np.testing.assert_allclose(sc.reference["torsion_e1_e2"], [0.0, 0.0, -1.0])


def test_so3_embed_is_rotation_matrix():
    sys = build_scenario("so3-left-invariant", {}).system
    for cid, x in sys.sample_points(rng, 5):
        r = sys.embed(cid, x).reshape(3, 3)
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_so3_group_recentering_preserves_embedding():
    sys = build_scenario("so3-left-invariant", {}).system
    u = np.array([0.4, -0.2, 0.9])
    before = sys.embed("exp", u).reshape(3, 3)
    center = sys.group_compose(sys.group_identity(), u)
    after = sys.embed("exp", np.zeros(3), center=center).reshape(3, 3)
    np.testing.assert_allclose(before, after, atol=1e-12)


def test_twisted_plane_rotation_coefficient():
    sys = build_scenario("twisted-plane", {"alpha": 0.5}).system
    x = np.array([1.2, -0.3])
    X = sys.coeff_x("plane", x)
    # orthogonal coefficient: the induced metric is Euclidean everywhere
    np.testing.assert_allclose(X @ X.T, np.eye(2), atol=1e-14)
    c, s = np.cos(0.5 * x[0]), np.sin(0.5 * x[0])
    assert abs(abs(X[0, 0]) - abs(c)) < 1e-12 or abs(abs(X[0, 0]) - abs(s)) < 1e-12


def test_twisted_plane_alpha_zero_reference():
    sc = build_scenario("twisted-plane", {"alpha": 0.0})
    assert sc.reference["lw_equals_lc"] is True
    assert sc.reference["tss"] is True
    sc = build_scenario("twisted-plane", {"alpha": 0.7})
    assert sc.reference["lw_equals_lc"] is False
    assert sc.reference["tss"] is False


def test_circle_scenario():
    sc = build_scenario("circle", {})
    sys = sc.system
    assert sys.dim_one
    cid, x0 = sys.start()
    assert cid == "theta"
    np.testing.assert_allclose(x0, [0.7])
    p = sys.embed(cid, np.array([0.7]))
    np.testing.assert_allclose(p, [np.cos(0.7), np.sin(0.7)], atol=1e-15)


def test_custom_scenario_round_trip():
    sys = build_scenario("custom", {
        "n": 1, "m": 2,
        "x_entries": [["cos(x1)", "sin(x1)"]],
    }).system
    x = np.array([0.3])
    X = sys.coeff_x(sys.start()[0], x)
    np.testing.assert_allclose(X, [[np.cos(0.3), np.sin(0.3)]], atol=1e-15)


def test_sample_points_deterministic():
    sys = build_scenario("sphere-gradient", {"n": 2}).system
    a = sys.sample_points(np.random.default_rng(3), 4)
    b = sys.sample_points(np.random.default_rng(3), 4)
    for (ca, xa), (cb, xb) in zip(a, b):
        assert ca == cb
        np.testing.assert_array_equal(xa, xb)


# ------------------------------------------------------ coefficient derivatives

DX_SCENARIOS = [
    ("flat", {"n": 2, "drift": ["-x1", "-x2"]}),
    ("flat", {"n": 3}),
    ("sphere-gradient", {"n": 2}),
    ("sphere-gradient", {"n": 3}),
    ("so3-left-invariant", {}),
    ("twisted-plane", {"alpha": 0.5}),
    ("circle", {}),
    ("custom", {"n": 2, "m": 3,
                "x_entries": [["cos(x1)", "sin(x1)*x2", "0.3"],
                              ["0.2*x1", "cos(x2)", "sin(x2)"]]}),
]


SO3_RADII = (1e-7, 1e-5, 0.5 * quat._EPS, 2.0 * quat._EPS, 1e-3, 0.1, 1.0, 2.0, 3.5)


@pytest.mark.parametrize("name,params", DX_SCENARIOS)
@pytest.mark.parametrize("lead", [(), (2, 4)])
def test_coeff_dx_matches_the_oracle(name, params, lead):
    system = build_scenario(name, params).system
    gen = np.random.default_rng(5)
    for chart in system.charts:  # both stereographic charts on the sphere
        x0 = gen.uniform(-0.7, 0.7, size=lead + (system.n,))
        points = [x0]
        if system.is_group:  # so3: the same directions at radii on either side of quat._EPS
            unit = x0 / np.linalg.norm(x0, axis=-1, keepdims=True)
            points += [r * unit for r in SO3_RADII]
        for x in points:
            fd = system.oracle.jacobian(lambda y: system.coeff_x(chart, y), x)
            exact = system.coeff_dx(chart, x)
            assert exact.shape == lead + (system.n, system.m, system.n)
            assert np.max(np.abs(exact - fd)) <= 1e-8 * max(1.0, np.max(np.abs(fd)))


def _jr_inv_series(u: np.ndarray, terms: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Jr^-1(u) = sum_k B_k / k! (-hat u)^k from the Bernoulli series, and
    its partials term by term (d/du_j H^k = sum_a H^a hat(e_j) H^(k-1-a)),
    differentiation axis last."""
    from fractions import Fraction
    from math import comb, factorial

    bern = [Fraction(1)]
    for k in range(1, terms + 1):
        bern.append(-sum(comb(k + 1, i) * bern[i] for i in range(k)) / (k + 1))
    h = -quat.hat(u)
    powers = [np.eye(3)]
    for _ in range(terms):
        powers.append(powers[-1] @ h)
    value = np.eye(3)
    grad = np.zeros((3, 3, 3))
    for k in range(1, terms + 1):
        c = float(bern[k] / factorial(k))
        value += c * powers[k]
        for j, ej in enumerate(-quat.hat(np.eye(3))):
            grad[:, :, j] += c * sum(powers[a] @ ej @ powers[k - 1 - a] for a in range(k))
    return value, grad


@pytest.mark.parametrize("radius", [1.0001e-4, 2e-4, 1e-3, 0.0999, 0.1001, 0.5])
def test_so3_coefficients_match_the_bernoulli_series(radius):
    # just above quat._EPS the closed forms of d and d'(t)/t cancel; their
    # series branches reach up to quat._SERIES instead
    u = radius * np.array([0.48, -0.6, 0.64])
    want_x, want_dx = _jr_inv_series(u)
    system = build_scenario("so3-left-invariant", {}).system
    for got, want in ((system.coeff_x("u", u), want_x), (system.coeff_dx("u", u), want_dx)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("radius", [1.0001e-4, 2e-4, 1e-3, 0.0999, 0.1001, 0.5])
def test_so3_right_jacobian_matches_its_taylor_series(radius):
    # c1 = (1 - cos t)/t^2 and c2 = (t - sin t)/t^3 cancel as closed forms at
    # small t; their series branches reach up to quat._SERIES, and either
    # branch must match the exact sums of their Taylor series
    from fractions import Fraction
    from math import factorial

    t2 = Fraction(radius) ** 2
    want = [float(sum((-t2) ** k / factorial(2 * k + j) for k in range(30))) for j in (2, 3)]
    got = quat._c1_c2(np.array(radius))
    for c, w in zip(got, want):
        assert abs(c - w) <= 1e-13 * w
    # Jr(u) = sum_k (-hat u)^k / (k+1)!
    u = radius * np.array([0.48, -0.6, 0.64])
    h = -quat.hat(u)
    term, series = np.eye(3), np.eye(3)
    for k in range(1, 30):
        term = term @ h / (k + 1)
        series = series + term
    assert np.max(np.abs(quat.right_jacobian(u) - series)) <= 1e-14 * np.max(np.abs(series))


DA_SCENARIOS = [
    ("flat", {"n": 2, "drift": ["-x1", "-x2"]}),
    ("flat", {"n": 3, "drift": ["sin(x2) - x1^3", "x1*x3", "exp(-x3^2)/2"]}),
    ("custom", {"n": 2, "m": 3,
                "x_entries": [["cos(x1)", "sin(x1)*x2", "0.3"],
                              ["0.2*x1", "cos(x2)", "sin(x2)"]],
                "a_entries": ["-0.5*x1", "-0.5*sin(x2)*tanh(x1)"]}),
]


@pytest.mark.parametrize("name,params", DA_SCENARIOS)
@pytest.mark.parametrize("lead", [(), (2, 4)])
def test_coeff_da_matches_the_oracle(name, params, lead):
    system = build_scenario(name, params).system
    x = np.random.default_rng(6).uniform(-0.7, 0.7, size=lead + (system.n,))
    fd = system.oracle.jacobian(lambda y: system.coeff_a("u", y), x)
    exact = system.coeff_da("u", x)
    assert exact.shape == lead + (system.n, system.n)
    assert np.max(np.abs(exact - fd)) <= 1e-8 * max(1.0, np.max(np.abs(fd)))


@pytest.mark.parametrize("name,params", [
    ("flat", {"n": 2}), ("custom", DX_SCENARIOS[-1][1]), ("sphere-gradient", {"n": 2}),
    ("so3-left-invariant", {}), ("twisted-plane", {"alpha": 0.5}), ("circle", {})])
def test_coeff_da_without_drift_is_zero(name, params):
    system = build_scenario(name, params).system
    assert not system.has_drift
    cid = system.charts[0]
    x = np.random.default_rng(4).uniform(-0.7, 0.7, size=(3, system.n))
    zeros = np.zeros((3, system.n, system.n))
    for layout, pts in (("C_CONTIGUOUS", x), ("F_CONTIGUOUS", as_engine(x))):
        da = system.coeff_da(cid, pts)
        np.testing.assert_array_equal(da, zeros)
        np.testing.assert_array_equal(np.signbit(da), np.signbit(zeros))
        assert da.flags[layout]
        # what the oracle gives on the zero drift, bit for bit
        np.testing.assert_array_equal(
            da, system.oracle.jacobian(lambda y: system.coeff_a(cid, y), pts))


GRID_SCENARIOS = [
    # the benchmark's custom system: constants 0.3, 0.2 and -0.5, zero derivatives
    ("custom", {"n": 2, "m": 3,
                "x_entries": [["cos(x1)", "sin(x1)*x2", "0.3"],
                              ["0.2*x1", "cos(x2)", "sin(x2)"]],
                "a_entries": ["-0.5*x1", "-0.5*sin(x2)"]}),
    ("flat", {"n": 2, "drift": ["-x1", "-0.5*sin(x2) + 1"]}),
]


def _entrywise(trees, x, shape):
    """One ``expr.evaluate`` call per tree on the coordinates of ``x``, the
    trees in C order over ``shape``: the route before any constant split."""
    comps = np.moveaxis(x, -1, 0)
    vals = [np.broadcast_to(ex.evaluate(t, comps), x.shape[:-1]) for t in trees]
    return np.stack(vals, axis=-1).reshape(x.shape[:-1] + shape)


@pytest.mark.parametrize("name,params", GRID_SCENARIOS)
@pytest.mark.parametrize("layout", ["C", "engine"])
def test_expression_grids_equal_entrywise_evaluation(name, params, layout):
    system = build_scenario(name, params).system
    n, m = system.n, system.m
    x = np.random.default_rng(8).uniform(-0.7, 0.7, size=(6, n))
    if layout == "engine":
        x = as_engine(x)
    if name == "custom":
        x_trees = [ex.parse(s) for row in params["x_entries"] for s in row]
        a_trees = [ex.parse(s) for s in params["a_entries"]]
        want_x = _entrywise(x_trees, x, (n, m))
        want_dx = _entrywise([ex.derivative(e, j) for e in x_trees for j in range(n)],
                             x, (n, m, n))
    else:
        a_trees = [ex.parse(s) for s in params["drift"]]
        want_x = np.broadcast_to(np.eye(n), (6, n, n))
        want_dx = np.zeros((6, n, n, n))
    want_a = _entrywise(a_trees, x, (n,))
    want_da = _entrywise([ex.derivative(e, j) for e in a_trees for j in range(n)], x, (n, n))
    for got, want in [(system.coeff_x("u", x), want_x), (system.coeff_dx("u", x), want_dx),
                      (system.coeff_a("u", x), want_a), (system.coeff_da("u", x), want_da)]:
        assert got.shape == want.shape
        assert path_fastest(got) == (layout == "engine")
        # bit for bit, the sign of every zero included
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", [2, 3])
def test_sphere_coeff_x_is_the_scaled_embedding_jacobian(n):
    sys = build_scenario("sphere-gradient", {"n": n}).system
    u = np.random.default_rng(n).normal(size=(7, n))
    s = 1.0 + np.sum(u * u, axis=-1)[:, None, None]
    for cid in ("n", "s", np.array(["n", "s", "s", "n", "s", "n", "n"])):
        X = sys.coeff_x(cid, u)
        want = (s * s / 4.0) * np.swapaxes(sys.embed_jacobian(cid, u), -1, -2)
        np.testing.assert_allclose(X, want, rtol=0, atol=1e-14)
        assert X.flags.c_contiguous
    assert sys.coeff_x("s", u[0]).shape == (n, n + 1)


class _PinchedSphere(SphereSystem):
    """The sphere with X zeroed at the origin of chart 's' only."""

    def coeff_x(self, cid, x):
        X = super().coeff_x(cid, x)
        pinched = (np.asarray(cid) == "s") & ~np.asarray(x).any(axis=-1)
        return np.where(pinched[..., None, None], 0.0, X)


def test_rank_check_names_the_bad_row_and_its_own_chart():
    sys = _PinchedSphere(2)
    cids = np.array(["n", "s", "s", "n"])
    xs = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.0], [0.0, 0.0]])
    ok = [0, 1, 3]
    sys.check_rank(cids[ok], xs[ok], sys.coeff_x(cids[ok], xs[ok]))  # full rank, chart n at the origin
    with pytest.raises(DegenerateX, match=r"X loses rank at s:\[0\. 0\.\] \(min sv 0\.00e\+00\)"):
        sys.check_rank(cids, xs, sys.coeff_x(cids, xs))
    with pytest.raises(DegenerateX, match=r"at s:\[0\. 0\.\]"):
        sys.check_rank("s", xs[1:], sys.coeff_x("s", xs[1:]))  # one chart name for every row


def test_validate_names_the_chart_and_point_where_x_loses_rank():
    # every sampled point of x1 - x1 is degenerate: the first one is named
    with pytest.raises(DegenerateX, match=r"X loses rank at u:\[-?0\.\d+\] \(min sv"):
        build_scenario("custom", {"n": 1, "m": 1, "x_entries": [["x1 - x1"]]})
