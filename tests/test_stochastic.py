"""Path engine: seeding, integrators, transports, companion processes.

Frozen references:
  flat with drift -x:  J_t = exp(-t) I (deterministic), running moment
                       integral = -2 t for any p
  circle:              J = W = 1 exactly, the diffusion field is parallel
  sphere S^2:          transport holonomy around a loop equals enclosed
                       area; running moment integral vanishes for p = 2
  so(3):               J equals the adjoint-transport at integrator order
"""

from dataclasses import fields

import numpy as np
import pytest

from flowgeom import geometry
from flowgeom.errors import BadParams
from flowgeom.geometry import PointData, _metric_field, point_data
from flowgeom.model import build_scenario
from flowgeom.stochastic import (
    BLOCK,
    FlowPath,
    SimResult,
    _block_noise,
    _bundle,
    _isometrize,
    _isometry_inverse,
    _polar_snap,
    integrate_flow,
    reconstruction_error,
    sample_noise,
    simulate,
    transport_along,
)


def system_of(name, params=None):
    return build_scenario(name, params or {}).system


@pytest.fixture(scope="module")
def sphere():
    return system_of("sphere-gradient", {"n": 2})


@pytest.fixture(scope="module")
def ou():
    return system_of("flat", {"n": 2, "drift": ["-x1", "-x2"]})


# ------------------------------------------------------------------ noise


def test_noise_is_counter_keyed():
    # one stream per (seed, path) pair so any path is reproducible alone
    g = sample_noise(123, 17, 10, 0.04, 3)
    ref = np.random.Generator(np.random.Philox(key=[123, 17]))
    want = ref.standard_normal((10, 3)) * np.sqrt(0.04)
    np.testing.assert_array_equal(g.increments, want)


def test_noise_streams_distinct_and_stable():
    a = sample_noise(5, 0, 20, 0.01, 2)
    b = sample_noise(5, 1, 20, 0.01, 2)
    a2 = sample_noise(5, 0, 20, 0.01, 2)
    np.testing.assert_array_equal(a.increments, a2.increments)
    assert np.max(np.abs(a.increments - b.increments)) > 1e-3


def test_noise_moments_match_brownian_scaling():
    dt = 0.01
    inc = np.stack([sample_noise(7, i, 100, dt, 2).increments
                    for i in range(200)])
    z = inc / np.sqrt(dt)
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)


def test_noise_keys_use_all_64_bits():
    # seeds past 2**63 must neither collide with a neighbour nor overflow
    a = sample_noise(2**63, 0, 4, 0.1, 2)
    b = sample_noise(2**63 + 1, 0, 4, 0.1, 2)
    top = sample_noise(2**64 - 1, 0, 4, 0.1, 2)
    assert not np.array_equal(a.increments, b.increments)
    assert np.all(np.isfinite(top.increments))


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
@pytest.mark.parametrize("steps, m", [(10, 3), (50, 2), (1, 1)])
def test_block_noise_matches_a_fresh_generator_per_path(seed, steps, m):
    # the re-keyed block generator against the independent route: one new
    # Generator(Philox(key)) per path
    idx = np.array([9, 2, 40, 0, 7])
    got = _block_noise(seed, idx, steps, 0.04, m)
    want = np.stack([
        np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        .standard_normal((steps, m)) * np.sqrt(0.04) for i in idx])
    assert np.array_equal(got, want)


def test_block_noise_rows_do_not_depend_on_earlier_rows():
    # 30 normals per row leave the Philox buffer part-used after each row
    assert np.array_equal(_block_noise(11, np.array([7, 3]), 10, 0.01, 3)[1],
                          _block_noise(11, np.array([3]), 10, 0.01, 3)[0])


def test_noise_rejects_bad_dt():
    with pytest.raises(BadParams):
        sample_noise(0, 0, 10, 0.0, 1)


# ------------------------------------------------------------ determinism


def test_simulate_thread_count_invariant(sphere):
    a = simulate(sphere, t=0.3, dt=1e-2, n_paths=300, seed=21, threads=1)
    b = simulate(sphere, t=0.3, dt=1e-2, n_paths=300, seed=21, threads=4)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.J, b.J)
    np.testing.assert_array_equal(a.qv, b.qv)
    np.testing.assert_array_equal(a.bismut_vec, b.bismut_vec)


def test_simulate_seed_controls_everything(sphere):
    a = simulate(sphere, t=0.2, dt=1e-2, n_paths=50, seed=1)
    b = simulate(sphere, t=0.2, dt=1e-2, n_paths=50, seed=1)
    c = simulate(sphere, t=0.2, dt=1e-2, n_paths=50, seed=2)
    np.testing.assert_array_equal(a.x, b.x)
    assert np.max(np.abs(a.x - c.x)) > 1e-3


def test_time_grid_validation(sphere):
    with pytest.raises(BadParams):
        simulate(sphere, t=0.35, dt=0.1, n_paths=100, seed=0)


@pytest.mark.parametrize("name, bad, message", [
    ("sphere-gradient", {"cid": "q"},
     "scenario 'sphere-gradient' has no chart 'q'; its charts are n, s"),
    ("flat", {"x0": np.zeros(3)}, "x0 has shape (3,) but flat has dimension 2"),
    ("flat", {"n_paths": 0}, "n_paths=0 is not a positive path count"),
    ("flat", {"seed": -1}, "seed=-1 is outside 0..2**64-1"),
], ids=["chart", "x0-shape", "no-paths", "negative-seed"])
def test_simulate_rejects_bad_input(name, bad, message):
    run = {"t": 0.1, "dt": 1e-2, "n_paths": 4, "seed": 0, **bad}
    with pytest.raises(BadParams) as exc:
        simulate(system_of(name, {"n": 2}), **run)
    assert str(exc.value) == message


def test_simulate_reads_only_the_torsion_route_of_tss(sphere, monkeypatch):
    # the //^ snap needs the skew-torsion verdict alone, not the Levi-Civita
    # route that tss_check computes beside it
    calls = []
    lc = geometry.levi_civita_christoffel
    monkeypatch.setattr(geometry, "levi_civita_christoffel",
                        lambda *a: calls.append(a) or lc(*a))
    simulate(sphere, t=0.1, dt=1e-2, n_paths=4, seed=0, need={"par_adj"})
    assert calls == []


def test_record_mode_single_block(sphere):
    with pytest.raises(BadParams):
        simulate(sphere, t=0.1, dt=1e-2, n_paths=3000, seed=0, record=True)


# --------------------------------------------------------------- the flow


def test_ou_jacobian_is_exponential(ou):
    # linear drift, constant diffusion: J is deterministic exp(-t) I and the
    # second-order scheme should hit it to O(dt^2) per unit time
    r = simulate(ou, t=0.5, dt=1e-2, n_paths=16, seed=1)
    assert np.max(np.abs(r.J - np.exp(-0.5) * np.eye(2))) < 1e-4


def test_circle_flow_is_parallel():
    r = simulate(system_of("circle"), t=1.0, dt=1e-2, n_paths=32, seed=4)
    np.testing.assert_array_equal(r.J, np.ones_like(r.J))
    np.testing.assert_array_equal(r.W(), np.ones_like(r.J))
    assert np.max(r.recon_err) < 1e-12


def test_jacobian_is_exact_derivative_of_the_step_map():
    # freeze the noise and difference the flow map in its start point: the
    # J recursion must be the literal differential of the x recursion
    sys = system_of("twisted-plane", {"alpha": 0.5})
    P, steps, dt = 8, 50, 1e-2
    noise = np.stack([sample_noise(11, i, steps, dt, 2).increments
                      for i in range(P)])
    base = simulate(sys, t=0.5, dt=dt, n_paths=P, seed=11, noise=noise)
    eps = 1e-6
    for j in range(2):
        dx0 = np.zeros(2)
        dx0[j] = eps
        rp = simulate(sys, t=0.5, dt=dt, n_paths=P, seed=11, noise=noise,
                      x0=dx0)
        rm = simulate(sys, t=0.5, dt=dt, n_paths=P, seed=11, noise=noise,
                      x0=-dx0)
        fd = (rp.x - rm.x) / (2 * eps)
        np.testing.assert_allclose(fd, base.J[:, :, j], atol=1e-7)


def test_sphere_chart_switching_preserves_the_point(sphere):
    r = simulate(sphere, t=4.0, dt=1e-2, n_paths=256, seed=13)
    assert sorted(set(r.cid_idx.tolist())) == [0, 1]  # both charts visited
    assert int(r.alive.sum()) == 256
    norms = np.linalg.norm(r.embedded, axis=-1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("level", ["coeff", "light", "full"])
def test_bundle_on_mixed_charts_equals_per_chart_point_data(n, level):
    # one bundle call on rows of both charts gives each chart's own rows
    sys = system_of("sphere-gradient", {"n": n})
    x = np.random.default_rng(8).uniform(-1.5, 1.5, size=(10, n))
    cids = np.array(["n", "s", "s", "n", "n", "s", "n", "s", "s", "n"])
    got = _bundle(sys, cids, x, level)
    for cid in ("n", "s"):
        mask = cids == cid
        want = point_data(sys, cid, x[mask], light=level != "full")
        filled = {f.name for f in fields(PointData) if getattr(want, f.name) is not None}
        if level == "coeff":
            filled = {"X", "A"}
        assert {f.name for f in fields(PointData) if getattr(got, f.name) is not None} == filled
        for name in filled:
            np.testing.assert_array_equal(getattr(got, name)[mask], getattr(want, name),
                                          err_msg=name)


def test_guard_radius_kills_escaping_paths():
    sys = system_of("flat", {"n": 2, "guard_radius": 0.5})
    r = simulate(sys, t=1.0, dt=1e-2, n_paths=64, seed=6)
    assert r.n_dropped > 0
    assert r.n_dropped == 64 - int(r.alive.sum())
    assert np.all(np.isfinite(r.x))


# -------------------------------------------------------------- transports


def test_transports_are_isometries(sphere):
    r = simulate(sphere, t=1.0, dt=1e-2, n_paths=64, seed=9)
    for par in (r.par_lw, r.par_adj):
        pulled = np.einsum("pji,pjk,pkl->pil", par, r.g_T, par)
        np.testing.assert_allclose(pulled, np.broadcast_to(r.g0, pulled.shape),
                                   atol=1e-10)


@pytest.mark.parametrize("name, params, x0", [
    ("sphere-gradient", {"n": 2}, [1.95, 0.1]),  # paths switch charts
    ("so3-left-invariant", {}, None),             # the group is re-centred
])
def test_snapped_transports_are_isometries_to_rounding(name, params, x0):
    sys = system_of(name, params)
    r = simulate(sys, t=0.3, dt=1e-2, n_paths=24, seed=21, record=True,
                 x0=None if x0 is None else np.asarray(x0))
    fp = r.path
    if name == "sphere-gradient":
        assert set(fp.cid_idx[-1].tolist()) == {0, 1}
    ginv0 = np.linalg.inv(r.g0)
    for k in range(fp.x.shape[0]):
        g = _metric_field(sys, np.asarray(r.chart_names)[fp.cid_idx[k]])(fp.x[k])
        for par in (fp.par_lw[k], fp.par_adj[k]):  # both metric on these systems
            defect = np.einsum("pji,pjk,pkl->pil", par, g, par) - r.g0
            assert np.max(np.abs(defect)) <= 1e-13 * np.max(np.abs(r.g0))
            inv = np.linalg.inv(par)
            closed = _isometry_inverse(par, g, ginv0)
            assert np.max(np.abs(closed - inv)) <= 1e-12 * np.max(np.abs(inv))


@pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-5, 3e-2])
def test_isometrize_gives_the_polar_isometry(eps):
    # frames off an isometry by eps: small defects take the Newton-Schulz
    # steps, 3e-2 the exact polar fallback; both land on the polar factor
    gen = np.random.default_rng(3)
    P, n = 64, 3
    a = gen.normal(size=(P, n, n))
    g = a @ np.swapaxes(a, -1, -2) + n * np.eye(n)
    g0 = np.diag([1.0, 2.0, 0.5])
    L, L0 = np.linalg.cholesky(g), np.linalg.cholesky(g0)
    q, _ = np.linalg.qr(gen.normal(size=(P, n, n)))
    iso = np.swapaxes(np.linalg.inv(L), -1, -2) @ q @ L0.T  # par^T g par = g0
    par = iso + eps * gen.normal(size=iso.shape)
    snapped = _isometrize(par, g, g0, np.linalg.inv(g0))
    defect = np.einsum("pji,pjk,pkl->pil", snapped, g, snapped) - g0
    assert np.max(np.abs(defect)) <= 1e-13 * np.max(np.abs(g0))
    np.testing.assert_allclose(snapped, _polar_snap(par, g, g0), rtol=0, atol=1e-12)


def test_so3_jacobian_equals_adjoint_transport_at_scheme_order():
    # flat adjoint connection: the derivative flow IS the adjoint transport;
    # discretely they differ at integrator order and converge under halving
    so3 = system_of("so3-left-invariant")
    gaps = {}
    for dt in (1e-2, 5e-3):
        r = simulate(so3, t=1.0, dt=dt, n_paths=100, seed=5)
        gaps[dt] = np.max(np.abs(r.J - r.par_adj))
    assert gaps[1e-2] < 1e-2
    assert 1.6 < gaps[1e-2] / gaps[5e-3] < 3.2


def test_holonomy_equals_enclosed_area(sphere):
    # parallel transport around a closed loop on the unit sphere rotates by
    # the enclosed area (curvature 1)
    rho = 0.5
    K = 4000
    th = np.linspace(0.0, 2.0 * np.pi, K + 1)
    xs = rho * np.stack([np.cos(th), np.sin(th)], axis=1)
    frames = transport_along(sphere, "n", xs, "lw")
    X0 = sphere.coeff_x("n", xs[0])
    g0 = np.linalg.inv(X0 @ X0.T)
    v = np.array([1.0, 0.0])
    vT = frames[-1] @ v
    cosang = (vT @ g0 @ v) / np.sqrt((vT @ g0 @ vT) * (v @ g0 @ v))
    angle = np.arccos(np.clip(cosang, -1.0, 1.0))
    area = 4.0 * np.pi * rho**2 / (1.0 + rho**2)
    assert angle == pytest.approx(area, rel=1e-3)
    defect = np.max(np.abs(frames[-1].T @ g0 @ frames[-1] - g0))
    assert defect < 1e-9


# --------------------------------------------------- companion processes


def test_covariant_flow_approximates_jacobian(sphere):
    # same object in two discretizations; the gap closes as dt shrinks
    rel = {}
    for dt in (1e-2, 1e-3):
        r = simulate(sphere, t=0.5, dt=dt, n_paths=200, seed=3)
        v0 = np.linalg.inv(r.L0).T[:, 0]
        jv = r.J @ v0
        vv = r.V() @ v0
        num = np.sqrt(np.einsum("pi,pij,pj->p", jv - vv, r.g_T, jv - vv))
        den = np.sqrt(np.einsum("pi,pij,pj->p", jv, r.g_T, jv))
        rel[dt] = float(np.mean(num / den))
    assert rel[1e-2] < 0.12
    assert rel[1e-3] < 0.04
    assert rel[1e-2] / rel[1e-3] > 2.0


def test_filtered_flow_damps_by_ricci(sphere):
    # Ric = g on S^2, no drift: |W v0| = exp(-t/2) |v0| path by path
    r = simulate(sphere, t=0.5, dt=1e-2, n_paths=64, seed=8)
    v0 = np.linalg.inv(r.L0).T[:, 0]
    wv = r.W() @ v0
    norms = np.sqrt(np.einsum("pi,pij,pj->p", wv, r.g_T, wv))
    np.testing.assert_allclose(norms, np.exp(-0.25), atol=1e-3)


def test_running_moment_integrals(sphere, ou):
    # S^2 at p = 2 integrates an identically-zero form; the linear-drift
    # flat system integrates the constant -2
    r = simulate(sphere, t=1.0, dt=1e-2, n_paths=50, seed=2, hp_p=2.0)
    np.testing.assert_allclose(r.hp_lo, 0.0, atol=1e-10)
    np.testing.assert_allclose(r.hp_hi, 0.0, atol=1e-10)
    r = simulate(ou, t=1.0, dt=1e-2, n_paths=50, seed=2, hp_p=2.0)
    np.testing.assert_allclose(r.hp_lo, -2.0, atol=1e-9)
    np.testing.assert_allclose(r.hp_hi, -2.0, atol=1e-9)


def test_reconstruction_and_quadratic_variation(sphere):
    r = simulate(sphere, t=1.0, dt=1e-2, n_paths=200, seed=10)
    assert np.max(r.recon_err) < 1e-10
    qv_mean = r.qv[r.alive].mean(axis=0)
    assert np.linalg.norm(qv_mean - np.eye(3), "fro") < 0.15
    cross_mean = r.cross[r.alive].mean(axis=0)
    assert np.max(np.abs(cross_mean)) < 0.05


def test_recorded_series_shapes(sphere):
    t, dt, P = 0.1, 1e-2, 12
    r = simulate(sphere, t=t, dt=dt, n_paths=P, seed=14, record=True)
    fp = r.path
    K = int(round(t / dt))
    assert fp.x.shape == (K + 1, P, 2)
    assert fp.J.shape == (K + 1, P, 2, 2)
    assert fp.increments.shape == (P, K, 3)
    np.testing.assert_array_equal(fp.x[-1], r.x)
    np.testing.assert_array_equal(fp.J[0],
                                  np.broadcast_to(np.eye(2), (P, 2, 2)))


def test_flow_helpers_expose_recorded_processes(sphere):
    grids = [sample_noise(3, i, 10, 1e-2, 3) for i in range(6)]
    path = integrate_flow(sphere, None, grids)
    assert path.par_lw.shape == path.J.shape == (11, 6, 2, 2)
    assert path.par_adj.shape == path.J.shape
    assert path.b_breve.shape == (11, 6, 2)
    for series in (path.beta, path.b_tilde, path.b_bar, path.recon):
        assert series.shape == (11, 6, 3)
    # the decomposed noise adds up: B_bar = B_tilde + beta along the path
    np.testing.assert_allclose(path.b_bar, path.b_tilde + path.beta, atol=1e-14)
    assert reconstruction_error(path).shape == (6,)
    assert np.max(reconstruction_error(path)) < 1e-10


# ------------------------------------------------------- requested fields

# the request set of each caller of the engine
REQUESTS = {
    "state only (generator, se_scaling, weak_order, bismut fd runs)": set(),
    "oneform, ito_pathwise": {"J"},
    "filtered, estimate dump": {"J", "par_adj", "What", "g_T"},
    "bismut": {"bismut_vec"},
    "moments": {"J", "g_T", "hp_lo", "hp_hi"},
    "bochner": {"par_adj", "What"},
    "decompose": {"b_raw", "recon_err", "qv", "cross"},
}

# filled by every run, whatever it requests
SIM_CORE = {"t", "dt", "steps", "seed", "n_paths", "chart_names", "cid0", "x0",
            "g0", "ginv0", "X0", "Y0", "L0", "F0", "cid_idx", "x", "centers",
            "embedded", "alive", "n_dropped", "path"}
PATH_CORE = {"times", "cid_idx", "x", "alive", "centers", "increments",
             "chart_names", "g0", "x0", "cid0"}

SCENARIOS = {
    # started next to the chart boundary |u| = 2, so paths switch charts
    "sphere-gradient": ({"n": 2}, [1.95, 0.1]),
    "so3-left-invariant": ({}, None),
    # its adjoint connection is not metric, so //^ is never isometrized
    "twisted-plane": ({"alpha": 0.5}, None),
    "flat": ({"n": 2, "drift": ["-x1", "-x2"]}, None),
    "circle": ({}, None),
    "custom": ({"n": 2, "m": 3,
                "x_entries": [["cos(x1)", "sin(x1)*x2", "0.3"],
                              ["0.2*x1", "cos(x2)", "sin(x2)"]],
                "a_entries": ["-0.5*x1", "-0.5*sin(x2)"]}, None),
}


def _same_or_absent(full, part, core, need, where):
    for f in fields(full):
        if f.name == "path":
            continue
        a, b = getattr(full, f.name), getattr(part, f.name)
        if f.name not in core and f.name not in need:
            assert b is None, f"{where}: {f.name} was not requested"
        elif isinstance(a, np.ndarray):
            assert isinstance(b, np.ndarray) and np.array_equal(a, b), \
                f"{where}: {f.name} differs from the full run"
        else:
            assert a == b or (a is None and b is None), f"{where}: {f.name}"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("hp_p, threads, n_paths, t, record", [
    (None, 2, 2100, 0.04, False),  # two blocks on two threads
    (2.0, 1, 24, 0.2, True),
])
def test_requested_fields_match_full_run(name, hp_p, threads, n_paths, t, record):
    params, x0 = SCENARIOS[name]
    sys = system_of(name, params)
    kw = dict(t=t, dt=1e-2, n_paths=n_paths, seed=17, hp_p=hp_p, threads=threads,
              record=record, x0=None if x0 is None else np.asarray(x0))
    full = simulate(sys, **kw)
    if name == "sphere-gradient":
        assert set(full.cid_idx.tolist()) == {0, 1}  # chart switches happened
    for label, need in REQUESTS.items():
        part = simulate(sys, need=need, **kw)
        where = f"{name}, {label}"
        _same_or_absent(full, part, SIM_CORE, need, where)
        if record:
            _same_or_absent(full.path, part.path, PATH_CORE, need, where + ", path")
        else:
            assert part.path is None


def test_unknown_requested_field_rejected(sphere):
    with pytest.raises(BadParams):
        simulate(sphere, t=0.1, dt=1e-2, n_paths=4, seed=0, need={"Jacobian"})


@pytest.mark.parametrize("name, params, x0", [
    ("sphere-gradient", {"n": 2}, [1.95, 0.1]),  # paths switch charts
    ("so3-left-invariant", {}, None),             # the group is re-centred
    ("custom", *SCENARIOS["custom"]),
])
@pytest.mark.parametrize("need, hp_p", [(None, 2.0), ({"J"}, None)])
def test_earlier_result_matches_a_separate_run(name, params, x0, need, hp_p):
    sys = system_of(name, params)
    # three blocks, the last one partial, on two threads
    kw = dict(dt=1e-2, n_paths=2 * BLOCK + 100, seed=29, hp_p=hp_p, threads=2,
              need=need, x0=None if x0 is None else np.asarray(x0))
    res = simulate(sys, t=0.06, also_at=3, **kw)
    early = res.earlier
    sep = simulate(sys, t=3 * 1e-2, **kw)
    assert early.t == 3 * 1e-2 and early.steps == 3
    assert early.path is None and early.earlier is None
    if name == "sphere-gradient":
        assert set(early.cid_idx.tolist()) == {0, 1}
    for f in fields(SimResult):
        a, b = getattr(early, f.name), getattr(sep, f.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name
    assert not np.array_equal(early.embedded, res.embedded)  # the run went on


def test_also_at_must_be_a_step_of_the_run(sphere):
    for k in (0, 11):
        with pytest.raises(BadParams):
            simulate(sphere, t=0.1, dt=1e-2, n_paths=4, seed=0, also_at=k)
