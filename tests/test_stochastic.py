"""Path engine: seeding, integrators, transports, companion processes.

Frozen references:
  flat with drift -x:  J_t = exp(-t) I (deterministic), running moment
                       integral = -2 t for any p
  circle:              J = W = 1 exactly, the diffusion field is parallel
  sphere S^2:          transport holonomy around a loop equals enclosed
                       area; running moment integral vanishes for p = 2
  so(3):               J equals the adjoint-transport at integrator order
"""

import threading
from dataclasses import fields

import numpy as np
import pytest

from flowgeom import geometry, stochastic
from flowgeom.errors import BadParams
from flowgeom.geometry import PointData, _metric_field, point_data
from flowgeom.linalg import DerivOracle, as_engine, path_fastest
from flowgeom.model import build_scenario
from flowgeom.stochastic import (
    BLOCK,
    SimResult,
    _block_noise,
    _isometrize,
    _isometry_inverse,
    _polar_snap,
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
    g = _block_noise(123, np.array([17]), 10, 0.04, 3)[0]
    ref = np.random.Generator(np.random.Philox(key=[123, 17]))
    want = ref.standard_normal((10, 3)) * np.sqrt(0.04)
    np.testing.assert_array_equal(g, want)


def test_noise_streams_distinct_and_stable():
    a, b = _block_noise(5, np.array([0, 1]), 20, 0.01, 2)
    a2 = _block_noise(5, np.array([0]), 20, 0.01, 2)[0]
    np.testing.assert_array_equal(a, a2)
    assert np.max(np.abs(a - b)) > 1e-3


def test_noise_moments_match_brownian_scaling():
    dt = 0.01
    inc = _block_noise(7, np.arange(200), 100, dt, 2)
    z = inc / np.sqrt(dt)
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)


def test_noise_keys_use_all_64_bits():
    # seeds past 2**63 must neither collide with a neighbour nor overflow
    first = np.array([0])
    a = _block_noise(2**63, first, 4, 0.1, 2)
    b = _block_noise(2**63 + 1, first, 4, 0.1, 2)
    top = _block_noise(2**64 - 1, first, 4, 0.1, 2)
    assert not np.array_equal(a, b)
    assert np.all(np.isfinite(top))


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 5, 2**64 - 1])
@pytest.mark.parametrize("steps, m", [(10, 3), (50, 2), (1, 1)])
def test_block_noise_matches_a_fresh_generator_per_path(seed, steps, m):
    # the re-keyed block generator against the independent route: one new
    # Generator(Philox(key)) per path, and at each coarsening level c the
    # stream at dt/2**c summed in adjacent pairs c times
    idx = np.array([9, 2, 40, 0, 7, 7])  # the last repeats, as for a lone last path
    for c in range(3):
        dt = 0.04 / 2**c
        want = np.stack([
            np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
            .standard_normal((steps << c, m)) * np.sqrt(dt) for i in idx])
        for _ in range(c):
            want = want[:, 0::2] + want[:, 1::2]
        assert np.array_equal(_block_noise(seed, idx, steps, 0.04, m, coarsen=c), want)


def test_block_noise_rows_do_not_depend_on_earlier_rows():
    # 30 normals per row leave the Philox buffer part-used after each row
    assert np.array_equal(_block_noise(11, np.array([7, 3]), 10, 0.01, 3)[1],
                          _block_noise(11, np.array([3]), 10, 0.01, 3)[0])


def test_noise_rejects_bad_dt(ou):
    with pytest.raises(BadParams, match="dt=0.0 is not a positive finite number"):
        simulate(ou, t=0.1, dt=0.0, n_paths=4, seed=0, coarsen=1)


def test_coarsened_run_is_blocked_like_any_run(ou):
    # three blocks, the last one partial: the coarsened stream is drawn per
    # block, so neither the thread count nor the path count moves a path
    a = simulate(ou, t=0.1, dt=2e-2, n_paths=4500, seed=3, coarsen=1, need=set())
    b = simulate(ou, t=0.1, dt=2e-2, n_paths=4500, seed=3, coarsen=1, need=set(),
                 threads=2)
    one = simulate(ou, t=0.1, dt=2e-2, n_paths=BLOCK, seed=3, coarsen=1, need=set())
    for name in ("x", "alive", "embedded"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(getattr(a, name)[:BLOCK], getattr(one, name))


# the custom system of the benchmark's workloads (n = 2, m = 3, with drift)
CUSTOM_BENCH = {"n": 2, "m": 3,
                "x_entries": [["cos(x1)", "sin(x1)*x2", "0.3"],
                              ["0.2*x1", "cos(x2)", "sin(x2)"]],
                "a_entries": ["-0.5*x1", "-0.5*sin(x2)"]}


@pytest.mark.parametrize("name, params, cid, x0", [
    ("sphere-gradient", {"n": 2}, "n", [1.5, 0.9]),
    ("sphere-gradient", {"n": 3}, "s", [1.2, -1.1, 1.0]),
    ("custom", CUSTOM_BENCH, "u", [0.2, -0.1]),
])
@pytest.mark.parametrize("need", [("J", "par_adj", "What", "g_T"), ("bismut_vec",)])
def test_a_path_does_not_depend_on_its_block_length(name, params, cid, x0, need):
    # path i of a 1- or 5-path run equals path i of a full block bit for bit:
    # the engine lays every batch out alike and never evaluates a one-row
    # batch, a lone path or a lone chart switch.  The sphere runs start near
    # the switching radius; their first 5 paths change chart one at a time.
    sys = system_of(name, params)
    run = dict(t=0.2, dt=1e-2, seed=17, cid=cid, x0=x0, need=need)
    block = simulate(sys, n_paths=BLOCK, **run)
    if name == "sphere-gradient":
        assert np.any(block.cid_idx[:5] != list(sys.charts).index(cid))
    for n_paths in (1, 5):
        short = simulate(sys, n_paths=n_paths, **run)
        for field_name in ("x", "cid_idx", "alive") + need:
            np.testing.assert_array_equal(getattr(short, field_name),
                                          getattr(block, field_name)[:n_paths],
                                          err_msg=f"{field_name}, {n_paths} paths")


@pytest.mark.parametrize("hp_p, seed", [(3.0, 5), (4.0, 1)])
def test_a_path_does_not_depend_on_its_block_for_the_moment_form(hp_p, seed):
    # the moment-form extremes decide their route and stop row by row, so
    # paths 0-1 of a 2-path run equal those of an 8-path run bit for bit
    sys = system_of("custom", {
        "n": 3, "m": 4,
        "x_entries": [["1 + 0.3*sin(x2)", "0.2*x3", "0", "0.4*x1"],
                      ["0.1*x1", "1", "0.2*cos(x3)", "0.3*x3"],
                      ["0", "0.3*x2", "1 + 0.1*x1*x1", "0.5*sin(x1)"]]})
    run = dict(t=0.02, dt=0.01, seed=seed, hp_p=hp_p, need={"hp_lo", "hp_hi"})
    short, long = (simulate(sys, n_paths=n, **run) for n in (2, 8))
    for field_name in ("hp_lo", "hp_hi"):
        assert np.array_equal(getattr(short, field_name), getattr(long, field_name)[:2])


# ------------------------------------------------------------ determinism


def test_simulate_thread_count_invariant(sphere):
    a = simulate(sphere, t=0.3, dt=1e-2, n_paths=300, seed=21, threads=1)
    b = simulate(sphere, t=0.3, dt=1e-2, n_paths=300, seed=21, threads=4)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.J, b.J)
    np.testing.assert_array_equal(a.qv, b.qv)
    np.testing.assert_array_equal(a.bismut_vec, b.bismut_vec)


def test_blocks_run_one_after_another_on_the_calling_thread(ou, monkeypatch):
    # whatever ``threads`` says, no thread is started and every block runs on
    # the caller's thread, in block order
    ran_on, started = [], []
    run_block, start = stochastic._run_block, threading.Thread.start

    def recording_run_block(*args):
        ran_on.append((threading.get_ident(), len(args[2])))
        return run_block(*args)

    def recording_start(thread):
        started.append(thread.name)
        return start(thread)

    monkeypatch.setattr(stochastic, "_run_block", recording_run_block)
    monkeypatch.setattr(threading.Thread, "start", recording_start)
    res = simulate(ou, t=2e-2, dt=1e-2, n_paths=2 * BLOCK + 100, seed=5, threads=4,
                   need=set())
    me = threading.get_ident()
    assert ran_on == [(me, BLOCK), (me, BLOCK), (me, 100)]
    assert started == []
    assert res.x.shape == (2 * BLOCK + 100, 2)


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
    ("flat", {"dt": float("nan")}, "dt=nan is not a positive finite number"),
    ("flat", {"t": float("inf")}, "t=inf is not a positive finite number"),
    ("flat", {"t": 0.0}, "t=0.0 is not a positive finite number"),
    ("flat", {"dt": -1e-2}, "dt=-0.01 is not a positive finite number"),
    ("flat", {"t": 1.0, "dt": 1e-320}, "t=1.0 is not an integer multiple of dt=1e-320"),
    ("flat", {"coarsen": -1}, "coarsen=-1 is not a non-negative integer"),
    ("flat", {"coarsen": 1.5}, "coarsen=1.5 is not a non-negative integer"),
    ("flat", {"threads": 0}, "threads=0 is not a positive integer"),
    ("flat", {"threads": "x"}, "threads='x' is not a positive integer"),
    ("flat", {"threads": 2.0}, "threads=2.0 is not a positive integer"),
    ("flat", {"threads": True}, "threads=True is not a positive integer"),
], ids=["chart", "x0-shape", "no-paths", "negative-seed", "nan-dt",
        "inf-t", "zero-t", "negative-dt", "t/dt-overflows", "coarsen-negative",
        "coarsen-fraction", "threads-zero", "threads-string", "threads-float",
        "threads-bool"])
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
    # one seed draws the same increments in every run, so differencing the
    # flow map in its start point shows the J recursion is the literal
    # differential of the x recursion
    sys = system_of("twisted-plane", {"alpha": 0.5})
    P, dt = 8, 1e-2
    base = simulate(sys, t=0.5, dt=dt, n_paths=P, seed=11)
    eps = 1e-6
    for j in range(2):
        dx0 = np.zeros(2)
        dx0[j] = eps
        rp = simulate(sys, t=0.5, dt=dt, n_paths=P, seed=11, x0=dx0)
        rm = simulate(sys, t=0.5, dt=dt, n_paths=P, seed=11, x0=-dx0)
        fd = (rp.x - rm.x) / (2 * eps)
        np.testing.assert_allclose(fd, base.J[:, :, j], atol=1e-7)


def test_sphere_chart_switching_preserves_the_point(sphere):
    r = simulate(sphere, t=4.0, dt=1e-2, n_paths=256, seed=13)
    assert sorted(set(r.cid_idx.tolist())) == [0, 1]  # both charts visited
    assert int(r.alive.sum()) == 256
    norms = np.linalg.norm(r.embedded, axis=-1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


# the bundle fields the engine reads, by group: the state's coefficients, the
# Jacobian's derivatives too, and every induced tensor
FIELD_GROUPS = {
    "coeff": ("X", "A"),
    "light": ("X", "A", "DX", "DA"),
    "full": ("X", "A", "DX", "DA", "ginv", "g", "Y", "PT", "PN", "gamma",
             "gamma_adj", "gradX", "ric_sharp", "nabla_a"),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("group", FIELD_GROUPS)
def test_bundle_on_mixed_charts_equals_per_chart_point_data(n, group):
    # one bundle on rows of both charts gives each chart's own rows
    sys = system_of("sphere-gradient", {"n": n})
    x = np.random.default_rng(8).uniform(-1.5, 1.5, size=(10, n))
    cids = np.array(["n", "s", "s", "n", "n", "s", "n", "s", "s", "n"])
    got = point_data(sys, cids, x)
    for cid in ("n", "s"):
        mask = cids == cid
        want = point_data(sys, cid, x[mask])
        for name in FIELD_GROUPS[group]:
            if getattr(want, name) is None:  # DA without drift
                assert getattr(got, name) is None, name
                continue
            np.testing.assert_array_equal(getattr(got, name)[mask], getattr(want, name),
                                          err_msg=name)


@pytest.mark.parametrize("name, params", [
    ("flat", {"n": 2, "drift": ["-x1", "0.5*x1*x2"]}),
    ("sphere-gradient", {"n": 2}),
    ("twisted-plane", {"alpha": 0.5}),
    ("circle", {}),
    ("custom", CUSTOM_BENCH),
    ("so3-left-invariant", {}),
])
@pytest.mark.parametrize("group", FIELD_GROUPS)
def test_bundle_keeps_the_engine_layout(name, params, group):
    # on engine-layout points every bundle field has the path axis fastest
    # in memory: one C-ordered field would put einsum on its slow path in
    # every product it enters.  The same points in C order take the same
    # einsums, which may sum in another order there, so the two agree to
    # rounding, relative to the field's largest entry or to 1, the
    # identity's, since PN = I - PT cancels to rounding where m = n.
    sys = system_of(name, params)
    x = np.random.default_rng(4).uniform(-0.6, 0.6, size=(7, sys.n))
    cids = np.resize(list(sys.charts), 7)
    got = point_data(sys, cids, as_engine(x))
    want = point_data(sys, cids, x)
    for f in FIELD_GROUPS[group]:
        a, b = getattr(got, f), getattr(want, f)
        assert (a is None) == (b is None), f
        if a is not None:
            assert path_fastest(a), f"{f} has strides {a.strides}"
            assert np.max(np.abs(a - b)) <= 1e-13 * max(np.max(np.abs(b)), 1.0), f


def test_state_only_run_reads_no_derivatives_after_the_start(sphere, monkeypatch):
    # the state reads X and A alone: DX is read once, at the start point,
    # where a derivative that fails must fail before any run
    shapes = []
    real = sphere.coeff_dx

    def counting(cid, x):
        shapes.append(np.shape(x))
        return real(cid, x)

    monkeypatch.setattr(sphere, "coeff_dx", counting)
    r = simulate(sphere, t=0.2, dt=1e-2, n_paths=64, seed=3, x0=np.array([1.9, 0.4]),
                 need=())
    assert set(r.cid_idx.tolist()) == {0, 1}  # paths switched chart
    assert shapes == [(2,)]


def test_jacobian_run_computes_no_christoffels(sphere, monkeypatch):
    def refuse(*args):
        raise AssertionError("_induced_gamma called")

    monkeypatch.setattr(geometry, "_induced_gamma", refuse)
    r = simulate(sphere, t=0.2, dt=1e-2, n_paths=64, seed=3, x0=np.array([1.9, 0.4]),
                 need={"J"})
    assert r.J is not None and r.par_lw is None


@pytest.mark.parametrize("need", [{"par_lw", "g_T"}, {"J", "par_adj", "What", "g_T"}])
def test_switched_bundle_equals_a_fresh_bundle(sphere, monkeypatch, need):
    # after a chart switch a bundle holds the fields it had computed, written
    # over on the switched rows (the Gram triple among them), and computes
    # the others when first read from its updated points and charts: every
    # field it holds at the end of the run, from before the switch or after,
    # equals a fresh bundle at its points, bit for bit
    switched = []
    real = PointData.scatter

    def recording(self, rows, src):
        real(self, rows, src)
        before = {name for name, _ in self._computed()}
        switched.append((self, np.array(self.cid), np.array(self.x), before))

    monkeypatch.setattr(PointData, "scatter", recording)
    simulate(sphere, t=0.2, dt=1e-2, n_paths=64, seed=3, x0=np.array([1.9, 0.4]),
             need=need)
    assert len(switched) > 3
    read_after = set()
    for bundle, cid, x, before in switched:
        assert "_gram" in before
        fresh = point_data(sphere, cid, x)
        for name, val in bundle._computed():
            want = getattr(fresh, name)
            if val is None:
                assert want is None, name
                continue
            for a, b in zip(val, want) if isinstance(val, tuple) else [(val, want)]:
                assert np.array_equal(a, b), name
        read_after |= {name for name, _ in bundle._computed()} - before
    assert read_after  # some field was first read after its switch


def test_so3_steps_after_recentring_start_at_the_identity():
    # after each step the state is recentred to u = 0, so every later step
    # evaluates X there: a hand-written Heun with recentring, from x0 != 0
    so3 = system_of("so3-left-invariant")
    x0, steps, dt, P = np.array([0.3, -0.2, 0.1]), 5, 1e-2, 4
    r = simulate(so3, t=steps * dt, dt=dt, n_paths=P, seed=1, x0=x0, need=())
    noise = _block_noise(1, np.arange(P), steps, dt, so3.m)
    x = np.broadcast_to(x0, (P, 3))
    centers = np.broadcast_to(so3.group_identity(), (P, 4))
    for k in range(steps):
        dB = noise[:, k]
        Xk, Ak = so3.coeff_x("exp", x), so3.coeff_a("exp", x)
        x_star = x + np.einsum("pij,pj->pi", Xk, dB) + Ak * dt
        Xs, As = so3.coeff_x("exp", x_star), so3.coeff_a("exp", x_star)
        x_plus = x + 0.5 * np.einsum("pij,pj->pi", Xk + Xs, dB) + 0.5 * (Ak + As) * dt
        centers = so3.group_compose(centers, x_plus)
        x = np.zeros((P, 3))
    np.testing.assert_allclose(r.centers, centers, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(r.x, x)


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
    r = simulate(sys, t=0.3, dt=1e-2, n_paths=24, seed=21, at=range(31),
                 x0=None if x0 is None else np.asarray(x0))
    if name == "sphere-gradient":
        assert set(r.cid_idx.tolist()) == {0, 1}
    ginv0 = np.linalg.inv(r.g0)
    for snap in r.snapshots:
        g = _metric_field(sys, np.asarray(r.chart_names)[snap.cid_idx])(snap.x)
        for par in (snap.par_lw, snap.par_adj):  # both metric on these systems
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
    K = int(round(t / dt))
    r = simulate(sphere, t=t, dt=dt, n_paths=P, seed=14, at=range(K + 1))
    assert [s.steps for s in r.snapshots] == list(range(K + 1))
    for snap in r.snapshots:
        assert snap.t == snap.steps * dt and snap.snapshots == []
        assert snap.x.shape == (P, 2)
        assert snap.J.shape == (P, 2, 2)
    np.testing.assert_array_equal(r.snapshots[-1].x, r.x)
    np.testing.assert_array_equal(r.snapshots[0].J,
                                  np.broadcast_to(np.eye(2), (P, 2, 2)))


def test_snapshots_expose_recorded_processes(sphere):
    r = simulate(sphere, t=0.1, dt=1e-2, n_paths=6, seed=3, at=range(11))
    for snap in r.snapshots:
        assert snap.par_lw.shape == snap.par_adj.shape == snap.J.shape == (6, 2, 2)
        assert snap.b_breve.shape == (6, 2)
        for series in (snap.b_raw, snap.beta, snap.b_bar):
            assert series.shape == (6, 3)
        # the decomposed noise adds up: B_bar = B_tilde + beta along the path,
        # with B_tilde = Y0 B_breve
        np.testing.assert_allclose(snap.b_bar, snap.b_breve @ r.Y0.T + snap.beta,
                                   atol=1e-14)
        assert snap.recon_err.shape == (6,)
        assert np.max(snap.recon_err) < 1e-10


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
            "embedded", "alive", "n_dropped", "snapshots"}

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
        if f.name == "snapshots":
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
    # record: a snapshot at every step
    at = range(round(t / 1e-2) + 1) if record else ()
    kw = dict(t=t, dt=1e-2, n_paths=n_paths, seed=17, hp_p=hp_p, threads=threads,
              at=at, x0=None if x0 is None else np.asarray(x0))
    full = simulate(sys, **kw)
    if name == "sphere-gradient":
        assert set(full.cid_idx.tolist()) == {0, 1}  # chart switches happened
    for label, need in REQUESTS.items():
        part = simulate(sys, need=need, **kw)
        where = f"{name}, {label}"
        _same_or_absent(full, part, SIM_CORE, need, where)
        assert len(part.snapshots) == len(at)
        for k, a, b in zip(at, full.snapshots, part.snapshots):
            _same_or_absent(a, b, SIM_CORE, need, f"{where}, step {k}")


def test_unknown_requested_field_rejected(sphere):
    with pytest.raises(BadParams):
        simulate(sphere, t=0.1, dt=1e-2, n_paths=4, seed=0, need={"Jacobian"})


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_engine_never_calls_the_oracle(name, monkeypatch):
    # every system gives its own DX and DA, so a run with every companion and
    # the moment form takes no finite difference, chart switches included
    params, x0 = SCENARIOS[name]
    calls = []
    for attr in ("jacobian", "directional"):
        def counting(self, *args, real=getattr(DerivOracle, attr), attr=attr):
            calls.append(attr)
            return real(self, *args)
        monkeypatch.setattr(DerivOracle, attr, counting)
    r = simulate(system_of(name, params), t=0.1, dt=1e-2, n_paths=24, seed=5, hp_p=2.0,
                 x0=None if x0 is None else np.asarray(x0))
    if name == "sphere-gradient":
        assert set(r.cid_idx.tolist()) == {0, 1}
    assert r.hp_lo is not None and calls == []


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
    res = simulate(sys, t=0.06, at=(3,), **kw)
    (early,) = res.snapshots
    sep = simulate(sys, t=3 * 1e-2, **kw)
    assert early.t == 3 * 1e-2 and early.steps == 3
    assert early.snapshots == []
    if name == "sphere-gradient":
        assert set(early.cid_idx.tolist()) == {0, 1}
    for f in fields(SimResult):
        a, b = getattr(early, f.name), getattr(sep, f.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name
    assert not np.array_equal(early.embedded, res.embedded)  # the run went on


@pytest.mark.parametrize("need", [("J", "par_adj", "What", "g_T"), ("J",)])
def test_start_data_is_computed_once_per_run(sphere, monkeypatch, need):
    # three blocks, the skew-torsion verdict and every snapshot share one
    # PointData at the start point, the only point_data call at one point
    starts = []
    real = geometry.point_data

    def counting(system, cid, x, **kwargs):
        if np.ndim(x) == 1:
            starts.append(np.array(x))
        return real(system, cid, x, **kwargs)

    for module in (geometry, stochastic):
        monkeypatch.setattr(module, "point_data", counting)
    res = simulate(sphere, t=0.02, dt=1e-2, n_paths=2 * BLOCK + 100, seed=3,
                   need=need, at=(1,))
    assert len(starts) == 1
    np.testing.assert_array_equal(starts[0], res.x0)


def test_at_must_list_steps_of_the_run(sphere):
    for at in ((11,), (-1,), (0, 12), (2.5,), 3):
        with pytest.raises(BadParams):
            simulate(sphere, t=0.1, dt=1e-2, n_paths=4, seed=0, at=at)


def test_snapshots_follow_the_order_given(sphere):
    # step 0 is the start state; repeats and any order are kept as given
    r = simulate(sphere, t=0.1, dt=1e-2, n_paths=4, seed=0, at=(10, 0, 4, 0))
    assert [s.steps for s in r.snapshots] == [10, 0, 4, 0]
    last, start, mid, again = r.snapshots
    np.testing.assert_array_equal(last.x, r.x)
    np.testing.assert_array_equal(start.x, np.broadcast_to(r.x0, r.x.shape))
    np.testing.assert_array_equal(start.J, np.broadcast_to(np.eye(2), r.J.shape))
    assert start.t == 0.0 and start.alive.all()
    np.testing.assert_array_equal(again.x, start.x)
    assert not np.array_equal(mid.x, start.x)
