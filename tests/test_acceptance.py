"""Acceptance gate: thirteen numbered criteria, one pass/fail line each.

Each test prints a single summary line (visible with ``pytest -s``, and the
verbose test row itself carries the verdict).  Tolerances and runtime budgets
are asserted, not advisory.  Statistical verdicts use 3 standard errors under
fixed seeds, so every line is reproducible bit for bit.
"""

import time

import numpy as np

from flowgeom.estimators import (
    McConfig,
    bismut_gradient,
    bochner_decay_check,
    decomposition_check,
    filtered_expectation_check,
    moment_sandwich,
    one_form_semigroup_check,
)
from flowgeom.geometry import (
    christoffel,
    connection_routes_residual,
    curvature_from_christoffel,
    curvature_lw_direct,
    defining_property_residual,
    metricity_residual,
    moment_form_extremes,
    point_data,
    ricci_bilinear,
    ricci_sharp,
    scalar_from_expr,
    scalar_generator,
    sectional_curvature,
    stratonovich_term,
    torsion_from_christoffel,
    torsion_via_dy,
    tss_check,
)
from flowgeom.model import build_scenario

CUSTOM = {"n": 1, "m": 2, "x_entries": [["cos(x1)", "sin(x1)"]]}

ALL_SCENARIOS = [
    ("flat", {"n": 2}),
    ("sphere-gradient", {"n": 2}),
    ("so3-left-invariant", {}),
    ("twisted-plane", {"alpha": 0.5}),
    ("circle", {}),
    ("custom", CUSTOM),
]

TSS_SCENARIOS = [
    ("flat", {"n": 3}),
    ("flat", {"n": 2, "drift": ["-x1", "-x2"]}),
    ("sphere-gradient", {"n": 2}),
    ("sphere-gradient", {"n": 3}),
    ("so3-left-invariant", {}),
    ("twisted-plane", {"alpha": 0.0}),
    ("circle", {}),
]


def system_of(name, params):
    return build_scenario(name, params).system


def points_of(sys, k, seed):
    return [sys.start()] + sys.sample_points(np.random.default_rng(seed), k)


def announce(num, detail):
    print(f"[criterion {num:02d}] PASS  {detail}")


def mc(name, params, **kw):
    return McConfig(system=system_of(name, params), **kw)


def test_criterion_01_defining_property():
    t0 = time.perf_counter()
    worst = 0.0
    for name, params in ALL_SCENARIOS:
        sys = system_of(name, params)
        for cid, x in points_of(sys, 9, seed=101):  # 10 points x 10 probes
            worst = max(worst, defining_property_residual(
                point_data(sys, cid, x), n_probes=10))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 10.0
    announce(1, f"defining-property residual {worst:.3g} < 1e-6 over 100 "
                f"probes per scenario in {elapsed:.2f}s")


def test_criterion_02_metricity():
    worst_lw = 0.0
    for name, params in ALL_SCENARIOS:
        sys = system_of(name, params)
        for cid, x in points_of(sys, 4, seed=102):
            worst_lw = max(worst_lw, metricity_residual(point_data(sys, cid, x), kind="lw"))
    assert worst_lw < 1e-6
    worst_adj = 0.0
    for name, params in [("sphere-gradient", {"n": 2}),
                         ("so3-left-invariant", {})]:
        sys = system_of(name, params)
        for cid, x in points_of(sys, 4, seed=103):
            worst_adj = max(worst_adj,
                            metricity_residual(point_data(sys, cid, x), kind="adjoint"))
    assert worst_adj < 1e-6
    announce(2, f"induced-connection metricity {worst_lw:.3g} on all "
                f"scenarios, adjoint metricity {worst_adj:.3g} on the "
                f"skew-torsion pair")


def test_criterion_03_route_equivalences():
    t0 = time.perf_counter()
    worst = {"christoffel": 0.0, "torsion": 0.0, "curvature": 0.0,
             "generator": 0.0}
    for name, params in ALL_SCENARIOS:
        sys = system_of(name, params)
        for cid, x in points_of(sys, 3, seed=104):
            worst["christoffel"] = max(
                worst["christoffel"], connection_routes_residual(point_data(sys, cid, x)))
            gamma = christoffel(sys, cid, x, "lw")
            worst["torsion"] = max(worst["torsion"], float(np.max(np.abs(
                torsion_from_christoffel(gamma) - torsion_via_dy(sys, cid, x)))))
            pd = point_data(sys, cid, x)
            worst["curvature"] = max(worst["curvature"], float(np.max(np.abs(
                curvature_from_christoffel(sys, cid, x, "lw")
                - curvature_lw_direct(pd.gradX, pd.g)))))
            f = scalar_from_expr(sys, cid, "x1")
            lw, lc = scalar_generator(point_data(sys, cid, x), f)
            worst["generator"] = max(worst["generator"], abs(lw - lc))
    elapsed = time.perf_counter() - t0
    assert worst["christoffel"] < 1e-5
    assert worst["torsion"] < 1e-4
    assert worst["curvature"] < 1e-4
    assert worst["generator"] < 1e-6
    assert elapsed < 60.0
    announce(3, "route residuals christoffel {christoffel:.2g}, torsion "
                "{torsion:.2g}, curvature {curvature:.2g}, generator "
                "{generator:.2g}".format(**worst) + f" in {elapsed:.2f}s")


def test_criterion_04_gradient_system():
    sys = system_of("sphere-gradient", {"n": 2})
    pts = points_of(sys, 19, seed=105)[:20]
    gap = max(float(np.max(np.abs(christoffel(sys, cid, x, "lw")
                                  - christoffel(sys, cid, x, "lc"))))
              for cid, x in pts)
    assert gap < 1e-5
    rng = np.random.default_rng(106)
    sec_err = 0.0
    for cid, x in pts[:8]:
        pd = point_data(sys, cid, x)
        R = curvature_from_christoffel(sys, cid, x, "lw")
        k = sectional_curvature(R, pd.g, rng.normal(size=2), rng.normal(size=2))
        sec_err = max(sec_err, abs(float(k) - 1.0))
    assert sec_err < 1e-3
    strat = max(float(np.max(np.abs(stratonovich_term(point_data(sys, cid, x)))))
                for cid, x in pts[:8])
    assert strat < 1e-6
    announce(4, f"sphere gradient system: connection gap {gap:.2g}, "
                f"sectional curvature off by {sec_err:.2g}, summed field "
                f"derivative {strat:.2g}")


def test_criterion_05_lie_group():
    sys = system_of("so3-left-invariant", {})
    r_max = t_err = adj = 0.0
    for cid, x in points_of(sys, 5, seed=107):
        r_max = max(r_max, float(np.max(np.abs(
            curvature_from_christoffel(sys, cid, x, "lw")))))
        adj = max(adj, metricity_residual(point_data(sys, cid, x), kind="adjoint"))
    gamma0 = christoffel(sys, "exp", np.zeros(3), "lw")
    T0 = torsion_from_christoffel(gamma0)
    t_err = float(np.max(np.abs(T0[:, 0, 1] - np.array([0.0, 0.0, -1.0]))))
    assert r_max < 1e-4
    assert t_err < 1e-6
    ok, _, _ = tss_check(point_data(sys, "exp", np.zeros(3)))
    assert ok
    assert adj < 1e-6
    announce(5, f"so(3): curvature {r_max:.2g}, torsion(e1,e2)+e3 "
                f"{t_err:.2g}, skew-torsion verdict true, adjoint "
                f"metricity {adj:.2g}")


def test_criterion_06_ricci_comparison():
    min_eig_overall = np.inf
    max_abs_when_equal = 0.0
    for name, params in TSS_SCENARIOS:
        sc = build_scenario(name, params)
        sys = sc.system
        for cid, x in points_of(sys, 3, seed=108):
            pd = point_data(sys, cid, x)
            R_lc = curvature_from_christoffel(sys, cid, x, "lc")
            diff = (ricci_bilinear(ricci_sharp(R_lc, pd.ginv), pd.g)
                    - ricci_bilinear(pd.ric_sharp, pd.g))
            diff = 0.5 * (diff + diff.T)
            Linv = np.linalg.inv(np.linalg.cholesky(pd.g))
            eigs = np.linalg.eigvalsh(Linv @ diff @ Linv.T)
            min_eig_overall = min(min_eig_overall, float(eigs.min()))
            if sc.reference.get("lw_equals_lc"):
                max_abs_when_equal = max(max_abs_when_equal,
                                         float(np.max(np.abs(eigs))))
    assert min_eig_overall >= -1e-6
    assert max_abs_when_equal < 1e-6
    announce(6, f"Ricci comparison: min eigenvalue {min_eig_overall:.3g} "
                f">= -1e-6 on skew-torsion scenarios, max |eig| "
                f"{max_abs_when_equal:.3g} when the connections coincide")


def test_criterion_07_noise_decomposition():
    t0 = time.perf_counter()
    cfg = mc("sphere-gradient", {"n": 2}, t=1.0, dt=1e-3, n_paths=200, seed=201)
    rep = decomposition_check(cfg)
    elapsed = time.perf_counter() - t0
    by_name = {r.name: r for r in rep.rows}
    recon = next(r for r in rep.rows if "reconstruction" in r.name)
    qv = next(r for r in rep.rows if "QV" in r.name)
    assert recon.estimate <= 1e-10
    assert qv.estimate <= 0.1
    assert rep.passed
    assert elapsed < 120.0
    announce(7, f"reconstruction defect {recon.estimate:.2g} <= 1e-10, "
                f"QV Frobenius gap {qv.estimate:.3g} <= 0.1 in {elapsed:.1f}s")


def test_criterion_08_filtered_flow():
    t0 = time.perf_counter()
    cfg = mc("sphere-gradient", {"n": 2}, t=0.5, dt=1e-2, n_paths=10_000,
             seed=202)
    rep = filtered_expectation_check(cfg)
    assert rep.passed
    cov_rows = [r for r in rep.rows if r.name.startswith("cov[")]
    assert cov_rows and all(r.passed for r in cov_rows)

    # flat adjoint connection: zero pathwise, asserted at integrator order
    # with a dt-halving run confirming the remainder shrinks
    cfg = mc("so3-left-invariant", {}, t=0.5, dt=1e-2, n_paths=1000, seed=203)
    rep2 = filtered_expectation_check(cfg)
    assert rep2.passed
    assert rep2.notes["pathwise_regime"] is True
    pmax = rep2.notes["pathwise_max_pairing"]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    announce(8, f"sphere panel of {len(cov_rows)} covariances within 3 SE "
                f"at N=10^4; so(3) pathwise difference {pmax:.2g} at "
                f"integrator order; {elapsed:.1f}s")


def test_criterion_09_bismut_formula():
    t0 = time.perf_counter()
    cfg = mc("circle", {}, t=0.3, dt=1e-2, n_paths=4000, seed=204)
    rep_c = bismut_gradient(cfg, "x1")
    assert rep_c.passed
    series = next(r for r in rep_c.rows if "series" in r.name)

    cfg = mc("sphere-gradient", {"n": 2}, t=0.5, dt=1e-2, n_paths=20_000,
             seed=205)
    rep_s = bismut_gradient(cfg, "x1")
    assert rep_s.passed
    fd = next(r for r in rep_s.rows if "finite difference" in r.name)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    announce(9, f"circle estimate {series.estimate:.4f} vs kernel series "
                f"{series.reference:.4f} (tol {series.tolerance:.3g}); "
                f"sphere estimate {fd.estimate:.4f} vs paired finite "
                f"difference {fd.reference:.4f} at N=2x10^4; {elapsed:.1f}s")


def test_criterion_10_moment_sandwich():
    t0 = time.perf_counter()
    cfg = mc("sphere-gradient", {"n": 2}, t=1.0, dt=1e-2, n_paths=4000,
             seed=206)
    rep = moment_sandwich(cfg, p=2.0)
    assert rep.passed
    mid = rep.notes["middle_fixed_v0"]
    se = rep.notes["middle_fixed_v0_se"]
    assert 1.0 - 3 * se <= mid <= 2.0 + 3 * se
    # the p = 2 moment form vanishes identically on this scenario
    h_worst = 0.0
    sys = cfg.system
    for cid, x in points_of(sys, 5, seed=207):
        lo, hi = moment_form_extremes(point_data(sys, cid, x), 2.0)
        h_worst = max(h_worst, abs(float(lo)), abs(float(hi)))
    assert h_worst < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    announce(10, f"E|Jv|^2 = {mid:.4f} inside [1 - 3SE, 2 + 3SE] "
                 f"(SE {se:.4f}); moment form magnitude {h_worst:.2g} "
                 f"< 1e-6; {elapsed:.1f}s")


def test_criterion_11_one_form_routes():
    t0 = time.perf_counter()
    estimates = {}
    for name, params in [("flat", {"n": 2}), ("sphere-gradient", {"n": 2})]:
        cfg = mc(name, params, t=0.01, dt=1e-3, n_paths=100_000, seed=208)
        rep = one_form_semigroup_check(cfg, {"d_of": "x1"})
        assert rep.passed, f"{name}: {[r.name for r in rep.rows if not r.passed]}"
        quot = next(r for r in rep.rows
                    if "/t vs trace-Hessian" in r.name)
        estimates[name] = quot
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    announce(11, "semigroup quotient vs connection-Laplacian and "
                 "codifferential routes: "
                 + ", ".join(f"{k} {v.estimate:.4f} (tol {v.tolerance:.2g})"
                             for k, v in estimates.items())
                 + f"; N=10^5, t=0.01; {elapsed:.1f}s")


def test_criterion_12_bochner_decay():
    slopes = {}
    for name, params, want in [
        ("sphere-gradient", {"n": 2}, -0.5),
        ("flat", {"n": 2, "drift": ["-x1", "-x2"]}, -1.0),
    ]:
        cfg = mc(name, params, t=2.0, dt=1e-2, n_paths=1000, seed=209)
        rep = bochner_decay_check(cfg)
        assert rep.passed
        slope = rep.notes["slope"]
        assert abs(slope - want) < 0.05
        slopes[name] = slope
    announce(12, f"filtered-flow decay slopes: sphere "
                 f"{slopes['sphere-gradient']:.4f} (want -0.5 +- 0.05), "
                 f"drifted flat {slopes['flat']:.4f} (want -1 +- 0.05)")


def test_criterion_13_determinism():
    import os

    def one(threads):
        cfg = mc("sphere-gradient", {"n": 2}, t=0.5, dt=1e-2, n_paths=3000,
                 seed=210, threads=threads)
        d = moment_sandwich(cfg, p=2.0).to_dict()
        wall = d.pop("wall_time")
        return d, wall

    # force a genuinely multi-worker run even on single-core runners
    t_max = max(4, os.cpu_count() or 1)
    base, wall_a = one(1)
    again, wall_b = one(1)
    parallel, _ = one(t_max)
    assert base == again
    assert base == parallel
    announce(13, f"reports identical across re-runs and thread counts "
                 f"(1 vs {t_max}), timing field alone varies "
                 f"({wall_a:.2f}s vs {wall_b:.2f}s)")
