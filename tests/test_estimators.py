"""Monte Carlo checks: verdict logic, frozen references, applicability."""

import json

import numpy as np
import pytest

from flowgeom.errors import BadParams, NotApplicable, TooFewAlivePaths
from flowgeom.estimators import (
    CheckRow,
    McConfig,
    bismut_gradient,
    bochner_decay_check,
    decomposition_check,
    filtered_expectation_check,
    generator_check,
    ito_pathwise_check,
    moment_sandwich,
    one_form_semigroup_check,
    se_scaling_check,
    weak_order_check,
)
from flowgeom.model import build_scenario


def cfg_for(name, params=None, **kw):
    system = build_scenario(name, params or {}).system
    return McConfig(system=system, **kw)


# --------------------------------------------------------------- plumbing


def test_config_validation():
    with pytest.raises(BadParams):
        cfg_for("flat", {"n": 2}, n_paths=10)
    with pytest.raises(BadParams):
        cfg_for("flat", {"n": 2}, t=0.35, dt=0.1)
    with pytest.raises(BadParams):
        cfg_for("flat", {"n": 2}, t=-1.0)
    for bad in ({"dt": 0.0}, {"dt": float("nan")}, {"t": float("inf")}):
        with pytest.raises(BadParams, match="is not a positive finite number"):
            cfg_for("flat", {"n": 2}, **bad)


def test_check_row_comparisons():
    base = dict(estimate=1.0, se=0.1, reference=1.05, provenance="statistical")
    assert CheckRow(name="a", tolerance=0.1, **base).passed
    assert not CheckRow(name="b", tolerance=0.01, **base).passed
    le = CheckRow(name="c", estimate=0.5, se=0.0, reference=0.7,
                  provenance="analytic", tolerance=0.0, comparison="le")
    assert le.passed
    ge = CheckRow(name="d", estimate=0.5, se=0.0, reference=0.7,
                  provenance="analytic", tolerance=0.0, comparison="ge")
    assert not ge.passed


def test_report_serializes_to_plain_json():
    cfg = cfg_for("flat", {"n": 2}, t=0.1, dt=1e-2, n_paths=100, seed=0)
    rep = decomposition_check(cfg)
    text = json.dumps(rep.to_dict())  # would raise on numpy scalars/arrays
    back = json.loads(text)
    assert back["check"] == "noise_decomposition"
    assert back["passed"] is True
    assert all("provenance" in row for row in back["rows"])


def test_too_few_alive_paths_raised():
    cfg = cfg_for("flat", {"n": 2, "guard_radius": 0.5},
                  t=0.5, dt=1e-2, n_paths=200, seed=0)
    with pytest.raises(TooFewAlivePaths):
        filtered_expectation_check(cfg)


def test_reports_are_deterministic():
    def run():
        cfg = cfg_for("sphere-gradient", {"n": 2},
                      t=0.2, dt=1e-2, n_paths=150, seed=3)
        d = decomposition_check(cfg).to_dict()
        d.pop("wall_time")
        return d

    assert run() == run()


# ------------------------------------------------------ individual checks


def test_decomposition_sphere():
    cfg = cfg_for("sphere-gradient", {"n": 2},
                  t=1.0, dt=1e-3, n_paths=200, seed=1)
    rep = decomposition_check(cfg)
    assert rep.passed
    by_name = {r.name: r for r in rep.rows}
    recon = next(r for r in rep.rows if "reconstruction" in r.name)
    assert recon.estimate < 1e-12
    assert len(by_name) == 3


def test_filtered_expectation_sphere():
    cfg = cfg_for("sphere-gradient", {"n": 2},
                  t=0.3, dt=1e-2, n_paths=500, seed=2)
    rep = filtered_expectation_check(cfg)
    assert rep.passed
    names = [r.name for r in rep.rows]
    assert sum(n.startswith("cov[") for n in names) == 8  # 4 functions x 2 dirs
    assert sum("unconditional" in n for n in names) == 2
    assert rep.notes["pathwise_regime"] is False


def test_filtered_expectation_so3_pathwise():
    # flat adjoint connection makes the filtered difference a pure
    # discretization remainder, checked at integrator order
    cfg = cfg_for("so3-left-invariant", t=0.3, dt=1e-2, n_paths=300, seed=4)
    rep = filtered_expectation_check(cfg)
    assert rep.passed
    assert rep.notes["pathwise_regime"] is True
    assert rep.notes["pathwise_max_pairing"] < 0.1
    ratio = next(r for r in rep.rows if "halves" in r.name)
    assert ratio.estimate <= 0.75


@pytest.mark.parametrize("seed", [2001, 2002])
def test_filtered_halving_compares_the_same_brownian_paths(seed):
    # both maxima come from one set of paths: the dt/2 run and its partner
    # at dt summing the same increments in pairs
    cfg = cfg_for("twisted-plane", {"alpha": 0.5}, t=0.5, dt=1e-2, n_paths=1000,
                  seed=seed)
    rep = filtered_expectation_check(cfg)
    assert rep.notes["pathwise_regime"] is True
    ratio = next(r for r in rep.rows if "halves" in r.name)
    assert ratio.passed and "on the same 256 Brownian paths" in ratio.note
    assert rep.passed


def test_bismut_gradient_circle_series():
    cfg = cfg_for("circle", t=0.3, dt=1e-2, n_paths=800, seed=11)
    rep = bismut_gradient(cfg, "x1")
    assert rep.passed
    series = next(r for r in rep.rows if "series" in r.name)
    # deterministic kernel-series value for this start point and horizon
    assert series.reference == pytest.approx(-0.554483, abs=1e-4)
    # X is constant, so Heun is exact and the coupled dt and dt/2 levels
    # agree path by path
    assert rep.notes["bias_allowance"] < 1e-12


def test_bismut_gradient_sphere_vs_finite_difference():
    cfg = cfg_for("sphere-gradient", {"n": 2},
                  t=0.5, dt=1e-2, n_paths=2000, seed=5)
    rep = bismut_gradient(cfg, "x1")
    assert rep.passed
    fd_row = next(r for r in rep.rows if "finite difference" in r.name)
    assert fd_row.provenance == "derived-oracle"


def test_moment_sandwich_sphere():
    cfg = cfg_for("sphere-gradient", {"n": 2},
                  t=1.0, dt=1e-2, n_paths=400, seed=6)
    rep = moment_sandwich(cfg, p=2.0)
    assert rep.passed
    # vanishing moment form pins the bounds at exp(0) and n exp(0)
    assert rep.notes["lower"] == pytest.approx(1.0, abs=1e-9)
    assert rep.notes["upper_times_n"] == pytest.approx(2.0, abs=1e-9)
    mid, se = rep.notes["middle_fixed_v0"], rep.notes["middle_fixed_v0_se"]
    assert 1.0 - 3 * se <= mid <= 2.0 + 3 * se


def test_moment_sandwich_requires_skew_torsion():
    cfg = cfg_for("twisted-plane", {"alpha": 0.5},
                  t=0.5, dt=1e-2, n_paths=200, seed=0)
    with pytest.raises(NotApplicable):
        moment_sandwich(cfg)


def test_generator_check_flat_ou():
    cfg = cfg_for("flat", {"n": 2, "drift": ["-x1", "-x2"]},
                  t=0.01, dt=1e-3, n_paths=4000, seed=7)
    rep = generator_check(cfg, "x1*x1")
    assert rep.passed
    # at the origin the drift term vanishes and the diffusion contributes 1
    assert rep.notes["lw_value"] == pytest.approx(1.0, abs=1e-7)
    assert rep.notes["lc_value"] == pytest.approx(1.0, abs=1e-7)


def test_one_form_semigroup_flat_has_hodge_route():
    cfg = cfg_for("flat", {"n": 2}, t=0.01, dt=1e-3, n_paths=3000, seed=8)
    rep = one_form_semigroup_check(cfg)
    assert rep.passed
    names = [r.name for r in rep.rows]
    assert any("codifferential" in n for n in names)
    assert any("commutes" in n for n in names)


def test_one_form_semigroup_sphere():
    cfg = cfg_for("sphere-gradient", {"n": 2},
                  t=0.01, dt=1e-3, n_paths=3000, seed=9)
    rep = one_form_semigroup_check(cfg, {"d_of": "x1"})
    assert rep.passed


@pytest.mark.parametrize("check, arg, parses", [
    (one_form_semigroup_check, {"d_of": "x1*x2"}, 1),
    (one_form_semigroup_check, {"components": ["x2", "x1"]}, 2),
    (generator_check, "x1*x2", 1),
], ids=["oneform-d_of", "oneform-components", "generator"])
def test_checks_parse_each_expression_once(monkeypatch, check, arg, parses):
    # each field is built once and bound to the start chart and to every
    # terminal chart array afterwards, not re-parsed at each read
    import flowgeom.expr as ex
    calls = []
    parse = ex.parse
    monkeypatch.setattr(ex, "parse", lambda source: calls.append(source) or parse(source))
    check(cfg_for("flat", {"n": 2}, t=0.02, dt=1e-2, n_paths=200, seed=0), arg)
    assert len(calls) == parses


def test_bochner_decay_sphere_and_ou():
    cfg = cfg_for("sphere-gradient", {"n": 2},
                  t=2.0, dt=1e-2, n_paths=400, seed=10)
    rep = bochner_decay_check(cfg)
    assert rep.passed
    assert rep.notes["lambda"] == pytest.approx(1.0, abs=1e-6)
    assert rep.notes["slope"] == pytest.approx(-0.5, abs=0.1)

    cfg = cfg_for("flat", {"n": 2, "drift": ["-x1", "-x2"]},
                  t=2.0, dt=1e-2, n_paths=400, seed=10)
    rep = bochner_decay_check(cfg)
    assert rep.passed
    assert rep.notes["lambda"] == pytest.approx(2.0, abs=1e-6)
    assert rep.notes["slope"] == pytest.approx(-1.0, abs=0.1)


def test_bochner_decay_needs_positive_gap():
    cfg = cfg_for("so3-left-invariant", t=1.0, dt=1e-2, n_paths=200, seed=0)
    with pytest.raises(NotApplicable):
        bochner_decay_check(cfg)


def test_se_scaling():
    cfg = cfg_for("sphere-gradient", {"n": 2},
                  t=0.2, dt=1e-2, n_paths=800, seed=12)
    rep = se_scaling_check(cfg)
    assert rep.passed


def test_ito_pathwise_identity():
    # parallel diffusion field: the discrete identity closes exactly
    cfg = cfg_for("circle", t=0.5, dt=1e-2, n_paths=200, seed=13)
    rep = ito_pathwise_check(cfg, n_paths=20)
    assert rep.passed
    assert "exact" in rep.rows[0].note

    # deterministic Jacobian: residual is pure drift truncation, order dt^2
    cfg = cfg_for("flat", {"n": 2, "drift": ["-x1", "-x2"]},
                  t=0.5, dt=1e-2, n_paths=200, seed=13)
    rep = ito_pathwise_check(cfg, n_paths=20)
    assert rep.passed
    assert rep.rows[0].estimate < 0.3

    # curved case: residual at the strong order of the scheme, still decaying
    cfg = cfg_for("sphere-gradient", {"n": 2},
                  t=0.5, dt=1e-2, n_paths=200, seed=13)
    rep = ito_pathwise_check(cfg, n_paths=20)
    assert rep.passed
    assert rep.notes["rms_residual_quarter"] < rep.notes["rms_residual_dt"]


def test_weak_order_sphere():
    cfg = cfg_for("sphere-gradient", {"n": 2},
                  t=0.5, dt=2e-2, n_paths=1024, seed=14)
    rep = weak_order_check(cfg)
    assert rep.passed
    assert len(rep.rows) == 3


def test_weak_order_runs_every_requested_path():
    # more paths than one engine block: all of them are run and reported
    cfg = cfg_for("flat", {"n": 2}, t=0.1, dt=5e-2, n_paths=3000, seed=3)
    rep = weak_order_check(cfg)
    assert rep.n_paths == 3000
    assert rep.passed
