"""Monte Carlo verification of the pathwise and semigroup identities.

Each check simulates with the shared engine, reduces over alive paths, and
returns an McReport whose rows carry an estimate, a standard error, a
reference value with its provenance, and a pass/fail verdict at the
configured multiple of the standard error plus any measured bias allowance.
Bias allowances are estimated by re-running with t or dt halved, never
asserted a priori: t/2 is read part-way through the t-run, and a dt/2 run is
compared with a ``coarsen=1`` partner at dt on the same Brownian paths.

Provenance tags: "analytic" marks closed-form references, "derived-oracle"
marks references computed by an independent numerical method, and
"statistical" marks two-estimate comparisons with no external reference.

All checks are deterministic given (seed, config); wall time is the one
report field allowed to vary between identical runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from math import sqrt
from typing import Callable, Iterable

import numpy as np

from . import expr as ex
from .errors import BadParams, NotApplicable, TooFewAlivePaths
from .geometry import (
    _g_frame_eigvalsh,
    _torsion_skew,
    moment_form,
    on_charts,
    one_form_field,
    one_form_generator,
    one_form_generator_hodge,
    point_data,
    scalar_generator,
)
from .model import SdeSystem, _stack_points
from .stochastic import BLOCK, SimResult, _block_noise, _step_count, simulate

__all__ = [
    "McConfig",
    "CheckRow",
    "McReport",
    "filtered_expectation_check",
    "bismut_gradient",
    "moment_sandwich",
    "generator_check",
    "one_form_semigroup_check",
    "bochner_decay_check",
    "decomposition_check",
    "se_scaling_check",
    "ito_pathwise_check",
    "weak_order_check",
]

ALIVE_FRACTION = 0.9

# what the readers of W read (the filtered check, the CLI's simulate report
# and path dump): J, W = //^ What and the terminal metric
_FILTERED_NEEDS = frozenset(("J", "par_adj", "What", "g_T"))


# ---------------------------------------------------------------------------
# configuration and report containers
# ---------------------------------------------------------------------------


@dataclass
class McConfig:
    """Shared Monte Carlo settings for one check."""

    system: SdeSystem
    t: float = 0.5
    dt: float = 1e-2
    n_paths: int = 1000
    seed: int = 0
    threads: int = 1
    cid: str | None = None
    x0: np.ndarray | None = None
    v0: np.ndarray | None = None
    k_se: float = 3.0

    def __post_init__(self) -> None:
        if self.n_paths < 100:
            raise BadParams(f"n_paths={self.n_paths} is below the minimum of 100")
        _step_count(self.t, self.dt)
        if self.cid is not None:
            self.system.check_chart(self.cid)
        for name in ("x0", "v0"):
            val = getattr(self, name)
            if val is not None:
                setattr(self, name, self.system.check_vector(name, val))
        if self.v0 is not None and not self.v0.any():
            raise BadParams("v0 is the zero vector; the checks need a nonzero one")

    def start(self) -> tuple[str, np.ndarray]:
        cid_d, x0_d = self.system.start()
        cid = self.cid if self.cid is not None else cid_d
        x0 = self.x0 if self.x0 is not None else np.asarray(x0_d, dtype=float)
        return cid, x0


@dataclass
class CheckRow:
    """One verdict line: |estimate - reference| against its allowance.

    ``comparison`` widens the rule for one-sided bounds: "abs" is the
    default two-sided test, "le" passes when estimate <= reference +
    tolerance, "ge" when estimate >= reference - tolerance.
    """

    name: str
    estimate: float
    se: float
    reference: float
    provenance: str
    tolerance: float
    comparison: str = "abs"
    note: str = ""

    @property
    def passed(self) -> bool:
        d = self.estimate - self.reference
        if self.comparison == "le":
            return bool(d <= self.tolerance)
        if self.comparison == "ge":
            return bool(d >= -self.tolerance)
        return bool(abs(d) <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "estimate": float(self.estimate),
            "se": float(self.se),
            "reference": float(self.reference),
            "provenance": self.provenance,
            "tolerance": float(self.tolerance),
            "comparison": self.comparison,
            "passed": self.passed,
            "note": self.note,
        }


@dataclass
class McReport:
    """Result of one Monte Carlo check."""

    check: str
    scenario: str
    rows: list[CheckRow]
    n_paths: int
    n_dropped: int
    seed: int
    t: float
    dt: float
    wall_time: float
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "scenario": self.scenario,
            "passed": self.passed,
            "n_paths": self.n_paths,
            "n_dropped": self.n_dropped,
            "seed": self.seed,
            "t": float(self.t),
            "dt": float(self.dt),
            "rows": [r.to_dict() for r in self.rows],
            "notes": _jsonable(self.notes),
            "wall_time": float(self.wall_time),
        }


def _jsonable(val):
    if isinstance(val, dict):
        return {k: _jsonable(v) for k, v in val.items()}
    if isinstance(val, (list, tuple)):
        return [_jsonable(v) for v in val]
    if isinstance(val, np.ndarray):
        return _jsonable(val.tolist())
    if isinstance(val, (np.floating, float)):
        return float(val)
    if isinstance(val, (np.integer, int)):
        return int(val)
    if isinstance(val, (np.bool_, bool)):
        return bool(val)
    return val


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _mean_se(samples: np.ndarray) -> tuple[float, float]:
    """Sample mean and its unbiased standard error."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if n < 2:
        return float(samples.mean()), float("inf")
    return float(samples.mean()), float(samples.std(ddof=1) / sqrt(n))


def _simulate(cfg: McConfig, need: set[str], *, t: float | None = None,
              dt: float | None = None, n_paths: int | None = None,
              x0: np.ndarray | None = None,
              hp_p: float | None = None, coarsen: int = 0,
              at: Iterable[int] = ()) -> SimResult:
    """One engine run for a check; ``need`` names the companions it reads."""
    cid, x0_d = cfg.start()
    return simulate(
        cfg.system,
        t=cfg.t if t is None else t,
        dt=cfg.dt if dt is None else dt,
        n_paths=cfg.n_paths if n_paths is None else n_paths,
        seed=cfg.seed,
        x0=x0_d if x0 is None else x0,
        cid=cid,
        hp_p=hp_p,
        threads=cfg.threads,
        coarsen=coarsen,
        need=need,
        at=at,
    )


def _halving_run(cfg: McConfig, need: set[str]) -> SimResult:
    """A run to t that also keeps its state after half its steps (at least
    one), for ``_halving_quotient``."""
    return _simulate(cfg, need, at=(max(1, _step_count(cfg.t, cfg.dt) // 2),))


def _halving_quotient(res: SimResult, alive: np.ndarray,
                      value: Callable[[SimResult], np.ndarray],
                      start: float) -> tuple[float, float, float]:
    """(est, se, bias_allow) of the short-time quotient (E value - start)/t
    over the ``alive`` paths of a ``_halving_run``: ``bias_allow`` is
    2|est - est_h| with ``est_h`` the same quotient at t/2, read from the
    first half of the t-run."""
    est, se = _mean_se((value(res)[alive] - start) / res.t)
    res_h = res.snapshots[0]
    est_h = float(np.mean((value(res_h)[res_h.alive] - start) / res_h.t))
    return est, se, 2.0 * abs(est - est_h)


def _alive_gate(res: SimResult) -> np.ndarray:
    alive = res.alive
    frac = float(alive.mean()) if alive.size else 0.0
    if frac < ALIVE_FRACTION:
        raise TooFewAlivePaths(
            f"only {frac:.1%} of {res.n_paths} paths alive at t={res.t}")
    return alive


def _frame0(res: SimResult) -> np.ndarray:
    """Columns form a g0-orthonormal frame at the start point."""
    return np.linalg.inv(res.L0).T


def _resolve_v0(cfg: McConfig, res: SimResult) -> np.ndarray:
    if cfg.v0 is not None:
        return np.asarray(cfg.v0, dtype=float)
    return _frame0(res)[:, 0]


def _default_panel(d: int) -> list[str]:
    names = [f"x{k + 1}" for k in range(min(d, 3))]
    if d >= 2:
        names.append("x1*x2")
    return names


def _gradx_vanishes(system: SdeSystem, cfg: McConfig) -> bool:
    """True when the coefficient fields are parallel near the start (then the
    derivative and filtered flows coincide pathwise up to integrator error)."""
    cids, xs = _stack_points([cfg.start()] + system.sample_points(np.random.default_rng(11), 3))
    return not np.max(np.abs(point_data(system, cids, xs).gradX)) > 1e-8


def _report(check: str, cfg: McConfig, rows: list[CheckRow], res: SimResult | None,
            t0: float, notes: dict | None = None, *, n_paths: int | None = None) -> McReport:
    return McReport(
        check=check,
        scenario=cfg.system.name,
        rows=rows,
        n_paths=res.n_paths if res is not None else (n_paths or cfg.n_paths),
        n_dropped=res.n_dropped if res is not None else 0,
        seed=cfg.seed,
        t=res.t if res is not None else cfg.t,
        dt=res.dt if res is not None else cfg.dt,
        wall_time=time.perf_counter() - t0,
        notes=notes or {},
    )


# ---------------------------------------------------------------------------
# filtered expectation: E[ f(x_t) <(Txi_t - W_t) v0, //^ u>_g ] = 0
# ---------------------------------------------------------------------------


def _filtered_pairing(res: SimResult, v0: np.ndarray, frame: np.ndarray,
                      rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Txi_t - W_t) v0 on the selected paths, and its g-pairing with each
    ``//^``-transported column of ``frame``."""
    dv = ((res.J - res.W()) @ v0)[rows]
    return dv, np.einsum("pi,pij,pja->pa", dv, res.g_T[rows], res.par_adj[rows] @ frame)


def filtered_expectation_check(cfg: McConfig,
                               test_functions: list[str] | None = None) -> McReport:
    """The filtered flow is the conditional expectation of the derivative flow.

    Conditioning is replaced by covariances against path-measurable
    integrands: f(x_t) scalar test functions times the g-pairing of the
    difference with adjoint-transported frame vectors, plus the unconditional
    componentwise mean in the transported frame.  On scenarios whose
    coefficient fields are parallel the difference must vanish pathwise, so
    the report adds pathwise rows with a step-halving convergence bound, over
    min(N, 256) paths at dt/2 and the same Brownian paths at dt.
    """
    t0 = time.perf_counter()
    d = cfg.system.embed_dim
    fs = [(src, ex.field(src, d))
          for src in (test_functions if test_functions is not None else _default_panel(d))]
    res = _simulate(cfg, _FILTERED_NEEDS)
    alive = _alive_gate(res)
    k = cfg.k_se
    v0 = _resolve_v0(cfg, res)
    frame = _frame0(res)

    dv, inner = _filtered_pairing(res, v0, frame, alive)
    pathwise = _gradx_vanishes(cfg.system, cfg)
    pmax = float(np.max(np.abs(inner), initial=0.0))
    bias_allow = pmax if pathwise else 0.0

    rows: list[CheckRow] = []
    for src, f in fs:
        fv = f(res.embedded)[alive]
        for a in range(frame.shape[1]):
            est, se = _mean_se(fv * inner[:, a])
            rows.append(CheckRow(
                name=f"cov[f={src}, u{a + 1}]",
                estimate=est, se=se, reference=0.0,
                provenance="statistical",
                tolerance=k * se + bias_allow,
                note="filtered flow is the noise-conditional mean, so "
                     "the residual is uncorrelated with these functionals"))

    hat_inv_dv = np.linalg.solve(res.par_adj[alive], dv[..., None])[..., 0]
    for j in range(hat_inv_dv.shape[-1]):
        est, se = _mean_se(hat_inv_dv[:, j])
        rows.append(CheckRow(
            name=f"unconditional component {j + 1}",
            estimate=est, se=se, reference=0.0,
            provenance="statistical",
            tolerance=k * se + bias_allow))

    notes: dict = {"pathwise_regime": pathwise, "pathwise_max_pairing": pmax}
    if pathwise:
        rows.append(CheckRow(
            name="pathwise max |<(J-W)v0, //^u>|",
            estimate=pmax, se=0.0, reference=0.0,
            provenance="derived-oracle",
            tolerance=max(10.0 * cfg.dt, 1e-9),
            note="parallel coefficients force a pathwise identity"))
        if pmax > 1e-12:
            n_h = min(cfg.n_paths, 256)
            half = _simulate(cfg, _FILTERED_NEEDS, dt=cfg.dt / 2.0, n_paths=n_h)
            partner = _simulate(cfg, _FILTERED_NEEDS, n_paths=n_h, coarsen=1)
            both = half.alive & partner.alive
            pmax_h, pmax_c = (
                float(np.max(np.abs(_filtered_pairing(run, v0, frame, both)[1])))
                for run in (half, partner))
            rows.append(CheckRow(
                name="pathwise max halves with dt",
                estimate=pmax_h / pmax_c, se=0.0, reference=0.0,
                provenance="derived-oracle",
                tolerance=0.75, comparison="le",
                note=f"max at dt/2 = {pmax_h:.3g}, at dt = {pmax_c:.3g} "
                     f"on the same {int(both.sum())} Brownian paths"))
            notes["pathwise_max_half_dt"] = pmax_h
    return _report("filtered_expectation", cfg, rows, res, t0, notes)


# ---------------------------------------------------------------------------
# Bismut-type gradient of the semigroup
# ---------------------------------------------------------------------------


def _circle_ptf_derivative(theta0: float, t: float,
                           f: Callable[[np.ndarray], np.ndarray]) -> float:
    """d/dtheta0 of P_t f on the circle via the wrapped Gaussian kernel.

    f is a field of the embedded coordinates (cos theta, sin theta) on a
    4096-point grid; the kernel derivative keeps 7 images of the Gaussian.
    """
    grid = 4096
    th = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    ks = np.arange(-3, 4)
    z = theta0 - th[None, :] + 2.0 * np.pi * ks[:, None]
    dkernel = np.sum(-z / t * np.exp(-z * z / (2.0 * t)), axis=0) / sqrt(2.0 * np.pi * t)
    fvals = f(np.stack([np.cos(th), np.sin(th)]).T)  # (grid, 2), each column contiguous
    return float(np.sum(fvals * dkernel) * (2.0 * np.pi / grid))


def bismut_gradient(cfg: McConfig, f_source: str = "x1", *, eps: float = 1e-4) -> McReport:
    """Derivative of the semigroup without differentiating the flow.

    Estimates d(P_t f)(v0) = (1/t) E[f(x_t) S] where S pairs the filtered
    flow with the tangent-frame noise increments, and compares against a
    common-random-numbers central finite difference of P_t f (and, on the
    circle, against the wrapped-Gaussian kernel series).  The bias allowance
    is 2|mean(d)| + 2k se(d) for the per-path gap d between min(N, ``BLOCK``)
    paths at dt/2 and the same Brownian paths at dt.
    """
    t0 = time.perf_counter()
    f = ex.field(f_source, cfg.system.embed_dim)
    res = _simulate(cfg, {"bismut_vec"})
    alive = _alive_gate(res)
    k = cfg.k_se
    v0 = _resolve_v0(cfg, res)
    cid, x0 = cfg.start()

    def samples(run: SimResult) -> np.ndarray:
        return f(run.embedded) * (run.bismut_vec @ v0) / cfg.t

    est, se = _mean_se(samples(res)[alive])

    n_f = min(cfg.n_paths, BLOCK)
    fine = _simulate(cfg, {"bismut_vec"}, dt=cfg.dt / 2.0, n_paths=n_f)
    coarse = _simulate(cfg, {"bismut_vec"}, n_paths=n_f, coarsen=1)
    gap, gap_se = _mean_se((samples(coarse) - samples(fine))[fine.alive & coarse.alive])
    bias_allow = 2.0 * abs(gap) + 2.0 * k * gap_se

    res_p = _simulate(cfg, set(), x0=x0 + eps * v0)
    res_m = _simulate(cfg, set(), x0=x0 - eps * v0)
    both = res_p.alive & res_m.alive
    fd_samples = (f(res_p.embedded)[both] - f(res_m.embedded)[both]) / (2.0 * eps)
    fd, fd_se = _mean_se(fd_samples)

    rows = [CheckRow(
        name=f"d(P_t f)(v0) vs CRN finite difference, f={f_source}",
        estimate=est, se=se, reference=fd,
        provenance="derived-oracle",
        tolerance=k * (se + fd_se) + bias_allow,
        note=f"fd se={fd_se:.3g}, eps={eps:g}, bias allowance={bias_allow:.3g}")]

    notes: dict = {"fd": fd, "fd_se": fd_se, "bias_allowance": bias_allow}
    if cfg.system.dim_one and res.embedded.shape[-1] == 2:
        ref = _circle_ptf_derivative(float(x0[0]), cfg.t, f) * float(v0[0])
        rows.append(CheckRow(
            name="vs wrapped-Gaussian kernel series (7 terms)",
            estimate=est, se=se, reference=ref,
            provenance="derived-oracle",
            tolerance=k * se + bias_allow + 10.0 * cfg.dt * abs(ref),
            note="series-differentiated P_t f"))
        notes["series_reference"] = ref
    return _report("bismut_gradient", cfg, rows, res, t0, notes)


# ---------------------------------------------------------------------------
# moment sandwich
# ---------------------------------------------------------------------------


def moment_sandwich(cfg: McConfig, p: float = 2.0) -> McReport:
    """Exponential bounds on E|Txi_t|^p from the extreme moment-form values.

    Requires the adjoint connection to be metric (skew torsion); otherwise
    NotApplicable.  Reports the fixed-vector and operator-norm readings of
    the middle term, each with its own sandwich verdict; the exponent on the
    bounding exponentials is p/2 per unit of the integrated form.
    """
    t0 = time.perf_counter()
    cid, x0 = cfg.start()
    ok, resid, _ = _torsion_skew(point_data(cfg.system, cid, x0))
    if not ok:
        raise NotApplicable(
            f"adjoint connection is not metric here (torsion skew residual {resid:.3g})")

    res = _simulate(cfg, {"J", "g_T", "hp_lo", "hp_hi"}, hp_p=p)
    alive = _alive_gate(res)
    k = cfg.k_se
    v0 = _resolve_v0(cfg, res)

    low = np.exp(0.5 * p * res.hp_lo[alive])
    high = float(cfg.system.n) * np.exp(0.5 * p * res.hp_hi[alive])
    low_m, low_se = _mean_se(low)
    high_m, high_se = _mean_se(high)

    LT = np.linalg.cholesky(res.g_T[alive])
    frames = np.swapaxes(LT, -1, -2) @ res.J[alive] @ _frame0(res)
    smax = np.linalg.svd(frames, compute_uv=False)[..., 0]
    op_m, op_se = _mean_se(smax ** p)

    jv = res.J[alive] @ v0
    num = np.einsum("pi,pij,pj->p", jv, res.g_T[alive], jv)
    den = float(v0 @ res.g0 @ v0)
    fix_m, fix_se = _mean_se((num / den) ** (0.5 * p))

    def _sandwich(label: str, mid: float, mid_se: float) -> list[CheckRow]:
        return [
            CheckRow(
                name=f"lower bound <= {label}",
                estimate=mid - low_m, se=sqrt(mid_se ** 2 + low_se ** 2),
                reference=0.0, provenance="statistical",
                tolerance=k * (mid_se + low_se), comparison="ge",
                note=f"lower={low_m:.6g}, middle={mid:.6g}"),
            CheckRow(
                name=f"{label} <= n * upper bound",
                estimate=high_m - mid, se=sqrt(mid_se ** 2 + high_se ** 2),
                reference=0.0, provenance="statistical",
                tolerance=k * (mid_se + high_se), comparison="ge",
                note=f"middle={mid:.6g}, upper={high_m:.6g}"),
        ]

    rows = _sandwich(f"E|J|^{p:g} (operator norm)", op_m, op_se)
    rows += _sandwich(f"E|J v0|^{p:g} (fixed vector)", fix_m, fix_se)
    notes = {
        "p": p,
        "lower": low_m, "lower_se": low_se,
        "middle_operator": op_m, "middle_operator_se": op_se,
        "middle_fixed_v0": fix_m, "middle_fixed_v0_se": fix_se,
        "upper_times_n": high_m, "upper_se": high_se,
        "exponent_rule": "exp((p/2) * integral of the extreme moment form)",
    }
    return _report("moment_sandwich", cfg, rows, res, t0, notes)


# ---------------------------------------------------------------------------
# scalar generator
# ---------------------------------------------------------------------------


def generator_check(cfg: McConfig, f_source: str = "x1") -> McReport:
    """Short-time semigroup quotient against both analytic generator forms.

    The induced-connection form and the Levi-Civita form must agree to 1e-6
    at the start point; the Monte Carlo quotient (E f(x_t) - f(x0))/t is then
    tested against them with a t-halving bias allowance.
    """
    t0 = time.perf_counter()
    cid, x0 = cfg.start()
    f_emb = ex.field(f_source, cfg.system.embed_dim)
    f = partial(on_charts(cfg.system, f_emb), cid)
    lw_val, lc_val = scalar_generator(point_data(cfg.system, cid, x0), f)

    rows = [CheckRow(
        name="generator route agreement (induced vs Levi-Civita)",
        estimate=lw_val - lc_val, se=0.0, reference=0.0,
        provenance="analytic", tolerance=1e-6)]

    res = _halving_run(cfg, set())
    alive = _alive_gate(res)
    k = cfg.k_se
    est, se, bias_allow = _halving_quotient(
        res, alive, lambda r: f_emb(r.embedded), float(f(x0)))

    # 1e-6 floor covers the finite-difference error of the reference itself
    for label, ref in (("induced form", lw_val), ("Levi-Civita form", lc_val)):
        rows.append(CheckRow(
            name=f"(E f(x_t) - f(x0))/t vs {label}, f={f_source}",
            estimate=est, se=se, reference=ref,
            provenance="analytic",
            tolerance=k * se + bias_allow + 1e-6,
            note=f"bias allowance C*t={bias_allow:.3g} from t-halving"))
    notes = {"lw_value": lw_val, "lc_value": lc_val, "bias_allowance": bias_allow}
    return _report("generator", cfg, rows, res, t0, notes)


# ---------------------------------------------------------------------------
# semigroup on 1-forms
# ---------------------------------------------------------------------------


def one_form_semigroup_check(cfg: McConfig, phi_spec=None) -> McReport:
    """Short-time semigroup quotient on a 1-form against the analytic forms.

    Compares (E phi_{xi_t}(Txi_t v) - phi(v))/t with the trace-Hessian form
    of the generator on 1-forms, with the codifferential route when there is
    no drift, and, for exact forms, with the differential of the scalar
    generator (the two operators commute through d).
    """
    t0 = time.perf_counter()
    if phi_spec is None:
        phi_spec = {"d_of": "x1"}
    cid, x0 = cfg.start()
    system = cfg.system
    phi_at, f_at = one_form_field(system, phi_spec)  # each expression parsed once
    phi0 = partial(phi_at, cid)

    res = _halving_run(cfg, {"J"})
    alive = _alive_gate(res)
    k = cfg.k_se
    v0 = _resolve_v0(cfg, res)

    pd0 = point_data(system, cid, x0)
    gen_direct = one_form_generator(pd0, phi0, v0)
    rows: list[CheckRow] = []
    if not system.has_drift:
        gen_hodge = one_form_generator_hodge(pd0, phi0, v0)
        rows.append(CheckRow(
            name="trace-Hessian vs codifferential route",
            estimate=gen_direct - gen_hodge, se=0.0, reference=0.0,
            provenance="analytic", tolerance=1e-6))

    if f_at is not None:  # an exact form d f
        f = partial(f_at, cid)

        def a0(y: np.ndarray) -> np.ndarray:
            return scalar_generator(point_data(system, cid, y), f)[0][..., None]

        da0_v = float(system.oracle.directional(a0, x0, v0)[0])
        rows.append(CheckRow(
            name="exact form: generator commutes with d",
            estimate=gen_direct - da0_v, se=0.0, reference=0.0,
            provenance="analytic", tolerance=1e-5,
            note="compares the 1-form generator on df with d(scalar generator f)"))

    def pairing(r: SimResult) -> np.ndarray:
        """phi_{x_T}(J v0) per path, evaluating phi in each terminal chart."""
        return np.einsum("pi,pi->p", phi_at(np.asarray(r.chart_names)[r.cid_idx], r.x),
                         r.J @ v0)

    est, se, bias_allow = _halving_quotient(res, alive, pairing, float(phi0(x0) @ v0))

    # 1e-6 floor covers the finite-difference error of the reference itself
    rows.append(CheckRow(
        name="(E phi(Txi_t v) - phi(v))/t vs trace-Hessian form",
        estimate=est, se=se, reference=gen_direct,
        provenance="analytic",
        tolerance=k * se + bias_allow + 1e-6,
        note=f"bias allowance C*t={bias_allow:.3g} from t-halving"))
    notes = {"generator_value": gen_direct, "bias_allowance": bias_allow}
    return _report("one_form_semigroup", cfg, rows, res, t0, notes)


# ---------------------------------------------------------------------------
# exponential decay of the filtered flow
# ---------------------------------------------------------------------------


def bochner_decay_check(cfg: McConfig) -> McReport:
    """Exponential decay of |W_t v0| under a positive curvature-drift gap.

    The gap lambda is the smallest eigenvalue, over the start and 12 sampled
    probe points, of the symmetrized quadratic form of Ric# - 2 nabla A in
    g-orthonormal frames; when it is not positive the hypothesis fails and
    NotApplicable is raised.  Otherwise log E|W_t v0| is fitted at up to 21
    evenly spaced steps of the run and the slope must sit at or below
    -lambda/2 + 0.1.
    """
    t0 = time.perf_counter()
    system = cfg.system
    cids, xs = _stack_points([system.start()] + system.sample_points(np.random.default_rng(5), 12))
    pd = point_data(system, cids, xs)
    bop = pd.ric_sharp - 2.0 * pd.nabla_a
    quad = 0.5 * (np.swapaxes(bop, -1, -2) @ pd.g + pd.g @ bop)
    lam = float(_g_frame_eigvalsh(quad, pd.g).min())
    if lam <= 1e-8:
        raise NotApplicable(
            f"curvature-drift gap {lam:.4g} is not positive; no decay is implied")

    n_rec = min(cfg.n_paths, 1024)
    steps = _step_count(cfg.t, cfg.dt)
    picks = np.unique(np.linspace(0, steps, 21).astype(int))
    res = _simulate(cfg, {"par_adj", "What", "g_T"}, n_paths=n_rec, at=picks)
    alive = _alive_gate(res)
    k = cfg.k_se
    v0 = _resolve_v0(cfg, res)

    ts, ys = [], []
    for kk, snap in zip(picks, res.snapshots):
        Wk = snap.par_adj[alive] @ snap.What[alive]
        g = snap.g_T[alive]
        wv = Wk @ v0
        norms = np.sqrt(np.einsum("pi,pij,pj->p", wv, g, wv))
        ts.append(kk * cfg.dt)
        ys.append(float(np.log(np.mean(norms))))
    ts_a, ys_a = np.asarray(ts), np.asarray(ys)
    slope, intercept = np.polyfit(ts_a, ys_a, 1)
    fit = intercept + slope * ts_a
    dof = max(len(ts_a) - 2, 1)
    slope_se = float(np.sqrt(np.sum((ys_a - fit) ** 2) / dof
                             / np.sum((ts_a - ts_a.mean()) ** 2)))

    rows = [CheckRow(
        name="log E|W_t v0| slope <= -lambda/2 + 0.1",
        estimate=float(slope), se=slope_se, reference=-0.5 * lam,
        provenance="derived-oracle",
        tolerance=0.1, comparison="le",
        note=f"gap lambda={lam:.6g} over {len(xs)} probes")]
    notes = {"lambda": lam, "times": ts, "log_mean_norm": ys,
             "slope": float(slope), "slope_se": slope_se}
    return _report("bochner_decay", cfg, rows, res, t0, notes)


# ---------------------------------------------------------------------------
# noise decomposition summary
# ---------------------------------------------------------------------------


def decomposition_check(cfg: McConfig) -> McReport:
    """Exact pathwise reconstruction plus Brownian statistics of B-bar.

    The reconstruction defect must be at machine scale (1e-10); the
    quadratic variation of B-bar must match t*I in Frobenius norm; the
    tangent/normal increment cross-covariance must sit inside a 4-sigma
    CLT band.
    """
    t0 = time.perf_counter()
    res = _simulate(cfg, {"b_raw", "recon_err", "qv", "cross"})
    alive = _alive_gate(res)
    m = res.b_raw.shape[-1]

    recon = float(np.max(res.recon_err[alive]))
    qv_mean = res.qv[alive].mean(axis=0)
    qv_dev = float(np.linalg.norm(qv_mean - cfg.t * np.eye(m)))
    cross_mean = res.cross[alive].mean(axis=0)
    cross_max = float(np.max(np.abs(cross_mean)))
    n_alive = int(alive.sum())
    cross_band = 4.0 * sqrt(cfg.dt * cfg.t / n_alive)

    rows = [
        CheckRow(
            name="pathwise reconstruction of B from //~ dB-bar",
            estimate=recon, se=0.0, reference=0.0,
            provenance="analytic", tolerance=1e-10,
            note="exact discrete identity"),
        CheckRow(
            name="|QV(B-bar) - t*I| Frobenius",
            estimate=qv_dev, se=0.0, reference=0.0,
            provenance="derived-oracle", tolerance=0.1,
            note="Brownian quadratic variation"),
        CheckRow(
            name="max |cross-covariance(dB-tilde, dbeta)|",
            estimate=cross_max, se=0.0, reference=0.0,
            provenance="derived-oracle", tolerance=cross_band,
            note="CLT band 4*sqrt(dt*t/N)"),
    ]
    notes = {"qv_mean_diag": np.diag(qv_mean), "cross_band": cross_band}
    return _report("noise_decomposition", cfg, rows, res, t0, notes)


# ---------------------------------------------------------------------------
# invariant-level checks
# ---------------------------------------------------------------------------


def se_scaling_check(cfg: McConfig, f_source: str = "x1") -> McReport:
    """Doubling the path count shrinks the standard error by sqrt(2) +- 10%."""
    t0 = time.perf_counter()
    f = ex.field(f_source, cfg.system.embed_dim)
    res1 = _simulate(cfg, set())
    res2 = _simulate(cfg, set(), n_paths=2 * cfg.n_paths)
    _, se1 = _mean_se(f(res1.embedded)[res1.alive])
    _, se2 = _mean_se(f(res2.embedded)[res2.alive])
    ratio = se1 / se2 if se2 > 0 else float("inf")
    rows = [CheckRow(
        name=f"SE(N)/SE(2N) for f={f_source}",
        estimate=ratio, se=0.0, reference=sqrt(2.0),
        provenance="statistical", tolerance=0.1 * sqrt(2.0))]
    return _report("se_scaling", cfg, rows, res1, t0,
                   {"se_n": se1, "se_2n": se2})


def ito_pathwise_check(cfg: McConfig, p: float = 2.0, n_paths: int = 20) -> McReport:
    """Discrete Ito identity for |Txi_t v|^p, tested by step refinement.

    Tested in exponential-martingale form: on each path, log|J_t v|^p must
    equal the left-point stochastic sum minus half its quadratic variation
    plus the moment-form drift sum, up to a remainder that decays when dt is
    halved (same Brownian paths: the dt/4 stream coarsened 2, 1 and 0 times).
    The additive form of the identity carries a mean-zero quadratic-variation
    fluctuation that step-halving on a fixed path cannot shrink; taking logs
    telescopes it away.
    """
    t0 = time.perf_counter()
    system = cfg.system
    steps = _step_count(cfg.t, cfg.dt)

    def residuals(halvings: int) -> np.ndarray:
        n_steps, dt, coarsen = steps << halvings, cfg.dt / 2**halvings, 2 - halvings
        res = _simulate(cfg, {"J"}, t=n_steps * dt, dt=dt, n_paths=n_paths,
                        coarsen=coarsen, at=range(n_steps + 1))
        # the engine's own increments drive the martingale sum
        noise = _block_noise(cfg.seed, np.arange(n_paths), n_steps, dt, system.m,
                             coarsen)
        # every snapshot, the start to the end, in one batch: (step, path, ...)
        snaps = res.snapshots
        cids = np.asarray(res.chart_names)[np.stack([snap.cid_idx for snap in snaps])]
        pd = point_data(system, cids, np.stack([snap.x for snap in snaps]))
        v0 = _resolve_v0(cfg, res)
        v = np.stack([snap.J for snap in snaps]) @ v0
        vv = np.einsum("...i,...ij,...j->...", v, pd.g, v)
        # s_i = <nab X^i (v), v>_g / |v|^2 drives the log-norm martingale
        s = np.einsum("...aib,...b,...ac,...c->...i", pd.gradX, v, pd.g, v) / vv[..., None]
        mart = p * np.einsum("...i,...i->...", s[:-1], np.swapaxes(noise, 0, 1))
        half_qv = 0.5 * p * p * np.einsum("...i,...i->...", s, s) * dt
        drift = 0.5 * p * moment_form(pd, v, p) / vv * dt
        acc = np.zeros(n_paths)
        for term in mart - half_qv[:-1] + drift[:-1]:
            acc += term
        vv0 = float(v0 @ res.g0 @ v0)
        return 0.5 * p * (np.log(vv[-1]) - np.log(vv0)) - acc

    r_coarse, r_mid, r_fine = (residuals(h) for h in range(3))
    rms_c = float(np.sqrt(np.mean(r_coarse ** 2)))
    rms_m = float(np.sqrt(np.mean(r_mid ** 2)))
    rms_f = float(np.sqrt(np.mean(r_fine ** 2)))
    if rms_c < 1e-11:
        rows = [CheckRow(
            name="discrete Ito residual",
            estimate=rms_c, se=0.0, reference=0.0,
            provenance="derived-oracle", tolerance=1e-11,
            note="identity exact on this scenario")]
    else:
        # two halvings: step-size-dominated residuals shrink 4x, residuals
        # limited by the sqrt(dt) strong rate of non-commuting noise shrink
        # 2x. A wrong term in either sum freezes the ratio near 1, which is
        # what this bound rejects.
        rows = [CheckRow(
            name="discrete Ito residual decays from dt to dt/4",
            estimate=rms_f / rms_c, se=0.0, reference=0.0,
            provenance="derived-oracle", tolerance=0.7, comparison="le",
            note=f"rms residual {rms_c:.3g} at dt, {rms_m:.3g} at dt/2, "
                 f"{rms_f:.3g} at dt/4")]
    return _report("ito_pathwise", cfg, rows, None, t0,
                   {"rms_residual_dt": rms_c, "rms_residual_half": rms_m,
                    "rms_residual_quarter": rms_f},
                   n_paths=n_paths)


def weak_order_check(cfg: McConfig) -> McReport:
    """First weak order under dt refinement on coupled Brownian paths.

    Three nested grids share one Brownian path per index (the dt/4 stream
    coarsened 2, 1 and 0 times), so successive differences of E f(x_t), for
    f = x1, x1*x2 and x1*x1, estimate the dt-linear bias with most Monte
    Carlo noise cancelled; their ratio should be near 2.
    """
    t0 = time.perf_counter()
    fs = [(src, ex.field(src, cfg.system.embed_dim)) for src in ("x1", "x1*x2", "x1*x1")]
    res1, res2, res4 = (_simulate(cfg, set(), dt=cfg.dt / 2**h, coarsen=2 - h)
                        for h in range(3))
    ok = res1.alive & res2.alive & res4.alive

    rows = []
    details = {}
    for src, f in fs:
        f1, f2, f4 = (f(run.embedded)[ok] for run in (res1, res2, res4))
        d12, d12_se = _mean_se(f1 - f2)
        d24, d24_se = _mean_se(f2 - f4)
        details[src] = {"d12": d12, "d12_se": d12_se, "d24": d24, "d24_se": d24_se}
        if abs(d24) < 4.0 * d24_se:
            rows.append(CheckRow(
                name=f"dt bias below MC resolution, f={src}",
                estimate=abs(d12), se=d12_se, reference=0.0,
                provenance="statistical",
                tolerance=4.0 * (d12_se + d24_se) + 2.0 * abs(d24),
                note="refinement differences within noise; bias negligible"))
        else:
            rows.append(CheckRow(
                name=f"refinement ratio (E f at dt vs dt/2 vs dt/4), f={src}",
                estimate=d12 / d24, se=0.0, reference=2.0,
                provenance="statistical",
                tolerance=1.0,
                note="ratio near 2 means the weak error is linear in dt"))
    return _report("weak_order", cfg, rows, res1, t0, details)
