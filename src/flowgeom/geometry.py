"""Metric, connections, torsion, and curvature induced by SDE coefficients.

Everything is expressed in chart coordinates.  Index conventions:

- ``X[..., i, r]``: coefficient matrix, value index ``i``, noise index ``r``.
- ``DX[..., i, r, j] = d X^{i r} / d x^j`` (differentiation axis last).
- Christoffel arrays ``gamma[..., i, j, k]`` hold ``G^i_{jk}`` with
  ``G(v, w)^i = G^i_{jk} v^j w^k``; the FIRST lower index ``j`` is the
  differentiation direction.
- Curvature ``R[..., i, j, k, l]`` holds ``(R(u, v) w)^i = R^i_{jkl} u^j v^k w^l``
  with ``R(u, v) w = nab_u nab_v w - nab_v nab_u w - nab_{[u,v]} w``.

The connection induced by the coefficients ("lw", for LeJan-Watanabe) is::

    G(v, w) = -DX(v) (Y(x) w),      Y(x) = X(x)^T g(x),

its adjoint ("adjoint") swaps the two lower indices, and "lc" is the
Levi-Civita connection of the induced metric ``g = (X X^T)^{-1}``.

All raw-array helpers broadcast over leading axes, so the same code serves
single points and batched Monte Carlo sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr as ex
from .errors import BadParams, DegenerateX, ZeroVector
from .linalg import DerivOracle, sym
from .model import SdeSystem

__all__ = [
    "PointData", "point_data", "induced_metric", "lw_christoffel",
    "adjoint_christoffel", "levi_civita_christoffel", "christoffel",
    "covariant_derivative", "torsion_from_christoffel", "torsion_via_dy",
    "torsion_via_bracket", "curvature_from_christoffel", "curvature_lw_direct",
    "ricci_sharp", "ricci_bilinear", "sectional_curvature",
    "defining_property_residual", "pairing_derivative_residual",
    "metricity_residual", "tss_check", "lw_lc_split_residual",
    "stratonovich_term", "lie_bracket", "connection_routes_residual",
    "moment_quadratic", "moment_form", "moment_form_extremes",
    "scalar_generator", "one_form_generator", "one_form_generator_hodge",
    "codifferential_1form", "codifferential_1form_lie", "exterior_derivative_1form",
    "one_form_from_spec", "scalar_from_expr", "GeometryPoint", "geometry_point",
]

_EYE_CACHE: dict[int, np.ndarray] = {}


def _eye(n: int) -> np.ndarray:
    if n not in _EYE_CACHE:
        _EYE_CACHE[n] = np.eye(n)
    return _EYE_CACHE[n]


# ---------------------------------------------------------------------------
# pointwise data bundle
# ---------------------------------------------------------------------------


@dataclass
class PointData:
    """Coefficients and derived tensors at a (batch of) point(s)."""

    X: np.ndarray            # (..., n, m)
    A: np.ndarray            # (..., n)
    DX: np.ndarray | None    # (..., n, m, n)
    DA: np.ndarray | None    # (..., n, n); DA[i, j] = d A^i / d x^j
    g: np.ndarray | None = None        # (..., n, n)
    ginv: np.ndarray | None = None
    Y: np.ndarray | None = None        # (..., m, n)
    PT: np.ndarray | None = None       # (..., m, m)
    PN: np.ndarray | None = None
    gamma: np.ndarray | None = None    # LW Christoffels
    gamma_adj: np.ndarray | None = None
    gradX: np.ndarray | None = None    # (..., n, m, n): nab X^i, direction last
    ric_sharp: np.ndarray | None = None  # (..., n, n)
    nabla_a: np.ndarray | None = None    # (..., n, n): nab A, direction last


def induced_metric(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(g, ginv, Y, PT, PN) from the coefficient matrix."""
    ginv = X @ np.swapaxes(X, -1, -2)
    g = np.linalg.inv(ginv)
    Y = np.swapaxes(X, -1, -2) @ g
    PT = Y @ X
    PN = _eye(X.shape[-1]) - PT
    return g, ginv, Y, PT, PN


def _induced_gamma(DX: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Christoffels of the induced connection, G(v, w) = -DX(v)(Y w)."""
    return -np.einsum("...irj,...rk->...ijk", DX, Y)


def _grad_x(DX: np.ndarray, gamma: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Covariant derivatives nab X^i of the coefficient fields, direction last."""
    return DX + np.einsum("...ajk,...ki->...aij", gamma, X)


def point_data(system: SdeSystem, cid: str, x: np.ndarray, *, light: bool = False,
               oracle: DerivOracle | None = None) -> PointData:
    """Assemble coefficients and induced tensors at ``x`` (batched)."""
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle
    X = system.coeff_x(cid, x)
    A = system.coeff_a(cid, x)
    DX = oracle.jacobian(lambda y: system.coeff_x(cid, y), x)
    DA = oracle.jacobian(lambda y: system.coeff_a(cid, y), x) if system.has_drift else None
    pd = PointData(X=X, A=A, DX=DX, DA=DA)
    if light:
        return pd
    pd.g, pd.ginv, pd.Y, pd.PT, pd.PN = induced_metric(X)
    pd.gamma = _induced_gamma(DX, pd.Y)
    pd.gamma_adj = np.swapaxes(pd.gamma, -1, -2)
    pd.gradX = _grad_x(DX, pd.gamma, X)
    tr = np.einsum("...aia->...i", pd.gradX)
    pd.ric_sharp = (np.einsum("...i,...aib->...ab", tr, pd.gradX)
                    - np.einsum("...aib,...bic->...ac", pd.gradX, pd.gradX))
    if DA is not None:
        pd.nabla_a = DA + np.einsum("...ajk,...k->...aj", pd.gamma, A)
    else:
        pd.nabla_a = np.zeros_like(pd.g)
    return pd


# ---------------------------------------------------------------------------
# christoffels
# ---------------------------------------------------------------------------


def lw_christoffel(system: SdeSystem, cid: str, x: np.ndarray,
                   oracle: DerivOracle | None = None) -> np.ndarray:
    """Christoffels of the coefficient-induced connection, G(v,w) = -DX(v)(Yw)."""
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle
    X = system.coeff_x(cid, x)
    _, _, Y, _, _ = induced_metric(X)
    DX = oracle.jacobian(lambda y: system.coeff_x(cid, y), x)
    return _induced_gamma(DX, Y)


def adjoint_christoffel(gamma: np.ndarray) -> np.ndarray:
    """Adjoint connection: swap the two lower indices (exact)."""
    return np.swapaxes(gamma, -1, -2)


def _metric_field(system: SdeSystem, cid: str) -> Callable[[np.ndarray], np.ndarray]:
    def g_of(y: np.ndarray) -> np.ndarray:
        X = system.coeff_x(cid, y)
        return np.linalg.inv(X @ np.swapaxes(X, -1, -2))
    return g_of


def levi_civita_christoffel(system: SdeSystem, cid: str, x: np.ndarray,
                            oracle: DerivOracle | None = None) -> np.ndarray:
    """G^i_{jk} = g^{il} (d_j g_{lk} + d_k g_{lj} - d_l g_{jk}) / 2."""
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle
    g_of = _metric_field(system, cid)
    g = g_of(x)
    ginv = np.linalg.inv(g)
    dg = oracle.jacobian(g_of, x)  # (..., l, k, j): d_j g_{lk}
    djglk = np.moveaxis(dg, -1, -3)  # [j, l, k]
    gamma = 0.5 * (np.einsum("...il,...jlk->...ijk", ginv, djglk)
                   + np.einsum("...il,...klj->...ijk", ginv, djglk)
                   - np.einsum("...il,...ljk->...ijk", ginv, djglk))
    return gamma


def christoffel(system: SdeSystem, cid: str, x: np.ndarray, kind: str = "lw",
                oracle: DerivOracle | None = None) -> np.ndarray:
    """Christoffels of the named connection: 'lw', 'adjoint', or 'lc'."""
    if kind == "lw":
        return lw_christoffel(system, cid, x, oracle)
    if kind == "adjoint":
        return adjoint_christoffel(lw_christoffel(system, cid, x, oracle))
    if kind == "lc":
        return levi_civita_christoffel(system, cid, x, oracle)
    raise BadParams(f"unknown connection kind {kind!r}")


def covariant_derivative(system: SdeSystem, cid: str, x: np.ndarray,
                         z_field: Callable[[np.ndarray], np.ndarray], v: np.ndarray,
                         kind: str = "lw", gamma: np.ndarray | None = None,
                         oracle: DerivOracle | None = None) -> np.ndarray:
    """(nab_v Z)(x) = DZ(x)(v) + G(v, Z(x))."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    oracle = oracle or system.oracle
    if gamma is None:
        gamma = christoffel(system, cid, x, kind, oracle)
    dz = oracle.directional(z_field, x, v)
    return dz + np.einsum("...ijk,...j,...k->...i", gamma, v, z_field(x))


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------


def torsion_from_christoffel(gamma: np.ndarray) -> np.ndarray:
    """T^i_{jk} = G^i_{jk} - G^i_{kj}; exactly antisymmetric."""
    return gamma - np.swapaxes(gamma, -1, -2)


def torsion_via_dy(system: SdeSystem, cid: str, x: np.ndarray,
                   oracle: DerivOracle | None = None) -> np.ndarray:
    """T(v, w) = X(x) dY(v, w) with dY the antisymmetrized chart derivative."""
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle

    def y_of(y: np.ndarray) -> np.ndarray:
        X = system.coeff_x(cid, y)
        return np.swapaxes(X, -1, -2) @ np.linalg.inv(X @ np.swapaxes(X, -1, -2))

    dY = oracle.jacobian(y_of, x)  # (..., r, k, j): d_j Y_{rk}
    X = system.coeff_x(cid, x)
    curl = np.moveaxis(dY, -1, -2) - dY  # [r, j, k] = d_j Y_{rk} - d_k Y_{rj}
    return np.einsum("...ir,...rjk->...ijk", X, curl)


def torsion_via_bracket(system: SdeSystem, cid: str, x: np.ndarray,
                        v1: np.ndarray, v2: np.ndarray,
                        oracle: DerivOracle | None = None) -> np.ndarray:
    """T(v1, v2) = -[Z1, Z2](x) for Z_i(y) = X(y) Y(x) v_i."""
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle
    _, _, Y, _, _ = induced_metric(system.coeff_x(cid, x))
    w1 = Y @ np.asarray(v1, dtype=float)
    w2 = Y @ np.asarray(v2, dtype=float)
    z1 = lambda y: system.coeff_x(cid, y) @ w1
    z2 = lambda y: system.coeff_x(cid, y) @ w2
    return -lie_bracket(z1, z2, x, oracle)


def lie_bracket(u_field: Callable, v_field: Callable, x: np.ndarray,
                oracle: DerivOracle) -> np.ndarray:
    """[U, V](x) = DV(x)(U(x)) - DU(x)(V(x))."""
    x = np.asarray(x, dtype=float)
    return (oracle.directional(v_field, x, u_field(x))
            - oracle.directional(u_field, x, v_field(x)))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def curvature_from_christoffel(system: SdeSystem, cid: str, x: np.ndarray,
                               kind: str = "lw",
                               oracle: DerivOracle | None = None) -> np.ndarray:
    """R^i_{jkl} = d_j G^i_{kl} - d_k G^i_{jl} + G^i_{jp} G^p_{kl} - G^i_{kp} G^p_{jl}."""
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle
    gamma_field = lambda y: christoffel(system, cid, y, kind, oracle)
    gamma = gamma_field(x)
    dg = oracle.jacobian(gamma_field, x)  # (..., i, k, l, j): d_j G^i_{kl}
    djGikl = np.moveaxis(dg, -1, -4)      # [j, i, k, l]
    term_d = (np.einsum("...jikl->...ijkl", djGikl)
              - np.einsum("...kijl->...ijkl", djGikl))
    term_q = (np.einsum("...ijp,...pkl->...ijkl", gamma, gamma)
              - np.einsum("...ikp,...pjl->...ijkl", gamma, gamma))
    return term_d + term_q


def curvature_lw_direct(gradX: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Curvature of the induced connection from first derivatives only:

    R(u, v) w = sum_i nab_u X^i <nab_v X^i, w> - nab_v X^i <nab_u X^i, w>.
    """
    gM = np.einsum("...ab,...bic->...aic", g, gradX)  # g . M_i
    return (np.einsum("...aij,...lik->...ajkl", gradX, gM)
            - np.einsum("...aik,...lij->...ajkl", gradX, gM))


def ricci_sharp(R: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """Ric#^i_j = R^i_{jkl} g^{kl}: trace over an orthonormal frame."""
    return np.einsum("...ijkl,...kl->...ij", R, ginv)


def ricci_bilinear(ric_sharp_mat: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Ric(v, w) = <Ric# v, w>_g as a (0,2)-array Ric[j, k] v^j w^k."""
    return np.einsum("...aj,...ak->...jk", ric_sharp_mat, g)


def sectional_curvature(R: np.ndarray, g: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K(u, v) = <R(u, v) v, u>_g / (|u|^2 |v|^2 - <u, v>^2)."""
    ruvv = np.einsum("...ijkl,...j,...k,...l->...i", R, u, v, v)
    num = np.einsum("...i,...ij,...j->...", ruvv, g, u)
    uu = np.einsum("...i,...ij,...j->...", u, g, u)
    vv = np.einsum("...i,...ij,...j->...", v, g, v)
    uv = np.einsum("...i,...ij,...j->...", u, g, v)
    return num / (uu * vv - uv * uv)


# ---------------------------------------------------------------------------
# identity checks (probe-based residuals)
# ---------------------------------------------------------------------------


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def defining_property_residual(system: SdeSystem, cid: str, x: np.ndarray,
                               n_probes: int = 8, seed: int = 0,
                               oracle: DerivOracle | None = None) -> float:
    """max |nab (X(.)e)(v)|_g over probes with e in the row space of X(x).

    The induced connection is characterized by this vanishing.
    """
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle
    pd = point_data(system, cid, x, oracle=oracle)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        e = pd.PT @ _unit(rng, system.m)
        nrm = np.linalg.norm(e)
        if nrm < 1e-12:
            continue
        e = e / nrm
        v = _unit(rng, system.n)
        z_field = lambda y: system.coeff_x(cid, y) @ e
        nab = covariant_derivative(system, cid, x, z_field, v, gamma=pd.gamma, oracle=oracle)
        worst = max(worst, float(np.sqrt(nab @ pd.g @ nab)))
    return worst


def pairing_derivative_residual(system: SdeSystem, cid: str, x: np.ndarray,
                                kind: str = "lw", n_probes: int = 8, seed: int = 1,
                                oracle: DerivOracle | None = None) -> float:
    """Vector-form metric compatibility through the coefficient fields:

    sum_i X^i <Z, nab_v X^i>_g + sum_i nab_v X^i <Z, X^i>_g = 0
    for metric connections; returns the max residual norm over probes.
    """
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle
    pd = point_data(system, cid, x, oracle=oracle)
    gamma = pd.gamma if kind == "lw" else christoffel(system, cid, x, kind, oracle)
    gradX = _grad_x(pd.DX, gamma, pd.X)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        z = _unit(rng, system.n)
        v = _unit(rng, system.n)
        nabv = np.einsum("...aij,...j->...ai", gradX, v)  # columns nab_v X^i
        w1 = nabv.swapaxes(-1, -2) @ pd.g @ z             # <Z, nab_v X^i>_g
        w2 = pd.X.swapaxes(-1, -2) @ pd.g @ z             # <Z, X^i>_g
        res = pd.X @ w1 + nabv @ w2
        worst = max(worst, float(np.linalg.norm(res)))
    return worst


def metricity_residual(system: SdeSystem, cid: str, x: np.ndarray,
                       kind: str = "lw", n_probes: int = 8, seed: int = 2,
                       oracle: DerivOracle | None = None) -> float:
    """max over probe fields of |d<Z,Z>_g(v) - 2 <nab_v Z, Z>_g|."""
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle
    gamma = christoffel(system, cid, x, kind, oracle)
    g_of = _metric_field(system, cid)
    g = g_of(x)
    rng = np.random.default_rng(seed)
    n = system.n
    worst = 0.0
    for _ in range(n_probes):
        z0 = _unit(rng, n)
        mat = rng.normal(size=(n, n))
        v = _unit(rng, n)
        z_field = lambda y: z0 + mat @ (y - x)
        sq_field = lambda y: np.einsum("i,ij,j->", z_field(y), g_of(y), z_field(y))
        lhs = float(oracle.directional(sq_field, x, v))
        nab = oracle.directional(z_field, x, v) + np.einsum("ijk,j,k->i", gamma, v, z0)
        rhs = 2.0 * float(nab @ g @ z0)
        worst = max(worst, abs(lhs - rhs))
    return worst


def tss_check(system: SdeSystem, cid: str, x: np.ndarray,
              n_probes: int = 8, seed: int = 3, tol: float = 1e-6,
              oracle: DerivOracle | None = None) -> tuple[bool, float, float]:
    """Is the torsion skew-symmetric: <T(u,v),w>_g = -<T(w,v),u>_g?

    Returns (verdict, residual, alt_residual) where ``alt_residual`` comes
    from the equivalent criterion that v |-> X(.)Y(x)v has Levi-Civita
    covariant derivative with vanishing symmetric part.
    """
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle
    pd = point_data(system, cid, x, oracle=oracle)
    T = torsion_from_christoffel(pd.gamma)
    gamma_lc = levi_civita_christoffel(system, cid, x, oracle)
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_alt = 0.0
    for _ in range(n_probes):
        u, v, w = (_unit(rng, system.n) for _ in range(3))
        tuvw = np.einsum("ijk,j,k->i", T, u, v) @ pd.g @ w
        twvu = np.einsum("ijk,j,k->i", T, w, v) @ pd.g @ u
        worst = max(worst, abs(tuvw + twvu))
        # Levi-Civita derivative of Z^v(y) = X(y) Y(x) v, symmetric part
        yv = pd.Y @ v
        z_field = lambda y: system.coeff_x(cid, y) @ yv
        nab_u = (oracle.directional(z_field, x, u)
                 + np.einsum("ijk,j,k->i", gamma_lc, u, v))
        nab_w = (oracle.directional(z_field, x, w)
                 + np.einsum("ijk,j,k->i", gamma_lc, w, v))
        worst_alt = max(worst_alt, abs(nab_u @ pd.g @ w + nab_w @ pd.g @ u))
    return (worst < tol, worst, worst_alt)


def lw_lc_split_residual(system: SdeSystem, cid: str, x: np.ndarray,
                         n_probes: int = 6, seed: int = 4,
                         oracle: DerivOracle | None = None) -> tuple[float, float]:
    """On torsion-skew-symmetric systems the Levi-Civita connection is the
    induced one minus half its torsion::

        nab_v Z = nab~_v Z - T(v, Z(x)) / 2

    Returns (identity residual, max_i |nab X^i (X^i)|_g with nab Levi-Civita).
    """
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle
    pd = point_data(system, cid, x, oracle=oracle)
    gamma_lc = levi_civita_christoffel(system, cid, x, oracle)
    T = torsion_from_christoffel(pd.gamma)
    rng = np.random.default_rng(seed)
    n = system.n
    worst = 0.0
    for _ in range(n_probes):
        z0 = _unit(rng, n)
        mat = rng.normal(size=(n, n))
        v = _unit(rng, n)
        z_field = lambda y: z0 + mat @ (y - x)
        dz = oracle.directional(z_field, x, v)
        lc = dz + np.einsum("ijk,j,k->i", gamma_lc, v, z0)
        lw = dz + np.einsum("ijk,j,k->i", pd.gamma, v, z0)
        half_t = 0.5 * np.einsum("ijk,j,k->i", T, v, z0)
        res = lc - (lw - half_t)
        worst = max(worst, float(np.sqrt(res @ pd.g @ res)))
    # summed autoparallel form: sum_i nab_{X^i} X^i vanishes (Levi-Civita)
    gradX_lc = _grad_x(pd.DX, gamma_lc, pd.X)
    summed = np.einsum("...aij,...ji->...a", gradX_lc, pd.X)
    norm = np.sqrt(np.einsum("...a,...ab,...b->...", summed, pd.g, summed))
    return worst, float(np.max(norm))


def stratonovich_term(system: SdeSystem, cid: str, x: np.ndarray, kind: str = "lw",
                      oracle: DerivOracle | None = None) -> np.ndarray:
    """sum_i nab_{X^i} X^i for the named connection."""
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle
    pd = point_data(system, cid, x, oracle=oracle)
    gamma = pd.gamma if kind == "lw" else christoffel(system, cid, x, kind, oracle)
    gradX = _grad_x(pd.DX, gamma, pd.X)
    return np.einsum("...aij,...ji->...a", gradX, pd.X)


def connection_routes_residual(system: SdeSystem, cid: str, x: np.ndarray,
                               n_probes: int = 4, seed: int = 5,
                               oracle: DerivOracle | None = None) -> float:
    """Cross-check the Christoffel formula against two equivalent routes:

    (a) nab_v Z = X(x) d/dt [ Y(c(t)) Z(c(t)) ] at t=0 along c(t) = x + t v;
    (b) nab_v Z = sum_i [X^i, V](x) <X^i, Z>_g + [V, Z](x) for any extension
        V of v (tested with a random linear extension).
    """
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle
    pd = point_data(system, cid, x, oracle=oracle)
    rng = np.random.default_rng(seed)
    n = system.n
    worst = 0.0
    for _ in range(n_probes):
        z0 = _unit(rng, n)
        mat = rng.normal(size=(n, n))
        vmat = rng.normal(size=(n, n))
        v = _unit(rng, n)
        z_field = lambda y: z0 + mat @ (y - x)
        ref = (oracle.directional(z_field, x, v)
               + np.einsum("ijk,j,k->i", pd.gamma, v, z0))

        def curve_pairing(t: np.ndarray) -> np.ndarray:
            y = x + t[0] * v
            Xy = system.coeff_x(cid, y)
            gy = np.linalg.inv(Xy @ Xy.T)
            return Xy.T @ gy @ z_field(y)

        d_pair = oracle.directional(curve_pairing, np.zeros(1), np.ones(1))
        route_a = pd.X @ d_pair
        worst = max(worst, float(np.linalg.norm(route_a - ref)))

        v_field = lambda y: v + vmat @ (y - x)
        acc = np.zeros(n)
        yz = pd.Y @ z0  # <X^i, Z>_g
        for i in range(system.m):
            ei = np.zeros(system.m)
            ei[i] = 1.0
            xi_field = lambda y, ei=ei: system.coeff_x(cid, y) @ ei
            acc = acc + lie_bracket(xi_field, v_field, x, oracle) * yz[i]
        route_b = acc + lie_bracket(v_field, z_field, x, oracle)
        worst = max(worst, float(np.linalg.norm(route_b - ref)))
    return worst


# ---------------------------------------------------------------------------
# moment growth form
# ---------------------------------------------------------------------------


def moment_quadratic(pd: PointData) -> np.ndarray:
    """Symmetric matrix B with B(v, v) = 2<nab A(v), v> - <Ric# v, v> + sum_i |nab X^i(v)|^2
    (all in the induced metric); the quadratic part of the moment form."""
    g = pd.g
    na = pd.nabla_a
    term_a = np.swapaxes(na, -1, -2) @ g + g @ na
    term_r = 0.5 * (np.swapaxes(pd.ric_sharp, -1, -2) @ g + g @ pd.ric_sharp)
    term_x = np.einsum("...aib,...ac,...cid->...bd", pd.gradX, g, pd.gradX)
    return term_a - term_r + sym(term_x)


def _moment_quartics(pd: PointData) -> np.ndarray:
    """C_i with <nab X^i(v), v>_g = v^T C_i v; stacked (..., m, n, n)."""
    gM = np.einsum("...ab,...bic->...iac", pd.g, pd.gradX)
    return sym(gM)


def moment_form(pd: PointData, v: np.ndarray, p: float) -> np.ndarray:
    """H_p(v, v) = 2<nab A(v),v> - <Ric# v,v> + sum_i |nab X^i(v)|^2
    + (p-2) sum_i <nab X^i(v), v>^2 / |v|^2, induced metric throughout."""
    v = np.asarray(v, dtype=float)
    vv = np.einsum("...i,...ij,...j->...", v, pd.g, v)
    if np.any(vv == 0.0):
        raise ZeroVector("moment form requires a nonzero vector")
    quad = np.einsum("...i,...ij,...j->...", v, moment_quadratic(pd), v)
    ci = _moment_quartics(pd)
    pair = np.einsum("...i,...kij,...j->...k", v, ci, v)
    return quad + (p - 2.0) * np.einsum("...k,...k->...", pair, pair) / vv


def moment_form_extremes(pd: PointData, p: float, *, grid: int = 512,
                         restarts: int = 32, iters: int = 300,
                         tol: float = 1e-8, seed: int = 2024) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) of H_p over |v|_g = 1, batched.

    p = 2 reduces to a symmetric eigenproblem.  Otherwise, dimension 2 uses a
    dense angular grid with parabolic refinement; higher dimensions use
    projected gradient ascent/descent from fixed random restarts.
    """
    B = moment_quadratic(pd)
    L = np.linalg.cholesky(pd.g)
    Linv = np.linalg.inv(L)
    Bt = Linv @ B @ np.swapaxes(Linv, -1, -2)
    Ci = _moment_quartics(pd)
    Cit = np.einsum("...ab,...kbc,...dc->...kad", Linv, Ci, Linv)
    quart_scale = float(np.max(np.abs(Cit))) if Cit.size else 0.0
    n = B.shape[-1]
    if p == 2.0 or quart_scale < 1e-12:
        evals = np.linalg.eigvalsh(Bt)
        lam = p - 2.0
        if quart_scale < 1e-12 or lam == 0.0:
            return evals[..., 0], evals[..., -1]

    def objective(y: np.ndarray) -> np.ndarray:
        # y: (..., K, n) unit vectors
        quad = np.einsum("...ki,...ij,...kj->...k", y, Bt, y)
        pair = np.einsum("...ki,...aij,...kj->...ka", y, Cit, y)
        return quad + (p - 2.0) * np.einsum("...ka,...ka->...k", pair, pair)

    if n == 2:
        th = np.linspace(0.0, np.pi, grid, endpoint=False)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)  # (grid, 2)
        y = np.broadcast_to(dirs, B.shape[:-2] + dirs.shape)
        f = objective(y)
        dth = np.pi / grid

        def refine(idx, mode):
            f0 = np.take_along_axis(f, ((idx - 1) % grid)[..., None], -1)[..., 0]
            f1 = np.take_along_axis(f, idx[..., None], -1)[..., 0]
            f2 = np.take_along_axis(f, ((idx + 1) % grid)[..., None], -1)[..., 0]
            denom = f0 - 2.0 * f1 + f2
            shift = np.where(np.abs(denom) > 1e-300, 0.5 * (f0 - f2) / np.where(denom == 0, 1.0, denom), 0.0)
            shift = np.clip(shift, -1.0, 1.0)
            t = th[idx] + shift * dth
            yref = np.stack([np.cos(t), np.sin(t)], axis=-1)[..., None, :]
            return objective(yref)[..., 0]

        hi = refine(np.argmax(f, axis=-1), "max")
        lo = refine(np.argmin(f, axis=-1), "min")
        return lo, hi

    # generic: projected gradient from fixed restarts
    rng = np.random.default_rng(seed)
    starts = rng.normal(size=(restarts, n))
    starts /= np.linalg.norm(starts, axis=-1, keepdims=True)
    y = np.broadcast_to(starts, B.shape[:-2] + starts.shape).copy()

    def grad(yv: np.ndarray) -> np.ndarray:
        gq = 2.0 * np.einsum("...ij,...kj->...ki", Bt, yv)
        pair = np.einsum("...ki,...aij,...kj->...ka", yv, Cit, yv)
        gquart = 4.0 * (p - 2.0) * np.einsum("...ka,...aij,...kj->...ki", pair, Cit, yv)
        return gq + gquart

    outs = []
    for sign in (1.0, -1.0):
        yv = y.copy()
        step = 0.05
        prev = objective(yv)
        for _ in range(iters):
            yv = yv + sign * step * grad(yv)
            yv /= np.linalg.norm(yv, axis=-1, keepdims=True)
            cur = objective(yv)
            if float(np.max(np.abs(cur - prev))) < tol:
                break
            prev = cur
        vals = objective(yv)
        outs.append(np.max(vals, axis=-1) if sign > 0 else np.min(vals, axis=-1))
    return outs[1], outs[0]


# ---------------------------------------------------------------------------
# scalar and one-form generators
# ---------------------------------------------------------------------------


def scalar_from_expr(system: SdeSystem, cid: str, source: str) -> Callable[[np.ndarray], np.ndarray]:
    """Scalar field on the chart, defined by an expression in the embedded
    coordinates (x1..xD of ``system.embed``)."""
    tree = ex.parse(source) if isinstance(source, str) else source
    if ex.max_var_index(tree) >= system.embed_dim:
        raise BadParams(
            f"test function uses x{ex.max_var_index(tree) + 1} but the embedding "
            f"has dimension {system.embed_dim}")

    def f(y: np.ndarray) -> np.ndarray:
        emb = system.embed(cid, np.asarray(y, dtype=float))
        val = ex.evaluate(tree, np.moveaxis(emb, -1, 0))
        return np.broadcast_to(np.asarray(val, dtype=float), np.asarray(y).shape[:-1])

    return f


def scalar_generator(system: SdeSystem, cid: str, x: np.ndarray,
                     f: Callable[[np.ndarray], np.ndarray],
                     oracle: DerivOracle | None = None) -> tuple[float, float]:
    """Generator of the diffusion applied to a scalar, by two routes:

    - induced-connection form: trace nab~(grad f)/2 + <A, grad f>_g
      (the Stratonovich correction vanishes for the induced connection);
    - Levi-Civita form: Laplace-Beltrami/2 + <sum_i nab X^i(X^i)/2 + A, grad f>_g.

    Returns (induced_value, levi_civita_value).
    """
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle
    pd = point_data(system, cid, x, oracle=oracle)

    def gradf(y: np.ndarray) -> np.ndarray:
        Xy = system.coeff_x(cid, y)
        df = oracle.jacobian(f, y)
        return np.einsum("...ir,...jr,...j->...i", Xy, Xy, df)  # ginv = X X^T

    gf = gradf(x)
    dgf = oracle.jacobian(gradf, x)
    gamma_lc = levi_civita_christoffel(system, cid, x, oracle)
    tr_lw = np.trace(dgf) + np.einsum("iik,k->", pd.gamma, gf)
    tr_lc = np.trace(dgf) + np.einsum("iik,k->", gamma_lc, gf)
    drift_lw = pd.A
    strat_lc = stratonovich_term(system, cid, x, kind="lc", oracle=oracle)
    lw_val = 0.5 * tr_lw + float(drift_lw @ pd.g @ gf)
    lc_val = 0.5 * tr_lc + float((0.5 * strat_lc + pd.A) @ pd.g @ gf)
    return float(lw_val), float(lc_val)


def one_form_from_spec(system: SdeSystem, cid: str, spec,
                       oracle: DerivOracle | None = None) -> Callable[[np.ndarray], np.ndarray]:
    """Build a covector field y -> (phi_1..phi_n) from a config spec:
    {"d_of": expr} for the differential of an embedded scalar, or
    {"components": [expr, ...]} for chart components (single-chart systems)."""
    oracle = oracle or system.oracle
    if isinstance(spec, dict) and "d_of" in spec:
        f = scalar_from_expr(system, cid, spec["d_of"])
        return lambda y: oracle.jacobian(f, y)
    if isinstance(spec, dict) and "components" in spec:
        comps = [ex.parse(s) for s in spec["components"]]
        if len(comps) != system.n:
            raise BadParams(f"one-form needs {system.n} components")
        if len(system.charts) > 1:
            raise BadParams("component-defined one-forms need a single-chart scenario")

        def phi(y: np.ndarray) -> np.ndarray:
            y = np.asarray(y, dtype=float)
            vals = [np.broadcast_to(ex.evaluate(c, np.moveaxis(y, -1, 0)), y.shape[:-1])
                    for c in comps]
            return np.stack(vals, axis=-1)

        return phi
    raise BadParams("one-form spec needs 'd_of' or 'components'")


def _hat_nabla_1form(system: SdeSystem, cid: str, phi: Callable,
                     oracle: DerivOracle) -> Callable[[np.ndarray], np.ndarray]:
    """S(y)[j, k] = (nab^_{e_j} phi)(e_k) with the adjoint connection."""

    def S(y: np.ndarray) -> np.ndarray:
        dphi = oracle.jacobian(phi, y)  # [k, j] = d_j phi_k
        gamma_adj = adjoint_christoffel(lw_christoffel(system, cid, y, oracle))
        return (np.swapaxes(dphi, -1, -2)
                - np.einsum("...pjk,...p->...jk", gamma_adj, phi(y)))

    return S


def codifferential_1form(system: SdeSystem, cid: str, x: np.ndarray, phi: Callable,
                         oracle: DerivOracle | None = None) -> np.ndarray:
    """delta-bar phi = -sum_i (nab^_{X^i} phi)(X^i) = -g^{jk} S_{jk}, batched."""
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle
    S = _hat_nabla_1form(system, cid, phi, oracle)(x)
    X = system.coeff_x(cid, x)
    ginv = X @ np.swapaxes(X, -1, -2)
    return -np.einsum("...jk,...jk->...", ginv, S)


def codifferential_1form_lie(system: SdeSystem, cid: str, x: np.ndarray, phi: Callable,
                             oracle: DerivOracle | None = None) -> float:
    """Same codifferential through Lie derivatives: -sum_i (L_{X^i} phi)(X^i)."""
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle
    X = system.coeff_x(cid, x)
    DX = oracle.jacobian(lambda y: system.coeff_x(cid, y), x)
    dphi = oracle.jacobian(phi, x)
    p = phi(x)
    term1 = np.einsum("...ji,...kj,...ki->...", X, dphi, X)
    term2 = np.einsum("...j,...jik,...ki->...", p, DX, X)
    return float(-(term1 + term2))


def exterior_derivative_1form(phi: Callable, x: np.ndarray, oracle: DerivOracle) -> np.ndarray:
    """(d phi)[j, k] = d_j phi_k - d_k phi_j."""
    dphi = oracle.jacobian(phi, x)
    return np.swapaxes(dphi, -1, -2) - dphi


def one_form_generator(system: SdeSystem, cid: str, x: np.ndarray, phi: Callable,
                       v: np.ndarray, oracle: DerivOracle | None = None) -> float:
    """Generator on 1-forms at (x, v): half the adjoint-connection trace
    Hessian, minus half the curvature term phi(Ric# v), plus the drift Lie
    term::

        (G phi)(v) = (trace nab^2 phi)(v)/2 - phi(Ric# v)/2 + (L_A phi)(v)
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    oracle = oracle or system.oracle
    pd = point_data(system, cid, x, oracle=oracle)
    S_field = _hat_nabla_1form(system, cid, phi, oracle)
    S = S_field(x)
    dS = oracle.jacobian(S_field, x)  # [j, k, l] = d_l S_{jk}
    dlSjk = np.moveaxis(dS, -1, -3)   # [l, j, k]
    T2 = (dlSjk
          - np.einsum("...plj,...pk->...ljk", pd.gamma_adj, S)
          - np.einsum("...plk,...jp->...ljk", pd.gamma_adj, S))
    lap = np.einsum("...lj,...ljk->...k", pd.ginv, T2)
    ric_term = np.einsum("...a,...ab,...b->...", phi(x), pd.ric_sharp, v)
    lie_a = 0.0
    if system.has_drift:
        dphi = oracle.jacobian(phi, x)
        lie_vec = (np.einsum("...j,...kj->...k", pd.A, dphi)
                   + np.einsum("...j,...jk->...k", phi(x), pd.DA))
        lie_a = float(lie_vec @ v)
    return float(0.5 * lap @ v - 0.5 * ric_term + lie_a)


def one_form_generator_hodge(system: SdeSystem, cid: str, x: np.ndarray, phi: Callable,
                             v: np.ndarray, oracle: DerivOracle | None = None) -> float:
    """Same operator through the codifferential: -(delta-bar d + d delta-bar)/2
    plus the drift Lie term."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    oracle = oracle or system.oracle

    dbar = lambda y: codifferential_1form(system, cid, y, phi, oracle)
    d_dbar = oracle.jacobian(dbar, x)

    # two-form psi = d phi, then delta-bar psi
    def psi(y: np.ndarray) -> np.ndarray:
        return exterior_derivative_1form(phi, y, oracle)

    ps = psi(x)
    dpsi = oracle.jacobian(psi, x)  # [j, k, l] = d_l psi_{jk}
    gamma_adj = adjoint_christoffel(lw_christoffel(system, cid, x, oracle))
    dl = np.moveaxis(dpsi, -1, -3)  # [l, j, k]
    U = (dl
         - np.einsum("...plj,...pk->...ljk", gamma_adj, ps)
         - np.einsum("...plk,...jp->...ljk", gamma_adj, ps))
    X = system.coeff_x(cid, x)
    ginv = X @ np.swapaxes(X, -1, -2)
    dbar_dphi = -np.einsum("...lj,...ljk->...k", ginv, U)
    val = -0.5 * float((dbar_dphi + d_dbar) @ v)
    if system.has_drift:
        pd = point_data(system, cid, x, oracle=oracle)
        dphi = oracle.jacobian(phi, x)
        lie_vec = (np.einsum("...j,...kj->...k", pd.A, dphi)
                   + np.einsum("...j,...jk->...k", phi(x), pd.DA))
        val += float(lie_vec @ v)
    return val


# ---------------------------------------------------------------------------
# assembled per-point report
# ---------------------------------------------------------------------------


@dataclass
class GeometryPoint:
    """Everything the tensor report shows for one point."""

    cid: str
    x: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    Y: np.ndarray
    PT: np.ndarray
    PN: np.ndarray
    gamma_lw: np.ndarray
    gamma_adjoint: np.ndarray
    gamma_lc: np.ndarray
    torsion: np.ndarray
    curvature_lw: np.ndarray
    ric_sharp_lw: np.ndarray
    ricci_lw: np.ndarray


def geometry_point(system: SdeSystem, cid: str, x: np.ndarray,
                   oracle: DerivOracle | None = None) -> GeometryPoint:
    x = np.asarray(x, dtype=float)
    oracle = oracle or system.oracle
    sv = np.linalg.svd(system.coeff_x(cid, x), compute_uv=False)
    if float(sv.min()) <= 1e-8:
        raise DegenerateX(f"X loses rank at {cid}:{x} (min sv {sv.min():.2e})")
    pd = point_data(system, cid, x, oracle=oracle)
    gamma_lc = levi_civita_christoffel(system, cid, x, oracle)
    R = curvature_lw_direct(pd.gradX, pd.g)
    rs = pd.ric_sharp
    return GeometryPoint(
        cid=cid, x=x, g=pd.g, ginv=pd.ginv, Y=pd.Y, PT=pd.PT, PN=pd.PN,
        gamma_lw=pd.gamma, gamma_adjoint=pd.gamma_adj, gamma_lc=gamma_lc,
        torsion=torsion_from_christoffel(pd.gamma), curvature_lw=R,
        ric_sharp_lw=rs, ricci_lw=ricci_bilinear(rs, pd.g),
    )
