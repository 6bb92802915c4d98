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
single points and batched Monte Carlo sweeps.  Every finite difference goes
through the system's one oracle, ``system.oracle``.
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


def _autoparallel_sum(pd: PointData, gamma: np.ndarray) -> np.ndarray:
    """sum_i nab_{X^i} X^i for the connection with Christoffels ``gamma``."""
    return np.einsum("...aij,...ji->...a", _grad_x(pd.DX, gamma, pd.X), pd.X)


def point_data(system: SdeSystem, cid: str, x: np.ndarray, *,
               light: bool = False) -> PointData:
    """Assemble coefficients and induced tensors at ``x`` (batched).

    ``DX`` is the system's ``coeff_dx`` (a closed form where the scenario has
    one); ``SdeSystem.oracle`` differentiates the drift.
    """
    x = np.asarray(x, dtype=float)
    X = system.coeff_x(cid, x)
    A = system.coeff_a(cid, x)
    DX = system.coeff_dx(cid, x)
    DA = system.oracle.jacobian(lambda y: system.coeff_a(cid, y), x) if system.has_drift else None
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


def lw_christoffel(system: SdeSystem, cid: str, x: np.ndarray) -> np.ndarray:
    """Christoffels of the coefficient-induced connection, G(v,w) = -DX(v)(Yw).

    DX comes from the finite-difference oracle, never from ``coeff_dx``, so
    this stays a route independent of ``point_data``.
    """
    x = np.asarray(x, dtype=float)
    X = system.coeff_x(cid, x)
    _, _, Y, _, _ = induced_metric(X)
    DX = system.oracle.jacobian(lambda y: system.coeff_x(cid, y), x)
    return _induced_gamma(DX, Y)


def adjoint_christoffel(gamma: np.ndarray) -> np.ndarray:
    """Adjoint connection: swap the two lower indices (exact)."""
    return np.swapaxes(gamma, -1, -2)


def _metric_field(system: SdeSystem, cid: str | np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The induced metric ``y -> (X X^T)^-1`` in chart(s) ``cid``: one chart
    name, or one per row of ``y``."""

    def g_of(y: np.ndarray) -> np.ndarray:
        X = system.coeff_x(cid, y)
        return np.linalg.inv(X @ np.swapaxes(X, -1, -2))
    return g_of


def levi_civita_christoffel(system: SdeSystem, cid: str, x: np.ndarray) -> np.ndarray:
    """G^i_{jk} = g^{il} (d_j g_{lk} + d_k g_{lj} - d_l g_{jk}) / 2."""
    x = np.asarray(x, dtype=float)
    g_of = _metric_field(system, cid)
    g = g_of(x)
    ginv = np.linalg.inv(g)
    dg = system.oracle.jacobian(g_of, x)  # (..., l, k, j): d_j g_{lk}
    djglk = np.moveaxis(dg, -1, -3)  # [j, l, k]
    gamma = 0.5 * (np.einsum("...il,...jlk->...ijk", ginv, djglk)
                   + np.einsum("...il,...klj->...ijk", ginv, djglk)
                   - np.einsum("...il,...ljk->...ijk", ginv, djglk))
    return gamma


def christoffel(system: SdeSystem, cid: str, x: np.ndarray, kind: str = "lw") -> np.ndarray:
    """Christoffels of the named connection: 'lw', 'adjoint', or 'lc'."""
    if kind == "lw":
        return lw_christoffel(system, cid, x)
    if kind == "adjoint":
        return adjoint_christoffel(lw_christoffel(system, cid, x))
    if kind == "lc":
        return levi_civita_christoffel(system, cid, x)
    raise BadParams(f"unknown connection kind {kind!r}")


def covariant_derivative(system: SdeSystem, cid: str, x: np.ndarray,
                         z_field: Callable[[np.ndarray], np.ndarray], v: np.ndarray,
                         kind: str = "lw", gamma: np.ndarray | None = None) -> np.ndarray:
    """(nab_v Z)(x) = DZ(x)(v) + G(v, Z(x)).

    ``x`` and ``v`` broadcast over their leading axes, and ``z_field`` must
    map ``(..., n)`` to ``(..., n)``: its derivative is one oracle call.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if gamma is None:
        gamma = christoffel(system, cid, x, kind)
    dz = system.oracle.directional(z_field, x, v)
    return dz + np.einsum("...ijk,...j,...k->...i", gamma, v, z_field(x))


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------


def torsion_from_christoffel(gamma: np.ndarray) -> np.ndarray:
    """T^i_{jk} = G^i_{jk} - G^i_{kj}; exactly antisymmetric."""
    return gamma - np.swapaxes(gamma, -1, -2)


def torsion_via_dy(system: SdeSystem, cid: str, x: np.ndarray) -> np.ndarray:
    """T(v, w) = X(x) dY(v, w) with dY the antisymmetrized chart derivative."""
    x = np.asarray(x, dtype=float)

    def y_of(y: np.ndarray) -> np.ndarray:
        X = system.coeff_x(cid, y)
        return np.swapaxes(X, -1, -2) @ np.linalg.inv(X @ np.swapaxes(X, -1, -2))

    dY = system.oracle.jacobian(y_of, x)  # (..., r, k, j): d_j Y_{rk}
    X = system.coeff_x(cid, x)
    curl = np.moveaxis(dY, -1, -2) - dY  # [r, j, k] = d_j Y_{rk} - d_k Y_{rj}
    return np.einsum("...ir,...rjk->...ijk", X, curl)


def torsion_via_bracket(system: SdeSystem, cid: str, x: np.ndarray,
                        v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """T(v1, v2) = -[Z1, Z2](x) for Z_i(y) = X(y) Y(x) v_i.

    ``x``, ``v1`` and ``v2`` broadcast over their leading axes; the result
    has their common shape ``(..., n)``.
    """
    x = np.asarray(x, dtype=float)
    _, _, Y, _, _ = induced_metric(system.coeff_x(cid, x))
    w1 = np.einsum("...rk,...k->...r", Y, np.asarray(v1, dtype=float))
    w2 = np.einsum("...rk,...k->...r", Y, np.asarray(v2, dtype=float))
    z1 = lambda y: np.einsum("...ir,...r->...i", system.coeff_x(cid, y), w1)
    z2 = lambda y: np.einsum("...ir,...r->...i", system.coeff_x(cid, y), w2)
    return -lie_bracket(z1, z2, x, system.oracle)


def lie_bracket(u_field: Callable, v_field: Callable, x: np.ndarray,
                oracle: DerivOracle) -> np.ndarray:
    """[U, V](x) = DV(x)(U(x)) - DU(x)(V(x)), batched over leading axes of
    ``x``; both fields must map ``(..., n)`` to ``(..., n)``."""
    x = np.asarray(x, dtype=float)
    return (oracle.directional(v_field, x, u_field(x))
            - oracle.directional(u_field, x, v_field(x)))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def curvature_from_christoffel(system: SdeSystem, cid: str, x: np.ndarray,
                               kind: str = "lw") -> np.ndarray:
    """R^i_{jkl} = d_j G^i_{kl} - d_k G^i_{jl} + G^i_{jp} G^p_{kl} - G^i_{kp} G^p_{jl}."""
    x = np.asarray(x, dtype=float)
    gamma_field = lambda y: christoffel(system, cid, y, kind)
    gamma = gamma_field(x)
    dg = system.oracle.jacobian(gamma_field, x)  # (..., i, k, l, j): d_j G^i_{kl}
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


def _probes(n_probes: int, draw: Callable[[], tuple]) -> tuple[np.ndarray, ...]:
    """Call ``draw`` once per probe, in order, and stack each of its outputs
    along a leading probe axis of length ``n_probes``."""
    return tuple(np.array(col) for col in zip(*(draw() for _ in range(n_probes))))


def _gnorm(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """|w|_g for probe vectors ``w[..., p, :]`` at the points of ``g[..., :, :]``."""
    return np.sqrt(np.einsum("...pi,...ij,...pj->...p", w, g, w))


# Probe-based identity checks take points ``x`` of shape ``(..., n)`` and
# return one residual per point, an array over the leading axes of ``x`` (a
# numpy scalar for a single point).  The probe vectors come from one seeded
# stream shared by every point, drawn in the order a single point uses them;
# they sit on a probe axis after the point axes, and every derivative over
# all points and probes is one oracle call.


def defining_property_residual(system: SdeSystem, cid: str, x: np.ndarray,
                               n_probes: int = 8, seed: int = 0) -> np.ndarray:
    """max |nab (X(.)e)(v)|_g over probes with e in the row space of X(x).

    The induced connection is characterized by this vanishing.  One residual
    per point of ``x`` (shape ``(..., n)``); probes whose ``e`` vanishes at a
    point are skipped there.
    """
    x = np.asarray(x, dtype=float)
    pd = point_data(system, cid, x)
    rng = np.random.default_rng(seed)
    u, v = _probes(n_probes, lambda: (_unit(rng, system.m), _unit(rng, system.n)))
    e = np.einsum("...rs,ps->...pr", pd.PT, u)                 # (..., K, m)
    nrm = np.linalg.norm(e, axis=-1)
    keep = nrm >= 1e-12
    e = e / np.where(keep, nrm, 1.0)[..., None]
    z_field = lambda y: np.einsum("...ir,...r->...i", system.coeff_x(cid, y), e)
    nab = covariant_derivative(system, cid, x[..., None, :], z_field, v,
                               gamma=pd.gamma[..., None, :, :, :])
    return np.max(np.where(keep, _gnorm(nab, pd.g), 0.0), axis=-1)


def pairing_derivative_residual(system: SdeSystem, cid: str, x: np.ndarray,
                                kind: str = "lw", n_probes: int = 8,
                                seed: int = 1) -> np.ndarray:
    """Vector-form metric compatibility through the coefficient fields:

    sum_i X^i <Z, nab_v X^i>_g + sum_i nab_v X^i <Z, X^i>_g = 0
    for metric connections; returns the max residual norm over probes, per
    point of ``x`` (shape ``(..., n)``).
    """
    x = np.asarray(x, dtype=float)
    pd = point_data(system, cid, x)
    gamma = pd.gamma if kind == "lw" else christoffel(system, cid, x, kind)
    gradX = _grad_x(pd.DX, gamma, pd.X)
    rng = np.random.default_rng(seed)
    z, v = _probes(n_probes, lambda: (_unit(rng, system.n), _unit(rng, system.n)))
    nabv = np.einsum("...aij,pj->...pai", gradX, v)           # columns nab_v X^i
    gz = np.einsum("...ab,pb->...pa", pd.g, z)
    w1 = np.einsum("...pai,...pa->...pi", nabv, gz)           # <Z, nab_v X^i>_g
    w2 = np.einsum("...ai,...pa->...pi", pd.X, gz)            # <Z, X^i>_g
    res = (np.einsum("...ai,...pi->...pa", pd.X, w1)
           + np.einsum("...pai,...pi->...pa", nabv, w2))
    return np.max(np.linalg.norm(res, axis=-1), axis=-1)


def _linear_fields(x: np.ndarray, z0: np.ndarray, mat: np.ndarray) -> Callable:
    """The probe fields ``y -> z0[p] + mat[p] (y - x)``, one per probe ``p``:
    maps ``(..., K, n)`` arrays (the points of ``x``, then the probes) to
    ``(..., K, n)``."""
    xk = x[..., None, :]
    return lambda y: z0 + np.einsum("...ij,...j->...i", mat, y - xk)


def metricity_residual(system: SdeSystem, cid: str, x: np.ndarray,
                       kind: str = "lw", n_probes: int = 8, seed: int = 2) -> np.ndarray:
    """max over probe fields of |d<Z,Z>_g(v) - 2 <nab_v Z, Z>_g|, per point
    of ``x`` (shape ``(..., n)``)."""
    x = np.asarray(x, dtype=float)
    oracle = system.oracle
    gamma = christoffel(system, cid, x, kind)
    g_of = _metric_field(system, cid)
    g = g_of(x)
    rng = np.random.default_rng(seed)
    n = system.n
    z0, mat, v = _probes(n_probes, lambda: (_unit(rng, n), rng.normal(size=(n, n)),
                                            _unit(rng, n)))
    z_field = _linear_fields(x, z0, mat)

    def sq_field(y: np.ndarray) -> np.ndarray:
        z = z_field(y)
        return np.einsum("...i,...ij,...j->...", z, g_of(y), z)

    xk = x[..., None, :]
    lhs = oracle.directional(sq_field, xk, v)
    nab = (oracle.directional(z_field, xk, v)
           + np.einsum("...ijk,pj,pk->...pi", gamma, v, z0))
    rhs = 2.0 * np.einsum("...pi,...ij,pj->...p", nab, g, z0)
    return np.max(np.abs(lhs - rhs), axis=-1)


TSS_TOL = 1e-6  # the skew-torsion verdict, on either tss_check route


def _torsion_skew(system: SdeSystem, cid: str, x: np.ndarray) -> tuple:
    """The torsion route of ``tss_check``: (verdict, residual, point data,
    probes).

    The residual is max |<T(u,v),w>_g + <T(w,v),u>_g| over 8 probe triples
    ``(u, v, w)`` (seed 3), per point of ``x``; the verdict is that it is
    below ``TSS_TOL``, i.e. the torsion is skew-symmetric.
    """
    pd = point_data(system, cid, x)
    T = torsion_from_christoffel(pd.gamma)
    rng = np.random.default_rng(3)
    u, v, w = _probes(8, lambda: tuple(_unit(rng, system.n) for _ in range(3)))
    tuv = np.einsum("...ijk,pj,pk->...pi", T, u, v)
    twv = np.einsum("...ijk,pj,pk->...pi", T, w, v)
    skew = (np.einsum("...pi,...ij,pj->...p", tuv, pd.g, w)
            + np.einsum("...pi,...ij,pj->...p", twv, pd.g, u))
    worst = np.max(np.abs(skew), axis=-1)
    return worst < TSS_TOL, worst, pd, (u, v, w)


def tss_check(system: SdeSystem, cid: str, x: np.ndarray) -> tuple:
    """Is the torsion skew-symmetric: <T(u,v),w>_g = -<T(w,v),u>_g?

    Returns (verdict, residual, alt_residual), each over the leading axes of
    ``x``, where ``alt_residual`` comes from the equivalent criterion that
    v |-> X(.)Y(x)v has Levi-Civita covariant derivative with vanishing
    symmetric part.  The verdict is ``residual < TSS_TOL``.
    """
    x = np.asarray(x, dtype=float)
    oracle = system.oracle
    ok, worst, pd, (u, v, w) = _torsion_skew(system, cid, x)
    gamma_lc = levi_civita_christoffel(system, cid, x)
    # Levi-Civita derivative of Z^v(y) = X(y) Y(x) v, symmetric part
    yv = np.einsum("...ri,pi->...pr", pd.Y, v)
    z_field = lambda y: np.einsum("...ir,...r->...i", system.coeff_x(cid, y), yv)
    xk = x[..., None, :]
    nab_u = (oracle.directional(z_field, xk, u)
             + np.einsum("...ijk,pj,pk->...pi", gamma_lc, u, v))
    nab_w = (oracle.directional(z_field, xk, w)
             + np.einsum("...ijk,pj,pk->...pi", gamma_lc, w, v))
    alt = (np.einsum("...pi,...ij,pj->...p", nab_u, pd.g, w)
           + np.einsum("...pi,...ij,pj->...p", nab_w, pd.g, u))
    return (ok, worst, np.max(np.abs(alt), axis=-1))


def lw_lc_split_residual(system: SdeSystem, cid: str, x: np.ndarray,
                         n_probes: int = 6, seed: int = 4) -> tuple:
    """On torsion-skew-symmetric systems the Levi-Civita connection is the
    induced one minus half its torsion::

        nab_v Z = nab~_v Z - T(v, Z(x)) / 2

    Returns (identity residual, max_i |nab X^i (X^i)|_g with nab Levi-Civita),
    each over the leading axes of ``x``.
    """
    x = np.asarray(x, dtype=float)
    pd = point_data(system, cid, x)
    gamma_lc = levi_civita_christoffel(system, cid, x)
    T = torsion_from_christoffel(pd.gamma)
    rng = np.random.default_rng(seed)
    n = system.n
    z0, mat, v = _probes(n_probes, lambda: (_unit(rng, n), rng.normal(size=(n, n)),
                                            _unit(rng, n)))
    dz = system.oracle.directional(_linear_fields(x, z0, mat), x[..., None, :], v)
    lc = dz + np.einsum("...ijk,pj,pk->...pi", gamma_lc, v, z0)
    lw = dz + np.einsum("...ijk,pj,pk->...pi", pd.gamma, v, z0)
    half_t = 0.5 * np.einsum("...ijk,pj,pk->...pi", T, v, z0)
    worst = np.max(_gnorm(lc - (lw - half_t), pd.g), axis=-1)
    # summed autoparallel form: sum_i nab_{X^i} X^i vanishes (Levi-Civita)
    summed = _autoparallel_sum(pd, gamma_lc)
    norm = np.sqrt(np.einsum("...a,...ab,...b->...", summed, pd.g, summed))
    return worst, norm


def stratonovich_term(system: SdeSystem, cid: str, x: np.ndarray,
                      kind: str = "lw") -> np.ndarray:
    """sum_i nab_{X^i} X^i for the named connection, shape ``(..., n)``."""
    x = np.asarray(x, dtype=float)
    pd = point_data(system, cid, x)
    gamma = pd.gamma if kind == "lw" else christoffel(system, cid, x, kind)
    return _autoparallel_sum(pd, gamma)


def connection_routes_residual(system: SdeSystem, cid: str, x: np.ndarray,
                               n_probes: int = 4, seed: int = 5) -> np.ndarray:
    """Cross-check the Christoffel formula against two equivalent routes:

    (a) nab_v Z = X(x) d/dt [ Y(c(t)) Z(c(t)) ] at t=0 along c(t) = x + t v;
    (b) nab_v Z = sum_i [X^i, V](x) <X^i, Z>_g + [V, Z](x) for any extension
        V of v (tested with a random linear extension).

    Returns the max over probes and both routes, per point of ``x`` (shape
    ``(..., n)``).
    """
    x = np.asarray(x, dtype=float)
    oracle = system.oracle
    pd = point_data(system, cid, x)
    rng = np.random.default_rng(seed)
    n = system.n
    z0, mat, vmat, v = _probes(n_probes, lambda: (
        _unit(rng, n), rng.normal(size=(n, n)), rng.normal(size=(n, n)), _unit(rng, n)))
    xk = np.broadcast_to(x[..., None, :], x.shape[:-1] + (n_probes, n))
    z_field = _linear_fields(x, z0, mat)
    ref = (oracle.directional(z_field, xk, v)
           + np.einsum("...ijk,pj,pk->...pi", pd.gamma, v, z0))

    def curve_pairing(t: np.ndarray) -> np.ndarray:
        y = xk + t * v
        Xy = system.coeff_x(cid, y)
        Xt = np.swapaxes(Xy, -1, -2)
        gy = np.linalg.inv(Xy @ Xt)
        return np.einsum("...ri,...ij,...j->...r", Xt, gy, z_field(y))

    t0 = np.zeros(ref.shape[:-1] + (1,))
    d_pair = oracle.directional(curve_pairing, t0, np.ones_like(t0))
    route_a = np.einsum("...ir,...pr->...pi", pd.X, d_pair)

    v_field = _linear_fields(x, v, vmat)
    yz = np.einsum("...ri,pi->...pr", pd.Y, z0)  # <X^i, Z>_g
    acc = np.zeros_like(ref)
    for i in range(system.m):
        xi_field = lambda y, i=i: system.coeff_x(cid, y)[..., i]
        acc = acc + lie_bracket(xi_field, v_field, xk, oracle) * yz[..., i, None]
    route_b = acc + lie_bracket(v_field, z_field, xk, oracle)
    return np.maximum(np.max(np.linalg.norm(route_a - ref, axis=-1), axis=-1),
                      np.max(np.linalg.norm(route_b - ref, axis=-1), axis=-1))


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


def _g_frame_eigvalsh(M: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric form ``M`` in a g-orthonormal
    frame, ``eigvalsh(L^-1 M L^-T)`` with ``g = L L^T``, batched."""
    Linv = np.linalg.inv(np.linalg.cholesky(g))
    return np.linalg.eigvalsh(Linv @ M @ np.swapaxes(Linv, -1, -2))


def moment_form_extremes(pd: PointData, p: float, *,
                         grid: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """(min, max) of H_p over |v|_g = 1, batched.

    p = 2, or a vanishing quartic term, reduces to a symmetric eigenproblem.
    Otherwise, dimension 2 uses a dense angular grid with parabolic
    refinement; higher dimensions use projected gradient ascent/descent from
    32 fixed random restarts (seed 2024), each stopping after 300 steps or
    once no value moves by 1e-8.
    """
    if p == 2.0:
        evals = _g_frame_eigvalsh(moment_quadratic(pd), pd.g)
        return evals[..., 0], evals[..., -1]
    B = moment_quadratic(pd)
    Linv = np.linalg.inv(np.linalg.cholesky(pd.g))
    Cit = np.einsum("...ab,...kbc,...dc->...kad", Linv, _moment_quartics(pd), Linv)
    quart_scale = float(np.max(np.abs(Cit))) if Cit.size else 0.0
    if quart_scale < 1e-12:
        evals = _g_frame_eigvalsh(B, pd.g)
        return evals[..., 0], evals[..., -1]
    Bt = Linv @ B @ np.swapaxes(Linv, -1, -2)
    n = B.shape[-1]

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
    rng = np.random.default_rng(2024)
    starts = rng.normal(size=(32, n))
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
        for _ in range(300):
            yv = yv + sign * step * grad(yv)
            yv /= np.linalg.norm(yv, axis=-1, keepdims=True)
            cur = objective(yv)
            if float(np.max(np.abs(cur - prev))) < 1e-8:
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


def _pairing(a: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b>_g over leading axes, with the single-point ``a @ g @ b`` products."""
    return (a[..., None, :] @ g @ b[..., None])[..., 0, 0]


def scalar_generator(system: SdeSystem, cid: str, x: np.ndarray,
                     f: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Generator of the diffusion applied to a scalar, by two routes:

    - induced-connection form: trace nab~(grad f)/2 + <A, grad f>_g
      (the Stratonovich correction vanishes for the induced connection);
    - Levi-Civita form: Laplace-Beltrami/2 + <sum_i nab X^i(X^i)/2 + A, grad f>_g.

    Returns (induced_value, levi_civita_value), each over the leading axes of
    ``x`` (shape ``(..., n)``); ``f`` must map ``(..., n)`` to ``(...)``.
    """
    x = np.asarray(x, dtype=float)
    oracle = system.oracle
    pd = point_data(system, cid, x)

    def gradf(y: np.ndarray) -> np.ndarray:
        Xy = system.coeff_x(cid, y)
        df = oracle.jacobian(f, y)
        return np.einsum("...ir,...jr,...j->...i", Xy, Xy, df)  # ginv = X X^T

    gf = gradf(x)
    dgf = oracle.jacobian(gradf, x)
    gamma_lc = levi_civita_christoffel(system, cid, x)
    trace = np.trace(dgf, axis1=-2, axis2=-1)
    tr_lw = trace + np.einsum("...iik,...k->...", pd.gamma, gf)
    tr_lc = trace + np.einsum("...iik,...k->...", gamma_lc, gf)
    strat_lc = _autoparallel_sum(pd, gamma_lc)
    lw_val = 0.5 * tr_lw + _pairing(pd.A, pd.g, gf)
    lc_val = 0.5 * tr_lc + _pairing(0.5 * strat_lc + pd.A, pd.g, gf)
    return lw_val, lc_val


def one_form_from_spec(system: SdeSystem, cid: str, spec) -> Callable[[np.ndarray], np.ndarray]:
    """Build a covector field y -> (phi_1..phi_n) from a config spec:
    {"d_of": expr} for the differential of an embedded scalar, or
    {"components": [expr, ...]} for chart components (single-chart systems)."""
    if isinstance(spec, dict) and "d_of" in spec:
        f = scalar_from_expr(system, cid, spec["d_of"])
        return lambda y: system.oracle.jacobian(f, y)
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


def _hat_nabla_1form(system: SdeSystem, cid: str,
                     phi: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """S(y)[j, k] = (nab^_{e_j} phi)(e_k) with the adjoint connection."""

    def S(y: np.ndarray) -> np.ndarray:
        dphi = system.oracle.jacobian(phi, y)  # [k, j] = d_j phi_k
        gamma_adj = adjoint_christoffel(lw_christoffel(system, cid, y))
        return (np.swapaxes(dphi, -1, -2)
                - np.einsum("...pjk,...p->...jk", gamma_adj, phi(y)))

    return S


def codifferential_1form(system: SdeSystem, cid: str, x: np.ndarray,
                         phi: Callable) -> np.ndarray:
    """delta-bar phi = -sum_i (nab^_{X^i} phi)(X^i) = -g^{jk} S_{jk}, batched."""
    x = np.asarray(x, dtype=float)
    S = _hat_nabla_1form(system, cid, phi)(x)
    X = system.coeff_x(cid, x)
    ginv = X @ np.swapaxes(X, -1, -2)
    return -np.einsum("...jk,...jk->...", ginv, S)


def codifferential_1form_lie(system: SdeSystem, cid: str, x: np.ndarray, phi: Callable) -> float:
    """Same codifferential through Lie derivatives: -sum_i (L_{X^i} phi)(X^i)."""
    x = np.asarray(x, dtype=float)
    oracle = system.oracle
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
                       v: np.ndarray) -> float:
    """Generator on 1-forms at (x, v): half the adjoint-connection trace
    Hessian, minus half the curvature term phi(Ric# v), plus the drift Lie
    term::

        (G phi)(v) = (trace nab^2 phi)(v)/2 - phi(Ric# v)/2 + (L_A phi)(v)
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    oracle = system.oracle
    pd = point_data(system, cid, x)
    S_field = _hat_nabla_1form(system, cid, phi)
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
                             v: np.ndarray) -> float:
    """Same operator through the codifferential: -(delta-bar d + d delta-bar)/2
    plus the drift Lie term."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    oracle = system.oracle

    dbar = lambda y: codifferential_1form(system, cid, y, phi)
    d_dbar = oracle.jacobian(dbar, x)

    # two-form psi = d phi, then delta-bar psi
    def psi(y: np.ndarray) -> np.ndarray:
        return exterior_derivative_1form(phi, y, oracle)

    ps = psi(x)
    dpsi = oracle.jacobian(psi, x)  # [j, k, l] = d_l psi_{jk}
    gamma_adj = adjoint_christoffel(lw_christoffel(system, cid, x))
    dl = np.moveaxis(dpsi, -1, -3)  # [l, j, k]
    U = (dl
         - np.einsum("...plj,...pk->...ljk", gamma_adj, ps)
         - np.einsum("...plk,...jp->...ljk", gamma_adj, ps))
    X = system.coeff_x(cid, x)
    ginv = X @ np.swapaxes(X, -1, -2)
    dbar_dphi = -np.einsum("...lj,...ljk->...k", ginv, U)
    val = -0.5 * float((dbar_dphi + d_dbar) @ v)
    if system.has_drift:
        pd = point_data(system, cid, x)
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


def geometry_point(system: SdeSystem, cid: str, x: np.ndarray) -> GeometryPoint:
    """The tensor report's arrays at ``x``, batched over its leading axes.

    Raises ``DegenerateX`` naming the first point (in row-major order) where
    X loses rank.
    """
    x = np.asarray(x, dtype=float)
    sv_min = np.linalg.svd(system.coeff_x(cid, x), compute_uv=False).min(axis=-1).reshape(-1)
    bad = np.flatnonzero(sv_min <= 1e-8)
    if bad.size:
        k = bad[0]
        raise DegenerateX(f"X loses rank at {cid}:{x.reshape(-1, x.shape[-1])[k]} "
                          f"(min sv {sv_min[k]:.2e})")
    pd = point_data(system, cid, x)
    gamma_lc = levi_civita_christoffel(system, cid, x)
    R = curvature_lw_direct(pd.gradX, pd.g)
    rs = pd.ric_sharp
    return GeometryPoint(
        cid=cid, x=x, g=pd.g, ginv=pd.ginv, Y=pd.Y, PT=pd.PT, PN=pd.PN,
        gamma_lw=pd.gamma, gamma_adjoint=pd.gamma_adj, gamma_lc=gamma_lc,
        torsion=torsion_from_christoffel(pd.gamma), curvature_lw=R,
        ric_sharp_lw=rs, ricci_lw=ricci_bilinear(rs, pd.g),
    )
