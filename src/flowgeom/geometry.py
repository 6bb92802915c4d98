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
single points and batched Monte Carlo sweeps.  The contractions of the
induced connection (its Christoffels, ``nab X^i`` and ``Ric#``) and the
Gram products are one einsum each, whatever the memory layout of their
input; their results keep that layout (see ``linalg``).  ``_gram_matrix`` is
the one home of ``X X^T``, and ``_gram_inverse`` of ``g = (X X^T)^{-1}`` (the
adjugate over the determinant for n <= 3) and ``Y``.
Every finite difference goes through the one oracle, ``SdeSystem.oracle``.
"""

from __future__ import annotations

from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import expr as ex
from .errors import BadParams, ZeroVector
from .linalg import in_layout_of, sym
from .model import SdeSystem

__all__ = [
    "PointData", "point_data", "lw_christoffel",
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
    "one_form_field", "one_form_from_spec", "on_charts", "scalar_from_expr", "geometry_point",
]

# ---------------------------------------------------------------------------
# pointwise data bundle
# ---------------------------------------------------------------------------


def _adjugate_inverse(M: np.ndarray) -> np.ndarray:
    """The inverse of each n x n matrix of ``M`` (n <= 3), its adjugate over
    its determinant, in the layout of ``M``; an exactly singular one raises
    ``np.linalg.LinAlgError("Singular matrix")``."""
    n = M.shape[-1]
    adj = np.empty_like(M)  # adj[i, j] is the cofactor of entry (j, i)
    if n == 1:
        adj[...] = 1.0
    elif n == 2:
        adj[..., 0, 0] = M[..., 1, 1]
        adj[..., 1, 1] = M[..., 0, 0]
        adj[..., 0, 1] = -M[..., 0, 1]
        adj[..., 1, 0] = -M[..., 1, 0]
    else:
        # entry by entry, so that no temporary outgrows one entry's batch;
        # the cyclic order of (a, b) and (c, d) carries the sign
        for i in range(3):
            a, b = (i + 1) % 3, (i + 2) % 3
            for j in range(3):
                c, d = (j + 1) % 3, (j + 2) % 3
                adj[..., i, j] = M[..., c, a] * M[..., d, b] - M[..., c, b] * M[..., d, a]
    det = M[..., 0, 0] * adj[..., 0, 0]
    for k in range(1, n):
        det = det + M[..., 0, k] * adj[..., k, 0]
    if np.any(det == 0.0):
        raise np.linalg.LinAlgError("Singular matrix")
    adj /= det[..., None, None]
    return adj


def _gram_matrix(X: np.ndarray) -> np.ndarray:
    """X X^T, the inverse of the induced metric, batched over the leading
    axes of X and in its layout."""
    return np.einsum("...ir,...jr->...ij", X, X)


def _gram_inverse(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(X X^T, its inverse g, Y = X^T g), batched over the leading axes of X.

    For n <= 3 the inverse is the closed-form adjugate over the determinant
    (``_adjugate_inverse``); otherwise ``np.linalg.inv``.  Either way an
    exactly singular row raises ``np.linalg.LinAlgError("Singular matrix")``.
    The results keep the layout of ``X``.
    """
    gram = _gram_matrix(X)
    if gram.shape[-1] <= 3:
        g = _adjugate_inverse(gram)
    else:
        g = in_layout_of(gram, np.linalg.inv(gram))
    return gram, g, np.einsum("...ir,...ij->...rj", X, g)


def _induced_gamma(DX: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Christoffels of the induced connection, G(v, w) = -DX(v)(Y w):
    ``G[i, j, :] = -DX[i, :, j] Y``."""
    return -np.einsum("...irj,...rk->...ijk", DX, Y)


def _grad_x(DX: np.ndarray, gamma: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Covariant derivatives nab X^i of the coefficient fields, direction last:
    ``DX[a, i, j] + G(e_j, X^i)^a``."""
    return DX + np.einsum("...ajk,...ki->...aij", gamma, X)


def _ric_sharp(gradX: np.ndarray) -> np.ndarray:
    """Ric# = sum_i tr(M_i) M_i - M_i M_i with ``M_i[a, b] = gradX[a, i, b]``
    (the Weitzenboeck term of the induced connection)."""
    tr = np.einsum("...aia->...i", gradX)
    return (np.einsum("...i,...aib->...ab", tr, gradX)
            - np.einsum("...aic,...cib->...ab", gradX, gradX))


def _autoparallel_sum(pd: PointData, gamma: np.ndarray) -> np.ndarray:
    """sum_i nab_{X^i} X^i for the connection with Christoffels ``gamma``."""
    return np.einsum("...aij,...ji->...a", _grad_x(pd.DX, gamma, pd.X), pd.X)


class PointData:
    """Coefficients and induced tensors at a (batch of) point(s) ``x`` of
    ``system``, in chart ``cid`` or with the chart of each row in an array
    ``cid``; each field is computed on its first read and kept, so a caller
    pays only for what it reads, and is written to only by ``scatter``.

    DX (``(..., n, m, n)``) and DA (``(..., n, n)``, None without drift) are
    the system's ``coeff_dx`` and ``coeff_da``: closed forms or symbolic
    derivatives of the expressions (``expr.field`` fields built with the
    system), so a bundle never calls the oracle.  ``gradX`` and ``nabla_a`` hold
    nab X^i and nab A, direction last.  The identity checks and generators
    take one as their point argument; the second routes they are compared
    with take ``(system, cid, x)`` and never read it, so no check compares a
    value with itself.
    """

    def __init__(self, system: SdeSystem, cid: str | np.ndarray, x: np.ndarray):
        self.system, self.cid, self.x = system, cid, x

    @cached_property
    def X(self) -> np.ndarray:
        return self.system.coeff_x(self.cid, self.x)

    @cached_property
    def A(self) -> np.ndarray:
        return self.system.coeff_a(self.cid, self.x)

    @cached_property
    def DX(self) -> np.ndarray:
        return self.system.coeff_dx(self.cid, self.x)

    @cached_property
    def DA(self) -> np.ndarray | None:
        return self.system.coeff_da(self.cid, self.x) if self.system.has_drift else None

    @cached_property
    def _gram(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _gram_inverse(self.X)

    ginv = property(lambda self: self._gram[0])  # X X^T
    g = property(lambda self: self._gram[1])     # the induced metric (X X^T)^-1
    Y = property(lambda self: self._gram[2])     # X^T g

    @cached_property
    def PT(self) -> np.ndarray:
        return np.einsum("...ri,...is->...rs", self.Y, self.X)

    @cached_property
    def PN(self) -> np.ndarray:
        return np.eye(self.X.shape[-1]) - self.PT

    @cached_property
    def gamma(self) -> np.ndarray:
        return _induced_gamma(self.DX, self.Y)

    gamma_adj = property(lambda self: adjoint_christoffel(self.gamma))  # a view

    @cached_property
    def gradX(self) -> np.ndarray:
        return _grad_x(self.DX, self.gamma, self.X)

    @cached_property
    def ric_sharp(self) -> np.ndarray:
        return _ric_sharp(self.gradX)

    @cached_property
    def nabla_a(self) -> np.ndarray:
        if self.DA is None:
            return np.zeros_like(self.g)
        return self.DA + np.einsum("...ajk,...k->...aj", self.gamma, self.A)

    @cached_property
    def gamma_lc(self) -> np.ndarray:
        return levi_civita_christoffel(self.system, self.cid, self.x)

    @cached_property
    def torsion(self) -> np.ndarray:
        return torsion_from_christoffel(self.gamma)

    @cached_property
    def curvature_lw(self) -> np.ndarray:
        return curvature_lw_direct(self.gradX, self.g)

    @cached_property
    def ricci_lw(self) -> np.ndarray:
        return ricci_bilinear(self.ric_sharp, self.g)

    def _computed(self) -> list[tuple[str, np.ndarray | tuple | None]]:
        """(name, value) of each cached field computed so far."""
        return [(name, val) for name, val in vars(self).items()
                if isinstance(getattr(PointData, name, None), cached_property)]

    def scatter(self, rows: np.ndarray, src: PointData) -> None:
        """Write ``src``, a bundle at the points ``x[rows]`` (in their charts
        ``cid[rows]``), into ``rows`` of every field computed so far; a field
        first read later is computed from ``x`` and ``cid``, whose rows the
        caller updates in place to match."""
        for name, val in self._computed():
            if val is None:
                continue
            new = getattr(src, name)
            for d, s in zip(val, new) if isinstance(val, tuple) else ((val, new),):
                d[rows] = s


def point_data(system: SdeSystem, cid: str | np.ndarray, x: np.ndarray) -> PointData:
    """The ``PointData`` at ``x`` (batched), in chart ``cid`` or with the
    chart of each row in an array ``cid``; it computes nothing yet."""
    return PointData(system, cid, np.asarray(x, dtype=float))


def geometry_point(system: SdeSystem, cid: str | np.ndarray, x: np.ndarray) -> PointData:
    """The ``PointData`` at a point set the user names, checked: a rank
    check raises ``DegenerateX`` naming the first point (in row-major order)
    where X loses rank, with its chart, and DX and DA are read at once, so a
    derivative that fails there fails before any run."""
    pd = point_data(system, cid, x)
    system.check_rank(cid, pd.x, pd.X)
    pd.DX, pd.DA  # computed now, so that a failing derivative fails here
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
    Y = _gram_inverse(system.coeff_x(cid, x))[2]
    DX = system.oracle.jacobian(lambda y: system.coeff_x(cid, y), x)
    return _induced_gamma(DX, Y)


def adjoint_christoffel(gamma: np.ndarray) -> np.ndarray:
    """Adjoint connection: swap the two lower indices (exact)."""
    return np.swapaxes(gamma, -1, -2)


def _metric_field(system: SdeSystem, cid: str | np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The induced metric ``y -> (X X^T)^-1`` in chart(s) ``cid``: one chart
    name, or one per row of ``y``."""

    def g_of(y: np.ndarray) -> np.ndarray:
        return _gram_inverse(system.coeff_x(cid, y))[1]
    return g_of


def levi_civita_christoffel(system: SdeSystem, cid: str, x: np.ndarray) -> np.ndarray:
    """G^i_{jk} = g^{il} (d_j g_{lk} + d_k g_{lj} - d_l g_{jk}) / 2."""
    x = np.asarray(x, dtype=float)
    g_of = _metric_field(system, cid)
    ginv = _gram_matrix(system.coeff_x(cid, x))  # g^-1 = X X^T, no inverse
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
                         gamma: np.ndarray | None = None) -> np.ndarray:
    """(nab_v Z)(x) = DZ(x)(v) + G(v, Z(x)) for the induced connection, whose
    Christoffels at ``x`` are ``gamma`` when the caller has them.

    ``x`` and ``v`` broadcast over their leading axes, and ``z_field`` must
    map ``(..., n)`` to ``(..., n)``: its derivative is one oracle call.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if gamma is None:
        gamma = lw_christoffel(system, cid, x)
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
        return _gram_inverse(system.coeff_x(cid, y))[2]

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
    Y = _gram_inverse(system.coeff_x(cid, x))[2]
    w1 = np.einsum("...rk,...k->...r", Y, np.asarray(v1, dtype=float))
    w2 = np.einsum("...rk,...k->...r", Y, np.asarray(v2, dtype=float))
    z1 = lambda y: np.einsum("...ir,...r->...i", system.coeff_x(cid, y), w1)
    z2 = lambda y: np.einsum("...ir,...r->...i", system.coeff_x(cid, y), w2)
    return -lie_bracket(z1, z2, x)


def lie_bracket(u_field: Callable, v_field: Callable, x: np.ndarray) -> np.ndarray:
    """[U, V](x) = DV(x)(U(x)) - DU(x)(V(x)), batched over leading axes of
    ``x``; both fields must map ``(..., n)`` to ``(..., n)``."""
    x = np.asarray(x, dtype=float)
    oracle = SdeSystem.oracle
    return (oracle.directional(v_field, x, u_field(x))
            - oracle.directional(u_field, x, v_field(x)))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def curvature_from_christoffel(system: SdeSystem, cid: str, x: np.ndarray,
                               kind: str = "lw", gamma: np.ndarray | None = None) -> np.ndarray:
    """R^i_{jkl} = d_j G^i_{kl} - d_k G^i_{jl} + G^i_{jp} G^p_{kl} - G^i_{kp} G^p_{jl}.

    ``gamma`` is ``christoffel(kind)`` at ``x`` when the caller has it; the
    field is differentiated either way.
    """
    x = np.asarray(x, dtype=float)
    gamma_field = lambda y: christoffel(system, cid, y, kind)
    if gamma is None:
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


def _probes(rng: np.random.Generator, n_probes: int, *parts) -> tuple[np.ndarray, ...]:
    """``n_probes`` probes of ``parts``, each part on a leading probe axis: a
    part ``k`` is a unit vector in R^k, a part ``(k, l)`` a matrix of
    standard normals.  One block of normals holds every probe as a row, its
    parts in order, so the values are those of drawing probe after probe and
    part after part; a unit part is scaled by ``_dot``'s norm, which matches
    ``np.linalg.norm`` of one vector bit for bit."""
    sizes = [int(np.prod(part)) for part in parts]
    block = rng.normal(size=(n_probes, sum(sizes)))
    out, start = [], 0
    for part, size in zip(parts, sizes):
        v = block[:, start:start + size]
        start += size
        if np.ndim(part) == 0:
            out.append(v / np.sqrt(_dot(v, v))[:, None])
        else:
            out.append(np.ascontiguousarray(v).reshape((n_probes, *part)))
    return tuple(out)


def _gnorm(w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """|w|_g for probe vectors ``w[..., p, :]`` at the points of ``g[..., :, :]``."""
    return np.sqrt(np.einsum("...pi,...ij,...pj->...p", w, g, w))


# Probe-based identity checks take a ``PointData`` at points ``x`` of shape
# ``(..., n)``, with ``cid`` one chart name or one per point, and return one
# residual per point, an array over the leading axes of ``x`` (a numpy scalar
# for a single point); checks on one ``PointData`` share its fields.
# The probe vectors come from one seeded stream shared by every point, drawn
# in the order a single point uses them; they sit on a probe axis after the
# point axes (``x[..., None, :]``, charts ``_on_probes(cid)``), and every
# derivative over all points and probes is one oracle call.


def _on_probes(cid: str | np.ndarray) -> str | np.ndarray:
    """The chart(s) of the points ``x[..., None, :]`` given those of ``x``:
    one name stays as it is, one name per point gains the probe axis."""
    return cid if np.ndim(cid) == 0 else np.asarray(cid)[..., None]


def defining_property_residual(pd: PointData, n_probes: int = 8) -> np.ndarray:
    """max |nab (X(.)e)(v)|_g over ``n_probes`` probes (seed 0) with e in the
    row space of X(x).

    The induced connection is characterized by this vanishing.  One residual
    per point of ``pd.x`` (shape ``(..., n)``); probes whose ``e`` vanishes
    at a point are skipped there.
    """
    system = pd.system
    rng = np.random.default_rng(0)
    u, v = _probes(rng, n_probes, system.m, system.n)
    e = np.einsum("...rs,ps->...pr", pd.PT, u)                 # (..., K, m)
    nrm = np.linalg.norm(e, axis=-1)
    keep = nrm >= 1e-12
    e = e / np.where(keep, nrm, 1.0)[..., None]
    pcid = _on_probes(pd.cid)
    z_field = lambda y: np.einsum("...ir,...r->...i", system.coeff_x(pcid, y), e)
    nab = covariant_derivative(system, pcid, pd.x[..., None, :], z_field, v,
                               gamma=pd.gamma[..., None, :, :, :])
    return np.max(np.where(keep, _gnorm(nab, pd.g), 0.0), axis=-1)


def pairing_derivative_residual(pd: PointData, kind: str = "lw") -> np.ndarray:
    """Vector-form metric compatibility through the coefficient fields:

    sum_i X^i <Z, nab_v X^i>_g + sum_i nab_v X^i <Z, X^i>_g = 0
    for metric connections; returns the max residual norm over 8 probes
    (seed 1), per point of ``pd.x`` (shape ``(..., n)``).
    """
    gamma = pd.gamma if kind == "lw" else christoffel(pd.system, pd.cid, pd.x, kind)
    gradX = _grad_x(pd.DX, gamma, pd.X)
    rng = np.random.default_rng(1)
    z, v = _probes(rng, 8, pd.system.n, pd.system.n)
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


def metricity_residual(pd: PointData, kind: str = "lw") -> np.ndarray:
    """max over 8 probe fields (seed 2) of |d<Z,Z>_g(v) - 2 <nab_v Z, Z>_g|,
    per point of ``pd.x`` (shape ``(..., n)``), for ``christoffel(kind)``'s
    connection."""
    gamma = christoffel(pd.system, pd.cid, pd.x, kind)
    return _metricity_residuals(pd, [gamma])[0]


def _metricity_residuals(pd: PointData, gammas: list[np.ndarray]) -> list[np.ndarray]:
    """``metricity_residual`` of each connection in ``gammas`` (its
    Christoffels at ``pd.x``), from one set of probe derivatives."""
    system, x = pd.system, pd.x
    oracle = system.oracle
    g_of = _metric_field(system, _on_probes(pd.cid))
    rng = np.random.default_rng(2)
    n = system.n
    z0, mat, v = _probes(rng, 8, n, (n, n), n)
    z_field = _linear_fields(x, z0, mat)

    def sq_field(y: np.ndarray) -> np.ndarray:
        z = z_field(y)
        return np.einsum("...i,...ij,...j->...", z, g_of(y), z)

    xk = x[..., None, :]
    lhs = oracle.directional(sq_field, xk, v)
    dz = oracle.directional(z_field, xk, v)
    out = []
    for gamma in gammas:
        nab = dz + np.einsum("...ijk,pj,pk->...pi", gamma, v, z0)
        rhs = 2.0 * np.einsum("...pi,...ij,pj->...p", nab, pd.g, z0)
        out.append(np.max(np.abs(lhs - rhs), axis=-1))
    return out


TSS_TOL = 1e-6  # the skew-torsion verdict, on either tss_check route


def _torsion_skew(pd: PointData) -> tuple:
    """The torsion route of ``tss_check``: (verdict, residual, probes).

    The residual is max |<T(u,v),w>_g + <T(w,v),u>_g| over 8 probe triples
    ``(u, v, w)`` (seed 3), per point of ``pd.x``; the verdict is that it is
    below ``TSS_TOL``, i.e. the torsion is skew-symmetric.
    """
    g = pd.g
    rng = np.random.default_rng(3)
    n = pd.system.n
    u, v, w = _probes(rng, 8, n, n, n)
    tuv = np.einsum("...ijk,pj,pk->...pi", pd.torsion, u, v)
    twv = np.einsum("...ijk,pj,pk->...pi", pd.torsion, w, v)
    skew = (np.einsum("...pi,...ij,pj->...p", tuv, g, w)
            + np.einsum("...pi,...ij,pj->...p", twv, g, u))
    worst = np.max(np.abs(skew), axis=-1)
    return worst < TSS_TOL, worst, (u, v, w)


def tss_check(pd: PointData) -> tuple:
    """Is the torsion skew-symmetric: <T(u,v),w>_g = -<T(w,v),u>_g?

    Returns (verdict, residual, alt_residual), each over the leading axes of
    ``pd.x``, where ``alt_residual`` comes from the equivalent criterion that
    v |-> X(.)Y(x)v has Levi-Civita covariant derivative with vanishing
    symmetric part.  The verdict is ``residual < TSS_TOL``.
    """
    ok, worst, (u, v, w) = _torsion_skew(pd)
    # Levi-Civita derivative of Z^v(y) = X(y) Y(x) v, symmetric part
    # one derivative along the stacked directions (u, w): axes (..., 2, probe, n)
    yv = np.einsum("...ri,pi->...pr", pd.Y, v)[..., None, :, :]
    pcid = _on_probes(_on_probes(pd.cid))
    z_field = lambda y: np.einsum("...ir,...r->...i", pd.system.coeff_x(pcid, y), yv)
    dz = pd.system.oracle.directional(z_field, pd.x[..., None, None, :], np.stack([u, w]))
    nab_u = dz[..., 0, :, :] + np.einsum("...ijk,pj,pk->...pi", pd.gamma_lc, u, v)
    nab_w = dz[..., 1, :, :] + np.einsum("...ijk,pj,pk->...pi", pd.gamma_lc, w, v)
    alt = (np.einsum("...pi,...ij,pj->...p", nab_u, pd.g, w)
           + np.einsum("...pi,...ij,pj->...p", nab_w, pd.g, u))
    return (ok, worst, np.max(np.abs(alt), axis=-1))


def lw_lc_split_residual(pd: PointData) -> tuple:
    """On torsion-skew-symmetric systems the Levi-Civita connection is the
    induced one minus half its torsion::

        nab_v Z = nab~_v Z - T(v, Z(x)) / 2

    Returns (identity residual over 6 probe fields (seed 4), max_i
    |nab X^i (X^i)|_g with nab Levi-Civita), each over the leading axes of
    ``pd.x``.
    """
    gamma_lc = pd.gamma_lc
    rng = np.random.default_rng(4)
    n = pd.system.n
    z0, mat, v = _probes(rng, 6, n, (n, n), n)
    dz = pd.system.oracle.directional(_linear_fields(pd.x, z0, mat), pd.x[..., None, :], v)
    lc = dz + np.einsum("...ijk,pj,pk->...pi", gamma_lc, v, z0)
    lw = dz + np.einsum("...ijk,pj,pk->...pi", pd.gamma, v, z0)
    half_t = 0.5 * np.einsum("...ijk,pj,pk->...pi", pd.torsion, v, z0)
    worst = np.max(_gnorm(lc - (lw - half_t), pd.g), axis=-1)
    # summed autoparallel form: sum_i nab_{X^i} X^i vanishes (Levi-Civita)
    summed = _autoparallel_sum(pd, gamma_lc)
    norm = np.sqrt(np.einsum("...a,...ab,...b->...", summed, pd.g, summed))
    return worst, norm


def stratonovich_term(pd: PointData, kind: str = "lw") -> np.ndarray:
    """sum_i nab_{X^i} X^i for the named connection, shape ``(..., n)``."""
    gamma = pd.gamma if kind == "lw" else christoffel(pd.system, pd.cid, pd.x, kind)
    return _autoparallel_sum(pd, gamma)


def connection_routes_residual(pd: PointData) -> np.ndarray:
    """Cross-check the Christoffel formula against two equivalent routes:

    (a) nab_v Z = X(x) d/dt [ Y(c(t)) Z(c(t)) ] at t=0 along c(t) = x + t v;
    (b) nab_v Z = sum_i [X^i, V](x) <X^i, Z>_g + [V, Z](x) for any extension
        V of v (tested with a random linear extension).

    Returns the max over 4 probes (seed 5) and both routes, per point of
    ``pd.x`` (shape ``(..., n)``).
    """
    system, x = pd.system, pd.x
    oracle = system.oracle
    rng = np.random.default_rng(5)
    n = system.n
    z0, mat, vmat, v = _probes(rng, 4, n, (n, n), (n, n), n)
    xk = np.broadcast_to(x[..., None, :], x.shape[:-1] + v.shape)
    pcid = _on_probes(pd.cid)
    z_field = _linear_fields(x, z0, mat)
    ref = (oracle.directional(z_field, xk, v)
           + np.einsum("...ijk,pj,pk->...pi", pd.gamma, v, z0))

    def curve_pairing(t: np.ndarray) -> np.ndarray:
        y = xk + t * v
        Yy = _gram_inverse(system.coeff_x(pcid, y))[2]
        return np.einsum("...ri,...i->...r", Yy, z_field(y))

    t0 = np.zeros(ref.shape[:-1] + (1,))
    d_pair = oracle.directional(curve_pairing, t0, np.ones_like(t0))
    route_a = np.einsum("...ir,...pr->...pi", pd.X, d_pair)

    # [X^i, V] and [V, Z] from two derivatives: of V along the columns of
    # [X | Z](x), stacked before the probe axis, and of [X | Z] along V(x)
    xz_field = lambda y: np.concatenate([system.coeff_x(pcid, y), z_field(y)[..., None]], -1)
    dv = oracle.directional(_linear_fields(x[..., None, :], v, vmat), xk[..., None, :, :],
                            np.moveaxis(xz_field(xk), -1, -3))
    dxz = oracle.directional(xz_field, xk, _linear_fields(x, v, vmat)(xk))
    yz = np.einsum("...ri,pi->...pr", pd.Y, z0)  # <X^i, Z>_g
    acc = np.zeros_like(ref)
    for i in range(system.m):
        acc = acc + (dv[..., i, :, :] - dxz[..., i]) * yz[..., i, None]
    route_b = acc + (dxz[..., -1] - dv[..., -1, :, :])
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
    """(min, max) of H_p over |v|_g = 1, batched; each row is decided by its
    own values alone, so a row's result does not depend on its batch.

    p = 2 reduces to a symmetric eigenproblem, and so does a row whose own
    quartic coefficients are all below 1e-12.  Otherwise, dimension 2 uses a
    dense angular grid with parabolic refinement of the lo and hi directions;
    higher dimensions use projected gradient ascent/descent from 32 fixed
    random restarts (seed 2024), a row stopping once none of its restarts
    moves by 1e-8, and every row after 300 steps.
    """
    if p == 2.0:
        evals = _g_frame_eigvalsh(moment_quadratic(pd), pd.g)
        return evals[..., 0], evals[..., -1]
    B = moment_quadratic(pd)
    Linv = np.linalg.inv(np.linalg.cholesky(pd.g))
    Cit = np.einsum("...ab,...kbc,...dc->...kad", Linv, _moment_quartics(pd), Linv)
    Bt = Linv @ B @ np.swapaxes(Linv, -1, -2)
    flat = np.max(np.abs(Cit), axis=(-3, -2, -1), initial=0.0) < 1e-12
    if flat.all():
        evals = np.linalg.eigvalsh(Bt)
        return evals[..., 0], evals[..., -1]
    n = B.shape[-1]

    def objective(y: np.ndarray) -> np.ndarray:
        # y: (..., K, n) unit vectors
        quad = np.einsum("...ki,...ij,...kj->...k", y, Bt, y)
        pair = np.einsum("...ki,...aij,...kj->...ka", y, Cit, y)
        return quad + (p - 2.0) * np.einsum("...ka,...ka->...k", pair, pair)

    if n == 2:
        th = np.linspace(0.0, np.pi, grid, endpoint=False)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)  # (grid, 2)
        f = objective(np.broadcast_to(dirs, B.shape[:-2] + dirs.shape))
        idx = np.stack([np.argmin(f, axis=-1), np.argmax(f, axis=-1)], axis=-1)
        f0 = np.take_along_axis(f, (idx - 1) % grid, -1)
        f1 = np.take_along_axis(f, idx, -1)
        f2 = np.take_along_axis(f, (idx + 1) % grid, -1)
        denom = f0 - 2.0 * f1 + f2
        shift = np.where(np.abs(denom) > 1e-300, 0.5 * (f0 - f2) / np.where(denom == 0, 1.0, denom), 0.0)
        t = th[idx] + np.clip(shift, -1.0, 1.0) * (np.pi / grid)
        # lo and hi in one call: a one-direction call sums in an order that
        # depends on the batch shape
        vals = objective(np.stack([np.cos(t), np.sin(t)], axis=-1))
        lo, hi = vals[..., 0], vals[..., 1]
    else:
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
            moving = ~flat
            prev = objective(yv)
            for _ in range(300):
                if not moving.any():
                    break
                step = yv + sign * 0.05 * grad(yv)
                step /= np.linalg.norm(step, axis=-1, keepdims=True)
                yv = np.where(moving[..., None, None], step, yv)
                cur = objective(yv)
                moving = moving & (np.max(np.abs(cur - prev), axis=-1) >= 1e-8)
                prev = cur
            vals = objective(yv)
            outs.append(np.max(vals, axis=-1) if sign > 0 else np.min(vals, axis=-1))
        lo, hi = outs[1], outs[0]
    if flat.any():
        evals = np.linalg.eigvalsh(Bt[flat])
        lo[flat], hi[flat] = evals[:, 0], evals[:, -1]
    return lo, hi


# ---------------------------------------------------------------------------
# scalar and one-form generators
# ---------------------------------------------------------------------------


def on_charts(system: SdeSystem, f_emb: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """A field on the embedding space (an ``expr.field`` over
    ``system.embed_dim``) as the scalar ``(cid, y) -> f_emb(embed(cid, y))``
    on the charts, so one built field serves any chart or chart array."""
    return lambda cid, y: f_emb(system.embed(cid, np.asarray(y, dtype=float)))


def scalar_from_expr(system: SdeSystem, cid: str, source: str) -> Callable[[np.ndarray], np.ndarray]:
    """Scalar field on the chart, defined by an expression in the embedded
    coordinates (x1..xD of ``system.embed``): ``expr.field`` over the
    embedding, so a bad expression raises here."""
    return partial(on_charts(system, ex.field(source, system.embed_dim)), cid)


def _pairing(a: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b>_g over leading axes, with the single-point ``a @ g @ b`` products."""
    return (a[..., None, :] @ g @ b[..., None])[..., 0, 0]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over leading axes, with the single-point ``a @ b`` products."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def scalar_generator(pd: PointData,
                     f: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Generator of the diffusion applied to a scalar, by two routes:

    - induced-connection form: trace nab~(grad f)/2 + <A, grad f>_g
      (the Stratonovich correction vanishes for the induced connection);
    - Levi-Civita form: Laplace-Beltrami/2 + <sum_i nab X^i(X^i)/2 + A, grad f>_g.

    Returns (induced_value, levi_civita_value), each over the leading axes of
    ``pd.x`` (shape ``(..., n)``); ``f`` must map ``(..., n)`` to ``(...)``.
    """
    oracle = pd.system.oracle
    gamma_lc = pd.gamma_lc

    def gradf(y: np.ndarray) -> np.ndarray:
        Xy = pd.system.coeff_x(pd.cid, y)
        df = oracle.jacobian(f, y)
        return np.einsum("...ir,...jr,...j->...i", Xy, Xy, df)  # ginv = X X^T

    gf = gradf(pd.x)
    dgf = oracle.jacobian(gradf, pd.x)
    trace = np.trace(dgf, axis1=-2, axis2=-1)
    tr_lw = trace + np.einsum("...iik,...k->...", pd.gamma, gf)
    tr_lc = trace + np.einsum("...iik,...k->...", gamma_lc, gf)
    strat_lc = _autoparallel_sum(pd, gamma_lc)
    lw_val = 0.5 * tr_lw + _pairing(pd.A, pd.g, gf)
    lc_val = 0.5 * tr_lc + _pairing(0.5 * strat_lc + pd.A, pd.g, gf)
    return lw_val, lc_val


def one_form_field(system: SdeSystem, spec) -> tuple[Callable, Callable | None]:
    """The covector field ``(cid, y) -> (phi_1..phi_n)`` of a config spec,
    its expressions parsed and checked once, so charts bind afterwards:
    {"d_of": expr} for the differential of an embedded scalar, or
    {"components": [expr, ...]} for chart components (single-chart systems),
    one ``expr.field`` over the n chart coordinates.  Also returns, for
    ``d_of``, the scalar ``(cid, y) -> f`` it differentiates (else None)."""
    if isinstance(spec, dict) and "d_of" in spec:
        f = on_charts(system, ex.field(spec["d_of"], system.embed_dim))
        return (lambda cid, y: system.oracle.jacobian(partial(f, cid), y)), f
    if isinstance(spec, dict) and "components" in spec:
        if len(spec["components"]) != system.n:
            raise BadParams(f"one-form needs {system.n} components")
        if len(system.charts) > 1:
            raise BadParams("component-defined one-forms need a single-chart scenario")
        phi = ex.field(spec["components"], system.n)
        return (lambda cid, y: phi(y)), None
    raise BadParams("one-form spec needs 'd_of' or 'components'")


def one_form_from_spec(system: SdeSystem, cid: str, spec) -> Callable[[np.ndarray], np.ndarray]:
    """``one_form_field`` of ``spec`` in the chart (or chart array) ``cid``:
    the covector field y -> (phi_1..phi_n)."""
    return partial(one_form_field(system, spec)[0], cid)


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
    ginv = _gram_matrix(system.coeff_x(cid, x))
    return -np.einsum("...jk,...jk->...", ginv, S)


def codifferential_1form_lie(system: SdeSystem, cid: str, x: np.ndarray,
                             phi: Callable) -> np.ndarray:
    """Same codifferential through Lie derivatives, batched: -sum_i (L_{X^i} phi)(X^i)."""
    x = np.asarray(x, dtype=float)
    oracle = system.oracle
    X = system.coeff_x(cid, x)
    DX = oracle.jacobian(lambda y: system.coeff_x(cid, y), x)
    dphi = oracle.jacobian(phi, x)
    p = phi(x)
    term1 = np.einsum("...ji,...kj,...ki->...", X, dphi, X)
    term2 = np.einsum("...j,...jik,...ki->...", p, DX, X)
    return -(term1 + term2)


def exterior_derivative_1form(phi: Callable, x: np.ndarray) -> np.ndarray:
    """(d phi)[j, k] = d_j phi_k - d_k phi_j."""
    dphi = SdeSystem.oracle.jacobian(phi, x)
    return np.swapaxes(dphi, -1, -2) - dphi


def _drift_lie(pd: PointData, phi: Callable, v: np.ndarray) -> np.ndarray:
    """The drift Lie term (L_A phi)(v) of both 1-form generators, one value
    per point of ``pd.x``: ``A^j d_j phi_k + phi_j d_k A^j``, paired with ``v``."""
    dphi = pd.system.oracle.jacobian(phi, pd.x)
    lie_vec = (np.einsum("...j,...kj->...k", pd.A, dphi)
               + np.einsum("...j,...jk->...k", phi(pd.x), pd.DA))
    return _dot(lie_vec, v)


def one_form_generator(pd: PointData, phi: Callable, v: np.ndarray) -> np.ndarray:
    """Generator on 1-forms at (x, v): half the adjoint-connection trace
    Hessian, minus half the curvature term phi(Ric# v), plus the drift Lie
    term::

        (G phi)(v) = (trace nab^2 phi)(v)/2 - phi(Ric# v)/2 + (L_A phi)(v)

    One value per point of ``pd.x``; ``v`` is one vector or one per point.
    """
    v = np.asarray(v, dtype=float)
    x = pd.x
    oracle = pd.system.oracle
    S_field = _hat_nabla_1form(pd.system, pd.cid, phi)
    S = S_field(x)
    dS = oracle.jacobian(S_field, x)  # [j, k, l] = d_l S_{jk}
    dlSjk = np.moveaxis(dS, -1, -3)   # [l, j, k]
    T2 = (dlSjk
          - np.einsum("...plj,...pk->...ljk", pd.gamma_adj, S)
          - np.einsum("...plk,...jp->...ljk", pd.gamma_adj, S))
    lap = np.einsum("...lj,...ljk->...k", pd.ginv, T2)
    ric_term = np.einsum("...a,...ab,...b->...", phi(x), pd.ric_sharp, v)
    lie_a = _drift_lie(pd, phi, v) if pd.system.has_drift else 0.0
    return _dot(0.5 * lap, v) - 0.5 * ric_term + lie_a


def one_form_generator_hodge(pd: PointData, phi: Callable, v: np.ndarray) -> np.ndarray:
    """Same operator through the codifferential: -(delta-bar d + d delta-bar)/2
    plus the drift Lie term, one value per point of ``pd.x``."""
    v = np.asarray(v, dtype=float)
    system, cid, x = pd.system, pd.cid, pd.x
    oracle = system.oracle

    dbar = lambda y: codifferential_1form(system, cid, y, phi)
    d_dbar = oracle.jacobian(dbar, x)

    # two-form psi = d phi, then delta-bar psi
    def psi(y: np.ndarray) -> np.ndarray:
        return exterior_derivative_1form(phi, y)

    ps = psi(x)
    dpsi = oracle.jacobian(psi, x)  # [j, k, l] = d_l psi_{jk}
    gamma_adj = adjoint_christoffel(lw_christoffel(system, cid, x))
    dl = np.moveaxis(dpsi, -1, -3)  # [l, j, k]
    U = (dl
         - np.einsum("...plj,...pk->...ljk", gamma_adj, ps)
         - np.einsum("...plk,...jp->...ljk", gamma_adj, ps))
    ginv = _gram_matrix(system.coeff_x(cid, x))
    dbar_dphi = -np.einsum("...lj,...ljk->...k", ginv, U)
    val = -0.5 * _dot(dbar_dphi + d_dbar, v)
    if system.has_drift:
        val += _drift_lie(pd, phi, v)
    return val
