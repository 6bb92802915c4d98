"""Pathwise simulation of the stochastic flow and its companion processes.

One noise grid drives everything: the state (Stratonovich Heun), the
variational Jacobian, parallel transports for the induced connection and its
adjoint, the covariant Ito form of the derivative flow, the filtered
(damped) flow, and the noise decomposition with its exact discrete
reconstruction.  Paths are independent given (seed, path index); worker
threads split the index range into fixed blocks and results are merged in
block order, so reports are identical for any thread count.

Demand-driven companions: ``simulate(..., need=...)`` names the result
fields the caller reads, and the engine integrates only what they depend on.
The state, alive mask, chart switches and group re-centring always run.
The dependency table (``_NEEDS``), requested field -> what it forces on:

    (always)            state and start data; coefficient-level bundles (X, A)
    J                   light bundles (adds DX, DA)
    par_lw, par_adj     full bundles, midpoint Christoffels, the isometry snap
    What, Vhat          par_adj
    bismut_vec          par_lw, par_adj, What
    b_raw, b_breve, beta, b_bar, recon_err, qv, cross, F (and the recorded
    b_tilde, recon)     one noise-decomposition companion: par_lw and the
                        normal frame
    g_T, hp_lo, hp_hi   full bundles (hp_lo/hp_hi only with hp_p)

A requested field holds exactly the values of a run with ``need=None``; a
field not requested is None.  ``simulate(..., also_at=k)`` also returns the
requested fields after ``k`` steps of the same run (``SimResult.earlier``),
equal to a separate run to ``k * dt``.

Noise: path ``i`` of a run seeded ``s`` draws from
``np.random.Generator(np.random.Philox(key=[s, i]))`` with the key as uint64;
increments are ``standard_normal((steps, m)) * sqrt(dt)``.  Philox is
counter-based, so the stream depends only on ``(s, i)``, and its first steps
do not depend on ``steps``.  A block builds one Philox and re-keys it to each
of its paths in turn.

Derivatives and frames: the bundles take DX from the model's ``coeff_dx``
(closed forms on flat, sphere-gradient, twisted-plane and circle, the
finite-difference oracle elsewhere).  After each RK4 transport step a frame
of a metric connection is snapped to a g-isometry, ``par^T g par = g0``, by
two Newton-Schulz polar steps ``par <- par (3 I - g0^-1 par^T g par) / 2``
(``_isometrize``; rows with a defect above ``_SNAP_NS_MAX`` take the exact
polar factor).  The inverse of such a frame is the closed form
``g0^-1 par^T g`` with ``g`` at the frame's point; ``//^`` frames of a
non-metric adjoint connection are not snapped and are inverted by a solve.

Conventions: "∘dB" equations step with Heun (predictor-corrector); explicit
Ito sums (anti-developments, the covariant derivative-flow equation) use
left-point Euler on the same grid.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from math import sqrt
from typing import Iterable

import numpy as np

from .errors import BadParams
from .geometry import PointData, _induced_gamma, point_data, tss_check
from .model import SdeSystem

__all__ = [
    "NoiseGrid", "sample_noise", "FlowPath", "SimResult", "simulate",
    "integrate_flow", "reconstruction_error", "transport_along",
]

BLOCK = 2048  # paths per worker block; fixed so thread count cannot matter


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseGrid:
    """Increments of one driving Brownian path on a uniform grid."""

    seed: int
    path_index: int
    steps: int
    dt: float
    m: int
    increments: np.ndarray  # (steps, m)


def sample_noise(seed: int, path_index: int, steps: int, dt: float, m: int) -> NoiseGrid:
    """Deterministic Gaussian increments for one path.

    The stream is a pure function of (seed, path_index): a Philox
    counter-based generator keyed by the pair, drawing standard normals via
    numpy's ziggurat and scaling by sqrt(dt).  It is row ``0`` of
    ``_block_noise(seed, [path_index], ...)``, the engine's own draw.
    """
    if dt <= 0:
        raise BadParams("dt must be positive")
    inc = _block_noise(seed, np.array([path_index]), steps, dt, m)[0]
    return NoiseGrid(seed=seed, path_index=path_index, steps=steps, dt=dt, m=m,
                     increments=inc)


def _block_noise(seed: int, indices: np.ndarray, steps: int, dt: float, m: int) -> np.ndarray:
    """Increments (len(indices), steps, m) of the listed paths.

    One Philox serves the block: before each row it gets back the state it
    was built in, with only the key replaced by (seed, index), the state a
    fresh ``Philox(key=[seed, index])`` starts in, so a row depends on its
    index alone.
    """
    # an explicit uint64 key: a plain list would pass seeds >= 2**63 through
    # float64, so neighbouring seeds would share a stream; a given key also
    # spares the OS-entropy seed a keyless Philox draws
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    fresh = bits.state
    rng = np.random.Generator(bits)
    out = np.empty((len(indices), steps, m))
    for row, idx in enumerate(indices):
        fresh["state"]["key"] = np.array([seed, idx], dtype=np.uint64)
        bits.state = fresh
        rng.standard_normal((steps, m), out=out[row])
    out *= sqrt(dt)
    return out


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class FlowPath:
    """Full time series for a (small) batch of paths, axes (step, path, ...).

    Companion series the run did not request are None.
    """

    times: np.ndarray                 # (K+1,)
    cid_idx: np.ndarray               # (K+1, P)
    x: np.ndarray                     # (K+1, P, n)
    alive: np.ndarray                 # (K+1, P)
    J: np.ndarray | None              # (K+1, P, n, n)
    par_lw: np.ndarray | None
    par_adj: np.ndarray | None
    What: np.ndarray | None           # filtered flow in the x0 frame
    Vhat: np.ndarray | None           # covariant Ito flow in the x0 frame
    b_raw: np.ndarray | None          # (K+1, P, m) cumulative driving noise
    b_breve: np.ndarray | None        # (K+1, P, n) anti-development
    beta: np.ndarray | None           # (K+1, P, m) normal-frame part
    b_tilde: np.ndarray | None        # (K+1, P, m)
    b_bar: np.ndarray | None          # (K+1, P, m)
    recon: np.ndarray | None          # (K+1, P, m): cumulative sum of //~ dB_bar
    centers: np.ndarray | None        # (K+1, P, 4) for group scenarios
    increments: np.ndarray            # (P, K, m)
    chart_names: tuple[str, ...]
    g0: np.ndarray
    x0: np.ndarray
    cid0: str


@dataclass
class SimResult:
    """Terminal state of a batched run plus per-path accumulators."""

    t: float
    dt: float
    steps: int
    seed: int
    n_paths: int
    chart_names: tuple[str, ...]
    cid0: str
    x0: np.ndarray
    g0: np.ndarray
    ginv0: np.ndarray
    X0: np.ndarray
    Y0: np.ndarray
    L0: np.ndarray                    # cholesky factor of g0
    F0: np.ndarray | None             # (m, m-n) normal frame at the start
    cid_idx: np.ndarray               # (N,)
    x: np.ndarray                     # (N, n)
    centers: np.ndarray | None
    embedded: np.ndarray              # (N, embed_dim)
    alive: np.ndarray                 # (N,)
    # companion processes: None unless requested (see ``simulate``)
    g_T: np.ndarray | None            # (N, n, n)
    J: np.ndarray | None              # (N, n, n)
    par_lw: np.ndarray | None
    par_adj: np.ndarray | None
    What: np.ndarray | None
    Vhat: np.ndarray | None
    F: np.ndarray | None
    b_raw: np.ndarray | None
    b_breve: np.ndarray | None
    beta: np.ndarray | None
    b_bar: np.ndarray | None
    recon_err: np.ndarray | None      # (N,) max-abs reconstruction defect
    qv: np.ndarray | None             # (N, m, m) quadratic variation of b_bar
    cross: np.ndarray | None          # (N, m, m) sum of dB_tilde x dbeta
    bismut_vec: np.ndarray | None     # (N, n): S(v0) = bismut_vec . v0
    hp_lo: np.ndarray | None          # (N,) integral of the lower moment form
    hp_hi: np.ndarray | None
    n_dropped: int
    path: FlowPath | None = None
    earlier: SimResult | None = None  # the same run at an earlier step (``also_at``)

    def W(self) -> np.ndarray:
        """Filtered flow matrices W_T = //^_T What_T."""
        return self.par_adj @ self.What

    def V(self) -> np.ndarray:
        """Covariant-Ito derivative flow matrices V_T = //^_T Vhat_T."""
        return self.par_adj @ self.Vhat


# ---------------------------------------------------------------------------
# batched bundle evaluation, one chart name per row
# ---------------------------------------------------------------------------


_FIELDS = tuple(f.name for f in fields(PointData))


def _bundle(system: SdeSystem, cids: str | np.ndarray, x: np.ndarray,
            level: str) -> PointData:
    """Bundle at one of three levels: "coeff" (X, A), "light" (+ DX, DA) or
    "full" (all of ``point_data``), with the chart of each row in ``cids``."""
    if level == "coeff":
        pd = PointData(X=system.coeff_x(cids, x), A=system.coeff_a(cids, x),
                       DX=None, DA=None)
    else:
        pd = point_data(system, cids, x, light=level == "light")
    # C order: the engine's einsum and matmul sums depend on operand layout in
    # their last bits, and the sphere's coeff_x returns a transposed view
    pd.X = np.ascontiguousarray(pd.X)
    return pd


def _scatter_rows(dst: PointData, src: PointData, mask: np.ndarray) -> None:
    for name in _FIELDS:
        d = getattr(dst, name)
        s = getattr(src, name)
        if d is not None and s is not None:
            d[mask] = s


def _gamma_light(system: SdeSystem, cids: str | np.ndarray, x: np.ndarray) -> np.ndarray:
    """Induced-connection Christoffels from a light bundle evaluation."""
    pd = _bundle(system, cids, x, "light")
    Xt = np.swapaxes(pd.X, -1, -2)
    Y = Xt @ np.linalg.inv(pd.X @ Xt)
    return _induced_gamma(pd.DX, Y)


def _rk4_transport(Fk: np.ndarray, Fm: np.ndarray, Fp: np.ndarray,
                   par: np.ndarray) -> np.ndarray:
    """One RK4 step of dv/ds = F(s) v on frames, with F at the start,
    midpoint and end of the segment."""
    k1 = Fk @ par
    k2 = Fm @ (par + 0.5 * k1)
    k3 = Fm @ (par + 0.5 * k2)
    k4 = Fp @ (par + k3)
    return par + (k1 + 2.0 * (k2 + k3) + k4) / 6.0


# the largest pre-snap isometry defect, max |g0^-1 par^T g par - I|, that two
# Newton-Schulz steps take to rounding (each maps e to about 3 e^2 / 4)
_SNAP_NS_MAX = 1e-4


def _isometrize(par: np.ndarray, g: np.ndarray, g0: np.ndarray,
                ginv0: np.ndarray) -> np.ndarray:
    """Snap transport frames to g-isometries: par^T g par = g0.

    Transport with a metric connection keeps that identity; one integrator
    step only meets it to local truncation order.  Two Newton-Schulz polar
    steps in metric form, ``par <- par (3 I - g0^-1 par^T g par) / 2``
    (Higham 1986), restore it to rounding with matrix products alone.  This
    is the orthogonal polar step ``Q <- Q (3 I - Q^T Q) / 2`` on
    ``Q = L^T par L0^-T`` (``g = L L^T``, ``g0 = L0 L0^T``) written without
    the factors, so it keeps the rotation content of the frame.  A row whose
    defect exceeds ``_SNAP_NS_MAX`` (a rare large step, where the iteration
    would stop short or diverge) takes the exact polar factor instead.
    """
    eye = np.eye(par.shape[-1])
    gram = ginv0 @ (np.swapaxes(par, -1, -2) @ (g @ par))
    far = np.max(np.abs(gram - eye), axis=(-2, -1)) > _SNAP_NS_MAX
    out = 1.5 * par - 0.5 * (par @ gram)
    gram = ginv0 @ (np.swapaxes(out, -1, -2) @ (g @ out))
    out = 1.5 * out - 0.5 * (out @ gram)
    if far.any():
        out[far] = _polar_snap(par[far], np.broadcast_to(g, par.shape)[far], g0)
    return out


def _polar_snap(par: np.ndarray, g: np.ndarray, g0: np.ndarray) -> np.ndarray:
    """The exact snap: the polar factor of ``L^T par L0^-T``, mapped back."""
    L = np.linalg.cholesky(g)
    L0 = np.linalg.cholesky(g0)
    u, _, vh = np.linalg.svd(np.swapaxes(L, -1, -2) @ par @ np.linalg.inv(L0).T)
    return np.swapaxes(np.linalg.inv(L), -1, -2) @ (u @ vh) @ L0.T


def _isometry_inverse(par: np.ndarray, g: np.ndarray, ginv0: np.ndarray) -> np.ndarray:
    """Inverse of a frame with par^T g par = g0: ``g0^-1 par^T g``."""
    return ginv0 @ (np.swapaxes(par, -1, -2) @ g)


def _polar_columns(mat: np.ndarray) -> np.ndarray:
    """Closest matrix with orthonormal columns (polar factor), batched."""
    if mat.shape[-1] == 1:
        nrm = np.linalg.norm(mat, axis=-2, keepdims=True)
        return mat / np.where(nrm == 0.0, 1.0, nrm)
    u, _, vh = np.linalg.svd(mat, full_matrices=False)
    return u @ vh


def _null_frame(X0: np.ndarray) -> np.ndarray | None:
    """Orthonormal basis of ker X0 (rows m), deterministic via SVD."""
    n, m = X0.shape
    if m == n:
        return None
    _, _, vh = np.linalg.svd(X0)
    return vh[n:].T.copy()  # (m, m-n)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


def _mwhere(mask: np.ndarray, new: np.ndarray, old: np.ndarray) -> np.ndarray:
    return np.where(mask.reshape(mask.shape + (1,) * (new.ndim - 1)), new, old)


def _hp_extremes_quadratic(bundle: PointData) -> tuple[np.ndarray, np.ndarray]:
    from .geometry import moment_quadratic
    B = moment_quadratic(bundle)
    L = np.linalg.cholesky(bundle.g)
    Linv = np.linalg.inv(L)
    evals = np.linalg.eigvalsh(Linv @ B @ np.swapaxes(Linv, -1, -2))
    return evals[..., 0], evals[..., -1]


def _hp_extremes(bundle: PointData, p: float) -> tuple[np.ndarray, np.ndarray]:
    # gradX = 0 kills the quartic term, so the p = 2 eigensolve covers any p
    if p == 2.0 or float(np.max(np.abs(bundle.gradX))) < 1e-12:
        return _hp_extremes_quadratic(bundle)
    from .geometry import moment_form_extremes
    return moment_form_extremes(bundle, p, grid=128)


# Fields every run fills, whatever it requests: the state, the alive mask,
# the charts, the group centres and the start data.
_CORE = frozenset((
    "t", "dt", "steps", "seed", "n_paths", "chart_names", "cid0", "x0", "g0",
    "ginv0", "X0", "Y0", "L0", "F0", "cid_idx", "x", "centers", "embedded",
    "alive", "n_dropped", "path", "earlier", "times", "increments"))
_SIM_COMPANIONS = tuple(f.name for f in fields(SimResult) if f.name not in _CORE)
_PATH_FIELDS = tuple(f.name for f in fields(FlowPath))
_ALL = _CORE | frozenset(_SIM_COMPANIONS) | frozenset(_PATH_FIELDS)

# the noise decomposition: one companion, whichever of its fields is read
_DECOMPOSITION = ("F", "b_raw", "b_breve", "beta", "b_tilde", "b_bar", "recon",
                  "recon_err", "qv", "cross")
# frames of tangent vectors at the current point, pushed through chart changes
_TANGENT_FRAMES = ("J", "par_lw", "par_adj")

# The dependency table: what a requested field forces on, as other fields and
# bundle levels.  The state alone evaluates coefficients only (X, A); "light"
# bundles add DX and DA, "full" ones are all of point_data.
_NEEDS = {
    "J": ("light",),
    "par_lw": ("full",),
    "par_adj": ("full",),
    "What": ("par_adj",),
    "Vhat": ("par_adj",),
    "bismut_vec": ("par_lw", "par_adj", "What"),
    "g_T": ("full",),
    "hp_lo": ("full",),
    "hp_hi": ("full",),
    "full": ("light",),
    **dict.fromkeys(_DECOMPOSITION, ("par_lw",)),
}


def _requested(need: Iterable[str] | None, hp_p: float | None) -> frozenset:
    """The fields a run fills: the core plus ``need`` (everything if None)."""
    need = _ALL if need is None else frozenset(need)
    unknown = need - _ALL
    if unknown:
        raise BadParams(f"unknown result fields requested: {sorted(unknown)}")
    if hp_p is None:
        need = need - {"hp_lo", "hp_hi"}
    return _CORE | need


def _closure(need: frozenset) -> set:
    """``need`` with everything the dependency table forces on."""
    on: set = set()
    todo = list(need)
    while todo:
        name = todo.pop()
        if name not in on:
            on.add(name)
            todo.extend(_NEEDS.get(name, ()))
    return on


def _run_block(system: SdeSystem, seed: int, indices: np.ndarray, steps: int,
               dt: float, cid0: str, x0: np.ndarray, hp_p: float | None,
               record: bool, need: frozenset, adj_metric: bool,
               noise: np.ndarray | None = None, also_at: int | None = None) -> dict:
    """Integrate one block of paths; ``need`` is what ``_requested`` returns.

    ``adj_metric`` says whether the adjoint connection is metric at the
    start, so that ``//^`` frames may be isometrized.

    With ``also_at``, ``out["earlier"]`` holds the same fields after that
    many steps, copied since the engine updates some arrays in place.
    """
    n, m = system.n, system.m
    P = len(indices)
    chart_names = tuple(c.cid for c in system.charts)
    cid0_idx = chart_names.index(cid0)
    if noise is None:
        noise = _block_noise(seed, indices, steps, dt, m)
    on = _closure(need)
    level = "full" if "full" in on else "light" if "light" in on else "coeff"
    level_s = "light" if "light" in on else "coeff"  # predictor bundle: J only
    decompose = not on.isdisjoint(_DECOMPOSITION)
    transport = "par_lw" in on or "par_adj" in on

    x = np.broadcast_to(x0, (P, n)).copy()
    cid_idx = np.full(P, cid0_idx, dtype=np.int64)
    centers = None
    if system.is_group:
        centers = np.broadcast_to(system.group_identity(), (P, 4)).copy()
    alive = np.ones(P, dtype=bool)
    # companion processes by field name: frames, then per-path accumulators
    eye = np.broadcast_to(np.eye(n), (P, n, n))
    st = {name: eye.copy() for name in ("J", "par_lw", "par_adj", "What", "Vhat")
          if name in on}

    cids = np.asarray(chart_names)[cid_idx]  # chart name per row
    bundle = _bundle(system, cids, x, level)
    origin_bundle = bundle if system.is_group else None
    start = point_data(system, cid0, x[:1])
    g0 = start.g[0].copy()
    ginv0 = start.ginv[0].copy()
    X0 = start.X[0].copy()
    Y0 = start.Y[0].copy()
    L0 = np.linalg.cholesky(g0)
    F0 = _null_frame(X0)
    F = None
    if decompose:
        if F0 is not None:
            F = np.broadcast_to(F0, (P,) + F0.shape).copy()
        st.update(b_raw=np.zeros((P, m)), b_breve=np.zeros((P, n)),
                  beta=np.zeros((P, m)), b_bar=np.zeros((P, m)),
                  recon=np.zeros((P, m)), qv=np.zeros((P, m, m)),
                  cross=np.zeros((P, m, m)))
    if "bismut_vec" in on:
        st["bismut_vec"] = np.zeros((P, n))
    hp = "hp_lo" in on or "hp_hi" in on
    if hp:
        st.update(hp_lo=np.zeros(P), hp_hi=np.zeros(P))

    rec: dict[str, list] = {}  # recorded series: FlowPath fields requested

    def snapshot():
        vals = dict(st, cid_idx=cid_idx, x=x, alive=alive, centers=centers)
        if "b_tilde" in need:
            vals["b_tilde"] = st["b_breve"] @ Y0.T
        for key in _PATH_FIELDS:
            if key in need and key in vals:
                val = vals[key]
                rec.setdefault(key, []).append(None if val is None else val.copy())

    if record:
        snapshot()

    def fields_now() -> dict:
        """The block's result fields at the current step."""
        out = dict(st, chart_names=chart_names, cid0=cid0, x0=x0, g0=g0,
                   ginv0=ginv0, X0=X0, Y0=Y0, L0=L0, F0=F0, cid_idx=cid_idx, x=x,
                   centers=centers, alive=alive, F=F)
        if decompose:
            out["recon_err"] = np.max(np.abs(st["recon"] - st["b_raw"]), axis=-1)
        if "g_T" in on:
            out["g_T"] = (bundle.g.copy() if bundle.g.ndim == 3
                          else np.broadcast_to(bundle.g, (P, n, n)).copy())
        return out

    guard = system.guard_radius if system.guard_radius is not None else np.inf
    has_drift = system.has_drift

    def inv_adj_at(par: np.ndarray, B: PointData) -> np.ndarray:
        """Inverse of a //^ frame at the points of ``B``: the closed form
        when the frames are isometries, a solve otherwise."""
        return _isometry_inverse(par, B.g, ginv0) if adj_metric else np.linalg.inv(par)

    for k in range(steps):
        dB = noise[:, k, :]
        Bk = bundle

        # predictor / corrector for the state
        drift_k = Bk.A * dt
        x_star = x + np.einsum("...ij,...j->...i", Bk.X, dB) + drift_k
        Bs = _bundle(system, cids, x_star, level_s)
        x_plus = (x + 0.5 * np.einsum("...ij,...j->...i", Bk.X + Bs.X, dB)
                  + 0.5 * (Bk.A + Bs.A) * dt)

        bad = ~np.isfinite(x_plus).all(axis=-1)
        if np.isfinite(guard):
            bad |= np.linalg.norm(x_plus, axis=-1) > guard
        upd = alive & ~bad
        alive = upd.copy()
        x_plus = _mwhere(upd, x_plus, x)
        new: dict[str, np.ndarray] = {}  # frames after the step
        inc: dict[str, np.ndarray] = {}  # accumulator increments

        # variational Jacobian, Heun on dJ = (DX(x) dB + DA(x) dt) J
        if "J" in st:
            J = st["J"]
            DGk = np.einsum("...irj,...r->...ij", Bk.DX, dB)
            DGs = np.einsum("...irj,...r->...ij", Bs.DX, dB)
            if has_drift:
                DGk = DGk + Bk.DA * dt
                DGs = DGs + Bs.DA * dt
            new["J"] = J + 0.5 * (DGk @ J + DGs @ (J + DGk @ J))

        # bundle at the corrected point (pre chart switch)
        Bp = _bundle(system, cids, x_plus, level)

        # parallel transports, RK4 on dv/ds = -Gamma(x + s dx)(dx, v)
        if transport:
            dx = x_plus - x
            gamma_mid = _gamma_light(system, cids, x + 0.5 * dx)

            def _seg_mats(spec):
                return tuple(-np.einsum(spec, gam, dx)
                             for gam in (Bk.gamma, gamma_mid, Bp.gamma))

            if "par_lw" in st:
                par_lw_new = _rk4_transport(*_seg_mats("...ijk,...j->...ik"), st["par_lw"])
                new["par_lw"] = _isometrize(par_lw_new, Bp.g, g0, ginv0)
            if "par_adj" in st:
                par_adj_new = _rk4_transport(*_seg_mats("...ikj,...j->...ik"), st["par_adj"])
                if adj_metric:
                    par_adj_new = _isometrize(par_adj_new, Bp.g, g0, ginv0)
                new["par_adj"] = par_adj_new

        # Ito sums at the left point
        if "par_lw" in st:
            inv_lw = _isometry_inverse(st["par_lw"], Bk.g, ginv0)
            dBbreve = np.einsum("...ij,...jk,...k->...i", inv_lw, Bk.X, dB)
        if "What" in st or "Vhat" in st:
            inv_adj = inv_adj_at(st["par_adj"], Bk)
        if decompose:
            dBtilde = dBbreve @ Y0.T
            if F0 is not None:
                dbeta = np.einsum("ij,...kj,...k->...i", F0, F, dB)
            else:
                dbeta = np.zeros_like(dBtilde)
            dBbar = dBtilde + dbeta
            # reconstruction through the full transport, kept honest term by term
            tan = np.einsum("...ij,...jk,kl,...l->...i", Bk.Y, st["par_lw"], X0, dBbar)
            if F0 is not None:
                nor = np.einsum("...ij,kj,...k->...i", F, F0, dBbar)
            else:
                nor = 0.0
            inc.update(b_raw=dB, b_breve=dBbreve, beta=dbeta, b_bar=dBbar,
                       recon=tan + nor, qv=dBbar[..., :, None] * dBbar[..., None, :],
                       cross=dBtilde[..., :, None] * dbeta[..., None, :])

        # covariant Ito derivative flow in the adjoint-transported frame
        if "Vhat" in st:
            Vk = st["par_adj"] @ st["Vhat"]
            G_noise = np.einsum("...aib,...i->...ab", Bk.gradX, dB)
            M_ito = G_noise - 0.5 * dt * Bk.ric_sharp + dt * Bk.nabla_a
            new["Vhat"] = st["Vhat"] + inv_adj @ (M_ito @ Vk)

        # Bismut integrand <//~^-1 W_s v0, dB_breve>_{g0}, linear in v0
        if "bismut_vec" in st:
            Wk = st["par_adj"] @ st["What"]
            inc["bismut_vec"] = np.einsum("...ba,bc,...c->...a", inv_lw @ Wk, g0, dBbreve)

        # filtered flow, RK2 on What' = L(s) What
        if "What" in st:
            What = st["What"]
            inv_adj_new = inv_adj_at(new["par_adj"], Bp)
            damp_k = -0.5 * Bk.ric_sharp + Bk.nabla_a
            damp_p = -0.5 * Bp.ric_sharp + Bp.nabla_a
            Lk = inv_adj @ (damp_k @ st["par_adj"])
            Lp = inv_adj_new @ (damp_p @ new["par_adj"])
            new["What"] = What + 0.5 * dt * (Lk @ What + Lp @ (What + dt * (Lk @ What)))

        # moment-form integrals at the left point
        if hp:
            lo, hi = _hp_extremes(Bk, hp_p)
            st["hp_lo"] = st["hp_lo"] + np.where(upd, lo * dt, 0.0)
            st["hp_hi"] = st["hp_hi"] + np.where(upd, hi * dt, 0.0)

        # commit masked updates
        for name, val in new.items():
            st[name] = _mwhere(upd, val, st[name])
        for name, val in inc.items():
            st[name] = st[name] + _mwhere(upd, val, np.zeros_like(val))

        # normal frame: project forward, renormalize by the polar factor
        if F is not None:
            F = _mwhere(upd, _polar_columns(Bp.PN @ F), F)

        # chart switches / group recentering carry the tangent frames along
        tangent = [name for name in _TANGENT_FRAMES if name in st]
        if system.is_group:
            new_centers = system.group_compose(centers, x_plus)
            centers = _mwhere(upd, new_centers, centers)
            if tangent:
                M = system.group_recenter_jacobian(x_plus)
                for name in tangent:
                    st[name] = _mwhere(upd, M @ st[name], st[name])
            x = _mwhere(upd, np.zeros_like(x), x_plus)
            bundle = origin_bundle
        else:
            x = x_plus
            bundle = Bp
            sw = upd & system.switch_mask(cids, x)
            if sw.any():
                target = system.switch_target(cids[sw])
                if tangent:
                    M = system.transition_jacobian(cids[sw], target, x[sw])
                    for name in tangent:
                        st[name][sw] = M @ st[name][sw]
                x[sw] = system.transition(cids[sw], target, x[sw])
                cids[sw] = target
                cid_idx[sw] = [chart_names.index(c) for c in target]
                # only the switched rows are evaluated again
                _scatter_rows(bundle, _bundle(system, target, x[sw], level), sw)
        if record:
            snapshot()
        if k + 1 == also_at:
            earlier = {key: val.copy() if isinstance(val, np.ndarray) else val
                       for key, val in fields_now().items()}

    out = fields_now()
    if also_at is not None:
        out["earlier"] = earlier
    if record:
        out["record"] = {key: None if frames[0] is None else np.stack(frames, axis=0)
                         for key, frames in rec.items()}
        out["increments"] = noise
    return out


def _assemble(system: SdeSystem, blocks: list[dict], need: frozenset,
              path: FlowPath | None = None, **run) -> SimResult:
    """One ``SimResult`` from per-block field dicts, merged in block order;
    ``run`` holds ``t``, ``dt``, ``steps``, ``seed``, ``n_paths`` and ``cid0``."""

    def cat(key):
        vals = [b.get(key) for b in blocks]
        if vals[0] is None:
            return None
        return np.concatenate(vals, axis=0)

    first = blocks[0]
    alive = cat("alive")
    cid_idx = cat("cid_idx")
    x = cat("x")
    centers = cat("centers")
    chart_names = first["chart_names"]
    cids = np.asarray(chart_names)[cid_idx]
    if system.is_group:
        emb = system.embed(cids, x, center=centers)
    else:
        emb = system.embed(cids, x)

    companions = {name: cat(name) if name in need else None for name in _SIM_COMPANIONS}
    return SimResult(
        **run, chart_names=chart_names, x0=first["x0"], g0=first["g0"],
        ginv0=first["ginv0"], X0=first["X0"], Y0=first["Y0"], L0=first["L0"],
        F0=first["F0"], cid_idx=cid_idx, x=x, centers=centers, embedded=emb,
        alive=alive, n_dropped=int(run["n_paths"] - alive.sum()), path=path,
        **companions,
    )


def simulate(system: SdeSystem, *, t: float, dt: float, n_paths: int, seed: int,
             x0: np.ndarray | None = None, cid: str | None = None,
             hp_p: float | None = None, threads: int = 1,
             record: bool = False, noise: np.ndarray | None = None,
             need: Iterable[str] | None = None,
             also_at: int | None = None) -> SimResult:
    """Run ``n_paths`` independent paths to time ``t`` and gather terminals.

    ``record=True`` additionally stores the full time series (meant for small
    batches).  ``noise`` optionally supplies the increments (n_paths, steps, m)
    directly, bypassing the seeded streams; otherwise each block draws its
    paths' streams with one re-keyed Philox (see ``_block_noise``).

    ``need`` names the ``SimResult`` (and, with ``record``, ``FlowPath``)
    fields the caller will read; ``None`` means all of them.  The state, the
    alive mask, the charts, the group centres and the start data (``g0``,
    ``ginv0``, ``X0``, ``Y0``, ``L0``, ``F0``) are always filled.  Only the
    companion processes the requested fields depend on are integrated (see
    ``_NEEDS``), and every field not requested is ``None``; ``hp_lo`` and
    ``hp_hi`` also need ``hp_p``.  A requested field holds exactly the values
    a run with ``need=None`` gives.

    ``also_at`` (a step count, 1 to ``t/dt``) also returns the result after
    that many steps of the same run as ``earlier``: a ``SimResult`` with
    ``t = also_at * dt`` and no ``path``, equal field by field to a separate
    run to that time, since a stream's first steps do not depend on its
    length.
    """
    steps = int(round(t / dt))
    if steps <= 0 or abs(steps * dt - t) > 1e-9 * max(1.0, t):
        raise BadParams(f"t={t} is not an integer multiple of dt={dt}")
    if also_at is not None and not 1 <= also_at <= steps:
        raise BadParams(f"also_at={also_at} is not a step count in 1..{steps}")
    if cid is None or x0 is None:
        cid_d, x0_d = system.start()
        cid = cid if cid is not None else cid_d
        x0 = x0 if x0 is not None else x0_d
    x0 = np.asarray(x0, dtype=float)
    need = _requested(need, hp_p)
    # the induced connection is always metric; its adjoint only under
    # skew-symmetric torsion, so only then may //^ frames be isometrized
    adj_metric = "par_adj" in _closure(need) and bool(tss_check(system, cid, x0)[0])

    blocks = [np.arange(lo, min(lo + BLOCK, n_paths))
              for lo in range(0, n_paths, BLOCK)]
    if (record or noise is not None) and len(blocks) > 1:
        raise BadParams("record mode and explicit noise support one block of paths")

    def work(idx_block):
        return _run_block(system, seed, idx_block, steps, dt, cid, x0, hp_p,
                          record, need, adj_metric, noise=noise, also_at=also_at)

    if threads <= 1 or len(blocks) == 1:
        results = [work(b) for b in blocks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, blocks))

    path = None
    if record:
        first = results[0]
        series = dict.fromkeys(_PATH_FIELDS, None)
        series.update(first["record"])
        series.update(times=np.arange(steps + 1) * dt, increments=first["increments"],
                      chart_names=first["chart_names"], g0=first["g0"],
                      x0=first["x0"], cid0=cid)
        path = FlowPath(**series)

    run = dict(dt=dt, seed=seed, n_paths=n_paths, cid0=cid)
    res = _assemble(system, results, need, path, t=t, steps=steps, **run)
    if also_at is not None:
        res.earlier = _assemble(system, [r["earlier"] for r in results], need,
                                t=also_at * dt, steps=also_at, **run)
    return res


# ---------------------------------------------------------------------------
# pathwise wrappers (spec-level operations on one noise grid)
# ---------------------------------------------------------------------------


def _as_noise_list(noise) -> list[NoiseGrid]:
    if isinstance(noise, NoiseGrid):
        return [noise]
    return list(noise)


def integrate_flow(system: SdeSystem, x0: np.ndarray | None, noise: NoiseGrid,
                   cid: str | None = None) -> FlowPath:
    """Integrate the flow for the paths of one shared-seed noise family.

    All companion processes (Jacobian, transports, filtered and covariant
    flows, decomposed noises) ride the same grid, per the pathwise identities
    they are meant to verify.
    """
    grids = _as_noise_list(noise)
    steps, dt, seed = grids[0].steps, grids[0].dt, grids[0].seed
    for g in grids:
        if (g.steps, g.dt) != (steps, dt):
            raise BadParams("all noise grids in one run must share steps and dt")
    inc = np.stack([g.increments for g in grids], axis=0)
    res = simulate(system, t=steps * dt, dt=dt, n_paths=len(grids), seed=seed,
                   x0=x0, cid=cid, record=True, noise=inc)
    return res.path


def reconstruction_error(path: FlowPath) -> np.ndarray:
    """Pathwise max-abs defect of B = sum //~ dB_bar, per path."""
    return np.max(np.abs(path.recon - path.b_raw), axis=(0, -1))


def transport_along(system: SdeSystem, cid: str, xs: np.ndarray, kind: str,
                    oracle=None) -> np.ndarray:
    """RK4 parallel transport along an explicit discrete path (K+1, n).

    Serves deterministic-curve experiments (holonomy around loops); the SDE
    engine owns transport along simulated paths.
    """
    from .geometry import christoffel
    xs = np.asarray(xs, dtype=float)
    gammas = christoffel(system, cid, xs, kind, oracle)
    mids = christoffel(system, cid, 0.5 * (xs[:-1] + xs[1:]), kind, oracle)
    K = xs.shape[0] - 1
    n = xs.shape[1]
    frames = np.empty((K + 1, n, n))
    frames[0] = np.eye(n)
    for k in range(K):
        dx = xs[k + 1] - xs[k]
        Fk, Fm, Fp = (-np.einsum("ijk,j->ik", gam, dx)
                      for gam in (gammas[k], mids[k], gammas[k + 1]))
        frames[k + 1] = _rk4_transport(Fk, Fm, Fp, frames[k])
    return frames
