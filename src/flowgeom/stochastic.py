"""Pathwise simulation of the stochastic flow and its companion processes.

One noise grid drives everything: the state (Stratonovich Heun), the
variational Jacobian, parallel transports for the induced connection and its
adjoint, the covariant Ito form of the derivative flow, the filtered
(damped) flow, and the noise decomposition with its exact discrete
reconstruction.  Paths are independent given (seed, path index); the index
range is split into fixed blocks of ``BLOCK`` paths, run one after another on
the calling thread and merged in block order.  The start data
(``g0``, ``ginv0``, ``X0``, ``Y0``, ``L0``, ``F0``: the frames at ``x0``)
is built once per run, from one ``PointData`` at ``x0``; a block
integrates its paths and returns only their per-path fields.

Demand-driven companions: ``simulate(..., need=...)`` names the result
fields the caller reads, and the engine integrates only what they depend on.
The state, alive mask, chart switches and group re-centring always run.
Each bundle (``PointData``) computes a field on its first read, so a run
evaluates only the bundle fields its companions read.  The dependency table
(``_NEEDS``), requested field -> the companions it forces on, and what the
bundles compute for it:

    (always)            the state: X and A at each step's point and predictor
    J                   DX and DA there
    par_lw, par_adj     the induced Christoffels at each step's ends and
                        midpoint, and g for the isometry snap
    What, Vhat          par_adj; Ric# and nab A
    bismut_vec          par_lw, par_adj, What
    b_raw, b_breve, beta, b_bar, recon_err, qv, cross, F
                        one noise-decomposition companion: par_lw and the
                        normal frame (Y, PN)
    g_T                 g at the point of the step
    hp_lo, hp_hi        the moment form's extremes (only with hp_p)

A requested field holds exactly the values of a run with ``need=None``; a
field not requested is None.

Reading a run part-way: ``simulate(..., at=steps)`` also returns the run
after each listed step count, as ``SimResult.snapshots`` in the order given
(step 0 is the start state).  A snapshot holds the requested fields after
``k`` steps, equal to a separate run to ``k * dt``.

Noise: path ``i`` of a run seeded ``s`` draws from
``np.random.Generator(np.random.Philox(key=[s, i]))`` with the key as uint64;
increments are ``standard_normal((steps, m)) * sqrt(dt)``.  Philox is
counter-based, so the stream depends only on ``(s, i)``, and its first steps
do not depend on ``steps``.  A block builds one Philox and re-keys it to each
of its paths in turn: it keeps numpy's own start state as plain Python ints
and sets the key's second word to the path index, because the ``state``
setter converts its values one element at a time, about twice as fast from
ints as from numpy array elements.  ``simulate(..., coarsen=c)`` runs at
``dt`` on the Brownian path of a run at ``dt / 2**c``: each path draws its
stream for ``steps * 2**c`` steps of ``dt / 2**c`` and sums adjacent pairs
of increments ``c`` times, so runs at dt, dt/2 and dt/4 with ``coarsen`` 2,
1 and 0 share their Brownian paths (the multilevel Monte Carlo coupling).

Derivatives and frames: the bundles take DX and DA from the model's
``coeff_dx`` and ``coeff_da`` (closed forms on flat, sphere-gradient,
so3-left-invariant, twisted-plane and circle, symbolic derivatives of the
expressions on ``custom`` and the flat drift), so a run never calls the
finite-difference oracle.  After each RK4 transport step a frame
of a metric connection is snapped to a g-isometry, ``par^T g par = g0``, by
two Newton-Schulz polar steps ``par <- par (3 I - g0^-1 par^T g par) / 2``
(``_isometrize``; rows with a defect above ``_SNAP_NS_MAX`` take the exact
polar factor).  The inverse of such a frame is the closed form
``g0^-1 par^T g`` with ``g`` at the frame's point; ``//^`` frames of a
non-metric adjoint connection are not snapped and are inverted by a solve.

Memory layout: every array ``_run_block`` works on (the state, the noise of
a step, the frames, the accumulators and the bundle fields) keeps its logical
shape ``(P, ...)`` but has the path axis fastest in memory, in Fortran
order.  Its per-row products are then each one ``np.einsum`` over the
block: on path-fastest operands einsum's inner loop runs along the paths,
one kernel call in all, where ``@`` calls a tiny kernel per row (a stacked
2x2 product of 2048 rows takes about a quarter of the time); elementwise
work on 2x2 rows runs along the paths too.  The model and geometry return
results in their input's layout, so this holds through every bundle;
constant operands (``g0``, ``X0``, ...) stay C-ordered, since a
Fortran-ordered constant makes einsum iterate the wrong way.  Sub-batches
(the rows that switch chart) are copied back into this layout before they
are evaluated.  The engine never evaluates a batch of one row: numpy lays
out a one-row einsum or ufunc result by its inner axes alone, which loses
the layout and with it einsum's summation order, so a lone path runs twice
in its block and a lone switched row is evaluated twice.  So a path's
values do not depend on how many paths share its block or its chart
switch.  Nor do its ``hp_lo``/``hp_hi``: the moment-form extremes pick
their route and stop row by row
(``test_a_path_does_not_depend_on_its_block_for_the_moment_form``).
``SimResult`` holds C-ordered arrays, as every caller outside the engine
does.

Conventions: "∘dB" equations step with Heun (predictor-corrector); explicit
Ito sums (anti-developments, the covariant derivative-flow equation) use
left-point Euler on the same grid.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from math import sqrt
from typing import Iterable

import numpy as np

from .errors import BadParams
from .geometry import (
    PointData,
    _torsion_skew,
    christoffel,
    geometry_point,
    moment_form_extremes,
    point_data,
)
from .linalg import as_engine, in_layout_of
from .model import SdeSystem

__all__ = ["SimResult", "simulate", "transport_along"]

# Paths per block.  Blocks run one after another, so this caps the memory of
# a run: every array of a block (noise, frames, bundle fields) is sized by
# it, and one block of 4096 or 8192 rows peaked about 6 MiB above blocks of
# 2048 on the benchmark workloads.  It is also the unit noise is drawn in: a
# block builds one Philox and re-keys it to each of its paths.
BLOCK = 2048


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


def _block_noise(seed: int, indices: np.ndarray, steps: int, dt: float, m: int,
                 coarsen: int = 0) -> np.ndarray:
    """Increments (len(indices), steps, m) of the listed paths.

    One Philox serves the block: before each row it is set back to the
    state a fresh ``Philox(key=[seed, index])`` starts in, so a row depends
    on its index alone.  That state is numpy's own start state with the key
    replaced, kept as plain Python ints: the ``state`` setter converts its
    values one element at a time, about twice as fast from ints as from
    numpy array elements.  With ``coarsen = c`` the rows are drawn at
    ``dt / 2**c`` for ``steps * 2**c`` steps, then adjacent pairs are summed
    ``c`` times.
    """
    steps, dt = steps << coarsen, dt / 2**coarsen
    # an explicit uint64 key: a plain list would pass seeds >= 2**63 through
    # float64, so neighbouring seeds would share a stream; a given key also
    # spares the OS-entropy seed a keyless Philox draws
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    start = bits.state
    fresh = dict(start, state={k: v.tolist() for k, v in start["state"].items()},
                 buffer=start["buffer"].tolist())
    key = fresh["state"]["key"]
    draw = np.random.Generator(bits).standard_normal
    out = np.empty((len(indices), steps, m))
    for row, idx in zip(out, indices.tolist()):
        key[1] = idx
        bits.state = fresh
        draw(out=row)
    out *= sqrt(dt)
    for _ in range(coarsen):
        out = out.reshape(len(indices), -1, 2, m).sum(axis=2)
    return out


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


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
    # the same run after each step count of ``simulate(..., at=...)``
    snapshots: list[SimResult] = field(default_factory=list)

    def W(self) -> np.ndarray:
        """Filtered flow matrices W_T = //^_T What_T."""
        return self.par_adj @ self.What

    def V(self) -> np.ndarray:
        """Covariant-Ito derivative flow matrices V_T = //^_T Vhat_T."""
        return self.par_adj @ self.Vhat


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------


_MM = "...ij,...jk->...ik"   # the per-row matrix product
_TMM = "...ji,...jk->...ik"  # the same with the left factor transposed


def _middle(T: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``T[..., a, r, b] v[..., r]``, the middle axis contracted: one einsum
    over engine-layout rows, whose inner loop runs along the paths."""
    return np.einsum("...arb,...r->...ab", T, v)


def _rk4_transport(Fk: np.ndarray, Fm: np.ndarray, Fp: np.ndarray,
                   par: np.ndarray) -> np.ndarray:
    """One RK4 step of dv/ds = F(s) v on frames, with F at the start,
    midpoint and end of the segment."""
    k1 = np.einsum(_MM, Fk, par)
    k2 = np.einsum(_MM, Fm, par + 0.5 * k1)
    k3 = np.einsum(_MM, Fm, par + 0.5 * k2)
    k4 = np.einsum(_MM, Fp, par + k3)
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
    gram = np.einsum(_MM, ginv0, np.einsum(_TMM, par, np.einsum(_MM, g, par)))
    far = np.max(np.abs(gram - eye), axis=(-2, -1)) > _SNAP_NS_MAX
    out = 1.5 * par - 0.5 * np.einsum(_MM, par, gram)
    gram = np.einsum(_MM, ginv0, np.einsum(_TMM, out, np.einsum(_MM, g, out)))
    out = 1.5 * out - 0.5 * np.einsum(_MM, out, gram)
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
    return np.einsum(_MM, ginv0, np.einsum(_TMM, par, g))


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
    """``new`` on the rows where ``mask`` holds, ``old`` on the others; ``new``
    itself when every row holds, which the engine may then write in place."""
    if mask.all():
        return new
    return np.where(mask.reshape(mask.shape + (1,) * (new.ndim - 1)), new, old)


# Fields every run fills, whatever it requests: the state, the alive mask,
# the charts, the group centres and the start data.
_CORE = frozenset((
    "t", "dt", "steps", "seed", "n_paths", "chart_names", "cid0", "x0", "g0",
    "ginv0", "X0", "Y0", "L0", "F0", "cid_idx", "x", "centers", "embedded",
    "alive", "n_dropped", "snapshots"))
_SIM_COMPANIONS = tuple(f.name for f in fields(SimResult) if f.name not in _CORE)
_ALL = _CORE | frozenset(_SIM_COMPANIONS)

# the noise decomposition: one companion, whichever of its fields is read
_DECOMPOSITION = ("F", "b_raw", "b_breve", "beta", "b_bar", "recon_err", "qv",
                  "cross")
# frames of tangent vectors at the current point, pushed through chart changes
_TANGENT_FRAMES = ("J", "par_lw", "par_adj")

# The dependency table: the companions a requested field forces on.  Each
# bundle computes only the fields the running companions read of it.
_NEEDS = {
    "What": ("par_adj",),
    "Vhat": ("par_adj",),
    "bismut_vec": ("par_lw", "par_adj", "What"),
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
               dt: float, start: dict, hp_p: float | None, on: set,
               adj_metric: bool, coarsen: int, at: tuple[int, ...]) -> list[dict]:
    """Integrate one block of paths from the run's ``start`` data (see
    ``simulate``); ``on`` is the ``_closure`` of the requested fields.

    ``adj_metric`` says whether the adjoint connection is metric at the
    start, so that ``//^`` frames may be isometrized.

    Returns the block's per-path fields after each step count in ``at``, in
    that order, then after the last step.  The entries before the last are
    copies, since the engine updates some arrays in place.
    """
    n, m = system.n, system.m
    P = len(indices)
    chart_names, x0 = start["chart_names"], start["x0"]
    g0, ginv0, X0, Y0, F0 = (start[k] for k in ("g0", "ginv0", "X0", "Y0", "F0"))
    noise = _block_noise(seed, indices, steps, dt, m, coarsen)
    decompose = not on.isdisjoint(_DECOMPOSITION)
    transport = "par_lw" in on or "par_adj" in on

    x = as_engine(np.broadcast_to(x0, (P, n)))
    cid_idx = np.full(P, chart_names.index(start["cid0"]), dtype=np.int64)
    centers = None
    if system.is_group:
        centers = np.broadcast_to(system.group_identity(), (P, 4)).copy()
    alive = np.ones(P, dtype=bool)
    # companion processes by field name: frames, then per-path accumulators
    eye = np.broadcast_to(np.eye(n), (P, n, n))
    st = {name: as_engine(eye) for name in ("J", "par_lw", "par_adj", "What", "Vhat")
          if name in on}

    cids = np.asarray(chart_names)[cid_idx]  # chart name per row
    bundle = point_data(system, cids, x)
    if system.is_group:  # every step after the first starts at u = 0
        origin_bundle = point_data(system, cids, as_engine(np.zeros((P, n))))
    F = None
    if decompose:
        if F0 is not None:
            F = as_engine(np.broadcast_to(F0, (P,) + F0.shape))
        shapes = dict(b_raw=(m,), b_breve=(n,), beta=(m,), b_bar=(m,), recon=(m,),
                      qv=(m, m), cross=(m, m))
        st.update({name: np.zeros((P,) + shape, order="F") for name, shape in shapes.items()})
    if "bismut_vec" in on:
        st["bismut_vec"] = np.zeros((P, n), order="F")
    hp = "hp_lo" in on or "hp_hi" in on
    if hp:
        st.update(hp_lo=np.zeros(P), hp_hi=np.zeros(P))

    kept: dict[int, dict] = {}  # step -> per-path fields, for ``at`` and the last step
    wanted = frozenset(at) | {steps}
    guard = system.guard_radius if system.guard_radius is not None else np.inf
    has_drift = system.has_drift

    def inv_adj_at(par: np.ndarray, B: PointData) -> np.ndarray:
        """Inverse of a //^ frame at the points of ``B``: the closed form
        when the frames are isometries, a solve otherwise."""
        if adj_metric:
            return _isometry_inverse(par, B.g, ginv0)
        return in_layout_of(par, np.linalg.inv(par))

    for k in range(steps + 1):
        if k in wanted:
            now = dict(st, cid_idx=cid_idx, x=x, centers=centers, alive=alive, F=F)
            if decompose:
                now["recon_err"] = np.max(np.abs(st["recon"] - st["b_raw"]), axis=-1)
            if "g_T" in on:
                now["g_T"] = bundle.g.copy()
            if k < steps:  # later steps update some of these arrays in place
                now = {key: val.copy() if isinstance(val, np.ndarray) else val
                       for key, val in now.items()}
            kept[k] = now
        if k == steps:
            break
        dB = as_engine(noise[:, k, :])  # a step's copy: no second block-sized array
        Bk = bundle

        # predictor / corrector for the state
        drift_k = Bk.A * dt
        x_star = x + np.einsum("...ij,...j->...i", Bk.X, dB) + drift_k
        Bs = point_data(system, cids, x_star)
        x_plus = (x + 0.5 * np.einsum("...ij,...j->...i", Bk.X + Bs.X, dB)
                  + 0.5 * (Bk.A + Bs.A) * dt)

        bad = ~np.isfinite(x_plus).all(axis=-1)
        if np.isfinite(guard):
            with np.errstate(over="ignore"):  # a norm that overflows is beyond it
                bad |= np.linalg.norm(x_plus, axis=-1) > guard
        upd = alive & ~bad
        alive = upd.copy()
        x_plus = _mwhere(upd, x_plus, x)
        new: dict[str, np.ndarray] = {}  # frames after the step
        inc: dict[str, np.ndarray] = {}  # accumulator increments

        # variational Jacobian, Heun on dJ = (DX(x) dB + DA(x) dt) J
        if "J" in st:
            J = st["J"]
            DGk = _middle(Bk.DX, dB)
            DGs = _middle(Bs.DX, dB)
            if has_drift:
                DGk = DGk + Bk.DA * dt
                DGs = DGs + Bs.DA * dt
            DGJ = np.einsum(_MM, DGk, J)
            new["J"] = J + 0.5 * (DGJ + np.einsum(_MM, DGs, J + DGJ))

        # bundle at the corrected point (pre chart switch)
        Bp = point_data(system, cids, x_plus)

        # parallel transports, RK4 on dv/ds = -Gamma(x + s dx)(dx, v)
        if transport:
            dx = x_plus - x
            gamma_mid = point_data(system, cids, x + 0.5 * dx).gamma

            gammas = (Bk.gamma, gamma_mid, Bp.gamma)
            if "par_lw" in st:
                mats = (-_middle(gam, dx) for gam in gammas)  # -G(dx, .)
                par_lw_new = _rk4_transport(*mats, st["par_lw"])
                new["par_lw"] = _isometrize(par_lw_new, Bp.g, g0, ginv0)
            if "par_adj" in st:
                mats = (-np.einsum("...ikj,...j->...ik", gam, dx) for gam in gammas)  # -G(., dx)
                par_adj_new = _rk4_transport(*mats, st["par_adj"])
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
            dBtilde = np.einsum("...j,ij->...i", dBbreve, Y0)
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
            Vk = np.einsum(_MM, st["par_adj"], st["Vhat"])
            G_noise = _middle(Bk.gradX, dB)
            M_ito = G_noise - 0.5 * dt * Bk.ric_sharp + dt * Bk.nabla_a
            new["Vhat"] = st["Vhat"] + np.einsum(_MM, inv_adj, np.einsum(_MM, M_ito, Vk))

        # Bismut integrand <//~^-1 W_s v0, dB_breve>_{g0}, linear in v0
        if "bismut_vec" in st:
            Wk = np.einsum(_MM, st["par_adj"], st["What"])
            inc["bismut_vec"] = np.einsum("...ba,bc,...c->...a", np.einsum(_MM, inv_lw, Wk),
                                         g0, dBbreve)

        # filtered flow, RK2 on What' = L(s) What
        if "What" in st:
            What = st["What"]
            inv_adj_new = inv_adj_at(new["par_adj"], Bp)
            damp_k = -0.5 * Bk.ric_sharp + Bk.nabla_a
            damp_p = -0.5 * Bp.ric_sharp + Bp.nabla_a
            Lk = np.einsum(_MM, inv_adj, np.einsum(_MM, damp_k, st["par_adj"]))
            Lp = np.einsum(_MM, inv_adj_new, np.einsum(_MM, damp_p, new["par_adj"]))
            LW = np.einsum(_MM, Lk, What)
            new["What"] = What + 0.5 * dt * (LW + np.einsum(_MM, Lp, What + dt * LW))

        # moment-form integrals at the left point
        if hp:
            lo, hi = moment_form_extremes(Bk, hp_p, grid=128)
            inc.update(hp_lo=lo * dt, hp_hi=hi * dt)

        # commit masked updates
        for name, val in new.items():
            st[name] = _mwhere(upd, val, st[name])
        for name, val in inc.items():
            st[name] = st[name] + _mwhere(upd, val, np.zeros_like(val))

        # normal frame: project forward, renormalize by the polar factor
        if F is not None:
            F = _mwhere(upd, in_layout_of(F, _polar_columns(np.einsum(_MM, Bp.PN, F))), F)

        # chart switches / group recentering carry the tangent frames along
        tangent = [name for name in _TANGENT_FRAMES if name in st]
        if system.is_group:
            new_centers = system.group_compose(centers, x_plus)
            centers = _mwhere(upd, new_centers, centers)
            if tangent:
                M = system.group_recenter_jacobian(x_plus)
                for name in tangent:
                    st[name] = _mwhere(upd, np.einsum(_MM, M, st[name]), st[name])
            x = _mwhere(upd, np.zeros_like(x), x_plus)
            bundle = origin_bundle
        else:
            x = x_plus
            bundle = Bp
            rows = np.flatnonzero(upd & system.switch_mask(cids, x))
            if rows.size:
                if rows.size == 1:  # never a one-row batch: the row goes twice
                    rows = np.repeat(rows, 2)
                target = system.switch_target(cids[rows])
                x_sw = as_engine(x[rows])  # a sub-batch, laid out like the block
                if tangent:
                    M = system.transition_jacobian(cids[rows], target, x_sw)
                    for name in tangent:
                        st[name][rows] = np.einsum(_MM, M, as_engine(st[name][rows]))
                x_sw = in_layout_of(x_sw, system.transition(cids[rows], target, x_sw))
                x[rows] = x_sw
                cids[rows] = target
                cid_idx[rows] = [chart_names.index(c) for c in target]
                # only the switched rows are evaluated again; ``bundle`` shares
                # ``x`` and ``cids``, so a field it has not computed yet is
                # computed at the switched points when first read
                bundle.scatter(rows, point_data(system, target, x_sw))

    return [kept[k] for k in at] + [kept[steps]]


def _assemble(system: SdeSystem, start: dict, blocks: list[dict], need: frozenset,
              **run) -> SimResult:
    """One ``SimResult`` from the run's ``start`` data and the blocks'
    per-path fields at one step, merged in block order; ``run`` holds ``t``,
    ``dt``, ``steps``, ``seed`` and ``n_paths``."""

    def cat(key):
        vals = [b.get(key) for b in blocks]
        if vals[0] is None:
            return None
        # [:n_paths] drops the second copy of a lone last path (see simulate)
        return np.concatenate([np.ascontiguousarray(v) for v in vals])[:run["n_paths"]]

    alive = cat("alive")
    cid_idx = cat("cid_idx")
    x = cat("x")
    centers = cat("centers")
    cids = np.asarray(start["chart_names"])[cid_idx]
    if system.is_group:
        emb = system.embed(cids, x, center=centers)
    else:
        emb = system.embed(cids, x)

    companions = {name: cat(name) if name in need else None for name in _SIM_COMPANIONS}
    return SimResult(
        **start, **run, cid_idx=cid_idx, x=x, centers=centers, embedded=emb,
        alive=alive, n_dropped=int(run["n_paths"] - alive.sum()), **companions,
    )


def _step_count(t: float, dt: float) -> int:
    """The number of steps of size ``dt`` to time ``t``; ``BadParams`` unless
    both are positive and finite and ``t`` is a whole multiple of ``dt``."""
    for name, val in (("t", t), ("dt", dt)):
        if not 0.0 < val < np.inf:  # NaN fails both comparisons
            raise BadParams(f"{name}={val} is not a positive finite number")
    ratio = t / dt
    steps = round(ratio) if ratio < np.inf else 0
    if steps <= 0 or abs(steps * dt - t) > 1e-9 * max(1.0, t):
        raise BadParams(f"t={t} is not an integer multiple of dt={dt}")
    return steps


def simulate(system: SdeSystem, *, t: float, dt: float, n_paths: int, seed: int,
             x0: np.ndarray | None = None, cid: str | None = None,
             hp_p: float | None = None, threads: int = 1, coarsen: int = 0,
             need: Iterable[str] | None = None,
             at: Iterable[int] = ()) -> SimResult:
    """Run ``n_paths`` independent paths to time ``t`` and gather terminals.

    ``coarsen = c`` drives the run with the Brownian paths of a run at
    ``dt / 2**c`` (see "Noise:" in the module docstring and ``_block_noise``).
    A start point where X loses rank raises ``DegenerateX``.

    ``threads`` must be a positive integer and does not change the run: the
    blocks run one after another on the calling thread.  A block's work is
    mostly ``np.einsum`` calls over its paths, and einsum holds the
    interpreter lock, so a thread pool made runs slower, not faster (two
    threads took about 1.6 times as long as one).  The count is still
    checked, so that configs which set it keep working and it can later
    count worker processes.

    ``need`` names the ``SimResult`` fields the caller will read; ``None``
    means all of them.  The state, the alive mask, the charts, the group
    centres and the start data (``g0``, ``ginv0``, ``X0``, ``Y0``, ``L0``,
    ``F0``) are always filled; the start data is computed once per run, from
    one ``PointData`` at ``x0``, and shared by every block, snapshot and
    the terminal result.  Only the companion processes the requested
    fields depend on are integrated (see ``_NEEDS``), and every field not
    requested is ``None``; ``hp_lo`` and ``hp_hi`` also need ``hp_p``.  A
    requested field holds exactly the values a run with ``need=None`` gives.

    ``at`` lists step counts in 0..t/dt.  ``snapshots`` then holds, in the
    order given, one ``SimResult`` per entry: the same run after that many
    steps (step 0 is the start state), with ``t = k * dt`` and the same
    fields requested.  Each equals a separate run to that time field by
    field, since a stream's first steps do not depend on its length.  A
    snapshot copies every field it holds, so ``at=range(steps + 1)`` is meant
    for small batches.
    """
    steps = _step_count(t, dt)
    try:
        at = tuple(operator.index(k) for k in at)
    except TypeError:
        raise BadParams(f"at={at!r} is not a sequence of step counts") from None
    outside = [k for k in at if not 0 <= k <= steps]
    if outside:
        raise BadParams(f"at holds {outside}, not step counts in 0..{steps}")
    if cid is None or x0 is None:
        cid_d, x0_d = system.start()
        cid = cid if cid is not None else cid_d
        x0 = x0 if x0 is not None else x0_d
    system.check_chart(cid)
    x0 = system.check_vector("x0", x0)
    if n_paths < 1:
        raise BadParams(f"n_paths={n_paths} is not a positive path count")
    if not 0 <= seed < 2**64:
        raise BadParams(f"seed={seed} is outside 0..2**64-1")
    if not (isinstance(coarsen, (int, np.integer)) and coarsen >= 0):
        raise BadParams(f"coarsen={coarsen!r} is not a non-negative integer")
    if not (isinstance(threads, (int, np.integer)) and not isinstance(threads, bool)
            and threads >= 1):
        raise BadParams(f"threads={threads!r} is not a positive integer")
    need = _requested(need, hp_p)
    on = _closure(need)
    pd0 = geometry_point(system, cid, x0)  # DegenerateX if X loses rank at x0
    start = dict(chart_names=system.charts, cid0=cid, x0=pd0.x,
                 g0=pd0.g, ginv0=pd0.ginv, X0=pd0.X, Y0=pd0.Y,
                 L0=np.linalg.cholesky(pd0.g), F0=_null_frame(pd0.X))
    # the induced connection is always metric; its adjoint only under
    # skew-symmetric torsion, so only then may //^ frames be isometrized
    adj_metric = "par_adj" in on and bool(_torsion_skew(pd0)[0])

    blocks = [np.arange(lo, min(lo + BLOCK, n_paths))
              for lo in range(0, n_paths, BLOCK)]
    if len(blocks[-1]) == 1:  # never a one-row block: a lone path runs twice
        blocks[-1] = np.repeat(blocks[-1], 2)

    results = [_run_block(system, seed, b, steps, dt, start, hp_p, on, adj_metric,
                          coarsen, at) for b in blocks]

    # one assembly per entry of ``at``, then the terminal at the requested t
    times = [(k * dt, k) for k in at] + [(t, steps)]
    *snapshots, res = [
        _assemble(system, start, [r[i] for r in results], need, t=t_k, steps=k,
                  dt=dt, seed=seed, n_paths=n_paths)
        for i, (t_k, k) in enumerate(times)]
    res.snapshots = snapshots
    return res


# ---------------------------------------------------------------------------
# transport along an explicit curve
# ---------------------------------------------------------------------------


def transport_along(system: SdeSystem, cid: str, xs: np.ndarray, kind: str) -> np.ndarray:
    """RK4 parallel transport along an explicit discrete path (K+1, n).

    Serves deterministic-curve experiments (holonomy around loops); the SDE
    engine owns transport along simulated paths.
    """
    xs = np.asarray(xs, dtype=float)
    gammas = christoffel(system, cid, xs, kind)
    mids = christoffel(system, cid, 0.5 * (xs[:-1] + xs[1:]), kind)
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
