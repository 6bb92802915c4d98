"""SDE systems on manifolds presented as chart atlases.

A system holds the data of a Stratonovich SDE ``dx = X(x) o dB + A(x) dt``
with ``X(x): R^m -> T_x M`` surjective.  Coefficients, embeddings and
transitions accept batched points (arrays of shape ``(..., n)``) and take
the chart as ``cid``: a single chart name for all points, or an array with
one name per row (it broadcasts against the batch axes), so a batch may mix
charts.  The maps are pointwise: a row's values do not depend on the other
rows or their charts.  ``coeff_dx`` is the chart derivative of ``X``:
closed forms on flat, sphere-gradient, twisted-plane and circle, the
finite-difference oracle everywhere else.

There is one derivative oracle, ``SdeSystem.oracle``: a class attribute
holding a frozen ``DerivOracle`` that every system shares.  The geometry
reads it from the system it is given; no function takes another.

Built-in scenarios:

- ``flat(n)``: R^n with X = I; optional expression drift.
- ``sphere-gradient(n)``: S^n in two stereographic charts; X is the
  orthogonal projection of the ambient basis onto the tangent space, i.e.
  the gradient system of the standard embedding.
- ``so3-left-invariant``: SO(3) driven by left-invariant fields, state kept
  as a unit quaternion; geometry lives in exponential charts re-centered
  whenever the coordinate norm exceeds 0.5.
- ``twisted-plane(alpha)``: R^2 with X a rotation by ``alpha * x1``; the
  induced metric is Euclidean but the induced connection carries torsion
  that is not skew-symmetric.
- ``circle``: S^1 with unit coefficient (1-dimensional; flagged in reports).
- ``custom``: expression-defined X and A on a single chart of R^n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import expr as ex
from . import quat
from .errors import BadParams, DegenerateX, OutOfOverlap, UnknownScenario
from .linalg import DerivOracle

__all__ = ["Chart", "SdeSystem", "Scenario", "build_scenario", "scenario_names"]


@dataclass(frozen=True)
class Chart:
    """A coordinate chart, named by its identifier."""

    cid: str


class SdeSystem:
    """Base class; scenarios override the coefficient methods.

    Every method taking ``cid`` accepts a chart name or an array of names
    with one entry per row of ``x`` (see the module docstring).
    """

    name: str = "base"
    n: int = 0          # manifold dimension
    m: int = 0          # noise dimension
    embed_dim: int = 0  # dimension of the diagnostic embedding
    dim_one: bool = False
    is_group: bool = False
    has_drift: bool = False
    guard_radius: float | None = None  # kill paths beyond this coordinate norm
    oracle: DerivOracle = DerivOracle()  # frozen, so every system shares it

    # -- chart bookkeeping -------------------------------------------------
    @property
    def charts(self) -> tuple[Chart, ...]:
        raise NotImplementedError

    def start(self) -> tuple[str, np.ndarray]:
        """Default start point (chart id, coordinates)."""
        return self.charts[0].cid, np.zeros(self.n)

    def check_chart(self, cid: str) -> None:
        """Raise ``BadParams`` unless ``cid`` names one of the charts."""
        names = [c.cid for c in self.charts]
        if cid not in names:
            raise BadParams(f"scenario {self.name!r} has no chart {cid!r}; "
                            f"its charts are {', '.join(names)}")

    def check_vector(self, name: str, val) -> np.ndarray:
        """``val`` as a float array of shape ``(n,)`` (a point or a tangent
        vector in a chart); ``BadParams``, naming it ``name``, otherwise."""
        val = np.asarray(val, dtype=float)
        if val.shape != (self.n,):
            raise BadParams(f"{name} has shape {val.shape} but {self.name} "
                            f"has dimension {self.n}")
        return val

    # -- coefficients (batched over leading axes) ---------------------------
    def coeff_x(self, cid: str | np.ndarray, x: np.ndarray) -> np.ndarray:
        """X at ``x`` in chart(s) ``cid``, shape ``(..., n, m)``."""
        raise NotImplementedError

    def coeff_a(self, cid: str | np.ndarray, x: np.ndarray) -> np.ndarray:
        """The drift A at ``x`` in chart(s) ``cid``, shape ``(..., n)``."""
        return np.zeros(np.asarray(x).shape)

    def coeff_dx(self, cid: str | np.ndarray, x: np.ndarray) -> np.ndarray:
        """DX[..., i, r, j] = d X^{ir} / d x^j, shape ``(..., n, m, n)``.

        The default differentiates ``coeff_x`` with ``SdeSystem.oracle``;
        scenarios with a closed form override it.
        """
        return self.oracle.jacobian(lambda y: self.coeff_x(cid, y), x)

    # -- transitions ---------------------------------------------------------
    def switch_mask(self, cid: str | np.ndarray, x: np.ndarray) -> np.ndarray:
        """True where the integrator should hand off to a better chart."""
        return np.zeros(np.asarray(x).shape[:-1], dtype=bool)

    def switch_target(self, cid: str | np.ndarray) -> np.ndarray:
        """The chart to hand off to from each entry of ``cid``.  Multi-chart
        scenarios also define ``transition(cid_from, cid_to, x)`` and its
        ``transition_jacobian``, taking one chart pair or one pair per row."""
        raise OutOfOverlap(f"scenario {self.name!r} has a single chart")

    # -- diagnostics ---------------------------------------------------------
    def embed(self, cid: str | np.ndarray, x: np.ndarray) -> np.ndarray:
        """Map chart coordinates to the diagnostic embedding of M."""
        raise NotImplementedError

    def sample_points(self, rng: np.random.Generator, k: int) -> list[tuple[str, np.ndarray]]:
        """Deterministic probe points spread over the atlas."""
        raise NotImplementedError

    def validate(self) -> None:
        """Check non-degeneracy of X at probe points."""
        rng = np.random.default_rng(7)
        for cid, x in self.sample_points(rng, 16):
            sv = np.linalg.svd(self.coeff_x(cid, x), compute_uv=False)
            if sv.min() <= 1e-8:
                raise DegenerateX(
                    f"X loses rank at chart {cid!r}, x={x!r} (min sv {sv.min():.2e})")


# --------------------------------------------------------------------------
# flat space
# --------------------------------------------------------------------------


class FlatSystem(SdeSystem):
    def __init__(self, n: int, drift: list[str] | None = None, guard_radius: float = 1e6):
        self.name = "flat"
        self.n = self.m = self.embed_dim = n
        self.guard_radius = guard_radius
        self._charts = (Chart("u"),)
        self._drift = [ex.parse(s) for s in drift] if drift else None
        if self._drift is not None:
            if len(self._drift) != n:
                raise BadParams(f"drift needs {n} entries, got {len(self._drift)}")
            for e in self._drift:
                if ex.max_var_index(e) >= n:
                    raise BadParams("drift expression uses a variable beyond x%d" % n)
        self.has_drift = self._drift is not None

    @property
    def charts(self) -> tuple[Chart, ...]:
        return self._charts

    def coeff_x(self, cid: str, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.eye(self.n), x.shape[:-1] + (self.n, self.n)).copy()

    def coeff_dx(self, cid: str, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (self.n, self.n, self.n))

    def coeff_a(self, cid: str, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._drift is None:
            return np.zeros(x.shape)
        comps = [np.broadcast_to(ex.evaluate(e, np.moveaxis(x, -1, 0)), x.shape[:-1])
                 for e in self._drift]
        return np.stack(comps, axis=-1)

    def embed(self, cid: str, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)

    def sample_points(self, rng, k):
        return [("u", rng.uniform(-1.0, 1.0, size=self.n)) for _ in range(k)]


# --------------------------------------------------------------------------
# sphere S^n, gradient system of the standard embedding
# --------------------------------------------------------------------------


class SphereSystem(SdeSystem):
    """Two stereographic charts; 'n' projects from the north pole (covers the
    south pole at u = 0), 's' from the south pole.  The induced metric is the
    round one, conformal factor 4 / (1 + |u|^2)^2."""

    def __init__(self, n: int):
        self.name = "sphere-gradient"
        self.n = n
        self.m = self.embed_dim = n + 1
        self._charts = (Chart("n"), Chart("s"))

    @property
    def charts(self) -> tuple[Chart, ...]:
        return self._charts

    @staticmethod
    def _sign(cid: str | np.ndarray) -> np.ndarray:
        # embedded last coordinate at u = 0: -1 in chart 'n', +1 in chart 's';
        # the two charts differ in this sign alone
        return np.where(np.asarray(cid) == "n", -1.0, 1.0)

    def embed(self, cid: str | np.ndarray, x: np.ndarray) -> np.ndarray:
        u = np.asarray(x, dtype=float)
        s = 1.0 + np.sum(u * u, axis=-1, keepdims=True)
        top = 2.0 * u / s
        last = self._sign(cid)[..., None] * (1.0 - np.sum(u * u, axis=-1, keepdims=True)) / s
        return np.concatenate([top, last], axis=-1)

    def embed_jacobian(self, cid: str | np.ndarray, x: np.ndarray) -> np.ndarray:
        """D(embed): (..., n+1, n)."""
        u = np.asarray(x, dtype=float)
        n = self.n
        s = 1.0 + np.sum(u * u, axis=-1)[..., None, None]
        eye = np.broadcast_to(np.eye(n), u.shape[:-1] + (n, n))
        uu = u[..., :, None] * u[..., None, :]
        top = (2.0 / s) * (eye - 2.0 * uu / s)
        last = -self._sign(cid)[..., None, None] * 4.0 * u[..., None, :] / (s * s)
        return np.concatenate([top, last], axis=-2)

    def coeff_x(self, cid: str | np.ndarray, x: np.ndarray) -> np.ndarray:
        # X(u) = (s^2/4) Dp(u)^T: the chart expression of e |-> e - <e,p> p
        u = np.asarray(x, dtype=float)
        s = 1.0 + np.sum(u * u, axis=-1)[..., None, None]
        dp = self.embed_jacobian(cid, u)
        return (s * s / 4.0) * np.swapaxes(dp, -1, -2)

    def coeff_dx(self, cid: str | np.ndarray, x: np.ndarray) -> np.ndarray:
        # X(u) = [(s/2) I - u u^T | -sign u] with s = 1 + |u|^2, so for r < n
        # DX[i, r, j] = d_ir u_j - d_ij u_r - u_i d_rj, and DX[i, n, j] = -sign d_ij
        u = np.asarray(x, dtype=float)
        n = self.n
        out = np.zeros(u.shape[:-1] + (n, n + 1, n))
        sign = self._sign(cid)
        for k in range(n):  # strided slices: a third of the time of broadcast products
            out[..., k, k, :] += u         # d_ir u_j at i = r = k
            out[..., k, :n, k] -= u        # d_ij u_r at i = j = k
            out[..., :, k, k] -= u         # u_i d_rj at r = j = k
            out[..., k, n, k] = -sign
        return out

    def switch_mask(self, cid: str | np.ndarray, x: np.ndarray) -> np.ndarray:
        u = np.asarray(x, dtype=float)
        return np.sum(u * u, axis=-1) > 4.0

    def switch_target(self, cid: str | np.ndarray) -> np.ndarray:
        return np.where(np.asarray(cid) == "n", "s", "n")

    def transition(self, cid_from: str | np.ndarray, cid_to: str | np.ndarray,
                   x: np.ndarray) -> np.ndarray:
        src, dst = np.asarray(cid_from), np.asarray(cid_to)
        if not np.all((src != dst) & np.isin(src, ("n", "s")) & np.isin(dst, ("n", "s"))):
            raise OutOfOverlap(f"no transition {cid_from!r} -> {cid_to!r}")
        u = np.asarray(x, dtype=float)
        r2 = np.sum(u * u, axis=-1, keepdims=True)
        if np.any(r2 == 0.0):
            raise OutOfOverlap("chart origin is not in the overlap")
        return u / r2

    def transition_jacobian(self, cid_from: str | np.ndarray, cid_to: str | np.ndarray,
                            x: np.ndarray) -> np.ndarray:
        u = np.asarray(x, dtype=float)
        r2 = np.sum(u * u, axis=-1)[..., None, None]
        eye = np.broadcast_to(np.eye(self.n), u.shape[:-1] + (self.n, self.n))
        uu = u[..., :, None] * u[..., None, :]
        return (r2 * eye - 2.0 * uu) / (r2 * r2)

    def sample_points(self, rng, k):
        pts = []
        for i in range(k):
            cid = "n" if i % 2 == 0 else "s"
            v = rng.normal(size=self.n)
            v *= rng.uniform(0.1, 1.5) / np.linalg.norm(v)
            pts.append((cid, v))
        return pts


# --------------------------------------------------------------------------
# SO(3), left-invariant driving fields
# --------------------------------------------------------------------------


class So3System(SdeSystem):
    """State is a unit quaternion; charts are exponential charts at a center
    ``q0`` with ``point(u) = q0 * qexp(u)``.  Left-invariant fields pull back
    to the inverse right Jacobian, independent of the center."""

    is_group = True

    def __init__(self):
        self.name = "so3-left-invariant"
        self.n = self.m = 3
        self.embed_dim = 9
        self._identity = (1.0, 0.0, 0.0, 0.0)

    @property
    def charts(self) -> tuple[Chart, ...]:
        return (Chart("exp"),)

    def coeff_x(self, cid: str, x: np.ndarray) -> np.ndarray:
        return quat.right_jacobian_inv(x)

    def embed(self, cid: str, x: np.ndarray, center: np.ndarray | None = None) -> np.ndarray:
        q0 = np.asarray(center if center is not None else self._identity, dtype=float)
        q = quat.qmul(q0, quat.qexp(np.asarray(x, dtype=float)))
        mat = quat.qrotmat(q)
        return mat.reshape(mat.shape[:-2] + (9,))

    def group_identity(self) -> np.ndarray:
        return np.array(self._identity)

    def group_compose(self, centers: np.ndarray, u: np.ndarray) -> np.ndarray:
        return quat.qmul(centers, quat.qexp(u))

    def group_recenter_jacobian(self, u: np.ndarray) -> np.ndarray:
        """Frame change from the old exponential chart at the step's start to
        the fresh chart centered at the step's endpoint."""
        return quat.right_jacobian(u)

    def sample_points(self, rng, k):
        pts = []
        for _ in range(k):
            v = rng.normal(size=3)
            v *= rng.uniform(0.05, 0.8) / np.linalg.norm(v)
            pts.append(("exp", v))
        return pts


# --------------------------------------------------------------------------
# twisted plane: Euclidean metric, torsion that is not skew-symmetric
# --------------------------------------------------------------------------


class TwistedPlaneSystem(SdeSystem):
    def __init__(self, alpha: float, guard_radius: float = 1e6):
        self.name = "twisted-plane"
        self.alpha = float(alpha)
        self.n = self.m = self.embed_dim = 2
        self.guard_radius = guard_radius
        self._charts = (Chart("u"),)

    @property
    def charts(self) -> tuple[Chart, ...]:
        return self._charts

    def coeff_x(self, cid: str, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        th = self.alpha * x[..., 0]
        c, s = np.cos(th), np.sin(th)
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = c
        out[..., 0, 1] = -s
        out[..., 1, 0] = s
        out[..., 1, 1] = c
        return out

    def coeff_dx(self, cid: str, x: np.ndarray) -> np.ndarray:
        # X depends on x1 alone, through the angle alpha * x1
        x = np.asarray(x, dtype=float)
        th = self.alpha * x[..., 0]
        c, s = self.alpha * np.cos(th), self.alpha * np.sin(th)
        out = np.zeros(x.shape[:-1] + (2, 2, 2))
        out[..., 0, 0, 0] = -s
        out[..., 0, 1, 0] = -c
        out[..., 1, 0, 0] = c
        out[..., 1, 1, 0] = -s
        return out

    def embed(self, cid: str, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)

    def sample_points(self, rng, k):
        return [("u", rng.uniform(-1.0, 1.0, size=2)) for _ in range(k)]


# --------------------------------------------------------------------------
# circle (1-dimensional; kept because X is supplied directly)
# --------------------------------------------------------------------------


class CircleSystem(SdeSystem):
    dim_one = True

    def __init__(self):
        self.name = "circle"
        self.n = self.m = 1
        self.embed_dim = 2
        self._charts = (Chart("theta"),)

    @property
    def charts(self) -> tuple[Chart, ...]:
        return self._charts

    def coeff_x(self, cid: str, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1] + (1, 1))

    def coeff_dx(self, cid: str, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (1, 1, 1))

    def embed(self, cid: str, x: np.ndarray) -> np.ndarray:
        th = np.asarray(x, dtype=float)[..., 0]
        return np.stack([np.cos(th), np.sin(th)], axis=-1)

    def start(self):
        return "theta", np.array([0.7])

    def sample_points(self, rng, k):
        return [("theta", rng.uniform(0.0, 2.0 * np.pi, size=1)) for _ in range(k)]


# --------------------------------------------------------------------------
# custom expression-defined system
# --------------------------------------------------------------------------


class CustomSystem(SdeSystem):
    def __init__(self, n: int, m: int, x_entries: list[list[str]],
                 a_entries: list[str] | None = None, guard_radius: float = 1e6):
        self.name = "custom"
        self.n, self.m, self.embed_dim = n, m, n
        self.guard_radius = guard_radius
        self._charts = (Chart("u"),)
        if len(x_entries) != n or any(len(row) != m for row in x_entries):
            raise BadParams(f"x_entries must be {n} rows of {m} expressions")
        self._x = [[ex.parse(s) for s in row] for row in x_entries]
        self._a = [ex.parse(s) for s in a_entries] if a_entries else None
        if self._a is not None and len(self._a) != n:
            raise BadParams(f"a_entries needs {n} entries, got {len(self._a)}")
        for e in [t for row in self._x for t in row] + (self._a or []):
            if ex.max_var_index(e) >= n:
                raise BadParams(f"expression uses a variable beyond x{n}")
        self.has_drift = self._a is not None

    @property
    def charts(self) -> tuple[Chart, ...]:
        return self._charts

    def _eval_grid(self, exprs, x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        comps = np.moveaxis(x, -1, 0)
        flat = [ex.evaluate(e, comps) for e in exprs]
        # only entries that do not depend on x (constants) lack the batch shape
        out = np.stack([v if np.shape(v) == x.shape[:-1] else np.broadcast_to(v, x.shape[:-1])
                        for v in flat], axis=-1)
        return out.reshape(x.shape[:-1] + shape)

    def coeff_x(self, cid: str, x: np.ndarray) -> np.ndarray:
        return self._eval_grid([t for row in self._x for t in row], x, (self.n, self.m))

    def coeff_a(self, cid: str, x: np.ndarray) -> np.ndarray:
        if self._a is None:
            return np.zeros(np.asarray(x).shape)
        return self._eval_grid(self._a, x, (self.n,))

    def embed(self, cid: str, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)

    def sample_points(self, rng, k):
        return [("u", rng.uniform(-0.8, 0.8, size=self.n)) for _ in range(k)]


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------


@dataclass
class Scenario:
    """A built system plus analytic reference facts used by tests/reports."""

    name: str
    params: dict[str, Any]
    system: SdeSystem
    reference: dict[str, Any] = field(default_factory=dict)
    notes: str = ""


def _build_flat(params: dict[str, Any]) -> Scenario:
    n = int(params.get("n", 2))
    if n < 1 or n > 16:
        raise BadParams("flat: n must be in 1..16")
    sys_ = FlatSystem(n, params.get("drift"), float(params.get("guard_radius", 1e6)))
    # the drift does not enter the connection; X = I keeps it flat and torsion-free
    ref = {"lw_equals_lc": True, "tss": True, "curvature_zero": True}
    return Scenario("flat", params, sys_, ref)


def _build_sphere(params: dict[str, Any]) -> Scenario:
    n = int(params.get("n", 2))
    if n < 2 or n > 15:
        raise BadParams("sphere-gradient: n must be in 2..15")
    sys_ = SphereSystem(n)
    ref = {"lw_equals_lc": True, "tss": True, "curvature_zero": False,
           "sectional": 1.0, "ricci_sharp_factor": float(n - 1)}
    return Scenario("sphere-gradient", params, sys_, ref,
                    notes="gradient system of the unit-sphere embedding")


def _build_so3(params: dict[str, Any]) -> Scenario:
    sys_ = So3System()
    ref = {"lw_equals_lc": False, "tss": True, "curvature_zero": True,
           "torsion_e1_e2": [0.0, 0.0, -1.0]}
    return Scenario("so3-left-invariant", params, sys_, ref,
                    notes="flat left-invariant connection; torsion = -[.,.]")


def _build_twisted(params: dict[str, Any]) -> Scenario:
    alpha = float(params.get("alpha", 0.5))
    sys_ = TwistedPlaneSystem(alpha, float(params.get("guard_radius", 1e6)))
    ref = {"lw_equals_lc": alpha == 0.0, "tss": alpha == 0.0,
           "curvature_zero": True}
    return Scenario("twisted-plane", params, sys_, ref)


def _build_circle(params: dict[str, Any]) -> Scenario:
    sys_ = CircleSystem()
    ref = {"lw_equals_lc": True, "tss": True, "curvature_zero": True,
           "dim_one": True}
    return Scenario("circle", params, sys_, ref)


def _build_custom(params: dict[str, Any]) -> Scenario:
    try:
        n = int(params["n"])
        m = int(params["m"])
        x_entries = params["x_entries"]
    except KeyError as exc:
        raise BadParams(f"custom scenario requires {exc.args[0]!r}") from exc
    if not (1 <= n <= 16 and n <= m <= 16):
        raise BadParams("custom: need 1 <= n <= m <= 16")
    sys_ = CustomSystem(n, m, x_entries, params.get("a_entries"),
                        float(params.get("guard_radius", 1e6)))
    sys_.validate()
    return Scenario("custom", params, sys_, {})


_REGISTRY: dict[str, Callable[[dict[str, Any]], Scenario]] = {
    "flat": _build_flat,
    "sphere-gradient": _build_sphere,
    "so3-left-invariant": _build_so3,
    "twisted-plane": _build_twisted,
    "circle": _build_circle,
    "custom": _build_custom,
}


def scenario_names() -> list[str]:
    return sorted(_REGISTRY)


def build_scenario(name: str, params: dict[str, Any] | None = None) -> Scenario:
    if name not in _REGISTRY:
        raise UnknownScenario(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}")
    return _REGISTRY[name](dict(params or {}))
