"""Unit-quaternion and rotation-algebra helpers, batched over leading axes.

Quaternions are ``(..., 4)`` arrays ``(w, x, y, z)``; rotation vectors are
``(..., 3)`` arrays (angle = norm, axis = direction).  Small-angle branches
switch to series, below ``_EPS = 1e-4`` in ``qexp`` and below
``_SERIES = 0.1`` in the Jacobians, whose closed forms cancel there.

Conventions used by the group chart: a point near center ``q0`` has
coordinates ``u`` with ``point(u) = q0 * qexp(u)``, and right-multiplication
flows pull back through the inverse right Jacobian::

    d/dt qexp(u(t)) = qexp(u) * hat(Jr(u) du/dt)
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hat", "qmul", "qexp", "qrotmat",
    "right_jacobian", "right_jacobian_inv", "right_jacobian_inv_grad",
]

_EPS = 1e-4
# below this angle the Jacobian coefficients c1, c2, d and d'(t)/t use series,
# as their closed forms cancel; at 0.1 the two routes are within 4e-14 (c1,
# c2), 1e-13 (d) and 5e-10 (d'(t)/t) relative
_SERIES = 0.1


def hat(u: np.ndarray) -> np.ndarray:
    """Cross-product matrix: hat(u) v = u x v."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape[:-1] + (3, 3))
    out[..., 0, 1] = -u[..., 2]
    out[..., 0, 2] = u[..., 1]
    out[..., 1, 0] = u[..., 2]
    out[..., 1, 2] = -u[..., 0]
    out[..., 2, 0] = -u[..., 1]
    out[..., 2, 1] = u[..., 0]
    return out


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w1, x1, y1, z1 = (a[..., i] for i in range(4))
    w2, x2, y2, z2 = (b[..., i] for i in range(4))
    return np.stack(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ],
        axis=-1,
    )


def qexp(u: np.ndarray) -> np.ndarray:
    """Rotation vector to unit quaternion."""
    u = np.asarray(u, dtype=float)
    theta = np.linalg.norm(u, axis=-1)
    half = 0.5 * theta
    # sin(theta/2)/theta, series at 0: 1/2 - theta^2/48
    small = theta < _EPS
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(small, 0.5 - theta**2 / 48.0, np.sin(half) / np.where(small, 1.0, theta))
    w = np.cos(half)
    return np.concatenate([w[..., None], s[..., None] * u], axis=-1)


def qrotmat(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = (q[..., i] for i in range(4))
    out = np.empty(q.shape[:-1] + (3, 3))
    out[..., 0, 0] = 1 - 2 * (y * y + z * z)
    out[..., 0, 1] = 2 * (x * y - w * z)
    out[..., 0, 2] = 2 * (x * z + w * y)
    out[..., 1, 0] = 2 * (x * y + w * z)
    out[..., 1, 1] = 1 - 2 * (x * x + z * z)
    out[..., 1, 2] = 2 * (y * z - w * x)
    out[..., 2, 0] = 2 * (x * z - w * y)
    out[..., 2, 1] = 2 * (y * z + w * x)
    out[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return out


def _branches(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta < _SERIES, theta^2, theta with 1 where the series is taken)."""
    series = theta < _SERIES
    return series, theta * theta, np.where(series, 1.0, theta)


def _c1_c2(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c1 = (1 - cos t)/t^2 and c2 = (t - sin t)/t^3, the coefficients of Jr."""
    series, t2, safe = _branches(theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        c1 = np.where(series, 0.5 - t2 / 24.0 + t2 * t2 / 720.0 - t2**3 / 40320.0
                      + t2**4 / 3628800.0, (1.0 - np.cos(safe)) / safe**2)
        c2 = np.where(series, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0 - t2**3 / 362880.0
                      + t2**4 / 39916800.0, (safe - np.sin(safe)) / safe**3)
    return c1, c2


def _d(theta: np.ndarray) -> np.ndarray:
    """d = 1/t^2 - (1+cos t)/(2 t sin t), the coefficient of Jr^-1."""
    series, t2, safe = _branches(theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(series, 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0 + t2**3 / 1209600.0,
                        1.0 / safe**2 - (1.0 + np.cos(safe)) / (2.0 * safe * np.sin(safe)))


def _d_prime_over_t(theta: np.ndarray, d: np.ndarray) -> np.ndarray:
    """d'(t)/t, given d = ``_d(theta)``."""
    series, t2, safe = _branches(theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        # d = 1/t^2 - cot(t/2)/(2 t) gives d'/t = (1/(4 sin^2(t/2)) - 1/t^2 - d) / t^2
        return np.where(series, 1.0 / 360.0 + t2 / 7560.0 + t2 * t2 / 201600.0,
                        (0.25 / np.sin(0.5 * safe) ** 2 - 1.0 / safe**2 - d) / safe**2)


def right_jacobian(u: np.ndarray) -> np.ndarray:
    """Jr(u) with qexp(u + d) ~ qexp(u) * qexp(Jr(u) d)."""
    u = np.asarray(u, dtype=float)
    theta = np.linalg.norm(u, axis=-1)
    c1, c2 = _c1_c2(theta)
    h = hat(u)
    eye = np.broadcast_to(np.eye(3), h.shape)
    return eye - c1[..., None, None] * h + c2[..., None, None] * (h @ h)


def right_jacobian_inv(u: np.ndarray) -> np.ndarray:
    """Closed-form inverse of ``right_jacobian``."""
    u = np.asarray(u, dtype=float)
    theta = np.linalg.norm(u, axis=-1)
    d = _d(theta)
    h = hat(u)
    eye = np.broadcast_to(np.eye(3), h.shape)
    return eye + 0.5 * h + d[..., None, None] * (h @ h)


def right_jacobian_inv_grad(u: np.ndarray) -> np.ndarray:
    """Partials of ``right_jacobian_inv``, differentiation axis last:
    ``out[..., i, r, j] = d Jr^-1(u)[i, r] / d u_j``.

    With ``Jr^-1 = I + hat(u)/2 + d(t) hat(u)^2`` and ``t = |u|``, the j-th
    partial is ``hat(e_j)/2 + d (hat(e_j) hat(u) + hat(u) hat(e_j))
    + (d'(t)/t) u_j hat(u)^2``, where ``hat(e_j) hat(u) + hat(u) hat(e_j)
    = e_j u^T + u e_j^T - 2 u_j I``.
    """
    u = np.asarray(u, dtype=float)
    theta = np.linalg.norm(u, axis=-1)
    d = _d(theta)
    dd = _d_prime_over_t(theta, d)
    h = hat(u)
    eye = np.eye(3)
    du = d[..., None] * u
    out = (dd[..., None, None] * (h @ h))[..., None] * u[..., None, None, :]
    out += 0.5 * np.moveaxis(hat(eye), 0, -1)
    out += eye[:, None, :] * du[..., None, :, None]          # d e_j u^T
    out += du[..., :, None, None] * eye                      # d u e_j^T
    out -= 2.0 * eye[:, :, None] * du[..., None, None, :]    # -2 d u_j I
    return out
