"""Small dense-matrix helpers and the finite-difference derivative oracle.

Matrices are plain ``numpy.ndarray`` objects with ``float64`` entries and
row-major semantics.  Everything here works on a single point (shape
``(n,)``) or on a batch of points (shape ``(..., n)``); batched inputs
broadcast through unchanged.

The derivative oracle implements central differences with Richardson
extrapolation::

    D(h)   = (f(x + h v) - f(x - h v)) / (2 h)            error O(h^2)
    level 1: (4 D(h/2) - D(h)) / 3                        error O(h^4)

Steps are relative: the base step is ``h0 * max(1, |x|)``.

``DerivOracle.jacobian`` evaluates one coordinate column per field call: the
whole stencil of column ``j`` (the +/- pair at each of the ``L + 1``
Richardson levels) is stacked along a new leading axis of length
``2 (L + 1)``, ordered ``x + h e_j, x - h e_j, x + h/2 e_j, x - h/2 e_j, ...``,
so a field handed to ``jacobian`` must accept extra leading axes and keep
them in its output.  ``DerivOracle.directional`` calls its field on one
point at a time, so its fields may be per-point.

>>> import numpy as np
>>> oracle = DerivOracle()
>>> f = lambda x: np.array([x[0] ** 2 + 3.0 * x[1]])
>>> d = float(oracle.directional(f, np.array([1.0, 2.0]), np.array([1.0, 0.0]))[0])
>>> round(d, 9)
2.0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvalFailure

__all__ = ["DerivOracle", "sym"]


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part ``(a + a^T)/2`` (over the last two axes)."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _where(x: np.ndarray, col: int | None) -> str:
    """Short description of the point (and column) a derivative was asked at."""
    at = np.array2string(np.asarray(x), threshold=8, edgeitems=2, precision=6)
    return at if col is None else f"{at} (column {col})"


def _call(f: Callable, y: np.ndarray, x: np.ndarray, col: int | None = None) -> np.ndarray:
    """Evaluate a field at the probe points ``y``, normalizing output to floats.

    ``x`` (and ``col``) name the point the derivative was asked at in error
    messages.  The output must keep the leading axes of ``y``.
    """
    try:
        out = np.asarray(f(y), dtype=float)
    except Exception as exc:  # field blew up at a probe point
        raise EvalFailure(f"field evaluation failed near {_where(x, col)}: {exc}") from exc
    if out.shape[:y.ndim - 1] != y.shape[:-1]:
        raise EvalFailure(
            f"field output of shape {out.shape} does not keep the leading axes {y.shape[:-1]} "
            f"of its input near {_where(x, col)}; a field handed to jacobian must "
            f"map (..., n) arrays to (..., S) arrays")
    if not np.all(np.isfinite(out)):
        raise EvalFailure(f"field returned non-finite values near {_where(x, col)}")
    return out


def _richardson(samples: list[np.ndarray]) -> np.ndarray:
    """Collapse a list of O(h^2)-accurate samples at steps h/2^i.

    Standard Neville table for expansions in even powers of h.
    """
    table = list(samples)
    for k in range(1, len(table)):
        fac = 4.0**k
        for i in range(len(table) - 1, k - 1, -1):
            table[i] = (fac * table[i] - table[i - 1]) / (fac - 1.0)
    return table[-1]


@dataclass(frozen=True)
class DerivOracle:
    """Finite-difference differentiation of black-box fields.

    h0: relative base step; the effective step at ``x`` is
        ``h0 * max(1, |x|)``.
    richardson_levels: number of extrapolation levels (0 = plain central
        difference).

    ``jacobian`` calls its field once per coordinate column, on the column's
    stencil stacked along a new leading axis (``x + h_l e_j`` then
    ``x - h_l e_j`` for ``h_l = h / 2**l``, ``l = 0..richardson_levels``), so
    its fields must map ``(..., n)`` to ``(..., S)`` for any leading axes.
    ``directional`` calls its field on one point at a time: its fields may be
    per-point.
    """

    h0: float = 1e-4
    richardson_levels: int = 1

    def _step(self, x: np.ndarray) -> np.ndarray:
        nrm = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        return self.h0 * np.maximum(1.0, nrm)

    def directional(self, f: Callable, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Directional derivative ``D f(x)(v)``; linear in ``v``."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        vnorm = float(np.linalg.norm(v))
        if vnorm == 0.0:
            return np.zeros_like(_call(f, x, x))
        vhat = v / vnorm
        h = float(self._step(x))
        samples = []
        for lvl in range(self.richardson_levels + 1):
            hl = h / 2.0**lvl
            samples.append((_call(f, x + hl * vhat, x) - _call(f, x - hl * vhat, x))
                           / (2.0 * hl))
        return vnorm * _richardson(samples)

    def jacobian(self, f: Callable, x: np.ndarray) -> np.ndarray:
        """Coordinate Jacobian, batched over leading axes of ``x``.

        ``f`` maps ``(..., n)`` arrays to ``(..., S)`` arrays; the result has
        shape ``(..., S, n)`` with the differentiation axis last.  Column ``j``
        is one call of ``f`` on a ``(2 (L + 1), ..., n)`` stencil.
        """
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        levels = self.richardson_levels + 1
        h = self._step(x)
        hl = np.stack([h / 2.0**lvl for lvl in range(levels)])

        def column(j: int) -> np.ndarray:
            # the stencil and f's output of one column are freed before the
            # next column's call, which keeps the peak memory of a batch low
            step = np.zeros(hl.shape + (n,))
            step[..., j] = hl
            stencil = np.stack([x + step, x - step], axis=1)  # (levels, 2, ..., n)
            out = _call(f, stencil.reshape((2 * levels,) + x.shape), x, j)
            out = out.reshape((levels, 2) + out.shape[1:])
            hdiv = np.reshape(h, np.shape(h) + (1,) * (out.ndim - 2 - np.ndim(h)))
            return _richardson([(out[lvl, 0] - out[lvl, 1]) / (2.0 * hdiv / 2.0**lvl)
                                for lvl in range(levels)])

        return np.stack([column(j) for j in range(n)], axis=-1)
