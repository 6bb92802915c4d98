"""Small dense-matrix helpers and the finite-difference derivative oracle.

Matrices are plain ``numpy.ndarray`` objects with ``float64`` entries and
row-major semantics.  Everything here works on a single point (shape
``(n,)``) or on a batch of points (shape ``(..., n)``); batched inputs
broadcast through unchanged.

The derivative oracle implements central differences with Richardson
extrapolation::

    D(h)   = (f(x + h v) - f(x - h v)) / (2 h)            error O(h^2)
    level 1: (4 D(h/2) - D(h)) / 3                        error O(h^4)

Steps are relative: the base step is ``h = h0 * max(1, |x|)`` with
``DerivOracle.h0 = 1e-4``, and the one level takes ``D(h)`` and ``D(h/2)``.

Memory layout: a batch of points ``(P, n)`` is either C-ordered (the
pointwise geometry, the checks' point sets) or in engine layout, where the
leading path axis is fastest in memory (Fortran order), as the Heun engine
keeps every array it holds.  ``path_fastest`` tells them apart and
``rows_like`` allocates a result in its points' layout, so maps of points
keep the layout they are given; ``as_engine`` lays a batch out that way
and ``in_layout_of`` copies a result back into its points' layout.

Both derivatives make one field call on one stencil: the +/- pairs at ``h``
and ``h/2`` are stacked along a new leading axis of length 4, ordered
``x + h d, x - h d, x + h/2 d, x - h/2 d``.
``DerivOracle.directional`` takes ``d = v / |v|`` over every point and
direction of its batch; ``DerivOracle.jacobian`` is the same derivative along
the coordinate axes ``d = e_j``, which sit on a second axis of length ``n``
right after the stencil axis.  A field handed to either must therefore accept
extra leading axes and keep them in its output.

>>> import numpy as np
>>> oracle = DerivOracle()
>>> f = lambda x: x[..., :1] ** 2 + 3.0 * x[..., 1:]
>>> d = float(oracle.directional(f, np.array([1.0, 2.0]), np.array([1.0, 0.0]))[0])
>>> round(d, 9)
2.0
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import EvalFailure

__all__ = ["DerivOracle", "sym", "path_fastest", "rows_like", "as_engine",
           "in_layout_of"]


def sym(a: np.ndarray) -> np.ndarray:
    """Symmetric part ``(a + a^T)/2`` (over the last two axes)."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def path_fastest(a: np.ndarray) -> bool:
    """Whether the batch ``a`` is in engine layout: its leading (path) axis
    is fastest in memory, as in Fortran order.  A one-row batch counts when
    its leading stride is one item, as Fortran order allocates it."""
    return a.ndim > 1 and a.strides[0] == a.itemsize


def rows_like(x: np.ndarray, shape: tuple[int, ...], fill: float | None = None) -> np.ndarray:
    """A ``x.shape[:-1] + shape`` array for the points ``x`` in their layout:
    Fortran order when ``x`` is path-fastest, C order otherwise; filled with
    ``fill`` unless it is None."""
    out = np.empty(x.shape[:-1] + shape, order="F" if path_fastest(x) else "C")
    if fill is not None:
        out.fill(fill)
    return out


def as_engine(a: np.ndarray) -> np.ndarray:
    """The batch ``a`` in engine layout: ``a`` itself if it is path-fastest,
    else a copy in Fortran order (a one-row batch included, whose leading
    stride is then one item)."""
    if path_fastest(a):
        return a
    out = np.empty(np.shape(a), order="F")
    out[...] = a
    return out


def in_layout_of(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``a``, computed from the points ``x``, in their layout: ``as_engine(a)``
    when ``x`` is path-fastest, ``a`` otherwise."""
    return as_engine(a) if path_fastest(x) else a


def _where(x: np.ndarray) -> str:
    """Short description of the point a derivative was asked at."""
    return np.array2string(np.asarray(x), threshold=8, edgeitems=2, precision=6)


def _call(f: Callable, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate a field at the probe points ``y``, normalizing output to floats.

    ``x`` names the point the derivative was asked at in error messages.  The
    output must keep the leading axes of ``y``.
    """
    try:
        out = np.asarray(f(y), dtype=float)
    except Exception as exc:  # field blew up at a probe point
        raise EvalFailure(f"field evaluation failed near {_where(x)}: {exc}") from exc
    if out.shape[:y.ndim - 1] != y.shape[:-1]:
        raise EvalFailure(
            f"field output of shape {out.shape} does not keep the leading axes {y.shape[:-1]} "
            f"of its input near {_where(x)}; a field handed to jacobian or "
            f"directional must map (..., n) arrays to (..., S) arrays")
    if not np.all(np.isfinite(out)):
        raise EvalFailure(f"field returned non-finite values near {_where(x)}")
    return out


class DerivOracle:
    """Finite-difference differentiation of black-box fields, with no
    settings: both derivatives evaluate the one stencil of the module
    docstring in one field call, ``jacobian`` along every ``e_j`` at once.
    """

    h0 = 1e-4  # relative base step: the step at ``x`` is ``h0 * max(1, |x|)``

    def _step(self, x: np.ndarray) -> np.ndarray:
        nrm = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        return self.h0 * np.maximum(1.0, nrm)

    def _central(self, f: Callable, x: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The extrapolated central difference of ``f`` at ``x`` along the
        unit direction(s) ``d``, which broadcast against ``x``: one call of
        ``f`` on the 4-row stencil, written in place pair by pair."""
        h = self._step(x)
        shape = np.broadcast_shapes(x.shape, d.shape)
        stencil = np.empty((4,) + shape)
        for row, hl in ((0, h), (2, h / 2.0)):
            step = hl[..., None] * d
            np.add(x, step, out=stencil[row])
            np.subtract(x, step, out=stencil[row + 1])
        del step
        out = _call(f, stencil, x)
        del stencil
        hdiv = np.reshape(h, np.shape(h) + (1,) * (out.ndim - len(shape)))
        d0 = (out[0] - out[1]) / (2.0 * hdiv)
        d1 = (out[2] - out[3]) / hdiv
        return (4.0 * d1 - d0) / 3.0

    def directional(self, f: Callable, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Directional derivative ``D f(x)(v)``; linear in ``v``, batched.

        ``x`` and ``v`` broadcast against each other over their leading axes;
        the result has shape ``(..., S)``.  The whole stencil is one call of
        ``f`` on a ``(4, ..., n)`` array.  Rows with ``v = 0`` give zeros.
        """
        x, v = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(v, dtype=float))
        vnorm = np.linalg.norm(v, axis=-1)
        vhat = v / np.where(vnorm == 0.0, 1.0, vnorm)[..., None]
        out = self._central(f, x, vhat)
        return np.reshape(vnorm, vnorm.shape + (1,) * (out.ndim - vnorm.ndim)) * out

    def jacobian(self, f: Callable, x: np.ndarray) -> np.ndarray:
        """Coordinate Jacobian, batched over leading axes of ``x``.

        ``f`` maps ``(..., n)`` arrays to ``(..., S)`` arrays; the result is
        C-contiguous, of shape ``(..., S, n)`` with the differentiation axis
        last.  It is ``directional``'s stencil along every ``e_j`` at once:
        one call of ``f`` on a ``(4, n) + x.shape`` array, written in
        place so that a large batch does not also hold a stacked copy of it.
        """
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        out = self._central(f, x, np.eye(n).reshape((n,) + (1,) * (x.ndim - 1) + (n,)))
        return np.ascontiguousarray(np.moveaxis(out, 0, -1))
