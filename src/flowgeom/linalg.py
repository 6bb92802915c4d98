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


def _call(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate a field, normalizing output to float arrays."""
    try:
        out = np.asarray(f(x), dtype=float)
    except Exception as exc:  # field blew up at a probe point
        raise EvalFailure(f"field evaluation failed at {x!r}: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise EvalFailure(f"field returned non-finite values at {x!r}")
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
            return np.zeros_like(_call(f, x))
        vhat = v / vnorm
        h = float(self._step(x))
        samples = []
        for lvl in range(self.richardson_levels + 1):
            hl = h / 2.0**lvl
            samples.append((_call(f, x + hl * vhat) - _call(f, x - hl * vhat)) / (2.0 * hl))
        return vnorm * _richardson(samples)

    def jacobian(self, f: Callable, x: np.ndarray) -> np.ndarray:
        """Coordinate Jacobian, batched over leading axes of ``x``.

        ``f`` maps ``(..., n)`` arrays to ``(..., S)`` arrays; the result has
        shape ``(..., S, n)`` with the differentiation axis last.
        """
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        h = self._step(x)
        hdiv = None  # h reshaped against f's output, once the shape is known
        cols = []
        for j in range(n):
            ej = np.zeros(n)
            ej[j] = 1.0
            samples = []
            for lvl in range(self.richardson_levels + 1):
                hl = h / 2.0**lvl
                step = np.asarray(hl)[..., None] * ej
                diff = _call(f, x + step) - _call(f, x - step)
                if hdiv is None:
                    extra = diff.ndim - np.ndim(h)
                    hdiv = np.reshape(h, np.shape(h) + (1,) * extra)
                samples.append(diff / (2.0 * hdiv / 2.0**lvl))
            cols.append(_richardson(samples))
        return np.stack(cols, axis=-1)
