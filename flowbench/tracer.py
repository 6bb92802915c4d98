"""Spans around the flowgeom package's functions, recorded from outside it.

A traced run replaces each function of the package at the name its caller
looks up (``flowgeom.estimators.simulate``, ``flowgeom.stochastic.point_data``,
``SphereSystem.coeff_x``, ``flowgeom.expr.evaluate``, ...) by a wrapper that
records one span per call, and ``restore`` puts every original back.  The
package itself is not modified.

A span is ``(sid, name, layer, start, end, tid, parent, op, info)``:

- ``layer`` is the module that defines the function, ``name`` is
  ``layer.qualname``;
- ``parent`` is the innermost open span on the same thread.  A span opened on
  a thread with no open span (a worker of the engine's thread pool) takes as
  parent the innermost open span of the thread that began the op;
- ``op`` is the op (one ``run_config`` call) the span belongs to;
- ``info`` holds work counts read from the arguments or result (rows of a
  batched call, path-steps of a simulation), or None.

Self time is a span's duration minus the union of its children's intervals.
On a multi-threaded op the worker spans overlap, so the self times of one
layer are thread-seconds summed over threads: compare them with CPU time,
not with wall time.
"""

from __future__ import annotations

import inspect
import itertools
import threading
from collections import defaultdict
from time import perf_counter
from typing import NamedTuple

import numpy as np

LAYERS = ("cli", "estimators", "stochastic", "geometry", "linalg", "model",
          "expr", "quat")

# Private names wrapped as well: the engine's per-block worker, so that the
# spans of the thread pool hang off ``simulate``.
PRIVATE = {"stochastic": ("_run_block",)}

# Methods of the system interface; helpers a system calls on itself (such as
# SphereSystem.embed_jacobian) stay inside the coefficient call they serve.
SYSTEM_METHODS = ("coeff_x", "coeff_a", "switch_mask", "switch_target",
                  "transition", "transition_jacobian", "embed", "start",
                  "sample_points", "validate", "chart", "group_identity",
                  "group_compose", "group_recenter_jacobian")

COEFF = ("coeff_x", "coeff_a")
TRANSITION = ("switch_mask", "switch_target", "transition",
              "transition_jacobian")

# name -> unit, for every per-layer metric ``layer_metrics`` returns
LAYER_METRICS = {
    "cli.run_config_self_s": "s",
    "estimators.check_self_s": "s",
    "estimators.simulate_calls": "count",
    "estimators.paths_requested": "count",
    "stochastic.simulate_s": "s",
    "stochastic.path_steps": "count",
    "stochastic.us_per_path_step": "us",
    "stochastic.self_s": "s",
    "stochastic.noise_s": "s",
    "stochastic.noise_draws": "count",
    "stochastic.paths_killed": "count",
    "geometry.point_data_calls": "count",
    "geometry.point_data_rows": "count",
    "geometry.point_data_self_s": "s",
    "geometry.identity_calls": "count",
    "geometry.identity_self_s": "s",
    "linalg.jacobian_calls": "count",
    "linalg.jacobian_self_s": "s",
    "linalg.coeff_evals": "count",
    "linalg.oracle_eval_share": "1",
    "model.coeff_calls": "count",
    "model.coeff_rows": "count",
    "model.coeff_self_s": "s",
    "model.switch_rows": "count",
    "model.transition_s": "s",
    "expr.evaluate_calls": "count",
    "expr.evaluate_s": "s",
    "expr.parse_calls": "count",
    "quat.calls": "count",
    "quat.s": "s",
}


class Span(NamedTuple):
    sid: int
    name: str
    layer: str
    start: float
    end: float
    tid: int
    parent: int | None
    op: int | None
    info: dict | None


# ---------------------------------------------------------------------------
# work counts read from a call
# ---------------------------------------------------------------------------


def _rows(x) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-1], dtype=np.int64)) if shape else 1


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _simulate_info(args, kwargs, result):
    steps = int(round(kwargs["t"] / kwargs["dt"]))
    return {"paths": kwargs["n_paths"], "path_steps": kwargs["n_paths"] * steps,
            "killed": result.n_dropped}


_INFO = {
    "stochastic.simulate": _simulate_info,
    "stochastic.sample_noise":
        lambda a, k, r: {"draws": int(r.increments.size)},
    "geometry.point_data": lambda a, k, r: {"rows": _rows(_arg(a, k, 2, "x"))},
}


def _info_for(name: str, layer: str):
    short = name.rsplit(".", 1)[-1]
    if name in _INFO:
        return _INFO[name]
    if layer == "model" and short in COEFF:
        return lambda a, k, r: {"rows": _rows(_arg(a, k, 2, "x"))}
    if layer == "model" and short == "transition":
        return lambda a, k, r: {"rows": _rows(_arg(a, k, 3, "x"))}
    return None


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------


class Tracer:
    """Wraps a package's functions and keeps their spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span stacks ---------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, op: int) -> None:
        """Mark the calling thread as the one whose open spans adopt workers."""
        self.op = op
        self._root_stack = self._stack()

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn, name: str, layer: str, info=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                root = tracer._root_stack
                parent = root[-1] if root else None
            sid = next(tracer._ids)
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(Span(
                    sid, name, layer, start, end, threading.get_ident(), parent,
                    tracer.op,
                    info(args, kwargs, result) if info and result is not None
                    else None))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _replace(self, owner, attr: str, fn, layer: str):
        name = f"{layer}.{fn.__qualname__}"
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(fn, name, layer, _info_for(name, layer)))

    def install(self, package) -> int:
        """Wrap every public function and system method; returns the count."""
        modules = [getattr(package, layer) for layer in LAYERS]
        prefix = package.__name__ + "."
        for mod in modules:
            here = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__.startswith(prefix):
                    if attr.startswith("_") and attr not in PRIVATE.get(here, ()):
                        continue
                    self._replace(mod, attr, obj, obj.__module__.rsplit(".", 1)[-1])
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, here)
        return len(self._saved)

    def _wrap_class(self, cls, layer: str) -> None:
        if layer == "model" and hasattr(cls, "coeff_x"):
            names = SYSTEM_METHODS
        elif layer == "linalg" and cls.__name__ == "DerivOracle":
            names = tuple(a for a in vars(cls) if not a.startswith("_"))
        else:
            return
        for attr in names:
            fn = vars(cls).get(attr)
            if inspect.isfunction(fn):
                self._replace(cls, attr, fn, layer)

    def restore(self) -> list[str]:
        """Put back every original, last wrapped first.

        Returns the names that still do not hold their original afterwards,
        which is empty unless something else rebound them meanwhile.
        """
        saved, self._saved = self._saved, []
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, fn in saved if vars(owner).get(attr) is not fn]


# ---------------------------------------------------------------------------
# arithmetic on spans
# ---------------------------------------------------------------------------


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(s.start, s.end, children[s.sid])
            for s in spans}


def _short(span: Span) -> str:
    return span.name.rsplit(".", 1)[-1]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of ``LAYER_METRICS`` from one run's spans."""
    selft = self_times(spans)
    by_id = {s.sid: s for s in spans}

    def parent_of(s: Span) -> Span | None:
        return by_id.get(s.parent) if s.parent is not None else None

    def self_sum(pred) -> float:
        return sum(selft[s.sid] for s in spans if pred(s))

    def dur_sum(pred) -> float:
        return sum(s.end - s.start for s in spans if pred(s))

    def count(pred) -> int:
        return sum(1 for s in spans if pred(s))

    def info_sum(pred, key: str) -> int:
        return sum(s.info[key] for s in spans if pred(s) and s.info)

    def is_coeff(s):
        return s.layer == "model" and _short(s) in COEFF

    def is_oracle(s):
        return s is not None and s.layer == "linalg" and ".DerivOracle." in s.name

    def is_sim(s):
        return s.name == "stochastic.simulate"

    def is_est_sim(s):
        p = parent_of(s)
        return is_sim(s) and p is not None and p.layer == "estimators"

    def is_noise(s):
        return s.name == "stochastic.sample_noise"

    def is_pd(s):
        return s.name == "geometry.point_data"

    def is_ident(s):
        return s.layer == "geometry" and not is_pd(s)

    def is_jac(s):
        return s.name == "linalg.DerivOracle.jacobian"

    def is_oracle_eval(s):
        return is_coeff(s) and is_oracle(parent_of(s))

    def is_trans(s):
        return s.layer == "model" and _short(s) in TRANSITION

    def is_switch(s):
        return s.layer == "model" and _short(s) == "transition"

    def is_eval(s):
        return s.name == "expr.evaluate"

    def is_layer(layer):
        return lambda s: s.layer == layer

    sim_s = dur_sum(is_sim)
    path_steps = info_sum(is_sim, "path_steps")
    coeff_calls = count(is_coeff)
    coeff_evals = count(is_oracle_eval)
    return {
        "cli.run_config_self_s": self_sum(is_layer("cli")),
        "estimators.check_self_s": self_sum(is_layer("estimators")),
        "estimators.simulate_calls": count(is_est_sim),
        "estimators.paths_requested": info_sum(is_est_sim, "paths"),
        "stochastic.simulate_s": sim_s,
        "stochastic.path_steps": path_steps,
        "stochastic.us_per_path_step": 1e6 * sim_s / path_steps if path_steps else 0.0,
        "stochastic.self_s": self_sum(is_layer("stochastic")),
        "stochastic.noise_s": dur_sum(is_noise),
        "stochastic.noise_draws": info_sum(is_noise, "draws"),
        "stochastic.paths_killed": info_sum(is_sim, "killed"),
        "geometry.point_data_calls": count(is_pd),
        "geometry.point_data_rows": info_sum(is_pd, "rows"),
        "geometry.point_data_self_s": self_sum(is_pd),
        "geometry.identity_calls": count(is_ident),
        "geometry.identity_self_s": self_sum(is_ident),
        "linalg.jacobian_calls": count(is_jac),
        "linalg.jacobian_self_s": self_sum(is_jac),
        "linalg.coeff_evals": coeff_evals,
        "linalg.oracle_eval_share": coeff_evals / coeff_calls if coeff_calls else 0.0,
        "model.coeff_calls": coeff_calls,
        "model.coeff_rows": info_sum(is_coeff, "rows"),
        "model.coeff_self_s": self_sum(is_coeff),
        "model.switch_rows": info_sum(is_switch, "rows"),
        "model.transition_s": self_sum(is_trans),
        "expr.evaluate_calls": count(is_eval),
        "expr.evaluate_s": self_sum(is_eval),
        "expr.parse_calls": count(lambda s: s.name == "expr.parse"),
        "quat.calls": count(is_layer("quat")),
        "quat.s": self_sum(is_layer("quat")),
    }
