"""Tests of the benchmark's own code: span arithmetic, names, wraps, claims.

Run from the repository root with ``python3 -m pytest flowbench/tests``.
"""

from __future__ import annotations

import inspect
import json
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import child
import run
from tracer import LAYER_METRICS, LAYERS, Span, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, configs

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(sid, start, end, parent=None, name="geometry.f", tid=1):
    return Span(sid, name, name.split(".")[0], start, end, tid, parent, 0, None)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_nested_children():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 3.0, 6.0, parent=0),   # overlaps its sibling: counted once
        span(3, 2.0, 3.0, parent=1),   # grandchild: not subtracted from 0
        span(4, 9.0, 12.0, parent=0),  # runs past its parent: clipped
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert st[1] == pytest.approx(3.0 - 1.0)
    assert st[2] == pytest.approx(3.0)
    assert st[3] == pytest.approx(1.0)
    assert st[4] == pytest.approx(3.0)


def test_spans_on_worker_threads_hang_off_the_span_that_waits_for_them():
    tracer = Tracer()
    block = tracer.wrap(lambda: time.sleep(0.05), "stochastic._run_block", "stochastic")

    def simulate():
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(block) for _ in range(2)]
            for f in futures:
                f.result(timeout=10)

    tracer.begin_op(0)
    tracer.wrap(simulate, "stochastic.simulate", "stochastic")()

    outer = next(s for s in tracer.spans if s.name == "stochastic.simulate")
    workers = [s for s in tracer.spans if s.name == "stochastic._run_block"]
    assert len(workers) == 2
    assert all(w.parent == outer.sid for w in workers)
    assert all(w.tid != threading.get_ident() for w in workers)
    assert outer.tid == threading.get_ident()

    st = self_times(tracer.spans)
    assert max(w.start for w in workers) < min(w.end for w in workers), \
        "the two blocks should overlap on two threads"
    union = max(w.end for w in workers) - min(w.start for w in workers)
    assert st[outer.sid] == pytest.approx((outer.end - outer.start) - union)
    # thread-seconds: the workers' self times add up past the wall time
    assert sum(st[w.sid] for w in workers) > union


def test_layer_metrics_count_oracle_evaluations_by_parent():
    info = {"rows": 4}
    spans = [
        Span(0, "linalg.DerivOracle.jacobian", "linalg", 0.0, 4.0, 1, None, 0, None),
        Span(1, "model.SphereSystem.coeff_x", "model", 1.0, 2.0, 1, 0, 0, info),
        Span(2, "model.SphereSystem.coeff_x", "model", 2.0, 3.0, 1, 0, 0, info),
        Span(3, "model.SdeSystem.coeff_a", "model", 5.0, 6.0, 1, None, 0, info),
    ]
    m = layer_metrics(spans)
    assert m["model.coeff_calls"] == 3
    assert m["model.coeff_rows"] == 12
    assert m["linalg.coeff_evals"] == 2
    assert m["linalg.oracle_eval_share"] == pytest.approx(2 / 3)
    assert m["linalg.jacobian_self_s"] == pytest.approx(2.0)
    assert m["model.coeff_self_s"] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# names
# ---------------------------------------------------------------------------


def test_every_metric_name_is_well_formed_and_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    names = list(declared_e2e) + list(declared_layer) + list(layer_metrics([]))
    for name in names:
        assert NAME.fullmatch(name), name
    assert set(layer_metrics([])) == set(LAYER_METRICS)


# ---------------------------------------------------------------------------
# wraps
# ---------------------------------------------------------------------------


def _namespaces(package):
    mods = [getattr(package, layer) for layer in LAYERS]
    spaces = list(mods)
    for mod in mods:
        spaces += [obj for obj in vars(mod).values()
                   if inspect.isclass(obj) and obj.__module__ == mod.__name__]
    return spaces


def test_every_wrapped_function_is_restored_after_a_traced_run():
    import flowgeom
    import flowgeom.cli as cli

    spaces = _namespaces(flowgeom)
    before = [dict(vars(ns)) for ns in spaces]
    original_simulate = flowgeom.estimators.simulate

    tracer = Tracer()
    assert tracer.install(flowgeom) > 50
    try:
        assert flowgeom.estimators.simulate is not original_simulate
        assert flowgeom.model.SphereSystem.coeff_x.__wrapped__ is not None
        tracer.begin_op(0)
        report = cli.run_config({
            "command": "estimate", "check": "filtered",
            "scenario": {"name": "sphere-gradient", "params": {"n": 2}},
            "t": 0.02, "dt": 0.01, "n_paths": 100, "seed": 0, "threads": 2})
        assert report["status"] == "passed"
    finally:
        assert tracer.restore() == []

    for ns, old in zip(spaces, before):
        now = vars(ns)
        assert now.keys() == old.keys()
        for key, val in old.items():
            assert now[key] is val, f"{ns.__name__}.{key} not restored"
    names = {s.name for s in tracer.spans}
    assert {"stochastic.simulate", "geometry.point_data",
            "model.SphereSystem.coeff_x", "linalg.DerivOracle.jacobian"} <= names


# ---------------------------------------------------------------------------
# the workloads exercise what they claim
# ---------------------------------------------------------------------------


def test_workloads_are_deterministic_in_the_seed():
    for w in WORKLOADS:
        assert configs(w, 7) == configs(w, 7)
        assert configs(w, 7) != configs(w, 8)


def test_expression_evaluations_per_op_are_highest_on_oneform_custom(tmp_path):
    per_op = {}
    for w in WORKLOADS:
        d = tmp_path / w
        d.mkdir()
        cfgs = configs(w, 0)
        for k, cfg in enumerate(cfgs):
            (d / f"{k:03d}.json").write_text(json.dumps(cfg))
        out = child.main(str(d), trace=True)
        assert all(op["ok"] for op in out["ops"]), out["ops"]
        assert out["unrestored"] == []
        assert run.sanity(w, out["layers"]) == []
        per_op[w] = out["layers"]["expr.evaluate_calls"] / len(cfgs)
    assert max(per_op, key=per_op.get) == "oneform-custom", per_op


def test_digest_ignores_wall_time_at_any_depth():
    a = {"status": "passed", "wall_time": 1.0, "rows": [{"x": 1.5, "wall_time": 2.0}]}
    b = {"status": "passed", "wall_time": 9.0, "rows": [{"x": 1.5, "wall_time": 3.0}]}
    c = {"status": "passed", "wall_time": 1.0, "rows": [{"x": 1.5000001}]}
    assert child.digest(a) == child.digest(b)
    assert child.digest(a) != child.digest(c)


def test_tail_percentile_needs_ten_samples_above_it():
    assert run.tail_percentile([1.0] * 10) is None
    q, v = run.tail_percentile([float(i) for i in range(20)])
    assert q == 50.0 and v == 9.0
    q, _ = run.tail_percentile([float(i) for i in range(200)])
    assert q == 95.0
