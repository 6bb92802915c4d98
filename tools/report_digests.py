"""Print one sha256 per report under fixed seeds: the refactor gate.

Usage, from the root of a flowgeom checkout:

    python3 tools/report_digests.py [--root DIR] [--dump OUT]

Imports ``flowgeom`` from ``DIR/src`` (default: this checkout) and prints one
line ``<sha256>  <label>`` per report.  A report's digest is
``flowbench/child.digest``: the sha256 of its JSON with every ``wall_time``
removed.  Run it on two checkouts and diff the outputs; a change that keeps
every result bit for bit gives an empty diff.  A run's arrays hash each path's
chart by name (``SimResult.cid``).  On a checkout whose results still name
charts by index (``cid_idx`` into ``chart_names``), the names are taken from
the index, and the start data only those results keep (``ginv0``, ``X0``,
``F0``) is not hashed, so both forms print the same lines.

``--dump OUT`` also writes what each digest hashes into the directory OUT:
``<k>.json`` (the report without ``wall_time``) or ``<k>.npz`` (the arrays)
for the k-th label, and ``labels.json`` listing the labels in order.  For a
change that moves results by design, ``tools/compare_dumps.py`` prints the
largest difference per label between two such directories.

Covered: the benchmark's workload configs at seeds 0 and 1, CLI ``estimate``
of every check on sphere-gradient, ``filtered`` on so3-left-invariant and
twisted-plane, ``generator`` and ``oneform`` on custom over three engine
blocks (``oneform`` once more with a 1-form given by its components), CLI ``simulate`` plain and recorded, CLI ``verify`` and ``tensors``
on sphere-gradient at configured points in charts n, s, n plus sampled
points, CLI ``tensors`` at p = 3 on sphere-gradient n = 2 and n = 3 and on
custom (the moment-form extremes decided row by row, by the angular grid and
by the restarts), the sha256 and the numeric cells of the ``--dump-paths`` CSV of a
recorded sphere-gradient run whose paths change chart, the API-only checks
``ito_pathwise_check``, ``weak_order_check`` and ``se_scaling_check``, the
oracle's ``jacobian`` of ``coeff_x``, of the metric field and of the induced
Christoffel field on each scenario at one point and at a batch, the nested
oracle routes (``curvature_from_christoffel`` of the ``lw`` and ``lc``
Christoffels and ``torsion_via_dy``) on sphere-gradient n = 3 and
so3-left-invariant at one point and at a batch, the
exact ``coeff_dx`` and ``coeff_da`` of the expression-defined systems
(``coeff_dx`` on custom, ``coeff_da`` on flat with drift and on custom with
drift) at one point and at a batch, every array of a default ``simulate``
on each scenario, every array of
sphere-gradient runs (n = 2 and 3) started near the switching radius in
either chart, where most paths change chart, and every array of a
sphere-gradient (n = 2) run on the twice-coarsened stream
(``simulate(..., coarsen=2)``) over two engine blocks, and every array of
a short custom n = 3 run with ``hp_p = 3`` (the moment-form restarts in the
engine).  The ``record``
labels run with a snapshot at every step
(``simulate(..., at=range(steps + 1))``) and stack each series over the
snapshots.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

SPHERE = {"name": "sphere-gradient", "params": {"n": 2}}
MC = {"seed": 7, "threads": 2}
MIXED_POINTS = [{"chart": "n", "x": [0.4, -0.3]}, {"chart": "s", "x": [1.2, 0.5]},
                {"chart": "n", "x": [-0.8, 1.1]}]

# check -> overrides; horizons kept short so the whole sweep stays quick
ESTIMATES = {
    "filtered": {"n_paths": 400},
    "bismut": {"n_paths": 400, "t": 0.2},
    "moments": {"n_paths": 300, "t": 0.3},
    "generator": {"n_paths": 2000},
    "oneform": {"n_paths": 2000},
    "bochner": {"n_paths": 200, "t": 0.5},
    "decompose": {"n_paths": 200, "t": 0.1},
}

# the per-step series of a recorded run, stacked over its snapshots
SERIES = ("cid", "x", "alive", "J", "par_lw", "par_adj", "What", "Vhat",
          "b_raw", "b_breve", "beta", "b_bar", "centers")

SCENARIOS = (
    ("flat", {"n": 2, "drift": ["-x1", "-x2"]}),
    ("sphere-gradient", {"n": 2}),
    ("sphere-gradient", {"n": 3}),
    ("so3-left-invariant", {}),
    ("twisted-plane", {"alpha": 0.5}),
    ("circle", {}),
    ("custom", {"n": 2, "m": 3,
                "x_entries": [["cos(x1)", "sin(x1)*x2", "0.3"],
                              ["0.2*x1", "cos(x2)", "sin(x2)"]],
                "a_entries": ["-0.5*x1", "-0.5*sin(x2)"]}),
)

# a custom system with n = 3, so the moment-form extremes take the restarts
CUSTOM_N3 = {"n": 3, "m": 4,
             "x_entries": [["1 + 0.3*sin(x2)", "0.2*x3", "0", "0.4*x1"],
                           ["0.1*x1", "1", "0.2*cos(x3)", "0.3*x3"],
                           ["0", "0.3*x2", "1 + 0.1*x1*x1", "0.5*sin(x1)"]]}


def configs() -> list[tuple[str, dict]]:
    """(label, CLI config) for every config-driven report."""
    from workloads import WORKLOADS, configs as workload_configs

    out = []
    for workload in WORKLOADS:
        for seed in (0, 1):
            for k, cfg in enumerate(workload_configs(workload, seed)):
                out.append((f"workload {workload} seed {seed} op {k}", cfg))
    for check, extra in ESTIMATES.items():
        out.append((f"estimate {check} sphere-gradient",
                    {"command": "estimate", "check": check, "scenario": SPHERE,
                     **MC, **extra}))
    for name, params in (("so3-left-invariant", {}), ("twisted-plane", {"alpha": 0.5})):
        out.append((f"estimate filtered {name}",
                    {"command": "estimate", "check": "filtered",
                     "scenario": {"name": name, "params": params},
                     "n_paths": 400, **MC}))
    # three engine blocks, the last one partial: the t/2 quotient is read
    # from each block of the t-run
    for check in ("generator", "oneform"):
        out.append((f"estimate {check} custom",
                    {"command": "estimate", "check": check,
                     "scenario": {"name": "custom", "params": SCENARIOS[-1][1]},
                     "n_paths": 4500, **MC}))
    # a 1-form given by its chart components rather than as d of a scalar
    out.append(("estimate oneform custom phi components",
                {"command": "estimate", "check": "oneform",
                 "scenario": {"name": "custom", "params": SCENARIOS[-1][1]},
                 "phi": {"components": ["x2*cos(x1)", "0.5 - x1*x2"]},
                 "n_paths": 4500, **MC}))
    for record in (False, True):
        out.append((f"simulate sphere-gradient record={record}",
                    {"command": "simulate", "scenario": SPHERE, "n_paths": 300,
                     "t": 0.3, "record": record, **MC}))
    # configured points in both charts, then the start and sampled points:
    # one batch that mixes charts
    for command in ("verify", "tensors"):
        out.append((f"{command} sphere-gradient points in charts n, s, n",
                    {"command": command, "scenario": SPHERE, "points": MIXED_POINTS,
                     "n_probes": 4, "seed": 3}))
    # p != 2: the moment-form extremes decided row by row, angular grid
    # (n = 2) and restarts (n = 3)
    for n in (2, 3):
        out.append((f"tensors sphere-gradient n={n} p=3",
                    {"command": "tensors",
                     "scenario": {"name": "sphere-gradient", "params": {"n": n}},
                     "p": 3.0, "n_probes": 4, "seed": 3}))
    out.append(("tensors custom n=2 p=3",
                {"command": "tensors", "scenario": {"name": "custom", "params": SCENARIOS[-1][1]},
                 "p": 3.0, "n_probes": 4, "seed": 3}))
    return out


def dump_csv() -> tuple[tuple[str, dict], tuple[str, dict]]:
    """The ``--dump-paths`` CSV, one row per path and step, of a recorded
    sphere run written by the CLI; started near the switching radius
    (|u| = 2), so its rows are in both charts.  Returns (label, {exit code,
    sha256}) and (label, {column: array}) of its numeric cells, every column
    but ``chart``, so a dump shows how far the file's numbers moved."""
    import contextlib
    import csv
    import io
    import tempfile

    import numpy as np

    import flowgeom.cli as cli

    cfg = {"command": "simulate", "scenario": SPHERE, "x0": [1.9, 0.2], "n_paths": 300,
           "t": 0.3, "record": True, **MC}
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "record.json")
        csv_path = os.path.join(tmp, "record.csv")
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(io.StringIO()):  # the run's summary table
            code = cli.main(["simulate", cfg_path, "--dump-paths", csv_path])
        with open(csv_path, "rb") as fh:
            raw = fh.read()
    head, *rows = csv.reader(io.StringIO(raw.decode()))
    cells = {name: np.array([float(row[k]) for row in rows])
             for k, name in enumerate(head) if name != "chart"}
    label = "simulate sphere-gradient record=True switching dump-paths CSV"
    return ((label, {"exit_code": code, "csv_sha256": hashlib.sha256(raw).hexdigest()}),
            (f"{label} cells", cells))


def api_reports() -> list[tuple[str, dict]]:
    """(label, report dict) for the checks only the Python API reaches."""
    from flowgeom.estimators import (
        McConfig, ito_pathwise_check, se_scaling_check, weak_order_check)
    from flowgeom.model import build_scenario

    def cfg(name, params, **kw):
        return McConfig(system=build_scenario(name, params).system, **kw)

    out = []
    for name, params in (("sphere-gradient", {"n": 2}), SCENARIOS[-1]):
        rep = ito_pathwise_check(cfg(name, params, t=0.2, dt=1e-2, seed=3), n_paths=12)
        out.append((f"ito_pathwise_check {name}", rep.to_dict()))
    rep = weak_order_check(cfg("sphere-gradient", {"n": 2}, t=0.2, dt=2e-2,
                               n_paths=400, seed=4))
    out.append(("weak_order_check sphere-gradient", rep.to_dict()))
    rep = se_scaling_check(cfg("sphere-gradient", {"n": 2}, t=0.2, dt=2e-2,
                               n_paths=400, seed=5))
    out.append(("se_scaling_check sphere-gradient", rep.to_dict()))
    return out


def _sha(arr) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def _strip(val):
    """``val`` without any ``wall_time`` entry, at any depth."""
    if isinstance(val, dict):
        return {k: _strip(v) for k, v in val.items() if k != "wall_time"}
    if isinstance(val, list):
        return [_strip(v) for v in val]
    return val


def oracle_arrays() -> list[tuple[str, dict]]:
    """(label, {field: array}) of ``DerivOracle.jacobian`` on each scenario's
    ``coeff_x``, metric field and induced Christoffel field, at one point and
    at a batch of points of the first chart."""
    import numpy as np

    from flowgeom.geometry import _metric_field, lw_christoffel
    from flowgeom.model import build_scenario

    out = []
    for name, params in SCENARIOS:
        system = build_scenario(name, params).system
        cid = system.start()[0]
        pts = np.array([x for c, x in system.sample_points(np.random.default_rng(11), 8)
                        if c == cid])
        fields = {
            "coeff_x": lambda y: system.coeff_x(cid, y),
            "metric": _metric_field(system, cid),
            "lw": lambda y: lw_christoffel(system, cid, y),
        }
        for where, x in (("single", pts[0]), ("batch", pts)):
            out.append((f"jacobian {name} {params} {where}",
                        {k: system.oracle.jacobian(f, x) for k, f in fields.items()}))
    return out


def nested_arrays() -> list[tuple[str, dict]]:
    """(label, {route: array}) of the routes that nest one oracle ``jacobian``
    in another or differentiate a derived field: ``curvature_from_christoffel``
    of the induced (``lw``) and Levi-Civita (``lc``) Christoffels and
    ``torsion_via_dy``, on sphere-gradient (n = 3) and so3-left-invariant, at
    one point and at a batch of points of the first chart."""
    import numpy as np

    from flowgeom.geometry import curvature_from_christoffel, torsion_via_dy
    from flowgeom.model import build_scenario

    out = []
    for name, params in (SCENARIOS[2], SCENARIOS[3]):
        system = build_scenario(name, params).system
        cid = system.start()[0]
        pts = np.array([x for c, x in system.sample_points(np.random.default_rng(13), 6)
                        if c == cid])
        for where, x in (("single", pts[0]), ("batch", pts)):
            out.append((f"nested {name} {params} {where}", {
                "curvature_lw": curvature_from_christoffel(system, cid, x, "lw"),
                "curvature_lc": curvature_from_christoffel(system, cid, x, "lc"),
                "torsion_via_dy": torsion_via_dy(system, cid, x)}))
    return out


def exact_arrays() -> list[tuple[str, dict]]:
    """(label, {field: array}) of the exact derivatives of the expression-defined
    coefficients, at the points of ``oracle_arrays``."""
    import numpy as np

    from flowgeom.model import build_scenario

    out = []
    for name, params in SCENARIOS:
        if name not in ("flat", "custom"):
            continue
        system = build_scenario(name, params).system
        pts = np.array([x for _, x in system.sample_points(np.random.default_rng(11), 8)])
        methods = {"coeff_da": system.coeff_da}
        if name == "custom":
            methods["coeff_dx"] = system.coeff_dx
        for where, x in (("single", pts[0]), ("batch", pts)):
            out.append((f"exact {name} {params} {where}",
                        {k: f("u", x) for k, f in methods.items()}))
    return out


def engine_arrays() -> list[tuple[str, dict]]:
    """(label, {field: array}) of default ``simulate`` runs."""
    from dataclasses import fields

    import numpy as np

    from flowgeom.model import build_scenario
    from flowgeom.stochastic import simulate

    def arrays(res) -> dict:
        """Every array field of a ``SimResult``, each path's chart by name as
        ``cid`` on either form of the result (see the module docstring)."""
        out = {f.name: getattr(res, f.name) for f in fields(res)
               if isinstance(getattr(res, f.name), np.ndarray)}
        if "cid_idx" in out:
            out["cid"] = np.asarray(res.chart_names)[out.pop("cid_idx")]
            for name in ("ginv0", "X0", "F0"):
                out.pop(name, None)
        return out

    def recorded(system, t, **kw) -> dict:
        """A run with a snapshot at every step: its terminal arrays, plus
        ``path.<field>`` for each series stacked over the snapshots (axes
        step, path, ...) and the start's ``g0`` and ``x0``."""
        res = simulate(system, t=t, dt=1e-2, n_paths=16, seed=9,
                       at=range(round(t / 1e-2) + 1), **kw)
        out = dict(arrays(res), **{"path.g0": res.g0, "path.x0": res.x0})
        snaps = [arrays(s) for s in res.snapshots]
        for name in SERIES:
            if name in out:
                out[f"path.{name}"] = np.stack([s[name] for s in snaps])
        return out

    out = []
    for name, params in SCENARIOS:
        system = build_scenario(name, params).system
        for hp_p in (None, 2.0):
            res = simulate(system, t=0.3, dt=1e-2, n_paths=2100, seed=9, hp_p=hp_p,
                           threads=2)
            out.append((f"simulate arrays {name} {params} hp_p={hp_p}", arrays(res)))
        out.append((f"simulate arrays {name} {params} record", recorded(system, 0.1)))
    # the sphere's default start hardly leaves its chart; started near the
    # switching radius (|u| = 2) most paths change chart, so the switched-row
    # write-back and the two-chart embedding are covered
    for n in (2, 3):
        system = build_scenario("sphere-gradient", {"n": n}).system
        x0 = np.zeros(n)
        x0[0] = 1.9
        for cid in ("n", "s"):
            label = f"simulate arrays sphere-gradient n={n} switching from {cid}"
            res = simulate(system, t=0.3, dt=1e-2, n_paths=2100, seed=9, hp_p=2.0,
                           threads=2, x0=x0, cid=cid)
            out.append((f"{label} hp_p=2.0", arrays(res)))
            out.append((f"{label} record", recorded(system, 0.2, x0=x0, cid=cid)))
    # the moment-form restarts (n = 3) in the engine, each row stopping on its
    # own; kept short, since on this system they run to their step cap
    system = build_scenario("custom", CUSTOM_N3).system
    res = simulate(system, t=0.02, dt=1e-2, n_paths=16, seed=9, hp_p=3.0)
    out.append(("simulate arrays custom n=3 m=4 hp_p=3.0", arrays(res)))
    # the dt/4 stream summed in pairs twice, drawn per block of a 2100-path run
    system = build_scenario("sphere-gradient", {"n": 2}).system
    res = simulate(system, t=0.3, dt=1e-2, n_paths=2100, seed=9, threads=2, coarsen=2)
    out.append(("simulate arrays sphere-gradient {'n': 2} coarsen=2", arrays(res)))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=REPO,
                   help="flowgeom checkout whose src/ is imported (default: this one)")
    p.add_argument("--dump", metavar="OUT",
                   help="also write each label's report or arrays into this directory")
    args = p.parse_args(argv)
    src = os.path.join(os.path.abspath(args.root), "src")
    if not os.path.isfile(os.path.join(src, "flowgeom", "__init__.py")):
        print(f"no flowgeom source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, os.path.join(REPO, "flowbench")]
    from child import digest

    import numpy as np

    import flowgeom.cli as cli

    labels: list[str] = []
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)

    def emit(label: str, report: dict, arrays: dict | None = None) -> None:
        print(f"{digest(report)}  {label}", flush=True)
        if args.dump:
            stem = os.path.join(args.dump, str(len(labels)))
            if arrays is None:
                with open(stem + ".json", "w") as fh:
                    json.dump(_strip(report), fh, sort_keys=True)
            else:
                np.savez(stem + ".npz", **arrays)
            labels.append(label)

    for label, cfg in configs():
        try:
            report = cli.run_config(cfg)
        except Exception as exc:  # a raising config is compared by its error
            report = {"error": f"{type(exc).__name__}: {exc}"}
        emit(label, report)
    csv_report, csv_cells = dump_csv()
    for label, report in api_reports() + [csv_report]:
        emit(label, report)
    for label, arrays in (oracle_arrays() + nested_arrays() + exact_arrays()
                          + engine_arrays() + [csv_cells]):
        emit(label, {k: _sha(v) for k, v in arrays.items()}, arrays)
    if args.dump:
        with open(os.path.join(args.dump, "labels.json"), "w") as fh:
            json.dump(labels, fh, indent=0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
