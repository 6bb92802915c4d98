"""Batch front end: validate a JSON config, dispatch, emit reports.

One run = one JSON config naming a command (tensors, verify, simulate,
estimate) plus a scenario block and numeric parameters.  The config is
validated against the published schema before anything executes; a few
scalar fields can be overridden from the command line for convenience.
Reports go to --out as JSON, a summary table goes to stdout, and bulk
per-path data goes to --dump-paths as CSV.

Exit codes: 0 when every requested check passes (a check whose
preconditions fail reports not_applicable and still exits 0), 1 on a
check failure, 2 on a config error (including a start chart the scenario
lacks, or a probe point of the wrong length, in a chart the scenario lacks,
or where X loses rank), 3 on a runtime or numeric error or on any other
exception (reported as an internal error, without a traceback).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import fields
from importlib import resources

import jsonschema
import numpy as np

from .errors import (
    BadParams,
    ConfigError,
    DegenerateX,
    ExprError,
    FlowgeomError,
    NotApplicable,
    TooFewAlivePaths,
    UnknownScenario,
)
from .estimators import (
    McConfig,
    _resolve_v0,
    bismut_gradient,
    bochner_decay_check,
    decomposition_check,
    filtered_expectation_check,
    generator_check,
    moment_sandwich,
    one_form_semigroup_check,
)
from .geometry import (
    TSS_TOL,
    PointData,
    _g_frame_eigvalsh,
    _metric_field,
    christoffel,
    connection_routes_residual,
    curvature_from_christoffel,
    curvature_lw_direct,
    defining_property_residual,
    geometry_point,
    metricity_residual,
    moment_form_extremes,
    pairing_derivative_residual,
    point_data,
    ricci_bilinear,
    ricci_sharp,
    scalar_from_expr,
    scalar_generator,
    stratonovich_term,
    torsion_via_bracket,
    torsion_via_dy,
    tss_check,
)
from .model import build_scenario
from .stochastic import simulate

__all__ = ["main", "load_config", "run_config"]

COMMANDS = ("tensors", "verify", "simulate", "estimate")

INDEX_CONVENTION = {
    "christoffel": "gamma[i][j][k]: (nabla_v Z)^i = dZ^i(v) + gamma[i][j][k] v^j Z^k "
                   "(j differentiates, k is the argument)",
    "torsion": "torsion[i][j][k] = gamma[i][j][k] - gamma[i][k][j]",
    "curvature": "curvature[i][j][k][l]: R(e_j, e_k) e_l = curvature[i][j][k][l] e_i",
    "ric_sharp": "ric_sharp[i][j] = curvature[i][j][k][l] ginv[k][l]",
    "ricci": "ricci[j][k] = <ric_sharp e_j, e_k>_g",
    "moment_form": "h_lo/h_hi: extremes of the moment form over g-unit vectors",
}


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def _schema() -> dict:
    path = resources.files("flowgeom") / "schemas" / "config.schema.json"
    return json.loads(path.read_text())


def load_config(path: str, overrides: dict | None = None) -> dict:
    """Read, schema-validate, and apply command-line overrides."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if overrides:
        cfg = {**cfg, **{k: v for k, v in overrides.items() if v is not None}}
    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        where = errors[0].json_path
        raise ConfigError(f"config {path!r} invalid at {where}: {errors[0].message}")
    return cfg


def _build_system(cfg: dict):
    block = cfg["scenario"]
    return build_scenario(block["name"], block.get("params")).system


def _probe_points(system, cfg: dict, default_samples: int) -> list:
    """The config's ``points`` (checked against the scenario), then the start
    point and ``n_probes`` sampled points."""
    pts = []
    start_cid, _ = system.start()
    for k, entry in enumerate(cfg.get("points", [])):
        cid = entry.get("chart", start_cid)
        try:
            system.check_chart(cid)
        except BadParams as exc:
            raise BadParams(f"points[{k}]: {exc}") from None
        x = np.asarray(entry["x"], dtype=float)
        if x.shape != (system.n,):
            raise BadParams(f"points[{k}].x must have {system.n} entries, got {x.size}")
        pts.append((cid, x))
    n_extra = cfg.get("n_probes", default_samples if not pts else 0)
    if n_extra or not pts:
        rng = np.random.default_rng(cfg.get("seed", 0))
        pts = pts + [system.start()] + system.sample_points(rng, n_extra)
    return [(cid, np.asarray(x, dtype=float)) for cid, x in pts]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _chart_groups(points: list) -> list[tuple[str, list[int], np.ndarray]]:
    """(chart, probe indices, (G, n) points) per chart, charts in order of
    first appearance and points in probe order within each."""
    groups: dict[str, list[int]] = {}
    for k, (cid, _) in enumerate(points):
        groups.setdefault(cid, []).append(k)
    return [(cid, idx, np.array([points[k][1] for k in idx])) for cid, idx in groups.items()]


def _point_row(pd: PointData, row: int) -> PointData:
    return PointData(**{f.name: None if getattr(pd, f.name) is None else getattr(pd, f.name)[row]
                        for f in fields(PointData)})


def cmd_tensors(cfg: dict) -> dict:
    t0 = time.perf_counter()
    system = _build_system(cfg)
    p = float(cfg.get("p", 2.0))
    points = _probe_points(system, cfg, default_samples=4)
    entries: list = [None] * len(points)
    for cid, idx, xs in _chart_groups(points):
        gp = geometry_point(system, cid, xs)
        pd = point_data(system, cid, xs)
        for row, k in enumerate(idx):
            # the extremes pick their method and stop by looking at their
            # whole batch, so each point is solved on its own
            h_lo, h_hi = moment_form_extremes(_point_row(pd, row), p)
            entries[k] = {
                "chart": cid,
                "x": xs[row].tolist(),
                "g": gp.g[row].tolist(),
                "ginv": gp.ginv[row].tolist(),
                "gamma_lw": gp.gamma_lw[row].tolist(),
                "gamma_adjoint": gp.gamma_adjoint[row].tolist(),
                "gamma_lc": gp.gamma_lc[row].tolist(),
                "torsion": gp.torsion[row].tolist(),
                "curvature_lw": gp.curvature_lw[row].tolist(),
                "ric_sharp_lw": gp.ric_sharp_lw[row].tolist(),
                "ricci_lw": gp.ricci_lw[row].tolist(),
                "h_lo": float(h_lo),
                "h_hi": float(h_hi),
            }
    return {
        "command": "tensors",
        "scenario": cfg["scenario"],
        "status": "passed",
        "index_convention": INDEX_CONVENTION,
        "p": p,
        "points": entries,
        "wall_time": time.perf_counter() - t0,
    }


def cmd_verify(cfg: dict) -> dict:
    """Geometry identity suite: max residual per identity over probe points.

    Each identity is evaluated once per chart, on all of that chart's probe
    points as one batch.
    """
    t0 = time.perf_counter()
    system = _build_system(cfg)
    points = _probe_points(system, cfg, default_samples=8)
    f_src = cfg.get("f", "x1")
    # two (v1, v2) bracket pairs per point, drawn in probe order
    brackets = np.random.default_rng(cfg.get("seed", 0) + 1).normal(
        size=(len(points), 2, 2, system.n))

    worst: dict[str, float] = {}

    def _acc(key: str, per_point: np.ndarray) -> None:
        worst[key] = max(worst.get(key, 0.0), float(np.max(per_point)))

    def _max_abs(a: np.ndarray) -> np.ndarray:
        """max |a| per point: over every axis but the first."""
        return np.max(np.abs(a).reshape(len(a), -1), axis=-1)

    gamma_gap = 0.0
    curvature_max = 0.0
    ricci_min_eig = np.inf
    ricci_max_abs = 0.0
    for cid, idx, xs in _chart_groups(points):
        pd = point_data(system, cid, xs)
        # the engine's DX (coeff_dx) against the oracle's, relative per point
        dx_fd = system.oracle.jacobian(lambda y: system.coeff_x(cid, y), xs)
        scale = np.maximum(_max_abs(dx_fd), _max_abs(pd.DX))
        _acc("coeff_dx", _max_abs(pd.DX - dx_fd) / np.where(scale > 0.0, scale, 1.0))
        _acc("defining_property", defining_property_residual(system, cid, xs))
        _acc("metricity_lw", metricity_residual(system, cid, xs, kind="lw"))
        _acc("metricity_adjoint", metricity_residual(system, cid, xs, kind="adjoint"))
        _acc("pairing_derivative", pairing_derivative_residual(system, cid, xs))
        _acc("christoffel_routes", connection_routes_residual(system, cid, xs))

        gamma = pd.gamma
        T = gamma - np.swapaxes(gamma, -1, -2)
        _acc("torsion_routes", _max_abs(T - torsion_via_dy(system, cid, xs)))
        v1, v2 = brackets[idx, :, 0], brackets[idx, :, 1]  # (G, 2, n)
        tb = torsion_via_bracket(system, cid, xs[:, None, :], v1, v2)
        _acc("torsion_routes", _max_abs(
            tb - np.einsum("...ijk,...j,...k->...i", T[:, None], v1, v2)))

        R = curvature_from_christoffel(system, cid, xs, kind="lw")
        _acc("curvature_routes", _max_abs(R - curvature_lw_direct(pd.gradX, pd.g)))
        curvature_max = max(curvature_max, float(np.max(np.abs(R))))

        f = scalar_from_expr(system, cid, f_src)
        lw_val, lc_val = scalar_generator(system, cid, xs, f)
        _acc("generator_routes", np.abs(lw_val - lc_val))

        s = stratonovich_term(system, cid, xs)
        _acc("stratonovich_lw", np.sqrt(np.einsum("...i,...ij,...j->...", s, pd.g, s)))

        gamma_lc = christoffel(system, cid, xs, "lc")
        gamma_gap = max(gamma_gap, float(np.max(np.abs(gamma - gamma_lc))))

        # Levi-Civita Ricci minus induced Ricci, eigenvalues in a g-frame
        R_lc = curvature_from_christoffel(system, cid, xs, kind="lc")
        ric_diff = (ricci_bilinear(ricci_sharp(R_lc, pd.ginv), pd.g)
                    - ricci_bilinear(pd.ric_sharp, pd.g))
        ric_diff = 0.5 * (ric_diff + np.swapaxes(ric_diff, -1, -2))
        eigs = _g_frame_eigvalsh(ric_diff, pd.g)
        ricci_min_eig = min(ricci_min_eig, float(eigs.min()))
        ricci_max_abs = max(ricci_max_abs, float(np.max(np.abs(eigs))))

    start_cid, start_x = system.start()
    tss, tss_res, tss_alt = tss_check(system, start_cid, start_x)
    lw_equals_lc = gamma_gap < 1e-6

    tolerances = {
        "defining_property": 1e-6,
        "metricity_lw": 1e-6,
        "pairing_derivative": 1e-5,
        "christoffel_routes": 1e-5,
        "torsion_routes": 1e-4,
        "curvature_routes": 1e-4,
        "generator_routes": 1e-6,
        "stratonovich_lw": 1e-6,
    }
    rows = [{"name": k, "residual": worst[k], "tolerance": tol,
             "provenance": "derived-oracle", "passed": worst[k] < tol}
            for k, tol in tolerances.items()]
    if tss:
        # the transpose-coefficient connection is metric only on these scenarios
        rows.append({"name": "metricity_adjoint",
                     "residual": worst["metricity_adjoint"], "tolerance": 1e-6,
                     "provenance": "derived-oracle",
                     "passed": worst["metricity_adjoint"] < 1e-6})
        rows.append({"name": "ricci_comparison_psd",
                     "residual": -min(ricci_min_eig, 0.0), "tolerance": 1e-6,
                     "provenance": "derived-oracle",
                     "passed": ricci_min_eig >= -1e-6,
                     "note": "eigenvalues of Ric_lc - Ric_lw stay nonnegative"})
    if lw_equals_lc:
        rows.append({"name": "ricci_comparison_zero",
                     "residual": ricci_max_abs, "tolerance": 1e-6,
                     "provenance": "derived-oracle",
                     "passed": ricci_max_abs < 1e-6,
                     "note": "induced = Levi-Civita forces equal Ricci"})
    rows.append({"name": "coeff_dx", "residual": worst["coeff_dx"], "tolerance": 1e-6,
                 "provenance": "derived-oracle", "passed": worst["coeff_dx"] < 1e-6,
                 "note": "coeff_dx vs finite-difference DX, largest gap relative to "
                         "the largest entry, per point"})
    rows.append({"name": "tss", "residual": float(tss_res),
                 "alt_residual": float(tss_alt), "tolerance": TSS_TOL,
                 "provenance": "derived-oracle",
                 "passed": bool(tss) == bool(tss_alt < TSS_TOL),
                 "note": "the torsion route (residual) and the Levi-Civita route "
                         "(alt_residual) agree on whether the torsion is skew-symmetric"})

    ok = all(r["passed"] for r in rows)
    return {
        "command": "verify",
        "scenario": cfg["scenario"],
        "status": "passed" if ok else "failed",
        "n_points": len(points),
        "identities": rows,
        "flags": {
            "lw_equals_lc": lw_equals_lc,
            "tss": bool(tss),
            "tss_residual": float(tss_res),
            "tss_alt_residual": float(tss_alt),
            "curvature_zero": curvature_max < 1e-4,
            "max_gamma_gap": gamma_gap,
        },
        "wall_time": time.perf_counter() - t0,
    }


def _mc_defaults(check: str) -> dict:
    if check in ("generator", "oneform"):
        return {"t": 0.01, "dt": 1e-3}
    if check == "bochner":
        return {"t": 2.0, "dt": 1e-2}
    if check == "decompose":
        return {"t": 1.0, "dt": 1e-3}
    if check == "moments":
        return {"t": 1.0, "dt": 1e-2}
    return {"t": 0.5, "dt": 1e-2}


def _mc_config(cfg: dict, check: str = "") -> McConfig:
    d = _mc_defaults(check)
    threads = int(cfg.get("threads", os.cpu_count() or 1))
    return McConfig(
        system=_build_system(cfg),
        t=float(cfg.get("t", d["t"])),
        dt=float(cfg.get("dt", d["dt"])),
        n_paths=int(cfg.get("n_paths", 1000)),
        seed=int(cfg.get("seed", 0)),
        threads=threads,
        cid=cfg.get("chart"),
        x0=np.asarray(cfg["x0"], dtype=float) if "x0" in cfg else None,
        v0=np.asarray(cfg["v0"], dtype=float) if "v0" in cfg else None,
        k_se=float(cfg.get("k_se", 3.0)),
    )


def cmd_simulate(cfg: dict):
    t0 = time.perf_counter()
    mc = _mc_config(cfg)
    cid, x0 = mc.start()
    res = simulate(mc.system, t=mc.t, dt=mc.dt, n_paths=mc.n_paths, seed=mc.seed,
                   x0=x0, cid=cid, threads=mc.threads,
                   record=bool(cfg.get("record", False)))
    alive = res.alive
    v0 = _resolve_v0(mc, res)
    jv = res.J[alive] @ v0
    wv = res.W()[alive] @ v0
    j_norm = np.sqrt(np.einsum("pi,pij,pj->p", jv, res.g_T[alive], jv))
    w_norm = np.sqrt(np.einsum("pi,pij,pj->p", wv, res.g_T[alive], wv))
    emb = res.embedded[alive]
    n_alive = int(alive.sum())
    recon = float(np.max(res.recon_err[alive])) if n_alive else float("nan")
    report = {
        "command": "simulate",
        "scenario": cfg["scenario"],
        "status": "passed" if recon <= 1e-10 else "failed",
        "t": res.t,
        "dt": res.dt,
        "seed": res.seed,
        "n_paths": res.n_paths,
        "n_dropped": res.n_dropped,
        "terminal": {
            "embedded_mean": emb.mean(axis=0).tolist(),
            "embedded_se": (emb.std(axis=0, ddof=1) / np.sqrt(n_alive)).tolist(),
            "J_v0_norm_mean": float(j_norm.mean()),
            "W_v0_norm_mean": float(w_norm.mean()),
        },
        "reconstruction": {
            "max_defect": recon,
            "tolerance": 1e-10,
            "provenance": "analytic",
        },
        "wall_time": time.perf_counter() - t0,
    }
    return report, res, v0


# what _dump_paths_csv reads of an unrecorded run besides the state
_DUMP_NEEDS = frozenset(("J", "par_adj", "What", "g_T"))


def _dump_paths_csv(path: str, system, res, v0: np.ndarray) -> None:
    """Terminal per-path rows; with a recorded run, one row per snapshot."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        n = res.x.shape[-1]
        if res.path is None:
            wr.writerow(["path", "chart", "alive"]
                        + [f"x{k + 1}" for k in range(n)]
                        + ["J_v0_norm", "W_v0_norm"])
            jv = res.J @ v0
            wv = res.W() @ v0
            jn = np.sqrt(np.einsum("pi,pij,pj->p", jv, res.g_T, jv))
            wn = np.sqrt(np.einsum("pi,pij,pj->p", wv, res.g_T, wv))
            for i in range(res.n_paths):
                wr.writerow([i, res.chart_names[res.cid_idx[i]], int(res.alive[i])]
                            + [repr(float(c)) for c in res.x[i]]
                            + [repr(float(jn[i])), repr(float(wn[i]))])
        else:
            fp = res.path
            wr.writerow(["path", "step", "time", "chart", "alive"]
                        + [f"x{k + 1}" for k in range(n)] + ["W_v0_norm"])
            for k in range(fp.x.shape[0]):
                wk = fp.par_adj[k] @ fp.What[k] @ v0
                gk = _metric_field(system, np.asarray(res.chart_names)[fp.cid_idx[k]])(fp.x[k])
                for i in range(res.n_paths):
                    norm = float(np.sqrt(max(wk[i] @ gk[i] @ wk[i], 0.0)))
                    wr.writerow([i, k, repr(k * res.dt),
                                 res.chart_names[fp.cid_idx[k][i]],
                                 int(fp.alive[k][i])]
                                + [repr(float(c)) for c in fp.x[k][i]]
                                + [repr(norm)])


_ESTIMATORS = {
    "filtered": lambda mc, cfg: filtered_expectation_check(
        mc, cfg.get("test_functions")),
    "bismut": lambda mc, cfg: bismut_gradient(
        mc, cfg.get("f", "x1"), eps=float(cfg.get("eps", 1e-4))),
    "moments": lambda mc, cfg: moment_sandwich(mc, p=float(cfg.get("p", 2.0))),
    "generator": lambda mc, cfg: generator_check(mc, cfg.get("f", "x1")),
    "oneform": lambda mc, cfg: one_form_semigroup_check(mc, cfg.get("phi")),
    "bochner": lambda mc, cfg: bochner_decay_check(mc),
    "decompose": lambda mc, cfg: decomposition_check(mc),
}


def cmd_estimate(cfg: dict) -> dict:
    check = cfg["check"]
    mc = _mc_config(cfg, check)
    report = _ESTIMATORS[check](mc, cfg).to_dict()
    report["command"] = "estimate"
    report["status"] = "passed" if report["passed"] else "failed"
    return report


def run_config(cfg: dict) -> dict:
    """Dispatch a validated config; returns the report dictionary."""
    command = cfg["command"]
    if command == "tensors":
        return cmd_tensors(cfg)
    if command == "verify":
        return cmd_verify(cfg)
    if command == "simulate":
        report, _, _ = cmd_simulate(cfg)
        return report
    return cmd_estimate(cfg)


# ---------------------------------------------------------------------------
# presentation
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _summary(report: dict) -> str:
    lines = []
    scen = report.get("scenario", {})
    name = scen.get("name", "?") if isinstance(scen, dict) else scen
    head = f"{report.get('command', report.get('check', '?'))} on {name}: " \
           f"{report.get('status', '?')}"
    lines.append(head)
    rows = report.get("rows") or report.get("identities") or []
    for r in rows:
        mark = "PASS" if r.get("passed") else "FAIL"
        if "estimate" in r:
            lines.append(f"  {mark}  {r['name']}: estimate={_fmt(r['estimate'])} "
                         f"se={_fmt(r['se'])} reference={_fmt(r['reference'])} "
                         f"tol={_fmt(r['tolerance'])} ({r['provenance']})")
        else:
            lines.append(f"  {mark}  {r['name']}: residual={_fmt(r['residual'])} "
                         f"tol={_fmt(r['tolerance'])} ({r['provenance']})")
    if report.get("command") == "tensors":
        for pt in report["points"]:
            gmax = float(np.max(np.abs(pt["gamma_lw"])))
            tmax = float(np.max(np.abs(pt["torsion"])))
            rmax = float(np.max(np.abs(pt["curvature_lw"])))
            lines.append(f"  {pt['chart']}:{[round(c, 4) for c in pt['x']]} "
                         f"|gamma|={gmax:.4g} |T|={tmax:.4g} |R|={rmax:.4g} "
                         f"h=[{pt['h_lo']:.4g}, {pt['h_hi']:.4g}]")
    if report.get("command") == "simulate":
        term = report["terminal"]
        lines.append(f"  alive={report['n_paths'] - report['n_dropped']}"
                     f"/{report['n_paths']} "
                     f"E|Jv0|={term['J_v0_norm_mean']:.6g} "
                     f"E|Wv0|={term['W_v0_norm_mean']:.6g} "
                     f"recon={report['reconstruction']['max_defect']:.3g}")
    if "flags" in report:
        lines.append("  flags: " + ", ".join(
            f"{k}={v}" for k, v in report["flags"].items()))
    if report.get("status") == "not_applicable":
        lines.append(f"  reason: {report.get('reason', '')}")
    return "\n".join(lines)


def _write_report(report: dict, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="flowgeom",
        description="Connections induced by SDE coefficients: tensor reports, "
                    "identity verification, simulation, Monte Carlo checks.")
    sub = parser.add_subparsers(dest="cli_command", required=True)
    for name in ("run",) + COMMANDS:
        sp = sub.add_parser(
            name,
            help="run the config's command" if name == "run"
            else f"run a {name} config")
        sp.add_argument("config", help="path to a JSON config")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--paths", type=int, dest="n_paths")
        sp.add_argument("--dt", type=float)
        sp.add_argument("--t", type=float, dest="t")
        sp.add_argument("--threads", type=int)
        sp.add_argument("--out", help="write the JSON report here")
        sp.add_argument("--dump-paths", dest="dump_paths",
                        help="write per-path CSV here")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # a fault of the program, not a failed check: exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _run(args) -> int:
    """The body of ``main``: run the config and return its exit code; an
    exception no handler here maps to a code reaches ``main``."""
    overrides = {k: getattr(args, k) for k in ("seed", "n_paths", "dt", "t", "threads")}
    try:
        cfg = load_config(args.config, overrides)
        if args.cli_command != "run" and cfg["command"] != args.cli_command:
            raise ConfigError(
                f"config says command={cfg['command']!r} but the "
                f"{args.cli_command!r} subcommand was invoked")
        out = args.out or cfg.get("out")
        dump = args.dump_paths or cfg.get("dump_paths")

        if cfg["command"] == "simulate":
            report, res, v0 = cmd_simulate(cfg)
            if dump:
                _dump_paths_csv(dump, _build_system(cfg), res, v0)
        else:
            report = run_config(cfg)
            if dump and cfg["command"] == "estimate":
                mc = _mc_config(cfg, cfg["check"])
                cid, x0 = mc.start()
                res = simulate(mc.system, t=mc.t, dt=mc.dt, n_paths=mc.n_paths,
                               seed=mc.seed, x0=x0, cid=cid, threads=mc.threads,
                               need=_DUMP_NEEDS)
                _dump_paths_csv(dump, mc.system, res, _resolve_v0(mc, res))
    except (ConfigError, BadParams, UnknownScenario, ExprError, DegenerateX) as exc:
        # DegenerateX: X loses rank at a point the config names or samples
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NotApplicable as exc:
        report = {
            "command": cfg.get("command"),
            "scenario": cfg.get("scenario"),
            "status": "not_applicable",
            "reason": str(exc),
        }
        _write_report(report, args.out or cfg.get("out"))
        print(_summary(report))
        return 0
    except TooFewAlivePaths as exc:
        report = {
            "command": cfg.get("command"),
            "scenario": cfg.get("scenario"),
            "status": "failed",
            "reason": str(exc),
        }
        _write_report(report, args.out or cfg.get("out"))
        print(_summary(report))
        return 1
    except FlowgeomError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3

    _write_report(report, out)
    print(_summary(report))
    return 0 if report["status"] == "passed" else 1


if __name__ == "__main__":
    sys.exit(main())
