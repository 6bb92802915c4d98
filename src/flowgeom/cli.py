"""Batch front end: validate a JSON config, dispatch, emit reports.

One run = one JSON config naming a command (tensors, verify, simulate,
estimate) plus a scenario block and numeric parameters.  The config is
validated against the packaged schema (``schemas/config.schema.json``, JSON
Schema 2020-12) by ``flowgeom.schema`` before anything executes, so the
front end needs no schema library; a few scalar fields can be overridden
from the command line for convenience.
Reports go to --out as JSON, a summary table goes to stdout, and bulk
per-path data goes to --dump-paths as CSV.

Exit codes: 0 when every requested check passes (a check whose
preconditions fail reports not_applicable and still exits 0), 1 on a
check failure, 2 on a config error (including a start chart the scenario
lacks, or a probe point of the wrong length, in a chart the scenario lacks,
or where X loses rank; an all-zero v0; a test function or 1-form whose
expression uses a variable beyond its dimension, refused before any
run), 3 on a runtime or numeric error or on any other
exception (reported as an internal error, without a traceback).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from functools import cache
from importlib import resources

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
    _FILTERED_NEEDS,
    McConfig,
    _resolve_v0,
    _simulate,
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
    _g_frame_eigvalsh,
    _induced_gamma,
    _metricity_residuals,
    adjoint_christoffel,
    connection_routes_residual,
    curvature_from_christoffel,
    defining_property_residual,
    geometry_point,
    moment_form_extremes,
    pairing_derivative_residual,
    ricci_bilinear,
    ricci_sharp,
    scalar_from_expr,
    scalar_generator,
    stratonovich_term,
    torsion_via_bracket,
    torsion_via_dy,
    tss_check,
)
from .model import _stack_points, build_scenario
from .schema import Validator
from .stochastic import BLOCK, _step_count

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


@cache
def _validator() -> Validator:
    """The packaged config schema, read and checked once per process."""
    path = resources.files("flowgeom") / "schemas" / "config.schema.json"
    return Validator(json.loads(path.read_text()))


def load_config(path: str, overrides: dict | None = None) -> dict:
    """Read, apply command-line overrides, and schema-validate.  Every
    integer-typed field comes back as an ``int``, also when the file writes
    it as a float such as ``2.0`` (an integer under the schema)."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if overrides:
        cfg = {**cfg, **{k: v for k, v in overrides.items() if v is not None}}
    validator = _validator()
    error = validator.first_error(cfg)
    if error is not None:
        where, message = error
        raise ConfigError(f"config {path!r} invalid at {where}: {message}")
    integer = {k for k, s in validator.schema["properties"].items() if s.get("type") == "integer"}
    return {k: int(v) if k in integer else v for k, v in cfg.items()}


def _build_system(cfg: dict):
    block = cfg["scenario"]
    return build_scenario(block["name"], block.get("params")).system


def _probe_points(system, cfg: dict, default_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """The config's ``points`` (checked against the scenario), then the start
    point and ``n_probes`` sampled points, as one batch: the chart names
    ``(P,)`` and the points ``(P, n)``, in that order."""
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
        pts.append((cid, system.check_vector(f"points[{k}].x", x)))
    n_extra = cfg.get("n_probes", default_samples if not pts else 0)
    if n_extra or not pts:
        rng = np.random.default_rng(cfg.get("seed", 0))
        pts = pts + [system.start()] + system.sample_points(rng, n_extra)
    return _stack_points(pts)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_tensors(cfg: dict) -> dict:
    t0 = time.perf_counter()
    system = _build_system(cfg)
    p = float(cfg.get("p", 2.0))
    charts, xs = _probe_points(system, cfg, default_samples=4)
    pd = geometry_point(system, charts, xs)
    h_lo, h_hi = moment_form_extremes(pd, p)
    entries = []
    for row, (cid, x) in enumerate(zip(charts, xs)):
        entries.append({
            "chart": str(cid),
            "x": x.tolist(),
            "g": pd.g[row].tolist(),
            "ginv": pd.ginv[row].tolist(),
            "gamma_lw": pd.gamma[row].tolist(),
            "gamma_adjoint": pd.gamma_adj[row].tolist(),
            "gamma_lc": pd.gamma_lc[row].tolist(),
            "torsion": pd.torsion[row].tolist(),
            "curvature_lw": pd.curvature_lw[row].tolist(),
            "ric_sharp_lw": pd.ric_sharp[row].tolist(),
            "ricci_lw": pd.ricci_lw[row].tolist(),
            "h_lo": float(h_lo[row]),
            "h_hi": float(h_hi[row]),
        })
    return {
        "command": "tensors",
        "scenario": cfg["scenario"],
        "status": "passed",
        "index_convention": INDEX_CONVENTION,
        "p": p,
        "points": entries,
        "wall_time": time.perf_counter() - t0,
    }


def _identity_row(name: str, residual: float, tolerance: float, *,
                  passed: bool | None = None, note: str | None = None, **extra) -> dict:
    """One row of the ``verify`` report, its keys in report order: ``extra``
    (the tss row's ``alt_residual``) follows the residual.  The row passes
    when ``residual < tolerance`` unless ``passed`` says otherwise."""
    row = {"name": name, "residual": residual, **extra, "tolerance": tolerance,
           "provenance": "derived-oracle",
           "passed": residual < tolerance if passed is None else passed}
    if note is not None:
        row["note"] = note
    return row


def cmd_verify(cfg: dict) -> dict:
    """Geometry identity suite: max residual per identity over probe points.

    Each identity is evaluated once, on all probe points as one batch with
    one chart per point.  The identities take one ``PointData`` on that
    batch, so the op computes each of its fields, the Levi-Civita field
    among them, at most once there; the tss row takes a second one at the
    start point.  The oracle's Jacobian of X is taken once on the batch too:
    the ``coeff_dx`` row reads it, and so do the induced Christoffels built
    from it as ``lw_christoffel`` builds them, for the curvature route and
    both metricity rows, which also share their probe derivatives.
    """
    t0 = time.perf_counter()
    system = _build_system(cfg)
    cid, xs = _probe_points(system, cfg, default_samples=8)
    f = scalar_from_expr(system, cid, cfg.get("f", "x1"))  # a bad f exits before any geometry
    # two (v1, v2) bracket pairs per point, drawn in probe order
    brackets = np.random.default_rng(cfg.get("seed", 0) + 1).normal(
        size=(len(xs), 2, 2, system.n))

    def _max_abs(a: np.ndarray) -> np.ndarray:
        """max |a| per point: over every axis but the first."""
        return np.max(np.abs(a).reshape(len(a), -1), axis=-1)

    def _rel_gap(exact: np.ndarray, fd: np.ndarray) -> np.ndarray:
        """max |exact - fd| per point, relative to the larger one's largest entry."""
        scale = np.maximum(_max_abs(fd), _max_abs(exact))
        return _max_abs(exact - fd) / np.where(scale > 0.0, scale, 1.0)

    pd = geometry_point(system, cid, xs)
    T = pd.torsion
    v1, v2 = brackets[:, :, 0], brackets[:, :, 1]  # (P, 2, n)
    tb = torsion_via_bracket(system, cid[:, None], xs[:, None, :], v1, v2)
    dx_fd = system.oracle.jacobian(lambda y: system.coeff_x(cid, y), xs)
    gamma_lw = _induced_gamma(dx_fd, pd.Y)
    R = curvature_from_christoffel(system, cid, xs, kind="lw", gamma=gamma_lw)
    metricity_lw, metricity_adjoint = _metricity_residuals(
        pd, [gamma_lw, adjoint_christoffel(gamma_lw)])
    lw_val, lc_val = scalar_generator(pd, f)
    s = stratonovich_term(pd)
    # per identity, the largest residual over the probe points
    worst = {k: float(np.max(r)) for k, r in {
        # the engine's DX and DA (coeff_dx, coeff_da) against the oracle's
        "coeff_dx": _rel_gap(pd.DX, dx_fd),
        "coeff_da": _rel_gap(
            system.coeff_da(cid, xs),
            system.oracle.jacobian(lambda y: system.coeff_a(cid, y), xs)),
        "defining_property": defining_property_residual(pd),
        "metricity_lw": metricity_lw,
        "metricity_adjoint": metricity_adjoint,
        "pairing_derivative": pairing_derivative_residual(pd),
        "christoffel_routes": connection_routes_residual(pd),
        "torsion_routes": np.maximum(
            _max_abs(T - torsion_via_dy(system, cid, xs)),
            _max_abs(tb - np.einsum("...ijk,...j,...k->...i", T[:, None], v1, v2))),
        "curvature_routes": _max_abs(R - pd.curvature_lw),
        "generator_routes": np.abs(lw_val - lc_val),
        "stratonovich_lw": np.sqrt(np.einsum("...i,...ij,...j->...", s, pd.g, s)),
    }.items()}
    curvature_max = float(np.max(np.abs(R)))
    gamma_gap = float(np.max(np.abs(pd.gamma - pd.gamma_lc)))

    # Levi-Civita Ricci minus induced Ricci, eigenvalues in a g-frame
    R_lc = curvature_from_christoffel(system, cid, xs, kind="lc", gamma=pd.gamma_lc)
    ric_diff = ricci_bilinear(ricci_sharp(R_lc, pd.ginv), pd.g) - pd.ricci_lw
    ric_diff = 0.5 * (ric_diff + np.swapaxes(ric_diff, -1, -2))
    eigs = _g_frame_eigvalsh(ric_diff, pd.g)
    ricci_min_eig = float(eigs.min())
    ricci_max_abs = float(np.max(np.abs(eigs)))

    tss, tss_res, tss_alt = tss_check(geometry_point(system, *system.start()))
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
    rows = [_identity_row(k, worst[k], tol) for k, tol in tolerances.items()]
    if tss:
        # the transpose-coefficient connection is metric only on these scenarios
        rows.append(_identity_row("metricity_adjoint", worst["metricity_adjoint"], 1e-6))
        rows.append(_identity_row(
            "ricci_comparison_psd", -min(ricci_min_eig, 0.0), 1e-6,
            passed=ricci_min_eig >= -1e-6,
            note="eigenvalues of Ric_lc - Ric_lw stay nonnegative"))
    if lw_equals_lc:
        rows.append(_identity_row("ricci_comparison_zero", ricci_max_abs, 1e-6,
                                  note="induced = Levi-Civita forces equal Ricci"))
    rows.append(_identity_row("coeff_dx", worst["coeff_dx"], 1e-6,
                              note="coeff_dx vs finite-difference DX, largest gap "
                                   "relative to the largest entry, per point"))
    rows.append(_identity_row(
        "tss", float(tss_res), TSS_TOL, alt_residual=float(tss_alt),
        passed=bool(tss) == bool(tss_alt < TSS_TOL),
        note="the torsion route (residual) and the Levi-Civita route "
             "(alt_residual) agree on whether the torsion is skew-symmetric"))
    # appended last, so every other row keeps its index in the list
    rows.append(_identity_row("coeff_da", worst["coeff_da"], 1e-6,
                              note="coeff_da vs finite-difference DA, largest gap "
                                   "relative to the largest entry, per point"))

    ok = all(r["passed"] for r in rows)
    return {
        "command": "verify",
        "scenario": cfg["scenario"],
        "status": "passed" if ok else "failed",
        "n_points": len(xs),
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
    """The horizon and step of a check whose own differ from McConfig's."""
    if check in ("generator", "oneform"):
        return {"t": 0.01, "dt": 1e-3}
    if check == "bochner":
        return {"t": 2.0, "dt": 1e-2}
    if check == "decompose":
        return {"t": 1.0, "dt": 1e-3}
    if check == "moments":
        return {"t": 1.0, "dt": 1e-2}
    return {}


def _mc_config(cfg: dict, check: str = "") -> McConfig:
    """McConfig's defaults, then the check's horizon and step, then what the
    config sets, converted so that a JSON ``"t": 1`` reads 1.0."""
    kw = _mc_defaults(check)
    for key, conv in (("t", float), ("dt", float), ("n_paths", int), ("seed", int),
                      ("threads", int), ("k_se", float)):
        if key in cfg:
            kw[key] = conv(cfg[key])
    return McConfig(
        system=_build_system(cfg),
        cid=cfg.get("chart"),
        x0=np.asarray(cfg["x0"], dtype=float) if "x0" in cfg else None,
        v0=np.asarray(cfg["v0"], dtype=float) if "v0" in cfg else None,
        **kw,
    )


def cmd_simulate(cfg: dict):
    t0 = time.perf_counter()
    mc = _mc_config(cfg)
    at = ()
    if cfg.get("record", False):
        # a recorded run keeps a copy of every field at every step
        if mc.n_paths > BLOCK:
            raise BadParams(f"record keeps every step of every path and supports at "
                            f"most {BLOCK} paths, got n_paths={mc.n_paths}")
        at = range(_step_count(mc.t, mc.dt) + 1)
    res = _simulate(mc, _FILTERED_NEEDS | {"recon_err"}, at=at)  # what the report and CSV read
    alive = res.alive
    n_alive = int(alive.sum())
    if n_alive < 2:  # the terminal standard error needs two paths
        raise TooFewAlivePaths(f"only {n_alive} of {res.n_paths} paths alive at "
                               f"t={res.t}; simulate needs at least 2")
    v0 = _resolve_v0(mc, res)
    jv = res.J[alive] @ v0
    wv = res.W()[alive] @ v0
    j_norm = np.sqrt(np.einsum("pi,pij,pj->p", jv, res.g_T[alive], jv))
    w_norm = np.sqrt(np.einsum("pi,pij,pj->p", wv, res.g_T[alive], wv))
    emb = res.embedded[alive]
    recon = float(np.max(res.recon_err[alive]))
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


def _dump_paths_csv(path: str, res, v0: np.ndarray) -> None:
    """Terminal per-path rows; with snapshots, one row per path and snapshot."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        n = res.x.shape[-1]
        if not res.snapshots:
            wr.writerow(["path", "chart", "alive"]
                        + [f"x{k + 1}" for k in range(n)]
                        + ["J_v0_norm", "W_v0_norm"])
            jv = res.J @ v0
            wv = res.W() @ v0
            jn = np.sqrt(np.einsum("pi,pij,pj->p", jv, res.g_T, jv))
            wn = np.sqrt(np.einsum("pi,pij,pj->p", wv, res.g_T, wv))
            for i in range(res.n_paths):
                wr.writerow([i, res.cid[i], int(res.alive[i])]
                            + [repr(float(c)) for c in res.x[i]]
                            + [repr(float(jn[i])), repr(float(wn[i]))])
        else:
            wr.writerow(["path", "step", "time", "chart", "alive"]
                        + [f"x{k + 1}" for k in range(n)] + ["W_v0_norm"])
            for snap in res.snapshots:
                wk = snap.par_adj @ snap.What @ v0
                for i in range(res.n_paths):
                    norm = float(np.sqrt(max(wk[i] @ snap.g_T[i] @ wk[i], 0.0)))
                    wr.writerow([i, snap.steps, repr(snap.t),
                                 snap.cid[i], int(snap.alive[i])]
                                + [repr(float(c)) for c in snap.x[i]]
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
    if "terminal" in report:
        term = report["terminal"]
        lines.append(f"  alive={report['n_paths'] - report['n_dropped']}"
                     f"/{report['n_paths']} "
                     f"E|Jv0|={term['J_v0_norm_mean']:.6g} "
                     f"E|Wv0|={term['W_v0_norm_mean']:.6g} "
                     f"recon={report['reconstruction']['max_defect']:.3g}")
    if "flags" in report:
        lines.append("  flags: " + ", ".join(
            f"{k}={v}" for k, v in report["flags"].items()))
    if "reason" in report:
        lines.append(f"  reason: {report['reason']}")
    return "\n".join(lines)


def _write_report(report: dict, out: str | None) -> None:
    """Write ``report`` as strict JSON: a non-finite number raises
    ``ValueError`` (an internal error) before the file is opened."""
    if out:
        text = json.dumps(report, indent=2, allow_nan=False)
        with open(out, "w") as fh:
            fh.write(text + "\n")


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
                _dump_paths_csv(dump, res, v0)
        else:
            report = run_config(cfg)
            if dump and cfg["command"] == "estimate":
                mc = _mc_config(cfg, cfg["check"])
                res = _simulate(mc, _FILTERED_NEEDS)
                _dump_paths_csv(dump, res, _resolve_v0(mc, res))
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
