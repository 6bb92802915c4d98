"""Config-driven entry point: schema gate, commands, exit codes, reports."""

import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

import flowgeom.cli as cli
from flowgeom.cli import main
from flowgeom.geometry import geometry_point, moment_form_extremes, point_data


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run(tmp_path, cfg, *flags, sub=None):
    path = write_cfg(tmp_path, "cfg.json", cfg)
    out = str(tmp_path / "report.json")
    code = main([sub or cfg["command"], path, "--out", out, *flags])
    report = None
    if (tmp_path / "report.json").exists():
        report = json.loads((tmp_path / "report.json").read_text())
    return code, report


# ----------------------------------------------------------- config gate


def test_packaged_schema_is_valid_draft_2020_12():
    packaged = (resources.files("flowgeom") / "schemas"
                / "config.schema.json").read_text()
    jsonschema.Draft202012Validator.check_schema(json.loads(packaged))


def test_missing_config_file(tmp_path):
    assert main(["verify", str(tmp_path / "absent.json")]) == 2


def test_unparseable_config(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["verify", str(p)]) == 2


def test_missing_scenario_field(tmp_path, capsys):
    code, _ = run(tmp_path, {"command": "verify"})
    assert code == 2
    assert "scenario" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    code, _ = run(tmp_path, {"command": "verify",
                             "scenario": {"name": "flat"},
                             "n_probess": 3})
    assert code == 2
    assert "n_probess" in capsys.readouterr().err


def test_unknown_scenario_name(tmp_path):
    code, _ = run(tmp_path, {"command": "verify",
                             "scenario": {"name": "moebius"}})
    assert code == 2


def test_too_few_paths_rejected(tmp_path):
    code, _ = run(tmp_path, {"command": "estimate", "check": "decompose",
                             "scenario": {"name": "flat"}, "n_paths": 10})
    assert code == 2


def test_flag_override_is_validated(tmp_path):
    cfg = {"command": "estimate", "check": "decompose",
           "scenario": {"name": "flat"}, "n_paths": 200,
           "t": 0.1, "dt": 1e-2}
    code, _ = run(tmp_path, cfg, "--paths", "10")
    assert code == 2


def test_seed_beyond_64_bits_rejected(tmp_path, capsys):
    cfg = {"command": "estimate", "check": "generator",
           "scenario": {"name": "flat"}, "n_paths": 200, "seed": 2**64}
    code, _ = run(tmp_path, cfg)
    assert code == 2
    assert "$.seed" in capsys.readouterr().err
    # the command-line override goes through the same schema gate
    code, _ = run(tmp_path, dict(cfg, seed=0), "--seed", str(2**64))
    assert code == 2
    assert "$.seed" in capsys.readouterr().err


def test_x0_of_wrong_length_rejected(tmp_path, capsys):
    code, _ = run(tmp_path, {"command": "estimate", "check": "generator",
                             "scenario": {"name": "flat", "params": {"n": 2}},
                             "n_paths": 200, "x0": [0.0, 0.0, 0.0]})
    assert code == 2
    assert "x0 has shape (3,)" in capsys.readouterr().err


def test_v0_of_wrong_length_rejected(tmp_path, capsys):
    # generator never reads v0; a wrong one must still be refused up front
    code, _ = run(tmp_path, {"command": "estimate", "check": "generator",
                             "scenario": {"name": "flat", "params": {"n": 2}},
                             "n_paths": 200, "v0": [1.0, 0.0, 0.0]})
    assert code == 2
    assert "v0 has shape (3,)" in capsys.readouterr().err


def test_subcommand_must_match_config(tmp_path):
    code, _ = run(tmp_path, {"command": "verify",
                             "scenario": {"name": "flat"}}, sub="tensors")
    assert code == 2


def test_estimate_requires_check(tmp_path):
    code, _ = run(tmp_path, {"command": "estimate",
                             "scenario": {"name": "flat"}})
    assert code == 2


# --------------------------------------------------------------- tensors


def test_tensors_flat_all_zero(tmp_path):
    code, rep = run(tmp_path, {
        "command": "tensors", "scenario": {"name": "flat", "params": {"n": 2}},
        "points": [{"x": [0.3, -0.5]}],
    })
    assert code == 0
    assert "index_convention" in rep
    pt = rep["points"][0]
    assert np.max(np.abs(pt["gamma_lw"])) == 0.0
    assert np.max(np.abs(pt["curvature_lw"])) == 0.0
    assert np.max(np.abs(pt["ricci_lw"])) == 0.0
    np.testing.assert_allclose(pt["g"], np.eye(2))


def test_tensors_sphere_ricci_equals_metric(tmp_path):
    code, rep = run(tmp_path, {
        "command": "tensors",
        "scenario": {"name": "sphere-gradient", "params": {"n": 2}},
        "points": [{"chart": "n", "x": [0.4, 0.1]}],
    })
    assert code == 0
    pt = rep["points"][0]
    np.testing.assert_allclose(pt["ricci_lw"], pt["g"], atol=1e-6)
    # p = 2 moment form degenerates on this scenario
    assert abs(pt["h_lo"]) < 1e-8 and abs(pt["h_hi"]) < 1e-8


def test_tensors_default_probes(tmp_path):
    code, rep = run(tmp_path, {
        "command": "tensors", "scenario": {"name": "so3-left-invariant"},
    })
    assert code == 0
    assert len(rep["points"]) == 5  # start plus four samples


@pytest.mark.parametrize("name,params", [
    ("sphere-gradient", {"n": 2}),
    ("so3-left-invariant", {}),
    ("custom", {"n": 2, "m": 3,
                "x_entries": [["cos(x1)", "sin(x1)*x2", "0.3"],
                              ["0.2*x1", "cos(x2)", "sin(x2)"]],
                "a_entries": ["-0.5*x1", "-0.5*sin(x2)"]}),
])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_tensors_batch_equals_per_point_reports(name, params, p):
    # one batch per chart, scattered back in probe order, is bit for bit the
    # report of each point on its own
    scenario = {"name": name, "params": params}
    cfg = {"command": "tensors", "scenario": scenario, "n_probes": 5, "seed": 4, "p": p}
    rep = cli.run_config(cfg)
    system = cli._build_system(cfg)
    points = cli._probe_points(system, cfg, default_samples=4)
    assert len(rep["points"]) == len(points) == 6
    for (cid, x), pt in zip(points, rep["points"]):
        gp = geometry_point(system, cid, x)
        h_lo, h_hi = moment_form_extremes(point_data(system, cid, x), p)
        want = {"chart": cid, "x": x.tolist(), "h_lo": float(h_lo), "h_hi": float(h_hi),
                **{k: getattr(gp, k).tolist() for k in (
                    "g", "ginv", "gamma_lw", "gamma_adjoint", "gamma_lc", "torsion",
                    "curvature_lw", "ric_sharp_lw", "ricci_lw")}}
        assert pt == want


def test_tensors_degenerate_point_in_a_batch_is_named(tmp_path, capsys):
    code, _ = run(tmp_path, {
        "command": "tensors",
        "scenario": {"name": "custom",
                     "params": {"n": 1, "m": 2, "x_entries": [["x1", "0"]]}},
        "points": [{"x": [0.5]}, {"x": [0.0]}, {"x": [0.7]}],
    })
    assert code == 2
    err = capsys.readouterr().err
    assert "X loses rank at u:[0.]" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["tensors", "verify"])
def test_probe_point_of_wrong_length_rejected(tmp_path, capsys, command):
    code, _ = run(tmp_path, {
        "command": command, "scenario": {"name": "flat", "params": {"n": 2}},
        "points": [{"x": [0.1, 0.2]}, {"x": [0.1, 0.2, 0.3]}],
    })
    assert code == 2
    err = capsys.readouterr().err
    assert "points[1].x must have 2 entries, got 3" in err and "Traceback" not in err


def test_probe_point_in_an_unknown_chart_rejected(tmp_path, capsys):
    code, _ = run(tmp_path, {
        "command": "tensors", "scenario": {"name": "sphere-gradient", "params": {"n": 2}},
        "points": [{"chart": "north", "x": [0.1, 0.2]}],
    })
    assert code == 2
    err = capsys.readouterr().err
    assert "has no chart 'north'" in err and "Traceback" not in err


@pytest.mark.parametrize("name, params, charts", [
    ("sphere-gradient", {"n": 2}, "n, s"),
    ("flat", {"n": 2}, "u"),
], ids=["sphere-gradient", "flat"])
@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_start_chart_the_scenario_lacks_rejected(tmp_path, capsys, command, name, params,
                                                 charts):
    cfg = {"command": command, "scenario": {"name": name, "params": params},
           "chart": "q", "n_paths": 100, "t": 0.1, "threads": 1}
    if command == "estimate":
        cfg["check"] = "filtered"
    code, _ = run(tmp_path, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert f"scenario {name!r} has no chart 'q'; its charts are {charts}" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------- verify


def test_verify_sphere(tmp_path):
    code, rep = run(tmp_path, {
        "command": "verify",
        "scenario": {"name": "sphere-gradient", "params": {"n": 2}},
        "n_probes": 4,
    })
    assert code == 0
    assert rep["status"] == "passed"
    assert rep["flags"]["lw_equals_lc"] is True
    assert rep["flags"]["tss"] is True
    assert all(row["passed"] for row in rep["identities"])


def test_verify_so3(tmp_path):
    code, rep = run(tmp_path, {
        "command": "verify", "scenario": {"name": "so3-left-invariant"},
        "n_probes": 4,
    })
    assert code == 0
    assert rep["flags"]["lw_equals_lc"] is False
    assert rep["flags"]["tss"] is True
    assert rep["flags"]["curvature_zero"] is True
    names = [row["name"] for row in rep["identities"]]
    assert "metricity_adjoint" in names
    assert "ricci_comparison_psd" in names
    assert "ricci_comparison_zero" not in names


def test_verify_twisted_plane(tmp_path):
    code, rep = run(tmp_path, {
        "command": "verify",
        "scenario": {"name": "twisted-plane", "params": {"alpha": 0.5}},
        "n_probes": 4,
    })
    assert code == 0
    assert rep["status"] == "passed"
    assert rep["flags"]["lw_equals_lc"] is False
    assert rep["flags"]["tss"] is False


VERIFY_SCENARIOS = [
    ("flat", {"n": 2, "drift": ["-x1", "-x2"]}),
    ("sphere-gradient", {"n": 2}),
    ("sphere-gradient", {"n": 3}),
    ("so3-left-invariant", {}),
    ("twisted-plane", {"alpha": 0.5}),
    ("circle", {}),
    ("custom", {"n": 2, "m": 3,
                "x_entries": [["cos(x1)", "sin(x1)*x2", "0.3"],
                              ["0.2*x1", "cos(x2)", "sin(x2)"]]}),
]


@pytest.mark.parametrize("name,params", VERIFY_SCENARIOS)
def test_verify_cross_checks_coeff_dx_and_both_tss_routes(name, params):
    rep = cli.run_config({"command": "verify", "scenario": {"name": name, "params": params},
                          "n_probes": 4, "seed": 3})
    assert rep["status"] == "passed"
    rows = {row["name"]: row for row in rep["identities"]}
    assert rows["coeff_dx"]["passed"] and rows["coeff_dx"]["residual"] < 1e-6
    tss = rows["tss"]
    assert tss["passed"]
    assert (tss["residual"] < 1e-6) == (tss["alt_residual"] < 1e-6) == rep["flags"]["tss"]
    assert rep["flags"]["tss_alt_residual"] == tss["alt_residual"]


def test_verify_fails_when_the_tss_routes_disagree(monkeypatch):
    monkeypatch.setattr(cli, "tss_check", lambda *a, **k: (True, 0.0, 0.5))
    rep = cli.run_config({"command": "verify", "scenario": {"name": "flat"},
                          "n_probes": 2})
    rows = {row["name"]: row for row in rep["identities"]}
    assert not rows["tss"]["passed"]
    assert rep["status"] == "failed"


# -------------------------------------------------------------- simulate


def test_simulate_with_path_dump(tmp_path):
    cfg = {"command": "simulate",
           "scenario": {"name": "sphere-gradient", "params": {"n": 2}},
           "t": 0.2, "dt": 1e-2, "n_paths": 120, "seed": 7}
    path = write_cfg(tmp_path, "sim.json", cfg)
    out = str(tmp_path / "sim_report.json")
    csv_path = tmp_path / "paths.csv"
    code = main(["simulate", path, "--out", out, "--dump-paths", str(csv_path)])
    assert code == 0
    rep = json.loads((tmp_path / "sim_report.json").read_text())
    assert rep["status"] == "passed"
    assert rep["reconstruction"]["max_defect"] <= 1e-10
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["path", "chart", "alive"]
    assert len(lines) == 121


def test_simulate_recorded_dump(tmp_path):
    cfg = {"command": "simulate", "scenario": {"name": "circle"},
           "t": 0.05, "dt": 1e-2, "n_paths": 100, "seed": 1, "record": True}
    path = write_cfg(tmp_path, "rec.json", cfg)
    csv_path = tmp_path / "rec.csv"
    code = main(["simulate", path, "--dump-paths", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].split(",")[:5] == ["path", "step", "time", "chart", "alive"]
    assert len(lines) == 1 + 100 * 6  # header + paths x snapshots


# -------------------------------------------------------------- estimate


def test_estimate_decompose(tmp_path):
    code, rep = run(tmp_path, {
        "command": "estimate", "check": "decompose",
        "scenario": {"name": "sphere-gradient", "params": {"n": 2}},
        "t": 0.2, "dt": 1e-2, "n_paths": 200, "seed": 3,
    })
    assert code == 0
    assert rep["status"] == "passed"
    assert all("tolerance" in r and "provenance" in r for r in rep["rows"])


def test_estimate_dump_matches_full_run(tmp_path):
    # the dump after a check requests only what it writes; the CSV must be
    # the one a run with every companion process gives
    from flowgeom.cli import _dump_paths_csv, _mc_config
    from flowgeom.stochastic import simulate

    cfg = {"command": "estimate", "check": "oneform",
           "scenario": {"name": "sphere-gradient", "params": {"n": 2}},
           "x0": [1.9, 0.2], "t": 0.3, "dt": 1e-2, "n_paths": 120, "seed": 4,
           "threads": 1}
    dump = tmp_path / "paths.csv"
    run(tmp_path, cfg, "--dump-paths", str(dump))
    mc = _mc_config(cfg, "oneform")
    cid, x0 = mc.start()
    res = simulate(mc.system, t=mc.t, dt=mc.dt, n_paths=mc.n_paths, seed=mc.seed,
                   x0=x0, cid=cid)
    assert set(res.cid_idx.tolist()) == {0, 1}  # some paths switched charts
    full = tmp_path / "full.csv"
    _dump_paths_csv(str(full), mc.system, res, np.linalg.inv(res.L0).T[:, 0])
    assert dump.read_bytes() == full.read_bytes()


def test_estimate_dump_uses_config_v0(tmp_path):
    # a configured v0 is the vector the check uses, so the dump's W_v0 column
    # must follow it rather than the default frame vector
    from flowgeom.cli import _dump_paths_csv, _mc_config
    from flowgeom.stochastic import simulate

    cfg = {"command": "estimate", "check": "oneform",
           "scenario": {"name": "sphere-gradient", "params": {"n": 2}},
           "x0": [1.9, 0.2], "v0": [0.3, -1.2], "t": 0.3, "dt": 1e-2,
           "n_paths": 100, "seed": 4, "threads": 1}
    dump = tmp_path / "paths.csv"
    run(tmp_path, cfg, "--dump-paths", str(dump))
    mc = _mc_config(cfg, "oneform")
    cid, x0 = mc.start()
    res = simulate(mc.system, t=mc.t, dt=mc.dt, n_paths=mc.n_paths, seed=mc.seed,
                   x0=x0, cid=cid)
    full = tmp_path / "full.csv"
    _dump_paths_csv(str(full), mc.system, res, np.array([0.3, -1.2]))
    assert dump.read_bytes() == full.read_bytes()
    default = tmp_path / "default.csv"
    _dump_paths_csv(str(default), mc.system, res, np.linalg.inv(res.L0).T[:, 0])
    assert dump.read_bytes() != default.read_bytes()


def test_estimate_not_applicable_exits_zero(tmp_path):
    code, rep = run(tmp_path, {
        "command": "estimate", "check": "bochner",
        "scenario": {"name": "so3-left-invariant"},
        "t": 1.0, "dt": 1e-2, "n_paths": 200, "seed": 0,
    })
    assert code == 0
    assert rep["status"] == "not_applicable"
    assert rep["reason"]


def test_estimate_dead_paths_exit_one(tmp_path):
    code, rep = run(tmp_path, {
        "command": "estimate", "check": "filtered",
        "scenario": {"name": "flat",
                     "params": {"n": 2, "guard_radius": 0.5}},
        "t": 0.5, "dt": 1e-2, "n_paths": 200, "seed": 0,
    })
    assert code == 1
    assert rep["status"] == "failed"


def test_reports_reproducible_across_thread_counts(tmp_path):
    cfg = {"command": "estimate", "check": "moments",
           "scenario": {"name": "sphere-gradient", "params": {"n": 2}},
           "t": 0.3, "dt": 1e-2, "n_paths": 300, "seed": 5}
    reports = []
    for threads in ("1", "4"):
        code, rep = run(tmp_path, cfg, "--threads", threads)
        assert code == 0
        rep.pop("wall_time")
        reports.append(rep)
    assert reports[0] == reports[1]


def test_internal_error_exits_three_without_traceback(tmp_path, capsys, monkeypatch):
    def broken(cfg):
        raise RuntimeError("engine fell over")

    monkeypatch.setattr(cli, "run_config", broken)
    code, rep = run(tmp_path, {"command": "verify", "scenario": {"name": "flat"}})
    assert code == 3
    assert rep is None
    err = capsys.readouterr().err
    assert "internal error: RuntimeError: engine fell over" in err
    assert "Traceback" not in err


def test_unwritable_report_path_exits_three(tmp_path, capsys):
    path = write_cfg(tmp_path, "cfg.json", {"command": "verify",
                                            "scenario": {"name": "flat"},
                                            "n_probes": 2})
    code = main(["verify", path, "--out", str(tmp_path / "absent" / "report.json")])
    assert code == 3
    assert "internal error: FileNotFoundError" in capsys.readouterr().err


def test_run_subcommand_dispatches(tmp_path, capsys):
    code, rep = run(tmp_path, {
        "command": "verify", "scenario": {"name": "flat"}, "n_probes": 2,
    }, sub="run")
    assert code == 0
    assert "verify on flat: passed" in capsys.readouterr().out
