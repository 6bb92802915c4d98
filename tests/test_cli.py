"""Config-driven entry point: schema gate, commands, exit codes, reports."""

import copy
import json
import warnings
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import flowgeom.cli as cli
import flowgeom.estimators as estimators
import flowgeom.geometry as geometry
from flowgeom.cli import main
from flowgeom.geometry import geometry_point, moment_form_extremes, point_data
from flowgeom.schema import Validator


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


@pytest.mark.parametrize("head, entry, name", [
    ('"command": "estimate", "check": "decompose", "t": 0.01, "dt": 1e-3',
     '"x0": [Infinity, 0.0]', "x0"),
    ('"command": "estimate", "check": "oneform"', '"v0": [NaN, 1.0]', "v0"),
    ('"command": "tensors"', '"points": [{"x": [NaN, 0.0]}]', "points[0].x"),
], ids=["estimate-x0-infinite", "estimate-v0-nan", "tensors-point-nan"])
def test_non_finite_vector_exits_two(tmp_path, capsys, head, entry, name):
    # Python's JSON reader takes NaN and Infinity; the schema lets them pass
    p = tmp_path / "cfg.json"
    p.write_text('{%s, "scenario": {"name": "flat", "params": {"n": 2}}, '
                 '"n_paths": 100, %s}' % (head, entry))
    assert main(["run", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name}=") and "non-finite" in err
    assert "Warning" not in err and "Traceback" not in err


def test_abs_at_its_kink_keeps_the_check_outcome(tmp_path, capsys):
    # d|u| = sign(u) u' with sign(0) = 0, the central difference's value:
    # the run completes and its checks fail, exit 1, from the kink at x0 = 0
    code, report = run(tmp_path, {
        "command": "estimate", "check": "oneform", "n_paths": 200, "seed": 0,
        "scenario": {"name": "custom", "params": {
            "n": 2, "m": 2, "x_entries": [["1+abs(x1)", "0"], ["0", "1"]]}}})
    assert code == 1 and report["status"] == "failed"
    err = capsys.readouterr().err
    assert "error" not in err and "Traceback" not in err


def test_derivative_leaving_its_domain_is_a_runtime_error(tmp_path, capsys):
    # d sqrt(1 + x1) divides by zero at x1 = -1, where X itself evaluates
    code, _ = run(tmp_path, {
        "command": "estimate", "check": "oneform", "n_paths": 200, "seed": 0,
        "x0": [-1.0], "scenario": {"name": "custom", "params": {
            "n": 1, "m": 1, "x_entries": [["1+sqrt(1+x1)"]]}}})
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("runtime error: the derivative of x_entries[0][0] in x1 failed near")
    assert err.rstrip().endswith("division by zero")
    assert "Traceback" not in err


@pytest.mark.parametrize("entry", ["1e200*1e200 + x1", "1e200*x1*1e200 + 1"],
                         ids=["literals-only", "through-x1"])
def test_overflowing_entry_is_a_config_error(tmp_path, capsys, entry):
    # an overflow among literals alone is refused like one through x1, when
    # the scenario is built, with no numpy warning and no numeric error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, {"command": "tensors", "scenario": {
            "name": "custom", "params": {"n": 1, "m": 1, "x_entries": [[entry]]}}})
    assert code == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.startswith("config error: overflow: overflow encountered")


def test_faulting_constant_entry_is_a_config_error(tmp_path, capsys):
    # a constant entry whose evaluation faults is evaluated with the entries
    # that vary, so it fails where they would: when the scenario is built
    code, _ = run(tmp_path, {"command": "tensors", "scenario": {
        "name": "custom", "params": {"n": 2, "m": 2, "x_entries": [
            ["1 + x1*0", "log(0)"], ["0.2", "cos(x2)"]]}}})
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: log of a non-positive value")


def test_subcommand_must_match_config(tmp_path):
    code, _ = run(tmp_path, {"command": "verify",
                             "scenario": {"name": "flat"}}, sub="tensors")
    assert code == 2


def test_estimate_requires_check(tmp_path):
    code, _ = run(tmp_path, {"command": "estimate",
                             "scenario": {"name": "flat"}})
    assert code == 2


def _without_wall_time(report):
    if isinstance(report, dict):
        return {k: _without_wall_time(v) for k, v in report.items() if k != "wall_time"}
    if isinstance(report, list):
        return [_without_wall_time(v) for v in report]
    return report


FLAT2 = {"name": "flat", "params": {"n": 2}}


@pytest.mark.parametrize("cfg", [
    {"command": "verify", "scenario": FLAT2, "seed": 1, "n_probes": 2},
    {"command": "tensors", "scenario": FLAT2, "n_probes": 2},
    {"command": "estimate", "check": "decompose", "scenario": FLAT2, "seed": 1,
     "n_paths": 200, "threads": 2, "t": 0.01, "dt": 1e-3},
], ids=["verify", "tensors", "estimate"])
def test_integer_fields_written_as_floats_run_as_integers(tmp_path, cfg):
    # 2.0 is an integer under JSON Schema 2020-12, so the schema accepts it;
    # load_config hands the commands an int, and the report is the one of
    # the integer twin
    integers = [k for k in ("seed", "n_probes", "n_paths", "threads") if k in cfg]
    as_floats = {**cfg, **{k: float(cfg[k]) for k in integers}}
    loaded = cli.load_config(write_cfg(tmp_path, "floats.json", as_floats))
    assert all(type(loaded[k]) is int and loaded[k] == cfg[k] for k in integers)
    code, report = run(tmp_path, cfg)
    code_f, report_f = run(tmp_path, as_floats)
    assert code == code_f == 0
    assert _without_wall_time(report_f) == _without_wall_time(report)


SCHEMA = json.loads((resources.files("flowgeom") / "schemas" / "config.schema.json").read_text())

# valid configs that between them use every key of the schema
VALID_CONFIGS = [
    {"command": "estimate", "check": "oneform", "scenario": {"name": "flat", "params": {"n": 2}},
     "phi": {"d_of": "x1*x2"}, "n_paths": 200, "seed": 3, "threads": 1, "t": 0.1,
     "dt": 0.01, "k_se": 3.0, "x0": [0.1, 0.2], "v0": [1.0, 0.0], "chart": "u",
     "p": 2, "eps": 1e-4},
    {"command": "estimate", "check": "filtered",
     "scenario": {"name": "sphere-gradient", "params": {"n": 2}},
     "phi": {"components": ["x2", "x1"]}, "test_functions": ["x1", "x1*x2"], "f": "x1",
     "record": False, "out": "report.json", "dump_paths": "paths.csv"},
    {"command": "verify", "scenario": {"name": "flat"}, "n_probes": 3,
     "points": [{"x": [0.0, 1.0]}, {"chart": "n", "x": [0.5, -2]}]},
    {"command": "simulate", "scenario": {"name": "circle", "params": {}}, "record": True,
     "seed": 0},
    {"command": "tensors", "scenario": {"name": "so3-left-invariant", "params": {}}},
    {"command": "tensors", "scenario": {"name": "flat", "params": {
        "n": 2, "drift": ["-x1", "-x2"], "guard_radius": 10.0}}},
    {"command": "verify", "scenario": {"name": "twisted-plane", "params": {
        "alpha": 0.5, "guard_radius": 1e6}}},
    {"command": "tensors", "scenario": {"name": "custom", "params": {
        "n": 1, "m": 2, "x_entries": [["x1", "0.3"]], "a_entries": ["-x1"], "guard_radius": 5}}},
]

REPLACEMENTS = [
    None, True, False, 0, -1, 1, 1.0, 2.0, 0.5, 99, 100.0, 2**64, 1e20,
    float("nan"), float("inf"), -float("inf"), "", "x1", "estimate", "oneform",
    "circle", "custom", "twisted-plane", "sphere-gradient",
    [], [1.0], ["x1"], [["x1"]], [[1.0]], [{"x": [1.0]}], {}, {"x": []}, {"name": "flat"},
    {"n": 2}, {"alpha": 0.5},
    {"d_of": "x1"}, {"components": []}, {"d_of": 1}, {"d_of": "x1", "components": ["x1"]},
    {"components": ["x1"], "scale": 2},
]
# what a number is replaced by: out of range, non-finite, non-integer, another type
NUMBERS = [-1, 0, -0.0, 1e-300, 0.5, 1.0, 2.0, 99, 100, 100.5, 2**64 - 1, 2**64,
           1.8446744073709552e19, float("nan"), float("inf"), -float("inf"),
           True, False, "1", None, [1]]


def _nodes(value, path=()):
    """Every (path, value) of a config tree, the root first."""
    yield path, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(value, list):
        for k, v in enumerate(value):
            yield from _nodes(v, path + (k,))


def _mutated(cfg, data):
    """``cfg`` after one to three random edits: a key or item dropped, a
    key added (unknown, or a scenario parameter), or a value replaced by one
    of ``NUMBERS`` if it is a number and of ``REPLACEMENTS`` otherwise (a
    scenario name among them, so one scenario's params meet another's)."""
    cfg = copy.deepcopy(cfg)
    for _ in range(data.draw(hst.integers(1, 3))):
        path, node = data.draw(hst.sampled_from(list(_nodes(cfg))))
        edit = data.draw(hst.sampled_from(["drop", "add", "replace"]))
        if edit == "drop" and isinstance(node, (dict, list)) and node:
            del node[data.draw(hst.sampled_from(list(node.keys() if isinstance(node, dict)
                                                     else range(len(node)))))]
        elif edit == "add" and isinstance(node, dict):
            node[data.draw(hst.sampled_from(["n_probess", "zz", "x", "n", "alpha"]))] = 1
        elif edit == "replace":
            number = isinstance(node, (int, float)) and not isinstance(node, bool)
            new = copy.deepcopy(data.draw(hst.sampled_from(NUMBERS if number else REPLACEMENTS)))
            if not path:
                cfg = new
            else:
                parent = cfg
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = new
    return cfg


def _jsonschema_first_error(cfg):
    errors = sorted(jsonschema.Draft202012Validator(SCHEMA).iter_errors(cfg),
                    key=lambda e: list(e.absolute_path))
    return (errors[0].json_path, errors[0].message) if errors else None


def test_valid_configs_are_valid():
    for cfg in VALID_CONFIGS:
        assert _jsonschema_first_error(cfg) is None
        assert cli._validator().first_error(cfg) is None


@settings(max_examples=600, deadline=None)
@given(data=hst.data())
def test_schema_validator_agrees_with_jsonschema(data):
    # the in-package validator against jsonschema, the independent route:
    # the same verdict, the same first error path and the same message
    cfg = _mutated(data.draw(hst.sampled_from(VALID_CONFIGS)), data)
    assert cli._validator().first_error(cfg) == _jsonschema_first_error(cfg)


@pytest.mark.parametrize("schema", [
    {"type": "object", "patternProperties": {"^x": {"type": "number"}}},
    {"properties": {"a": {"type": "string", "format": "date"}}},
    {"oneOf": [{"type": "array", "uniqueItems": True}]},
    {"items": {"$ref": "#"}},
    {"additionalProperties": {"type": "number"}},
], ids=["patternProperties", "nested-format", "in-oneOf", "ref", "additional-as-schema"])
def test_schema_validator_refuses_what_it_does_not_implement(schema):
    with pytest.raises(ValueError, match="not supported"):
        Validator(schema)


@pytest.mark.parametrize("scenario, message", [
    ({"name": "twisted-plane", "params": {"alpha": "x"}},
     "$.scenario.params.alpha: 'x' is not of type 'number'"),
    ({"name": "flat", "params": {"n": 2.5}}, "$.scenario.params.n: 2.5 is not of type 'integer'"),
    ({"name": "flat", "params": {"n": True}},
     "$.scenario.params.n: True is not of type 'integer'"),
    ({"name": "circle", "params": {"bogus": 1}},
     "$.scenario.params: Additional properties are not allowed ('bogus' was unexpected)"),
    ({"name": "custom", "params": {"n": 1, "m": 1, "x_entries": [[0.3]]}},
     "$.scenario.params.x_entries[0][0]: 0.3 is not of type 'string'"),
    ({"name": "flat", "params": {"guard_radius": 0}},
     "$.scenario.params.guard_radius: 0 is less than or equal to the minimum of 0"),
], ids=["alpha-string", "n-fraction", "n-bool", "unknown-key", "entry-number",
        "guard-zero"])
def test_scenario_params_are_checked_by_the_schema(tmp_path, capsys, scenario, message):
    # each scenario's params have their own keys and types, read as the
    # scenario builders read them; anything else is a config error
    code, report = run(tmp_path, {"command": "tensors", "scenario": scenario})
    assert (code, report) == (2, None)
    assert f"invalid at {message}" in capsys.readouterr().err


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
    # one batch of every probe point, one chart per row, is bit for bit the
    # report of each point on its own
    scenario = {"name": name, "params": params}
    cfg = {"command": "tensors", "scenario": scenario, "n_probes": 5, "seed": 4, "p": p}
    rep = cli.run_config(cfg)
    system = cli._build_system(cfg)
    charts, xs = cli._probe_points(system, cfg, default_samples=4)
    assert len(rep["points"]) == len(charts) == len(xs) == 6
    if name == "sphere-gradient":
        assert set(charts) == {"n", "s"}
    for cid, x, pt in zip(charts, xs, rep["points"]):
        gp = geometry_point(system, cid, x)
        h_lo, h_hi = moment_form_extremes(point_data(system, cid, x), p)
        want = {"chart": cid, "x": x.tolist(),
                "g": gp.g.tolist(), "ginv": gp.ginv.tolist(),
                "gamma_lw": gp.gamma.tolist(), "gamma_adjoint": gp.gamma_adj.tolist(),
                "gamma_lc": gp.gamma_lc.tolist(), "torsion": gp.torsion.tolist(),
                "curvature_lw": gp.curvature_lw.tolist(),
                "ric_sharp_lw": gp.ric_sharp.tolist(), "ricci_lw": gp.ricci_lw.tolist(),
                "h_lo": float(h_lo), "h_hi": float(h_hi)}
        assert list(pt) == list(want)  # the report's key order
        assert pt == want


@pytest.mark.parametrize("command", ["tensors", "verify"])
def test_tensors_degenerate_point_in_a_batch_is_named(tmp_path, capsys, command):
    code, _ = run(tmp_path, {
        "command": command,
        "scenario": {"name": "custom",
                     "params": {"n": 1, "m": 2, "x_entries": [["x1", "0"]]}},
        "points": [{"x": [0.5]}, {"x": [0.0]}, {"x": [0.7]}],
    })
    assert code == 2
    err = capsys.readouterr().err
    assert "X loses rank at u:[0.]" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "simulate", "estimate"])
def test_degenerate_start_point_is_named(tmp_path, capsys, command):
    # X = (x1, 0) loses rank at the scenario's start point x1 = 0, which
    # verify's tss row and every engine run read
    cfg = {"command": command,
           "scenario": {"name": "custom",
                        "params": {"n": 1, "m": 2, "x_entries": [["x1", "0"]]}},
           "points": [{"x": [0.5]}, {"x": [0.7]}]}
    if command != "verify":
        cfg = {key: val for key, val in cfg.items() if key != "points"}
        cfg.update(n_paths=100, t=0.1, dt=1e-2)
    if command == "estimate":
        cfg["check"] = "decompose"
    code, _ = run(tmp_path, cfg)
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


def test_verify_ricci_rows_keep_their_margin_on_the_three_sphere():
    # both rows compare finite-difference Ricci tensors, so their residual is
    # rounding noise of X and g; it must stay well inside the 1e-6 tolerance,
    # or a change that only rounds differently could flip a verdict
    worst = {}
    for seed in range(12):
        rep = cli.run_config({
            "command": "verify", "n_probes": 12, "seed": seed,
            "scenario": {"name": "sphere-gradient", "params": {"n": 3}}})
        for row in rep["identities"]:
            if row["name"].startswith("ricci_comparison"):
                ratio = row["residual"] / row["tolerance"]
                worst[row["name"]] = max(worst.get(row["name"], 0.0), ratio)
    assert set(worst) == {"ricci_comparison_psd", "ricci_comparison_zero"}
    assert max(worst.values()) <= 0.5, worst


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
    ("custom", {"n": 2, "m": 3,
                "x_entries": [["cos(x1)", "sin(x1)*x2", "0.3"],
                              ["0.2*x1", "cos(x2)", "sin(x2)"]],
                "a_entries": ["-0.5*x1", "-0.5*sin(x2)"]}),
]


@pytest.mark.parametrize("name,params", VERIFY_SCENARIOS)
def test_verify_cross_checks_coeff_dx_and_both_tss_routes(name, params):
    rep = cli.run_config({"command": "verify", "scenario": {"name": name, "params": params},
                          "n_probes": 4, "seed": 3})
    assert rep["status"] == "passed"
    rows = {row["name"]: row for row in rep["identities"]}
    assert rows["coeff_dx"]["passed"] and rows["coeff_dx"]["residual"] < 1e-6
    # coeff_da is the last row on every scenario, and compares zeros without drift
    da = rep["identities"][-1]
    assert da["name"] == "coeff_da" and da["provenance"] == "derived-oracle"
    assert da["passed"] and da["residual"] < da["tolerance"] == 1e-6
    if "drift" not in params and "a_entries" not in params:
        assert da["residual"] == 0.0
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


# the scenarios of the benchmark's verify-all workload
VERIFY_ALL = [
    ("flat", {"n": 2, "drift": ["-x1", "-x2"]}),
    ("sphere-gradient", {"n": 3}),
    ("so3-left-invariant", {}),
    ("twisted-plane", {"alpha": 0.5}),
    ("circle", {}),
    ("custom", {"n": 2, "m": 3,
                "x_entries": [["cos(x1)", "sin(x1)*x2", "0.3"],
                              ["0.2*x1", "cos(x2)", "sin(x2)"]],
                "a_entries": ["-0.5*x1", "-0.5*sin(x2)"]}),
]


@pytest.mark.parametrize("name,params", VERIFY_ALL, ids=[s[0] for s in VERIFY_ALL])
def test_each_op_computes_its_point_data_and_levi_civita_field_once(name, params,
                                                                     monkeypatch):
    # the shape of x at every point_data, levi_civita_christoffel and
    # lw_christoffel call, wherever the op looks one up
    shapes = {"point_data": [], "levi_civita_christoffel": [], "lw_christoffel": []}
    for fn, seen in shapes.items():
        inner = getattr(geometry, fn)

        def wrapped(system, cid, x, *a, _inner=inner, _seen=seen, **k):
            _seen.append(np.shape(x))
            return _inner(system, cid, x, *a, **k)

        for module in (geometry, cli):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, wrapped)
    scenario = {"name": name, "params": params}
    n = cli._build_system({"scenario": scenario}).n
    probes = (5, n)  # the start point and 4 sampled ones

    cli.run_config({"command": "verify", "scenario": scenario, "n_probes": 4, "seed": 23})
    # the probe batch, then the start point for tss_check
    assert shapes["point_data"] == [probes, (n,)]
    # both curvature routes differentiate their own fields, but take their
    # values at the batch from the op: each field is built there once
    assert shapes["levi_civita_christoffel"].count(probes) == 1
    assert shapes["lw_christoffel"].count(probes) == 1

    for seen in shapes.values():
        seen.clear()
    cli.run_config({"command": "tensors", "scenario": scenario, "n_probes": 4, "seed": 23})
    assert shapes == {"point_data": [probes], "levi_civita_christoffel": [probes],
                      "lw_christoffel": []}


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


def _record_simulate_calls(monkeypatch):
    """Wrap the engine's ``simulate``, which the CLI reaches through
    ``estimators._simulate``; returns the list of (kwargs, result)."""
    calls = []
    real = estimators.simulate

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        calls.append((kwargs, res))
        return res

    monkeypatch.setattr(estimators, "simulate", recording)
    return calls


def test_cli_simulate_requests_only_what_it_reads(tmp_path, monkeypatch):
    # neither the report nor the CSV reads the covariant-Ito flow or the
    # Bismut integrand, so the run behind them integrates neither
    calls = _record_simulate_calls(monkeypatch)
    cfg = {"command": "simulate",
           "scenario": {"name": "sphere-gradient", "params": {"n": 2}},
           "t": 0.1, "dt": 1e-2, "n_paths": 100, "seed": 7}
    code, _ = run(tmp_path, cfg, "--dump-paths", str(tmp_path / "paths.csv"))
    assert code == 0
    [(_, res)] = calls
    assert res.Vhat is None and res.bismut_vec is None
    assert all(getattr(res, name) is not None
               for name in ("J", "par_adj", "What", "g_T", "recon_err"))


def test_threads_default_to_one_whatever_the_cpu_count(tmp_path, monkeypatch):
    # one engine thread is faster than two, so a config without "threads"
    # runs on one, however many cores the machine reports
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    calls = _record_simulate_calls(monkeypatch)
    code, _ = run(tmp_path, {"command": "simulate", "scenario": {"name": "flat"},
                             "t": 0.05, "dt": 1e-2, "n_paths": 100, "seed": 0})
    assert code == 0
    assert [kwargs["threads"] for kwargs, _ in calls] == [1]


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


def test_recorded_dump_holds_the_run(tmp_path):
    # the last step's rows are the terminal state of the same run without
    # snapshots; the first step's W_v0 norm is |v0| in the start metric
    from flowgeom.stochastic import simulate

    cfg = {"command": "simulate",
           "scenario": {"name": "sphere-gradient", "params": {"n": 2}},
           "x0": [1.9, 0.2], "v0": [0.3, -1.2], "t": 0.2, "dt": 1e-2,
           "n_paths": 100, "seed": 5, "threads": 1, "record": True}
    csv_path = tmp_path / "rec.csv"
    assert main(["simulate", write_cfg(tmp_path, "rec.json", cfg),
                 "--dump-paths", str(csv_path)]) == 0
    rows = [line.split(",") for line in csv_path.read_text().strip().splitlines()[1:]]
    mc = cli._mc_config(cfg)
    cid, x0 = mc.start()
    res = simulate(mc.system, t=mc.t, dt=mc.dt, n_paths=mc.n_paths, seed=mc.seed,
                   x0=x0, cid=cid)
    assert set(res.cid_idx.tolist()) == {0, 1}  # some paths switched charts
    last = [r for r in rows if r[1] == "20"]
    assert [int(r[0]) for r in last] == list(range(100))
    assert [r[3] for r in last] == [res.chart_names[c] for c in res.cid_idx]
    assert [int(r[4]) for r in last] == res.alive.astype(int).tolist()
    np.testing.assert_array_equal([[float(c) for c in r[5:7]] for r in last], res.x)
    v0 = np.array([0.3, -1.2])
    # the last step's W_v0 norm is the terminal one, in the terminal metric g_T
    wv = res.W() @ v0
    np.testing.assert_array_equal([float(r[7]) for r in last],
                                  [np.sqrt(max(w @ g @ w, 0.0)) for w, g in zip(wv, res.g_T)])
    first = [float(r[7]) for r in rows if r[1] == "0"]
    assert len(first) == 100
    np.testing.assert_allclose(first, np.sqrt(v0 @ res.g0 @ v0), rtol=1e-13)


def test_record_mode_single_block(tmp_path, capsys):
    # a recorded run keeps a copy of every step of every path
    code, _ = run(tmp_path, {"command": "simulate",
                             "scenario": {"name": "sphere-gradient", "params": {"n": 2}},
                             "t": 0.1, "dt": 1e-2, "n_paths": 3000, "seed": 0,
                             "record": True})
    assert code == 2
    assert "at most 2048 paths, got n_paths=3000" in capsys.readouterr().err


@pytest.mark.parametrize("head, t, dt, message", [
    ('"command": "simulate"', "1e400", "0.01", "t=inf is not a positive finite number"),
    ('"command": "simulate"', "0.1", "NaN", "dt=nan is not a positive finite number"),
    ('"command": "estimate", "check": "decompose"', "0.1", "Infinity",
     "dt=inf is not a positive finite number"),
], ids=["simulate-t-overflows", "simulate-nan-dt", "estimate-inf-dt"])
def test_non_finite_time_step_exits_two(tmp_path, capsys, head, t, dt, message):
    # JSON reads 1e400 as inf, and Python's reader takes NaN and Infinity
    p = tmp_path / "cfg.json"
    p.write_text('{%s, "scenario": {"name": "flat"}, "n_paths": 100, "t": %s, "dt": %s}'
                 % (head, t, dt))
    assert main(["run", str(p)]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {message}"


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
    _dump_paths_csv(str(full), res, np.linalg.inv(res.L0).T[:, 0])
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
    _dump_paths_csv(str(full), res, np.array([0.3, -1.2]))
    assert dump.read_bytes() == full.read_bytes()
    default = tmp_path / "default.csv"
    _dump_paths_csv(str(default), res, np.linalg.inv(res.L0).T[:, 0])
    assert dump.read_bytes() != default.read_bytes()


def _count_engine_runs(monkeypatch):
    """Wrap the checks' ``simulate``; returns the list of its keyword arguments."""
    calls = []
    real = estimators.simulate
    monkeypatch.setattr(estimators, "simulate",
                        lambda *a, **k: calls.append(k) or real(*a, **k))
    return calls


SPHERE2 = {"name": "sphere-gradient", "params": {"n": 2}}


@pytest.mark.parametrize("check, entry, bad, dim", [
    ("filtered", {"test_functions": ["x1", "x9"]}, "x9", 3),
    ("bismut", {"f": "x5"}, "x5", 3),
    ("filtered", {"scenario": {"name": "custom", "params": {
        "n": 2, "m": 2, "x_entries": [["1", "x3"], ["0.5", "1"]]}}}, "x3", 2),
    ("filtered", {"scenario": {"name": "custom", "params": {
        "n": 2, "m": 2, "x_entries": [["1", "0"], ["0", "1"]], "a_entries": ["-x1", "x3"]}}},
     "x3", 2),
    ("filtered", {"scenario": {"name": "flat", "params": {"n": 2, "drift": ["-x1", "x3"]}}},
     "x3", 2),
], ids=["filtered-test-functions", "bismut-f", "custom-x_entries", "custom-a_entries",
        "flat-drift"])
def test_bad_test_function_exits_two_before_any_engine_run(tmp_path, capsys, monkeypatch,
                                                           check, entry, bad, dim):
    # S^2 embeds in R^3, and coefficient entries are expressions in the n = 2
    # chart coordinates: the expression is refused before the 4096-path run
    runs = _count_engine_runs(monkeypatch)
    code, _ = run(tmp_path, {"command": "estimate", "check": check, "scenario": SPHERE2,
                             "n_paths": 4096, "seed": 0, **entry})
    assert code == 2
    assert len(runs) == 0
    assert capsys.readouterr().err.startswith(
        f"config error: expression {bad!r} uses {bad} but its points have dimension {dim}")


def test_one_form_component_beyond_the_chart_dimension_exits_two(tmp_path, capsys,
                                                                 monkeypatch):
    # components are in the n chart coordinates: x3 does not exist on flat n = 2
    runs = _count_engine_runs(monkeypatch)
    code, _ = run(tmp_path, {"command": "estimate", "check": "oneform",
                             "scenario": {"name": "flat", "params": {"n": 2}},
                             "n_paths": 100, "phi": {"components": ["x3", "x1"]}})
    assert code == 2
    assert len(runs) == 0
    assert capsys.readouterr().err.startswith(
        "config error: expression 'x3' uses x3 but its points have dimension 2")


def test_verify_refuses_a_bad_test_function_before_any_geometry(tmp_path, capsys,
                                                                monkeypatch):
    monkeypatch.setattr(cli, "geometry_point", lambda *a: pytest.fail("geometry ran"))
    code, _ = run(tmp_path, {"command": "verify", "scenario": SPHERE2, "f": "x1 + x4"})
    assert code == 2
    assert "expression 'x1 + x4' uses x4" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["moments", "bochner"])
def test_zero_v0_exits_two_without_warnings(tmp_path, capsys, check):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, {"command": "estimate", "check": check, "scenario": SPHERE2,
                                 "n_paths": 200, "seed": 0, "v0": [0.0, 0.0]})
    assert code == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("config error: v0 is the zero vector")
    assert "Warning" not in err and "Traceback" not in err


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


def _no_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


def test_simulate_with_every_path_dead_writes_a_strict_report(tmp_path, capsys):
    # x0 near the largest float: every path leaves the guard radius (its norm
    # overflows) in the first step, so no terminal statistic can be formed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(tmp_path, {
            "command": "simulate", "scenario": {"name": "flat", "params": {"n": 2}},
            "x0": [1e308, 0.0], "n_paths": 100, "t": 0.1, "dt": 1e-2, "seed": 0})
    assert code == 1
    assert [str(w.message) for w in caught] == []
    assert "RuntimeWarning" not in capsys.readouterr().err
    rep = json.loads((tmp_path / "report.json").read_text(), parse_constant=_no_constant)
    assert rep["status"] == "failed"
    assert rep["reason"].startswith("only 0 of 100 paths alive")


def test_non_finite_report_is_an_internal_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_config", lambda cfg: {"status": "passed", "x": float("nan")})
    code, rep = run(tmp_path, {"command": "verify", "scenario": {"name": "flat"}})
    assert code == 3
    assert rep is None
    assert "internal error: ValueError" in capsys.readouterr().err


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
