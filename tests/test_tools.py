"""The digest comparer in tools/: label matching and exit codes."""

import importlib.util
import json
import os

import numpy as np

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "compare_dumps.py")
spec = importlib.util.spec_from_file_location("compare_dumps", TOOL)
compare_dumps = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_dumps)


def _dump(root, entries):
    """A dump directory as ``report_digests.py --dump`` writes it."""
    os.makedirs(root)
    for k, (label, val) in enumerate(entries):
        if isinstance(val, dict):
            with open(os.path.join(root, f"{k}.json"), "w") as fh:
                json.dump(val, fh)
        else:
            np.savez(os.path.join(root, f"{k}.npz"), a=val)
    with open(os.path.join(root, "labels.json"), "w") as fh:
        json.dump([label for label, _ in entries], fh)
    return str(root)


def test_compare_dumps_matches_labels_by_name(tmp_path, capsys):
    old = _dump(tmp_path / "old", [("a", {"x": 1.0}), ("b", np.ones(3)),
                                   ("c", {"status": "passed"})])
    # reordered, one label added, and one shared label moved in its last bits
    new = _dump(tmp_path / "new", [("c", {"status": "passed"}), ("new", {"x": 2.0}),
                                   ("a", {"x": 1.0 + 1e-15}), ("b", np.ones(3))])
    assert compare_dumps.main([old, new]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "abs 1.110e-15  rel 1.110e-15  a"
    assert out[1:3] == ["same  b", "same  c"]
    assert out[3] == "added    new"
    assert out[-1] == "1 of 3 shared labels differ, 1 added, 0 removed"


def test_compare_dumps_fails_on_a_removed_label_or_a_changed_verdict(tmp_path, capsys):
    old = _dump(tmp_path / "old", [("a", {"status": "passed"}), ("gone", {"x": 1.0})])
    new = _dump(tmp_path / "new", [("a", {"status": "passed"})])
    assert compare_dumps.main([old, new]) == 1
    assert "removed  gone" in capsys.readouterr().out
    flipped = _dump(tmp_path / "flipped", [("a", {"status": "failed"}), ("gone", {"x": 1.0})])
    assert compare_dumps.main([old, flipped]) == 1
    assert "NON-NUMERIC: .status" in capsys.readouterr().out


def test_compare_dumps_rejects_a_label_listed_twice(tmp_path):
    old = _dump(tmp_path / "old", [("a", {"x": 1.0})])
    twice = _dump(tmp_path / "twice", [("a", {"x": 1.0}), ("a", {"x": 2.0})])
    assert compare_dumps.main([old, twice]) == 2
