"""Largest difference per label between two ``report_digests.py --dump`` directories.

Usage:

    python3 tools/compare_dumps.py PARENT_DIR CHANGE_DIR

Labels are matched by name, so the two dumps may list different labels.
Prints one line per label both dumps hold: ``same`` when the two dumps are
equal, else the largest absolute difference, the largest relative difference
``|a - b| / max(|a|, |b|)`` over every number of the report (or every entry
of every array), and the paths of any entries that are not numbers and
differ (verdicts, flags, status, shapes), of keys only one side has
(``.+key`` added, ``.-key`` removed) and of lists whose length changed (the
common prefix is compared).  Then one line per label only the second dump
holds (``added``) or only the first (``removed``).  The last line counts the
labels that differ.  Exits 1 when a non-numeric entry differs or a label is
removed; an added label alone does not fail.  Exits 2 when a dump lists
a label twice.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np


def _walk(a, b, path: str, acc: dict) -> None:
    """Fold the numeric gaps of ``a`` vs ``b`` into ``acc``; list the rest."""
    num = (int, float)
    if isinstance(a, bool) or isinstance(b, bool) or not (
            isinstance(a, num) and isinstance(b, num)):
        if isinstance(a, dict) and isinstance(b, dict):
            acc["other"] += [f"{path}.-{k}" for k in a if k not in b]
            acc["other"] += [f"{path}.+{k}" for k in b if k not in a]
            for k in sorted(a.keys() & b.keys()):
                _walk(a[k], b[k], f"{path}.{k}", acc)
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                acc["other"].append(f"{path}[len {len(a)} -> {len(b)}]")
            for i, (x, y) in enumerate(zip(a, b)):
                _walk(x, y, f"{path}[{i}]", acc)
        elif a != b:
            acc["other"].append(path or ".")
        return
    _gap(np.array(a, dtype=float), np.array(b, dtype=float), acc)


def _gap(a: np.ndarray, b: np.ndarray, acc: dict) -> None:
    both_nan = np.isnan(a) & np.isnan(b)
    same = (a == b) | both_nan
    if same.all():
        return
    diff = np.where(same, 0.0, np.abs(a - b))
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.where(same, 0.0, diff / np.where(scale == 0.0, 1.0, scale))
    acc["abs"] = max(acc["abs"], float(np.max(diff)))
    acc["rel"] = max(acc["rel"], float(np.max(rel)))


def compare(path_a: str, path_b: str) -> dict:
    acc = {"abs": 0.0, "rel": 0.0, "other": []}
    if path_a.endswith(".json"):
        with open(path_a) as fa, open(path_b) as fb:
            _walk(json.load(fa), json.load(fb), "", acc)
        return acc
    with np.load(path_a) as za, np.load(path_b) as zb:
        if set(za.files) != set(zb.files):
            acc["other"].append(f"fields {sorted(set(za.files) ^ set(zb.files))}")
        for k in sorted(set(za.files) & set(zb.files)):
            a, b = za[k], zb[k]
            if a.shape != b.shape or a.dtype.kind != b.dtype.kind:
                acc["other"].append(f"{k} shape/dtype")
            elif a.dtype.kind in "fc":
                _gap(a.astype(float), b.astype(float), acc)
            elif not np.array_equal(a, b):
                acc["other"].append(k)
    return acc


def _stems(d: str) -> dict[str, str]:
    """Label -> path of its dump file in directory ``d``; ``ValueError`` if a
    label is listed twice, since labels are matched by name."""
    with open(os.path.join(d, "labels.json")) as fh:
        labels = json.load(fh)
    if len(set(labels)) != len(labels):
        raise ValueError(f"{d} lists a label twice")
    out = {}
    for k, label in enumerate(labels):
        stem = os.path.join(d, f"{k}.json")
        out[label] = stem if os.path.exists(stem) else os.path.join(d, f"{k}.npz")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        old, new = (_stems(d) for d in argv)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    n_diff = 0
    bad = False
    for label in (lab for lab in old if lab in new):
        acc = compare(old[label], new[label])
        if acc["abs"] == 0.0 and not acc["other"]:
            print(f"same  {label}")
            continue
        n_diff += 1
        bad = bad or bool(acc["other"])
        line = f"abs {acc['abs']:.3e}  rel {acc['rel']:.3e}  {label}"
        if acc["other"]:
            line += "  NON-NUMERIC: " + ", ".join(acc["other"][:8])
        print(line)
    added = [lab for lab in new if lab not in old]
    removed = [lab for lab in old if lab not in new]
    for label in added:
        print(f"added    {label}")
    for label in removed:
        print(f"removed  {label}")
    print(f"{n_diff} of {len(old) - len(removed)} shared labels differ, "
          f"{len(added)} added, {len(removed)} removed")
    return 1 if bad or removed else 0


if __name__ == "__main__":
    sys.exit(main())
