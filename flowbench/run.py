"""flowgeom benchmark: time to a verdict through the public CLI path.

Usage, from the root of a flowgeom checkout:

    python3 flowbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The command writes the workload's JSON configs for ``--seed`` and then, for
about ``--seconds`` seconds, starts one fresh process after another
(``child.py``); each imports ``flowgeom.cli`` from the checkout's ``src``,
loads every config with ``load_config`` and runs it with ``run_config``.

--trace 0 reports the end-to-end metrics, each the median over those
processes.  --trace 1 alternates untraced and traced processes and reports the
per-layer metrics of the traced ones (see tracer.py) and the tracing overhead.

Every op (one ``run_config`` call) must report ``status == "passed"``, and its
report, apart from ``wall_time``, must be identical in every process of the
run, traced or not.  An op that raises or breaks either rule is failed.  The
last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit, the sample count and a tail percentile, and the
environment.  Exits 2 without a result when the checkout has no flowgeom
source.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402
from workloads import THREADS, WORKLOADS, configs  # noqa: E402

END_TO_END = {"setup_s": "s", "verdict_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.load_config_s": "s",
    **LAYER_METRICS,
    "trace.untraced_verdict_s": "s",
    "trace.traced_verdict_s": "s",
    "trace.overhead_ratio": "1",
    "trace.spans": "count",
}
MIN_ROUNDS = 3       # untraced processes at least, whatever --seconds says
HARD_LIMIT_S = 150   # stop starting processes after this long in any case
WORK_DIR = ".flowbench-work"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def run_child(src: str, cfg_dir: str, trace: bool, timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), cfg_dir, "1" if trace else "0"],
        env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.realpath(out["flowgeom_file"]).startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"imported flowgeom from {out['flowgeom_file']}, not {src}")
    return out


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples above it."""
    n = len(samples)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            ranked = sorted(samples)
            return q, ranked[min(n - 1, math.ceil(q / 100.0 * n) - 1)]
    return None


def describe(name: str, unit: str, samples: list[float]) -> str:
    tail = tail_percentile(samples)
    tail_txt = (f"p{tail[0]:g} {tail[1]:.6g} {unit}" if tail
                else f"no percentile has 10 samples above it")
    return (f"{name:<30} {statistics.median(samples):.6g} {unit}  "
            f"(median of n={len(samples)}; {tail_txt})")


def sanity(workload: str, layers: dict) -> list[str]:
    """Claims about what each workload exercises that the trace contradicts."""
    claims = []
    if workload == "verify-all":
        claims += [("stochastic.path_steps", layers["stochastic.path_steps"] == 0, "== 0"),
                   ("quat.calls", layers["quat.calls"] > 0, "> 0")]
    else:
        claims += [("stochastic.paths_killed", layers["stochastic.paths_killed"] == 0, "== 0"),
                   ("stochastic.path_steps", layers["stochastic.path_steps"] > 0, "> 0")]
    if workload == "oneform-custom":
        claims += [("model.switch_rows", layers["model.switch_rows"] == 0, "== 0"),
                   ("expr.evaluate_calls", layers["expr.evaluate_calls"] > 0, "> 0")]
    if workload == "filtered-sphere":
        claims.append(("model.switch_rows", layers["model.switch_rows"] > 0, "> 0"))
    return [f"{name} = {layers[name]} on {workload}, expected {rule}"
            for name, ok, rule in claims if not ok]


def measure(args, root: str) -> tuple[list[tuple[bool, dict]], list[dict]]:
    """Run workload processes for about ``args.seconds``; (trace, result) each."""
    src = os.path.join(root, "src")
    cfgs = configs(args.workload, args.seed)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, WORK_DIR))
    try:
        for k, cfg in enumerate(cfgs):
            with open(os.path.join(work, f"{k:03d}.json"), "w") as fh:
                json.dump(cfg, fh)
        kinds = (False, True) if args.trace else (False,)
        reps: list[tuple[bool, dict]] = []
        start = time.perf_counter()
        rounds = 0
        while True:
            for trace in kinds:
                left = HARD_LIMIT_S - (time.perf_counter() - start)
                reps.append((trace, run_child(src, work, trace, max(left, 1.0))))
            rounds += 1
            elapsed = time.perf_counter() - start
            per_round = elapsed / rounds
            if elapsed + per_round > HARD_LIMIT_S:
                break
            if rounds >= MIN_ROUNDS and elapsed + per_round > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass  # another run still uses it
    return reps, cfgs


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "flowgeom", "__init__.py")):
        print(f"no flowgeom source under {os.path.join(root, 'src')}; run from the "
              "root of a flowgeom checkout", file=sys.stderr)
        return 2
    try:
        reps, cfgs = measure(args, root)
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3

    # correctness: every op passed, and every report matches the first process
    reference = [op.get("digest") for op in reps[0][1]["ops"]]
    attempted = failed = 0
    problems: list[str] = []
    for i, (trace, res) in enumerate(reps):
        for k, op in enumerate(res["ops"]):
            attempted += 1
            if not op["ok"]:
                failed += 1
                problems.append(f"process {i} op {k}: {op.get('error') or op.get('status')}")
            elif op["digest"] != reference[k]:
                failed += 1
                problems.append(f"process {i} op {k} (traced={trace}): report differs "
                                "from the first process's")
        if res.get("unrestored"):
            problems.append(f"process {i}: wraps not restored: {res['unrestored']}")

    plain = [res for trace, res in reps if not trace]
    traced = [res for trace, res in reps if trace]
    env = dict(plain[0]["env"], threads=THREADS[args.workload],
               ops_per_process=len(cfgs))
    print(f"flowbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"processes={len(reps)} ({len(traced)} traced)")
    print("env " + json.dumps(env, sort_keys=True))

    metrics: dict[str, dict] = {}
    if not args.trace:
        for name, unit in END_TO_END.items():
            samples = [r[name] for r in plain]
            metrics[name] = {"value": statistics.median(samples), "unit": unit}
            print(describe(name, unit, samples))
        print(describe("op_s (per run_config call)", "s",
                       [op["op_s"] for r in plain for op in r["ops"]]))
    else:
        per_rep = [dict(r["layers"], **{
            "cli.import_s": r["import_s"], "cli.load_config_s": r["load_config_s"],
            "trace.traced_verdict_s": r["verdict_s"], "trace.spans": r["spans"]})
            for r in traced]
        values = {name: statistics.median(r[name] for r in per_rep)
                  for name in PER_LAYER if name in per_rep[0]}
        values["trace.untraced_verdict_s"] = statistics.median(r["verdict_s"] for r in plain)
        values["trace.overhead_ratio"] = (values["trace.traced_verdict_s"]
                                          / values["trace.untraced_verdict_s"])
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:<30} {values[name]:.6g} {unit}")
        problems += sanity(args.workload, values)
    print(f"{'failed_frac':<30} {failed / attempted:.6g} 1  ({failed} of {attempted} ops)")
    for line in problems:
        print("FAIL " + line)

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
