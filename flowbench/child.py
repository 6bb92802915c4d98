"""One repetition of a workload in a fresh process.

Usage: python3 child.py CONFIG_DIR TRACE

Imports ``flowgeom.cli`` (found on PYTHONPATH), loads every ``*.json`` config
of CONFIG_DIR in name order with ``load_config``, runs each through
``run_config`` and prints one JSON object: set-up, verdict and CPU times, peak
memory, a digest of every report, and with TRACE=1 the per-layer metrics of
the traced ops.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def digest(report: dict) -> str:
    """Hash of the report with every ``wall_time`` field removed."""
    def strip(val):
        if isinstance(val, dict):
            return {k: strip(v) for k, v in val.items() if k != "wall_time"}
        if isinstance(val, list):
            return [strip(v) for v in val]
        return val
    text = json.dumps(strip(report), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _blas_threads(np) -> int | None:
    """Thread count the bundled OpenBLAS reports, when it can be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
    }


def main(config_dir: str, trace: bool) -> dict:
    t0 = time.perf_counter()
    import flowgeom
    import flowgeom.cli as cli
    t1 = time.perf_counter()
    paths = sorted(glob.glob(os.path.join(config_dir, "*.json")))
    cfgs = [cli.load_config(p) for p in paths]
    t2 = time.perf_counter()

    tracer = None
    if trace:
        sys.path.insert(0, HERE)
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install(flowgeom)

    ops = []
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    try:
        for k, cfg in enumerate(cfgs):
            if tracer is not None:
                tracer.begin_op(k)
            s = time.perf_counter()
            try:
                report = cli.run_config(cfg)
            except Exception as exc:  # an op that raises is a failed op
                ops.append({"ok": False, "error": f"{type(exc).__name__}: {exc}",
                            "op_s": time.perf_counter() - s})
                continue
            ops.append({"ok": report.get("status") == "passed",
                        "status": report.get("status"), "digest": digest(report),
                        "op_s": time.perf_counter() - s})
    finally:
        unrestored = tracer.restore() if tracer is not None else []
    w1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    out = {
        "flowgeom_file": flowgeom.__file__,
        "import_s": t1 - t0,
        "load_config_s": t2 - t1,
        "setup_s": t2 - t0,
        "verdict_s": w1 - w0,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mib": ru1.ru_maxrss / 1024.0,
        "ops": ops,
        "env": environment(),
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans)
        out["spans"] = len(tracer.spans)
        out["unrestored"] = unrestored
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2] == "1")))
