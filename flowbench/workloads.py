"""The benchmark's workloads: JSON configs for the flowgeom CLI, made from a seed.

Each workload is a list of configs that one fresh process loads and runs in
order.  The seed only moves the Monte Carlo seed and the probe points; path
counts, horizons and scenarios are fixed, so every seed does the same work.
Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

# n=2 on three noise channels, drift on both coordinates: every coefficient
# call evaluates 6 + 2 = 8 expression trees.
CUSTOM = {
    "name": "custom",
    "params": {
        "n": 2,
        "m": 3,
        "x_entries": [["cos(x1)", "sin(x1)*x2", "0.3"],
                      ["0.2*x1", "cos(x2)", "sin(x2)"]],
        "a_entries": ["-0.5*x1", "-0.5*sin(x2)"],
    },
}

# Standard-error multiple of the statistical rows.  The filtered check has ten
# such rows; at the CLI default of 3 one seed in about twenty fails by chance
# alone, which would make a benchmark run fail without any fault in the
# program.  At 5 the chance is about 6e-6 per seed.
K_SE = 5.0

VERIFY_SCENARIOS = (
    {"name": "flat", "params": {"n": 2, "drift": ["-x1", "-x2"]}},
    {"name": "sphere-gradient", "params": {"n": 3}},
    {"name": "so3-left-invariant", "params": {}},
    {"name": "twisted-plane", "params": {"alpha": 0.5}},
    {"name": "circle", "params": {}},
    CUSTOM,
)

# Engine threads per workload.  Set explicitly: the CLI default is the
# machine's core count, which would make results depend on the host.
THREADS = {"filtered-sphere": 2, "oneform-custom": 1, "verify-all": None}

FILTERED_PATHS = 4096  # two engine blocks, one per thread
ONEFORM_PATHS = 8192   # four engine blocks on one thread
VERIFY_PROBES = 12     # sampled probe points per verify/tensors op


def configs(workload: str, seed: int) -> list[dict]:
    """The configs of ``workload`` for ``seed`` (any non-negative integer)."""
    seed = seed % 2**32
    if workload == "filtered-sphere":
        return [{
            "command": "estimate", "check": "filtered",
            "scenario": {"name": "sphere-gradient", "params": {"n": 2}},
            "t": 0.5, "dt": 0.01, "n_paths": FILTERED_PATHS, "seed": seed,
            "threads": THREADS[workload], "k_se": K_SE,
        }]
    if workload == "oneform-custom":
        return [{
            "command": "estimate", "check": "oneform", "scenario": CUSTOM,
            "t": 0.01, "dt": 0.001, "n_paths": ONEFORM_PATHS, "seed": seed,
            "threads": THREADS[workload], "k_se": K_SE,
        }]
    if workload == "verify-all":
        return [{"command": command, "scenario": scenario,
                 "n_probes": VERIFY_PROBES, "seed": seed}
                for scenario in VERIFY_SCENARIOS
                for command in ("verify", "tensors")]
    raise KeyError(workload)


WORKLOADS = tuple(THREADS)
