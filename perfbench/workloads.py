"""The benchmark's workloads: inputs from a variant's parameters, the
timed operation through phaseproj's public entry points, and the layers
each workload must reach.

Candidate 0 is the configuration named in the README.  Candidate k > 0
shifts the tree seed and the field seed.  Its tree seeds are the k-th ones
whose random tree has the same shape (leaf levels and tree cubes per
level) as candidate 0's, because the shape sets the amount of work:
without this, a seed that draws a shallower tree would read as a speed-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

from phaseproj import acceptance, harness
from phaseproj.cubes import expand_to_tree
from phaseproj.errors import PhaseprojError

_DEEP = ("harness.run", "projection.assemble", "projection.residual",
         "projection.g_piece", "grid.fft", "grid.rho_values", "cubes.contains",
         "kernels.dict", "kernels.dict_build", "kernels.sinc_power",
         "kernels.class_membership", "estimators.size_table",
         "estimators.context", "estimators.window", "estimators.offtree_sum",
         "estimators.carleson_sum")

# Spans that must record calls on each workload (see tracer.Tracer.require).
REACHES = {
    "sweep_d1": _DEEP,
    "verify_d2": _DEEP,
    "moddemo": ("projection.assemble", "projection.g_piece", "grid.fft"),
}

SWEEP_CONFIGS = 5
VERIFY_CONFIG = harness.RunConfig(dim=2, grid_n=1 << 8, tree_depth=1, leaf_count=1,
                                  alpha=3.0, strict=False)


def _tree_shape(seed, depth, leaf_count, dim):
    tree = expand_to_tree(harness.generate_tree(seed, depth, leaf_count, dim))
    levels = sorted(leaf.level for leaf in tree.cfg.leaves)
    return tuple(levels), tuple(len(tree.cubes(j)) for j in range(levels[0], 1))


def matching_tree_seed(k, first, step, depth, leaf_count, dim):
    """The k-th seed of first, first + step, ... whose tree has the shape
    of the tree drawn from `first`."""
    shape = _tree_shape(first, depth, leaf_count, dim)
    seed, found = first, 0
    while True:
        if _tree_shape(seed, depth, leaf_count, dim) == shape:
            if found == k:
                return seed
            found += 1
        seed += step


def candidate(workload, k):
    """Input parameters of the k-th candidate variant (see freeze.py)."""
    if workload == "sweep_d1":
        # reference_sweep_configs gives seed s leaf_count 1 + s % 3, so the
        # tree seeds keep their residues mod 3 as well as their shapes
        return {"tree_seeds": [matching_tree_seed(k, 0, 3, 2, 1, 1),
                               matching_tree_seed(k, 1, 3, 2, 2, 1)]}
    if workload == "verify_d2":
        return {"tree_seed": matching_tree_seed(k, VERIFY_CONFIG.tree_seed, 1, 1, 1, 2),
                "f_seed": VERIFY_CONFIG.f_seed + k}
    if workload == "moddemo":
        base = acceptance.MODULATION_CONFIG
        return {"tree_seed": matching_tree_seed(k, base.tree_seed, 1, base.tree_depth,
                                                base.leaf_count, base.dim),
                "f_seed": base.f_seed + k}
    raise ValueError(f"unknown workload {workload!r}")


def build_inputs(workload, params):
    """The inputs handed to phaseproj for a variant's parameters."""
    if workload == "sweep_d1":
        return harness.reference_sweep_configs(
            seeds=tuple(params["tree_seeds"]))[:SWEEP_CONFIGS]
    base = VERIFY_CONFIG if workload == "verify_d2" else acceptance.MODULATION_CONFIG
    return dataclasses.replace(base, tree_seed=params["tree_seed"],
                               f_seed=params["f_seed"])


def execute(workload, inputs, clock):
    """Run the timed operation.  Returns (raw results, finish times), one
    per operation, with times read from `clock`."""
    if workload == "moddemo":
        try:
            demo = harness.modulation_demo(inputs, acceptance.MODULATION_SEPARATIONS)
        except PhaseprojError as exc:
            # recorded like harness.run records a failed stage
            demo = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        return [demo], [clock()]
    if workload == "verify_d2":
        record = harness.run(inputs)
        return [_clean(record)], [clock()]
    records, times = [], []
    run = acceptance.run

    def recording_run(config):
        record = run(config)
        records.append(_clean(record))
        times.append(clock())
        return record

    acceptance.run = recording_run
    try:
        acceptance.run_sweep_artifacts(inputs)
    finally:
        acceptance.run = run
    return records, times


def _clean(record):
    # what harness._persist writes to report.json: no private keys
    return {k: v for k, v in record.items() if not k.startswith("_")}


def summarize(workload, raw):
    """The checked outputs of one operation, as plain JSON values."""
    if workload == "moddemo":
        if "error" in raw:
            return {"error": raw["error"]}
        table = raw["table"]
        return {"error": None, "spearman": raw["spearman"],
                "pairings": [row["pairing"] for row in table],
                "spectra_disjoint": [row["spectra_disjoint"] for row in table]}
    report = json.dumps(raw, sort_keys=True, indent=2) + "\n"
    reports = [r for r in raw.get("reports", []) if "skipped" not in r["context"]]
    return {
        "config_hash": raw["config_hash"],
        "error": raw.get("error"),
        "all_finite": all(math.isfinite(r["ratio"]) for r in reports),
        "summary": {key: {"max_ratio": entry["max_ratio"], "count": entry["count"],
                          "finite": entry["finite"]}
                    for key, entry in raw.get("report_summary", {}).items()},
        "report_sha256": hashlib.sha256(report.encode()).hexdigest(),
    }
