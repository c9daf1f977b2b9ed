"""Reference configurations and frozen-baseline computation.

The acceptance suite pins its regression quantities here so that the
command-line `freeze-baselines` and the tests exercise identical code:
one reference verification config, the reference m-sweep with its
table of headline ratios, the Bernstein sweep over the gap and the
modulation demo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from math import inf

import numpy as np

from .estimators import p_name
from .harness import (
    RunConfig,
    modulation_demo,
    parse_p,
    reference_sweep_configs,
    run,
    spq_checks,
)

REFERENCE_CONFIG = RunConfig(
    dim=1, grid_n=1 << 14, leaves=((-1, 0),), f_modes=((3.0, 0.5, 0.0), (-3.0, 0.5, 0.0)),
    gap_m=0, alpha=2.0, window_depth=1)

MODULATION_CONFIG = RunConfig(
    dim=1, grid_n=1 << 17, tree_seed=0, tree_depth=1, leaf_count=1,
    f_seed=11, gap_m=0, alpha=2.0, f_annulus=(1.0, 3.0))

MODULATION_SEPARATIONS = [0.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 2048.0, 3072.0]

BERNSTEIN_CONFIG = RunConfig(
    dim=1, grid_n=1 << 14, tree_seed=2, tree_depth=1, leaf_count=2, f_seed=5,
    gap_m=0, alpha=2.0, f_annulus=(1.0, 3.0))


def carleson_decay_score(report_dict):
    """Worst ratio of a sub-top per-scale term to the geometric profile
    2^{0.5 (i - i_top)} anchored at the top contributing scale."""
    rows = [r for r in report_dict.get("per_scale", []) if r["term"] > 0]
    if len(rows) < 2:
        return 0.0
    top = max(rows, key=lambda r: r["term"])
    score = 0.0
    for row in rows:
        if row["i"] >= top["i"]:
            continue
        score = max(score, row["term"] / (top["term"] * 2.0 ** (0.5 * (row["i"] - top["i"]))))
    return score


@dataclass
class ConstantTable:
    """Headline ratios across a sweep, one row per (inequality, p, seed, m),
    grouped for uniformity metrics."""

    COLUMNS = ("inequality", "p", "seed", "m", "ratio")

    rows: list = dc_field(default_factory=list)

    def uniformity(self):
        """max/min of the ratio over m, per (inequality, p, seed); inf
        for a group whose every ratio is infinite."""
        groups = {}
        for row in self.rows:
            key = (row["inequality"], row["p"], row["seed"])
            groups.setdefault(key, []).append(row["ratio"])
        out = []
        for key in sorted(groups):
            ratios = [r for r in groups[key] if r > 0]
            if not ratios:
                continue
            out.append({
                "inequality": key[0], "p": key[1], "seed": key[2],
                "max_ratio": max(ratios), "min_ratio": min(ratios),
                "uniformity": max(ratios) / min(ratios) if min(ratios) < inf else inf,
            })
        return out

    def max_ratio(self, inequality):
        vals = [r["ratio"] for r in self.rows
                if r["inequality"] == inequality and np.isfinite(r["ratio"])]
        return max(vals) if vals else 0.0

    def csv_rows(self):
        return ([row[c] for c in self.COLUMNS] for row in self.rows)


def headline_rows(record, seed, m):
    """Sweep rows (inequality, p, seed, m, ratio) from a finished record."""
    rows = []
    for key, entry in record["report_summary"].items():
        ineq, p_part = key.split(":p=")
        rows.append({"inequality": ineq, "p": parse_p(p_part), "seed": seed,
                     "m": m, "ratio": entry["max_ratio"] if entry["finite"] else inf})
    return rows


def run_sweep_artifacts(configs=None):
    """Execute the reference sweep, collecting headline rows, finiteness
    flags (from each run's report_summary) and per-scale decay scores."""
    configs = configs if configs is not None else reference_sweep_configs()
    table = ConstantTable()
    failures = []
    all_finite = True
    decay_max = 0.0
    for config in configs:
        record = run(config)
        if "error" in record:
            failures.append((config, record["error"]))
            continue
        table.rows.extend(headline_rows(record, config.tree_seed, config.gap_m))
        if not all(entry["finite"] for entry in record["report_summary"].values()):
            all_finite = False
        for row in record["reports"]:
            if row["inequality"] == "carleson":
                decay_max = max(decay_max, carleson_decay_score(row))
    return {
        "table": table,
        "failures": failures,
        "all_finite": all_finite,
        "decay_max": decay_max,
        "n_configs": len(configs),
    }


def uniformity_key(inequality, p):
    """The baselines.txt key of the worst uniformity of (inequality, p)."""
    return f"uniformity_{inequality}_p{p_name(p)}"


def uniformity_by_key(table):
    """Worst per-seed max/min-over-m ratio for each (inequality, p)."""
    worst = {}
    for row in table.uniformity():
        key = (row["inequality"], row["p"])
        worst[key] = max(worst.get(key, 0.0), row["uniformity"])
    return worst


def bernstein_artifacts():
    """Gap-parameter sweep of the sup-vs-mean comparison."""
    ratios = {int(row["context"]["m"]): row["ratio"] for row in spq_checks(BERNSTEIN_CONFIG)
              if "skipped" not in row["context"]}
    ms = sorted(ratios)
    increments = [math.log2(ratios[ms[k + 1]] / ratios[ms[k]])
                  for k in range(len(ms) - 1) if ratios[ms[k]] > 0]
    return {"ratios": ratios, "max_ratio": max(ratios.values()),
            "max_log2_increment": max(increments) if increments else 0.0}


def compute_baselines(verbose=False):
    """Regenerate every frozen regression value.

    The spec's role for these numbers: computed once by the first
    complete implementation, then gating any later change that would
    raise them.  A 2 percent headroom absorbs cross-platform float
    noise without weakening the gate.
    """
    values, notes = {}, {}

    record = run(REFERENCE_CONFIG)
    if "error" in record:
        raise RuntimeError(f"reference config failed: {record['error']}")
    ratio = record["report_summary"]["norm:p=2"]["max_ratio"]
    values["reference_norm_ratio_p2"] = ratio
    notes["reference_norm_ratio_p2"] = f"config {record['config_hash']}"
    if verbose:
        print(f"reference norm ratio (p=2): {ratio:.6g}")

    art = run_sweep_artifacts()
    if art["failures"]:
        raise RuntimeError(f"sweep failures: {art['failures'][:2]}")
    if not art["all_finite"]:
        raise RuntimeError("non-finite ratio in the reference sweep")
    sweep_hash = reference_sweep_configs()[0].config_hash()
    for (ineq, p), worst in sorted(uniformity_by_key(art["table"]).items(), key=str):
        key = uniformity_key(ineq, p)
        values[key] = round(worst * 1.02, 6)
        notes[key] = f"measured {worst:.4f}; sweep anchor {sweep_hash}"
        if verbose:
            print(f"{key}: measured {worst:.4f}")
    for ineq in ("norm", "carleson", "offtree"):
        key = f"sweep_max_ratio_{ineq}"
        values[key] = round(art["table"].max_ratio(ineq) * 1.02, 9)
        notes[key] = "largest headline ratio over the reference sweep"
    values["carleson_decay_max"] = round(art["decay_max"] * 1.02, 6)
    notes["carleson_decay_max"] = "per-scale decay score vs rate 2^(0.5(i-i_top))"
    if verbose:
        print(f"carleson decay score: {art['decay_max']:.4f}")

    bern = bernstein_artifacts()
    values["bernstein_max_ratio"] = round(bern["max_ratio"] * 1.02, 9)
    values["bernstein_max_log2_increment"] = round(
        max(bern["max_log2_increment"], 0.0) + 0.05, 6)
    notes["bernstein_max_ratio"] = "sup-vs-mean ratio over the gap sweep"
    notes["bernstein_max_log2_increment"] = (
        f"measured {bern['max_log2_increment']:.4f}")
    if verbose:
        print(f"bernstein ratios: {bern['ratios']}")

    demo = modulation_demo(MODULATION_CONFIG, separations=MODULATION_SEPARATIONS)
    values["modulation_spearman"] = round(demo["spearman"] + 0.02, 6)
    notes["modulation_spearman"] = f"measured {demo['spearman']:.4f}"
    far = [row["pairing"] for row in demo["table"] if row["spectra_disjoint"]]
    if not far:
        raise RuntimeError("no certified-disjoint separation in the demo ladder")
    values["modulation_far_pairing_max"] = float(np.format_float_scientific(
        max(far) * 1.5, precision=6))
    notes["modulation_far_pairing_max"] = f"{len(far)} certified separations"
    if verbose:
        print(f"modulation spearman {demo['spearman']:.4f}, far pairing max {max(far):.3e}")

    return values, notes
