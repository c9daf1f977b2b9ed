"""Interleaved parent/change pairs of the benchmark, summarized per metric.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \
        --seeds 3100-3109 --claim sweep_d1:wall_s --out BENCH.json \
        --parent-rev <commit> --about "<what the change does>"

Each directory is a checkout of its own (made with `git archive` or `git
clone`).  For every workload (in the order given) and seed, the script
runs the checkout's unchanged `python3 perfbench/run.py --workload W
--seed S` in that directory, once per side: the parent first on even
seeds and the change first on odd ones, so that a drift of the machine's
speed falls on both sides alike.  Each run's values are its last output
line; the script also keeps its count of report.json bytes equal to the
frozen ones.

Per workload and end-to-end metric it writes the median and quartiles of
each side (numpy.percentile, linear), the relative change of the
medians, the pairs in which the change is better or worse, and whether
the change's median stays within the metric's BENCHMARK.json bound.  A
claim (workload:metric) holds when every run of both sides is correct,
the change fails no more operations than the parent, the change is
better in at least 9 of 10 pairs and its median gap exceeds the
parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("moddemo", "verify_d2", "sweep_d1")
SIDES = ("parent", "change")
REPRODUCED = re.compile(r"report\.json bytes equal to the frozen ones: (\d+) of (\d+)")


def run_side(directory, workload, seed):
    """One perfbench run of a checkout: its final JSON object, with the
    reproduced report count where the run prints one."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed)],
                          cwd=directory, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{directory}: {workload} seed {seed} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    match = REPRODUCED.search(proc.stdout)
    if match:
        result["reproduced"] = [int(match.group(1)), int(match.group(2))]
    return result


def run_pair(dirs, workload, seed):
    """Both sides of one seed, in the alternating order."""
    order = SIDES if seed % 2 == 0 else SIDES[::-1]
    results = {side: run_side(dirs[side], workload, seed) for side in order}
    pair = {"seed": seed, "first": order[0]}
    for side in SIDES:
        result = results[side]
        pair[side] = {name: m["value"] for name, m in result["metrics"].items()}
        pair[f"{side}_correct"] = result["correct"]
        pair[f"{side}_failed"] = result["failed"]
        pair[f"{side}_attempted"] = result["attempted"]
        if "reproduced" in result:
            pair[f"{side}_reproduced"] = result["reproduced"]
    return pair


def summarize(pairs, bounds):
    """Per metric: both sides' medians and quartiles, the relative change,
    the better and worse pair counts and the bound check."""
    summary = {}
    for name, (better, bound) in bounds.items():
        sides = {side: np.array([pair[side][name] for pair in pairs]) for side in SIDES}
        q1, median, q3 = {}, {}, {}
        for side, values in sides.items():
            q1[side], median[side], q3[side] = np.percentile(values, [25, 50, 75])
        sign = 1.0 if better == "lower" else -1.0
        gaps = sign * (sides["parent"] - sides["change"])   # > 0: the change is better
        rel = median["change"] / median["parent"] - 1.0
        summary[name] = {
            "parent_median": round(median["parent"], 4),
            "parent_q1": round(q1["parent"], 4),
            "parent_q3": round(q3["parent"], 4),
            "change_median": round(median["change"], 4),
            "change_q1": round(q1["change"], 4),
            "change_q3": round(q3["change"], 4),
            "rel_change": round(rel, 4),
            "change_better_pairs": int(np.sum(gaps > 0)),
            "change_worse_pairs": int(np.sum(gaps < 0)),
            "within_bound": bool(sign * rel <= bound),
        }
    summary["all_correct"] = all(pair[f"{side}_correct"] for pair in pairs for side in SIDES)
    summary["failed_ops"] = {side: sum(pair[f"{side}_failed"] for pair in pairs)
                             for side in SIDES}
    return summary


def claim_result(summary, metric, pairs, lower_is_better):
    """The claim's line and whether it holds, from a workload's summary:
    every run correct, no more failed operations on the change's side
    than on the parent's, better in >= 9 of 10 pairs and a median gap, in
    the better direction, above the parent's interquartile range."""
    stats = summary[metric]
    gap = stats["parent_median"] - stats["change_median"]
    if not lower_is_better:
        gap = -gap
    iqr = stats["parent_q3"] - stats["parent_q1"]
    better = stats["change_better_pairs"]
    failed = summary["failed_ops"]
    sound = summary["all_correct"] and failed["change"] <= failed["parent"]
    holds = sound and 10 * better >= 9 * len(pairs) and gap > iqr
    line = (f"{stats['parent_median']:.3f} [{stats['parent_q1']:.3f}, "
            f"{stats['parent_q3']:.3f}] -> {stats['change_median']:.3f} "
            f"[{stats['change_q1']:.3f}, {stats['change_q3']:.3f}], "
            f"{100 * stats['rel_change']:+.1f}%, change better in {better} of "
            f"{len(pairs)} pairs, median gap {gap:.3f} against a parent IQR of {iqr:.3f}; "
            f"all correct: {summary['all_correct']}, failed operations "
            f"{failed['parent']} -> {failed['change']}")
    return line, bool(holds)


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 3100-3109")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--claim", help="workload:metric whose gain is claimed")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--parent-rev", default="", help="the parent's commit, as recorded")
    parser.add_argument("--about", default="", help="what the change does, as recorded")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: (m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}
    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    report = {"change": args.about,
              "parent": args.parent_rev,
              "command": "python3 perfbench/run.py --workload <w> --seed <s> in each "
                         "checkout; values are its final JSON line",
              "method": f"{len(args.seeds)} interleaved parent/change pairs per workload on "
                        f"seeds {args.seeds[0]}-{args.seeds[-1]}; the parent runs first on "
                        "even seeds, the change first on odd ones; workloads one after "
                        f"another in the order {args.workloads}. Quartiles are "
                        "numpy.percentile (linear)",
              "machine": f"{os.cpu_count()} cores, Python {platform.python_version()}, "
                         f"numpy {np.__version__}",
              "workloads": {}}
    for workload in args.workloads.split(","):
        pairs = []
        for seed in args.seeds:
            pairs.append(run_pair(dirs, workload, seed))
            print(workload, json.dumps(pairs[-1]), flush=True)
        report["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs, bounds)}
    if args.claim:
        workload, metric = args.claim.split(":")
        line, holds = claim_result(report["workloads"][workload]["summary"], metric,
                                   report["workloads"][workload]["pairs"],
                                   bounds[metric][0] == "lower")
        report["claim"] = {"workload": workload, "metric": metric, "result": line,
                           "holds": holds}
        print("claim:", line, "holds" if holds else "does NOT hold")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
