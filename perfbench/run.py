"""Benchmark of phaseproj: closed-loop workloads timed from outside the package.

    python3 perfbench/run.py --workload sweep_d1 --seed 0 --seconds 10 --trace 0

Run from the repository root.  One caller runs operations back to back,
each in a fresh worker process, until --seconds have passed (a traced run
makes at least one untraced and one traced operation).  An untraced run
also starts SETUP_STARTS workers that stop after set-up, half before its
operations and half after; setup_s is the fastest of them.  Every output is checked against
perfbench/expected.json; the seed picks the stored input variant (seed
modulo the number of variants).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import LAYER_METRICS, TRACE_ERROR_EXIT

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
EXPECTED = os.path.join(HERE, "expected.json")
PACKAGE = os.path.join(ROOT, "src", "phaseproj", "harness.py")

# Workers a run makes even when --seconds have passed: the machine's speed
# drifts by 10% over seconds, so a 5- or 13-s operation needs three samples
# for a steady median; the 40-s sweep gets one, to keep a run under a
# minute.  A traced run makes at least two (untraced, traced).
MIN_WORKERS = {"sweep_d1": 1, "verify_d2": 3, "moddemo": 3}
WORKLOADS = sorted(MIN_WORKERS)

# Set-up is import-dominated; one fresh interpreter's imports take 0.8 to
# 1.5 s on the same machine, in slow spells that last several seconds.
# The fastest of several starts, spread over the run, is the set-up time
# without that jitter.
SETUP_STARTS = 4

END_TO_END = {"setup_s": "s", "wall_s": "s", "first_result_s": "s", "peak_rss_mb": "MB"}

# A run must exit within 180 s; no worker may outlive this budget.
RUN_LIMIT_S = 170.0

# A report ratio matches its stored value when |actual - expected| <=
# RTOL |expected| + ATOL.  Routing every inverse FFT through an exactly
# equivalent forward FFT (same math, other rounding) moved the ratios by
# at most 6e-11 relative; wrong math moves them by percents.
RTOL = 1e-6
ATOL = 1e-12
# The same rounding change moved the modulation demo's pairings at
# separations 0 and 4 (its first TIGHT_PAIRINGS rows) by 2e-16, so they
# are checked like the ratios.  It moved the pairings beyond separation 4
# by up to 1.6e-3 absolute (77% relative): they are rounding-dominated, so
# they are checked loosely, and their order (Spearman, where one swap of
# adjacent ranks among 7 moves it by 0.036) and the certified disjointness
# of the spectra are checked.
TIGHT_PAIRINGS = 2
PAIRING_ATOL = 1e-2
SPEARMAN_ATOL = 0.04

# Shares that confirm each workload stresses the layer it was chosen for.
# Printed by a traced run, not gated: an optimisation is meant to move them.
DESIGN_CHECKS = {
    "sweep_d1": [
        ("kernels.dict_build_s >= 0.40 wall_s",
         lambda m, wall: m["kernels.dict_build_s"] >= 0.40 * wall),
        ("kernels.dict_builds > 16", lambda m, wall: m["kernels.dict_builds"] > 16),
    ],
    "verify_d2": [
        ("estimators.window_s >= 0.50 wall_s",
         lambda m, wall: m["estimators.window_s"] >= 0.50 * wall),
    ],
    "moddemo": [
        ("projection.assemble_s >= 0.80 wall_s",
         lambda m, wall: m["projection.assemble_s"] >= 0.80 * wall),
        ("kernels.dict_calls == 0", lambda m, wall: m["kernels.dict_calls"] == 0),
        ("estimators.*_calls == 0",
         lambda m, wall: m["estimators.offtree_sum_calls"] == 0
         and m["estimators.carleson_sum_calls"] == 0),
    ],
}


def close(actual, expected):
    return abs(actual - expected) <= RTOL * abs(expected) + ATOL


def check_op(workload, actual, expected):
    """Why one operation's output fails its stored expectation, or None."""
    if actual.get("error"):
        return f"error record {actual['error']}"
    if workload == "moddemo":
        if actual["spectra_disjoint"] != expected["spectra_disjoint"]:
            return "certified-disjoint separations differ"
        if abs(actual["spearman"] - expected["spearman"]) > SPEARMAN_ATOL:
            return f"spearman {actual['spearman']!r} != {expected['spearman']!r}"
        if len(actual["pairings"]) != len(expected["pairings"]):
            return "pairing table has another length"
        for row, (a, e) in enumerate(zip(actual["pairings"], expected["pairings"])):
            if not (close(a, e) if row < TIGHT_PAIRINGS else abs(a - e) <= PAIRING_ATOL):
                return f"pairing {row}: {a!r} != {e!r}"
        return None
    if actual["config_hash"] != expected["config_hash"]:
        return "another config ran"
    if not actual["all_finite"]:
        return "non-finite ratio"
    if sorted(actual["summary"]) != sorted(expected["summary"]):
        return "report summary has other keys"
    for key, exp in expected["summary"].items():
        act = actual["summary"][key]
        if (act["count"] != exp["count"] or act["finite"] != exp["finite"]
                or not close(act["max_ratio"], exp["max_ratio"])):
            return f"{key}: {act} != {exp}"
    return None


def spawn(workload, params, mode, deadline):
    """Run one worker in `mode` (run, trace or setup); its result dict, or
    {"failure": reason}."""
    cmd = [sys.executable, WORKER, workload, json.dumps(params), mode]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"failure": "worker timed out", "timed_out": True}
    if proc.returncode == TRACE_ERROR_EXIT:
        raise SystemExit(err.strip())
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"failure": f"worker exited with {proc.returncode}: {tail[0]}"}
    return json.loads(out.strip().splitlines()[-1])


def time_setups(workload, params, count, deadline):
    """Set-up times of `count` workers that stop after set-up."""
    setups = []
    for _ in range(count):
        result = spawn(workload, params, "setup", deadline)
        if "failure" in result:
            raise SystemExit(f"set-up failed: {result['failure']}")
        setups.append(result["setup_s"])
    return setups


def measure(workload, variant, seconds, trace, started):
    """Run worker processes back to back and check every output.

    `variant` is an entry of expected.json: {"inputs": ..., "ops": [...]}.
    """
    deadline = started + RUN_LIMIT_S
    ops = len(variant["ops"])  # per worker: 5 sweep configs, or 1 run or demo
    starts = 0 if trace else SETUP_STARTS // 2
    setups = time_setups(workload, variant["inputs"], starts, deadline)
    loop_start = time.monotonic()
    workers, attempted, failed, reproduced, reasons = [], 0, 0, 0, []
    while True:
        traced = trace and bool(workers)  # a traced run starts untraced
        result = spawn(workload, variant["inputs"], "trace" if traced else "run", deadline)
        if "failure" not in result and len(result["ops"]) != ops:
            result = {"failure": f"worker returned {len(result['ops'])} outputs, "
                                 f"expected {ops}"}
        result["traced"] = traced
        workers.append(result)
        attempted += ops
        if "failure" in result:
            failed += ops
            reasons.append(result["failure"])
        else:
            for actual, expected in zip(result["ops"], variant["ops"]):
                reason = check_op(workload, actual, expected)
                if reason:
                    failed += 1
                    reasons.append(reason)
                if "report_sha256" in expected and (
                        actual.get("report_sha256") == expected["report_sha256"]):
                    reproduced += 1
        if result.get("timed_out"):
            break
        if (time.monotonic() - loop_start >= seconds
                and len(workers) >= max(MIN_WORKERS[workload], 2 if trace else 1)):
            break
    if not result.get("timed_out"):
        setups += time_setups(workload, variant["inputs"], starts, deadline)
    return {"setups": setups, "workers": workers, "attempted": attempted,
            "failed": failed, "reproduced": reproduced, "reasons": reasons}


def end_to_end_metrics(run):
    done = [w for w in run["workers"] if "failure" not in w]
    if not done:
        raise SystemExit("no worker finished; no metrics to report")
    values = {name: statistics.median(w[name] for w in done) for name in END_TO_END}
    values["setup_s"] = min(run["setups"])
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_metrics(workers):
    baseline = [w for w in workers if not w["traced"] and "failure" not in w]
    traced = [w for w in workers if w["traced"] and "failure" not in w]
    if not baseline or not traced:
        raise SystemExit("a traced run needs one untraced and one traced worker to finish")
    values = {name: statistics.median(w["layers"][name] for w in traced)
              for name in traced[0]["layers"]}
    values["harness.cpu_s"] = statistics.median(w["cpu_s"] for w in traced)
    traced_wall = statistics.median(w["wall_s"] for w in traced)
    values["harness.trace_overhead"] = traced_wall / baseline[0]["wall_s"] - 1.0
    return {name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_METRICS.items()}, traced_wall


def main(argv=None):
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(PACKAGE):
        raise SystemExit(f"phaseproj source not found at {PACKAGE}; run from a checkout")
    with open(EXPECTED, encoding="utf-8") as fh:
        variants = json.load(fh)[args.workload]
    index = args.seed % len(variants)
    variant = variants[index]
    print(f"{args.workload}: seed {args.seed} -> variant {index} of {len(variants)} "
          f"{json.dumps(variant['inputs'])}, trace {args.trace}, {args.seconds:g} s")

    run = measure(args.workload, variant, args.seconds, bool(args.trace), started)
    if run["setups"]:
        print(f"  set-up only: {', '.join(f'{s:.3f}' for s in run['setups'])} s")
    for n, w in enumerate(run["workers"], 1):
        if "failure" in w:
            print(f"  worker {n}: FAILED {w['failure']}")
            continue
        print(f"  worker {n}{' (traced)' if w['traced'] else ''}: setup {w['setup_s']:.3f} s, "
              f"wall {w['wall_s']:.3f} s, first result {w['first_result_s']:.3f} s, "
              f"peak RSS {w['peak_rss_mb']:.1f} MB, cpu {w['cpu_s']:.3f} s")
    for reason in run["reasons"]:
        print(f"  failed op: {reason}")
    print(f"ops: {run['attempted']} attempted, {run['failed']} failed "
          f"(fail_frac {run['failed'] / run['attempted']:.4f})")
    if args.workload != "moddemo":
        print(f"report.json bytes equal to the frozen ones: {run['reproduced']} of "
              f"{run['attempted']} configs (not gated)")

    if args.trace:
        metrics, traced_wall = layer_metrics(run["workers"])
        for label, test in DESIGN_CHECKS[args.workload]:
            ok = test({k: v["value"] for k, v in metrics.items()}, traced_wall)
            print(f"design check: {label}: {'yes' if ok else 'NO'}")
    else:
        metrics = end_to_end_metrics(run)
    count = sum(1 for w in run["workers"] if "failure" not in w and w["traced"] == bool(args.trace))
    for name, m in metrics.items():
        how = (f"fastest of {len(run['setups'])} set-up starts" if name == "setup_s"
               else f"median of {count} workers")
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']:6s} ({how})")
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
