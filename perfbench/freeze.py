"""Freeze the outputs the benchmark checks against into expected.json.

    python3 perfbench/freeze.py

Runs candidate k = 0, 1, 2, ... of each workload (workloads.candidate) in
a worker process and stores its input parameters and outputs, until
VARIANTS of them are collected.  A candidate that phaseproj
refuses as under-resolved (a ResolutionError in strict mode: the input
needs a finer grid than the workload's N) is skipped and reported; any
other failure stops the freeze.  Every workload is frozen and
expected.json is written anew.  Re-freeze only at a commit whose outputs
are trusted, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from run import EXPECTED, ROOT, WORKLOADS, spawn

sys.path.insert(0, f"{ROOT}/src")
import workloads  # noqa: E402  (imports phaseproj from the checkout)

REFUSED = "ResolutionError"
VARIANTS = 12
WORKER_LIMIT_S = 600.0


def refused(ops):
    return any((op.get("error") or {}).get("type") == REFUSED for op in ops)


def freeze(workload, count):
    variants, k = [], 0
    while len(variants) < count:
        params = workloads.candidate(workload, k)
        result = spawn(workload, params, "run", deadline=time.monotonic() + WORKER_LIMIT_S)
        if "failure" in result:
            raise SystemExit(f"{workload} candidate {k} {params}: {result['failure']}")
        if refused(result["ops"]):
            print(f"{workload}: candidate {k} {params} refused as under-resolved, skipped",
                  flush=True)
        elif any(op.get("error") for op in result["ops"]):
            raise SystemExit(f"{workload} candidate {k} {params} failed: {result['ops']}")
        else:
            variants.append({"candidate": k, "inputs": params, "ops": result["ops"]})
            print(f"{workload}: variant {len(variants) - 1} = candidate {k} {params}, "
                  f"wall {result['wall_s']:.2f} s", flush=True)
        k += 1
    return variants


def main():
    # two workers at a time: outputs do not depend on load
    with ThreadPoolExecutor(max_workers=2) as pool:
        expected = dict(zip(WORKLOADS, pool.map(lambda w: freeze(w, VARIANTS), WORKLOADS)))
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
