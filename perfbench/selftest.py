"""Self-test of the benchmark's output check.

    python3 perfbench/selftest.py

Shows that a perturbed expectation makes an operation count as failed,
and that a change inside the tolerance does not:
1. offline, against the stored outputs of variant 0 of every workload;
2. end to end, by running one moddemo worker through run.measure against
   its stored expectation and against a perturbed copy.
Exits non-zero on the first case that comes out wrong.
"""

from __future__ import annotations

import copy
import json
import time

from run import (EXPECTED, PAIRING_ATOL, RTOL, SPEARMAN_ATOL, TIGHT_PAIRINGS, check_op,
                 measure)


def cases(workload, stored):
    """(label, actual, expected, should fail) built from one stored output."""
    same = copy.deepcopy(stored)
    yield "unchanged", same, stored, False
    if workload == "moddemo":
        edits = [
            ("spearman off by 2x its tolerance", "spearman", 2 * SPEARMAN_ATOL, True),
            ("spearman within tolerance", "spearman", SPEARMAN_ATOL / 2, False),
        ]
        for label, key, delta, fails in edits:
            exp = copy.deepcopy(stored)
            exp[key] += delta
            yield label, same, exp, fails
        for label, row, delta, fails in (
                ("separation-4 pairing off by 1e-3", 1, 1e-3, True),
                ("separation-4 pairing within tolerance", 1, RTOL / 10, False),
                ("far pairing off by 2x its tolerance", TIGHT_PAIRINGS, 2 * PAIRING_ATOL, True),
                ("far pairing within tolerance", TIGHT_PAIRINGS, PAIRING_ATOL / 2, False)):
            exp = copy.deepcopy(stored)
            exp["pairings"][row] += delta
            yield label, same, exp, fails
        exp = copy.deepcopy(stored)
        exp["spectra_disjoint"][-1] = not exp["spectra_disjoint"][-1]
        yield "disjointness certificate flipped", same, exp, True
    else:
        summary = stored["summary"]
        key = max(summary, key=lambda k: summary[k]["max_ratio"])
        for label, factor, fails in (("ratio off by 10x the tolerance", 1 + 10 * RTOL, True),
                                     ("ratio within tolerance", 1 + RTOL / 10, False)):
            exp = copy.deepcopy(stored)
            exp["summary"][key]["max_ratio"] *= factor
            yield label, same, exp, fails
        exp = copy.deepcopy(stored)
        exp["summary"][key]["count"] += 1
        yield "cube count changed", same, exp, True
        act = copy.deepcopy(stored)
        act["all_finite"] = False
        yield "non-finite ratio", act, stored, True
    act = copy.deepcopy(stored)
    act["error"] = {"stage": "projection", "message": "injected", "type": "ResolutionError"}
    yield "error record", act, stored, True


def main():
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    for workload, variants in sorted(expected.items()):
        for label, actual, exp, fails in cases(workload, variants[0]["ops"][0]):
            reason = check_op(workload, actual, exp)
            if bool(reason) != fails:
                raise SystemExit(f"{workload}, {label}: check returned {reason!r}")
            print(f"ok  {workload}: {label} -> {'failed' if reason else 'passed'}")

    variant = expected["moddemo"][0]
    perturbed = copy.deepcopy(variant)
    perturbed["ops"][0]["spearman"] += 2 * SPEARMAN_ATOL
    for label, entry, every_op_fails in (("stored", variant, False),
                                         ("perturbed", perturbed, True)):
        run = measure("moddemo", entry, 0.0, False, time.monotonic())
        want = run["attempted"] if every_op_fails else 0
        if run["failed"] != want:
            raise SystemExit(f"moddemo run against the {label} expectation: "
                             f"{run['failed']} failed ops, want {want}: {run['reasons']}")
        print(f"ok  moddemo run against the {label} expectation: {run['failed']} of "
              f"{run['attempted']} ops failed")
    print("selftest passed")


if __name__ == "__main__":
    main()
