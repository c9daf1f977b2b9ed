"""tools/bench_pairs.py: the summary of interleaved pairs and the claim rule.

The script runs outside this suite, so it is loaded from its file and fed
synthetic pairs; nothing here runs a benchmark.
"""

import importlib.util
import pathlib

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
BOUNDS = {"wall_s": ("lower", 0.25)}


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOLS / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load()


def pairs(parent, change, correct=True, failed=(0, 0)):
    """One pair per (parent, change) wall time, every run correct or not,
    each side failing the given number of operations in every pair."""
    return [{"seed": seed, "first": "parent",
             "parent": {"wall_s": p}, "change": {"wall_s": c},
             "parent_correct": True, "change_correct": correct,
             "parent_failed": failed[0], "change_failed": failed[1],
             "parent_attempted": 10, "change_attempted": 10}
            for seed, (p, c) in enumerate(zip(parent, change))]


PARENT = [5.0, 5.1, 5.2, 5.0, 5.1, 5.3, 5.0, 5.2, 5.1, 5.0]
FASTER = [t - 1.0 for t in PARENT]


def claim(runs):
    summary = bench_pairs.summarize(runs, BOUNDS)
    return bench_pairs.claim_result(summary, "wall_s", runs, True)


def test_summary_of_a_clear_gain():
    summary = bench_pairs.summarize(pairs(PARENT, FASTER), BOUNDS)
    stats = summary["wall_s"]
    assert (stats["parent_median"], stats["change_median"]) == (5.1, 4.1)
    assert (stats["change_better_pairs"], stats["change_worse_pairs"]) == (10, 0)
    assert stats["within_bound"]
    assert summary["all_correct"]
    assert summary["failed_ops"] == {"parent": 0, "change": 0}


def test_clear_gain_holds():
    line, holds = claim(pairs(PARENT, FASTER))
    assert holds, line
    assert "better in 10 of 10 pairs" in line


@pytest.mark.parametrize("runs", [
    pairs(PARENT, FASTER, correct=False),
    pairs(PARENT, FASTER, failed=(0, 1)),
    pairs(PARENT, FASTER, failed=(2, 3)),
], ids=["incorrect", "more_failures", "more_failures_than_a_failing_parent"])
def test_gain_with_unsound_runs_does_not_hold(runs):
    # the wall times are those of the clear gain; only the outputs or the
    # failed operations of the change are worse
    line, holds = claim(runs)
    assert not holds, line


def test_fewer_failures_do_not_refuse_a_gain():
    line, holds = claim(pairs(PARENT, FASTER, failed=(2, 1)))
    assert holds, line


def test_gain_in_eight_of_ten_pairs_does_not_hold():
    change = FASTER[:8] + [t + 0.5 for t in PARENT[8:]]
    line, holds = claim(pairs(PARENT, change))
    assert not holds, line
    assert "better in 8 of 10 pairs" in line
