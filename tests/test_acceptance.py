"""Reference sweep artifacts and the frozen-baseline gates.

Each gate recomputes a frozen value of baselines.txt and fails when the
measurement exceeds it.  A gate first checks that its configuration
still hashes to the anchor the value was frozen for: a drifted anchor
means the frozen value describes another configuration, so the gate
fails loudly instead of comparing unrelated numbers.  The full-sweep
gates take about 150 s and are marked slow: python -m pytest -m slow
"""

import math

import pytest

from phaseproj.acceptance import (
    BERNSTEIN_CONFIG,
    MODULATION_CONFIG,
    MODULATION_SEPARATIONS,
    REFERENCE_CONFIG,
    bernstein_artifacts,
    run_sweep_artifacts,
    uniformity_by_key,
    uniformity_key,
)
from phaseproj.harness import (
    RunConfig,
    load_baselines,
    modulation_demo,
    reference_sweep_configs,
    run,
)

# config_hash of each configuration whose values baselines.txt holds
REFERENCE_ANCHOR = "c6e1765b03284f87"
SWEEP_ANCHOR = "a7c607f5d6b7106e"        # the first reference-sweep config
BERNSTEIN_ANCHOR = "1137587dfbe8a4b1"
MODULATION_ANCHOR = "6ccd572dfc113f85"


class TestSweepArtifacts:
    def test_empty_sweep(self):
        art = run_sweep_artifacts([])
        assert art["table"].rows == [] and art["failures"] == []
        assert art["n_configs"] == 0

    def test_failures_recorded(self):
        # a failing config is recorded with its stage and the sweep goes on
        bad = RunConfig(dim=1, grid_n=1 << 10, tree_depth=3, leaf_count=2,
                        gap_m=3, alpha=2.0)
        ok = RunConfig(dim=1, grid_n=1 << 13, tree_seed=5, tree_depth=1,
                       leaf_count=1, f_seed=2, gap_m=0, alpha=2.0,
                       window_depth=1, f_annulus=(1.0, 3.0))
        art = run_sweep_artifacts([bad, ok])
        assert len(art["failures"]) == 1
        config, error = art["failures"][0]
        assert config is bad and error["stage"] == "projection"
        assert {row["inequality"] for row in art["table"].rows} == {
            "norm", "carleson", "offtree"}
        assert {row["seed"] for row in art["table"].rows} == {5}


def check_anchor(config, anchor):
    got = config.config_hash()
    if got != anchor:
        pytest.fail(f"config hash {got} is not the frozen anchor {anchor}: the "
                    "baselines were frozen for another configuration; re-freeze "
                    "with phaseproj freeze-baselines and record the before and "
                    "after values")


def check_frozen(measured):
    """Every {baselines.txt key: measured value} is at most its frozen value."""
    frozen = load_baselines()
    over = {}
    for key, value in measured.items():
        assert key in frozen, f"{key} is not frozen in baselines.txt"
        assert math.isfinite(value), (key, value)
        if value > frozen[key]:
            over[key] = (value, frozen[key])
    assert not over, f"measured > frozen: {over}"


class TestFrozenBaselines:
    def test_reference_norm_ratio(self):
        check_anchor(REFERENCE_CONFIG, REFERENCE_ANCHOR)
        record = run(REFERENCE_CONFIG)
        assert "error" not in record
        check_frozen({"reference_norm_ratio_p2":
                      record["report_summary"]["norm:p=2"]["max_ratio"]})

    def test_bernstein(self):
        check_anchor(BERNSTEIN_CONFIG, BERNSTEIN_ANCHOR)
        bern = bernstein_artifacts()
        check_frozen({"bernstein_max_ratio": bern["max_ratio"],
                      "bernstein_max_log2_increment": bern["max_log2_increment"]})

    def test_modulation(self):
        check_anchor(MODULATION_CONFIG, MODULATION_ANCHOR)
        demo = modulation_demo(MODULATION_CONFIG, separations=MODULATION_SEPARATIONS)
        far = [row["pairing"] for row in demo["table"] if row["spectra_disjoint"]]
        assert far, "no certified-disjoint separation in the demo ladder"
        check_frozen({"modulation_spearman": demo["spearman"],
                      "modulation_far_pairing_max": max(far)})

    @pytest.mark.slow
    def test_reference_sweep(self):
        configs = reference_sweep_configs()
        check_anchor(configs[0], SWEEP_ANCHOR)
        art = run_sweep_artifacts(configs)
        assert not art["failures"] and art["all_finite"]
        measured = {uniformity_key(ineq, p): worst
                    for (ineq, p), worst in uniformity_by_key(art["table"]).items()}
        measured.update({f"sweep_max_ratio_{ineq}": art["table"].max_ratio(ineq)
                         for ineq in ("norm", "carleson", "offtree")})
        measured["carleson_decay_max"] = art["decay_max"]
        assert set(measured) == {key for key in load_baselines() if key.startswith(
            ("uniformity_", "sweep_max_ratio_", "carleson_decay_"))}
        check_frozen(measured)
