"""Reference sweep artifacts: headline rows, recorded failures."""

from phaseproj.acceptance import run_sweep_artifacts
from phaseproj.harness import RunConfig


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
