"""Harness: generators, runs, persistence, demos, determinism."""

import hashlib
import json
import math
import os
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_real
from phaseproj import estimators, harness, projection
from phaseproj.cubes import DyadicCube, unit_cube
from phaseproj.errors import ValidationError
from phaseproj.grid import TorusGrid
from phaseproj.harness import (
    RunConfig,
    baseline_demo,
    build_f,
    build_tree_config,
    field_from_modes,
    generate_partition,
    generate_tree,
    headline_rows,
    load_baselines,
    modulation_demo,
    parse_p,
    random_bandpass_field,
    random_bandpass_modes,
    run,
)


class TestGenerateTree:
    def test_single_leaf_depth0(self):
        cfg = generate_tree(0, 0, 1, 1)
        assert cfg.leaves == (unit_cube(1),)

    def test_deterministic(self):
        a = generate_tree(42, 3, 3, 1)
        b = generate_tree(42, 3, 3, 1)
        assert a == b

    def test_seeds_differ(self):
        trees = {generate_tree(s, 3, 2, 1).leaves for s in range(10)}
        assert len(trees) > 1

    def test_infeasible(self):
        with pytest.raises(ValidationError):
            generate_tree(0, 1, 5, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2000),
           st.integers(min_value=1, max_value=4))
    def test_sampled_trees_validate(self, seed, leaf_count):
        # TreeConfig construction enforces disjointness and containment
        cfg = generate_tree(seed, 4, min(leaf_count, 4), 1)
        assert len(cfg.leaves) == min(leaf_count, 4)

    def test_2d(self):
        cfg = generate_tree(7, 2, 3, 2)
        assert cfg.dim == 2 and len(cfg.leaves) == 3


class TestGenerators:
    def test_partition_valid(self):
        for seed in range(5):
            part = generate_partition(seed, 4, 1)
            assert part.cells

    def test_bandpass_annulus(self):
        grid = TorusGrid(1, 8.0, 1 << 12)
        modes = random_bandpass_modes(grid, 3, (2.0, 5.0), 7)
        lat = 1.0 / 16.0
        for k, _ in modes:
            r = math.sqrt(sum((kk * lat) ** 2 for kk in k))
            assert 2.0 <= r <= 5.0

    def test_scaled_modes_exact(self):
        grid = TorusGrid(1, 8.0, 1 << 12)
        modes = [((8,), 1.0 + 0.0j)]
        base = field_from_modes(grid, modes, scale=1)
        scaled = field_from_modes(grid, modes, scale=4)
        from phaseproj.grid import physical_spectrum
        spec = np.abs(physical_spectrum(scaled))
        idx = np.argmax(spec)
        assert abs(grid.axis_freqs[idx]) == pytest.approx(4 * 8 / 16.0, abs=1e-12)
        assert is_real(base) and is_real(scaled)

    def test_field_real(self):
        grid = TorusGrid(1, 8.0, 1 << 12)
        f = random_bandpass_field(grid, 5, (1.0, 4.0), 6)
        assert is_real(f)


class TestRun:
    def test_zero_field_run(self, tmp_path):
        config = RunConfig(dim=1, grid_n=1 << 13, leaves=((-1, 0),),
                           f_modes=((1.5, 0.0, 0.0),), gap_m=0, alpha=2.0,
                           window_depth=1)
        record = run(config, out_dir=str(tmp_path / "out"))
        assert "error" not in record
        for key, entry in record["report_summary"].items():
            assert entry["max_ratio"] == 0.0 or np.isfinite(entry["max_ratio"])
        norm = record["report_summary"]["norm:p=2"]
        assert norm["max_ratio"] == 0.0

    def test_error_recorded_with_stage(self):
        config = RunConfig(dim=1, grid_n=1 << 10, tree_depth=3, leaf_count=2,
                           gap_m=3, alpha=2.0)
        record = run(config)
        assert record["error"]["stage"] == "projection"

    def test_bad_grid_size_recorded_at_grid_stage(self):
        record = run(RunConfig.from_dict({"grid_n": "abc"}))
        error = record["error"]
        assert error["stage"] == "grid" and error["type"] == "ValidationError"
        assert "'abc'" in error["message"]

    def test_persisted_run_closes_its_files(self, tmp_path):
        config = RunConfig(dim=1, grid_n=1 << 13, leaves=((-1, 0),), gap_m=0,
                           alpha=2.0, window_depth=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            record = run(config, out_dir=str(tmp_path / "out"))
        assert "error" not in record
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_bug_propagates(self, tmp_path, monkeypatch):
        # only package errors become failure rows; a bug is not recorded
        def broken(config, grid):
            raise TypeError("bug in a stage")

        monkeypatch.setattr(harness, "build_f", broken)
        config = RunConfig(dim=1, grid_n=1 << 10)
        with pytest.raises(TypeError, match="bug in a stage"):
            run(config, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_builder_released_before_estimators(self, monkeypatch):
        refs, alive = [], []

        def assemble(pin, frame=None):
            out = projection.assemble(pin, frame)
            refs.extend([weakref.ref(out._builder), weakref.ref(out._builder.frame)])
            return out

        class Context(harness.EstimatorContext):
            def __init__(self, *args, **kwargs):
                alive.extend(ref() is not None for ref in refs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "assemble", assemble)
        monkeypatch.setattr(harness, "EstimatorContext", Context)
        config = RunConfig(dim=1, grid_n=1 << 13, leaves=((-1, 0),), gap_m=0,
                           alpha=2.0, window_depth=1, keep_pieces=True)
        record = run(config)
        assert "error" not in record
        assert alive == [False, False]

    def test_byte_identical_reports(self, tmp_path):
        config = RunConfig(dim=1, grid_n=1 << 13, tree_seed=5, tree_depth=1,
                           leaf_count=1, f_seed=2, gap_m=0, alpha=2.0,
                           window_depth=1, f_annulus=(1.0, 3.0))
        run(config, out_dir=str(tmp_path / "a"))
        run(config, out_dir=str(tmp_path / "b"))
        report_a = (tmp_path / "a" / "report.json").read_bytes()
        report_b = (tmp_path / "b" / "report.json").read_bytes()
        assert report_a == report_b
        assert (tmp_path / "a" / "perscale.csv").read_bytes() == (
            tmp_path / "b" / "perscale.csv").read_bytes()

    def test_outputs_present(self, tmp_path):
        config = RunConfig(dim=1, grid_n=1 << 13, tree_seed=1, tree_depth=1,
                           leaf_count=1, f_seed=3, gap_m=0, alpha=2.0,
                           window_depth=1, f_annulus=(1.0, 3.0))
        out = tmp_path / "run"
        record = run(config, out_dir=str(out))
        assert "error" not in record
        for name in ("report.json", "config.echo", "perscale.csv",
                     "manifest.txt", "timings.txt", "tree.csv"):
            assert (out / name).exists(), name
        assert (out / "fields" / "g.bin").exists()
        data = json.loads((out / "report.json").read_text())
        assert data["config_hash"] == config.config_hash()
        assert "_runtime" not in data
        timings = (out / "timings.txt").read_text().splitlines()
        assert f"workers {estimators.norm_workers()}" in timings

    def test_headline_rows(self):
        config = RunConfig(dim=1, grid_n=1 << 13, tree_seed=5, tree_depth=1,
                           leaf_count=1, f_seed=2, gap_m=0, alpha=2.0,
                           window_depth=1, f_annulus=(1.0, 3.0))
        record = run(config)
        rows = headline_rows(record, seed=5, m=0)
        kinds = {row["inequality"] for row in rows}
        assert kinds == {"norm", "carleson", "offtree"}


class TestConfig:
    def test_round_trip(self):
        config = RunConfig(dim=2, grid_n=1 << 8, leaves=((-1, 0, 1),),
                           p_values=(1.0, math.inf), f_annulus=(1.0, 2.0))
        back = RunConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert back.config_hash() == config.config_hash()
        assert back.p_values == (1.0, math.inf)

    def test_round_trip_any_exponent(self):
        config = RunConfig(p_values=(1.5, 3.0, math.inf))
        data = json.loads(json.dumps(config.to_dict()))
        assert data["p_values"] == ["1.5", "3.0", "inf"]
        back = RunConfig.from_dict(data)
        assert back.p_values == (1.5, 3.0, math.inf)
        assert back.config_hash() == config.config_hash()

    @pytest.mark.parametrize("value", ["0", "-2", "abc", "nan", "", None, -1.0])
    def test_bad_exponent_named(self, value):
        with pytest.raises(ValidationError, match=re.escape(repr(value))):
            parse_p(value)

    def test_exponent_names(self):
        assert [parse_p(v) for v in ("1", "2", "inf", "2.5", 4)] == [
            1.0, 2.0, math.inf, 2.5, 4.0]

    def test_unknown_keys_rejected(self):
        data = RunConfig().to_dict()
        data["grdi_n"] = 4
        data["zzz"] = 1
        with pytest.raises(ValidationError, match="unknown RunConfig keys: grdi_n, zzz"):
            RunConfig.from_dict(data)

    def test_explicit_leaves(self):
        config = RunConfig(dim=1, leaves=((-2, 1), (-1, 1)))
        cfg = build_tree_config(config)
        assert cfg.leaves == (DyadicCube(-2, (1,)), DyadicCube(-1, (1,)))

    def test_hash_changes(self):
        a = RunConfig(tree_seed=0)
        b = RunConfig(tree_seed=1)
        assert a.config_hash() != b.config_hash()


class TestBaselineDemo:
    def test_exactness(self):
        result = baseline_demo(dim=1, seed=3, depth=3, grid_n=1 << 12)
        assert result["proj_in_error"] <= 1e-12
        assert result["proj_out_error"] <= 1e-12
        assert result["sup_bound_holds"]

    def test_trivial_partition(self):
        result = baseline_demo(dim=1, seed=0, depth=0, grid_n=1 << 10)
        assert result["cells"] == 1
        assert result["proj_in_error"] <= 1e-12

    def test_measurable_input_fixed(self):
        # f already constant on the cells reproduces itself; covered by
        # the grid-level test, here the demo contract end to end
        result = baseline_demo(dim=2, seed=1, depth=2, grid_n=1 << 8)
        assert result["proj_in_error"] <= 1e-12
        assert result["sup_bound_holds"]

    def test_smooth_compare_csv(self, tmp_path):
        path = tmp_path / "side.csv"
        result = baseline_demo(dim=1, seed=2, depth=2, grid_n=1 << 13,
                               csv_path=str(path), smooth_compare=True)
        assert path.exists()
        assert "smooth_sup" in result


class TestModulationDemo:
    def test_self_pairing_and_decay_trend(self):
        config = RunConfig(dim=1, grid_n=1 << 14, tree_seed=0, tree_depth=1,
                           leaf_count=1, f_seed=11, gap_m=0, alpha=2.0,
                           f_annulus=(1.0, 3.0))
        result = modulation_demo(config, separations=[0.0, 4.0, 16.0, 64.0])
        table = result["table"]
        assert table[0]["pairing"] == pytest.approx(1.0, abs=1e-9)
        assert table[-1]["pairing"] < table[1]["pairing"]
        assert result["spearman"] < 0

    # SHA-256 of the whole result (table floats, flags, spearman) on the
    # default separations, keyed by second_tree_seed; frozen before the
    # projections shared one frame per tree.
    GOLDEN = {
        None: "5a725266e14f536436c9857499c107954e8b441a2806eb58df92782f429e8234",
        3: "75ee2efae683f4952eee55fec5a4131c633e4443b5c1246d6c75fd0c23eb58ec",
    }

    @pytest.mark.parametrize("second_tree_seed", [None, 3])
    def test_golden_hash(self, second_tree_seed):
        config = RunConfig(dim=1, grid_n=1 << 14, tree_seed=0, tree_depth=1,
                           leaf_count=1, f_seed=11, gap_m=0, alpha=2.0,
                           f_annulus=(1.0, 3.0))
        result = modulation_demo(config, second_tree_seed=second_tree_seed)
        digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
        assert digest == self.GOLDEN[second_tree_seed]

    @pytest.mark.parametrize("second_tree_seed,frames", [(None, 1), (3, 2)])
    def test_one_frame_per_tree(self, monkeypatch, second_tree_seed, frames):
        seen = []

        def assemble(pin, frame=None):
            seen.append(frame)
            return projection.assemble(pin, frame)

        monkeypatch.setattr(harness, "assemble", assemble)
        config = RunConfig(dim=1, grid_n=1 << 13, tree_depth=1, leaf_count=1,
                           f_annulus=(1.0, 3.0))
        modulation_demo(config, separations=[0.0, 4.0, 16.0],
                        second_tree_seed=second_tree_seed)
        assert len(seen) == 4 and None not in seen
        assert len({id(frame) for frame in seen}) == frames

    def test_off_lattice_rejected(self):
        config = RunConfig(dim=1, grid_n=1 << 13, tree_depth=1, leaf_count=1)
        with pytest.raises(ValidationError):
            modulation_demo(config, separations=[0.0, 0.03])


class TestBaselinesFile:
    def test_loadable(self):
        values = load_baselines()
        assert isinstance(values, dict)
