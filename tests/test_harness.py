"""Harness: generators, runs, persistence, demos, determinism."""

import hashlib
import json
import math
import os
import re
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_real
from phaseproj import estimators, harness, projection
from phaseproj.acceptance import REFERENCE_CONFIG, headline_rows
from phaseproj.cubes import DyadicCube, expand_to_tree, unit_cube
from phaseproj.errors import ValidationError
from phaseproj.grid import TorusGrid
from phaseproj.kernels import DictionarySpec
from phaseproj.harness import (
    RunConfig,
    build_f,
    build_tree_config,
    field_from_modes,
    random_partition_cells,
    generate_tree,
    load_baselines,
    modulation_demo,
    parse_p,
    random_bandpass_field,
    random_bandpass_modes,
    rank_correlation,
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
        # generate_tree draws its leaves from these cells, so they must
        # tile the unit cube: volumes 2^level sum to 1, no two overlap
        for seed in range(5):
            cells = random_partition_cells(seed, 4, 1)
            assert sum(2.0 ** c.level for c in cells) == 1.0
            assert all(a.disjoint(b) for i, a in enumerate(cells) for b in cells[i + 1:])

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

    @pytest.mark.parametrize("count", [0, -2])
    def test_mode_count_below_one_refused(self, count):
        # no modes would give f = 0 and every ratio 0.0
        grid = TorusGrid(1, 8.0, 1 << 12)
        with pytest.raises(ValidationError, match="f_mode_count"):
            random_bandpass_modes(grid, 3, (2.0, 5.0), count)
        record = run(RunConfig(grid_n=1 << 12, f_mode_count=count))
        assert record["error"]["stage"] == "f"
        assert record["error"]["type"] == "ValidationError"


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
        record = run(RunConfig(grid_n="abc"))
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
                           alpha=2.0, window_depth=1)
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

    @pytest.mark.parametrize("window_depth", [None, 0])
    def test_tree_csv_lists_tree_cubes_and_first_shells(self, tmp_path, window_depth):
        # leaves deeper than tree_depth: the window reaches two levels below
        # the leaves by default, and tree.csv lists, level by level, the
        # tree cubes and then the first shell, whatever the window depth
        config = RunConfig(dim=1, grid_n=1 << 14, leaves=((-2, 1),),
                           window_depth=window_depth)
        record = run(config, out_dir=str(tmp_path))
        assert "error" not in record
        window_floor = min(int(rep["context"]["J"].split(":")[0])
                           for rep in record["reports"] if "J" in rep["context"])
        assert window_floor == (-4 if window_depth is None else -2)
        tree = expand_to_tree(build_tree_config(config))
        expected = []
        for j in tree.levels():
            expected += [f"T,{j},{c.index[0]}" for c in tree.cubes(j)]
            expected += [f"B1,{j},{c.index[0]}" for c in tree.shell_cubes(j, 1)]
        rows = (tmp_path / "tree.csv").read_text().splitlines()
        assert rows[0] == "tag,level,index"
        assert rows[1:] == expected
        assert {row.split(",")[0] for row in rows[1:]} == {"T", "B1"}

    def test_headline_rows(self):
        config = RunConfig(dim=1, grid_n=1 << 13, tree_seed=5, tree_depth=1,
                           leaf_count=1, f_seed=2, gap_m=0, alpha=2.0,
                           window_depth=1, f_annulus=(1.0, 3.0))
        record = run(config)
        rows = headline_rows(record, seed=5, m=0)
        kinds = {row["inequality"] for row in rows}
        assert kinds == {"norm", "carleson", "offtree"}

    def test_spq_reads_the_config_dictionary(self, monkeypatch):
        specs = []
        real = estimators._dictionary

        def recording(grid, level, alpha, kind, dict_spec):
            specs.append(dict_spec)
            return real(grid, level, alpha, kind, dict_spec)

        monkeypatch.setattr(estimators, "_dictionary", recording)
        spec = DictionarySpec(1, 1, 0, 0, 1, 0)
        config = RunConfig(dim=1, grid_n=1 << 12, tree_seed=5, f_seed=2,
                           f_annulus=(1.0, 3.0), dict_spec=spec)
        assert [rep.context["m"] for rep in harness.spq_checks(config)] == [0, 1, 2, 3, 4]
        assert specs and all(s is spec for s in specs)


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

    @pytest.mark.parametrize("data,key,value", [
        ({"dim": "x"}, "dim", "x"),
        ({"alpha": "abc"}, "alpha", "abc"),
        ({"tree_seed": 1.5}, "tree_seed", 1.5),
        ({"tree_depth": "2"}, "tree_depth", "2"),
        ({"f_mode_count": "a"}, "f_mode_count", "a"),
        ({"window_depth": "a"}, "window_depth", "a"),
        ({"strict": "no"}, "strict", "no"),
        ({"grid_n": "abc"}, "grid_n", "abc"),
        ({"leaves": [[-1, "a"]]}, "leaves", [[-1, "a"]]),
        ({"f_modes": [[3.0, 0.5]]}, "f_modes", [[3.0, 0.5]]),
        ({"f_annulus": [1.0, 2.0, 3.0]}, "f_annulus", [1.0, 2.0, 3.0]),
        ({"dict_spec": {"n_tau": "3"}}, "n_tau", "3"),
    ])
    def test_bad_value_named(self, data, key, value):
        # values are checked against the field type, not coerced
        with pytest.raises(ValidationError, match=re.escape(f"{key!r} takes")) as err:
            RunConfig.from_dict(data)
        assert repr(value) in str(err.value)

    def test_json_numbers_kept_as_written(self):
        config = RunConfig.from_dict({"alpha": 3, "grid_b": 8})
        assert config.alpha == 3 and isinstance(config.alpha, int)
        assert config.config_hash() == RunConfig(alpha=3, grid_b=8).config_hash()

    @pytest.mark.parametrize("field,value", [("tree_depth", -1)])
    def test_negative_tree_size_recorded_at_tree_stage(self, field, value):
        record = run(RunConfig(**{field: value}))
        assert record["error"]["stage"] == "tree"
        assert record["error"]["type"] == "ValidationError"
        assert f"{field} must be" in record["error"]["message"]

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_below_one_recorded_at_grid_stage(self, dim):
        record = run(RunConfig(dim=dim))
        assert record["error"] == {"stage": "grid", "type": "ValidationError",
                                   "message": f"dim must be an integer >= 1, not {dim}"}

    def test_empty_p_values_recorded_at_config_stage(self):
        record = run(RunConfig(p_values=()))
        assert record["error"]["stage"] == "config"
        assert record["error"]["type"] == "ValidationError"
        assert "p_values" in record["error"]["message"]
        assert "report_summary" not in record

    def test_exponent_names_run_as_numbers(self):
        # the run reads the parsed exponents, not the names as given
        named = run(replace(REFERENCE_CONFIG, p_values=("2",)))
        assert "error" not in named
        assert named == run(replace(REFERENCE_CONFIG, p_values=(2.0,)))

    @pytest.mark.parametrize("depth", [-1, -3])
    def test_negative_window_depth_recorded_at_config_stage(self, depth):
        # a negative depth would evaluate no Carleson or off-tree cube
        record = run(replace(REFERENCE_CONFIG, window_depth=depth))
        assert record["error"] == {
            "stage": "config", "type": "ValidationError",
            "message": f"window_depth must be >= 0, not {depth}"}

    def test_empty_p_values_refused_from_dict(self):
        with pytest.raises(ValidationError, match="p_values"):
            RunConfig.from_dict({"p_values": []})

    def test_leaf_dimension_checked_against_dim(self):
        record = run(RunConfig(dim=2, grid_n=1 << 8, leaves=((-1, 0),)))
        assert record["error"]["stage"] == "tree"
        assert record["error"]["type"] == "ValidationError"

    def test_explicit_leaves(self):
        config = RunConfig(dim=1, leaves=((-2, 1), (-1, 1)))
        cfg = build_tree_config(config)
        assert cfg.leaves == (DyadicCube(-2, (1,)), DyadicCube(-1, (1,)))

    def test_hash_changes(self):
        a = RunConfig(tree_seed=0)
        b = RunConfig(tree_seed=1)
        assert a.config_hash() != b.config_hash()


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
        # one projection per separation, plus the base of a second tree
        assert len(seen) == (3 if second_tree_seed is None else 4)
        assert None not in seen
        assert len({id(frame) for frame in seen}) == frames

    def test_off_lattice_rejected(self):
        config = RunConfig(dim=1, grid_n=1 << 13, tree_depth=1, leaf_count=1)
        with pytest.raises(ValidationError):
            modulation_demo(config, separations=[0.0, 0.03])

    def test_no_separations_rejected(self):
        config = RunConfig(dim=1, grid_n=1 << 13, tree_depth=1, leaf_count=1)
        with pytest.raises(ValidationError, match="separations"):
            modulation_demo(config, separations=[])


class TestRankCorrelation:
    """rank_correlation equals scipy.stats.spearmanr(x, y).statistic bit
    for bit, NaN where it is NaN."""

    @staticmethod
    def assert_equals_scipy(x, y):
        from scipy import stats
        with warnings.catch_warnings():
            # constant inputs and n = 2 warn in scipy; the value is compared
            warnings.simplefilter("ignore")
            expected = float(stats.spearmanr(x, y).statistic)
        actual = rank_correlation(x, y)
        if math.isnan(expected):
            assert math.isnan(actual), (x, y)
        else:
            assert np.float64(actual).tobytes() == np.float64(expected).tobytes(), (x, y)

    def test_random_floats(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            self.assert_equals_scipy(rng.standard_normal(n), rng.standard_normal(n) * 1e3)

    def test_integers_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            high = int(rng.integers(2, 6))
            x = rng.integers(0, high, n)
            y = rng.integers(0, high, n)
            if x.min() == x.max() or y.min() == y.max():
                continue
            self.assert_equals_scipy(x.tolist(), y.tolist())

    @pytest.mark.parametrize("x,y", [
        ([], []), ([1.0], [2.0]), ([1.0, 2.0], [3.0, 4.0]), ([1.0, 2.0], [4.0, 3.0]),
        ([2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
         [0.9, 0.5, 0.51, 1e-3, 1e-12, 0.0, 0.0]),
    ], ids=["n0", "n1", "n2-rising", "n2-falling", "demo-shape"])
    def test_short_inputs(self, x, y):
        self.assert_equals_scipy(x, y)

    @pytest.mark.parametrize("x,y", [
        ([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [0.0, 0.0, 0.0]),
        ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [math.nan, 2.0, 1.0]),
        ([math.nan] * 3, [1.0, 2.0, 3.0]), ([math.nan, 1.0, 1.0], [1.0, 2.0, 3.0]),
    ], ids=["constant-x", "constant-y", "nan-in-x", "nan-in-y", "all-nan", "nan-and-tie"])
    def test_undefined_is_nan(self, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no 0/0 inside np.corrcoef
            assert math.isnan(rank_correlation(x, y))
        self.assert_equals_scipy(x, y)


class TestBaselinesFile:
    def test_loadable(self):
        values = load_baselines()
        assert isinstance(values, dict)
