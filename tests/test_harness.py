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
from phaseproj.grid import (
    SampledField,
    TorusGrid,
    plane_wave,
    save_field,
    zero_field,
)
from phaseproj.kernels import DictionarySpec, build_dictionary
from phaseproj.harness import (
    RunConfig,
    build_f,
    build_tree_config,
    field_from_modes,
    random_partition_cells,
    generate_tree,
    load_baselines,
    mode_field,
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


class TestModeField:
    # on N = 2^14, B = 8 the lattice step is 1/16 and Nyquist 512
    @pytest.mark.parametrize("modes", [
        ((1000.0, 1.0, 0.0),), ((512.0, 1.0, 0.0),), ((-512.0, 1.0, 0.0),),
        ((0.51, 1.0, 0.0),), ((3.0, 1.0, 0.0), (3.0 + 1e-6, 1.0, 0.0)),
        (((3.0, 1.0), 1.0, 0.0),)])
    def test_aliasing_mode_recorded_at_f_stage(self, modes):
        record = run(replace(REFERENCE_CONFIG, f_modes=modes))
        assert record["error"]["stage"] == "f"
        assert record["error"]["type"] == "ValidationError"
        assert "lattice frequency below Nyquist" in record["error"]["message"]

    def test_modes_on_the_lattice_kept(self):
        grid = TorusGrid(2, 8.0, 1 << 6)
        f = mode_field(grid, (((1.5, -31 / 16), 1.0, 0.5),))
        assert np.array_equal(f.values, (1.0 + 0.5j) * plane_wave(grid, (1.5, -31 / 16)))

    def test_undrawable_annulus_bound_recorded_at_f_stage(self):
        # 1e30 * 2B is past the int64 lattice indices the generator draws from
        record = run(RunConfig(grid_n=1 << 12, f_annulus=(1.0, 1e30)))
        assert record["error"] == {
            "stage": "f", "type": "ValidationError",
            "message": "annulus bound 1e+30 is past every drawable lattice index"}


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

    def test_window_finer_than_grid_recorded_at_estimators_stage(self):
        # the window reaches level -(9 + 2), side 2^-11, below the spacing
        # 2^-6; it is refused before any table is built
        config = RunConfig(dim=1, grid_n=1 << 10, tree_depth=1, leaf_count=1,
                           strict=False, window_depth=9)
        error = run(config)["error"]
        assert error["stage"] == "estimators" and error["type"] == "ResolutionError"
        assert error["message"].endswith("need at least N=32768")

    @pytest.mark.parametrize("content", [None, b"PP"])
    def test_unreadable_field_file_recorded_at_f_stage(self, tmp_path, content):
        # a missing file, and one shorter than the field header
        path = tmp_path / "f.bin"
        if content is not None:
            path.write_bytes(content)
        record = run(replace(REFERENCE_CONFIG, f_file=str(path)))
        error = record["error"]
        assert error["stage"] == "f" and error["type"] == "ValidationError"
        assert str(path) in error["message"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_nonfinite_field_file_recorded_at_f_stage(self, tmp_path, bad):
        # one non-finite sample in a saved field: without the refusal the
        # run finished, and every Carleson and off-tree max_ratio read 0.0
        config = RunConfig(dim=1, grid_n=1 << 12, strict=False)
        grid = TorusGrid(1, config.grid_b, config.grid_n)
        values = build_f(config, grid).values.astype(np.complex128)
        values[100] = bad
        path = tmp_path / "f.bin"
        save_field(SampledField(grid, values), path)
        record = run(replace(config, f_file=str(path)))
        assert record["error"] == {"stage": "f", "type": "ValidationError",
                                   "message": f"field file {path} holds non-finite samples"}
        assert "reports" not in record

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

        def assemble(frame, f):
            builder = projection.assemble(frame, f)
            refs.extend([weakref.ref(builder), weakref.ref(builder.frame)])
            return builder

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
        assert [line.split()[0] for line in timings] == ["build", "estimators"]

    def test_rerun_from_saved_field(self, tmp_path):
        # a real f is saved as float64 and reloads real: a re-run from the
        # run's own fields/f.bin takes the real route again, and every
        # report float is the original's (the complex route moved them by
        # up to 3e-12 relative)
        config = RunConfig(dim=1, grid_n=1 << 14, tree_depth=1, leaf_count=1, strict=False)
        first = run(config, out_dir=str(tmp_path))
        again = run(replace(config, f_file=str(tmp_path / "fields" / "f.bin")))
        assert "error" not in first and "error" not in again
        assert again["reports"] == first["reports"]
        assert again["sizes"] == first["sizes"]

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
        assert [row["context"]["m"] for row in harness.spq_checks(config)] == [
            "0", "1", "2", "3", "4"]
        assert specs and all(s is spec for s in specs)

    @pytest.mark.parametrize("change,message", [
        ({"alpha": "x"}, "RunConfig key 'alpha' takes float, not 'x'"),
        ({"dict_spec": {}}, "dict_spec must be a DictionarySpec, not {}"),
        ({"leaves": ((-1, "a"),)}, "RunConfig key 'leaves' takes tuple | None"),
    ])
    def test_spq_refuses_config_values_as_run_does(self, change, message):
        config = replace(REFERENCE_CONFIG, **change)
        assert run(config)["error"]["message"].startswith(message)
        with pytest.raises(ValidationError) as refused:
            harness.spq_checks(config)
        assert str(refused.value).startswith(message)


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

    @pytest.mark.parametrize("grid_b", [10.0, math.inf, 10 ** 400])
    def test_half_width_off_the_powers_of_two_recorded_at_grid_stage(self, grid_b):
        record = run(RunConfig(grid_b=grid_b))
        assert record["error"] == {
            "stage": "grid", "type": "ValidationError",
            "message": f"half_width must be a power of two >= 8, not {grid_b!r}"}

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_below_one_recorded_at_grid_stage(self, dim):
        record = run(RunConfig(dim=dim))
        assert record["error"] == {"stage": "grid", "type": "ValidationError",
                                   "message": f"dim must be an integer >= 1, not {dim}"}

    @pytest.mark.parametrize("field,value", [
        ("leaves", ((-1, "a"),)), ("leaves", (5,)), ("f_annulus", 3), ("f_modes", (1,)),
        ("tree_seed", 1.5), ("alpha", math.inf), ("f_annulus", (1.0, math.inf)),
        ("f_modes", ((math.nan, 1, 0),)), ("f_annulus", (1, 10 ** 400)),
        ("f_annulus", (-5.0, -1.0)), ("f_annulus", (3.0, 1.0))])
    def test_bad_value_from_python_recorded_at_config_stage(self, field, value):
        # checked as RunConfig.from_dict checks it, before to_dict reads it
        record = run(RunConfig(**{field: value}))
        assert record["error"]["stage"] == "config"
        assert record["error"]["type"] == "ValidationError"
        assert f"{field!r} takes" in record["error"]["message"]
        assert repr(value) in record["error"]["message"]

    def test_empty_p_values_recorded_at_config_stage(self):
        record = run(RunConfig(p_values=()))
        assert record["error"]["stage"] == "config"
        assert record["error"]["type"] == "ValidationError"
        assert "p_values" in record["error"]["message"]
        assert "report_summary" not in record

    def test_p_values_none_recorded_at_config_stage(self, tmp_path):
        # the config and its hash enter the record once its checks pass
        record = run(RunConfig(p_values=None), out_dir=str(tmp_path))
        assert record["error"]["stage"] == "config"
        assert record["error"]["type"] == "ValidationError"
        assert "config" not in record and "config_hash" not in record
        assert json.loads((tmp_path / "report.json").read_text()) == record
        assert not (tmp_path / "config.echo").exists()

    @pytest.mark.parametrize("dict_spec", [None, {}, {"n_tau": 2}])
    def test_dict_spec_not_a_spec_recorded_at_config_stage(self, dict_spec):
        # no fallback runs another dictionary under another config hash
        record = run(replace(REFERENCE_CONFIG, dict_spec=dict_spec))
        assert record["error"] == {
            "stage": "config", "type": "ValidationError",
            "message": f"dict_spec must be a DictionarySpec, not {dict_spec!r}"}

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

    @pytest.mark.parametrize("p_values", [(2.0, 2.0), ("1", 1.0), ("inf", 2.0, math.inf)])
    def test_repeated_exponent_recorded_at_config_stage(self, p_values):
        # a repeat would report every inequality twice at that exponent
        with pytest.raises(ValidationError, match="distinct"):
            harness.parse_p_values(p_values)
        record = run(RunConfig(p_values=p_values))
        assert record["error"]["stage"] == "config"
        assert record["error"]["type"] == "ValidationError"
        assert repr(p_values) in record["error"]["message"]

    def test_empty_dict_spec_is_the_default(self):
        config = RunConfig.from_dict({"dict_spec": {}})
        assert type(config.dict_spec) is DictionarySpec
        assert config.config_hash() == RunConfig().config_hash() == "ec3b3126440966ae"

    @pytest.mark.parametrize("key", ["n_tau", "n_sinc_mod"])
    def test_negative_family_count_refused(self, key):
        # unchecked, -1 would act as 0 in range(-1) and as 1 in `if spec.n_sinc`
        with pytest.raises(ValidationError, match=f"DictionarySpec {key} must be >= 0, not -1"):
            RunConfig.from_dict({"dict_spec": {key: -1}})
        with pytest.raises(ValidationError, match=f"DictionarySpec {key} must be >= 0"):
            DictionarySpec(**{key: -1})
        assert getattr(DictionarySpec(**{key: 0}), key) == 0

    @pytest.mark.parametrize("count", [1.5, math.nan, "a"])
    def test_family_count_not_an_integer_refused(self, count):
        # 1.5 and nan were accepted and failed in range() with a bare
        # TypeError out of harness.run; "a" failed in `count < 0`
        message = f"DictionarySpec n_tau must be an integer, not {count!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            run(RunConfig(dict_spec=DictionarySpec(n_tau=count)))

    def test_family_count_past_the_float_range_refused(self):
        # accepted, and its run raised a bare OverflowError from the 2.0 ** j
        # of tau_multiplier
        config = RunConfig.from_dict({"dict_spec": {"n_psi": 10 ** 6}})
        error = run(config)["error"]
        assert error["stage"] == "estimators" and error["type"] == "ValidationError"
        assert error["message"].startswith("DictionarySpec n_psi = 1000000 ")

    def test_family_count_at_the_float_range_kept(self):
        # the coarsest class level is 0; there tau_{n_tau} is the coarsest
        # tau kernel, and 2.0 ** 1023 is the largest power of two a float
        # holds, though its products with the frequencies overflow to inf
        grid = TorusGrid(1, 8.0, 1 << 6)
        spec = DictionarySpec(n_tau=1023, n_psi=0, n_mod=0, n_trans=0, n_sinc=0, n_sinc_mod=0)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert len(build_dictionary(grid, 0, 8.0, "phi", spec)) > 0
        with pytest.raises(ValidationError, match="DictionarySpec n_tau = 1024 .* level 1024"):
            build_dictionary(grid, 0, 8.0, "phi", replace(spec, n_tau=1024))

    @pytest.mark.parametrize("data", [[1], "abc", None])
    def test_config_that_is_not_an_object_refused(self, data):
        with pytest.raises(ValidationError, match=re.escape(repr(data))):
            RunConfig.from_dict(data)

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
    # projections shared one frame per tree, and re-frozen when chi_j and
    # its derivatives took real transforms.
    GOLDEN = {
        None: "254827f33f9a399693ca06b3211e8a23b2781d0e04db032b240bf4c2fe460f8a",
        3: "7e7a8a10b5ab28ec514bd0d89b6c05fafbf3155c2f19fa05f9b1222359eb100b",
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
        seen, checked = [], []

        def assemble(frame, f):
            seen.append(frame)
            return projection.assemble(frame, f)

        def resolution_check(cfg, grid, strict):
            checked.append(cfg)
            return real_check(cfg, grid, strict)

        real_check = projection.resolution_check
        monkeypatch.setattr(harness, "assemble", assemble)
        monkeypatch.setattr(projection, "resolution_check", resolution_check)
        config = RunConfig(dim=1, grid_n=1 << 13, tree_depth=1, leaf_count=1,
                           f_annulus=(1.0, 3.0))
        modulation_demo(config, separations=[0.0, 4.0, 16.0],
                        second_tree_seed=second_tree_seed)
        # one projection per separation, plus the base of a second tree
        assert len(seen) == (3 if second_tree_seed is None else 4)
        assert len({id(frame) for frame in seen}) == frames
        # the tree is checked against the grid once per frame, not per projection
        assert len(checked) == len(set(checked)) == frames

    def test_off_lattice_rejected(self):
        config = RunConfig(dim=1, grid_n=1 << 13, tree_depth=1, leaf_count=1)
        with pytest.raises(ValidationError):
            modulation_demo(config, separations=[0.0, 0.03])

    @pytest.mark.parametrize("eta", [math.nan, math.inf, float("1e400"), -math.inf, 10 ** 400],
                             ids=["nan", "inf", "1e400", "-inf", "10**400"])
    def test_non_finite_separation_rejected(self, eta):
        config = RunConfig(dim=1, grid_n=1 << 13, tree_depth=1, leaf_count=1)
        with pytest.raises(ValidationError,
                           match=f"separation {eta!r} is not a finite real number"):
            modulation_demo(config, separations=[0.0, eta])

    def test_no_separations_rejected(self):
        config = RunConfig(dim=1, grid_n=1 << 13, tree_depth=1, leaf_count=1)
        with pytest.raises(ValidationError, match="separations"):
            modulation_demo(config, separations=[])

    def test_non_finite_mode_refused(self):
        # refused as run refuses it, not projected into a table of NaN pairings
        config = RunConfig(dim=1, grid_n=1 << 13, tree_depth=1, leaf_count=1,
                           f_modes=((math.nan, 1.0, 0.0),))
        assert run(config)["error"]["stage"] == "config"
        with pytest.raises(ValidationError, match="f_modes"):
            modulation_demo(config, separations=[0.0, 4.0])

    @pytest.mark.parametrize("source", ["modes", "file"])
    def test_zero_projection_refused(self, tmp_path, source):
        config = RunConfig(dim=1, grid_n=1 << 13, tree_depth=1, leaf_count=1,
                           f_modes=((2.0, 0.0, 0.0),))
        if source == "file":
            path = tmp_path / "zero.bin"
            save_field(zero_field(TorusGrid(1, config.grid_b, config.grid_n)), path)
            config = replace(config, f_modes=None, f_file=str(path))
        with pytest.raises(ValidationError, match="separation 0.0 has L2 norm 0"):
            modulation_demo(config, separations=[0.0, 4.0])


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
