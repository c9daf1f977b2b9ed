"""Size surrogate, inequality reports, the Bernstein sweep, sweep table."""

import hashlib
import math
import tracemalloc
import weakref
from dataclasses import replace
from math import inf

import numpy as np
import pytest
from oracles import (
    carleson_sum_scan,
    expand_band,
    field_multiplier,
    level_weights,
    mirror_free,
    offtree_geometry_scan,
    offtree_sum_scan,
    root_distance_scan,
    row_maxima,
)

from phaseproj import estimators
from phaseproj.acceptance import REFERENCE_CONFIG, ConstantTable, uniformity_by_key
from phaseproj.cubes import DyadicCube, TreeConfig, expand_to_tree, unit_cube
from phaseproj.errors import InternalConsistencyError, ValidationError
from phaseproj.estimators import (
    EstimatorContext,
    bernstein_sweep,
    enumerate_window,
    estimate_S_multi,
    level_maxima,
    level_norms,
    p_name,
    root_distance,
    root_peak_weight,
    verify_witness,
    window_cubes,
)
from phaseproj.grid import (
    SampledField,
    TorusGrid,
    apply_multiplier,
    cube_mask,
    modulate,
    rho_values,
    weight_origin,
    weight_table,
    zero_field,
)
from phaseproj.harness import _summarize as harness_summary
from phaseproj.harness import (
    RunConfig,
    build_f,
    build_tree_config,
    field_from_modes,
    random_bandpass_field,
    run,
    write_csv,
)
from phaseproj.kernels import DictionarySpec, build_dictionary
from phaseproj.projection import ProjectionFrame, assemble


def context(frame, f, window_depth, p_values=(1.0, 2.0, inf)):
    """The estimator context of f and its projection over the frame."""
    return EstimatorContext(frame.tree, f, assemble(frame, f).g, DictionarySpec(),
                            p_values, window_depth)


@pytest.fixture(scope="module")
def setup():
    grid = TorusGrid(1, 8.0, 1 << 13)
    frame = ProjectionFrame(TreeConfig((DyadicCube(-1, (0,)),), 0, 2.0), grid, True)
    f = random_bandpass_field(grid, seed=21, annulus=(1.0, 3.0), n_modes=6)
    return frame, f, context(frame, f, 1)


class TestSize:
    def test_zero_input(self, setup):
        frame, _, _ = setup
        zero = zero_field(frame.grid)
        assert estimate_S_multi(frame.tree, zero, (2.0,), DictionarySpec())[2.0].value == 0.0

    def test_homogeneity(self, setup):
        frame, f, ctx = setup
        est2 = estimate_S_multi(frame.tree, 2.0 * f, (2.0,), DictionarySpec())[2.0]
        assert est2.value == pytest.approx(2 * ctx.sizes[2.0].value, rel=1e-12)

    def test_mode_outside_every_band(self, setup):
        frame, _, _ = setup
        # dictionaries at class levels <= -2 vanish beyond |xi| = 8;
        # a mode at 100 sees none of them
        x = frame.grid.axis_points
        mode = SampledField(frame.grid, np.exp(2j * np.pi * 100.0 * x))
        assert estimate_S_multi(frame.tree, mode, (2.0,), DictionarySpec())[2.0].value <= 1e-12

    def test_witness_reproduces(self, setup):
        _, f, ctx = setup
        for p in (1.0, 2.0, inf):
            est = ctx.sizes[p]
            assert verify_witness(f, est, DictionarySpec()) == est.value

    def test_unreproduced_witness_raises(self, setup, monkeypatch):
        frame, f, ctx = setup
        monkeypatch.setattr(estimators, "verify_witness",
                            lambda f, est, dict_spec: est.value * (1 + 2 ** -52))
        with pytest.raises(InternalConsistencyError, match="re-evaluates"):
            EstimatorContext(frame.tree, f, ctx.g, DictionarySpec(), (2.0,), 1)

    def test_monotone_in_dictionary(self, setup):
        frame, f, _ = setup
        small = estimate_S_multi(frame.tree, f, (2.0,), DictionarySpec(1, 1, 0, 0, 1, 0))[2.0]
        big = estimate_S_multi(frame.tree, f, (2.0,), DictionarySpec(3, 2, 2, 2, 1, 2))[2.0]
        assert big.value >= small.value - 1e-15

    def test_modulation_covariance(self, setup):
        # modulating f and every dictionary kernel together leaves the
        # weighted norms unchanged; with the kernel responses it means
        # |response| is invariant, checked through one explicit kernel
        frame, f, _ = setup
        from phaseproj.grid import (
            apply_multiplier,
            kernel_field_from_multiplier,
            lp_norms,
            rho_values,
        )
        from phaseproj.kernels import build_dictionary
        eta = 2.0
        grid = frame.grid
        kernels = build_dictionary(grid, -3, 8.0, "phi", DictionarySpec())
        f_mod = modulate(f, eta)
        cube = DyadicCube(-1, (0,))
        w = rho_values(grid, cube) ** -2.0
        for kernel in kernels[:3]:
            resp = apply_multiplier(f, kernel.multiplier)
            shifted = modulate(kernel_field_from_multiplier(
                grid, expand_band(grid, kernel.multiplier)), eta)
            resp_mod = apply_multiplier(f_mod, field_multiplier(shifted))
            h = grid.spacing
            a = lp_norms(np.abs(resp.values), h, (2.0,), w)[2.0]
            b = lp_norms(np.abs(resp_mod.values), h, (2.0,), w)[2.0]
            assert b == pytest.approx(a, rel=1e-10)


class TestCarleson:
    def test_disjoint_cube_is_empty(self, setup):
        _, _, ctx = setup
        rep = ctx.carleson_sum(DyadicCube(-1, (100,)), 2.0)
        assert rep["lhs"] == 0.0
        assert rep["ratio"] == 0.0

    def test_additivity_over_children(self, setup):
        _, _, ctx = setup
        parent = unit_cube(1)
        total = sum(ctx.carleson_sum(c, 2.0)["lhs"] for c in parent.children())
        own_terms = sum(v for (i, idx), v in ctx._carleson_terms[2.0].items()
                        if DyadicCube(i, idx) == parent)
        assert total + own_terms == pytest.approx(ctx.carleson_sum(parent, 2.0)["lhs"],
                                                  rel=1e-12)

    def test_monotone_in_cube(self, setup):
        _, _, ctx = setup
        child = DyadicCube(-1, (0,))
        assert ctx.carleson_sum(child, 2.0)["lhs"] <= ctx.carleson_sum(
            child.ancestor(0), 2.0)["lhs"] + 1e-15

    def test_reduction_to_tree_cubes(self):
        # the window maximum of the ratio is attained on the tree
        rng = np.random.default_rng(2)
        grid = TorusGrid(1, 8.0, 1 << 12)
        for trial in range(10):
            leaves = sorted({DyadicCube(-2, (int(k),))
                             for k in rng.choice(4, size=int(rng.integers(1, 3)),
                                                 replace=False)})
            cfg = TreeConfig(tuple(leaves), 0, 2.0)
            f = random_bandpass_field(grid, seed=100 + trial, annulus=(1.0, 3.0),
                                      n_modes=5)
            frame = ProjectionFrame(cfg, grid, False)
            ctx = context(frame, f, 2, (2.0,))
            ratios = {}
            for J in enumerate_window(1, 2):
                ratios[J] = ctx.carleson_sum(J, 2.0)["ratio"]
            overall = max(ratios.values())
            on_tree = max(r for J, r in ratios.items() if frame.tree.member(J))
            assert overall <= on_tree * (1 + 1e-12) + 1e-15


class TestOfftree:
    def test_eligibility(self, setup):
        _, _, ctx = setup
        assert ctx.offtree_geometry(DyadicCube(-2, (100,))) > 0
        assert ctx.offtree_geometry(DyadicCube(-1, (1,))) is None

    def test_far_cube_ratio_finite(self, setup):
        _, _, ctx = setup
        J = DyadicCube(-2, (14,))
        peak = ctx.offtree_geometry(J)
        assert peak is not None
        rep = ctx.offtree_sum(J, 2.0, peak)
        assert np.isfinite(rep["ratio"])
        assert rep["rhs_without_constant"] > 0

    def test_zero_f(self, setup):
        frame, _, _ = setup
        zctx = context(frame, zero_field(frame.grid), 1, (2.0,))
        J = DyadicCube(-2, (14,))
        rep = zctx.offtree_sum(J, 2.0, zctx.offtree_geometry(J))
        assert rep["lhs"] == 0.0


class TestNormReport:
    def test_zero_ratio(self, setup):
        frame, _, _ = setup
        zctx = context(frame, zero_field(frame.grid), 1, (2.0,))
        rep = zctx.norm_report(2.0)
        assert rep["ratio"] == 0.0

    def test_scaling_invariance(self, setup):
        frame, f, ctx = setup
        dctx = context(frame, 2.0 * f, 1, (2.0,))
        assert dctx.norm_report(2.0)["ratio"] == pytest.approx(
            ctx.norm_report(2.0)["ratio"], rel=1e-12)


class TestComparisons:
    def test_bernstein_increments(self, setup):
        frame, f, _ = setup
        reports = bernstein_sweep(frame.tree, f, DictionarySpec())
        ratios = {int(r["context"]["m"]): r["ratio"] for r in reports
                  if "skipped" not in r["context"]}
        ms = sorted(ratios)
        assert ms == [0, 1, 2, 3, 4]
        d = frame.grid.dim
        for a, b in zip(ms, ms[1:]):
            if ratios[a] > 0:
                assert math.log2(ratios[b] / ratios[a]) <= d + 0.5

    def test_bernstein_visits_every_tree_cube(self, setup, monkeypatch):
        grid = setup[0].grid
        cfg = TreeConfig((DyadicCube(-2, (0,)), DyadicCube(-2, (2,))), 0, 2.0)
        f = random_bandpass_field(grid, seed=4, annulus=(1.0, 3.0), n_modes=4)
        tree = ProjectionFrame(cfg, grid, False).tree
        calls = []
        real = estimators.level_norms

        def recording(field, plan, *args):
            def seen():
                for level, kernels, cubes in plan:
                    calls.append((level, list(cubes)))
                    yield level, kernels, cubes
            return real(field, seen(), *args)

        monkeypatch.setattr(estimators, "level_norms", recording)
        reports = bernstein_sweep(tree, f, DictionarySpec())
        assert [r["context"]["m"] for r in reports
                if "skipped" not in r["context"]] == ["0", "1", "2", "3", "4"]
        assert len(tree.levels()) >= 2
        assert calls == 5 * [(i, tree.cubes(i)) for i in tree.levels()]
        assert {len(cubes) for _, cubes in calls} == {1, 2}


class TestSweepTable:
    def test_uniformity_grouping(self):
        table = ConstantTable([
            {"inequality": "norm", "p": 2.0, "seed": seed, "m": m, "ratio": ratio}
            for seed, m, ratio in ((0, 0, 1.0), (0, 1, 2.0), (1, 0, 4.0), (1, 1, 4.0))])
        rows = table.uniformity()
        by_seed = {r["seed"]: r["uniformity"] for r in rows}
        assert by_seed[0] == 2.0
        assert by_seed[1] == 1.0

    def test_uniformity_of_infinite_ratios(self):
        # a group infinite at every m is as far from uniform as can be
        table = ConstantTable([
            {"inequality": "offtree", "p": 2.0, "seed": seed, "m": m, "ratio": ratio}
            for seed, m, ratio in ((0, 0, inf), (0, 1, inf), (1, 0, 1.0), (1, 1, inf))])
        assert [r["uniformity"] for r in table.uniformity()] == [inf, inf]
        assert uniformity_by_key(table) == {("offtree", 2.0): inf}

    def test_csv_bytes(self, tmp_path):
        # the sweep.csv route of `phaseproj sweep`: exponent and ratio
        # floats, with p = inf and an infinite ratio written "inf"
        table = ConstantTable([
            {"inequality": ineq, "p": p, "seed": seed, "m": m, "ratio": ratio}
            for ineq, p, seed, m, ratio in (("norm", inf, 0, 0, 1.5),
                                            ("carleson", 2.0, 1, 2, 0.1),
                                            ("offtree", 1.0, 3, 1, inf))])
        write_csv(tmp_path / "sweep.csv", table.COLUMNS, table.csv_rows())
        assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == (
            "ac03960bd27db863832766565e7efcb09848dddd3868adbc6412303624d7e37e")

    def test_determinism(self, setup):
        frame, f, ctx = setup
        a = EstimatorContext(frame.tree, f, ctx.g, DictionarySpec(), (2.0,), 1)
        b = EstimatorContext(frame.tree, f, ctx.g, DictionarySpec(), (2.0,), 1)
        assert a.sizes[2.0].value == b.sizes[2.0].value
        J = DyadicCube(-2, (14,))
        assert (a.offtree_sum(J, 2.0, a.offtree_geometry(J))["lhs"]
                == b.offtree_sum(J, 2.0, b.offtree_geometry(J))["lhs"])


# ---------------------------------------------------------------------------
# Oracles for the fast table primitives: each must equal the direct
# full-grid evaluation it replaces, bit for bit.

# SHA-256 of report.json for REFERENCE_CONFIG, frozen from the direct
# full-grid evaluation; the table primitives must leave every float as it
# was.  Re-frozen when the residual split telescoped: the diagnostics lost
# nyquist_level and the repeated tau[0] wrap flag, and nothing else moved.
# Re-frozen again when real fields took real transforms, which moved the
# last bits of the floats (test_real_route holds them to the complex route)
REFERENCE_REPORT_SHA256 = "d93acacd6a327a23fa166292b61be520927bc319ef570ed78e2a66028450920a"
# SHA-256 of the CSV files written beside it by the same run
REFERENCE_CSV_SHA256 = {
    "tree.csv": "5f2dfdc05698ce0c7e758d81b387ff9291911bf4bcb6c29a4a1a5950ab3f7168",
    "perscale.csv": "c994a2090ec73b25ed42b2326ad9b80ee194ecea6cd83442c74c7b9e9963ee41",
}
# A 2-d non-strict run (config hash 516008db5c4db577) and its report.json
# SHA-256, so drift of 2-d report bytes shows in tier-1 too; re-frozen with
# the one above, when also the last bits of residual_rel_err moved, and
# with it again for real transforms
REFERENCE_2D_CONFIG = RunConfig(dim=2, grid_n=1 << 8, tree_depth=1, leaf_count=1,
                                alpha=3.0, strict=False, window_depth=0)
REFERENCE_2D_REPORT_SHA256 = "621c97f423b3a50d1707b572125df99dd9d4ea9e58be4796bba89d9fb70f30aa"


@pytest.fixture(scope="module")
def deep():
    grid = TorusGrid(1, 8.0, 1 << 12)
    cfg = TreeConfig((DyadicCube(-2, (1,)), DyadicCube(-1, (1,))), 0, 2.0)
    f = random_bandpass_field(grid, seed=7, annulus=(1.0, 3.0), n_modes=5)
    return context(ProjectionFrame(cfg, grid, False), f, 2)


class TestTableOracles:
    @pytest.mark.parametrize("dim,samples,depth", [(1, 1 << 10, 2), (2, 1 << 6, 0),
                                                   (3, 1 << 5, -1)])
    def test_slice_weights_equal_rho_powers(self, dim, samples, depth):
        grid = TorusGrid(dim, 8.0, samples)
        for e in (2.0, 3.0, 6.0, 9.0):
            for level in range(0, -(depth + 3), -1):
                weight = level_weights(grid, level, e)
                # in d = 3 every 37th cube of the window
                for cube in window_cubes(dim, level)[::37 if dim == 3 else 1]:
                    got = weight(cube)
                    assert np.array_equal(got, rho_values(grid, cube) ** -e), (e, cube)
                    assert got.shape == grid.shape and not got.flags.writeable

    @pytest.mark.parametrize("dim,samples", [(1, 1 << 10), (2, 1 << 6)])
    def test_clamped_root_peak_equals_grid_max(self, dim, samples):
        grid = TorusGrid(dim, 8.0, samples)
        u_mask = cube_mask(grid, [unit_cube(dim)])
        for J in enumerate_window(dim, 1):
            dist = max(root_distance(grid, c) for c in J.center)
            for alpha in (2.0, 3.0):
                full = float(np.max(rho_values(grid, J)[u_mask] ** (-alpha)))
                assert root_peak_weight(dist, J.side, alpha) == full, (J, alpha)

    @pytest.mark.parametrize("samples", [1 << 8, 1 << 10, 1 << 14, 1 << 17])
    @pytest.mark.parametrize("half_width", [8.0, 16.0])
    def test_root_distance_equals_axis_scan(self, samples, half_width):
        # the closed form against the scan of the root's axis points, bit
        # for bit, at the centre of every cube of the deepest window that
        # the grid resolves
        grid = TorusGrid(1, half_width, samples)
        depth = int(math.log2(1.0 / grid.spacing)) - 2
        centres = np.array([J.center[0] for J in enumerate_window(1, depth)])
        got = np.array([root_distance(grid, c) for c in centres])
        assert np.array_equal(got, root_distance_scan(grid, centres))

    def test_carleson_sum_equals_contains_scan(self, setup, deep):
        for ctx in (setup[2], deep):
            for J in [*enumerate_window(1, ctx.depth), DyadicCube(1, (0,))]:
                for p in ctx.p_values:
                    lhs, by_level = 0.0, {}
                    for (i, idx), value in sorted(ctx._carleson_terms[p].items()):
                        if J.contains(DyadicCube(i, idx)):
                            lhs += value
                            by_level[i] = by_level.get(i, 0.0) + value
                    rep = ctx.carleson_sum(J, p)
                    assert rep["lhs"] == lhs
                    assert [row["term"] for row in rep["per_scale"]] == [
                        by_level[i] for i in sorted(by_level, reverse=True)]

    @pytest.fixture(scope="class")
    def plane(self):
        # d = 2 with two leaves, so that some neighbours hold a leaf
        grid = TorusGrid(2, 8.0, 1 << 8)
        cfg = TreeConfig((DyadicCube(-1, (1, 0)), DyadicCube(-1, (0, 1))), 0, 3.0)
        f = random_bandpass_field(grid, seed=5, annulus=(1.0, 3.0), n_modes=5)
        return context(ProjectionFrame(cfg, grid, False), f, 0)

    @pytest.mark.parametrize("which", ["deep", "plane"])
    def test_per_cube_answers_equal_scans(self, which, request):
        # the table-backed answers against the scans of every term, bit
        # for bit (repr tells -0.0 from 0.0), for each window cube and
        # for cubes above, below and far outside the window
        ctx = request.getfixturevalue(which)
        d = ctx.d
        outside = [DyadicCube(1, (0,) * d), DyadicCube(1, (2,) * d), DyadicCube(1, (-3,) * d),
                   DyadicCube(-5, (3,) * d), DyadicCube(-5, (40,) * d),
                   DyadicCube(-1, (1000,) * d), DyadicCube(-2, (-17,) * d)]
        ineligible = 0
        for J in [*enumerate_window(d, ctx.depth), *outside]:
            peak = ctx.offtree_geometry(J)
            assert repr(peak) == repr(offtree_geometry_scan(ctx, J)), J
            ineligible += peak is None
            for p in ctx.p_values:
                assert (repr(ctx.carleson_sum(J, p))
                        == repr(carleson_sum_scan(ctx, J, p))), (J, p)
                if peak is not None:
                    assert (repr(ctx.offtree_sum(J, p, peak))
                            == repr(offtree_sum_scan(ctx, J, p))), (J, p)
        assert ineligible > 0

    @pytest.mark.parametrize("which", ["deep", "plane"])
    def test_window_rows_in_report_order(self, which, request):
        # the order report.json holds: by inequality, then by p by p_name,
        # then by J by label; carleson rows for every window cube, off-tree
        # rows for the eligible ones
        ctx = request.getfixturevalue(which)
        rows = ctx.evaluate_window()
        keys = [(row["inequality"], p_name(row["p"]), row["context"].get("J", ""))
                for row in rows]
        assert keys == sorted(set(keys))
        window = list(enumerate_window(ctx.d, ctx.depth))
        labels = sorted(J.label() for J in window)
        eligible = sorted(J.label() for J in window if ctx.offtree_geometry(J) is not None)
        assert 0 < len(eligible) < len(labels)
        names = sorted(map(p_name, ctx.p_values))
        assert keys == ([("carleson", p, J) for p in names for J in labels]
                        + [("norm", p, "") for p in names]
                        + [("offtree", p, J) for p in names for J in eligible])
        # the rows of one inequality and cube share one context at every p
        shared = {id(row["context"]) for row in rows if row["inequality"] != "norm"}
        assert len(shared) == len(labels) + len(eligible)

    @pytest.mark.parametrize("dim,depth", [(1, 8), (2, 1)])
    def test_window_in_label_order(self, dim, depth):
        # the (1, 8) window holds levels -1 and -10, and "-10:" sorts first
        cubes = list(enumerate_window(dim, depth))
        assert [J.label() for J in cubes] == sorted(J.label() for J in cubes)
        assert sorted(cubes) == sorted(c for level in range(0, -(depth + 3), -1)
                                       for c in window_cubes(dim, level))

    def test_window_rows_set_the_peak(self):
        # the rows of a 2-d window set the peak RSS of its run.  Built into
        # lists as they are made, from cubes made one at a time, they are
        # all the call holds at its peak (1.004); a sort over the finished
        # rows reads about 1.14, and keeping a list of the window's cubes
        # 1.07
        config = RunConfig(dim=2, grid_n=1 << 8, tree_depth=1, leaf_count=1, alpha=3.0,
                           strict=False)
        grid = TorusGrid(2, config.grid_b, config.grid_n)
        ctx = context(ProjectionFrame(build_tree_config(config), grid, False),
                      build_f(config, grid), None)
        tracemalloc.start()
        try:
            rows = ctx.evaluate_window()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 41259
        assert peak <= 1.03 * held, peak / held

    def test_reference_report_bytes(self, tmp_path):
        record = run(REFERENCE_CONFIG, out_dir=str(tmp_path))
        assert "error" not in record
        digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == REFERENCE_REPORT_SHA256
        for name, expected in REFERENCE_CSV_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == expected

    def test_2d_report_bytes(self, tmp_path):
        assert REFERENCE_2D_CONFIG.config_hash() == "516008db5c4db577"
        record = run(REFERENCE_2D_CONFIG, out_dir=str(tmp_path))
        assert "error" not in record
        digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == REFERENCE_2D_REPORT_SHA256


class TestAxisSwap:
    @pytest.mark.parametrize("leaves", [None, ((-1, 1, 0),)])
    def test_sizes_and_headlines_keep_their_values(self, leaves):
        # swapping the axes of f and of the tree maps the dictionaries, the
        # window and the tables onto themselves: S at each p and every
        # headline ratio of the 2-d N = 2^8 config stay equal to roundoff.
        # Its own tree, one leaf at (1, 1), is its own swap; the leaf at
        # (1, 0) is not.  S, the norm and the off-tree headlines agree to
        # 1e-14.  The Carleson terms are responses of f - g in the bands
        # where f - g nearly cancels (ratios near 1e-5), so the FFT
        # roundoff of the transposed field reads 5e-12 to 6e-11 there, even
        # with g itself transposed
        config = RunConfig(dim=2, grid_n=1 << 8, tree_depth=1, leaf_count=1, alpha=3.0,
                           strict=False, leaves=leaves)
        grid = TorusGrid(2, config.grid_b, config.grid_n)
        cfg = build_tree_config(config)
        f = build_f(config, grid)
        swapped = TreeConfig(tuple(DyadicCube(c.level, c.index[::-1]) for c in cfg.leaves),
                             cfg.gap_m, cfg.alpha)
        assert (swapped == cfg) == (leaves is None)
        assert not np.array_equal(f.values, f.values.T)
        sizes, summaries = [], []
        for tree_cfg, field in ((cfg, f), (swapped, SampledField(grid, f.values.T))):
            ctx = context(ProjectionFrame(tree_cfg, grid, False), field, None)
            sizes.append({p: est.value for p, est in ctx.sizes.items()})
            summaries.append(harness_summary(ctx.evaluate_window()))
        for p, value in sizes[0].items():
            assert value > 0 and abs(sizes[1][p] - value) <= 1e-13 * value, p
        assert summaries[0].keys() == summaries[1].keys()
        for key, entry in summaries[0].items():
            other = summaries[1][key]
            assert (entry["count"], entry["finite"]) == (other["count"], other["finite"]), key
            tol = 1e-9 if key.startswith("carleson") else 1e-13
            assert abs(other["max_ratio"] - entry["max_ratio"]) <= tol * entry["max_ratio"], key


# ---------------------------------------------------------------------------
# The per-cube norms and maxima.

def serial_level_norms(field, plan, weight_exp, p_values):
    """The per-cube loop with every array made afresh, norms written out
    in full; on a real field without each kernel whose mirror comes before
    it."""
    grid = field.grid
    h_d = grid.spacing ** grid.dim
    for level, kernels, cubes in plan:
        responses = [(k.kernel_id,
                      np.abs(apply_multiplier(field, k.multiplier, True, k.real).values))
                     for k in (mirror_free(kernels) if field.is_real else kernels)]
        weight_of = level_weights(grid, level, weight_exp)
        for cube in cubes:
            weight = weight_of(cube)
            rows = []
            for kernel_id, resp_mag in responses:
                mag = weight * resp_mag
                norms = {}
                for p in p_values:
                    if p == inf:
                        norms[p] = float(np.max(mag))
                    elif p == 1.0:
                        norms[p] = float(np.sum(mag) * h_d)
                    elif p == 2.0:
                        norms[p] = float(np.sqrt(np.sum(mag * mag) * h_d))
                    else:
                        norms[p] = float((np.sum(mag ** p) * h_d) ** (1.0 / p))
                rows.append((kernel_id, norms))
            yield cube, rows


def norm_case(dim):
    """A field and a plan of two levels: each level with a dictionary and
    cubes at it."""
    if dim == 1:
        grid = TorusGrid(1, 8.0, 1 << 10)
        plan = [(-1, build_dictionary(grid, -3, 8.0, "phi", DictionarySpec()),
                 [DyadicCube(-1, (k,)) for k in range(-8, 9)]),
                (0, build_dictionary(grid, -2, 8.0, "psi", DictionarySpec()),
                 [DyadicCube(0, (k,)) for k in range(-4, 5)])]
    elif dim == 2:
        grid = TorusGrid(2, 8.0, 1 << 6)
        spec = DictionarySpec(2, 1, 1, 1)
        plan = [(0, build_dictionary(grid, -1, 12.0, "phi", spec),
                 [DyadicCube(0, (a, b)) for a in range(-3, 4) for b in (-1, 0, 2)]),
                (1, build_dictionary(grid, 0, 12.0, "phi", spec),
                 [DyadicCube(1, (a, b)) for a in (-2, 0, 1) for b in (-1, 2)])]
    else:
        grid = TorusGrid(3, 8.0, 1 << 5)
        spec = DictionarySpec(1, 1, 1, 1, 1, 1)
        plan = [(0, build_dictionary(grid, 0, 16.0, "phi", spec),
                 [DyadicCube(0, (a, b, c)) for a in (-2, 0, 1) for b in (-1, 1) for c in (0, 3)]),
                (1, build_dictionary(grid, 1, 16.0, "psi", spec),
                 [DyadicCube(1, (a, -1, b)) for a in (-1, 0) for b in (-2, 1)])]
        field = random_bandpass_field(grid, seed=5, annulus=(0.25, 0.75), n_modes=4)
        return field, plan
    field = random_bandpass_field(grid, seed=5, annulus=(1.0, 2.0), n_modes=4)
    return field, plan


def watched_writes(monkeypatch, before):
    """Make estimators.response_writer call before(out) ahead of each
    response it writes into the buffer `out`.  Returns the list that each
    write appends (id(out), a weak reference to out) to."""
    written, real = [], estimators.response_writer

    def writer(field):
        write = real(field)

        def watched(band, out, real):
            before(out)
            written.append((id(out), weakref.ref(out)))
            return write(band, out, real)
        return watched

    monkeypatch.setattr(estimators, "response_writer", writer)
    return written


def response_peak(call, field, plan, p_values):
    """tracemalloc's peak of one call, consumed, in float arrays of the
    grid shape, after an untraced call has made the spectrum of the field
    and the scratch array."""
    list(call(field, plan, 2.0, p_values))
    tracemalloc.start()
    try:
        rows = list(call(field, plan, 2.0, p_values))
        peak = tracemalloc.get_traced_memory()[1] / (field.grid.size * 8)
    finally:
        tracemalloc.stop()
    return rows, peak


class TestLevelNorms:
    P_VALUES = (1.0, 2.0, inf, 3.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_equal_serial_loop(self, dim):
        field, plan = norm_case(dim)
        for exponent in (2.0, 6.0):
            got = list(level_norms(field, iter(plan), exponent, self.P_VALUES))
            assert got == list(serial_level_norms(field, plan, exponent, self.P_VALUES))

    def test_task_error_reaches_caller(self):
        field, plan = norm_case(1)
        with pytest.raises(ValidationError, match="p must be positive"):
            list(level_norms(field, plan, 2.0, (1.0, 0.0)))

    def test_response_error_reaches_caller(self, monkeypatch):
        # the third response's FFT fails
        field, plan = norm_case(1)
        failing_third_response(monkeypatch)
        with pytest.raises(MemoryError, match="no room"):
            list(level_norms(field, plan, 2.0, self.P_VALUES))

    def test_plan_error_reaches_caller(self):
        field, plan = norm_case(1)

        def broken_plan():
            yield plan[0]
            raise LookupError("no second dictionary")

        with pytest.raises(LookupError, match="no second dictionary"):
            list(level_norms(field, broken_plan(), 2.0, self.P_VALUES))

    def test_no_task_and_one_buffer(self, monkeypatch):
        # no task (estimators may import no executor: test_imports.py), and
        # every response of the call is written into the same float buffer,
        # freed with the call
        field, plan = norm_case(1)
        written = watched_writes(monkeypatch, lambda out: None)
        rows = list(level_norms(field, plan, 2.0, self.P_VALUES))
        assert rows == list(serial_level_norms(field, plan, 2.0, self.P_VALUES))
        # a mirror takes the response of the kernel before it
        assert len(written) == sum(len(mirror_free(kernels)) for _, kernels, _ in plan)
        assert len({key for key, _ in written}) == 1
        assert all(ref() is None for _, ref in written)

    @pytest.mark.parametrize("dim,peak_bound", [(1, 26.0), (2, 21.2)])
    def test_peak_within_parents(self, dim, peak_bound):
        # besides the rows it returns, the call holds one response, one
        # scratch array, the writer's complex array and a level's weight
        # table: it peaked at 25.0 and 20.2 grid floats (traced), and the
        # bound allows one grid float more
        field, plan = norm_case(dim)
        rows, peak = response_peak(level_norms, field, plan, self.P_VALUES)
        assert rows == list(serial_level_norms(field, plan, 2.0, self.P_VALUES))
        assert peak <= peak_bound, peak

    def test_mirrors_take_no_row(self, monkeypatch):
        # on a real field a kernel whose mirror comes before it in its level
        # names no row, and the size witness, a ladder box with a mirror, is
        # re-evaluated from one response, its own
        field, plan = norm_case(1)
        assert field.is_real
        for level, kernels, cubes in plan:
            first = [k.kernel_id for k in mirror_free(kernels)]
            assert len(first) < len(kernels)
            for _, rows in level_norms(field, [(level, kernels, cubes)], 2.0, (2.0,)):
                assert [kernel_id for kernel_id, _ in rows] == first
        grid = TorusGrid(1, 8.0, 1 << 12)
        f = field_from_modes(grid, [((96,), 1.0 + 0.5j)])
        tree = expand_to_tree(TreeConfig((DyadicCube(-1, (0,)),), 0, 2.0))
        est = estimate_S_multi(tree, f, (2.0,), DictionarySpec())[2.0]
        assert est.witness[2] == "sincpow[phi,-3,eta=-4]"
        written = watched_writes(monkeypatch, lambda out: None)
        assert verify_witness(f, est, DictionarySpec()) == est.value
        assert len(written) == 1

    def test_abandoned_generator(self):
        # as verify_witness does: one row, then the generator is dropped
        field, plan = norm_case(1)
        rows = level_norms(field, plan, 2.0, self.P_VALUES)
        assert next(rows) == next(serial_level_norms(field, plan, 2.0, self.P_VALUES))
        del rows
        for dim in (2, 1):  # the scratch follows the grid shape
            field, plan = norm_case(dim)
            got = list(level_norms(field, plan, 2.0, self.P_VALUES))
            assert got == list(serial_level_norms(field, plan, 2.0, self.P_VALUES))


def failing_third_response(monkeypatch):
    """Make the third response that estimators.response_writer writes
    fail with a MemoryError."""
    computed, real = [], estimators.response_writer

    def writer(field):
        write = real(field)

        def failing(band, out, real):
            if len(computed) == 2:
                raise MemoryError("no room for a response")
            computed.append(band)
            return write(band, out, real)
        return failing

    monkeypatch.setattr(estimators, "response_writer", writer)


def serial_maxima(field, plan, weight_exp, p_values):
    """(cube, row_maxima) of each serial_level_norms row."""
    return [(cube, row_maxima(rows, p_values))
            for cube, rows in serial_level_norms(field, plan, weight_exp, p_values)]


def counting_norms(monkeypatch):
    """The p_values of each grid.lp_norms call that the estimators make,
    in a list that the calls append to."""
    calls, real = [], estimators.lp_norms

    def counting(mag, h_d, p_values, weight=None, out=None):
        calls.append(tuple(p_values))
        return real(mag, h_d, p_values, weight, out)

    monkeypatch.setattr(estimators, "lp_norms", counting)
    return calls


class TestLevelMaxima:
    P_VALUES = (1.0, 2.0, inf, 3.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_maxima_equal_max_of_serial_rows(self, dim):
        field, plan = norm_case(dim)
        for f in (field, zero_field(field.grid)):
            for exponent in (2.0, 6.0):
                got = list(level_maxima(f, iter(plan), exponent, self.P_VALUES))
                assert got == serial_maxima(f, plan, exponent, self.P_VALUES)

    def test_unbounded_p_and_empty_level(self, monkeypatch):
        # p below 1 gets no bound and takes every kernel's norm, p = inf
        # still one product per cube; a level without kernels reads 0.0
        field, plan = norm_case(2)
        plan = plan + [(0, [], plan[0][2][:2])]
        want = serial_maxima(field, plan, 6.0, (0.5, inf))
        calls = counting_norms(monkeypatch)
        assert list(level_maxima(field, plan, 6.0, (0.5, inf))) == want
        assert want[-1][1] == {0.5: 0.0, inf: 0.0}
        assert calls.count((inf,)) == sum(len(c) for _, k, c in plan if k)
        assert calls.count((0.5,)) == sum(len(mirror_free(k)) * len(c) for _, k, c in plan)

    @pytest.mark.parametrize("bad", [math.nan, inf])
    def test_nonfinite_chunk_takes_every_norm(self, bad, monkeypatch):
        # one kernel of the first level answers with non-finite values
        # everywhere: its chunk takes each of its kernels' norms at every p,
        # and the max skips a nan as the rows' max does; the other chunks
        # prune, and p = inf takes one product with their pointwise max
        field, plan = norm_case(1)
        (level, kernels, cubes), rest = plan[0], plan[1:]
        assert len(kernels) > estimators.KERNEL_CHUNK
        multiplier = kernels[1].multiplier.copy()
        multiplier[0] = bad
        bad = replace(kernels[1], kernel_id="bad", multiplier=multiplier, mirror=None)
        kernels = [kernels[0], bad, *kernels[2:]]
        plan = [(level, kernels, cubes), *rest]
        want = serial_maxima(field, plan, 2.0, self.P_VALUES)
        calls = counting_norms(monkeypatch)
        assert list(level_maxima(field, plan, 2.0, self.P_VALUES)) == want
        assert calls.count(self.P_VALUES) == len(cubes) * estimators.KERNEL_CHUNK
        assert calls.count((inf,)) == sum(len(c) for _, _, c in plan)
        finite = (1.0, 2.0, 3.0)
        assert calls.count(finite) < sum(len(k) * len(c) for _, k, c in plan) / 2

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bounds_hold(self, dim):
        # the block sums of w^p equal direct sums over the cube's weight,
        # and each kernel's bound, widened by the margin, is at least its
        # norm, for every cube, kernel and finite p (in d = 3 a weight that
        # falls by 2^-18 per cell meets its bound to an ulp); the field is
        # real, so the kernels whose mirrors come before them are left out,
        # as level_maxima leaves them out
        field, plan = norm_case(dim)
        grid = field.grid
        h_d = grid.spacing ** dim
        size = estimators.BOUND_BLOCK
        for exponent in (2.0, 6.0):
            for level, kernels, cubes in plan:
                kernels = mirror_free(kernels)
                responses = [np.abs(apply_multiplier(field, k.multiplier).values)
                             for k in kernels]
                table = weight_table(grid, level, exponent)
                origins = [weight_origin(grid, level, cube) for cube in cubes]
                powers = estimators._block_powers(responses, self.P_VALUES)
                sums = estimators._block_sums(grid, level, table, origins, self.P_VALUES)
                assert sorted(powers) == [1.0, 2.0, 3.0]
                rows = dict(serial_level_norms(field, [(level, kernels, cubes)], exponent,
                                               self.P_VALUES))
                weight_of = level_weights(grid, level, exponent)
                for cube, cube_sums in zip(cubes, sums):
                    for p in powers:
                        blocks = weight_of(cube) ** p
                        for ax in range(dim):
                            blocks = np.add.reduceat(blocks, np.arange(0, grid.samples, size),
                                                     axis=ax)
                        np.testing.assert_allclose(cube_sums[p], blocks, rtol=1e-12)
                    for p, bound in estimators._bounds(powers, cube_sums, h_d).items():
                        norms = [row[p] for _, row in rows[cube]]
                        assert all(b * (1.0 + estimators.BOUND_MARGIN) >= norm
                                   for b, norm in zip(bound, norms)), (cube, p)

    def test_offtree_table_prunes_most_norms(self, monkeypatch):
        # on the 2-d N = 2^8 config: one p = inf product per cube, and the
        # exact finite-p norms of at most a quarter of the (cube, kernel)
        # pairs; the table is the one built with every norm
        config = RunConfig(dim=2, grid_n=1 << 8, tree_depth=1, leaf_count=1, alpha=3.0,
                           strict=False)
        grid = TorusGrid(2, config.grid_b, config.grid_n)
        frame = ProjectionFrame(build_tree_config(config), grid, False)
        ctx = context(frame, build_f(config, grid), None)
        levels = range(ctx.offtree_floor, 1)
        cubes = {i: [c for c in window_cubes(2, i)
                     if c.index not in ctx.tree.slice_indices(i)] for i in levels}
        kernels = {i: _dictionary_of(ctx, i) for i in levels}
        want = {p: {i: rows_of_level(ctx, i, p, cubes[i], kernels[i]) for i in levels}
                for p in ctx.p_values}
        calls = counting_norms(monkeypatch)
        tables, _ = ctx._build_offtree_terms()
        pairs = sum(len(cubes[i]) * len(kernels[i]) for i in levels)
        products = calls.count((inf,))
        assert products == sum(len(c) for c in cubes.values())
        assert len(calls) - products <= 0.25 * pairs, (len(calls) - products, pairs)
        for p in ctx.p_values:
            for i in levels:
                window_lo, table = tables[p][i]
                assert np.array_equal(table, ctx._offtree_terms[p][i][1])
                for cube, best in want[p][i]:
                    assert table[tuple(k - window_lo for k in cube.index)] == best


def _dictionary_of(ctx, level):
    return estimators._dictionary(ctx.grid, level - ctx.m, ctx.alpha, "psi", ctx.dict_spec)


def rows_of_level(ctx, level, p, cubes, kernels):
    """(cube, off-tree term at p) of the given cubes, from the max of
    their serial_level_norms rows."""
    rows = serial_level_norms(ctx.g, [(level, kernels, cubes)], 3 * ctx.alpha, (p,))
    return [(cube, 2.0 ** (-level * ctx.d * estimators._inv(p)) * row_maxima(row, (p,))[p])
            for cube, row in rows]


class TestMaximaOrder:
    P_VALUES = (1.0, 2.0, inf, 3.0)

    def test_task_error_reaches_caller(self, monkeypatch):
        field, plan = norm_case(1)

        def failing(*args):
            raise FloatingPointError("no norm")

        monkeypatch.setattr(estimators, "lp_norms", failing)
        with pytest.raises(FloatingPointError, match="no norm"):
            list(level_maxima(field, plan, 2.0, self.P_VALUES))

    def test_nonpositive_p_refused(self):
        field, plan = norm_case(1)
        with pytest.raises(ValidationError, match="p must be positive"):
            level_maxima(field, plan, 2.0, (1.0, 0.0))

    def test_nan_p_refused(self):
        field, plan = norm_case(1)
        with pytest.raises(ValidationError, match="p must be positive"):
            level_maxima(field, plan, 2.0, (1.0, math.nan))

    def test_response_error_reaches_caller(self, monkeypatch):
        # the third response's FFT fails
        field, plan = norm_case(1)
        failing_third_response(monkeypatch)
        with pytest.raises(MemoryError, match="no room"):
            list(level_maxima(field, plan, 2.0, self.P_VALUES))

    def test_plan_error_reaches_caller(self):
        field, plan = norm_case(1)

        def broken_plan():
            yield plan[0]
            raise LookupError("no second dictionary")

        with pytest.raises(LookupError, match="no second dictionary"):
            list(level_maxima(field, broken_plan(), 2.0, self.P_VALUES))

    def test_one_level_of_responses_alive(self, monkeypatch):
        # at each pull of the plan, which builds the next level's
        # dictionary, every response buffer and weight table of the levels
        # before is dead
        field, plan = norm_case(1)
        plan = plan + [(level, kernels, cubes[:3]) for level, kernels, cubes in plan]
        written = watched_writes(monkeypatch, lambda out: None)
        tables, weight_table_of = [], estimators.weight_table

        def watched_table(*args):
            table = weight_table_of(*args)
            tables.append(weakref.ref(table))
            return table

        monkeypatch.setattr(estimators, "weight_table", watched_table)
        pulled = []   # responses written at each pull of the plan

        def watched():
            for entry in plan:
                assert all(ref() is None for _, ref in written)
                assert all(ref() is None for ref in tables)
                pulled.append(len(written))
                yield entry

        rows = list(level_maxima(field, watched(), 2.0, self.P_VALUES))
        assert rows == serial_maxima(field, plan, 2.0, self.P_VALUES)
        assert pulled == list(np.cumsum([0] + [len(mirror_free(kernels))
                                               for _, kernels, _ in plan[:-1]]))
        assert len(tables) == len(plan)

    @pytest.mark.parametrize("dim,peak_bound", [(1, 17.0), (2, 17.7)])
    def test_peak_within_parents(self, dim, peak_bound):
        # besides the rows it returns, the call holds one chunk of
        # responses, one scratch array, the pointwise max, the writer's
        # complex array and a level's weight table: it peaked at 16.0 and
        # 16.7 grid floats (traced), and the bound allows one grid float more
        field, plan = norm_case(dim)
        rows, peak = response_peak(level_maxima, field, plan, self.P_VALUES)
        assert rows == serial_maxima(field, plan, 2.0, self.P_VALUES)
        assert peak <= peak_bound, peak

    def test_two_chunks_of_responses_alive(self):
        # a level of 48 kernels holds the responses of one chunk at a time,
        # besides a few grid arrays: about 16 responses' worth at the peak,
        # against 22 with two chunks alive and 64 with every response of
        # the level alive
        field, plan = norm_case(1)
        level, kernels, cubes = plan[0]
        plan = [(level, kernels * 3, cubes)]
        want = serial_maxima(field, plan, 2.0, self.P_VALUES)
        # an untraced call first: the spectrum of f is made once
        list(level_maxima(field, plan, 2.0, self.P_VALUES))
        tracemalloc.start()
        try:
            rows = list(level_maxima(field, plan, 2.0, self.P_VALUES))
            peak = tracemalloc.get_traced_memory()[1] / (field.grid.size * 8)
        finally:
            tracemalloc.stop()
        assert rows == want
        assert peak <= estimators.KERNEL_CHUNK + 14, peak

    def test_one_set_of_buffers(self, monkeypatch):
        # every chunk of a level writes into the buffers of its first
        # chunk, in order: one set of at most KERNEL_CHUNK buffers, all
        # freed when the call ends
        field, plan = norm_case(1)
        level, kernels, cubes = plan[0]
        plan = [(level, kernels * 3, cubes[:3]), *plan]
        written = watched_writes(monkeypatch, lambda out: None)
        rows = list(level_maxima(field, plan, 2.0, self.P_VALUES))
        assert rows == serial_maxima(field, plan, 2.0, self.P_VALUES)
        size, keys = estimators.KERNEL_CHUNK, iter([key for key, _ in written])
        for _, kernels, _ in plan:
            level_keys = [next(keys) for _ in mirror_free(kernels)]
            assert len(level_keys) > size
            assert len(set(level_keys)) == size
            for start in range(0, len(level_keys), size):
                chunk = level_keys[start:start + size]
                assert chunk == level_keys[:len(chunk)]
        assert next(keys, None) is None
        assert all(ref() is None for _, ref in written)

    def test_abandoned_generator(self, monkeypatch):
        # as verify_witness does with level_norms: one row, then the
        # generator is dropped.  The first level's buffers are dead from its
        # first row on
        field, plan = norm_case(1)
        written = watched_writes(monkeypatch, lambda out: None)
        rows = level_maxima(field, plan, 2.0, self.P_VALUES)
        assert next(rows) == serial_maxima(field, plan, 2.0, self.P_VALUES)[0]
        assert written and all(ref() is None for _, ref in written)
        del rows
        for dim in (2, 1):
            field, plan = norm_case(dim)
            got = list(level_maxima(field, plan, 2.0, self.P_VALUES))
            assert got == serial_maxima(field, plan, 2.0, self.P_VALUES)


class TestBernsteinErrors:
    def test_nyquist_refusal_is_a_skipped_row(self, setup):
        frame, _, _ = setup
        # class level -1 - 4 - 2 = -7 needs N = 2^12: on a 2^11 grid the
        # last gap is skipped
        coarse = TorusGrid(1, 8.0, 1 << 11)
        f = random_bandpass_field(coarse, seed=21, annulus=(1.0, 3.0), n_modes=6)
        tree = ProjectionFrame(frame.tree.cfg, coarse, False).tree
        reports = bernstein_sweep(tree, f, DictionarySpec())
        assert [r["context"]["m"] for r in reports] == ["0", "1", "2", "3", "4"]
        assert all("skipped" not in r["context"] for r in reports[:4])
        assert "Nyquist" in reports[4]["context"]["skipped"]

    def test_class_finer_than_the_grid_is_a_skipped_row(self, setup):
        frame, _, _ = setup
        # without tau, psi, modulation and translation kernels only sinc
        # boxes are built: the Nyquist frequency 32 of a 2^10 grid refuses
        # their bands at class levels -6 and -7 (gaps 3 and 4), the levels
        # at which tau_{j+1} refuses the default spec
        coarse = TorusGrid(1, 8.0, 1 << 10)
        f = random_bandpass_field(coarse, seed=21, annulus=(1.0, 3.0), n_modes=6)
        tree = ProjectionFrame(frame.tree.cfg, coarse, False).tree
        reports = bernstein_sweep(tree, f, DictionarySpec(0, 0, 0, 0))
        assert [r["context"]["m"] for r in reports] == ["0", "1", "2", "3", "4"]
        assert ["skipped" in r["context"] for r in reports] == [False] * 3 + [True] * 2
        assert "sinc box at level -6" in reports[3]["context"]["skipped"]
        assert "Nyquist" in reports[4]["context"]["skipped"]
        default = bernstein_sweep(tree, f, DictionarySpec())
        assert ["skipped" in r["context"] for r in default] == [False] * 3 + [True] * 2

    def test_other_errors_propagate(self, setup, monkeypatch):
        frame, f, _ = setup

        def broken(*args, **kwargs):
            raise TypeError("bug inside the sweep")

        monkeypatch.setattr(estimators, "build_dictionary", broken)
        with pytest.raises(TypeError, match="bug inside the sweep"):
            bernstein_sweep(frame.tree, f, DictionarySpec())
