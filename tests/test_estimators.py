"""Size surrogate, inequality reports, the Bernstein sweep, sweep table."""

import hashlib
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from math import inf

import numpy as np
import pytest
from oracles import expand_band

from phaseproj import estimators
from phaseproj.acceptance import REFERENCE_CONFIG, ConstantTable, uniformity_by_key
from phaseproj.cubes import DyadicCube, TreeConfig, unit_cube
from phaseproj.errors import InternalConsistencyError, ValidationError
from phaseproj.estimators import (
    EstimatorContext,
    bernstein_sweep,
    enumerate_window,
    estimate_S_multi,
    level_norms,
    offtree_eligible,
    root_peak_weight,
    verify_witness,
)
from phaseproj.grid import (
    SampledField,
    TorusGrid,
    apply_multiplier,
    cube_mask,
    level_weights,
    modulate,
    rho_values,
    zero_field,
)
from phaseproj.harness import RunConfig, random_bandpass_field, run, write_csv
from phaseproj.kernels import DictionarySpec, build_dictionary
from phaseproj.projection import assemble, projection_input


@pytest.fixture(scope="module")
def setup():
    grid = TorusGrid(1, 8.0, 1 << 13)
    cfg = TreeConfig((DyadicCube(-1, (0,)),), 0, 2.0)
    f = random_bandpass_field(grid, seed=21, annulus=(1.0, 3.0), n_modes=6)
    pin = projection_input(f, cfg, grid)
    out = assemble(pin)
    ctx = EstimatorContext(pin, out, window_depth=1)
    return pin, out, ctx


class TestSize:
    def test_zero_input(self, setup):
        pin, _, _ = setup
        zpin = projection_input(zero_field(pin.grid), pin.cfg, pin.grid)
        assert estimate_S_multi(zpin, 2.0, (2.0,))[2.0].value == 0.0

    def test_homogeneity(self, setup):
        pin, _, ctx = setup
        doubled = projection_input(2.0 * pin.f, pin.cfg, pin.grid)
        est2 = estimate_S_multi(doubled, 2.0, (2.0,))[2.0]
        assert est2.value == pytest.approx(2 * ctx.sizes[2.0].value, rel=1e-12)

    def test_mode_outside_every_band(self, setup):
        pin, _, _ = setup
        # dictionaries at class levels <= -2 vanish beyond |xi| = 8;
        # a mode at 100 sees none of them
        x = pin.grid.axis_points
        mode = SampledField(pin.grid, np.exp(2j * np.pi * 100.0 * x))
        mpin = projection_input(mode, pin.cfg, pin.grid)
        assert estimate_S_multi(mpin, 2.0, (2.0,))[2.0].value <= 1e-12

    def test_witness_reproduces(self, setup):
        pin, _, ctx = setup
        for p in (1.0, 2.0, inf):
            est = ctx.sizes[p]
            assert verify_witness(pin, est) == est.value

    def test_unreproduced_witness_raises(self, setup, monkeypatch):
        pin, out, _ = setup
        monkeypatch.setattr(estimators, "verify_witness",
                            lambda pin, est, dict_spec=None: est.value * (1 + 2 ** -52))
        with pytest.raises(InternalConsistencyError, match="re-evaluates"):
            EstimatorContext(pin, out, window_depth=1, p_values=(2.0,))

    def test_monotone_in_dictionary(self, setup):
        pin, _, _ = setup
        small = estimate_S_multi(pin, 2.0, (2.0,), DictionarySpec(1, 1, 0, 0, 1, 0))[2.0]
        big = estimate_S_multi(pin, 2.0, (2.0,), DictionarySpec(3, 2, 2, 2, 1, 2))[2.0]
        assert big.value >= small.value - 1e-15

    def test_modulation_covariance(self, setup):
        # modulating f and every dictionary kernel together leaves the
        # weighted norms unchanged; with the kernel responses it means
        # |response| is invariant, checked through one explicit kernel
        pin, _, _ = setup
        from phaseproj.grid import (
            apply_multiplier,
            kernel_field_from_multiplier,
            lp_norms,
            rho_values,
        )
        from phaseproj.kernels import build_dictionary
        eta = 2.0
        kernels = build_dictionary(pin.grid, -3, 8.0, "phi")
        f_mod = modulate(pin.f, eta)
        cube = DyadicCube(-1, (0,))
        w = rho_values(pin.grid, cube) ** -2.0
        for kernel in kernels[:3]:
            resp = apply_multiplier(pin.f, kernel.multiplier)
            shifted = modulate(kernel_field_from_multiplier(
                pin.grid, expand_band(pin.grid, kernel.multiplier)), eta)
            from phaseproj.grid import field_multiplier
            resp_mod = apply_multiplier(f_mod, field_multiplier(shifted))
            h = pin.grid.spacing
            a = lp_norms(np.abs(resp.values), h, (2.0,), w)[2.0]
            b = lp_norms(np.abs(resp_mod.values), h, (2.0,), w)[2.0]
            assert b == pytest.approx(a, rel=1e-10)


class TestCarleson:
    def test_disjoint_cube_is_empty(self, setup):
        _, _, ctx = setup
        rep = ctx.carleson_sum(DyadicCube(-1, (100,)), 2.0)
        assert rep.lhs == 0.0
        assert rep.ratio == 0.0

    def test_additivity_over_children(self, setup):
        _, _, ctx = setup
        parent = unit_cube(1)
        total = sum(ctx.carleson_sum(c, 2.0).lhs for c in parent.children())
        own_terms = sum(v for (i, idx), v in ctx._carleson_terms[2.0].items()
                        if DyadicCube(i, idx) == parent)
        assert total + own_terms == pytest.approx(ctx.carleson_sum(parent, 2.0).lhs,
                                                  rel=1e-12)

    def test_monotone_in_cube(self, setup):
        _, _, ctx = setup
        child = DyadicCube(-1, (0,))
        assert ctx.carleson_sum(child, 2.0).lhs <= ctx.carleson_sum(
            child.ancestor(0), 2.0).lhs + 1e-15

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
            pin = projection_input(f, cfg, grid, strict=False)
            out = assemble(pin)
            ctx = EstimatorContext(pin, out, window_depth=2, p_values=(2.0,))
            ratios = {}
            for J in enumerate_window(1, 2):
                ratios[J] = ctx.carleson_sum(J, 2.0).ratio
            overall = max(ratios.values())
            on_tree = max(r for J, r in ratios.items() if pin.tree.member(J))
            assert overall <= on_tree * (1 + 1e-12) + 1e-15


class TestOfftree:
    def test_eligibility(self, setup):
        pin, _, _ = setup
        ok, violator = offtree_eligible(pin.tree, DyadicCube(-2, (100,)))
        assert ok and violator is None
        bad, violator = offtree_eligible(pin.tree, DyadicCube(-1, (1,)))
        assert not bad
        assert violator is not None

    def test_rejected_report(self, setup):
        _, _, ctx = setup
        rep = ctx.offtree_sum(DyadicCube(-1, (0,)), 2.0)
        assert "skipped" in rep.context

    def test_far_cube_ratio_finite(self, setup):
        _, _, ctx = setup
        rep = ctx.offtree_sum(DyadicCube(-2, (14,)), 2.0)
        assert "skipped" not in rep.context
        assert np.isfinite(rep.ratio)
        assert rep.rhs_without_constant > 0

    def test_zero_f(self, setup):
        pin, _, _ = setup
        zpin = projection_input(zero_field(pin.grid), pin.cfg, pin.grid)
        zout = assemble(zpin)
        zctx = EstimatorContext(zpin, zout, window_depth=1, p_values=(2.0,))
        rep = zctx.offtree_sum(DyadicCube(-2, (14,)), 2.0)
        assert rep.lhs == 0.0


class TestNormReport:
    def test_zero_ratio(self, setup):
        pin, _, _ = setup
        zpin = projection_input(zero_field(pin.grid), pin.cfg, pin.grid)
        zout = assemble(zpin)
        zctx = EstimatorContext(zpin, zout, window_depth=1, p_values=(2.0,))
        rep = zctx.norm_report(2.0)
        assert rep.ratio == 0.0

    def test_scaling_invariance(self, setup):
        pin, _, ctx = setup
        doubled = projection_input(2.0 * pin.f, pin.cfg, pin.grid)
        dout = assemble(doubled)
        dctx = EstimatorContext(doubled, dout, window_depth=1, p_values=(2.0,))
        assert dctx.norm_report(2.0).ratio == pytest.approx(
            ctx.norm_report(2.0).ratio, rel=1e-12)


class TestComparisons:
    def test_bernstein_increments(self, setup):
        pin, _, _ = setup
        reports = bernstein_sweep(pin, 2.0, m_range=(0, 1, 2))
        ratios = {r.context["m"]: r.ratio for r in reports if "skipped" not in r.context}
        ms = sorted(ratios)
        assert len(ms) >= 2
        d = pin.grid.dim
        for a, b in zip(ms, ms[1:]):
            if ratios[a] > 0:
                assert math.log2(ratios[b] / ratios[a]) <= d + 0.5

    def test_bernstein_visits_every_tree_cube(self, setup, monkeypatch):
        grid = setup[0].grid
        cfg = TreeConfig((DyadicCube(-2, (0,)), DyadicCube(-2, (2,))), 0, 2.0)
        f = random_bandpass_field(grid, seed=4, annulus=(1.0, 3.0), n_modes=4)
        pin = projection_input(f, cfg, grid, strict=False)
        calls = []
        real = estimators.level_norms

        def recording(field, kernels, cubes, level, *args):
            calls.append((level, list(cubes)))
            return real(field, kernels, cubes, level, *args)

        monkeypatch.setattr(estimators, "level_norms", recording)
        reports = bernstein_sweep(pin, 2.0, m_range=(0, 1))
        assert [r.context["m"] for r in reports if "skipped" not in r.context] == [0, 1]
        tree = pin.tree
        assert len(tree.levels()) >= 2
        assert calls == 2 * [(i, tree.cubes(i)) for i in tree.levels()]
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
        pin, out, _ = setup
        a = EstimatorContext(pin, out, window_depth=1, p_values=(2.0,))
        b = EstimatorContext(pin, out, window_depth=1, p_values=(2.0,))
        assert a.sizes[2.0].value == b.sizes[2.0].value
        J = DyadicCube(-2, (14,))
        assert a.offtree_sum(J, 2.0).lhs == b.offtree_sum(J, 2.0).lhs


# ---------------------------------------------------------------------------
# Oracles for the fast table primitives: each must equal the direct
# full-grid evaluation it replaces, bit for bit.

# SHA-256 of report.json for REFERENCE_CONFIG, frozen from the direct
# full-grid evaluation; the table primitives must leave every float as it was.
REFERENCE_REPORT_SHA256 = "a2d5b078892c0f381e1351712f9010966b547c74d205fcf741accf020cb3f83e"
# SHA-256 of the CSV files written beside it by the same run
REFERENCE_CSV_SHA256 = {
    "tree.csv": "5f2dfdc05698ce0c7e758d81b387ff9291911bf4bcb6c29a4a1a5950ab3f7168",
    "perscale.csv": "f6d29599e5590f938159d5a62fb282d78647ba81153508c8ee06722c4e96170d",
}
# A 2-d non-strict run (config hash 516008db5c4db577) and its report.json
# SHA-256, so drift of 2-d report bytes shows in tier-1 too
REFERENCE_2D_CONFIG = RunConfig(dim=2, grid_n=1 << 8, tree_depth=1, leaf_count=1,
                                alpha=3.0, strict=False, window_depth=0)
REFERENCE_2D_REPORT_SHA256 = "2fac24a17c113c4c75e5dcb227fe6cfef11d626a81fa71d4ddf1494870924738"


@pytest.fixture(scope="module")
def deep():
    grid = TorusGrid(1, 8.0, 1 << 12)
    cfg = TreeConfig((DyadicCube(-2, (1,)), DyadicCube(-1, (1,))), 0, 2.0)
    f = random_bandpass_field(grid, seed=7, annulus=(1.0, 3.0), n_modes=5)
    pin = projection_input(f, cfg, grid, strict=False)
    return EstimatorContext(pin, assemble(pin), window_depth=2)


class TestTableOracles:
    @pytest.mark.parametrize("dim,samples,depth", [(1, 1 << 10, 2), (2, 1 << 6, 0)])
    def test_slice_weights_equal_rho_powers(self, dim, samples, depth):
        grid = TorusGrid(dim, 8.0, samples)
        window = enumerate_window(dim, depth)
        for e in (2.0, 3.0, 6.0, 9.0):
            for level in range(0, -(depth + 3), -1):
                weight = level_weights(grid, level, e)
                for cube in (c for c in window if c.level == level):
                    assert np.array_equal(weight(cube), rho_values(grid, cube) ** -e), (
                        e, cube)

    @pytest.mark.parametrize("half_width,samples,level,cube", [
        (8.0, 1 << 10, -2, DyadicCube(-1, (3,))),    # cube off the level
        (10.0, 1 << 10, -1, DyadicCube(-1, (3,))),   # side not a whole step count
        (8.0, 1 << 6, -3, DyadicCube(-3, (5,))),     # side below the spacing
        (8.0, 1 << 10, -1, DyadicCube(-1, (40,))),   # cube past the domain
    ])
    def test_slice_weights_fallback(self, half_width, samples, level, cube):
        grid = TorusGrid(1, half_width, samples)
        got = level_weights(grid, level, 2.0)(cube)
        assert np.array_equal(got, rho_values(grid, cube) ** -2.0)

    @pytest.mark.parametrize("dim,samples", [(1, 1 << 10), (2, 1 << 6)])
    def test_clamped_root_peak_equals_grid_max(self, dim, samples):
        grid = TorusGrid(dim, 8.0, samples)
        u_mask = cube_mask(grid, [unit_cube(dim)])
        for J in enumerate_window(dim, 1):
            for alpha in (2.0, 3.0):
                full = float(np.max(rho_values(grid, J)[u_mask] ** (-alpha)))
                assert root_peak_weight(grid, J, alpha) == full, (J, alpha)

    def test_carleson_sum_equals_contains_scan(self, setup, deep):
        for ctx in (setup[2], deep):
            for J in enumerate_window(1, ctx.depth) + [DyadicCube(1, (0,))]:
                for p in ctx.p_values:
                    lhs, by_level = 0.0, {}
                    for (i, idx), value in sorted(ctx._carleson_terms[p].items()):
                        if J.contains(DyadicCube(i, idx)):
                            lhs += value
                            by_level[i] = by_level.get(i, 0.0) + value
                    rep = ctx.carleson_sum(J, p)
                    assert rep.lhs == lhs
                    assert [row["term"] for row in rep.per_scale] == [
                        by_level[i] for i in sorted(by_level, reverse=True)]

    def test_offtree_geometry_shared_across_p(self, deep):
        for J in enumerate_window(1, 1):
            geometry = deep.offtree_geometry(J)
            for p in deep.p_values:
                assert (deep.offtree_sum(J, p, geometry).to_dict()
                        == deep.offtree_sum(J, p).to_dict())

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

    def test_reference_report_bytes_one_worker(self, tmp_path, pool):
        pool(1)
        record = run(REFERENCE_CONFIG, out_dir=str(tmp_path))
        assert "error" not in record
        digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
        assert digest == REFERENCE_REPORT_SHA256


# ---------------------------------------------------------------------------
# The per-cube norms on the thread pool.

class RecordingPool(ThreadPoolExecutor):
    """A thread pool that keeps every task it was given."""

    def __init__(self, workers):
        super().__init__(workers)
        self.tasks = []

    def submit(self, fn, *args, **kwargs):
        task = super().submit(fn, *args, **kwargs)
        self.tasks.append(task)
        return task


@pytest.fixture
def pool(monkeypatch):
    """pool(k) puts a k-worker RecordingPool in place of the norm pool."""
    made = []

    def install(workers):
        made.append(RecordingPool(workers))
        monkeypatch.setattr(estimators, "_POOL", (made[-1], workers))
        return made[-1]

    yield install
    for executor in made:
        executor.shutdown()


def serial_level_norms(field, kernels, cubes, level, weight_exp, p_values):
    """The per-cube loop without the pool, norms written out in full."""
    grid = field.grid
    h_d = grid.spacing ** grid.dim
    responses = [(k.kernel_id, np.abs(apply_multiplier(field, k.multiplier).values))
                 for k in kernels]
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
    """A field, a dictionary, a level and cubes at it, plus cubes that
    take the rho_values fallback (another level, past the domain)."""
    if dim == 1:
        grid = TorusGrid(1, 8.0, 1 << 10)
        kernels = build_dictionary(grid, -3, 8.0, "phi")
        level = -1
        cubes = [DyadicCube(-1, (k,)) for k in range(-8, 9)]
        cubes += [DyadicCube(-2, (3,)), DyadicCube(-1, (40,))]
    else:
        grid = TorusGrid(2, 8.0, 1 << 6)
        kernels = build_dictionary(grid, -1, 12.0, "phi", DictionarySpec(2, 1, 1, 1))
        level = 0
        cubes = [DyadicCube(0, (a, b)) for a in range(-3, 4) for b in (-1, 0, 2)]
        cubes += [DyadicCube(-1, (1, 0)), DyadicCube(0, (20, 0))]
    field = random_bandpass_field(grid, seed=5, annulus=(1.0, 2.0), n_modes=4)
    return field, kernels, cubes, level


class TestNormPool:
    P_VALUES = (1.0, 2.0, inf, 3.0)

    @pytest.mark.parametrize("workers", [None, 1, 3])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_rows_equal_serial_loop(self, dim, workers, pool):
        if workers is not None:
            pool(workers)
        field, kernels, cubes, level = norm_case(dim)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # more thread switches inside each task
        try:
            for exponent in (2.0, 6.0):
                got = list(level_norms(field, kernels, cubes, level, exponent,
                                       self.P_VALUES))
                want = list(serial_level_norms(field, kernels, cubes, level, exponent,
                                               self.P_VALUES))
                assert got == want
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_task_error_reaches_caller(self, workers, pool):
        executor = pool(workers)
        field, kernels, cubes, level = norm_case(1)
        with pytest.raises(ValidationError, match="p must be positive"):
            list(level_norms(field, kernels, cubes, level, 2.0, (1.0, 0.0)))
        assert executor.tasks and all(task.done() for task in executor.tasks)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_abandoned_generator(self, workers, pool):
        executor = pool(workers)
        field, kernels, cubes, level = norm_case(1)
        first = []

        def take_one_row():
            # as verify_witness does: one row, then the generator is dropped
            first.append(next(level_norms(field, kernels, cubes, level, 2.0,
                                          self.P_VALUES)))

        caller = threading.Thread(target=take_one_row)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert all(task.done() for task in executor.tasks)
        assert first == [next(serial_level_norms(field, kernels, cubes, level, 2.0,
                                                 self.P_VALUES))]
        for dim in (2, 1):  # the scratch follows the grid shape
            field, kernels, cubes, level = norm_case(dim)
            got = list(level_norms(field, kernels, cubes, level, 2.0, self.P_VALUES))
            assert got == list(serial_level_norms(field, kernels, cubes, level, 2.0,
                                                  self.P_VALUES))

    def test_pool_sized_from_affinity(self):
        assert estimators.norm_workers() == len(os.sched_getaffinity(0))


class TestBernsteinErrors:
    def test_nyquist_refusal_is_a_skipped_row(self, setup):
        pin, _, _ = setup
        # class level -1 - 9 - 2 = -12 needs N = 2^14 on this 2^13 grid
        reports = bernstein_sweep(pin, 2.0, m_range=(0, 9))
        assert [r.context["m"] for r in reports] == [0, 9]
        assert "skipped" not in reports[0].context
        assert "Nyquist" in reports[1].context["skipped"]

    def test_other_errors_propagate(self, setup, monkeypatch):
        pin, _, _ = setup

        def broken(*args, **kwargs):
            raise TypeError("bug inside the sweep")

        monkeypatch.setattr(estimators, "build_dictionary", broken)
        with pytest.raises(TypeError, match="bug inside the sweep"):
            bernstein_sweep(pin, 2.0, m_range=(0,))
