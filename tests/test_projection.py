"""Projection engine: per-scale pieces, assembly identities, residuals."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import expand_band, psi_ladder
from phaseproj import acceptance, harness
from phaseproj.cubes import DyadicCube, TreeConfig, expand_to_tree, unit_cube
from phaseproj.errors import ResolutionError, ValidationError
from phaseproj.grid import (
    SampledField,
    TorusGrid,
    cube_mask,
    zero_field,
)
from phaseproj.kernels import (
    build_theta,
    psi_cone_multiplier,
    psi_multiplier,
    tau_multiplier,
)
from phaseproj import projection
from phaseproj.projection import (
    MIN_SAMPLES_PER_RADIUS,
    ProjectionBuilder,
    ProjectionFrame,
    assemble,
    projection_input,
    residual_decomposition,
    resolution_check,
)


def bandpass_field(grid, seed=0, n_modes=8, lo=2.0, hi=16.0):
    """Random real trigonometric polynomial with spectrum in an annulus."""
    rng = np.random.default_rng(seed)
    lat = 1.0 / (2 * grid.half_width)
    spec = np.zeros(grid.shape, dtype=np.complex128)
    count = 0
    while count < n_modes:
        k = rng.integers(-int(hi / lat), int(hi / lat) + 1, size=grid.dim)
        r = math.sqrt(float(np.sum((k * lat) ** 2)))
        if not (lo <= r <= hi):
            continue
        amp = rng.normal() + 1j * rng.normal()
        idx = tuple(int(kk) % grid.samples for kk in k)
        idx_conj = tuple((-int(kk)) % grid.samples for kk in k)
        spec[idx] += amp
        spec[idx_conj] += np.conj(amp)
        count += 1
    vals = np.fft.ifftn(spec) * grid.size
    return SampledField(grid, vals)


@pytest.fixture(scope="module")
def setup_1d():
    grid = TorusGrid(1, 8.0, 1 << 14)
    cfg = TreeConfig((DyadicCube(-1, (0,)),), 0, 2.0)
    f = bandpass_field(grid, seed=1)
    pin = projection_input(f, cfg, grid)
    return pin


@pytest.fixture(scope="module")
def output_1d(setup_1d):
    return assemble(setup_1d)


class TestResolutionPolicy:
    def test_refusal_below_strict_tier(self):
        grid = TorusGrid(1, 8.0, 1 << 10)
        cfg = TreeConfig((DyadicCube(-2, (0,)),), 2, 2.0)
        with pytest.raises(ResolutionError) as err:
            resolution_check(cfg, grid, True)
        assert err.value.required_samples is not None

    def test_relaxed_tier_allows_more(self):
        grid = TorusGrid(1, 8.0, 1 << 10)
        cfg = TreeConfig((DyadicCube(-2, (0,)),), 0, 2.0)
        with pytest.raises(ResolutionError):
            resolution_check(cfg, grid, True)
        resolution_check(cfg, grid, False)

    def test_boundary_at_half_n(self):
        # refusal triggers exactly when the strict sample requirement fails
        cfg = TreeConfig((DyadicCube(-1, (0,)),), 0, 2.0)
        radius = 0.75 * 2.0 ** (-4)
        for n_exp in (10, 16):
            grid = TorusGrid(1, 8.0, 1 << n_exp)
            ok = radius >= MIN_SAMPLES_PER_RADIUS * grid.spacing
            if ok:
                resolution_check(cfg, grid, True)
            else:
                with pytest.raises(ResolutionError):
                    resolution_check(cfg, grid, True)


class TestPieces:
    def test_sigma_zero_below_leaves(self, setup_1d):
        b = ProjectionBuilder(setup_1d)
        j = setup_1d.cfg.j_min - 1
        assert b.sigma(j, b.theta_f(0, j)).max_abs() == 0.0

    def test_sigma_zero_for_zero_f(self, setup_1d):
        pin = projection_input(zero_field(setup_1d.grid), setup_1d.cfg, setup_1d.grid)
        b = ProjectionBuilder(pin)
        assert b.sigma(0, b.theta_f(0, 0)).max_abs() == 0.0

    def test_sigma_vanishes_on_ring(self, output_1d, setup_1d):
        b = output_1d._builder
        for (n, j) in output_1d.diagnostics["levels"]:
            sigma = b.sigma(j, b.theta_f(n, j))
            smax = sigma.max_abs()
            if smax == 0:
                continue
            mask = cube_mask(setup_1d.grid, setup_1d.tree.cubes(j, 1))
            assert np.max(np.abs(sigma.values[mask])) <= 1e-9 * smax

    def test_sigma_support_in_second_ring(self, output_1d, setup_1d):
        b = output_1d._builder
        for (n, j) in output_1d.diagnostics["levels"]:
            sigma = b.sigma(j, b.theta_f(n, j))
            smax = sigma.max_abs()
            if smax == 0:
                continue
            outside = ~cube_mask(setup_1d.grid, setup_1d.tree.cubes(j, 2))
            assert np.max(np.abs(sigma.values[outside])) <= 1e-12 * smax

    def test_big_g_two_routes(self, output_1d):
        for diag in output_1d.diagnostics["levels"].values():
            assert diag["big_g_route_err"] <= 1e-12

    def test_leibniz_cross_check(self, output_1d):
        for (n, j), diag in output_1d.diagnostics["levels"].items():
            assert diag["leibniz_rel_err"] <= 1e-6

    def test_piecewise_derivative_identity(self, output_1d, setup_1d):
        # away from the ring boundary, g_piece = (psi_cone*f) 1_E + d^{d+1} sigma
        from phaseproj.grid import fd_derivative
        b = output_1d._builder
        grid = setup_1d.grid
        for (n, j) in output_1d.diagnostics["levels"]:
            piece = b.g_piece(n, j)
            mask = cube_mask(grid, setup_1d.tree.cubes(j, 1))
            interior = mask & np.roll(mask, 1) & np.roll(mask, -1)
            interior &= np.roll(interior, 2) & np.roll(interior, -2)
            deep = interior & np.roll(interior, 4) & np.roll(interior, -4)
            if not deep.any():
                continue
            lhs = piece.values[deep]
            rhs = (b.psi_cone_f(n, j) * b.frame.e_indicator(j)).values[deep]
            scale = piece.max_abs()
            # deep inside E the sigma term vanishes identically
            assert np.max(np.abs(lhs - rhs)) <= 1e-3 * scale


class TestAssembly:
    def test_zero_input(self, setup_1d):
        pin = projection_input(zero_field(setup_1d.grid), setup_1d.cfg, setup_1d.grid)
        out = assemble(pin)
        assert out.g.max_abs() == 0.0

    def test_two_route_identity(self, output_1d):
        assert output_1d.diagnostics["g_two_route_rel_err"] <= 1e-10

    def test_support_outside_5u(self, output_1d):
        assert output_1d.diagnostics["support_5u_rel"] <= 1e-8

    def test_linearity(self, setup_1d):
        grid, cfg = setup_1d.grid, setup_1d.cfg
        f1 = bandpass_field(grid, seed=11)
        f2 = bandpass_field(grid, seed=12)
        a, b = 0.7, -1.3
        g1 = assemble(projection_input(f1, cfg, grid)).g
        g2 = assemble(projection_input(f2, cfg, grid)).g
        combo = assemble(projection_input(a * f1 + b * f2, cfg, grid)).g
        expected = a * g1 + b * g2
        scale = max(combo.max_abs(), 1e-300)
        assert np.max(np.abs(combo.values - expected.values)) <= 1e-10 * scale

    def test_residual_identity(self, setup_1d, output_1d):
        comp_low, comp_mid, comp_corr = residual_decomposition(setup_1d, output_1d)
        recon = comp_low + comp_mid - comp_corr
        target = setup_1d.f - output_1d.g
        scale = setup_1d.f.max_abs()
        assert np.max(np.abs(recon.values - target.values)) <= 1e-8 * scale

    def test_residual_reuses_pieces(self, setup_1d, monkeypatch):
        # every piece and its checks were built by assemble: the residual
        # split takes no derivative of its own
        out = assemble(setup_1d)
        calls = []
        original = projection.partial_derivative

        def counted(*args, **kwargs):
            calls.append(args[1:])
            return original(*args, **kwargs)

        monkeypatch.setattr(projection, "partial_derivative", counted)
        residual_decomposition(setup_1d, out)
        assert calls == []

    def test_residual_filters_f_twice(self, setup_1d, monkeypatch):
        # after assemble the split filters f through tau_{-m} and the
        # low-pass complement only: no copy per level below j_min
        out = assemble(setup_1d)
        calls = []
        original = projection.apply_multiplier

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(projection, "apply_multiplier", counted)
        residual_decomposition(setup_1d, out)
        assert len(calls) == 2, calls

    @pytest.mark.parametrize("dim,samples", [(1, 1 << 14), (2, 1 << 9)])
    @pytest.mark.parametrize("m", [0, 3])
    def test_complement_is_the_psi_ladder(self, dim, samples, m):
        # 1 - tau_{j_min-1-m} is the sum of psi_{j-m} over every level
        # below j_min, from the Nyquist level up
        grid = TorusGrid(dim, 8.0, samples)
        cfg = TreeConfig((unit_cube(dim),), m, dim + 1.0)
        complement = ProjectionFrame(grid, expand_to_tree(cfg)).low_pass_complement()
        assert 0 < np.count_nonzero(complement) < grid.size
        assert np.max(np.abs(complement - psi_ladder(grid, cfg.j_min, m))) <= 1e-15

    def test_one_correction_sum(self, setup_1d):
        # the telescoping route of assemble and the residual split add up
        # the correction once, in one field
        builder = assemble(setup_1d)._builder
        assert builder.residual_parts()[2] is builder.correction()

    def test_residual_zero_f(self, setup_1d):
        pin = projection_input(zero_field(setup_1d.grid), setup_1d.cfg, setup_1d.grid)
        out = assemble(pin)
        parts = residual_decomposition(pin, out)
        for part in parts:
            assert part.max_abs() == 0.0

    def test_low_frequency_single_node(self):
        # M = {U} with low-pass f: annulus terms vanish inside 3U, the
        # residual concentrates outside
        grid = TorusGrid(1, 8.0, 1 << 14)
        cfg = TreeConfig((unit_cube(1),), 0, 2.0)
        x = grid.axis_points
        f = SampledField(grid, np.cos(2 * np.pi * x * (1.0 / 16.0)))
        pin = projection_input(f, cfg, grid)
        out = assemble(pin)
        comp_low, comp_mid, comp_corr = residual_decomposition(pin, out)
        inner = cube_mask(grid, [DyadicCube(0, (k,)) for k in (-1, 0, 1)])
        margin = inner & np.roll(inner, 8) & np.roll(inner, -8)
        resid = pin.f - out.g
        inside_max = np.max(np.abs(resid.values[margin]))
        outside_max = np.max(np.abs(resid.values[~inner]))
        assert inside_max <= 1e-6 * max(outside_max, 1e-300)


class TestPieceBundles:
    def test_one_two_route_check_per_piece(self, setup_1d, monkeypatch):
        # the projection and its residual split build and check each G once
        calls = []
        original = ProjectionBuilder.big_g

        def counted(self, n, j, tf):
            calls.append((n, j))
            return original(self, n, j, tf)

        monkeypatch.setattr(ProjectionBuilder, "big_g", counted)
        out = assemble(setup_1d)
        residual_decomposition(setup_1d, out)
        assert sorted(calls) == sorted(out.diagnostics["levels"])


def _arrays(value):
    """Every ndarray reachable from a frame memo entry."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, SampledField):
        return [a for a in (value.values, value._fft) if a is not None]
    if isinstance(value, tuple):
        return [a for item in value for a in _arrays(item)]
    return []


class TestFrame:
    @pytest.fixture(scope="class")
    def two_fields(self, setup_1d):
        grid = setup_1d.grid
        return [projection_input(bandpass_field(grid, seed=s), setup_1d.cfg, grid)
                for s in (21, 22)]

    def test_shared_frame_matches_fresh_builds(self, two_fields):
        frame = ProjectionFrame.for_input(two_fields[0])
        for pin in two_fields:
            shared, fresh = assemble(pin, frame), assemble(pin)
            assert shared._builder.frame is frame
            assert fresh._builder.frame is not frame
            assert shared.g.values.tobytes() == fresh.g.values.tobytes()
            assert (residual_decomposition(pin, shared)[1].values.tobytes()
                    == residual_decomposition(pin, fresh)[1].values.tobytes())
            assert shared.diagnostics == fresh.diagnostics

    def test_wrap_flags_per_projection(self, two_fields):
        # the flags are the frame's: equal for every f on one frame
        frame = ProjectionFrame.for_input(two_fields[0])
        flags = [assemble(pin, frame).diagnostics["wrap_flags"] for pin in two_fields]
        assert flags[0] == flags[1] == assemble(two_fields[0]).diagnostics["wrap_flags"]

    def test_each_wrap_flag_once(self, two_fields):
        # the residual split filters f through tau_{-m} a second time and
        # lists nothing
        pin = two_fields[0]
        out = assemble(pin)
        flags = list(out.diagnostics["wrap_flags"])
        residual_decomposition(pin, out)
        assert out.diagnostics["wrap_flags"] == flags
        assert flags and len(set(flags)) == len(flags)

    def test_mismatched_frame_refused(self, setup_1d):
        grid, cfg, f = setup_1d.grid, setup_1d.cfg, setup_1d.f
        frame = ProjectionFrame.for_input(setup_1d)
        other_tree = TreeConfig((DyadicCube(-1, (1,)),), 0, 2.0)
        coarse = TorusGrid(1, 8.0, 1 << 13)
        others = [
            projection_input(f, other_tree, grid),
            projection_input(SampledField(coarse, f.values[::2]), cfg, coarse,
                             strict=False),
            projection_input(f, cfg, grid, strict=False),
        ]
        for pin in others:
            with pytest.raises(ValidationError, match="frame"):
                assemble(pin, frame)

    def test_frame_arrays_read_only(self, output_1d):
        frame = output_1d._builder.frame
        arrays = [a for value in frame._memo.values() for a in _arrays(value)]
        assert len(arrays) >= 10
        for array in arrays:
            assert not array.flags.writeable

    def test_frame_holds_no_field_of_f(self, setup_1d):
        frame = ProjectionFrame.for_input(setup_1d)
        assemble(setup_1d, frame)
        assert not hasattr(frame, "pin") and not hasattr(frame, "f")
        f_values = setup_1d.f.values
        for value in frame._memo.values():
            for array in _arrays(value):
                assert not np.shares_memory(array, f_values)


class TestMemory:
    def test_peak_full_fields_of_reference_projection(self):
        # assemble plus residual_decomposition of REFERENCE_CONFIG, with
        # the settings of harness.run and cold caches, holds at most 32
        # complex fields above its inputs
        config = acceptance.REFERENCE_CONFIG
        grid = TorusGrid(config.dim, config.grid_b, config.grid_n)
        f = harness.build_f(config, grid)
        pin = projection_input(f, harness.build_tree_config(config), grid, config.strict)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            residual_decomposition(pin, assemble(pin))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        fields = (peak - base) / (grid.size * 16)
        assert fields <= 32, fields

    def test_filtered_copies_not_memoized(self, setup_1d):
        # theta*f and psi_cone*f are freed once their one reader returns
        builder = assemble(setup_1d)._builder
        names = {name for name, _ in builder._memo}
        assert {"g_piece", "correction", "psi_f"} <= names
        assert not names & {"theta_f", "psi_cone_f"}

    def test_frame_multipliers_on_bands(self, output_1d, setup_1d):
        # each kept band expands to the full lattice multiplier exactly
        frame, grid, m = output_1d._builder.frame, setup_1d.grid, setup_1d.cfg.gap_m
        dense = {"theta": lambda n, j: build_theta(grid, n, j - m).multiplier,
                 "tau": lambda: tau_multiplier(grid, -m),
                 "psi_cone": lambda n, j: psi_cone_multiplier(grid, n, j - m),
                 "psi": lambda j: psi_multiplier(grid, j - m)}
        checked = set()
        for (name, args), value in frame._memo.items():
            if name in dense:
                band = value[0] if isinstance(value, tuple) else value
                assert band.size < grid.size
                assert np.array_equal(expand_band(grid, band), dense[name](*args))
                checked.add(name)
        assert checked == set(dense)


class TestFdWitness:
    def test_fd_agreement_at_resolved_scale(self):
        grid = TorusGrid(1, 8.0, 1 << 16)
        cfg = TreeConfig((DyadicCube(-1, (0,)),), 0, 2.0)
        f = bandpass_field(grid, seed=3, lo=2.0, hi=8.0)
        pin = projection_input(f, cfg, grid)
        out = assemble(pin)
        recorded = [d.get("fd_rel_err") for d in out.diagnostics["levels"].values()]
        measured = [e for e in recorded if e is not None]
        assert measured, "no level reached the fd-witness resolution"
        assert max(measured) <= 1e-4


class Test2D:
    def test_identities_2d(self):
        grid = TorusGrid(2, 8.0, 1 << 9)
        cfg = TreeConfig((DyadicCube(-1, (0, 1)),), 0, 3.0)
        f = bandpass_field(grid, seed=5, n_modes=6, lo=1.0, hi=8.0)
        pin = projection_input(f, cfg, grid, strict=False)
        out = assemble(pin)
        assert out.diagnostics["g_two_route_rel_err"] <= 1e-10
        comp = residual_decomposition(pin, out)
        recon = comp[0] + comp[1] - comp[2]
        target = pin.f - out.g
        assert np.max(np.abs(recon.values - target.values)) <= 1e-8 * pin.f.max_abs()
