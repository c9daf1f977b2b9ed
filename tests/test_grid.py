"""Spectral grid: transforms, convolution, derivatives, norms, indicators."""

import math

import numpy as np
import pytest

from phaseproj.cubes import DyadicCube, DyadicPartition, unit_cube
from phaseproj.errors import ResolutionError, ValidationError
from phaseproj.grid import (
    SampledField,
    TorusGrid,
    apply_multiplier,
    collar_mask,
    cond_expectation,
    convolve,
    cube_average,
    cube_mask,
    fd_derivative,
    inner_product,
    kernel_field_from_multiplier,
    level_weights,
    load_field,
    modulate,
    mollified_indicator,
    partial_derivative,
    physical_spectrum,
    rho_values,
    save_field,
    weighted_lp_norm,
    zero_field,
)
from phaseproj.kernels import build_mollifier


@pytest.fixture(scope="module")
def g1():
    return TorusGrid(1, 8.0, 1 << 12)


@pytest.fixture(scope="module")
def g2():
    return TorusGrid(2, 8.0, 1 << 7)


def mode(grid, freq):
    """On-lattice complex exponential e^{2 pi i x . freq}."""
    freq = np.atleast_1d(np.asarray(freq, dtype=float))
    phase = np.zeros(grid.shape)
    for ax in range(grid.dim):
        phase = phase + freq[ax] * grid.point_component(ax)
    return SampledField(grid, np.exp(2j * np.pi * phase))


def smooth_bump(grid, width=1.0):
    r2 = np.zeros(grid.shape)
    for ax in range(grid.dim):
        r2 = r2 + grid.point_component(ax) ** 2
    return SampledField(grid, np.exp(-r2 / width**2))


class TestConvolution:
    def test_delta_is_identity(self, g1):
        vals = np.zeros(g1.shape)
        vals[g1.index_of(0.0)] = 1.0 / g1.spacing
        delta = SampledField(g1, vals)
        a = smooth_bump(g1)
        out = convolve(a, delta)
        assert np.max(np.abs(out.values - a.values)) < 1e-10

    def test_mean_preservation(self, g1):
        kern = build_mollifier(g1, 0.5).field
        const = SampledField(g1, np.ones(g1.shape))
        out = convolve(const, kern)
        assert np.max(np.abs(out.values - 1.0)) < 1e-10

    def test_single_mode_times_transform(self, g1):
        xi0 = 3.0 / 16.0  # on-lattice
        a = mode(g1, xi0)
        kern = smooth_bump(g1, width=0.7)
        out = convolve(a, kern)
        # independent oracle: direct sum for the transform at xi0
        direct = g1.spacing * np.sum(kern.values * np.exp(-2j * np.pi * xi0 * g1.axis_points))
        expected = direct * a.values
        assert np.max(np.abs(out.values - expected)) < 1e-9 * abs(direct)

    def test_grid_mismatch(self, g1):
        other = TorusGrid(1, 8.0, 1 << 11)
        with pytest.raises(ValidationError):
            convolve(smooth_bump(g1), zero_field(other))

    def test_multiplier_route_matches_field_route(self, g1):
        from phaseproj.grid import field_multiplier
        a = smooth_bump(g1)
        kern = smooth_bump(g1, width=0.3)
        via_field = convolve(a, kern)
        via_mult = apply_multiplier(a, field_multiplier(kern))
        assert np.max(np.abs(via_field.values - via_mult.values)) < 1e-12


class TestSpectrum:
    def test_parseval(self, g1):
        rng = np.random.default_rng(0)
        a = SampledField(g1, rng.normal(size=g1.shape) + 1j * rng.normal(size=g1.shape))
        space = weighted_lp_norm(a, None, 2.0)
        spec = physical_spectrum(a)
        freq = math.sqrt(float(np.sum(np.abs(spec) ** 2)) / (2 * g1.half_width))
        assert freq == pytest.approx(space, rel=1e-12)

    def test_kernel_field_round_trip(self, g1):
        mult = np.exp(-g1.freq_radius**2)
        k = kernel_field_from_multiplier(g1, mult)
        back = physical_spectrum(k)
        assert np.max(np.abs(back - mult)) < 1e-10

    @pytest.mark.parametrize("grid_name", ["g1", "g2"])
    def test_cached_spectrum_matches_fresh_transform(self, grid_name, request):
        # the spectral ops hand their product spectrum to the output as its
        # cached fft(); it must be the transform of the output's values
        grid = request.getfixturevalue(grid_name)
        rng = np.random.default_rng(1)
        a = SampledField(grid, rng.normal(size=grid.shape)
                         + 1j * rng.normal(size=grid.shape))
        outputs = [
            apply_multiplier(a, np.exp(-grid.freq_radius ** 2)),
            convolve(a, smooth_bump(grid)),
            partial_derivative(a, grid.dim - 1, 3),
        ]
        for out in outputs:
            assert out._fft is not None
            fresh = np.fft.fftn(out.values)
            scale = np.max(np.abs(fresh))
            assert np.max(np.abs(out.fft() - fresh)) <= 1e-10 * scale

    def test_modulation_shifts_spectrum(self, g2):
        a = smooth_bump(g2)
        eta = (2.0 / 16.0, -3.0 / 16.0)
        shifted = physical_spectrum(modulate(a, eta))
        spec = physical_spectrum(a)
        rolled = np.roll(spec, (2, -3), axis=(0, 1))
        assert np.max(np.abs(shifted - rolled)) < 1e-10 * np.max(np.abs(spec))


class TestDerivative:
    def test_eigenfunction(self, g1):
        xi0 = 5.0 / 16.0
        a = mode(g1, xi0)
        for order in (1, 2, 3):
            out = partial_derivative(a, 0, order)
            expected = (2j * np.pi * xi0) ** order * a.values
            # roundoff in the sampled mode is amplified by the largest
            # derivative multiplier on the lattice
            tol = 1e-13 * (2 * np.pi * g1.nyquist) ** order + 1e-12
            assert np.max(np.abs(out.values - expected)) < tol

    def test_constant_derivative_is_zero(self, g2):
        const = SampledField(g2, np.ones(g2.shape))
        out = partial_derivative(const, 1, 3)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_matches_finite_differences(self, g1):
        a = smooth_bump(g1, width=1.3)
        spectral = partial_derivative(a, 0, 1)
        fd = fd_derivative(a, 0, 1)
        scale = np.max(np.abs(spectral.values))
        assert np.max(np.abs(spectral.values - fd.values)) < 1e-4 * scale

    def test_round_trip_inverse(self, g1):
        # derivative then antiderivative on a zero-mean band field
        xi = g1.freq_component(0)
        mult = np.where((np.abs(xi) > 0.5) & (np.abs(xi) < 2.0), 1.0, 0.0)
        rng = np.random.default_rng(1)
        a = apply_multiplier(
            SampledField(g1, rng.normal(size=g1.shape)), mult)
        d = partial_derivative(a, 0, 2)
        inv = np.zeros_like(xi, dtype=np.complex128)
        nz = mult > 0
        inv[nz] = (2j * np.pi * xi[nz]) ** (-2)
        back = apply_multiplier(d, inv)
        assert np.max(np.abs(back.values - a.values)) < 1e-10 * np.max(np.abs(a.values))

    def test_2d_axis(self, g2):
        a = mode(g2, (0.25, 0.5))
        out = partial_derivative(a, 1, 2)
        expected = (2j * np.pi * 0.5) ** 2 * a.values
        assert np.max(np.abs(out.values - expected)) < 1e-8


class TestNorms:
    def test_indicator_l1(self, g1):
        u = SampledField(g1, cube_mask(g1, [unit_cube(1)]))
        assert weighted_lp_norm(u, None, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert weighted_lp_norm(u, None, math.inf) == 1.0

    def test_weighted_indicator(self, g1):
        u = SampledField(g1, cube_mask(g1, [unit_cube(1)]))
        w = rho_values(g1, unit_cube(1)) ** -2.0
        assert weighted_lp_norm(u, w, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_weight_range(self, g2):
        w = level_weights(g2, -1, 3.0)(DyadicCube(-1, (0, 1)))
        assert np.all(w > 0)
        assert np.all(w <= 1.0)
        rho = rho_values(g2, DyadicCube(-1, (0, 1)))
        assert np.all((w == 1.0) == (rho == 1.0))

    def test_scaling_homogeneity(self, g1):
        a = smooth_bump(g1)
        for p in (1.0, 2.0, math.inf):
            assert weighted_lp_norm(2.0 * a, None, p) == pytest.approx(
                2 * weighted_lp_norm(a, None, p), rel=1e-12)


class TestMasks:
    def test_cube_mask_measure(self, g1):
        mask = cube_mask(g1, [DyadicCube(-2, (1,)), DyadicCube(-2, (3,))])
        assert mask.sum() * g1.spacing == pytest.approx(0.5, abs=1e-12)

    def test_misaligned_cube_refused(self):
        coarse = TorusGrid(1, 8.0, 1 << 4)
        with pytest.raises(ResolutionError):
            cube_mask(coarse, [DyadicCube(-2, (0,))])

    def test_collar_contains_and_bounds(self, g1):
        cubes = [DyadicCube(-1, (0,))]
        fine = -4
        mask = collar_mask(g1, cubes, fine)
        inner = cube_mask(g1, cubes)
        assert np.all(mask[inner])
        x = g1.axis_points
        dist = np.maximum(np.maximum(0.0 - x, x - 0.5), 0.0)
        assert not np.any(mask & (dist > 2 * 2.0**fine))


class TestMollifiedIndicator:
    def test_empty_set(self, g1):
        kappa = build_mollifier(g1, 2.0 ** -5)
        out = mollified_indicator(g1, [], 0, 0, kappa)
        assert np.max(np.abs(out.values)) == 0.0

    def test_plateau_and_support(self, g1):
        e_cubes = [DyadicCube(0, (-1,)), DyadicCube(0, (0,)), DyadicCube(0, (1,))]
        kappa = build_mollifier(g1, 0.75 * 2.0 ** -3)
        chi = mollified_indicator(g1, e_cubes, 0, 0, kappa)
        on = cube_mask(g1, e_cubes)
        assert np.max(np.abs(chi.values[on] - 1.0)) < 1e-10
        x = g1.axis_points
        dist = np.maximum(np.maximum(-1.0 - x, x - 2.0), 0.0)
        outside = dist > 2.0 ** -1
        assert np.max(np.abs(chi.values[outside])) < 1e-12
        assert np.min(chi.values.real) > -1e-10
        assert np.max(chi.values.real) < 1 + 1e-10

    def test_resolution_refusal(self):
        coarse = TorusGrid(1, 8.0, 1 << 6)
        kappa = build_mollifier(coarse, 0.5)
        with pytest.raises(ResolutionError) as err:
            mollified_indicator(coarse, [DyadicCube(0, (0,))], 0, 4, kappa)
        assert err.value.required_samples is not None


class TestCondExpectation:
    def test_measurable_fixed_point(self, g1):
        cells = (DyadicCube(-1, (0,)), DyadicCube(-1, (1,)))
        part = DyadicPartition(unit_cube(1), cells)
        f = SampledField(g1, cube_mask(g1, [DyadicCube(-1, (0,))]))
        g = cond_expectation(f, part)
        assert np.max(np.abs(g.values - f.values)) < 1e-14

    def test_grid_mean(self, g1):
        part = DyadicPartition(unit_cube(1), (unit_cube(1),))
        x = np.where((g1.axis_points >= 0) & (g1.axis_points < 1), g1.axis_points, 0.0)
        f = SampledField(g1, x)
        g = cond_expectation(f, part)
        inside = cube_mask(g1, [unit_cube(1)])
        expected = np.mean(f.values[inside])
        assert np.max(np.abs(g.values[inside] - expected)) < 1e-14
        assert np.max(np.abs(g.values[~inside])) == 0.0

    def test_projection_identities(self, g1):
        rng = np.random.default_rng(5)
        cells = (DyadicCube(-2, (0,)), DyadicCube(-2, (1,)), DyadicCube(-1, (1,)))
        part = DyadicPartition(unit_cube(1), cells)
        f = SampledField(g1, rng.normal(size=g1.shape))
        g = cond_expectation(f, part)
        for level in range(0, -4, -1):
            for k in range(0, 2 ** (-level)):
                cube = DyadicCube(level, (k,))
                if part.sigma_contains(cube):
                    assert abs(cube_average(f, cube) - cube_average(g, cube)) < 1e-12
                else:
                    sl = g1.cube_slices(cube)
                    block = g.values[sl]
                    assert np.max(np.abs(block - cube_average(g, cube))) < 1e-12


class TestModulate:
    def test_identity_at_zero(self, g1):
        a = smooth_bump(g1)
        out = modulate(a, 0.0)
        assert np.max(np.abs(out.values - a.values)) == 0.0

    def test_group_property(self, g1):
        a = smooth_bump(g1)
        eta = 5.0 / 16.0
        out = modulate(modulate(a, eta), -eta)
        assert np.max(np.abs(out.values - a.values)) < 1e-12

    def test_off_lattice_warns(self, g1):
        with pytest.warns(UserWarning):
            modulate(smooth_bump(g1), 0.0301)


class TestIO:
    def test_round_trip(self, tmp_path, g2):
        rng = np.random.default_rng(2)
        a = SampledField(g2, rng.normal(size=g2.shape) + 1j * rng.normal(size=g2.shape))
        path = tmp_path / "f.bin"
        save_field(a, path)
        b = load_field(path)
        assert b.grid == g2
        assert np.array_equal(a.values, b.values)

    def test_truncated_file(self, tmp_path, g1):
        path = tmp_path / "f.bin"
        save_field(zero_field(g1), path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValidationError, match=r"65520 bytes, expected 65536"):
            load_field(path)

    def test_inner_product_self(self, g1):
        a = smooth_bump(g1)
        ip = inner_product(a, a)
        assert ip.real == pytest.approx(weighted_lp_norm(a, None, 2.0) ** 2, rel=1e-12)
        assert abs(ip.imag) < 1e-12
