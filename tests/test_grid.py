"""Spectral grid: transforms, convolution, derivatives, norms, indicators."""

import math

import numpy as np
import pytest
from oracles import field_multiplier, level_weights

from phaseproj.cubes import DyadicCube, unit_cube
from phaseproj.errors import ResolutionError, ValidationError
from phaseproj.grid import (
    SampledField,
    TorusGrid,
    apply_multiplier,
    collar_mask,
    convolve,
    cube_mask,
    fd_derivative,
    inner_product,
    kernel_field_from_multiplier,
    load_field,
    lp_norm,
    lp_norms,
    modulate,
    mollified_indicator,
    partial_derivative,
    physical_spectrum,
    response_writer,
    rho_values,
    save_field,
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


class TestGridType:
    @pytest.mark.parametrize("half_width",
                             [10.0, 12, 8.5, math.inf, math.nan, 4.0, 10 ** 400, 2 ** 1100])
    def test_half_width_off_the_powers_of_two_refused(self, half_width):
        with pytest.raises(ValidationError, match="power of two >= 8"):
            TorusGrid(1, half_width, 1 << 6)

    @pytest.mark.parametrize("half_width", [8, 16.0, 32.0])
    def test_power_of_two_half_width_accepted(self, half_width):
        grid = TorusGrid(1, half_width, 1 << 6)
        assert grid.half_width == half_width and isinstance(grid.half_width, float)
        assert math.frexp(grid.spacing)[0] == 0.5


class TestSharedState:
    def test_equal_grids_share_read_only_arrays(self):
        first, equal = TorusGrid(2, 8.0, 1 << 5), TorusGrid(2, 8, 1 << 5)
        other = TorusGrid(2, 8.0, 1 << 6)
        assert first is not equal and first == equal
        for name in ("axis_points", "axis_freqs", "freq_radius", "space_radius"):
            shared = getattr(equal, name)
            assert shared is getattr(first, name)
            assert not shared.flags.writeable
            assert getattr(other, name) is not shared

    def test_caller_array_stays_writable(self, g1):
        a = np.zeros(g1.shape, dtype=complex)
        field = SampledField(g1, a)
        a[0] = 1
        assert np.shares_memory(field.values, a)
        assert not field.values.flags.writeable
        with pytest.raises(ValueError):
            field.values[0] = 2


class TestConvolution:
    def test_delta_is_identity(self, g1):
        vals = np.zeros(g1.shape)
        vals[g1.samples // 2] = 1.0 / g1.spacing   # the point x = 0
        delta = SampledField(g1, vals)
        a = smooth_bump(g1)
        out = convolve(a, delta)
        assert np.max(np.abs(out.values - a.values)) < 1e-10

    def test_mean_preservation(self, g1):
        kern = build_mollifier(g1, 0.5)
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
        a = smooth_bump(g1)
        kern = smooth_bump(g1, width=0.3)
        via_field = convolve(a, kern)
        via_mult = apply_multiplier(a, field_multiplier(kern))
        assert np.max(np.abs(via_field.values - via_mult.values)) < 1e-12


class TestSpectrum:
    def test_parseval(self, g1):
        rng = np.random.default_rng(0)
        a = SampledField(g1, rng.normal(size=g1.shape) + 1j * rng.normal(size=g1.shape))
        space = lp_norm(a, 2.0)
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
        # cached fft(); it must be the transform of the output's values.  A
        # derivative is never transformed again and keeps none.
        grid = request.getfixturevalue(grid_name)
        rng = np.random.default_rng(1)
        a = SampledField(grid, rng.normal(size=grid.shape)
                         + 1j * rng.normal(size=grid.shape))
        assert partial_derivative(a, grid.dim - 1, 3)._fft is None
        outputs = [
            apply_multiplier(a, np.exp(-grid.freq_radius ** 2)),
            convolve(a, smooth_bump(grid)),
        ]
        for out in outputs:
            assert out._fft is not None
            fresh = np.fft.fftn(out.values)
            scale = np.max(np.abs(fresh))
            assert np.max(np.abs(out.fft() - fresh)) <= 1e-10 * scale

    @pytest.mark.parametrize("grid_name,shapes", [
        # d = 1: the lattice, a band to just below Nyquist, then a wide band
        # followed by narrow ones, each read where the wider one left values
        ("g1", [(4096,), (4095,), (2049,), (17,), (4096,), (1,)]),
        # d = 2: the lattice, a band whose first axis reaches Nyquist, a
        # wide then a narrow band, and the lattice between two bands
        ("g2", [(128, 128), (128, 9), (65, 97), (5, 3), (128, 128), (1, 33)]),
    ])
    def test_response_writer_equals_apply_multiplier(self, grid_name, shapes, request):
        # |a * k| written into one buffer, band after band, equals the
        # magnitude of apply_multiplier's field bit for bit: the spectrum
        # buffer is zero off each band again after a wider one.  Complex
        # and real fields, each band taken as a real kernel's and as a
        # complex one's in turn, so that a real field's half-spectrum
        # products and its full ones share the buffer
        grid = request.getfixturevalue(grid_name)
        rng = np.random.default_rng(2)
        for a in (SampledField(grid, rng.normal(size=grid.shape)
                               + 1j * rng.normal(size=grid.shape)),
                  SampledField(grid, rng.normal(size=grid.shape))):
            write, out = response_writer(a), np.empty(grid.shape)
            for k, shape in enumerate(shapes):
                band = rng.normal(size=shape)
                if k % 2:
                    band = band + 1j * rng.normal(size=shape)
                for real in (k % 2 == 0, k % 2 == 1):
                    assert write(band, out, real) is out
                    want = np.abs(apply_multiplier(a, band, True, real).values)
                    assert np.array_equal(out, want), (shape, real)

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

    def test_odd_order_zeroes_the_nyquist_row_alone(self):
        # at N = 2^18 and B = 16 a relative tolerance around the Nyquist
        # frequency 4096 would also catch its neighbours 4096 - 1/32 ...
        grid = TorusGrid(1, 16.0, 1 << 18)
        xi0 = grid.axis_freqs[grid.samples // 2 - 1]
        out = partial_derivative(mode(grid, xi0), 0, 1)
        expected = 2 * np.pi * xi0
        assert np.max(np.abs(out.values)) == pytest.approx(expected, rel=1e-9)
        # ... while the Nyquist row itself is zeroed, up to roundoff
        nyquist = partial_derivative(mode(grid, grid.nyquist), 0, 1)
        assert np.max(np.abs(nyquist.values)) < 1e-9 * 2 * np.pi * grid.nyquist


class TestNorms:
    def test_indicator_l1(self, g1):
        u = SampledField(g1, cube_mask(g1, [unit_cube(1)]))
        assert lp_norm(u, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert lp_norm(u, math.inf) == 1.0

    def test_weighted_indicator(self, g1):
        u = SampledField(g1, cube_mask(g1, [unit_cube(1)]))
        w = rho_values(g1, unit_cube(1)) ** -2.0
        assert lp_norms(np.abs(u.values), g1.spacing, (1.0,), w)[1.0] == pytest.approx(
            1.0, abs=1e-12)

    def test_weight_range(self, g2):
        w = level_weights(g2, -1, 3.0)(DyadicCube(-1, (0, 1)))
        assert np.all(w > 0)
        assert np.all(w <= 1.0)
        rho = rho_values(g2, DyadicCube(-1, (0, 1)))
        assert np.all((w == 1.0) == (rho == 1.0))

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan, -math.inf])
    def test_p_not_positive_refused(self, p):
        with pytest.raises(ValidationError, match="p must be positive"):
            lp_norms(np.ones(8), 1.0, (p,))

    @pytest.mark.parametrize("p", ["a", None, 2j])
    def test_p_not_a_number_refused(self, p):
        # a string or None compared with 0 raised a bare TypeError
        with pytest.raises(ValidationError, match="p must be positive"):
            lp_norms(np.ones(8), 1.0, (p,))

    def test_scaling_homogeneity(self, g1):
        a = smooth_bump(g1)
        for p in (1.0, 2.0, math.inf):
            assert lp_norm(2.0 * a, p) == pytest.approx(
                2 * lp_norm(a, p), rel=1e-12)


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


def rasterized_boxes(grid, boxes):
    """Mask of the grid points x with lo <= x < hi on every axis for some
    (lo, hi) pair of corner tuples, tested point by point on axis_points."""
    mask = np.zeros(grid.shape, dtype=bool)
    for lo, hi in boxes:
        inside = np.ones(grid.shape, dtype=bool)
        for ax in range(grid.dim):
            x = grid.point_component(ax)
            inside = inside & (lo[ax] <= x) & (x < hi[ax])
        mask |= inside
    return mask


class TestMasksOnWiderGrids:
    @pytest.mark.parametrize("half_width", [16.0, 32.0])
    @pytest.mark.parametrize("dim,samples", [(1, 1 << 9), (2, 1 << 7)])
    def test_masks_equal_rasterized_boxes(self, half_width, dim, samples):
        grid = TorusGrid(dim, half_width, samples)
        cubes = [DyadicCube(1, (-4, 2)[:dim]), DyadicCube(0, (5, -9)[:dim]),
                 DyadicCube(-1, (-17, 11)[:dim])]
        boxes = [(tuple(k * c.side for k in c.index),
                  tuple((k + 1) * c.side for k in c.index)) for c in cubes]
        assert np.array_equal(cube_mask(grid, cubes), rasterized_boxes(grid, boxes))
        fine = -1
        pad = 2 * 2.0 ** fine
        collars = [(tuple(x - pad for x in lo), tuple(x + pad for x in hi))
                   for lo, hi in boxes]
        assert np.array_equal(collar_mask(grid, cubes, fine),
                              rasterized_boxes(grid, collars))

    def test_collar_refusals(self):
        grid = TorusGrid(1, 16.0, 1 << 8)
        collar_mask(grid, [DyadicCube(0, (14,))], -2)
        with pytest.raises(ValidationError, match="collar escapes"):
            collar_mask(grid, [DyadicCube(0, (15,))], -2)
        with pytest.raises(ValidationError, match="finer than the cube level"):
            collar_mask(grid, [DyadicCube(-3, (0,))], -2)


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

    def test_real_round_trip(self, tmp_path, g2):
        # float64 samples behind a header whose complex flag is False
        a = SampledField(g2, np.random.default_rng(2).normal(size=g2.shape))
        path = tmp_path / "f.bin"
        save_field(a, path)
        b = load_field(path)
        assert b.grid == g2 and b.is_real
        assert np.array_equal(a.values, b.values)
        assert path.stat().st_size == 19 + 8 * g2.size   # the header is 19 bytes

    @pytest.mark.parametrize("dtype,expected", [(np.float64, 32768), (np.complex128, 65536)],
                             ids=["real", "complex"])
    def test_truncated_file(self, tmp_path, g1, dtype, expected):
        path = tmp_path / "f.bin"
        save_field(SampledField(g1, np.zeros(g1.shape, dtype=dtype)), path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ValidationError, match=rf"{expected - 16} bytes, expected {expected}"):
            load_field(path)

    def test_inner_product_self(self, g1):
        a = smooth_bump(g1)
        ip = inner_product(a, a)
        assert ip.real == pytest.approx(lp_norm(a, 2.0) ** 2, rel=1e-12)
        assert abs(ip.imag) < 1e-12
