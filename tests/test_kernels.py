"""Kernel factory: profiles, band supports, cones, antiderivatives, classes."""

import hashlib
import math

import numpy as np
import pytest

from oracles import cone_partition, is_real, kappa_kernel, psi_kernel
from phaseproj import kernels
from phaseproj.errors import ResolutionError, ValidationError
from phaseproj.grid import (
    SampledField,
    TorusGrid,
    apply_multiplier,
    weighted_lp_norm,
)
from phaseproj.kernels import (
    BumpProfile,
    DictionarySpec,
    build_dictionary,
    build_mollifier,
    build_psi_cone,
    build_tau,
    build_sinc_power,
    build_theta,
    class_envelope,
    class_membership,
    cone_multiplier_values,
    smooth_step,
    tau_multiplier,
)

ALPHA = 2.0


@pytest.fixture(scope="module")
def g1():
    return TorusGrid(1, 8.0, 1 << 13)


@pytest.fixture(scope="module")
def g2():
    return TorusGrid(2, 8.0, 1 << 8)


class TestProfile:
    def test_exact_plateaus(self):
        prof = BumpProfile(1.0, 2.0)
        t = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
        vals = prof(t)
        assert vals[0] == 1.0 and vals[1] == 1.0 and vals[2] == 1.0
        assert vals[3] == 0.0 and vals[4] == 0.0

    def test_monotone(self):
        prof = BumpProfile(1.0, 2.0)
        t = np.linspace(0.9, 2.1, 500)
        vals = prof(t)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_step_endpoints(self):
        assert smooth_step(np.array([0.0]))[0] == 0.0
        assert smooth_step(np.array([1.0]))[0] == 1.0

    def test_derivatives_bounded(self):
        # C-infinity check: finite differences of increasing order stay
        # bounded and consistent across two resolutions
        prof = BumpProfile(1.0, 2.0)
        for n, factor in ((1 << 12, 1), (1 << 13, 2)):
            t = np.linspace(0.0, 3.0, n)
            dt = t[1] - t[0]
            vals = prof(t)
            for order in range(1, 7):
                vals = np.gradient(vals, dt)
            bound = np.max(np.abs(vals))
            assert np.isfinite(bound)
            if factor == 1:
                first = bound
        assert bound < 10 * first + 1e6

    def test_validation(self):
        with pytest.raises(ValidationError):
            BumpProfile(2.0, 1.0)


class TestTau:
    def test_unit_mass(self, g1):
        for j in (-3, -1, 0):
            tau = build_tau(g1, j)
            mass = float(np.sum(tau.field.values).real) * g1.spacing
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_support_boundary(self, g1):
        j = -2
        tau = build_tau(g1, j)
        r = g1.freq_radius
        outside = r >= 2.0 ** (1 - j)
        assert np.max(np.abs(tau.multiplier[outside])) == 0.0
        # the multiplier profile vanishes at |xi| = 2^(1.5-j) > 2^(1-j)
        from phaseproj.kernels import LOWPASS_PROFILE
        assert LOWPASS_PROFILE(np.array([2.0 ** j * 2.0 ** (1.5 - j)]))[0] == 0.0

    def test_low_band_is_one(self, g1):
        tau = build_tau(g1, -2)
        inside = g1.freq_radius <= 2.0 ** 2
        assert np.min(tau.multiplier[inside]) == 1.0

    def test_class_certificate(self, g1):
        j = -2
        tau = build_tau(g1, j + 1)
        cert = class_membership(tau, j, 4 * ALPHA, "phi")
        assert cert["leak"] <= 1e-12
        assert np.isfinite(cert["lambda_max"]) and cert["lambda_max"] > 0

    def test_nyquist_refusal(self, g1):
        with pytest.raises(ResolutionError):
            build_tau(g1, -12)

    def test_real_valued(self, g1):
        tau = build_tau(g1, -1)
        assert is_real(tau.field, 1e-12)


class TestPsi:
    def test_zero_mean(self, g1):
        psi = psi_kernel(g1, -2)
        assert abs(np.sum(psi.field.values)) * g1.spacing < 1e-12

    def test_annulus_support(self, g1):
        j = -2
        psi = psi_kernel(g1, j)
        r = g1.freq_radius
        dead = (r >= 2.0 ** (2 - j)) | (r <= 2.0 ** (-j))
        assert np.max(np.abs(psi.multiplier[dead])) == 0.0

    def test_telescoping_exact(self, g1):
        total = np.zeros(g1.shape)
        for j in range(-3, 1):
            total = total + psi_kernel(g1, j).multiplier
        total = total + tau_multiplier(g1, 0)
        expected = tau_multiplier(g1, -4)
        assert np.max(np.abs(total - expected)) == 0.0

    def test_class_certificate(self, g1):
        j = -2
        for n in range(g1.dim):
            piece = build_psi_cone(g1, n, j)
            cert = class_membership(piece, j - 2, 4 * ALPHA, "psi")
            assert cert["leak"] <= 1e-12
            assert np.isfinite(cert["lambda_max"])

    def test_moment_vanishing(self, g1):
        # spectrum vanishes near zero, so low moments vanish
        psi = psi_kernel(g1, -3)
        x = g1.axis_points
        for beta in (0, 1):
            num = abs(np.sum(x ** beta * psi.field.values)) * g1.spacing
            den = np.sum(np.abs(x ** beta * psi.field.values)) * g1.spacing
            assert num <= 1e-8 * den

    def test_rescaling_consistency(self, g1):
        # tau_j(x) = 2^d tau_{j+1}(2x) where both scales resolve
        tau_a = build_tau(g1, -4)
        tau_b = build_tau(g1, -3)
        n = g1.samples
        idx = np.arange(n // 4 + 1, 3 * n // 4 - 1)  # |x| < B/2
        idx2 = 2 * idx - n // 2                      # grid index of 2x
        va = tau_a.field.values[idx]
        vb = 2.0 * tau_b.field.values[idx2]
        scale = np.max(np.abs(va))
        assert np.max(np.abs(va - vb)) < 1e-10 * scale


class TestCones:
    def test_d1_identity_on_annulus(self):
        zeta = np.linspace(1.0, 4.0, 200)
        chi = cone_multiplier_values(1, 0, [zeta])
        assert np.max(np.abs(chi - 1.0)) == 0.0

    def test_d2_axis_point(self):
        z = [np.array([2.0]), np.array([0.0])]
        chi2 = cone_multiplier_values(2, 1, z)
        chi1 = cone_multiplier_values(2, 0, z)
        assert chi2[0] == 0.0
        assert chi1[0] == pytest.approx(1.0, abs=1e-15)

    def test_partition_of_unity_on_annulus(self, g2):
        rng = np.random.default_rng(11)
        pts = []
        while len(pts) < 512:
            cand = rng.integers(-64, 65, size=2) / 16.0
            r = math.hypot(*cand)
            if 1.0 <= r <= 4.0:
                pts.append(cand)
        pts = np.array(pts)
        axes = [pts[:, 0], pts[:, 1]]
        total = sum(cone_multiplier_values(2, n, axes) for n in range(2))
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_support_in_cone(self, g2):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-8, 8, size=(4000, 2))
        axes = [pts[:, 0], pts[:, 1]]
        for n in range(2):
            chi = cone_multiplier_values(2, n, axes)
            outside = 2 * 2 * pts[:, n] ** 2 <= pts[:, 0] ** 2 + pts[:, 1] ** 2
            assert np.max(np.abs(chi[outside])) == 0.0

    def test_permutation_symmetry(self):
        z = [np.array([1.3]), np.array([2.1])]
        a = cone_multiplier_values(2, 0, z)
        b = cone_multiplier_values(2, 1, z[::-1])
        assert a[0] == pytest.approx(b[0], abs=1e-15)

    def test_pieces_sum_to_psi(self, g2):
        j = -1
        total = np.zeros(g2.shape)
        for n in range(2):
            total = total + build_psi_cone(g2, n, j).multiplier
        psi = psi_kernel(g2, j).multiplier
        assert np.max(np.abs(total - psi)) < 1e-15

    def test_callable_list(self):
        fns = cone_partition(2)
        z = [np.array([2.0]), np.array([2.0])]
        total = sum(fn(z) for fn in fns)
        assert total[0] == pytest.approx(1.0, abs=1e-12)


class TestTheta:
    def test_support_annulus(self, g1):
        j = -2
        theta = build_theta(g1, 0, j)
        r = g1.freq_radius
        dead = (r >= 2.0 ** (2 - j)) | (r <= 2.0 ** (-j))
        assert np.max(np.abs(theta.multiplier[dead])) == 0.0

    def test_antiderivative_identity(self, g1):
        j = -2
        theta = build_theta(g1, 0, j)
        psi = build_psi_cone(g1, 0, j)
        xi = g1.freq_component(0)
        product = theta.multiplier * (2j * np.pi * xi) ** (g1.dim + 1)
        assert np.max(np.abs(product - psi.multiplier)) < 1e-12 * np.max(np.abs(psi.multiplier))

    def test_antiderivative_identity_2d(self, g2):
        j = 0
        for n in range(2):
            theta = build_theta(g2, n, j)
            psi = build_psi_cone(g2, n, j)
            xi = np.broadcast_to(g2.freq_component(n), g2.shape)
            product = theta.multiplier * (2j * np.pi * xi) ** 3
            assert np.max(np.abs(product - psi.multiplier)) < 1e-12 * np.max(
                np.abs(psi.multiplier))

    def test_derivative_class_certificates(self, g1):
        # derivatives of theta stay in (scaled) annulus classes with
        # finite empirical constants
        j = -2
        theta = build_theta(g1, 0, j)
        d = g1.dim
        for order in (0, 1, d + 1, 3 * d + 3):
            xi = g1.freq_component(0)
            mult = theta.multiplier * (2j * np.pi * xi) ** order
            if order % 2 == 1:
                mult = np.where(np.isclose(np.abs(xi), g1.nyquist), 0.0, mult)
            from phaseproj.grid import kernel_field_from_multiplier
            from phaseproj.kernels import KernelHandle
            scaled = 2.0 ** (-j * (d + 1 - order)) * mult
            h = KernelHandle(g1, f"dtheta{order}", "psi", j, scaled,
                             kernel_field_from_multiplier(g1, scaled))
            cert = class_membership(h, j - 2, 4 * ALPHA, "psi")
            assert cert["leak"] <= 1e-12
            assert np.isfinite(cert["lambda_max"]) and cert["lambda_max"] > 0

    def test_real_valued(self, g1):
        theta = build_theta(g1, 0, -2)
        assert is_real(theta.field, 1e-12)


class TestKappa:
    def test_unit_grid_mass(self):
        fine = TorusGrid(1, 8.0, 1 << 14)
        kappa = kappa_kernel(fine, 0)
        mass = float(np.sum(kappa.field.values).real) * fine.spacing
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_support(self):
        fine = TorusGrid(1, 8.0, 1 << 14)
        kappa = kappa_kernel(fine, 0)
        x = fine.axis_points
        at = np.isclose(np.abs(x), 2.0 ** -8)
        assert np.any(at)
        assert np.max(np.abs(kappa.field.values[at])) == 0.0
        beyond = np.abs(x) >= 2.0 ** -9
        assert np.max(np.abs(kappa.field.values[beyond])) == 0.0

    def test_nonnegative(self):
        fine = TorusGrid(1, 8.0, 1 << 14)
        kappa = kappa_kernel(fine, 0)
        assert np.min(kappa.field.values.real) >= 0.0
        assert is_real(kappa.field, 1e-14)

    def test_refusal(self, g1):
        with pytest.raises(ResolutionError) as err:
            kappa_kernel(g1, -4)
        assert err.value.required_samples is not None

    def test_scaled_version(self):
        fine = TorusGrid(1, 8.0, 1 << 14)
        kappa = kappa_kernel(fine, 2)
        x = fine.axis_points
        beyond = np.abs(x) >= 2.0 ** -7
        assert np.max(np.abs(kappa.field.values[beyond])) == 0.0
        mass = float(np.sum(kappa.field.values).real) * fine.spacing
        assert mass == pytest.approx(1.0, abs=1e-10)


class TestClassMembership:
    def test_zero_kernel_passes(self, g1):
        from phaseproj.kernels import KernelHandle
        zero = KernelHandle(g1, "zero", "phi", 0, np.zeros(g1.shape),
                            SampledField(g1, np.zeros(g1.shape)))
        cert = class_membership(zero, 0, 4 * ALPHA, "phi")
        assert cert["passed"]
        assert cert["lambda_max"] == math.inf

    def test_normalization_fixed_point(self, g1):
        tau = build_tau(g1, -1)
        cert = class_membership(tau, -2, 4 * ALPHA, "phi")
        lam = cert["lambda_max"]
        scaled = tau.scaled(lam)
        cert2 = class_membership(scaled, -2, 4 * ALPHA, "phi")
        assert cert2["lambda_max"] == pytest.approx(1.0, rel=1e-9)
        assert cert2["passed"]


class TestDictionary:
    def test_all_members_normalized(self, g1):
        for kind in ("phi", "psi"):
            dicts = build_dictionary(g1, -3, 4 * ALPHA, kind)
            assert dicts
            for handle in dicts:
                assert handle.certificate["passed"], handle.kernel_id
                assert handle.certificate["lambda_max"] >= 1.0 - 1e-9

    def test_size_reported(self, g1):
        spec = DictionarySpec(n_tau=2, n_psi=1, n_mod=1, n_trans=1, n_sinc=0,
                              n_sinc_mod=0)
        dict_phi = build_dictionary(g1, -3, 4 * ALPHA, "phi", spec)
        assert 3 <= len(dict_phi) <= 5

    def test_monotone_under_enrichment(self, g1):
        # a max over a superset dictionary can only grow
        rng = np.random.default_rng(4)
        f = SampledField(g1, rng.normal(size=g1.shape))
        small = build_dictionary(g1, -3, 4 * ALPHA, "phi",
                                 DictionarySpec(1, 1, 0, 0, 1, 0))
        big = build_dictionary(g1, -3, 4 * ALPHA, "phi",
                               DictionarySpec(3, 2, 2, 2, 1, 2))
        small_ids = {k.kernel_id for k in small}
        assert small_ids <= {k.kernel_id for k in big}

        def surrogate(dictionary):
            return max(weighted_lp_norm(apply_multiplier(f, k.multiplier), None, 2.0)
                       for k in dictionary)

        assert surrogate(big) >= surrogate(small) - 1e-12

    def test_cached_multipliers_read_only(self, g1):
        # dictionaries are shared through the cache, without fields
        dicts = build_dictionary(g1, -3, 4 * ALPHA, "phi")
        assert dicts is build_dictionary(g1, -3, 4 * ALPHA, "phi")
        for handle in dicts:
            assert handle.field is None
            assert not handle.multiplier.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                handle.multiplier[0] = 0.0

    def test_2d_dictionary(self, g2):
        dicts = build_dictionary(g2, -1, 4 * 3.0, "phi", DictionarySpec(2, 1, 1, 1))
        assert len(dicts) >= 4
        for handle in dicts:
            assert handle.certificate["passed"]


def dictionary_digest(dictionary):
    """SHA-256 over each kernel's id, multiplier bytes and certificate
    repr, in kernel_id order."""
    h = hashlib.sha256()
    for handle in sorted(dictionary, key=lambda k: k.kernel_id):
        h.update(handle.kernel_id.encode())
        h.update(handle.multiplier.tobytes())
        h.update(repr(handle.certificate).encode())
    return h.hexdigest()


# Frozen before the dictionary builder was restructured: any change to a
# multiplier, a certificate or the candidate set shows here.  The third
# key (False: no kernel fields kept) is part of the test ids the hashes
# were frozen under.
GOLDEN_DICTIONARIES = {
    ("d1", "phi", False): "c8c7c7e4e04ef38d58820871e42ba95012378c9c28cc1b48d58a7ede6835f88b",
    ("d1", "psi", False): "37d5f128148f1497fc5fdff47b9b8a70fb1adaeb4dcdab8407e358933a6ddfcc",
    ("d2", "phi", False): "73b32505ef678db6f3c7f67077f5d315595e6175bc3e4c9dc3cd81b882394480",
}


@pytest.mark.parametrize("dim,kind,fields", sorted(GOLDEN_DICTIONARIES))
def test_dictionary_golden_hash(dim, kind, fields, g1, g2):
    if dim == "d1":
        dictionary = build_dictionary(g1, -3, 4 * ALPHA, kind)
    else:
        dictionary = build_dictionary(g2, -1, 4 * 3.0, kind, DictionarySpec(2, 1, 1, 1))
    assert dictionary_digest(dictionary) == GOLDEN_DICTIONARIES[(dim, kind, fields)]


class TestCaches:
    """The per-class dictionary LRU and the per-box and per-class arrays."""

    SPEC = DictionarySpec(n_tau=1, n_psi=1, n_mod=0, n_trans=0, n_sinc=0, n_sinc_mod=0)

    @pytest.fixture
    def small(self):
        return TorusGrid(1, 8.0, 1 << 10)

    def build(self, grid, i):
        # one class per beta; beta is part of the cache key
        return build_dictionary(grid, -2, 4.0 + i, "phi", self.SPEC)

    @staticmethod
    def cached(dictionary):
        return any(v is dictionary for v in kernels._DICTIONARY_CACHE.values())

    def test_sixteen_classes_stay_cached(self, small):
        built = [self.build(small, i) for i in range(16)]
        assert len(kernels._DICTIONARY_CACHE) == 16
        assert all(self.cached(d) for d in built)
        assert all(self.build(small, i) is d for i, d in enumerate(built))

    def test_seventeenth_class_evicts_least_recent(self, small):
        built = [self.build(small, i) for i in range(17)]
        assert len(kernels._DICTIONARY_CACHE) == 16
        assert not self.cached(built[0])
        assert all(self.cached(d) for d in built[1:])
        rebuilt = self.build(small, 0)
        assert rebuilt is not built[0]
        assert [k.kernel_id for k in rebuilt] == [k.kernel_id for k in built[0]]

    def test_hit_refreshes_recency(self, small):
        built = [self.build(small, i) for i in range(16)]
        assert self.build(small, 0) is built[0]
        self.build(small, 16)
        assert self.cached(built[0])
        assert not self.cached(built[1])

    def test_profile_shared_across_signs_and_axes(self, g2):
        eta = 3 * 2.0 ** -3
        handles = [build_sinc_power(g2, -1, 12.0, "phi", np.array(e))
                   for e in ([eta, 0.0], [-eta, 0.0], [0.0, eta], [0.0, -eta])]
        info = kernels._periodized_sinc_power.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        # a sign flip of eta conjugates the kernel; the box is the same
        assert np.array_equal(handles[1].field.values, np.conj(handles[0].field.values))

    def test_profile_read_only(self, g1):
        profile = kernels._periodized_sinc_power(g1, 0.5, 4, 2.0 ** -4)
        assert kernels._periodized_sinc_power(g1, 0.5, 4, 2.0 ** -4) is profile
        with pytest.raises(ValueError, match="read-only"):
            profile[0] = 0.0

    def test_envelope_read_only(self, g1):
        env = class_envelope(g1, -3, 4 * ALPHA)
        assert class_envelope(g1, -3, 4 * ALPHA) is env
        with pytest.raises(ValueError, match="read-only"):
            env[0] = 0.0

    @pytest.mark.parametrize("kind", ["phi", "psi"])
    def test_forbidden_mask_read_only_and_exact(self, g1, kind):
        mask = kernels.forbidden_frequencies(g1, -3, kind)
        assert kernels.forbidden_frequencies(g1, -3, kind) is mask
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = False
        expected = g1.freq_radius >= 2.0 ** 3 * (1 - 1e-12)
        if kind == "psi":
            expected |= g1.freq_radius <= 2.0 ** 1 * (1 + 1e-12)
        assert np.array_equal(mask, expected)


def direct_sinc_power(grid, a, k_pow, center):
    """The seven-image sum evaluated point by point, in nu order."""
    x_rel = grid.axis_points - center
    per = np.zeros_like(x_rel)
    for nu in range(-3, 4):
        per = per + np.sinc(a * (x_rel + 2 * grid.half_width * nu)) ** (2 * k_pow)
    return per


class TestSincProfileTable:
    """The mirrored table behind _periodized_sinc_power gives the floats of
    the direct image sum."""

    @pytest.mark.parametrize("samples", [1 << 10, 1 << 13, 1 << 17])
    def test_equals_direct_images(self, samples):
        grid = TorusGrid(1, 8.0, samples)
        for j in range(-6, 1):
            center = 2.0 ** (j - 1)
            assert kernels._mirror_offset(grid, center) is not None
            for a, k_pow in ((2.0 ** -j / 3, 1), (0.37, 3), (2.0 ** -j / 8, 4)):
                got = kernels._periodized_sinc_power(grid, a, k_pow, center)
                assert np.array_equal(got, direct_sinc_power(grid, a, k_pow, center)), (
                    j, a, k_pow)

    @pytest.mark.parametrize("half_width,samples,center", [
        (10.0, 1 << 10, 0.25),        # spacing 5 * 2^-8: no mirrored lattice
        (8.0, 1 << 10, 2.0 ** -9),    # center off the half-step lattice
    ])
    def test_other_grids_take_the_direct_sum(self, half_width, samples, center):
        grid = TorusGrid(1, half_width, samples)
        assert kernels._mirror_offset(grid, center) is None
        got = kernels._periodized_sinc_power(grid, 0.3, 4, center)
        assert np.array_equal(got, direct_sinc_power(grid, 0.3, 4, center))
