"""Kernel factory: profiles, band supports, cones, antiderivatives, classes."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import PACKAGE_CACHES
from oracles import (
    bspline_central_offsets,
    class_membership_lattice,
    cone_partition,
    expand_band,
    is_real,
    kappa_kernel,
    lambda_max_masked,
    modulate_lattice,
    psi_cone_lattice,
    psi_kernel,
    psi_lattice,
    sinc_power_lattice,
    tau_lattice,
    translate_lattice,
)
from phaseproj import grid as grid_module
from phaseproj import kernels
from phaseproj.errors import ResolutionError, ValidationError
from phaseproj.grid import (
    SampledField,
    TorusGrid,
    apply_multiplier,
    frequency_band,
    kernel_field_from_multiplier,
    lp_norm,
)
from phaseproj.kernels import (
    BumpProfile,
    DictionarySpec,
    KernelHandle,
    bspline_central,
    build_dictionary,
    build_psi_cone,
    build_tau,
    build_sinc_power,
    build_theta,
    class_envelope,
    class_membership,
    cone_multiplier_values,
    psi_cone_multiplier,
    psi_multiplier,
    smooth_step,
    tau_multiplier,
)

ALPHA = 2.0


def same_bits(a, b):
    """Equal dtype, shape and bytes: -0.0 and 0.0 differ."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
        assert np.max(np.abs(expand_band(g1, tau.multiplier)[outside])) == 0.0
        # the multiplier profile vanishes at |xi| = 2^(1.5-j) > 2^(1-j)
        from phaseproj.kernels import LOWPASS_PROFILE
        assert LOWPASS_PROFILE(np.array([2.0 ** j * 2.0 ** (1.5 - j)]))[0] == 0.0

    def test_low_band_is_one(self, g1):
        tau = build_tau(g1, -2)
        inside = g1.freq_radius <= 2.0 ** 2
        assert np.min(expand_band(g1, tau.multiplier)[inside]) == 1.0

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
        total = total + expand_band(g1, tau_multiplier(g1, 0))
        expected = expand_band(g1, tau_multiplier(g1, -4))
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
            total = total + expand_band(g2, build_psi_cone(g2, n, j).multiplier)
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
        theta = expand_band(g1, build_theta(g1, 0, j).multiplier)
        r = g1.freq_radius
        dead = (r >= 2.0 ** (2 - j)) | (r <= 2.0 ** (-j))
        assert np.max(np.abs(theta[dead])) == 0.0

    def test_antiderivative_identity(self, g1):
        j = -2
        theta = expand_band(g1, build_theta(g1, 0, j).multiplier)
        psi = expand_band(g1, build_psi_cone(g1, 0, j).multiplier)
        xi = g1.freq_component(0)
        product = theta * (2j * np.pi * xi) ** (g1.dim + 1)
        assert np.max(np.abs(product - psi)) < 1e-12 * np.max(np.abs(psi))

    def test_antiderivative_identity_2d(self, g2):
        j = 0
        for n in range(2):
            theta = expand_band(g2, build_theta(g2, n, j).multiplier)
            psi = expand_band(g2, build_psi_cone(g2, n, j).multiplier)
            xi = np.broadcast_to(g2.freq_component(n), g2.shape)
            product = theta * (2j * np.pi * xi) ** 3
            assert np.max(np.abs(product - psi)) < 1e-12 * np.max(np.abs(psi))

    def test_derivative_class_certificates(self, g1):
        # derivatives of theta stay in (scaled) annulus classes with
        # finite empirical constants
        j = -2
        theta = expand_band(g1, build_theta(g1, 0, j).multiplier)
        d = g1.dim
        for order in (0, 1, d + 1, 3 * d + 3):
            xi = g1.freq_component(0)
            mult = theta * (2j * np.pi * xi) ** order
            if order % 2 == 1:
                mult = np.where(np.isclose(np.abs(xi), g1.nyquist), 0.0, mult)
            scaled = 2.0 ** (-j * (d + 1 - order)) * mult
            h = KernelHandle(g1, f"dtheta{order}", scaled,
                             kernel_field_from_multiplier(g1, scaled), True)
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
        mass = float(np.sum(kappa.values).real) * fine.spacing
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_support(self):
        fine = TorusGrid(1, 8.0, 1 << 14)
        kappa = kappa_kernel(fine, 0)
        x = fine.axis_points
        at = np.isclose(np.abs(x), 2.0 ** -8)
        assert np.any(at)
        assert np.max(np.abs(kappa.values[at])) == 0.0
        beyond = np.abs(x) >= 2.0 ** -9
        assert np.max(np.abs(kappa.values[beyond])) == 0.0

    def test_nonnegative(self):
        fine = TorusGrid(1, 8.0, 1 << 14)
        kappa = kappa_kernel(fine, 0)
        assert np.min(kappa.values.real) >= 0.0
        assert is_real(kappa, 1e-14)

    def test_refusal(self, g1):
        with pytest.raises(ResolutionError) as err:
            kappa_kernel(g1, -4)
        assert err.value.required_samples is not None

    def test_scaled_version(self):
        fine = TorusGrid(1, 8.0, 1 << 14)
        kappa = kappa_kernel(fine, 2)
        x = fine.axis_points
        beyond = np.abs(x) >= 2.0 ** -7
        assert np.max(np.abs(kappa.values[beyond])) == 0.0
        mass = float(np.sum(kappa.values).real) * fine.spacing
        assert mass == pytest.approx(1.0, abs=1e-10)


def scaled_kernel(handle, factor):
    """The kernel times `factor`: its multiplier and its spatial samples."""
    return replace(handle, multiplier=handle.multiplier * factor, field=handle.field * factor)


def certified_members(grid, level, beta, kind, spec):
    """Each candidate that build_dictionary keeps, scaled here by its own
    lambda_max, with the certificate of the scaled kernel."""
    kept = {k.kernel_id for k in build_dictionary(grid, level, beta, kind, spec)}
    out = []
    for cand in kernels._candidates(grid, level, beta, kind, spec):
        if cand.kernel_id in kept:
            lam = class_membership(cand, level, beta, kind)["lambda_max"]
            scaled = scaled_kernel(cand, lam)
            out.append((scaled, class_membership(scaled, level, beta, kind)))
    assert out and {k.kernel_id for k, _ in out} == kept
    return out


class TestClassMembership:
    def test_zero_kernel_passes(self, g1):
        zero = KernelHandle(g1, "zero", np.zeros(g1.shape),
                            SampledField(g1, np.zeros(g1.shape)), True)
        cert = class_membership(zero, 0, 4 * ALPHA, "phi")
        assert cert["passed"]
        assert cert["lambda_max"] == math.inf

    def test_normalization_fixed_point(self, g1):
        tau = build_tau(g1, -1)
        cert = class_membership(tau, -2, 4 * ALPHA, "phi")
        lam = cert["lambda_max"]
        scaled = scaled_kernel(tau, lam)
        cert2 = class_membership(scaled, -2, 4 * ALPHA, "phi")
        assert cert2["lambda_max"] == pytest.approx(1.0, rel=1e-9)
        assert cert2["passed"]

    @pytest.mark.parametrize("dim,kind", [("d1", "phi"), ("d1", "psi"), ("d2", "phi")])
    def test_band_certificate_equals_lattice_oracle(self, dim, kind):
        # the leak read on the band equals the leak over the lattice mask
        grid, level, beta, spec = GOLDEN_CLASSES[dim]
        for cand in kernels._candidates(grid, level, beta, kind, spec):
            assert (class_membership(cand, level, beta, kind)
                    == class_membership_lattice(cand, level, beta, kind)), cand.kernel_id


    @pytest.mark.parametrize("dim,kind", [("d1", "phi"), ("d1", "psi"), ("d2", "phi")])
    def test_lambda_equals_masked_oracle(self, dim, kind):
        # np.divide into an inf-filled buffer where |kernel| is significant
        # gives the nested-np.where lambda bit for bit
        grid, level, beta, spec = GOLDEN_CLASSES[dim]
        for cand in kernels._candidates(grid, level, beta, kind, spec):
            lam = class_membership(cand, level, beta, kind)["lambda_max"]
            assert lam.hex() == lambda_max_masked(cand, level, beta).hex(), cand.kernel_id


class TestDictionary:
    def test_all_members_normalized(self, g1):
        for kind in ("phi", "psi"):
            for handle, cert in certified_members(g1, -3, 4 * ALPHA, kind, DictionarySpec()):
                assert cert["passed"], handle.kernel_id
                assert cert["lambda_max"] == pytest.approx(1.0, rel=1e-9)

    def test_one_certificate_per_candidate(self, g1, monkeypatch):
        # each candidate is certified once, before it is scaled
        certified = []
        real = kernels.class_membership

        def counting(handle, *args):
            certified.append(handle.kernel_id)
            return real(handle, *args)

        monkeypatch.setattr(kernels, "class_membership", counting)
        for kind in ("phi", "psi"):
            certified.clear()
            spec = DictionarySpec()
            build_dictionary(g1, -3, 4 * ALPHA, kind, spec)
            build_dictionary(g1, -3, 4 * ALPHA, kind, spec)   # a cache hit certifies nothing
            ids = [c.kernel_id for c in kernels._candidates(g1, -3, 4 * ALPHA, kind, spec)]
            assert certified == ids and len(set(ids)) == len(ids)

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
            return max(lp_norm(apply_multiplier(f, k.multiplier), 2.0)
                       for k in dictionary)

        assert surrogate(big) >= surrogate(small) - 1e-12

    def test_cached_multipliers_read_only(self, g1):
        # dictionaries are shared through the cache, without fields; each
        # multiplier is a band array that owns its data
        dicts = build_dictionary(g1, -3, 4 * ALPHA, "phi", DictionarySpec())
        assert dicts is build_dictionary(g1, -3, 4 * ALPHA, "phi", DictionarySpec())
        for handle in dicts:
            assert handle.field is None
            assert handle.multiplier.base is None
            assert not handle.multiplier.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                handle.multiplier[0] = 0.0

    def test_2d_dictionary(self, g2):
        members = certified_members(g2, -1, 4 * 3.0, "phi", DictionarySpec(2, 1, 1, 1))
        assert len(members) >= 4
        for handle, cert in members:
            assert cert["passed"], handle.kernel_id


# The golden classes: d=1 phi and psi at level -3, and a smaller d=2 phi.
GOLDEN_CLASSES = {
    "d1": (TorusGrid(1, 8.0, 1 << 13), -3, 4 * ALPHA, DictionarySpec()),
    "d2": (TorusGrid(2, 8.0, 1 << 8), -1, 4 * 3.0, DictionarySpec(2, 1, 1, 1)),
}


def golden_dictionary(dim, kind):
    grid, level, beta, spec = GOLDEN_CLASSES[dim]
    return grid, build_dictionary(grid, level, beta, kind, spec)


def dictionary_digest(grid, dictionary):
    """SHA-256 over each kernel's id and full lattice multiplier, in
    kernel_id order.  The multiplier is expanded from its band, and
    adding 0.0 makes every zero +0: stored densely, the values off the
    band were zeros of either sign."""
    h = hashlib.sha256()
    for handle in sorted(dictionary, key=lambda k: k.kernel_id):
        h.update(handle.kernel_id.encode())
        h.update((expand_band(grid, handle.multiplier) + 0.0).tobytes())
    return h.hexdigest()


# Any change to a multiplier or the candidate set shows here.  The third
# key (False: no kernel fields kept) is part of the test ids the hashes
# were first frozen under.  The phi digests moved when the modulations
# became exact shifts of their base band; the digests over every other
# kernel (GOLDEN_WITHOUT_MODULATIONS) did not.
GOLDEN_DICTIONARIES = {
    ("d1", "phi", False): "cdbfa3cf59f0ead0a90516ec2ce1f231ef0715711be97fe3a769a9d92273aa2b",
    ("d1", "psi", False): "1e969df2f07e44dd92987d46b8454120f7e80bc30cbf55a971fc8db3dfacb743",
    ("d2", "phi", False): "971cd5e681df9a59410a4b14836f9fe498dbc68bc205b0da131108ad267ff053",
}
GOLDEN_WITHOUT_MODULATIONS = {
    ("d1", "phi"): "17e23de59d89fc03ee3ab2345127b55dc8e41bc07d77aa49e6fc2bfeaa039ead",
    ("d1", "psi"): "1e969df2f07e44dd92987d46b8454120f7e80bc30cbf55a971fc8db3dfacb743",
    ("d2", "phi"): "ade054df27622edda40bb5a24832f1eca9f574129373d21c47ed0f0ddf828e2f",
}


@pytest.mark.parametrize("dim,kind,fields", sorted(GOLDEN_DICTIONARIES))
def test_dictionary_golden_hash(dim, kind, fields):
    grid, dictionary = golden_dictionary(dim, kind)
    assert dictionary_digest(grid, dictionary) == GOLDEN_DICTIONARIES[(dim, kind, fields)]
    others = [k for k in dictionary if not k.kernel_id.startswith("mod[")]
    assert dictionary_digest(grid, others) == GOLDEN_WITHOUT_MODULATIONS[(dim, kind)]


class TestBandStorage:
    """Each cached kernel keeps its multiplier on its frequency band only."""

    @pytest.mark.parametrize("dim,kind", [("d1", "phi"), ("d1", "psi"), ("d2", "phi")])
    def test_band_is_the_scaled_candidate(self, dim, kind):
        grid, level, beta, spec = GOLDEN_CLASSES[dim]
        dictionary = {k.kernel_id: k for k in golden_dictionary(dim, kind)[1]}
        rng = np.random.default_rng(5)
        f = SampledField(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
        kept = 0
        for cand in kernels._candidates(grid, level, beta, kind, spec):
            handle = dictionary.get(cand.kernel_id)
            if handle is None:
                continue
            kept += 1
            band = handle.multiplier
            assert band.base is None and not band.flags.writeable
            lam = class_membership(cand, level, beta, kind)["lambda_max"]
            dense = expand_band(grid, cand.multiplier) * lam
            assert np.array_equal(expand_band(grid, band), dense), cand.kernel_id
            # no nonzero value lies off the band
            off_band = np.ones(grid.shape, dtype=bool)
            off_band[expand_band(grid, np.ones(band.shape)) != 0] = False
            assert not np.any(dense[off_band]), cand.kernel_id
            via_band = apply_multiplier(f, band).values
            via_dense = apply_multiplier(f, dense).values
            assert via_band.tobytes() == via_dense.tobytes(), cand.kernel_id
        assert kept == len(dictionary)

    def test_band_shapes(self):
        grid = TorusGrid(2, 8.0, 16)
        mult = np.zeros(grid.shape)
        mult[2, 0] = mult[0, -1] = 1.0       # wrapped indices 2 and 1
        assert frequency_band(mult).shape == (5, 3)
        mult[8, 0] = 1.0                     # the Nyquist index fills the axis
        assert frequency_band(mult).shape == (16, 3)
        assert np.array_equal(expand_band(grid, frequency_band(mult)), mult)

    def test_cached_band_bytes(self):
        # the three golden classes keep 509,880 bytes of multipliers on
        # their bands, 20,709,376 on the full lattice, and no kernel fills
        # the lattice (3 did while the modulations were built by an FFT)
        dictionaries = [golden_dictionary(dim, kind)[1] for dim, kind, _ in GOLDEN_DICTIONARIES]
        assert build_dictionary.cache_info().currsize == len(dictionaries)
        handles = [handle for dictionary in dictionaries for handle in dictionary]
        full = [handle.kernel_id for handle in handles
                if handle.multiplier.size == handle.grid.size]
        assert full == []
        assert sum(handle.multiplier.nbytes for handle in handles) <= 600_000


class TestMemoizedBands:
    """tau_multiplier and psi_cone_multiplier keep one read-only band per
    (grid, j); psi_multiplier is computed from two tau bands."""

    @pytest.mark.parametrize("grid", [TorusGrid(1, 8.0, 1 << 12), TorusGrid(2, 8.0, 1 << 7)],
                             ids=["d1", "d2"])
    def test_bands_equal_the_lattice_evaluation(self, grid):
        for j in range(-5, 2):
            tau = tau_multiplier(grid, j)
            assert tau_multiplier(grid, j) is tau and not tau.flags.writeable
            assert np.array_equal(tau, frequency_band(tau_lattice(grid, j)))
            assert np.array_equal(expand_band(grid, tau), tau_lattice(grid, j))
            psi = psi_multiplier(grid, j)
            assert not psi.flags.writeable
            assert np.array_equal(psi, frequency_band(psi_lattice(grid, j)))
            for n in range(grid.dim):
                cone = psi_cone_multiplier(grid, n, j)
                assert psi_cone_multiplier(grid, n, j) is cone and not cone.flags.writeable
                assert np.array_equal(cone, frequency_band(psi_cone_lattice(grid, n, j)))
                with pytest.raises(ValueError, match="read-only"):
                    cone[(0,) * grid.dim] = 1.0

    def test_neighbouring_classes_evaluate_each_profile_once(self, g1, monkeypatch):
        scales = []
        profile = kernels.LOWPASS_PROFILE

        def counted(t):
            scales.append(float(np.max(t)))   # 2^j times the largest |xi|
            return profile(t)

        monkeypatch.setattr(kernels, "LOWPASS_PROFILE", counted)
        for j in (-4, -3):
            for kind in ("phi", "psi"):
                build_dictionary(g1, j, 4 * ALPHA, kind, DictionarySpec())
        # the tau candidates tau_{j+1..j+3} and the psi pieces psi_{0,j+2},
        # psi_{0,j+3} of both classes read tau_{-3..0}, each evaluated once
        assert sorted(scales) == [2.0 ** j * g1.nyquist for j in range(-3, 1)]

    @pytest.mark.parametrize("kind,n_mod,n_trans,bases", [
        ("phi", 0, 0, []), ("phi", 1, 0, []),
        ("phi", 0, 1, []), ("psi", 0, 0, []), ("psi", 0, 1, [])])
    def test_bases_built_only_for_their_families(self, g1, monkeypatch, kind, n_mod,
                                                 n_trans, bases):
        # the translation base is the cached band of the candidate tau_{j+1}
        # or psi_{0,j+2}, the modulation base that of tau_{j+2}: no family
        # builds its base as a kernel
        built = []
        for name in ("build_tau", "build_psi_cone"):
            def spy(grid, *args, real=getattr(kernels, name), name=name):
                built.append((name[6:], args))
                return real(grid, *args)
            monkeypatch.setattr(kernels, name, spy)
        spec = DictionarySpec(n_tau=1, n_psi=1, n_mod=n_mod, n_trans=n_trans,
                              n_sinc=0, n_sinc_mod=0)
        ids = [c.kernel_id for c in kernels._candidates(g1, -3, 4 * ALPHA, kind, spec)]
        candidates = ([("tau", (-2,))] if kind == "phi" else []) + [("psi_cone", (0, -1))]
        assert built == candidates + bases
        assert len(ids) == len(candidates) + n_mod + n_trans

    def test_modulation_base_refused_beyond_nyquist(self, g1):
        # the modulations shift tau_{j+2}'s band, which reaches 2^(-j-1):
        # Nyquist 256 admits class level -9, not -10
        spec = DictionarySpec(n_tau=0, n_psi=0, n_mod=1, n_trans=0, n_sinc=0, n_sinc_mod=0)
        assert [c.kernel_id for c in kernels._candidates(g1, -9, 4 * ALPHA, "phi", spec)] == [
            "mod[tau[-7],eta0]"]
        with pytest.raises(ResolutionError, match="tau_-8: frequency support radius 512.0"):
            list(kernels._candidates(g1, -10, 4 * ALPHA, "phi", spec))

    def test_sinc_box_refused_beyond_nyquist(self, g1):
        # N = 2^13, B = 8: Nyquist 256 admits class level -8, not -9
        build_sinc_power(g1, -8, 4 * ALPHA, "phi", np.zeros(1))
        with pytest.raises(ResolutionError, match="sinc box at level -9"):
            build_sinc_power(g1, -9, 4 * ALPHA, "phi", np.zeros(1))


def one_handle_per_builder(grid):
    """{name: handle} from every kernel builder, around class level -1."""
    d, j = grid.dim, -1
    eta = np.zeros(d)
    eta[-1] = 3 * 2.0 ** (-j - 3)   # on the frequency lattice
    offset = np.zeros(d)
    offset[-1] = 0.5
    return {
        "tau": build_tau(grid, j + 1),
        "psi_cone": build_psi_cone(grid, d - 1, j + 2),
        "theta": build_theta(grid, d - 1, j + 2),
        "sinc_phi": build_sinc_power(grid, j, 12.0, "phi", np.zeros(d)),
        "sinc_phi_eta": build_sinc_power(grid, j, 12.0, "phi", -eta),
        "sinc_psi_eta": build_sinc_power(grid, j, 12.0, "psi", eta),
        "translate_tau": kernels._translate(tau_multiplier(grid, j + 1), grid, offset, "tr"),
        "translate_psi_cone": kernels._translate(psi_cone_multiplier(grid, 0, j + 2), grid,
                                                 offset, "tr"),
        "modulate": kernels._modulate(tau_multiplier(grid, j + 2), grid, eta, "mod"),
    }


class TestOneFormat:
    """Every builder keeps its multiplier as its own frequency band and
    lays that band on the lattice for the spatial samples it derives."""

    FROM_MULTIPLIER = {"tau", "psi_cone", "theta", "translate_tau", "translate_psi_cone",
                       "modulate"}

    @pytest.mark.parametrize("grid", [TorusGrid(1, 8.0, 1 << 12), TorusGrid(2, 8.0, 1 << 7)],
                             ids=["d1", "d2"])
    def test_multiplier_is_its_band(self, grid):
        handles = one_handle_per_builder(grid)
        for name, handle in handles.items():
            band = frequency_band(handle.multiplier)
            assert band.shape == handle.multiplier.shape, name
            assert band.tobytes() == handle.multiplier.tobytes(), name
            if name in self.FROM_MULTIPLIER:
                laid = kernel_field_from_multiplier(grid, expand_band(grid, handle.multiplier))
                assert handle.field.values.tobytes() == laid.values.tobytes(), name
        assert handles["tau"].multiplier.size < grid.size


class TestBandOnlyEvaluation:
    """The translates, modulations and sinc boxes equal their evaluation
    on the whole lattice (tests/oracles.py)."""

    @pytest.mark.parametrize("dim", ["d1", "d2"])
    def test_modulation_equals_spatial_product(self, dim):
        grid, level, beta, spec = GOLDEN_CLASSES[dim]
        lat = 1.0 / (2 * grid.half_width)
        mods = [c for c in kernels._candidates(grid, level, beta, "phi", spec)
                if c.kernel_id.startswith("mod[")]
        assert [c.kernel_id for c in mods] == [
            f"mod[tau[{level + 2}],eta{i}]" for i in range(spec.n_mod)]
        for i, cand in enumerate(mods):
            eta = np.zeros(grid.dim)
            eta[i % grid.dim] = round(2.0 ** (-level - 1) / (i + 1) / lat) * lat
            want = modulate_lattice(tau_multiplier(grid, level + 2), grid, eta, "mod").multiplier
            got = expand_band(grid, cand.multiplier)
            peak = np.max(np.abs(want))
            inside = got != 0
            assert np.max(np.abs(got - want)[inside]) <= 1e-15 * peak, cand.kernel_id
            assert np.max(np.abs(want[~inside])) <= 1e-15 * peak, cand.kernel_id

    @pytest.mark.parametrize("dim,samples", [(1, 1 << 12), (2, 1 << 7)])
    def test_translate_equals_lattice_phase(self, dim, samples):
        grid = TorusGrid(dim, 8.0, samples)
        for base in (tau_multiplier(grid, -1), psi_cone_multiplier(grid, dim - 1, 0)):
            for t in (grid.spacing, 0.5, 3.0 - grid.spacing):
                offset = np.zeros(dim)
                offset[-1] = t
                got = kernels._translate(base, grid, offset, "tr")
                want = translate_lattice(base, grid, offset, "tr")
                assert np.array_equal(expand_band(grid, got.multiplier), want.multiplier)
                assert np.array_equal(got.field.values, want.field.values)

    @pytest.mark.parametrize("dim,samples", [(1, 1 << 12), (2, 1 << 7)])
    def test_sinc_power_equals_products_from_ones(self, dim, samples):
        # bit for bit: eta = 0, one nonzero axis of either sign, two axes
        grid = TorusGrid(dim, 8.0, samples)
        u = 2.0 ** -2
        boxes = []
        for kind, eta in (("phi", 0.0), ("phi", 2 * u), ("phi", -2 * u), ("psi", 3 * u),
                          ("psi", -3 * u), ("psi", 7 * u), ("psi", -7 * u)):
            for ax in range(dim):
                vector = np.zeros(dim)
                vector[ax] = eta
                boxes.append((kind, vector))
        if dim == 2:
            boxes += [("phi", np.array([2 * u, -u])), ("psi", np.array([-3 * u, 3 * u]))]
        for kind, vector in boxes:
            got = build_sinc_power(grid, -1, 12.0, kind, vector)
            mult, field = sinc_power_lattice(grid, -1, 12.0, kind, vector)
            assert same_bits(got.multiplier, frequency_band(mult)), (kind, vector)
            assert same_bits(got.field.values, field.values), (kind, vector)


class TestCaches:
    """The per-class dictionary LRU (build_dictionary's lru_cache) and the
    per-box and per-class arrays."""

    SPEC = DictionarySpec(n_tau=1, n_psi=1, n_mod=0, n_trans=0, n_sinc=0, n_sinc_mod=0)

    @pytest.fixture
    def small(self):
        return TorusGrid(1, 8.0, 1 << 10)

    def build(self, grid, i):
        # one class per beta; beta is part of the cache key
        return build_dictionary(grid, -2, 4.0 + i, "phi", self.SPEC)

    def test_sixteen_classes_stay_cached(self, small):
        built = [self.build(small, i) for i in range(16)]
        info = build_dictionary.cache_info()
        assert (info.currsize, info.misses, info.hits) == (16, 16, 0)
        equal = TorusGrid(1, 8.0, 1 << 10)   # another grid object hits alike
        assert all(self.build(equal, i) is d for i, d in enumerate(built))
        assert build_dictionary.cache_info().hits == 16

    def test_seventeenth_class_evicts_least_recent(self, small):
        built = [self.build(small, i) for i in range(17)]
        assert build_dictionary.cache_info().currsize == 16
        assert all(self.build(small, i) is built[i] for i in range(1, 17))
        rebuilt = self.build(small, 0)
        assert rebuilt is not built[0]
        assert [k.kernel_id for k in rebuilt] == [k.kernel_id for k in built[0]]
        assert build_dictionary.cache_info().misses == 18

    def test_hit_refreshes_recency(self, small):
        built = [self.build(small, i) for i in range(16)]
        assert self.build(small, 0) is built[0]
        self.build(small, 16)
        assert self.build(small, 0) is built[0]
        assert self.build(small, 1) is not built[1]

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

    def test_fixture_finds_every_package_cache(self):
        # conftest clears the caches it finds; these must be among them
        named = {kernels.build_dictionary, kernels.tau_multiplier, kernels.psi_cone_multiplier,
                 kernels.class_envelope, kernels._periodized_sinc_power, grid_module._first_equal}
        assert named <= PACKAGE_CACHES


def direct_sinc_power(grid, a, k_pow, center, signed=False):
    """The seven-image sum evaluated point by point, in nu order, each
    image |sinc|^(2K), or sinc^(2K) if signed."""
    x_rel = grid.axis_points - center
    per = np.zeros_like(x_rel)
    for nu in range(-3, 4):
        s = np.sinc(a * (x_rel + 2 * grid.half_width * nu))
        per = per + (s if signed else np.abs(s)) ** (2 * k_pow)
    return per


class TestSincProfileTable:
    """The mirrored table behind _periodized_sinc_power gives the floats of
    the direct image sum."""

    @pytest.mark.parametrize("samples", [1 << 10, 1 << 13, 1 << 17])
    def test_equals_direct_images(self, samples):
        grid = TorusGrid(1, 8.0, samples)
        for j in range(-6, 1):
            center = 2.0 ** (j - 1)
            for a, k_pow in ((2.0 ** -j / 3, 1), (0.37, 3), (2.0 ** -j / 8, 4)):
                got = kernels._periodized_sinc_power(grid, a, k_pow, center)
                assert np.array_equal(got, direct_sinc_power(grid, a, k_pow, center)), (
                    j, a, k_pow)

    @pytest.mark.parametrize("samples", [1 << 14, 1 << 17])
    def test_near_signed_power_images(self, samples):
        # |s|^(2K) is s^(2K) up to 1 ULP on a negative s: the profile stays
        # within 1e-15 relative of the signed images' sum
        grid = TorusGrid(1, 8.0, samples)
        for j, k_pow in ((-3, 4), (-5, 6)):
            center = 2.0 ** (j - 1)
            for a in (2.0 ** -j / k_pow, 2.0 ** (-j - 3) / k_pow, 0.37, 1.0):
                got = kernels._periodized_sinc_power(grid, a, k_pow, center)
                signed = direct_sinc_power(grid, a, k_pow, center, signed=True)
                assert np.all(np.abs(got - signed) <= 1e-15 * signed), (j, k_pow, a)

    def test_class_finer_than_the_grid_refused(self):
        # a class of level j has its sinc profile centred at 2^(j-1), on the
        # half-step lattice h/2 only while 2^j >= h
        grid = TorusGrid(1, 8.0, 1 << 10)
        kernels._periodized_sinc_power(grid, 0.3, 4, 2.0 ** -7)
        with pytest.raises(ResolutionError, match="half-step") as err:
            kernels._periodized_sinc_power(grid, 0.3, 4, 2.0 ** -8)
        assert err.value.required_samples == 1 << 11


class TestSincBoxOnItsBand:
    """bspline_central against the one-offset recursion, bit for bit, and
    the memory of one sinc box."""

    @pytest.mark.parametrize("order", range(1, 17))
    def test_bspline_equals_one_offset_recursion(self, order):
        # every knot and half-knot, the floats next to them, and points
        # between and beyond them
        knots = 0.5 * np.arange(-order - 2, order + 3)
        t = np.concatenate([knots, np.nextafter(knots, np.inf), np.nextafter(knots, -np.inf),
                            np.linspace(-order / 2 - 1, order / 2 + 1, 1001)])
        assert same_bits(bspline_central(t, order), bspline_central_offsets(t, order))

    @pytest.mark.parametrize("dim,samples,j,bound", [(2, 1 << 8, -2, 2.0),
                                                     (1, 1 << 17, -5, 3.0)])
    def test_ladder_box_peak_memory(self, dim, samples, j, bound):
        # a psi ladder box with its sinc profile cached, in complex lattice
        # fields, its own field included; the whole-lattice products took
        # 4.0 (d = 2) and 5.1 (d = 1)
        grid = TorusGrid(dim, 8.0, samples)
        eta = np.zeros(dim)
        eta[0] = 3 * 2.0 ** (-j - 3)
        build_sinc_power(grid, j, 12.0, "psi", eta)
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            build_sinc_power(grid, j, 12.0, "psi", eta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        fields = (peak - base) / (grid.size * 16)
        assert fields <= bound, fields
