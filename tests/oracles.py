"""Reference implementations that the tests compare the package against.

None of these runs in the package: each restates a definition directly
(a set distance, a dilation, a kernel family) so that the fast or
indirect route the package takes can be checked against it.
"""

import contextlib
import math
from itertools import product

import numpy as np
import pytest

from phaseproj import estimators, harness, kernels
from phaseproj import grid as grid_module
from phaseproj.cubes import DyadicCube, TreeConfig
from phaseproj.errors import ValidationError
from phaseproj.grid import (
    SampledField,
    kernel_field_from_multiplier,
    mollified_distance,
    plane_wave,
    weight_origin,
    weight_table,
)
from phaseproj.kernels import (
    LOWPASS_PROFILE,
    KernelHandle,
    build_mollifier,
    cone_multiplier_values,
    psi_multiplier,
    tau_multiplier,
)


def rho_bisection(cube, y):
    """Mollified distance from `cube` to the point y, by bisecting the
    defining infimum inf{r > 1 : y in (2r-1) I}."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    c = np.asarray(cube.center)

    def inside(r):
        return np.all(np.abs(y - c) <= (2 * r - 1) * cube.side / 2)

    lo, hi = 1.0, 2.0
    while not inside(hi):
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            hi = mid
        else:
            lo = mid
    return max(1.0, hi)


def rho_to_cube(cube, other):
    """Mollified distance from `cube` to the closure of another cube."""
    dist = 0.0
    for cs, co in zip(cube.center, other.center):
        dist = max(dist, abs(cs - co) - other.side / 2.0)
    return max(1.0, 0.5 + max(dist, 0.0) / cube.side)


def rho_set(cube, target):
    """Mollified distance from `cube` to a set: a sequence of cubes or an
    (m, d) array of points; +inf for an empty set."""
    if isinstance(target, np.ndarray):
        if target.size == 0:
            return math.inf
        pts = target.reshape(-1, cube.dim)
        dist = np.min(np.max(np.abs(pts - np.asarray(cube.center)), axis=1))
        return max(1.0, 0.5 + float(dist) / cube.side)
    target = list(target)
    if not target:
        return math.inf
    return min(rho_to_cube(cube, o) for o in target)


def dilated_contains(cube, r, other):
    """`other` lies inside r * `cube` for an odd integer r >= 1, in
    integer arithmetic."""
    assert r % 2 == 1 and r >= 1
    half = (r - 1) // 2
    fine = min(cube.level, other.level)
    s1, s2 = cube.level - fine, other.level - fine
    for k, a in zip(cube.index, other.index):
        lo, hi = (k - half) << s1, (k + 1 + half) << s1
        if not (lo <= (a << s2) and ((a + 1) << s2) <= hi):
            return False
    return True


def tree_config_from_dict(data):
    """Inverse of cubes.tree_config_to_dict."""
    leaves = tuple(DyadicCube(c["level"], tuple(c["index"])) for c in data["leaves"])
    cfg = TreeConfig(leaves, int(data["m"]), float(data["alpha"]))
    assert cfg.dim == int(data["dimension"])
    assert cfg.root == DyadicCube(data["root"]["level"], tuple(data["root"]["index"]))
    return cfg


def psi_kernel(grid, j):
    """The annulus kernel psi_j = tau_{j-1} - tau_j, supported on
    2^-j <= |xi| <= 2^(2-j): its multiplier and its spatial samples."""
    mult = expand_band(grid, psi_multiplier(grid, j))
    return KernelHandle(grid, f"psi[{j}]", mult, kernel_field_from_multiplier(grid, mult), True)


def psi_ladder(grid, j_min, m):
    """Sum of the psi_{j-m} multipliers over every j below j_min, one
    level at a time from the Nyquist level: the coarsest j whose tau_{j-m}
    is identically 1 on the lattice, so that the ladder reaches every
    frequency."""
    j = m - math.ceil(math.log2(float(np.max(grid.freq_radius))))
    while np.min(expand_band(grid, tau_multiplier(grid, j - m))) < 1.0:
        j -= 1
    total = np.zeros(grid.shape)
    for level in range(j, j_min):
        total = total + expand_band(grid, psi_multiplier(grid, level - m))
    return total


def tau_lattice(grid, j):
    """The multiplier of tau_j evaluated on the whole lattice."""
    return LOWPASS_PROFILE(2.0 ** j * grid.freq_radius)


def psi_lattice(grid, j):
    """The multiplier of psi_j = tau_{j-1} - tau_j on the whole lattice."""
    return tau_lattice(grid, j - 1) - tau_lattice(grid, j)


def psi_cone_lattice(grid, n, j):
    """The multiplier of the cone piece psi_{n,j} on the whole lattice."""
    zeta = [2.0 ** j * grid.freq_component(ax) for ax in range(grid.dim)]
    mult = psi_lattice(grid, j) * cone_multiplier_values(grid.dim, n, zeta)
    return np.broadcast_to(mult, grid.shape)


def kappa_kernel(grid, scale):
    """The cutoff mollifier kappa at dyadic scale `scale` as a SampledField:
    support radius 2^(scale - 9), grid mass one."""
    return build_mollifier(grid, 2.0 ** (scale - 9))


def cone_partition(dim):
    """The d cone multipliers as callables on broadcastable axis arrays;
    they sum to exactly 1 on the annulus 1 <= |zeta| <= 4."""
    return [lambda zeta_axes, n=n: cone_multiplier_values(dim, n, zeta_axes)
            for n in range(dim)]


def is_real(field, tol=1e-12):
    """The imaginary parts of the samples are within tol of their peak."""
    scale = np.max(np.abs(field.values))
    return scale == 0 or np.max(np.abs(field.values.imag)) <= tol * scale


def expand_band(grid, band):
    """The full lattice multiplier of a grid.frequency_band, +0 off the
    band: along an axis of N points a band of length m < N holds the
    wrapped indices 0..e and -e..-1 (m = 2e + 1), in that order, and a
    band of length N the whole axis."""
    positions = []
    for m in band.shape:
        e = (m - 1) // 2
        positions.append(np.arange(grid.samples) if m == grid.samples
                         else np.concatenate((np.arange(e + 1), grid.samples - e + np.arange(e))))
    dense = np.zeros(grid.shape, dtype=band.dtype)
    dense[np.ix_(*positions)] = band
    return dense


def translate_lattice(band, grid, offset, new_id):
    """The translate of kernels._translate with the base band laid on the
    whole lattice and its phase evaluated there."""
    phase = np.zeros(grid.shape, dtype=np.complex128)
    for ax, t in enumerate(offset):
        phase = phase + grid.freq_component(ax) * t
    mult = expand_band(grid, band) * np.exp(-2j * np.pi * phase)
    return KernelHandle(grid, new_id, mult, kernel_field_from_multiplier(grid, mult), True)


def field_multiplier(k):
    """The multiplier through which `k` acts in grid.convolve():
    the DFT of its ifftshifted samples times h^d."""
    h_d = k.grid.spacing ** k.grid.dim
    return np.fft.fftn(np.fft.ifftshift(k.values)) * h_d


def modulate_lattice(band, grid, eta, new_id):
    """The modulation of kernels._modulate in space: the base's samples,
    laid from its band, times the plane wave of frequency eta, and the
    multiplier taken back from that product (field_multiplier), so it
    fills the lattice with roundoff."""
    base = kernel_field_from_multiplier(grid, band)
    field = SampledField(grid, base.values * plane_wave(grid, eta))
    return KernelHandle(grid, new_id, field_multiplier(field), field, False)


def class_membership_lattice(handle, j, beta, kind):
    """kernels.class_membership with the multiplier laid on the whole
    lattice and the admissible set a mask of grid.freq_radius."""
    grid = handle.grid
    forbidden = grid.freq_radius >= 2.0 ** (-j) * (1 - 1e-12)
    if kind == "psi":
        forbidden |= grid.freq_radius <= 2.0 ** (-j - 2) * (1 + 1e-12)
    mag_mult = np.abs(expand_band(grid, handle.multiplier))
    peak = float(np.max(mag_mult))
    leak = float(np.max(mag_mult[forbidden])) if np.any(forbidden) else 0.0
    leak_rel = leak / peak if peak > 0 else 0.0
    lam = lambda_max_masked(handle, j, beta)
    return {"leak": leak_rel, "lambda_max": lam,
            "passed": bool(leak_rel <= 1e-10 and lam >= 1.0 - 1e-12)}


def lambda_max_masked(handle, j, beta):
    """kernels.class_membership's lambda_max, the min of the class envelope
    over |kernel|, by nested np.where: every sample at most 1e-300 is
    divided by 1.0 instead and then replaced by +inf."""
    env = kernels.class_envelope(handle.grid, j, beta)
    mag = np.abs(handle.field.values)
    if float(np.max(mag)) == 0:
        return math.inf
    significant = mag > 1e-300
    return float(np.min(np.where(significant, env / np.where(significant, mag, 1.0), math.inf)))


def bspline_central_offsets(t, order):
    """kernels.bspline_central by its two-term recursion taken one knot
    offset at a time, each offset's values kept under its own key."""
    t = np.asarray(t, dtype=float)
    vals = {k: np.where((t + 0.5 * k >= -0.5) & (t + 0.5 * k < 0.5), 1.0, 0.0)
            for k in range(-(order - 1), order)}
    for n in range(2, order + 1):
        half = n / 2.0
        new = {}
        for k in range(-(order - n), order - n + 1):
            tt = t + 0.5 * k
            val = ((tt + half) * vals[k + 1] + (half - tt) * vals[k - 1]) / (n - 1)
            new[k] = np.where(np.abs(tt) < half, val, 0.0)
        vals = new
    return np.clip(vals[0], 0.0, None)


def sinc_power_lattice(grid, j, beta, kind, eta):
    """(multiplier, spatial samples) of kernels.build_sinc_power on the
    whole lattice: each axis factor laid on every lattice point, each
    product and the phase sum started from a full-grid array of ones or
    zeros, and the centre phase of every axis evaluated on the full grid."""
    k_pow = max(1, math.ceil(beta / 2.0))
    d = grid.dim
    eta = np.asarray(eta, dtype=float)
    if kind == "psi":
        half_width = kernels._psi_box_width(j, d, float(np.linalg.norm(eta)))
    else:
        half_width = (2.0 ** (-j) - float(np.linalg.norm(eta))) / math.sqrt(d)
    a = half_width / k_pow
    cube_center = 2.0 ** (j - 1)
    per = kernels._periodized_sinc_power(grid, a, k_pow, cube_center)
    mult = np.ones(grid.shape, dtype=np.complex128)
    values = np.ones(grid.shape, dtype=np.complex128)
    phase = np.zeros(grid.shape)
    xi_1d = grid.axis_freqs
    for ax in range(d):
        mult_1d = np.zeros(grid.samples)
        phase_1d = np.zeros(grid.samples, dtype=np.complex128)
        inside = np.abs(xi_1d - eta[ax]) < k_pow * a
        mult_1d[inside] = bspline_central_offsets((xi_1d[inside] - eta[ax]) / a, 2 * k_pow) / a
        phase_1d[inside] = np.exp(-2j * np.pi * xi_1d[inside] * cube_center)
        mult = mult * grid.on_axis(mult_1d, ax)
        mult = mult * grid.on_axis(phase_1d, ax)
        values = values * grid.on_axis(per, ax)
        phase = phase + eta[ax] * (grid.point_component(ax) - cube_center)
    return mult, SampledField(grid, values * np.exp(2j * np.pi * phase))


def contains_tree_element(tree, cube):
    """Some tree cube is a subset of `cube`: some leaf at or below its
    level lies inside it, by DyadicCube.contains."""
    return any(cube.level >= leaf.level and cube.contains(leaf) for leaf in tree.cfg.leaves)


def offtree_eligible(tree, J):
    """Whether the off-tree inequality holds J eligible: no same-level
    neighbor contains a tree cube, by a contains test per neighbor and
    leaf."""
    if J.level < tree.j_min:
        return True
    for off in product((-1, 0, 1), repeat=J.dim):
        if contains_tree_element(tree, DyadicCube(J.level, tuple(
                k + o for k, o in zip(J.index, off)))):
            return False
    return True


def root_distance_scan(grid, centres):
    """estimators.root_distance of each centre coordinate c, as the min
    over the root's axis points u of |c - u|, one u at a time."""
    best, gap = np.full(len(centres), math.inf), np.empty(len(centres))
    for u in grid.axis_points[grid.cube_slices(DyadicCube(0, (0,)))[0]]:
        np.minimum(best, np.abs(np.subtract(centres, u, out=gap), out=gap), out=best)
    return best


def offtree_geometry_scan(ctx, J):
    """EstimatorContext.offtree_geometry with eligibility by
    offtree_eligible and the clamped distance scanned per axis of J over
    the root's axis points: the peak weight, or None for an ineligible J."""
    if not offtree_eligible(ctx.tree, J):
        return None
    dist = max(root_distance_scan(ctx.grid, np.array([c]))[0] for c in J.center)
    return float(np.max(mollified_distance(np.array([dist]), J.side) ** (-ctx.alpha)))


def carleson_sum_scan(ctx, J, p):
    """EstimatorContext.carleson_sum by a scan of every tree term up to
    J's level, with ancestry tested by integer shifts."""
    by_level = {}
    lhs = 0.0
    for (i, idx), value in ctx._carleson_terms[p].items():
        if i > J.level:
            break
        shift = J.level - i
        if all(k >> shift == kj for k, kj in zip(idx, J.index)):
            lhs += value
            by_level[i] = by_level.get(i, 0.0) + value
    rhs = ctx.sizes[p].value * 2.0 ** (J.level * ctx.d)
    per_scale = []
    cumulative = 0.0
    for i in sorted(by_level, reverse=True):
        cumulative += by_level[i]
        per_scale.append({"i": i, "term": by_level[i], "cumulative": cumulative})
    return estimators._report("carleson", lhs, rhs, p,
                              estimators._context({"J": J.label(), "m": ctx.m,
                                                   "in_tree": ctx.tree.member(J)}),
                              per_scale)


def offtree_sum_scan(ctx, J, p):
    """EstimatorContext.offtree_sum of an eligible J with the peak weight of
    offtree_geometry_scan and each level's sup the np.max of J's clipped
    block of the level's table."""
    rhs_weight = offtree_geometry_scan(ctx, J)
    assert rhs_weight is not None, f"{J.label()} is ineligible"
    lhs = 0.0
    per_scale = []
    for i in sorted(ctx._offtree_terms[p], reverse=True):
        if i > J.level:
            continue
        window_lo, table = ctx._offtree_terms[p][i]
        shift = J.level - i
        block = table[tuple(slice(max((k << shift) - window_lo, 0),
                                  max(((k + 1) << shift) - window_lo, 0))
                            for k in J.index)]
        sup_i = float(np.max(block)) if block.size else 0.0
        lhs += sup_i
        per_scale.append({"i": i, "term": sup_i, "cumulative": lhs})
    rhs = ctx.sizes[p].value * rhs_weight
    return estimators._report("offtree", lhs, rhs, p,
                              estimators._context({"J": J.label(), "m": ctx.m,
                                                   "truncation_floor": ctx.offtree_floor}),
                              per_scale)


def row_maxima(rows, p_values):
    """{p: the largest norm of a level_norms row at p, 0.0 for an empty
    row}: the reduction that estimators.level_maxima takes without
    evaluating most of the row.  Python's max keeps the first of equal
    values and never takes a nan."""
    return {p: max([0.0] + [norms[p] for _, norms in rows]) for p in p_values}


def level_weights(grid, level, exponent):
    """Function cube -> rho_values(grid, cube) ** -exponent, bit for bit,
    as a read-only view of grid.weight_table, for the cubes at `level`
    inside the domain: the per-cube weights that the estimators take from
    the table."""
    n, table = grid.samples, weight_table(grid, level, exponent)
    return lambda cube: table[tuple(slice(s, s + n) for s in weight_origin(grid, level, cube))]


def field_from_modes_complex(grid, modes, scale=1):
    """harness.field_from_modes as complex samples: the inverse of the
    whole Hermitian spectrum, its roundoff imaginary parts kept."""
    spec = np.zeros(grid.shape, dtype=np.complex128)
    for k, amp in modes:
        k_scaled = tuple(int(kk) * scale for kk in k)
        if any(abs(kk) >= grid.samples // 2 for kk in k_scaled):
            raise ValidationError("scaled mode exceeds the Nyquist frequency")
        spec[tuple(kk % grid.samples for kk in k_scaled)] += amp
        spec[tuple((-kk) % grid.samples for kk in k_scaled)] += np.conj(amp)
    return SampledField(grid, np.fft.ifftn(spec) * grid.size)


def convolve_complex(a, k):
    """grid.convolve of two complex fields as one expression, the kernel's
    FFT a temporary of it: numpy may then write the product into that
    temporary, whose floats can differ in the last bit from a product
    into a new array."""
    h_d = a.grid.spacing ** a.grid.dim
    raw = a.fft() * np.fft.fftn(np.fft.ifftshift(k.values)) * h_d
    return SampledField(a.grid, np.fft.ifftn(raw)).with_fft(raw)


@contextlib.contextmanager
def complex_route():
    """Run the package as it ran when every field held complex samples:
    each real input is cast to complex128, field_from_modes keeps the
    imaginary parts of its inverse and convolve takes its product as one
    expression (convolve_complex), so every transform is a full fftn or
    ifftn, every response its own ifftn, no mirror pair shares one, and
    every float is the one of that route."""
    post_init = grid_module.SampledField.__post_init__

    def complex_post_init(self):
        values = np.asarray(self.values)
        if not np.iscomplexobj(values):
            self.values = values.astype(np.complex128)
        post_init(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grid_module.SampledField, "__post_init__", complex_post_init)
        patch.setattr(harness, "field_from_modes", field_from_modes_complex)
        patch.setattr(grid_module, "convolve", convolve_complex)
        yield


def mirror_free(kernels):
    """The kernels without each one whose mirror comes earlier in the
    list: those that take a response of their own on a real field."""
    ids = [k.kernel_id for k in kernels]
    return [k for i, k in enumerate(kernels) if k.mirror not in ids[:i]]
