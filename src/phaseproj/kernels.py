"""Band-limited kernels, their Fourier multipliers and class certificates.

Every kernel of the construction is defined through an explicit
multiplier on the frequency lattice: a radial low-pass profile (tau),
telescoping differences (psi), a cone decomposition splitting an annulus
into pieces where one frequency coordinate dominates, and one-variable
antiderivatives (theta).  The mollifier kappa is the one kernel built in
space, so its compact support is exact on the grid.

Class membership is certified empirically: `leak` is the largest
multiplier value outside the admissible frequency set and `lambda_max`
the largest scaling that keeps the kernel under the pointwise envelope
2^{-dj} rho_{[0,2^j]^d}^{-beta}.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction

import numpy as np

from .cubes import DyadicCube
from .errors import ResolutionError, ValidationError
from .grid import (
    SampledField,
    field_multiplier,
    kernel_field_from_multiplier,
    plane_wave,
    rho_values,
)


def _glue(u):
    """exp(-1/u) for u > 0, zero otherwise (the smooth glue)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    with np.errstate(over="ignore", divide="ignore"):
        out[pos] = np.exp(-1.0 / u[pos])
    return out


def smooth_step(u):
    """C-infinity step: exactly 0 for u <= 0, exactly 1 for u >= 1."""
    a = _glue(u)
    b = _glue(1.0 - np.asarray(u, dtype=float))
    with np.errstate(invalid="ignore"):
        out = np.where(a + b > 0, a / np.where(a + b > 0, a + b, 1.0), 0.0)
    return out


@dataclass(frozen=True)
class BumpProfile:
    """Radial profile equal to 1 on [0, inner], 0 on [outer, inf),
    smoothly monotone in between."""

    inner: float
    outer: float

    def __post_init__(self):
        if not 0 <= self.inner < self.outer:
            raise ValidationError("need 0 <= inner < outer")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        u = (self.outer - t) / (self.outer - self.inner)
        out = smooth_step(np.clip(u, 0.0, 1.0))
        out = np.where(t <= self.inner, 1.0, out)
        out = np.where(t >= self.outer, 0.0, out)
        return out


# One profile drives every kernel, so empirical constants are stable.
LOWPASS_PROFILE = BumpProfile(1.0, 2.0)     # tau-hat's radial shape
CONE_PROFILE = BumpProfile(0.5, 1.0)        # cone weights and radial cutoffs
MOLLIFIER_PROFILE = BumpProfile(0.5, 1.0)   # kappa's radial shape


@dataclass
class KernelHandle:
    """A kernel with its lattice multiplier, spatial samples and certificate."""

    grid: object
    kernel_id: str
    kind: str                    # 'phi' | 'psi' | 'mollifier'
    level: int
    multiplier: np.ndarray
    field: SampledField
    certificate: dict = dc_field(default_factory=dict)

    def scaled(self, factor):
        field = self.field * factor if self.field is not None else None
        return replace(self, multiplier=self.multiplier * factor, field=field,
                       certificate=dict(self.certificate))


def _require_band_inside_nyquist(grid, radius, what):
    if radius > grid.nyquist + 1e-12:
        raise ResolutionError.needing(
            f"{what}: frequency support radius {radius} exceeds the Nyquist "
            f"frequency {grid.nyquist}", radius * 4 * grid.half_width)


def _tail_fraction(field):
    """Mass fraction beyond half the domain half-width (wrap-around proxy)."""
    grid = field.grid
    outer = np.zeros(grid.shape, dtype=bool)
    for ax in range(grid.dim):
        outer |= np.abs(grid.point_component(ax)) >= grid.half_width / 2
    mag = np.abs(field.values)
    total = float(np.sum(mag))
    if total == 0:
        return 0.0
    return float(np.sum(mag[outer])) / total


def _finish(grid, kernel_id, kind, level, mult, field=None):
    """The handle of a kernel with its wrap-around certificate; the
    spatial samples come from the multiplier unless given."""
    if field is None:
        field = kernel_field_from_multiplier(grid, mult)
    handle = KernelHandle(grid, kernel_id, kind, level, mult, field)
    tail = _tail_fraction(field)
    handle.certificate["tail_fraction"] = tail
    handle.certificate["wrap_flag"] = bool(tail > 1e-6)
    return handle


def tau_multiplier(grid, j):
    return LOWPASS_PROFILE(2.0 ** j * grid.freq_radius)


def build_tau(grid, j):
    """Low-pass kernel tau_j: multiplier 1 on |xi| <= 2^-j, 0 beyond 2^(1-j)."""
    _require_band_inside_nyquist(grid, 2.0 ** (1 - j), f"tau_{j}")
    return _finish(grid, f"tau[{j}]", "phi", j, tau_multiplier(grid, j))


def psi_multiplier(grid, j):
    return tau_multiplier(grid, j - 1) - tau_multiplier(grid, j)


# ---------------------------------------------------------------------------
# Cone decomposition: split the annulus 1 <= |zeta| <= 4 into d pieces,
# each supported where 2d zeta_n^2 > |zeta|^2.

def cone_multiplier_values(dim, n, zeta_axes):
    """chi_hat_n evaluated at the points given by broadcastable axis arrays.

    Quotient-of-bumps construction: w_n vanishes exactly where the cone
    condition 2d zeta_n^2 > |zeta|^2 fails, some w_m equals 1 at every
    nonzero point, and a radial cutoff equal to 1 on [1, 4] confines the
    quotient to the working annulus.
    """
    norm_sq = sum(z * z for z in zeta_axes)
    weights = []
    for ax in range(dim):
        zn_sq = np.broadcast_to(zeta_axes[ax] * zeta_axes[ax], np.shape(norm_sq))
        t = np.full(np.shape(norm_sq), np.inf)
        pos = zn_sq > 0
        t[pos] = norm_sq[pos] / (2.0 * dim * zn_sq[pos])
        w = np.zeros(np.shape(norm_sq))
        w[pos] = CONE_PROFILE(t[pos])
        weights.append(w)
    total = sum(weights)
    r = np.sqrt(norm_sq)
    radial = (1.0 - CONE_PROFILE(r)) * BumpProfile(4.0, 8.0)(r)
    safe = np.where(total > 0, total, 1.0)
    return np.where(radial > 0, weights[n] / safe * radial, 0.0)


def psi_cone_multiplier(grid, n, j):
    """Multiplier of psi_{n,j} = psi_j * chi_{n,j}."""
    zeta = [2.0 ** j * grid.freq_component(ax) for ax in range(grid.dim)]
    chi = cone_multiplier_values(grid.dim, n, zeta)
    mult = psi_multiplier(grid, j) * chi
    return np.broadcast_to(mult, grid.shape)


def build_psi_cone(grid, n, j):
    """Cone piece psi_{n,j}; the pieces sum to psi_j exactly on the lattice."""
    _require_band_inside_nyquist(grid, 2.0 ** (2 - j), f"psi_{n},{j}")
    return _finish(grid, f"psi[n={n},{j}]", "psi", j, psi_cone_multiplier(grid, n, j))


def build_theta(grid, n, j):
    """Antiderivative kernel theta_{n,j} with d_n^{d+1} theta_{n,j} = psi_{n,j}.

    Defined spectrally as psi_hat_{n,j} / (2 pi i xi_n)^{d+1}; the cone
    support keeps |xi_n| >= 2^-j / sqrt(2d) so the division never sees
    the zero set, and the multiplier is set to exact zero off support.
    """
    _require_band_inside_nyquist(grid, 2.0 ** (2 - j), f"theta_{n},{j}")
    num = psi_cone_multiplier(grid, n, j)
    order = grid.dim + 1
    xi_n = np.broadcast_to(grid.freq_component(n), grid.shape)
    denom = (2j * np.pi * np.where(num != 0, xi_n, 1.0)) ** order
    mult = np.where(num != 0, num / denom, 0.0)
    return _finish(grid, f"theta[n={n},{j}]", "psi", j, mult)


def build_mollifier(grid, radius):
    """Nonnegative smooth bump supported in the Euclidean ball of the
    given radius, with exact unit grid mass."""
    if radius < grid.spacing:
        raise ResolutionError.needing(
            f"mollifier radius {radius} below grid spacing {grid.spacing}",
            2 * grid.half_width / radius)
    raw = MOLLIFIER_PROFILE(grid.space_radius / radius)
    total = float(np.sum(raw)) * grid.spacing ** grid.dim
    values = raw / total
    field = SampledField(grid, values)
    handle = KernelHandle(grid, f"mollifier[r={radius}]", "mollifier", 0,
                          field_multiplier(field), field)
    handle.certificate["grid_mass"] = float(np.sum(values) * grid.spacing ** grid.dim)
    handle.certificate["radius"] = float(radius)
    return handle


# ---------------------------------------------------------------------------
# Class membership certificates.

@functools.lru_cache(maxsize=4)
def class_envelope(grid, j, beta):
    """Pointwise bound 2^{-dj} rho_{[0,2^j]^d}(x)^{-beta} on the grid;
    one read-only array shared by every certificate of the class."""
    cube = DyadicCube(j, (0,) * grid.dim)
    env = 2.0 ** (-grid.dim * j) * rho_values(grid, cube) ** (-beta)
    env.flags.writeable = False
    return env


@functools.lru_cache(maxsize=4)
def forbidden_frequencies(grid, j, kind):
    """Lattice frequencies outside the admissible set of the class; one
    read-only mask shared by every certificate of the class."""
    forbidden = grid.freq_radius >= 2.0 ** (-j) * (1 - 1e-12)
    if kind == "psi":
        forbidden |= grid.freq_radius <= 2.0 ** (-j - 2) * (1 + 1e-12)
    forbidden.flags.writeable = False
    return forbidden


def class_membership(handle, j, beta, kind="phi"):
    """Certificate for membership in Phi_j^beta (kind='phi') or Psi_j^beta.

    leak: largest |multiplier| outside the admissible frequency set
    (the ball |xi| < 2^-j; for Psi additionally |xi| > 2^{-j-2}).
    lambda_max: largest scaling that keeps |kernel| under the envelope;
    passing means leak <= 1e-10 and lambda_max >= 1.
    """
    grid = handle.grid
    forbidden = forbidden_frequencies(grid, j, kind)
    mag_mult = np.abs(handle.multiplier)
    peak = float(np.max(mag_mult))
    leak = float(np.max(mag_mult[forbidden])) if np.any(forbidden) else 0.0
    leak_rel = leak / peak if peak > 0 else 0.0

    env = class_envelope(grid, j, beta)
    mag = np.abs(handle.field.values)
    scale = float(np.max(mag))
    if scale == 0:
        lam = math.inf
        ratio_max = 0.0
    else:
        significant = mag > 1e-300
        lam = float(np.min(np.where(significant, env / np.where(significant, mag, 1.0), math.inf)))
        ratio_max = 0.0 if lam == math.inf else 1.0 / lam
    return {
        "class": f"{kind}_{j}^{beta}",
        "leak": leak_rel,
        "lambda_max": lam,
        "ratio_max": ratio_max,
        # the lambda threshold carries float slack so that a kernel scaled
        # by its own lambda_max passes
        "passed": bool(leak_rel <= 1e-10 and lam >= 1.0 - 1e-12),
    }


# ---------------------------------------------------------------------------
# Finite dictionaries standing in for the supremum over a kernel class.

@dataclass(frozen=True)
class DictionarySpec:
    """Generator families and counts for class dictionaries.

    The powered-sinc family is what makes the surrogate supremum
    comparable to the class supremum: kernels built from the smooth-glue
    profile have quasi-exponential tails that fall far below the
    polynomial class envelope at the domain edge, so their
    normalizations are minuscule, while a sinc power matches the
    envelope's decay exponent and normalizes to an O(1) factor.
    """

    n_tau: int = 3
    n_psi: int = 2
    n_mod: int = 2
    n_trans: int = 2
    n_sinc: int = 1
    n_sinc_mod: int = 2

    @property
    def spec_id(self):
        return (f"tau{self.n_tau}_psi{self.n_psi}_mod{self.n_mod}"
                f"_tr{self.n_trans}_sinc{self.n_sinc}_sincmod{self.n_sinc_mod}")


def bspline_central(t, order):
    """Normalized central B-spline of the given order: support
    (-order/2, order/2), unit integral, exact zeros outside.

    Evaluated bottom-up with the stable two-term recursion at
    half-integer offsets; the alternating-sum formula loses ~1e-12
    absolute to cancellation, which would bury the kernel's genuine
    polynomial tail under a flat noise floor.
    """
    t = np.asarray(t, dtype=float)
    # half-open convention at order 1 makes the recursion exact at knots
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


def _psi_box_width(j, dim, center_radius):
    """Largest per-axis half-width of a box centered on an axis at the
    given radius that stays inside the ball |xi| < 2^-j and clear of
    |xi| <= 2^(-j-2)."""
    outer, inner = 2.0 ** (-j), 2.0 ** (-j - 2)
    # corner condition: (r + h)^2 + (dim-1) h^2 <= outer^2
    r = center_radius
    disc = r * r + dim * (outer * outer - r * r)
    h_outer = (-r + math.sqrt(disc)) / dim
    return min(h_outer, r - inner)


def _mirror_offset(grid, center):
    """The integer q with y = (h/2)(2m - q) exactly at every image point
    y = x_k - center + 2 B nu (m = k + N nu), or None.

    It exists when h/2, B and the center are whole multiples of one
    power of two and every image point stays exact at that unit, and
    when 2 (B + center) / h is whole; then -y is an image point too.
    """
    h, b = Fraction(grid.spacing), Fraction(grid.half_width)
    c = Fraction(center)
    denominator = max(v.denominator for v in (h / 2, b, c))
    q = 2 * (b + c) / h
    if (h * grid.samples != 2 * b or q.denominator != 1
            or (8 * b + abs(c)) * denominator >= 2 ** 53):
        return None
    return int(q)


@functools.lru_cache(maxsize=4)
def _periodized_sinc_power(grid, a, k_pow, center):
    """sum_nu sinc(a (x - center + 2 B nu))^(2 k_pow) over 7 images on
    one axis, read-only: shared by every sign of eta and every axis.  The
    boxes of a class need one profile per |eta|, at most four, and a class
    is built in one go, so four are cached.

    On a dyadic grid every image point y is the exact dyadic rational
    h m - B - center, and -y is an image point as well (_mirror_offset).
    a (-y) is -(a y) exactly and np.sinc is even to the bit, so
    sinc(a y)^(2K) is evaluated once per distinct |y| = (h/2)(2t + q % 2)
    into a table, and each image adds slices of that table, in the same
    nu order and with the same floats as the direct loop.  Other grids
    take the direct loop.
    """
    n = grid.samples
    q = _mirror_offset(grid, center)
    if q is None:
        x_rel = grid.axis_points - center
        per = np.zeros(n)
        for nu in range(-3, 4):
            per = per + np.sinc(a * (x_rel + 2 * grid.half_width * nu)) ** (2 * k_pow)
    else:
        # flat index i = m + 3N over the images: y < 0 below i = up, at
        # table index down - i, and y >= 0 from there, at index i - up
        odd = q % 2
        down, up = (6 * n + q - odd) // 2, (6 * n + q + odd) // 2
        table = np.empty(max(down, 7 * n - 1 - up) + 1)
        for lo in range(0, table.size, 1 << 14):  # short chunks bound the temporaries
            t = np.arange(lo, min(lo + (1 << 14), table.size), dtype=float)
            abs_y = 0.5 * grid.spacing * (2 * t + odd)
            table[lo:lo + t.size] = np.sinc(a * abs_y) ** (2 * k_pow)
        per = np.zeros(n)
        for lo in range(0, 7 * n, n):
            mid = min(max(up, lo), lo + n)
            if mid > lo:
                per[:mid - lo] += table[down - mid + 1:down - lo + 1][::-1]
            per[mid - lo:] += table[mid - up:lo + n - up]
    per.flags.writeable = False
    return per


def build_sinc_power(grid, j, beta, kind="phi", eta=None):
    """Tensor power of a sinc, in frequency a tensor B-spline box.

    The spatial kernel prod_n sinc(pi a (x - c)_n)^(2K) with 2K >= beta
    decays like the class envelope (polynomially, unlike the smooth-glue
    kernels), so its lambda-normalization is an O(1) factor, uniformly
    over scales.  It is translated to the envelope cube's center c and
    its spectral box sits inside the admissible set, optionally shifted
    by eta.
    """
    k_pow = max(1, math.ceil(beta / 2.0))
    d = grid.dim
    if eta is None:
        eta = np.zeros(d)
        if kind == "psi":
            eta[0] = 5.0 * 2.0 ** (-j - 3)
    eta = np.asarray(eta, dtype=float)
    if kind == "psi":
        half_width = _psi_box_width(j, d, float(np.linalg.norm(eta)))
    else:
        half_width = (2.0 ** (-j) - float(np.linalg.norm(eta))) / math.sqrt(d)
    if half_width <= 0:
        raise ValidationError("spectral box does not fit the admissible set")
    a = half_width / k_pow
    cube_center = 2.0 ** (j - 1)
    # spatial samples in closed form: the FFT route would bury the
    # polynomial tail under its roundoff floor and wreck lambda
    per = _periodized_sinc_power(grid, a, k_pow, cube_center)
    mult = np.ones(grid.shape, dtype=np.complex128)
    values = np.ones(grid.shape, dtype=np.complex128)
    phase = np.zeros(grid.shape)
    xi_1d = grid.axis_freqs
    for ax in range(d):
        # per-axis 1-d evaluation, B-spline only inside its support box
        mult_1d = np.zeros(grid.samples)
        inside = np.abs(xi_1d - eta[ax]) < k_pow * a
        mult_1d[inside] = bspline_central((xi_1d[inside] - eta[ax]) / a,
                                          2 * k_pow) / a
        mult = mult * grid.on_axis(mult_1d, ax)
        mult = mult * grid.on_axis(np.exp(-2j * np.pi * xi_1d * cube_center), ax)
        values = values * grid.on_axis(per, ax)
        phase = phase + eta[ax] * (grid.point_component(ax) - cube_center)
    values = values * np.exp(2j * np.pi * phase)
    field = SampledField(grid, np.ascontiguousarray(values))
    tag = f"sincpow[{kind},{j}"
    if np.any(np.asarray(eta) != 0):
        tag += ",eta=" + ",".join(f"{e:g}" for e in np.asarray(eta))
    return _finish(grid, tag + "]", kind, j, mult, field)


def _translate(handle, grid, offset, new_id):
    phase = np.zeros(grid.shape, dtype=np.complex128)
    for ax, t in enumerate(offset):
        phase = phase + grid.freq_component(ax) * t
    mult = handle.multiplier * np.exp(-2j * np.pi * phase)
    field = kernel_field_from_multiplier(grid, mult)
    return KernelHandle(grid, new_id, handle.kind, handle.level, mult, field)


def _modulate_kernel(handle, grid, eta, new_id):
    out = SampledField(grid, handle.field.values * plane_wave(grid, eta))
    return KernelHandle(grid, new_id, handle.kind, handle.level,
                        field_multiplier(out), out)


_DICTIONARY_CACHE = OrderedDict()   # LRU of dictionaries, one per class
_DICTIONARY_CACHE_SIZE = 16         # the reference sweep's 16 classes


def _candidates(grid, j, beta, kind, spec):
    """The candidates of build_dictionary, built one at a time.  The
    translation and modulation bases reuse the candidate handles."""
    reused = ({(build_tau, j + 1), (build_tau, j + 2)} if kind == "phi"
              else {(build_psi_cone, 0, j + 2)})
    kept = {}

    def build(builder, *args):
        key = (builder, *args)
        if key in kept:
            return kept.pop(key)
        handle = builder(grid, *args)
        if key in reused:
            kept[key] = handle
        return handle

    lat = 1.0 / (2 * grid.half_width)
    if kind == "phi":
        for s in range(spec.n_tau):
            yield build(build_tau, j + 1 + s)
    for s in range(spec.n_psi):
        for n in range(grid.dim):
            yield build(build_psi_cone, n, j + 2 + s)
    if spec.n_sinc:
        yield build_sinc_power(grid, j, beta, kind)
        if kind == "psi":
            # a ladder across the annulus so every admissible frequency
            # sits near some box center, on each axis and sign
            u = 2.0 ** (-j - 3)
            for ax in range(grid.dim):
                for radius_units in (3.0, 5.0, 7.0):
                    for sign in (1.0, -1.0):
                        eta = np.zeros(grid.dim)
                        eta[ax] = sign * radius_units * u
                        if sign > 0 and ax == 0 and radius_units == 5.0:
                            continue  # the default kernel above
                        yield build_sinc_power(grid, j, beta, kind, eta)
    if kind == "phi":
        base_mod = build(build_tau, j + 2)
        for i in range(spec.n_mod):
            mag = 2.0 ** (-j - 1) / (i + 1)
            eta = np.zeros(grid.dim)
            eta[i % grid.dim] = round(mag / lat) * lat
            if np.max(np.abs(eta)) + 2.0 ** (-j - 1) > 2.0 ** (-j) + 1e-12:
                continue
            if np.max(np.abs(eta)) == 0:
                continue
            yield _modulate_kernel(
                base_mod, grid, eta, f"mod[{base_mod.kernel_id},eta{i}]")
        del base_mod
        if spec.n_sinc_mod:
            # modulation ladder tiling the ball: centers at quarter-band
            # steps, boxes shrinking toward the edge
            for ax in range(grid.dim):
                for k in range(1, 2 * spec.n_sinc_mod):
                    for sign in (1.0, -1.0):
                        eta = np.zeros(grid.dim)
                        eta[ax] = sign * k * 2.0 ** (-j - 2)
                        if k * 2.0 ** (-j - 2) >= 2.0 ** (-j):
                            continue
                        yield build_sinc_power(grid, j, beta, kind, eta)
    trans_base = build(build_tau, j + 1) if kind == "phi" else build(build_psi_cone, 0, j + 2)
    h = grid.spacing
    for i in range(spec.n_trans):
        mag = 2.0 ** j / (i + 1)
        offset = np.zeros(grid.dim)
        offset[i % grid.dim] = max(round(mag / h), 1) * h
        if np.max(np.abs(offset)) > 2.0 ** j + 1e-12:
            continue
        yield _translate(trans_base, grid, offset, f"tr[{trans_base.kernel_id},t{i}]")


def build_dictionary(grid, j, beta, kind, spec=None):
    """Normalized dictionary of class-(Phi|Psi)_j^beta kernels.

    Candidates: tau_{j+1+s}, cone pieces psi_{n,j+2+s}, on-lattice
    modulations of tau_{j+2}, sub-scale translates, and a ladder of
    sinc-power boxes tiling the admissible frequency set.  Each
    candidate is scaled by its lambda_max so it touches the class
    envelope, making the dictionary supremum a certified lower bound for
    the class supremum.  Candidates with frequency leak (e.g. low
    frequencies in a Psi dictionary) are dropped.

    Each candidate is certified, scaled and released before the next is
    built; only its scaled multiplier is kept, read-only, and the result
    is cached per class (an LRU) and shared by every caller.  All of it
    is exact: builders are deterministic and certification does not
    modify a handle, so a base may reuse its candidate; the envelope
    depends on (grid, j, beta) only, a sinc profile on (grid, a, K, c)
    only (eta enters as a separate phase, and every axis has the same
    points).
    """
    spec = spec or DictionarySpec()
    if kind not in ("phi", "psi"):
        raise ValidationError("kind must be 'phi' or 'psi'")
    cache_key = (grid.dim, grid.half_width, grid.samples, j, float(beta), kind, spec)
    if cache_key in _DICTIONARY_CACHE:
        _DICTIONARY_CACHE.move_to_end(cache_key)
        return _DICTIONARY_CACHE[cache_key]

    def normalized(cand):
        cert = class_membership(cand, j, beta, kind)
        lam = cert["lambda_max"]
        if cert["leak"] > 1e-10 or not np.isfinite(lam) or lam <= 0:
            return None
        norm = cand.scaled(lam)
        norm.certificate.update(class_membership(norm, j, beta, kind))
        norm.certificate["normalization"] = lam
        norm.field = None
        norm.multiplier.flags.writeable = False
        return norm

    # map() drops each candidate as soon as it is normalized
    out = [h for h in map(normalized, _candidates(grid, j, beta, kind, spec)) if h is not None]
    if not out:
        raise ValidationError(
            f"empty {kind}-dictionary at level {j}: all candidates filtered")
    out.sort(key=lambda k: k.kernel_id)
    if len(_DICTIONARY_CACHE) >= _DICTIONARY_CACHE_SIZE:
        _DICTIONARY_CACHE.popitem(last=False)
    _DICTIONARY_CACHE[cache_key] = out
    return out
