"""Band-limited kernels, their Fourier multipliers and class certificates.

Every kernel of the construction is defined through an explicit
multiplier on the frequency lattice: a radial low-pass profile (tau),
telescoping differences (psi), a cone decomposition splitting an annulus
into pieces where one frequency coordinate dominates, and one-variable
antiderivatives (theta).  Two take closed-form spatial samples instead:
the mollifier kappa, built in space so that its compact support is exact
on the grid, and the sinc boxes of the dictionaries, whose polynomial
tails an inverse FFT would bury under its roundoff floor.

Each of these multipliers is supported in a ball or an annulus, so a
kernel's multiplier is its frequency band (grid.frequency_band; every
value off it is zero).  Every builder returns its handle through
_finish, which takes the band; grid.kernel_field_from_multiplier lays a
band on the lattice for the spatial samples, and grid.apply_multiplier
reads it.

Each builder also says, by construction and not from its floats, whether
its kernel is real (its multiplier Hermitian): tau, psi, the psi cones,
theta, the translates of real bases and the sinc box with eta = 0 are;
the sinc boxes with eta != 0 and the modulations are complex.  Such a
box names its mirror, the box at -eta, whose kernel is its conjugate:
on a real field the two have one response |k * f| in exact arithmetic,
which the estimators take from one transform.

Class membership is certified empirically: `leak` is the largest
multiplier value outside the admissible frequency set and `lambda_max`
the largest scaling that keeps the kernel under the pointwise envelope
2^{-dj} rho_{[0,2^j]^d}^{-beta}.

A dictionary certifies each candidate once and keeps it scaled by its
lambda_max, band-limited to |xi| < 2^-j, without a field.

The multipliers that depend on no f are evaluated once per (grid, j) and
kept as read-only bands in small LRU caches keyed by the grid's value:
tau_multiplier, psi_cone_multiplier (its cone weights computed on psi_j's
band only) and, as the difference of two tau bands, psi_multiplier.
Each band holds the floats of the evaluation on the whole lattice, which
is zero off the band.  Likewise a translate evaluates its phase on its
base's band, a modulation shifts its base's band by its frequency's
lattice index, and a sinc box builds its multiplier on its band from
factors evaluated on each axis's band, and its spatial samples from a
cached 1-d profile with eta's phase on eta's nonzero axes only.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .cubes import DyadicCube
from .errors import ResolutionError, ValidationError
from .grid import (
    SampledField,
    embed_band,
    frequency_band,
    kernel_field_from_multiplier,
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
    """A kernel with its multiplier, as its grid.frequency_band, and its
    spatial samples; whether the kernel is real, and the id of its
    mirror, the kernel of the conjugate samples, if a builder makes one."""

    grid: object
    kernel_id: str
    multiplier: np.ndarray       # a band; in a dictionary, scaled
    field: SampledField | None   # None in a dictionary
    real: bool                   # the multiplier is Hermitian
    mirror: str | None = None


def _require_band_inside_nyquist(grid, radius, what):
    if radius > grid.nyquist + 1e-12:
        raise ResolutionError.needing(
            f"{what}: frequency support radius {radius} exceeds the Nyquist "
            f"frequency {grid.nyquist}", radius * 4 * grid.half_width)


def _finish(grid, kernel_id, mult, real, field=None, mirror=None):
    """The handle of the kernel of multiplier `mult`, on the lattice or a
    band: it keeps the band of `mult` and, unless given, the spatial
    samples laid from that band.  Every builder returns through here."""
    band = frequency_band(mult)
    if field is None:
        field = kernel_field_from_multiplier(grid, band)
    return KernelHandle(grid, kernel_id, band, field, real, mirror)


# Room for the 10 tau levels and 9 cone pieces that the first five
# reference-sweep configs read; at N = 2^17 in d = 1 each band holds at
# most 33 KB.
@functools.lru_cache(maxsize=16)
def tau_multiplier(grid, j):
    """LOWPASS_PROFILE(2^j |xi|) on its frequency band, read-only: one per
    (grid, j), shared by every kernel, class and frame that reads it."""
    return frequency_band(LOWPASS_PROFILE(2.0 ** j * grid.freq_radius))


def build_tau(grid, j):
    """Low-pass kernel tau_j: multiplier 1 on |xi| <= 2^-j, 0 beyond 2^(1-j)."""
    _require_band_inside_nyquist(grid, 2.0 ** (1 - j), f"tau_{j}")
    return _finish(grid, f"tau[{j}]", tau_multiplier(grid, j), True)


def psi_multiplier(grid, j):
    """tau_{j-1} - tau_j on its frequency band, read-only."""
    outer = tau_multiplier(grid, j - 1)
    return frequency_band(outer - embed_band(tau_multiplier(grid, j), outer.shape))


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


@functools.lru_cache(maxsize=16)
def psi_cone_multiplier(grid, n, j):
    """Multiplier of psi_{n,j} = psi_j * chi_{n,j} on its frequency band,
    read-only: chi is evaluated on psi_j's band only."""
    psi = psi_multiplier(grid, j)
    zeta = [2.0 ** j * xi for xi in grid.band_freqs(psi.shape)]
    return frequency_band(psi * cone_multiplier_values(grid.dim, n, zeta))


def build_psi_cone(grid, n, j):
    """Cone piece psi_{n,j}; the pieces sum to psi_j exactly on the lattice."""
    _require_band_inside_nyquist(grid, 2.0 ** (2 - j), f"psi_{n},{j}")
    return _finish(grid, f"psi[n={n},{j}]", psi_cone_multiplier(grid, n, j), True)


def build_theta(grid, n, j):
    """Antiderivative kernel theta_{n,j} with d_n^{d+1} theta_{n,j} = psi_{n,j}.

    Defined spectrally as psi_hat_{n,j} / (2 pi i xi_n)^{d+1}; the cone
    support keeps |xi_n| >= 2^-j / sqrt(2d) so the division never sees
    the zero set, and the multiplier is set to exact zero off support.
    """
    _require_band_inside_nyquist(grid, 2.0 ** (2 - j), f"theta_{n},{j}")
    num = psi_cone_multiplier(grid, n, j)
    order = grid.dim + 1
    xi_n = np.broadcast_to(grid.band_freqs(num.shape)[n], num.shape)
    denom = (2j * np.pi * np.where(num != 0, xi_n, 1.0)) ** order
    mult = np.where(num != 0, num / denom, 0.0)
    return _finish(grid, f"theta[n={n},{j}]", mult, True)


def build_mollifier(grid, radius):
    """Nonnegative smooth bump supported in the Euclidean ball of the
    given radius, with exact unit grid mass, as a SampledField."""
    if radius < grid.spacing:
        raise ResolutionError.needing(
            f"mollifier radius {radius} below grid spacing {grid.spacing}",
            2 * grid.half_width / radius)
    raw = MOLLIFIER_PROFILE(grid.space_radius / radius)
    total = float(np.sum(raw)) * grid.spacing ** grid.dim
    return SampledField(grid, raw / total)


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


def class_membership(handle, j, beta, kind="phi"):
    """Certificate for membership in Phi_j^beta (kind='phi') or Psi_j^beta.

    leak: largest |multiplier| outside the admissible frequency set
    (the ball |xi| < 2^-j; for Psi additionally |xi| > 2^{-j-2}), read
    on the band, off which every value is zero.
    lambda_max: largest scaling that keeps |kernel| under the envelope;
    passing means leak <= 1e-10 and lambda_max >= 1.
    """
    grid = handle.grid
    mag_mult = np.abs(handle.multiplier)
    # the band's |xi| in the operation order of TorusGrid._radius
    radius = np.sqrt(sum(xi ** 2 for xi in grid.band_freqs(mag_mult.shape)))
    forbidden = radius >= 2.0 ** (-j) * (1 - 1e-12)
    if kind == "psi":
        forbidden |= radius <= 2.0 ** (-j - 2) * (1 + 1e-12)
    peak = float(np.max(mag_mult))
    leak = float(np.max(mag_mult[forbidden], initial=0.0))
    leak_rel = leak / peak if peak > 0 else 0.0

    env = class_envelope(grid, j, beta)
    mag = np.abs(handle.field.values)
    scale = float(np.max(mag))
    if scale == 0:
        lam = math.inf
    else:   # env / mag where |kernel| is significant, +inf elsewhere
        ratio = np.full(mag.shape, math.inf)
        lam = float(np.min(np.divide(env, mag, out=ratio, where=mag > 1e-300)))
    return {
        "leak": leak_rel,
        "lambda_max": lam,
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

    def __post_init__(self):
        for field in fields(self):
            count = getattr(self, field.name)
            if not isinstance(count, numbers.Integral):
                raise ValidationError(
                    f"DictionarySpec {field.name} must be an integer, not {count!r}")
            if count < 0:
                raise ValidationError(f"DictionarySpec {field.name} must be >= 0, not {count!r}")

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
    polynomial tail under a flat noise floor.  Row k of one array holds
    the B-spline of the current order at t + k/2, for every knot offset
    |k| < order at once, and each order is one array pass over the rows
    it still needs; each float is that of the recursion taken one offset
    at a time.
    """
    t = np.asarray(t, dtype=float)
    offsets = 0.5 * np.arange(-(order - 1), order).reshape((-1,) + (1,) * t.ndim)
    shifted = t + offsets
    # half-open convention at order 1 makes the recursion exact at knots
    vals = np.where((shifted >= -0.5) & (shifted < 0.5), 1.0, 0.0)
    for n in range(2, order + 1):
        half = n / 2.0
        tt = shifted[n - 1:2 * order - n]   # offsets |k| <= order - n
        val = ((tt + half) * vals[2:] + (half - tt) * vals[:-2]) / (n - 1)
        vals = np.where(np.abs(tt) < half, val, 0.0)
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


@functools.lru_cache(maxsize=4)
def _periodized_sinc_power(grid, a, k_pow, center):
    """sum_nu sinc(a (x - center + 2 B nu))^(2 k_pow) over 7 images on
    one axis, read-only: shared by every sign of eta and every axis.  A
    table is keyed by the box width a, not by eta: the boxes of a class
    need one per distinct width, at most four (a phi class: eta = 0 and
    three ladder radii), and in d = 1 the psi ladder's boxes at 3u and 7u
    share a = u/K.  A class is built in one go, so four are cached.

    B and h are powers of two (TorusGrid), so for a center on the lattice
    (h/2) Z every image point y = h m - B - center is exactly (h/2)(2m - q),
    q = 2 (B + center) / h whole, and -y is an image point as well.
    a (-y) is -(a y) exactly and np.sinc is even to the bit, so
    |sinc(a y)|^(2K) is evaluated once per distinct |y| = (h/2)(2t + q % 2)
    into a table, and each image adds slices of it in nu order.  A center
    off (h/2) Z, the cube center of a class finer than the grid, is refused.

    The table (3.5 N points) is filled on the calling thread, 2^14 points
    at a time so that the temporaries stay small.  The power is even, so
    |s|^(2K) = s^(2K); numpy's float power takes a slow path on negative
    bases, about half of the table, and the fast one on |s|.  A
    non-negative s keeps its bits, and a negative one moves the entry by
    at most 1 ULP from the signed power's.
    """
    n, h = grid.samples, grid.spacing
    if center % (h / 2):
        raise ResolutionError.needing(
            f"sinc centre {center} is off the half-step lattice", grid.half_width / center)
    q = int(2 * (grid.half_width + center) / h)
    # flat index i = m + 3N over the images: y < 0 below i = up, at
    # table index down - i, and y >= 0 from there, at index i - up
    odd = q % 2
    down, up = (6 * n + q - odd) // 2, (6 * n + q + odd) // 2
    table = np.empty(max(down, 7 * n - 1 - up) + 1)
    for lo in range(0, table.size, 1 << 14):
        t = np.arange(lo, min(lo + (1 << 14), table.size), dtype=float)
        table[lo:lo + t.size] = np.abs(np.sinc(a * (0.5 * h * (2 * t + odd)))) ** (2 * k_pow)
    per = np.zeros(n)
    for lo in range(0, 7 * n, n):
        mid = min(max(up, lo), lo + n)
        if mid > lo:
            per[:mid - lo] += table[down - mid + 1:down - lo + 1][::-1]
        per[mid - lo:] += table[mid - up:lo + n - up]
    per.flags.writeable = False
    return per


def build_sinc_power(grid, j, beta, kind, eta):
    """Tensor power of a sinc, in frequency a tensor B-spline box.

    The spatial kernel prod_n sinc(pi a (x - c)_n)^(2K) with 2K >= beta
    decays like the class envelope (polynomially, unlike the smooth-glue
    kernels), so its lambda-normalization is an O(1) factor, uniformly
    over scales.  It is translated to the envelope cube's center c and
    its spectral box sits inside the admissible set, shifted by eta.

    Only the spatial samples fill the lattice: the product of the
    periodized 1-d profiles, times exp(2 pi i eta . (x - c)) with the
    phase summed and exponentiated over eta's nonzero axes alone, so a
    ladder box takes one 1-d exp and eta = 0 none.  The multiplier is
    built on its band: per axis, the band of the lattice points inside
    the box, with the B-spline and centre-phase factors evaluated there.
    Each float is that of the evaluation on the whole lattice.
    """
    _require_band_inside_nyquist(grid, 2.0 ** (-j), f"sinc box at level {j}")
    k_pow = max(1, math.ceil(beta / 2.0))
    d = grid.dim
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
    values = functools.reduce(np.multiply, (grid.on_axis(per, ax) for ax in range(d)))
    # eta's phase on its nonzero axes only: a term 0 * (x - c) leaves the
    # sum's floats as they are, and for eta = 0 the factor exp(2 pi i 0) = 1
    # leaves the product's floats those of the complex cast
    axes = np.flatnonzero(eta)
    if axes.size:
        values = values * np.exp(2j * np.pi * sum(
            eta[ax] * (grid.point_component(ax) - cube_center) for ax in axes))
    field = SampledField(grid, values.astype(np.complex128, copy=False))
    # per axis the band of the lattice points inside the box, which holds
    # every nonzero of the product; the B-spline and the centre phase are
    # evaluated there, in the product order (mult * spline) * phase
    n = grid.samples
    widths = []
    for ax in range(d):
        k = np.flatnonzero(np.abs(grid.axis_freqs - eta[ax]) < k_pow * a)
        widths.append(min(2 * int(np.max(np.minimum(k, n - k), initial=0)) + 1, n))
    factors = []
    for ax, xi in enumerate(grid.band_freqs(widths)):
        xi = xi.reshape(-1)
        mult_1d = np.zeros(xi.size)
        phase_1d = np.zeros(xi.size, dtype=np.complex128)
        inside = np.abs(xi - eta[ax]) < k_pow * a
        mult_1d[inside] = bspline_central((xi[inside] - eta[ax]) / a, 2 * k_pow) / a
        phase_1d[inside] = np.exp(-2j * np.pi * xi[inside] * cube_center)
        factors += [grid.on_axis(mult_1d, ax), grid.on_axis(phase_1d, ax)]
    # each product starts from its first factor, as exact as from complex
    # ones: 1 * x and numpy's promotion to complex give the same floats
    mult = functools.reduce(np.multiply, factors)
    if not axes.size:
        return _finish(grid, _sinc_id(kind, j, eta), mult, True, field)
    # the box at -eta (0.0 - eta: no zero turns -0) has the conjugate samples
    return _finish(grid, _sinc_id(kind, j, eta), mult, False, field, _sinc_id(kind, j, 0.0 - eta))


def _sinc_id(kind, j, eta):
    """The kernel id of the sinc box at level j centred on eta, which
    names eta unless it is zero."""
    tag = f"sincpow[{kind},{j}"
    if np.any(eta):
        tag += ",eta=" + ",".join(f"{e:g}" for e in eta)
    return tag + "]"


def _translate(band, grid, offset, new_id):
    """The kernel of multiplier `band`, the frequency band of a real
    kernel, translated by `offset`: the band times exp(-2 pi i xi . offset),
    the phase evaluated on the band only; real as its base."""
    phase = np.zeros(band.shape, dtype=np.complex128)
    for xi, t in zip(grid.band_freqs(band.shape), offset):
        phase = phase + xi * t
    return _finish(grid, new_id, band * np.exp(-2j * np.pi * phase), True)


def _modulate(band, grid, eta, new_id):
    """The kernel of multiplier `band`, a frequency band, modulated by the
    lattice frequency `eta`: the band shifted by eta's lattice index,
    widened first by the shift on each axis so that nothing wraps; on a
    whole axis the roll is the torus's cyclic shift."""
    shift = [int(np.rint(e * 2 * grid.half_width)) for e in eta]
    shape = [min(m + 2 * abs(s), grid.samples) for m, s in zip(band.shape, shift)]
    return _finish(grid, new_id, np.roll(embed_band(band, shape), shift, range(grid.dim)), False)


def _candidates(grid, j, beta, kind, spec):
    """The candidates of build_dictionary, built one at a time.  The
    modulations shift, and the translates rephase, their base's cached
    band."""
    lat = 1.0 / (2 * grid.half_width)
    if kind == "phi":
        for s in range(spec.n_tau):
            yield build_tau(grid, j + 1 + s)
    for s in range(spec.n_psi):
        for n in range(grid.dim):
            yield build_psi_cone(grid, n, j + 2 + s)
    if spec.n_sinc and kind == "phi":
        yield build_sinc_power(grid, j, beta, kind, np.zeros(grid.dim))
    if spec.n_sinc and kind == "psi":
        # a ladder across the annulus so every admissible frequency
        # sits near some box center, on each axis and sign
        u = 2.0 ** (-j - 3)
        for ax in range(grid.dim):
            for radius_units in (3.0, 5.0, 7.0):
                for sign in (1.0, -1.0):
                    eta = np.zeros(grid.dim)
                    eta[ax] = sign * radius_units * u
                    yield build_sinc_power(grid, j, beta, kind, eta)
    if kind == "phi" and spec.n_mod:
        _require_band_inside_nyquist(grid, 2.0 ** (-j - 1), f"tau_{j + 2}")
        for i in range(spec.n_mod):
            mag = 2.0 ** (-j - 1) / (i + 1)
            eta = np.zeros(grid.dim)
            eta[i % grid.dim] = round(mag / lat) * lat
            if np.max(np.abs(eta)) + 2.0 ** (-j - 1) > 2.0 ** (-j) + 1e-12:
                continue
            if np.max(np.abs(eta)) == 0:
                continue
            yield _modulate(tau_multiplier(grid, j + 2), grid, eta, f"mod[tau[{j + 2}],eta{i}]")
    if kind == "phi" and spec.n_sinc_mod:
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
    if spec.n_trans:
        # the base is tau_{j+1} or psi_{0,j+2}, whose band reaches 2^-j
        _require_band_inside_nyquist(grid, 2.0 ** (-j), f"translates at level {j}")
        if kind == "phi":
            base, base_id = tau_multiplier(grid, j + 1), f"tau[{j + 1}]"
        else:
            base, base_id = psi_cone_multiplier(grid, 0, j + 2), f"psi[n=0,{j + 2}]"
        h = grid.spacing
        for i in range(spec.n_trans):
            mag = 2.0 ** j / (i + 1)
            offset = np.zeros(grid.dim)
            offset[i % grid.dim] = max(round(mag / h), 1) * h
            if np.max(np.abs(offset)) > 2.0 ** j + 1e-12:
                continue
            yield _translate(base, grid, offset, f"tr[{base_id},t{i}]")


# Room for the reference sweep's 16 classes.  The 15 that its first five
# configs build hold 1.7 MB of band multipliers at N = 2^17 (326 MB on the
# full lattice).
@functools.lru_cache(maxsize=16)
def build_dictionary(grid, j, beta, kind, spec):
    """Normalized dictionary of class-(Phi|Psi)_j^beta kernels.

    Candidates: tau_{j+1+s}, cone pieces psi_{n,j+2+s}, on-lattice
    modulations of tau_{j+2}, sub-scale translates, and a ladder of
    sinc-power boxes tiling the admissible frequency set.  Each
    candidate is certified once, then scaled by its lambda_max so it
    touches the class envelope (lambda_max(c k) = lambda_max(k) / c), making
    the dictionary supremum a certified lower bound for the class supremum.
    Candidates with frequency leak (e.g. low frequencies in a Psi
    dictionary) are dropped.

    The tau and cone candidates and the translation and modulation bases
    read the memoized bands of tau_multiplier and psi_cone_multiplier
    (module docstring), so neighbouring classes, which share all but one
    of their tau levels, evaluate each low-pass profile once; a sinc box
    builds its multiplier on its band (build_sinc_power), a translate
    evaluates its phase only on its base's band, and a modulation is its
    base's band shifted.

    Each candidate is certified, scaled and released before the next is
    built; only its scaled band is kept, read-only and without a field,
    and taken anew (grid.frequency_band), since the scaling may underflow
    an edge value.  The result is cached per class (an LRU, under which
    equal grids hit alike) and shared by every caller.  At
    N = 2^17 in d = 1 a phi class keeps 6 KB to 0.4 MB instead of 26.2 MB
    on the full lattice, and a psi class 4 KB to 0.5 MB instead of
    17.8 MB.  All of it is exact: builders are deterministic, the
    envelope depends on (grid, j, beta) only, a sinc profile on
    (grid, a, K, c) only (eta enters as a separate phase, and every axis
    has the same points).
    """
    if kind not in ("phi", "psi"):
        raise ValidationError("kind must be 'phi' or 'psi'")
    # the coarsest candidates, tau_{j+n_tau} and psi_{n,j+1+n_psi}, scale
    # frequencies by 2^level, which a float holds up to level 1023
    coarsest = {"n_psi": j + 1 + spec.n_psi if spec.n_psi else None,
                "n_tau": j + spec.n_tau if spec.n_tau and kind == "phi" else None}
    for name, level in coarsest.items():
        if level is not None and level >= sys.float_info.max_exp:
            raise ValidationError(
                f"DictionarySpec {name} = {getattr(spec, name)} takes the level-{j} "
                f"{kind} dictionary to kernels at level {level}, whose scale 2^{level} "
                "is past the float range")

    def normalized(cand):
        cert = class_membership(cand, j, beta, kind)
        lam = cert["lambda_max"]
        if cert["leak"] > 1e-10 or not np.isfinite(lam) or lam <= 0:
            return None
        return replace(cand, multiplier=frequency_band(cand.multiplier * lam), field=None)

    # map() drops each candidate as soon as it is normalized
    out = [h for h in map(normalized, _candidates(grid, j, beta, kind, spec)) if h is not None]
    if not out:
        raise ValidationError(
            f"empty {kind}-dictionary at level {j}: all candidates filtered")
    out.sort(key=lambda k: k.kernel_id)
    return out
