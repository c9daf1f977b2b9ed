"""Periodic sampling grid, spectral operations and weighted norms.

Fields live on a uniform grid over [-B, B)^d with N samples per axis.
N and B are powers of two, so the spacing h = 2B/N is one too, and each
dyadic cube of side at least h has its edges on grid points: its index
range is integer arithmetic (TorusGrid.cube_slices).  Convolutions are
circular and evaluated through pointwise spectral products, scaled so
that discrete results approximate the corresponding integrals.  The frequency lattice is (1/(2B)) Z^d
folded to Nyquist, which is exactly numpy's fftfreq(N, d=h).

Real fields take real transforms.  A field whose samples are real keeps
them as float64, and its spectrum is rfftn's half spectrum: on the last
axis only the lattice indices 0..N/2, the rest following from
F(-k) = conj F(k).  A real kernel, one whose multiplier is Hermitian (the
kernels module says which are), acts on a real field through that half:
its band read on the half lattice (_half_block) times the half spectrum,
then irfftn, and the output is real.  Complex samples, and a complex
kernel on any field, take the full spectrum and ifftn; a real field's
full spectrum is its half read by that symmetry (_spectrum_on),
never an fftn of real samples.

Equal grids share their coordinate arrays (axis points, frequencies, the
lattice sign and the two radii): each is built once, on the first equal
grid still held by a small value-keyed cache, stored read-only, and read
by every equal grid.  A run that builds a new, equal grid per config
computes them once.
"""

from __future__ import annotations

import functools
import math
import numbers
import struct
import sys
import warnings
from dataclasses import dataclass, field as dc_field
from math import inf

import numpy as np

from .errors import ResolutionError, ValidationError

_MAGIC = b"PPRJ"
_HEADER = struct.Struct("<4sBBId?")   # magic, version, dim, N, B, complex


@functools.lru_cache(maxsize=4)
def _first_equal(grid):
    """The first grid equal to `grid` that the cache still holds."""
    return grid


def _shared_array(build):
    """A cached, read-only grid array built once on the first equal grid
    (_first_equal) and read by every grid equal to it."""
    @functools.wraps(build)
    def shared(grid):
        first = _first_equal(grid)
        if first is not grid:
            return getattr(first, build.__name__)
        array = build(grid)
        array.flags.writeable = False
        return array
    return functools.cached_property(shared)


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on [-half_width, half_width)^d; both
    half_width and samples (points per axis) are powers of two."""

    dim: int
    half_width: float = 8.0
    samples: int = 4096

    def __post_init__(self):
        dim, samples, half_width = self.dim, self.samples, self.half_width
        if not isinstance(dim, numbers.Integral) or dim < 1:
            raise ValidationError(f"dim must be an integer >= 1, not {dim!r}")
        if (not isinstance(samples, numbers.Integral) or samples <= 0
                or samples & (samples - 1) != 0):
            raise ValidationError(
                f"samples per axis must be a power of two, not {samples!r}")
        if (not isinstance(half_width, numbers.Real)
                or not 8.0 <= half_width <= sys.float_info.max
                or math.frexp(half_width)[0] != 0.5):
            # 7U plus a quarter-domain decay buffer on each side needs B >= 8,
            # and a power of two puts every dyadic cube edge on the grid
            raise ValidationError(
                f"half_width must be a power of two >= 8, not {half_width!r}")
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "half_width", float(half_width))
        object.__setattr__(self, "samples", int(samples))

    @property
    def spacing(self):
        return 2.0 * self.half_width / self.samples

    @property
    def shape(self):
        return (self.samples,) * self.dim

    @property
    def size(self):
        return self.samples ** self.dim

    @property
    def nyquist(self):
        return self.samples / (4.0 * self.half_width)

    @property
    def axes(self):
        return tuple(range(self.dim))

    @_shared_array
    def axis_points(self):
        return -self.half_width + self.spacing * np.arange(self.samples)

    @_shared_array
    def axis_freqs(self):
        return np.fft.fftfreq(self.samples, d=self.spacing)

    @_shared_array
    def lattice_sign(self):
        """(-1)^k of each lattice index k on one axis (_lattice_sign)."""
        kappa = np.rint(self.axis_freqs * 2 * self.half_width).astype(np.int64)
        return 1.0 - 2.0 * (np.abs(kappa) % 2)

    def on_axis(self, vector, axis):
        """A vector laid along `axis`: an N-vector broadcasts to the grid
        shape, a band's to the band's."""
        return vector.reshape([-1 if a == axis else 1 for a in range(self.dim)])

    def point_component(self, axis):
        """Spatial coordinate along `axis`, broadcastable to the grid shape."""
        return self.on_axis(self.axis_points, axis)

    def freq_component(self, axis):
        return self.on_axis(self.axis_freqs, axis)

    def band_freqs(self, shape):
        """Per axis, the lattice frequencies of a frequency band of the
        given shape (frequency_band), broadcastable to it."""
        return [self.on_axis(self.axis_freqs[_band_index(self.samples, m)], ax)
                for ax, m in enumerate(shape)]

    def _radius(self, component):
        out = np.zeros(self.shape)
        for ax in range(self.dim):
            out = out + component(ax) ** 2
        return np.sqrt(out)

    @_shared_array
    def freq_radius(self):
        return self._radius(self.freq_component)

    @_shared_array
    def space_radius(self):
        return self._radius(self.point_component)

    def cells(self, level):
        """Grid steps along the side of a level-`level` dyadic cube, a
        whole power of two; a cube finer than the spacing is refused."""
        side = 2.0 ** level
        if side < self.spacing:
            raise ResolutionError.needing(
                f"level-{level} cubes are below the grid spacing", 2 * self.half_width / side)
        return int(side / self.spacing)

    def cube_slices(self, cube):
        """Index slices covering a dyadic cube inside the domain: cell k
        at its level starts at index N/2 + k * cells."""
        cells, mid = self.cells(cube.level), self.samples // 2
        return tuple(slice(mid + k * cells, mid + (k + 1) * cells) for k in cube.index)


@dataclass
class SampledField:
    """Values of a function sampled on a TorusGrid, with a spectrum cache:
    float64 samples for real data, complex ones otherwise."""

    grid: TorusGrid
    values: np.ndarray
    _fft: np.ndarray | None = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != self.grid.shape:
            raise ValidationError(f"value shape {values.shape} != grid shape {self.grid.shape}")
        if not np.iscomplexobj(values):
            values = values.astype(np.float64, copy=False)
        # a read-only view: the caller's own array stays writable
        self.values = values.view()
        self.values.flags.writeable = False

    @property
    def is_real(self):
        return not np.iscomplexobj(self.values)

    def fft(self):
        """Raw forward DFT of the values (cached, fftfreq ordering): for
        real values rfftn's half spectrum, whose last axis holds the
        lattice indices 0..N/2, else the full spectrum."""
        if self._fft is None:
            self.with_fft(np.fft.rfftn(self.values, axes=self.grid.axes) if self.is_real
                          else np.fft.fftn(self.values))
        return self._fft

    def with_fft(self, fft_values):
        self._fft = fft_values
        self._fft.flags.writeable = False
        return self

    def max_abs(self):
        return float(np.max(np.abs(self.values)))

    def _check_same_grid(self, other):
        if self.grid != other.grid:
            raise ValidationError("fields live on different grids")

    def __add__(self, other):
        self._check_same_grid(other)
        return SampledField(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check_same_grid(other)
        return SampledField(self.grid, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, SampledField):
            self._check_same_grid(other)
            return SampledField(self.grid, self.values * other.values)
        return SampledField(self.grid, self.values * other)

    __rmul__ = __mul__


def zero_field(grid):
    return SampledField(grid, np.zeros(grid.shape))


# ---------------------------------------------------------------------------
# Spectral primitives.

def _band_index(n, m):
    """Lattice indices, in order, of a band of length m on an axis of n
    points: the wrapped blocks [0, m - m//2) and [n - m//2, n).  An odd
    m = 2e + 1 < n keeps the wrapped indices up to e, and m = n the axis."""
    return np.r_[0:m - m // 2, n - m // 2:n]


def frequency_band(multiplier):
    """Read-only copy of a lattice multiplier on its band.

    Per axis the band keeps the wrapped indices up to e, the largest one
    that holds a nonzero value anywhere, or the whole axis where that
    would cover it; every value outside the band is zero.  A kernel
    band-limited to |xi| < r keeps about (4 B r)^d of the N^d values.
    A band is its own band, and a multiplier that fills the lattice is one.
    """
    nonzero = multiplier != 0
    index = []
    for ax, n in enumerate(multiplier.shape):
        others = tuple(a for a in range(multiplier.ndim) if a != ax)
        k = np.flatnonzero(nonzero.any(axis=others))
        e = int(np.max(np.minimum(k, n - k), initial=0))
        index.append(_band_index(n, min(2 * e + 1, n)))
    band = multiplier[np.ix_(*index)]   # advanced indexing: a copy
    band.flags.writeable = False
    return band


def embed_band(band, shape):
    """A frequency band laid on the full lattice, or on a wider band, of
    the given shape: its values in place, +0 everywhere else."""
    out = np.zeros(shape, dtype=band.dtype)
    out[_band_block(shape, band.shape)] = band
    return out


def _band_block(shape, band_shape):
    """The index block (np.ix_) of a band of shape `band_shape` on a
    lattice, or a wider band, of the given shape."""
    return np.ix_(*map(_band_index, shape, band_shape))


def _half_block(shape, band):
    """(index block, values) of a band on the half lattice of a grid of
    the given shape (SampledField.fft): the band's block on every axis but
    the last, and there its lattice indices 0..N/2 of the whole axis, or
    0..e of a band of 2e + 1 (a view of the band's first entries)."""
    n, m = shape[-1], band.shape[-1]
    kept = n // 2 + 1 if m == n else m - m // 2
    return np.ix_(*map(_band_index, shape[:-1], band.shape[:-1]), np.arange(kept)), band[..., :kept]


def _band_product(spec, index, band, out):
    """`spec` times the band on its index block and zero elsewhere, into
    `out`; a band of the spectrum's shape takes one full product."""
    if band.shape == spec.shape:
        return np.multiply(spec, band, out=out)
    out.fill(0)
    out[index] = spec[index] * band
    return out


def _spectrum_on(a, index):
    """The spectrum of the real field `a` on an index block (np.ix_) of
    the whole lattice, gathered from its half: at a last-axis index k past
    N/2 it reads conj F(-k), every index negated modulo N."""
    spec, n = a.fft(), a.grid.samples
    lead, last = index[:-1], index[-1]
    upper = last.ravel() > n // 2
    block = np.empty(np.broadcast_shapes(*(i.shape for i in index)), dtype=spec.dtype)
    block[..., ~upper] = spec[lead + (last[..., ~upper],)]
    block[..., upper] = np.conj(spec[tuple(-i % n for i in lead) + (-last[..., upper] % n,)])
    return block


def _full_spectrum(a):
    """The DFT of a's values on the whole lattice: fft() itself for
    complex values, for real ones their half spectrum gathered onto it."""
    if not a.is_real:
        return a.fft()
    return _spectrum_on(a, np.ix_(*[np.arange(a.grid.samples)] * a.grid.dim))


def _half_product(a, band, out):
    """The half spectrum of the real field `a` times a real kernel's band
    read on the half lattice, into `out`."""
    return _band_product(a.fft(), *_half_block(a.grid.shape, band), out)


def _full_product(a, band, out):
    """The full spectrum of `a` times `band` on its block, zero elsewhere,
    into `out`, a complex array of the grid shape; a real field's spectrum
    is gathered on the block alone (_spectrum_on)."""
    index = _band_block(a.grid.shape, band.shape)
    if not a.is_real:
        return _band_product(a.fft(), index, band, out)
    out.fill(0)
    out[index] = _spectrum_on(a, index) * band
    return out


def apply_multiplier(a, multiplier, keep_spectrum=True, real=False):
    """Field whose spectrum is `multiplier` times the spectrum of `a`.

    Realizes the convolution a * k for the kernel whose Fourier transform
    sampled on the frequency lattice (fftfreq ordering) is the frequency
    band `multiplier`; off the band the product is zero, and a band that
    fills the lattice takes one product.  A real kernel (`real`: the
    multiplier is Hermitian) acting on a real field takes the half
    spectrum and irfftn, and the output is real; any other pair takes the
    full spectrum and ifftn.  The output caches that spectrum unless
    keep_spectrum is False.  response_writer gives |a * k| alone, float
    for float, into a caller's buffer, without the grid-sized arrays a
    call here makes.
    """
    grid = a.grid
    if real and a.is_real:
        raw = _half_product(a, multiplier, np.empty_like(a.fft()))
        values = np.fft.irfftn(raw, s=grid.shape, axes=grid.axes)
    else:
        raw = _full_product(a, multiplier, np.empty(grid.shape, dtype=np.complex128))
        values = np.fft.ifftn(raw)
    out = SampledField(grid, values)
    return out.with_fft(raw) if keep_spectrum else out


def response_writer(a):
    """Function write(band, out, real) that puts |a * k| into the float
    array `out` of the grid shape and returns it, k the kernel of the
    frequency band `band`, real if `real`:
    np.abs(apply_multiplier(a, band, True, real).values), float for float.

    The function keeps one complex array of the grid shape, made with it,
    and takes each product there.  A real kernel on a real field takes
    its half-spectrum product in the array's first entries, and irfftn
    writes into `out` itself; any other pair takes its full product in
    the whole array, inverted in place.  A band that fills the lattice
    takes the one full product, as apply_multiplier does, and any other
    band's product is written into its index block, set to zero first.
    """
    grid, spec = a.grid, a.fft()
    wave = np.empty(grid.shape, dtype=np.complex128)
    half = wave.reshape(-1)[:spec.size].reshape(spec.shape)

    def write(band, out, real):
        if real and a.is_real:
            np.fft.irfftn(_half_product(a, band, half), s=grid.shape, axes=grid.axes, out=out)
            return np.abs(out, out=out)
        return np.abs(np.fft.ifftn(_full_product(a, band, wave), out=wave), out=out)
    return write


def convolve(a, k):
    """Circular convolution of two fields, scaled to approximate
    integral convolution: h^d * sum_y a(y) k(x - y).  Two real fields
    take their half spectra and irfftn."""
    a._check_same_grid(k)
    grid = a.grid
    h_d = grid.spacing ** grid.dim
    kern = SampledField(grid, np.fft.ifftshift(k.values))
    if a.is_real and kern.is_real:
        raw = a.fft() * kern.fft() * h_d
        values = np.fft.irfftn(raw, s=grid.shape, axes=grid.axes)
    else:
        raw = _full_spectrum(a) * _full_spectrum(kern) * h_d
        values = np.fft.ifftn(raw)
    return SampledField(grid, values).with_fft(raw)


def kernel_field_from_multiplier(grid, band):
    """Spatial samples of the kernel whose multiplier is the frequency
    band `band`: the one place where a kernel's band is laid on the
    lattice (embed_band).  The samples are complex, real kernels' too:
    a kernel's certificate reads its tail at the torus edge, at the FFT's
    roundoff, and keeps the floats of the complex inverse.

    Equals the 2B-periodization of the continuous kernel whose Fourier
    transform the multiplier samples (Poisson summation), evaluated on
    the grid.
    """
    spec = _lattice_sign(grid, embed_band(band.astype(np.complex128), grid.shape))
    values = np.fft.ifftn(spec)
    values *= (grid.samples / (2.0 * grid.half_width)) ** grid.dim
    return SampledField(grid, values)


def physical_spectrum(a):
    """Samples of the continuous-convention Fourier transform
    h^d sum_x a(x) e^{-2 pi i x xi} on the frequency lattice."""
    return _lattice_sign(a.grid, _full_spectrum(a) * a.grid.spacing ** a.grid.dim)


def _lattice_sign(grid, spec):
    """Multiply `spec` in place by (-1)^(k_1 + ... + k_d), k the lattice
    index of each frequency: the phase e^{2 pi i B . xi} between the
    first sample -B and the origin.  Returns `spec`."""
    for ax in range(grid.dim):
        spec *= grid.on_axis(grid.lattice_sign, ax)
    return spec


def partial_derivative(a, axis, order=1):
    """Spectral partial derivative along `axis` of the given order, a
    real kernel.

    The Nyquist row, lattice index N/2, is zeroed for odd orders, where
    the derivative multiplier has no Hermitian-symmetric representative.
    The output keeps no spectrum: no derivative is transformed again.
    """
    if order < 1:
        raise ValidationError("derivative order must be >= 1")
    grid = a.grid
    mult = (2j * np.pi * grid.axis_freqs) ** order
    if order % 2 == 1:
        mult[grid.samples // 2] = 0.0
    return apply_multiplier(a, np.broadcast_to(grid.on_axis(mult, axis), grid.shape), False, True)


def fd_derivative(a, axis, order=1):
    """Finite-difference derivative: repeated fourth-order central
    first-derivative stencils on the periodic grid.  Oracle-grade only."""
    vals = a.values
    h = a.grid.spacing
    for _ in range(order):
        vals = (-np.roll(vals, -2, axis=axis) + 8 * np.roll(vals, -1, axis=axis)
                - 8 * np.roll(vals, 1, axis=axis) + np.roll(vals, 2, axis=axis)) / (12 * h)
    return SampledField(a.grid, vals)


def modulate(a, eta):
    """Multiply by the character e^{2 pi i x . eta} for on-lattice eta."""
    grid = a.grid
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    snapped = np.rint(eta * 2 * grid.half_width) / (2 * grid.half_width)
    if np.max(np.abs(snapped - eta)) > 1e-9:
        warnings.warn("modulation frequency off the lattice; snapping to nearest")
    return SampledField(grid, a.values * plane_wave(grid, snapped))


def plane_wave(grid, freq):
    """Samples of the character e^{2 pi i x . freq}."""
    phase = np.zeros(grid.shape)
    for ax in range(grid.dim):
        phase = phase + freq[ax] * grid.point_component(ax)
    return np.exp(2j * np.pi * phase)


def inner_product(a, b):
    """h^d sum_x a(x) conj(b(x))."""
    a._check_same_grid(b)
    return complex(np.sum(a.values * np.conj(b.values)) * a.grid.spacing ** a.grid.dim)


# ---------------------------------------------------------------------------
# Weights and norms.

def mollified_distance(dist, side):
    """rho_I(y) = max(1, 1/2 + |y - c|_inf / side) from dist = |y - c|_inf,
    c the centre of a cube I of the given side: the closed form of the
    mollified distance inf{r > 1 : y in (2r-1) I}, checked against a
    bisection of that infimum in the tests.  Every weight rho_I ** -e is
    these ufuncs, in this order, followed by the power."""
    return np.maximum(1.0, 0.5 + dist / side)


def rho_values(grid, cube):
    """Mollified distance to `cube` sampled on the grid."""
    dist = np.zeros(grid.shape)
    for ax, c in enumerate(cube.center):
        dist = np.maximum(dist, np.abs(grid.point_component(ax) - c))
    return mollified_distance(dist, cube.side)


def weight_table(grid, level, exponent):
    """The read-only table of (2N)^d floats whose N^d blocks, starting at
    weight_origin, are the weights rho_I ** -exponent of the cubes I at
    `level` inside the domain, bit for bit rho_values(grid, I) ** -exponent.

    Each axis is an N-long slice of one base vector on the 2N points
    -2B + h m, and the weight is their min over axes, taken once into the
    table, the base vector in d = 1 (the estimators module docstring
    gives the exactness argument).  A level finer than the grid spacing
    is refused.
    """
    side = 2.0 ** level
    grid.cells(level)   # refuses a level finer than the spacing
    y = -2.0 * grid.half_width + grid.spacing * np.arange(2 * grid.samples)
    base = mollified_distance(np.abs(y - 0.5 * side), side) ** (-exponent)
    table = functools.reduce(np.minimum, (grid.on_axis(base, ax) for ax in range(grid.dim)))
    table.flags.writeable = False
    return table


def weight_origin(grid, level, cube):
    """Per axis, the table index (weight_table) at which the weight of a
    cube at `level` starts: N/2 - k * cells, a whole number of cells."""
    cells = grid.cells(level)
    return tuple(grid.samples // 2 - k * cells for k in cube.index)


def check_exponent(p):
    """Refuse an exponent p that is not a positive real number or inf:
    nan, or a value of another type."""
    if not (isinstance(p, numbers.Real) and p > 0):
        raise ValidationError("p must be positive or inf")


def lp_norms(mag, h_d, p_values, weight=None, out=None):
    """{p: (h^d sum (w mag)^p)^(1/p)} for magnitudes `mag` times an
    optional broadcastable weight w, the max for p = inf.

    `out`, a float array of the grid shape, receives the weighted
    magnitudes and then, in place, their powers, so that the call
    allocates no array of that size.  The norms that read the magnitudes
    themselves come first, and a second power recomputes them: the floats
    are the same either way.
    """
    weighted = mag if weight is None else np.multiply(weight, mag, out=out)
    norms = {}
    for p in p_values:
        check_exponent(p)
        if p == inf:
            norms[p] = float(np.max(weighted))
        elif p == 1.0:
            norms[p] = float(np.sum(weighted) * h_d)
    overwritten = False
    for p in p_values:
        if p in norms:
            continue
        if overwritten:
            np.multiply(weight, mag, out=out)
        if p == 2.0:
            powered = np.multiply(weighted, weighted, out=out)
            norms[p] = float(np.sqrt(np.sum(powered) * h_d))
        else:
            powered = np.power(weighted, p, out=out)
            norms[p] = float((np.sum(powered) * h_d) ** (1.0 / p))
        overwritten = powered is weighted
    return {p: norms[p] for p in p_values}


def lp_norm(a, p=2.0):
    """(h^d sum |a|^p)^(1/p), or the grid max for p = inf."""
    return lp_norms(np.abs(a.values), a.grid.spacing ** a.grid.dim, (p,))[p]


# ---------------------------------------------------------------------------
# Indicators of cube families and the mollified indicator.

def cube_mask(grid, cubes):
    """Boolean mask of a union of disjoint dyadic cubes (exact rasterization)."""
    mask = np.zeros(grid.shape, dtype=bool)
    for cube in cubes:
        mask[grid.cube_slices(cube)] = True
    return mask


def collar_mask(grid, e_cubes, fine_level):
    """Mask of the union of level-`fine_level` cells at mollified distance
    at most 2 from the union of `e_cubes` (cells two fine units out)."""
    mask = np.zeros(grid.shape, dtype=bool)
    pad = 2 * grid.cells(fine_level)
    for cube in e_cubes:
        if cube.level < fine_level:
            raise ValidationError("collar cells must be finer than the cube level")
        sl = tuple(slice(s.start - pad, s.stop + pad) for s in grid.cube_slices(cube))
        if not all(0 <= s.start and s.stop <= grid.samples for s in sl):
            raise ValidationError("collar escapes the grid domain")
        mask[sl] = True
    return mask


def mollified_indicator(grid, e_cubes, j, m, kappa):
    """Smooth cutoff equal to 1 on the union of `e_cubes` (level-j cubes)
    and 0 outside its 2^(j-m-1)-collar.

    Convolves the indicator of the level-(j-m-3) collar cells with the
    mollifier `kappa`; exactness of the 0/1 plateaus on grid points comes
    from kappa's exact compact support and grid-sum normalization.
    """
    if not e_cubes:
        return zero_field(grid)
    mask = collar_mask(grid, e_cubes, j - m - 3)
    return convolve(SampledField(grid, mask), kappa)


# ---------------------------------------------------------------------------
# Serialization: flat binary fields.

def save_field(a, path):
    """Write a field: the header, then its samples, little-endian float64
    for a real field and complex128 otherwise (the header's flag)."""
    header = _HEADER.pack(_MAGIC, 1, a.grid.dim, a.grid.samples,
                          a.grid.half_width, not a.is_real)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(a.values, dtype="<f8" if a.is_real else "<c16").tobytes())


def load_field(path):
    try:
        with open(path, "rb") as fh:
            header, payload = fh.read(_HEADER.size), fh.read()
        magic, version, dim, samples, half_width, is_complex = _HEADER.unpack(header)
    except (OSError, struct.error) as exc:
        raise ValidationError(f"cannot read a field file header from {path}: {exc}") from exc
    if magic != _MAGIC or version != 1:
        raise ValidationError(f"not a phaseproj field file: {path}")
    grid = TorusGrid(dim, half_width, samples)
    dtype = np.dtype("<c16" if is_complex else "<f8")
    expected = grid.size * dtype.itemsize
    if len(payload) != expected:
        raise ValidationError(
            f"field file {path}: payload of {len(payload)} bytes, expected "
            f"{expected} ({grid.size} {dtype.name} samples of {dtype.itemsize} bytes)")
    data = np.frombuffer(payload, dtype=dtype).reshape(grid.shape)
    if not np.isfinite(data).all():
        raise ValidationError(f"field file {path} holds non-finite samples")
    return SampledField(grid, data.copy())

