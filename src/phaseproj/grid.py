"""Periodic sampling grid, spectral operations and weighted norms.

Fields live on a uniform grid over [-B, B)^d with N samples per axis
(N a power of two).  Convolutions are circular and evaluated through
pointwise spectral products, scaled so that discrete results approximate
the corresponding integrals.  The frequency lattice is (1/(2B)) Z^d
folded to Nyquist, which is exactly numpy's fftfreq(N, d=h).
"""

from __future__ import annotations

import csv
import struct
import warnings
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from math import inf

import numpy as np

from .cubes import DyadicCube
from .errors import ResolutionError, ValidationError

_MAGIC = b"PPRJ"


class TorusGrid:
    """Uniform periodic grid on [-half_width, half_width)^d."""

    def __init__(self, dim, half_width=8.0, samples=4096):
        if samples & (samples - 1) != 0 or samples <= 0:
            raise ValidationError("samples per axis must be a power of two")
        if not half_width >= 8.0:
            # 7U plus a quarter-domain decay buffer on each side needs B >= 8
            raise ValidationError("half_width must be >= 8 to hold 7U with buffer")
        self.dim = int(dim)
        self.half_width = float(half_width)
        self.samples = int(samples)

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

    def __eq__(self, other):
        return (isinstance(other, TorusGrid)
                and (self.dim, self.half_width, self.samples)
                == (other.dim, other.half_width, other.samples))

    def __hash__(self):
        return hash((self.dim, self.half_width, self.samples))

    def __repr__(self):
        return f"TorusGrid(dim={self.dim}, half_width={self.half_width}, samples={self.samples})"

    @cached_property
    def axis_points(self):
        return -self.half_width + self.spacing * np.arange(self.samples)

    @cached_property
    def axis_freqs(self):
        return np.fft.fftfreq(self.samples, d=self.spacing)

    def point_component(self, axis):
        """Spatial coordinate along `axis`, broadcastable to the grid shape."""
        shape = [1] * self.dim
        shape[axis] = self.samples
        return self.axis_points.reshape(shape)

    def freq_component(self, axis):
        shape = [1] * self.dim
        shape[axis] = self.samples
        return self.axis_freqs.reshape(shape)

    @cached_property
    def freq_radius(self):
        out = np.zeros(self.shape)
        for ax in range(self.dim):
            out = out + self.freq_component(ax) ** 2
        return np.sqrt(out)

    @cached_property
    def space_radius(self):
        out = np.zeros(self.shape)
        for ax in range(self.dim):
            out = out + self.point_component(ax) ** 2
        return np.sqrt(out)

    def index_of(self, position):
        """Exact grid index of a position that lies on the grid."""
        idx = (position + self.half_width) / self.spacing
        k = int(round(idx))
        if abs(idx - k) > 1e-9:
            raise ValidationError(f"position {position} is not on the grid")
        return k % self.samples

    def cube_slices(self, cube):
        """Index slices covering a dyadic cube; exact, refuses misalignment."""
        cells = cube.side / self.spacing
        if cells < 1.0 - 1e-12:
            raise ResolutionError(
                f"cube at level {cube.level} is below the grid spacing",
                required_samples=int(2 * self.half_width / cube.side))
        out = []
        for lo in cube.lower():
            start = self.index_of(lo)
            out.append(slice(start, start + int(round(cells))))
        return tuple(out)


@dataclass
class SampledField:
    """Values of a function sampled on a TorusGrid, with a spectrum cache."""

    grid: TorusGrid
    values: np.ndarray
    _fft: np.ndarray | None = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != self.grid.shape:
            raise ValidationError(f"value shape {values.shape} != grid shape {self.grid.shape}")
        if not np.iscomplexobj(values):
            values = values.astype(np.complex128)
        self.values = values
        self.values.flags.writeable = False

    def fft(self):
        """Raw forward DFT of the values (cached, fftfreq ordering)."""
        if self._fft is None:
            self._fft = np.fft.fftn(self.values)
            self._fft.flags.writeable = False
        return self._fft

    def with_fft(self, fft_values):
        self._fft = fft_values
        self._fft.flags.writeable = False
        return self

    def is_real(self, tol=1e-12):
        scale = np.max(np.abs(self.values))
        if scale == 0:
            return True
        return np.max(np.abs(self.values.imag)) <= tol * scale

    def conjugate(self):
        return SampledField(self.grid, np.conj(self.values))

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

    def __neg__(self):
        return SampledField(self.grid, -self.values)


def zero_field(grid):
    return SampledField(grid, np.zeros(grid.shape, dtype=np.complex128))


def field_from_values(grid, values):
    return SampledField(grid, np.array(values, dtype=np.complex128))


# ---------------------------------------------------------------------------
# Spectral primitives.

def apply_multiplier(a, multiplier, keep_spectrum=True):
    """Field whose spectrum is `multiplier` times the spectrum of `a`.

    Realizes the convolution a * k for the kernel with Fourier transform
    `multiplier` sampled on the frequency lattice (fftfreq ordering).
    The output caches that spectrum unless keep_spectrum is False.
    """
    raw = a.fft() * multiplier
    out = SampledField(a.grid, np.fft.ifftn(raw))
    return out.with_fft(raw) if keep_spectrum else out


def convolve(a, k):
    """Circular convolution of two fields, scaled to approximate
    integral convolution: h^d * sum_y a(y) k(x - y)."""
    a._check_same_grid(k)
    h_d = a.grid.spacing ** a.grid.dim
    kern = np.fft.ifftshift(k.values)
    raw = a.fft() * np.fft.fftn(kern) * h_d
    out = SampledField(a.grid, np.fft.ifftn(raw))
    return out.with_fft(raw)


def field_multiplier(k):
    """The multiplier through which `k` acts in convolve():
    the DFT of its ifftshifted samples times h^d."""
    h_d = k.grid.spacing ** k.grid.dim
    return np.fft.fftn(np.fft.ifftshift(k.values)) * h_d


def kernel_field_from_multiplier(grid, multiplier):
    """Spatial samples of the kernel defined by a lattice multiplier.

    Equals the 2B-periodization of the continuous kernel whose Fourier
    transform the multiplier samples (Poisson summation), evaluated on
    the grid.
    """
    n, d = grid.samples, grid.dim
    kappa = np.rint(grid.axis_freqs * 2 * grid.half_width).astype(np.int64)
    phase_axis = 1.0 - 2.0 * (np.abs(kappa) % 2)
    spec = np.array(multiplier, dtype=np.complex128)
    for ax in range(d):
        shape = [1] * d
        shape[ax] = n
        spec = spec * phase_axis.reshape(shape)
    values = np.fft.ifftn(spec) * (n / (2.0 * grid.half_width)) ** d
    return SampledField(grid, values)


def physical_spectrum(a):
    """Samples of the continuous-convention Fourier transform
    h^d sum_x a(x) e^{-2 pi i x xi} on the frequency lattice."""
    grid = a.grid
    n, d = grid.samples, grid.dim
    kappa = np.rint(grid.axis_freqs * 2 * grid.half_width).astype(np.int64)
    phase_axis = 1.0 - 2.0 * (np.abs(kappa) % 2)
    spec = a.fft() * grid.spacing ** d
    for ax in range(d):
        shape = [1] * d
        shape[ax] = n
        spec = spec * phase_axis.reshape(shape)
    return spec


def partial_derivative(a, axis, order=1):
    """Spectral partial derivative along `axis` of the given order.

    The Nyquist row is zeroed for odd orders, where the derivative
    multiplier has no Hermitian-symmetric representative.
    """
    if order < 1:
        raise ValidationError("derivative order must be >= 1")
    grid = a.grid
    xi = grid.freq_component(axis)
    mult = (2j * np.pi * xi) ** order
    if order % 2 == 1:
        nyq = np.isclose(np.abs(xi), grid.nyquist)
        mult = np.where(nyq, 0.0, mult)
    return apply_multiplier(a, np.broadcast_to(mult, grid.shape))


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
    phase = np.zeros(grid.shape)
    for ax in range(grid.dim):
        phase = phase + snapped[ax] * grid.point_component(ax)
    return SampledField(grid, a.values * np.exp(2j * np.pi * phase))


def inner_product(a, b):
    """h^d sum_x a(x) conj(b(x))."""
    a._check_same_grid(b)
    return complex(np.sum(a.values * np.conj(b.values)) * a.grid.spacing ** a.grid.dim)


# ---------------------------------------------------------------------------
# Weights and norms.

def rho_values(grid, cube):
    """Mollified distance to `cube` sampled on the grid."""
    dist = np.zeros(grid.shape)
    for ax, c in enumerate(cube.center):
        dist = np.maximum(dist, np.abs(grid.point_component(ax) - c))
    return np.maximum(1.0, 0.5 + dist / cube.side)


def level_weights(grid, level, exponent):
    """Function cube -> rho_values(grid, cube) ** -exponent, bit for bit.

    For the cubes at `level` each axis is an N-long slice of one base
    vector on the 2N points -2B + h m, and the weight is their min over
    axes (the estimators module docstring gives the exactness argument);
    other cubes, cubes finer than the grid or past its domain take
    rho_values.
    """
    n, h, side = grid.samples, grid.spacing, 2.0 ** level
    cells = side / h
    y = -2.0 * grid.half_width + h * np.arange(2 * n)
    base = np.maximum(1.0, 0.5 + np.abs(y - 0.5 * side) / side) ** (-exponent)
    base.flags.writeable = False

    def weight(cube):
        starts = [n // 2 - k * int(cells) for k in cube.index]
        if (cube.level != level or cells < 1.0 or not cells.is_integer()
                or not all(0 <= m0 <= n for m0 in starts)):
            return rho_values(grid, cube) ** (-exponent)
        out = None
        for ax, m0 in enumerate(starts):
            piece = base[m0:m0 + n].reshape([n if a == ax else 1 for a in range(grid.dim)])
            out = piece if out is None else np.minimum(out, piece)
        return out

    return weight


@dataclass
class WeightField:
    """rho_I^{-beta} sampled on the grid; values in (0, 1]."""

    grid: TorusGrid
    cube: DyadicCube
    beta: float
    values: np.ndarray = dc_field(default=None)

    def __post_init__(self):
        if self.beta <= 0:
            raise ValidationError("weight exponent must be positive")
        if self.values is None:
            self.values = rho_values(self.grid, self.cube) ** (-self.beta)
        self.values.flags.writeable = False


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
        if p == inf:
            norms[p] = float(np.max(weighted))
        elif p <= 0:
            raise ValidationError("p must be positive or inf")
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


def weighted_lp_norm(a, weight=None, p=2.0):
    """(h^d sum |w a|^p)^(1/p), or the grid max for p = inf."""
    w = weight.values if isinstance(weight, WeightField) else weight
    return lp_norms(np.abs(a.values), a.grid.spacing ** a.grid.dim, (p,), w)[p]


# ---------------------------------------------------------------------------
# Indicators of cube families and the mollified indicator.

def cube_mask(grid, cubes):
    """Boolean mask of a union of disjoint dyadic cubes (exact rasterization)."""
    mask = np.zeros(grid.shape, dtype=bool)
    for cube in cubes:
        mask[grid.cube_slices(cube)] = True
    return mask


def indicator_field(grid, cubes):
    return SampledField(grid, cube_mask(grid, cubes).astype(np.complex128))


def collar_mask(grid, e_cubes, fine_level):
    """Mask of the union of level-`fine_level` cells at mollified distance
    at most 2 from the union of `e_cubes` (cells two fine units out)."""
    mask = np.zeros(grid.shape, dtype=bool)
    cells_per_fine = 2.0 ** fine_level / grid.spacing
    if cells_per_fine < 1.0 - 1e-12:
        raise ResolutionError(
            f"fine level {fine_level} cells are below the grid spacing",
            required_samples=int(2 * grid.half_width / 2.0 ** fine_level))
    c = int(round(cells_per_fine))
    n = grid.samples
    for cube in e_cubes:
        s = cube.level - fine_level
        if s < 0:
            raise ValidationError("collar cells must be finer than the cube level")
        sl = []
        for k in cube.index:
            lo_fine, hi_fine = (k << s) - 2, ((k + 1) << s) + 2
            lo = lo_fine * c + n // 2
            hi = hi_fine * c + n // 2
            if not (0 <= lo and hi <= n):
                raise ValidationError("collar escapes the grid domain")
            sl.append(slice(lo, hi))
        mask[tuple(sl)] = True
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
    fine = j - m - 3
    if grid.spacing > 2.0 ** fine + 1e-15:
        need = int(2 * grid.half_width / 2.0 ** fine)
        raise ResolutionError(
            f"grid spacing {grid.spacing} cannot resolve level-{fine} collar cells; "
            f"need at least N={need}", required_samples=need)
    mask = collar_mask(grid, e_cubes, fine)
    ind = SampledField(grid, mask.astype(np.complex128))
    k_field = kappa.field if hasattr(kappa, "field") else kappa
    return convolve(ind, k_field)


# ---------------------------------------------------------------------------
# Conditional expectation onto a dyadic partition (exact grid means).

def cond_expectation(f, partition):
    """Projection of f onto functions constant on the partition cells,
    zero outside the root; cell averages are exact grid means."""
    out = np.zeros(f.grid.shape, dtype=np.complex128)
    for cell in partition.cells:
        sl = f.grid.cube_slices(cell)
        out[sl] = np.mean(f.values[sl])
    return SampledField(f.grid, out)


def cube_average(f, cube):
    """Exact grid mean of f over a dyadic cube."""
    sl = f.grid.cube_slices(cube)
    return complex(np.mean(f.values[sl]))


# ---------------------------------------------------------------------------
# Serialization: flat binary fields and CSV for small 1-d cases.

def save_field(a, path):
    header = struct.pack("<4sBBId?", _MAGIC, 1, a.grid.dim, a.grid.samples,
                         a.grid.half_width, True)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(a.values, dtype="<c16").tobytes())


def load_field(path):
    head_size = struct.calcsize("<4sBBId?")
    with open(path, "rb") as fh:
        magic, version, dim, samples, half_width, _ = struct.unpack(
            "<4sBBId?", fh.read(head_size))
        if magic != _MAGIC or version != 1:
            raise ValidationError(f"not a phaseproj field file: {path}")
        grid = TorusGrid(dim, half_width, samples)
        payload = fh.read()
    expected = grid.size * 16
    if len(payload) != expected:
        raise ValidationError(
            f"field file {path}: payload of {len(payload)} bytes, expected "
            f"{expected} ({grid.size} complex128 samples of 16 bytes)")
    data = np.frombuffer(payload, dtype="<c16").reshape(grid.shape)
    return SampledField(grid, data.copy())


def field_to_csv(a, path):
    if a.grid.dim != 1:
        raise ValidationError("CSV export only for 1-d fields")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "re", "im"])
        for x, v in zip(a.grid.axis_points, a.values):
            w.writerow([repr(float(x)), repr(float(v.real)), repr(float(v.imag))])
