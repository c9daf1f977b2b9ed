"""Assembly of the frequency-localized projection over a stopping-time tree.

The projection g of a sampled function f is built scale by scale: at
each level j the tree's first ring E_j^1 carries a smooth cutoff chi_j
(a mollified indicator), the annulus piece of f at kernel scale j-m is
filtered through the one-variable antiderivative kernels theta_{n,j-m},
and the smooth products G_{n,j} = chi_j (theta_{n,j-m} * f) are
differentiated (d+1) times along their cone axis.  Summed over axes and
levels and completed by a low-pass term, these pieces compose g.

Exact discrete identities (checked on every build):
  * G_{n,j} = 1_{E_j^1} (theta*f) + sigma_{n,j} with
    sigma_{n,j} = (chi_j - 1_{E_j^1})(theta*f),
  * g equals the telescoping route h + correction sum,
  * f - g splits into low-pass, off-set annulus and correction parts.
Smoothness-dependent diagnostics (enforced in strict mode): the Leibniz
cross-check of each spectral derivative, the vanishing of g outside 5U,
and a finite-difference witness of the smoothness of G.

A build has two halves.  The stopping-time geometry -- the ring masks
E_j^k, the cutoffs chi_j with every derivative d_n^k chi_j that the
Leibniz check and the certificates read, the multipliers of
theta_{n,j-m}, psi_{n,j-m}, psi_{j-m} and tau_{-m}, and the wrap flags
of theta and tau, read off each kernel's spatial tail (_kernel_entry) --
depends on (grid, tree, m) only and lives in a ProjectionFrame: built
lazily, once, stored read-only, holding no f.  A ring E_j^1 has one
format, its bool mask: numpy casts it to 1.0 or 0.0 in each product, so
no indicator field is kept.  chi_j is kept without its spectrum, which
only its derivatives read.  Each multiplier is its kernel's frequency
band (grid.frequency_band), as the kernels module makes it, and
apply_multiplier reads it.  Every kernel of the projection is real (tau,
psi, the psi cones, theta, low_pass_complement and the spectral
derivatives), so a real f keeps real samples throughout: chi_j, its
derivatives, every piece, g and f - g are real fields and every
transform takes half spectra (grid module docstring); a complex f takes
the complex path.  The frame is the one
validated object per (tree config, grid, strict): its constructor runs
the resolution check and expands the tree, and a caller projecting many
fields onto one tree (the modulation demo) builds it once and passes it
to every `assemble`.
The ProjectionBuilder holds one f on the frame's grid: its pieces, each
built once and kept only in its memo, the filtered copies that more than
one step reads, and every f-dependent check above, run once per
projection; `assemble` returns it with g and the diagnostics set.
Below j_min the annulus pieces of f - g telescope (psi_j = tau_{j-1} -
tau_j): tau_{-m} + sum_{j_min..0} psi_{j-m} + (1 - tau_{j_min-1-m}) = 1
on the lattice, so the residual split filters f once through
1 - tau_{j_min-1-m} (low_pass_complement).
"""

from __future__ import annotations

import functools
from itertools import product
from math import comb

import numpy as np

from .cubes import DyadicCube, expand_to_tree
from .errors import InternalConsistencyError, ResolutionError, ValidationError
from .grid import (
    SampledField,
    apply_multiplier,
    cube_mask,
    embed_band,
    fd_derivative,
    mollified_indicator,
    partial_derivative,
    zero_field,
)
from .kernels import (
    build_mollifier,
    build_tau,
    build_theta,
    psi_cone_multiplier,
    psi_multiplier,
    tau_multiplier,
)


# The cutoff mollifier radius as a fraction of one collar cell
# 2^(j-m-3); anything below 1 preserves the exact plateau and support
# facts.
MOLLIFIER_CELL_FRACTION = 1.0
# Strict mode demands this many grid samples per mollifier radius, which
# is what the smoothness-dependent tolerances below were calibrated against.
MIN_SAMPLES_PER_RADIUS = 32
LEIBNIZ_REL_TOL = 1e-6
SUPPORT_REL_TOL = 1e-8
FD_REL_TOL = 1e-4
# The finite-difference witness runs only at this many samples per radius.
FD_MIN_SAMPLES_PER_RADIUS = 160


def mollifier_radius(j, m):
    return MOLLIFIER_CELL_FRACTION * 2.0 ** (j - m - 3)


def resolution_check(cfg, grid, strict):
    """Pre-flight refusal if the grid cannot carry the construction.

    Hard tier: kernel bands inside Nyquist, collar cells and mollifier
    radii at least one grid cell.  Strict tier: enough samples across
    the finest mollifier radius for the smooth-route diagnostics.
    """
    j_min, m = cfg.j_min, cfg.gap_m
    band = 2.0 ** (2 + m - j_min)
    if band > grid.nyquist + 1e-12:
        raise ResolutionError.needing(
            f"kernel band radius {band} exceeds Nyquist {grid.nyquist}",
            band * 4 * grid.half_width)
    cell = 2.0 ** (j_min - m - 3)
    if grid.spacing > cell + 1e-15:
        raise ResolutionError.needing(
            f"collar cells at level {j_min - m - 3} are below the grid spacing",
            2 * grid.half_width / cell)
    radius = mollifier_radius(j_min, m)
    min_samples = MIN_SAMPLES_PER_RADIUS if strict else 1.0
    if radius < min_samples * grid.spacing:
        raise ResolutionError.needing(
            f"finest mollifier radius {radius} has fewer than {min_samples} "
            f"grid samples", min_samples * 2 * grid.half_width / radius)


def _memo(method):
    """Cache a method's result on the instance, keyed by the method name
    and its arguments."""
    @functools.wraps(method)
    def cached(self, *args):
        key = (method.__name__, args)
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]
    return cached


def _read_only(array):
    array.flags.writeable = False
    return array


class ProjectionFrame:
    """The f-independent half of a projection on one (tree config, grid,
    strict), refused by resolution_check if the grid cannot carry it;
    strict mode enforces the smoothness-dependent diagnostics.  Holds the
    expanded tree and, each built once and stored read-only, its bool
    ring masks, the cutoffs chi_j with their derivatives d_n^k chi_j
    (n < d, 1 <= k <= d+1: d(d+1) full fields per level), the chi
    derivative certificates and the kernel multipliers with their wrap
    flags.  chi_j keeps no spectrum: a fresh transform of its values
    would give other floats than convolve's, so every derivative of chi_j
    is read from chi_derivative.  The theta, tau, psi-cone and psi
    multipliers are frequency bands (grid.frequency_band), the psi-cone
    ones held by psi_cone_multiplier's cache.  Holds no f and no spatial
    kernel field."""

    def __init__(self, cfg, grid, strict):
        resolution_check(cfg, grid, strict)
        self.tree = expand_to_tree(cfg)
        self.grid = grid
        self.strict = strict
        self.m = cfg.gap_m
        self.j_min = cfg.j_min
        self._memo = {}

    @_memo
    def e_mask(self, j, k):
        return _read_only(cube_mask(self.grid, self.tree.cubes(j, k)))

    @_memo
    def _chi_level(self, j):
        """(chi_j, {(n, k): d_n^k chi_j for n < d, 1 <= k <= d+1}, sup of
        d_0^(3d+3) chi_j at j = 0, else None).  Every derivative is taken
        once, from the spectrum that convolve leaves on chi_j, which is
        then dropped: chi_j is kept as a view of the same values."""
        d = self.grid.dim
        kappa = build_mollifier(self.grid, mollifier_radius(j, self.m))
        chi = mollified_indicator(self.grid, self.tree.cubes(j, 1), j, self.m, kappa)
        derivatives = {(n, k): partial_derivative(chi, n, k)
                       for n in range(d) for k in range(1, d + 2)}
        top = partial_derivative(chi, 0, 3 * d + 3).max_abs() if j == 0 else None
        return SampledField(self.grid, chi.values), derivatives, top

    def chi_s(self, j):
        return self._chi_level(j)[0]

    def chi_derivative(self, j, n, k):
        """d_n^k chi_j for 1 <= k <= d+1."""
        return self._chi_level(j)[1][n, k]

    @_memo
    def outside_5u(self):
        return _read_only(~cube_mask(self.grid, [
            DyadicCube(0, idx) for idx in product(range(-2, 3), repeat=self.grid.dim)]))

    @_memo
    def theta(self, n, j):
        """(multiplier, kernel id, wrap flag) of theta_{n,j-m}."""
        return _kernel_entry(build_theta(self.grid, n, j - self.m))

    @_memo
    def tau(self):
        """(multiplier, kernel id, wrap flag) of tau_{-m}."""
        return _kernel_entry(build_tau(self.grid, -self.m))

    def psi_cone(self, n, j):
        return psi_cone_multiplier(self.grid, n, j - self.m)

    @_memo
    def psi(self, j):
        return psi_multiplier(self.grid, j - self.m)

    def wrap_flags(self):
        """Ids of the tau and theta kernels (n-major, j = j_min..0) whose
        spatial tail wraps around the torus."""
        entries = [self.tau()] + [self.theta(n, j) for n in range(self.grid.dim)
                                  for j in range(self.j_min, 1)]
        return [kernel_id for _, kernel_id, wrap_flag in entries if wrap_flag]

    @_memo
    def chi_certificates(self):
        """Sup norms of derivatives of chi_0 against the 2^(m|l|) scaling."""
        d = self.grid.dim
        sups = {1: self.chi_derivative(0, 0, 1).max_abs(),
                d + 1: self.chi_derivative(0, 0, d + 1).max_abs(),
                3 * d + 3: self._chi_level(0)[2]}
        return {f"order_{order}": float(sup / 2.0 ** (self.m * order))
                for order, sup in sups.items()}


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


def _kernel_entry(handle):
    return handle.multiplier, handle.kernel_id, _tail_fraction(handle.field) > 1e-6


def low_pass_complement(grid, j_min, m):
    """1 - tau_{j_min-1-m}, the sum of psi_{j-m} over every j below
    j_min, on the full lattice."""
    return 1.0 - embed_band(tau_multiplier(grid, j_min - 1 - m), grid.shape)


class ProjectionBuilder:
    """Builds the pieces of one f over a frame, each once per instance,
    and runs every f-dependent check.  f must live on the frame's grid;
    grid, m, j_min and strictness are read from the frame.

    Of the filtered copies of f only psi_j*f is memoized, because assemble
    and the residual split both read it.  theta*f is read only inside
    g_piece, which hands it to big_g and sigma, and psi_cone*f only
    inside correction; both are memoized methods, so each copy is still
    built once, and it is freed when that method returns."""

    def __init__(self, frame, f):
        if f.grid != frame.grid:
            raise ValidationError("f does not live on the projection frame's grid")
        self.frame = frame
        self.f = f
        self._memo = {}
        self.diagnostics = {"levels": {}}

    # -- filtered copies of f -------------------------------------------------
    # Only theta*f is differentiated; the other copies are only multiplied,
    # so they keep no spectrum (a full field each).

    def theta_f(self, n, j):
        return apply_multiplier(self.f, self.frame.theta(n, j)[0], True, True)

    def psi_cone_f(self, n, j):
        return apply_multiplier(self.f, self.frame.psi_cone(n, j), False, True)

    @_memo
    def psi_f(self, j):
        return apply_multiplier(self.f, self.frame.psi(j), False, True)

    def tau_f(self):
        return apply_multiplier(self.f, self.frame.tau()[0], False, True)

    # -- per-scale pieces ----------------------------------------------------

    def sigma(self, j, tf):
        """Correction factor times tf = theta_f(n, j), for any n: vanishes
        on E_j^1, supported within the 2^(j-m-1)-collar (inside E_j^2);
        zero for j outside j_min..0, where the tree has no ring E_j^1."""
        fr = self.frame
        return SampledField(fr.grid, fr.chi_s(j).values - fr.e_mask(j, 1)) * tf

    def big_g(self, n, j, tf):
        """Smooth product chi_j tf of tf = theta_f(n, j), checked against
        the masked route."""
        smooth = self.frame.chi_s(j) * tf
        masked_route = tf * self.frame.e_mask(j, 1) + self.sigma(j, tf)
        scale = max(smooth.max_abs(), 1e-300)
        err = np.max(np.abs(smooth.values - masked_route.values)) / scale
        if not err <= 1e-12:   # a nan fails too
            raise InternalConsistencyError(
                f"two routes to G differ by {err} at (n={n}, j={j})")
        self.diagnostics["levels"].setdefault((n, j), {})["big_g_route_err"] = float(err)
        return smooth

    @_memo
    def g_piece(self, n, j):
        """(d+1)-fold derivative of G along the cone axis, with a Leibniz
        cross-check quantifying product-differentiation aliasing."""
        fr, d = self.frame, self.frame.grid.dim
        tf = self.theta_f(n, j)
        big_g = self.big_g(n, j, tf)
        piece = partial_derivative(big_g, n, d + 1)
        diag = self.diagnostics["levels"].setdefault((n, j), {})

        leib = None
        for k in range(d + 2):
            dchi = fr.chi_derivative(j, n, k) if k else fr.chi_s(j)
            dtf = partial_derivative(tf, n, d + 1 - k) if k <= d else tf
            term = comb(d + 1, k) * (dchi * dtf)
            leib = term if leib is None else leib + term
        scale = max(piece.max_abs(), 1e-300)
        leib_err = float(np.max(np.abs(piece.values - leib.values)) / scale)
        diag["leibniz_rel_err"] = leib_err
        if fr.strict and not leib_err <= LEIBNIZ_REL_TOL:
            raise ResolutionError(
                f"Leibniz cross-check failed at (n={n}, j={j}): {leib_err:.3e} "
                f"> {LEIBNIZ_REL_TOL}; increase N")

        radius = mollifier_radius(j, fr.m)
        if radius / fr.grid.spacing >= FD_MIN_SAMPLES_PER_RADIUS:
            fd = fd_derivative(big_g, n, d + 1)
            fd_err = float(np.max(np.abs(piece.values - fd.values)) / scale)
            diag["fd_rel_err"] = fd_err
            if fr.strict and not fd_err <= FD_REL_TOL:
                raise ResolutionError(
                    f"finite-difference witness failed at (n={n}, j={j}): "
                    f"{fd_err:.3e} > {FD_REL_TOL}")

        sigma = self.sigma(j, tf)
        smax = sigma.max_abs()
        tf_max = tf.max_abs()
        if smax > 0 and tf_max > 0:
            on_e = fr.e_mask(j, 1)
            on_abs = float(np.max(np.abs(sigma.values[on_e]))) if on_e.any() else 0.0
            out_abs = float(np.max(np.abs(sigma.values[~fr.e_mask(j, 2)])))
            diag["sigma_on_e_rel"] = on_abs / smax
            diag["sigma_outside_e2_rel"] = out_abs / smax
            # floors guard against degenerate sigma much smaller than the
            # FFT-roundoff scale |theta*f|
            if not on_abs <= max(1e-9 * smax, 1e-12 * tf_max):
                raise InternalConsistencyError(
                    f"sigma does not vanish on E_{j}^1 (rel {on_abs / smax})")
            if not out_abs <= max(1e-12 * smax, 1e-13 * tf_max):
                raise InternalConsistencyError(
                    f"sigma escapes E_{j}^2 (rel {out_abs / smax})")
        return piece

    @_memo
    def correction(self):
        """Sum over (n, j) of g_piece - psi_cone*f 1_{E_j^1}: the last term
        of the telescoping route and the correction part of f - g."""
        fr = self.frame
        corr = zero_field(fr.grid)
        for n in range(fr.grid.dim):
            for j in range(fr.j_min, 1):
                corr = corr + (self.g_piece(n, j) - self.psi_cone_f(n, j) * fr.e_mask(j, 1))
        return corr

    # -- assembly -------------------------------------------------------------

    def assemble(self):
        """Set g and the diagnostics; returns self."""
        fr = self.frame
        tau_f = self.tau_f()
        chi = fr.chi_s(0)
        g = tau_f * chi
        for n in range(fr.grid.dim):
            for j in range(fr.j_min, 1):
                g = g + self.g_piece(n, j)

        # telescoping route: h = tau*f chi + sum_j psi_j*f 1_{E_j^1}, plus
        # the correction sum
        two_route = tau_f * chi
        for j in range(fr.j_min, 1):
            two_route = two_route + self.psi_f(j) * fr.e_mask(j, 1)
        two_route = two_route + self.correction()
        # written `not err <= tol`, each check fails on a nan error too; the
        # support check comes first, so that it is the one to see a nan in g
        # outside 5U
        scale = max(g.max_abs(), 1e-300)
        support_err = float(np.max(np.abs(g.values[fr.outside_5u()])) / scale)
        if fr.strict and not support_err <= SUPPORT_REL_TOL:
            raise ResolutionError(
                f"g does not vanish outside 5U (rel {support_err:.3e}); increase N")
        route_err = float(np.max(np.abs(g.values - two_route.values)) / scale)
        if not route_err <= 1e-10:
            raise InternalConsistencyError(
                f"direct and telescoping assemblies differ by {route_err}")

        diag = self.diagnostics
        diag["wrap_flags"] = fr.wrap_flags()
        diag["g_two_route_rel_err"] = route_err
        diag["support_5u_rel"] = support_err
        diag["chi_derivative_sup"] = dict(fr.chi_certificates())
        diag["strict"] = fr.strict
        self.g = g
        return self

    def residual_parts(self):
        """The three components of f - g: low-pass off-cutoff, annulus
        pieces off the rings, and the correction derivatives.  The annulus
        pieces below j_min are one high-pass copy of f, not kept."""
        fr = self.frame
        comp_low = self.tau_f() * (1.0 - fr.chi_s(0).values)
        comp_mid = apply_multiplier(self.f, low_pass_complement(fr.grid, fr.j_min, fr.m),
                                    False, True)
        for j in range(fr.j_min, 1):
            comp_mid = comp_mid + self.psi_f(j) * ~fr.e_mask(j, 1)
        return comp_low, comp_mid, self.correction()


# ---------------------------------------------------------------------------
# Operation-style wrappers.

def assemble(frame, f):
    """Build the projection of f over the frame and verify its internal
    identities: the builder, with g and the diagnostics set."""
    return ProjectionBuilder(frame, f).assemble()


def residual_decomposition(builder):
    """Split f - g of an assembled builder into its three parts and
    verify the reconstruction."""
    comp_low, comp_mid, comp_corr = builder.residual_parts()
    recon = comp_low + comp_mid - comp_corr
    target = builder.f - builder.g
    scale = max(builder.f.max_abs(), 1e-300)
    err = float(np.max(np.abs(recon.values - target.values)) / scale)
    if not err <= 1e-8:   # a nan fails too
        raise InternalConsistencyError(
            f"residual identity failed (rel {err}); the low-pass, annulus and "
            f"correction parts do not add up to f - g")
    builder.diagnostics["residual_rel_err"] = err
    return comp_low, comp_mid, comp_corr

