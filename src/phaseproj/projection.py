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
E_j^k, the cutoffs chi_j with their derivative certificates, the Nyquist
level and the multipliers of theta_{n,j-m}, psi_{n,j-m}, psi_{j-m} and
tau_{-m} with their wrap flags -- depends on (grid, tree, m) only and
lives in a ProjectionFrame: built lazily, once, stored read-only, holding
no f.  Each multiplier is kept on its frequency band only
(grid.frequency_band), which apply_multiplier reads.  A caller
projecting many fields onto one tree (the modulation demo) passes one
frame to every `assemble`; without one each call builds a private frame.
The ProjectionBuilder holds one f: its pieces, each built once and
kept only in its memo, the filtered copies that more than one step reads, and every f-dependent
check above, run once per projection.  It appends each kernel's wrap
flag to its own diagnostics when it filters f through that kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from itertools import product
from math import comb

import numpy as np

from .cubes import DyadicCube, expand_to_tree
from .errors import InternalConsistencyError, ResolutionError, ValidationError
from .grid import (
    SampledField,
    apply_multiplier,
    cube_mask,
    fd_derivative,
    frequency_band,
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


@dataclass
class ProjectionInput:
    f: SampledField
    cfg: TreeConfig
    tree: TreeIndex
    grid: TorusGrid
    strict: bool


@dataclass
class ProjectionOutput:
    g: SampledField
    chi: SampledField
    diagnostics: dict
    _builder: ProjectionBuilder | None = dc_field(default=None, repr=False,
                                                  compare=False)


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


def projection_input(f, cfg, grid=None, strict=True):
    """Validate and bundle the inputs of a projection build; strict
    mode enforces the smoothness-dependent diagnostics."""
    grid = grid or f.grid
    if f.grid != grid:
        raise ValidationError("f does not live on the stated grid")
    resolution_check(cfg, grid, strict)
    tree = expand_to_tree(cfg)
    return ProjectionInput(f=f, cfg=cfg, tree=tree, grid=grid, strict=strict)


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
    """The f-independent half of a projection on one (grid, tree, strict):
    tree masks, cutoffs, kernel multipliers with their wrap flags, the
    Nyquist level and the chi derivative certificates, each built once
    and stored read-only.  The theta, tau, psi-cone and psi multipliers
    are kept on their frequency bands (grid.frequency_band): every value
    off the band is zero.  Holds no f and no spatial kernel field."""

    def __init__(self, grid, tree, strict=True):
        self.grid = grid
        self.tree = tree
        self.strict = strict
        self.m = tree.cfg.gap_m
        self._memo = {}

    @classmethod
    def for_input(cls, pin):
        return cls(pin.grid, pin.tree, pin.strict)

    def check(self, pin):
        if (self.grid != pin.grid or self.tree.cfg != pin.cfg
                or self.strict != pin.strict):
            raise ValidationError(
                "projection frame was built for another grid, tree or strictness")

    @_memo
    def e_mask(self, j, k):
        return _read_only(cube_mask(self.grid, self.tree.cubes(j, k)))

    @_memo
    def e_indicator(self, j):
        return SampledField(self.grid, self.e_mask(j, 1).astype(np.complex128))

    @_memo
    def chi_s(self, j):
        kappa = build_mollifier(self.grid, mollifier_radius(j, self.m))
        return mollified_indicator(self.grid, self.tree.cubes(j, 1), j, self.m, kappa)

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

    @_memo
    def psi_cone(self, n, j):
        return frequency_band(psi_cone_multiplier(self.grid, n, j - self.m))

    @_memo
    def psi(self, j):
        return frequency_band(psi_multiplier(self.grid, j - self.m))

    @_memo
    def nyquist_level(self):
        """Coarsest j with tau-hat at scale j-m identically 1 on the lattice."""
        xi_max = float(np.max(self.grid.freq_radius))
        j = self.m - math.ceil(math.log2(xi_max))
        while np.min(tau_multiplier(self.grid, j - self.m)) < 1.0:
            j -= 1
        return j

    @_memo
    def chi_certificates(self):
        """Sup norms of derivatives of chi_0 against the 2^(m|l|) scaling."""
        out = {}
        for order in (1, self.grid.dim + 1, 3 * self.grid.dim + 3):
            d_chi = partial_derivative(self.chi_s(0), 0, order)
            out[f"order_{order}"] = float(
                d_chi.max_abs() / 2.0 ** (self.m * order))
        return out


def _kernel_entry(handle):
    return (frequency_band(handle.multiplier), handle.kernel_id,
            handle.certificate["wrap_flag"])


class ProjectionBuilder:
    """Builds the pieces of one f over a frame, each once per instance,
    and runs every f-dependent check.

    Of the filtered copies of f only psi_j*f is memoized, because assemble
    and the residual split both read it.  theta*f is read only inside
    g_piece, which hands it to big_g and sigma, and psi_cone*f only
    inside correction; both are memoized methods, so each copy is still
    built once, and it is freed when that method returns."""

    def __init__(self, pin, frame=None):
        self.frame = frame or ProjectionFrame.for_input(pin)
        self.frame.check(pin)
        self.pin = pin
        self.grid = pin.grid
        self.m = pin.cfg.gap_m
        self.dim = pin.grid.dim
        self.j_min = pin.cfg.j_min
        self.strict = pin.strict
        self._memo = {}
        self.diagnostics = {"levels": {}, "wrap_flags": []}

    # -- filtered copies of f -------------------------------------------------
    # Only theta*f is differentiated; the other copies are only multiplied,
    # so they keep no spectrum (a full field each).

    def _filtered(self, entry, keep_spectrum):
        mult, kernel_id, wrap_flag = entry
        if wrap_flag:
            self.diagnostics["wrap_flags"].append(kernel_id)
        return apply_multiplier(self.pin.f, mult, keep_spectrum)

    def theta_f(self, n, j):
        return self._filtered(self.frame.theta(n, j), True)

    def psi_cone_f(self, n, j):
        return apply_multiplier(self.pin.f, self.frame.psi_cone(n, j), False)

    @_memo
    def psi_f(self, j):
        return apply_multiplier(self.pin.f, self.frame.psi(j), False)

    def tau_f(self):
        return self._filtered(self.frame.tau(), False)

    # -- per-scale pieces ----------------------------------------------------

    def sigma(self, j, tf):
        """Correction factor times tf = theta_f(n, j), for any n: vanishes
        on E_j^1, supported within the 2^(j-m-1)-collar (inside E_j^2);
        zero for j outside j_min..0, where the tree has no ring E_j^1."""
        fr = self.frame
        return (fr.chi_s(j) - fr.e_indicator(j)) * tf

    def big_g(self, n, j, tf):
        """Smooth product chi_j tf of tf = theta_f(n, j), checked against
        the masked route."""
        chi = self.frame.chi_s(j)
        smooth = chi * tf
        ind = self.frame.e_indicator(j)
        masked_route = ind * tf + (chi - ind) * tf
        scale = max(smooth.max_abs(), 1e-300)
        err = np.max(np.abs(smooth.values - masked_route.values)) / scale
        if err > 1e-12:
            raise InternalConsistencyError(
                f"two routes to G differ by {err} at (n={n}, j={j})")
        self.diagnostics["levels"].setdefault((n, j), {})["big_g_route_err"] = float(err)
        return smooth

    @_memo
    def g_piece(self, n, j):
        """(d+1)-fold derivative of G along the cone axis, with a Leibniz
        cross-check quantifying product-differentiation aliasing."""
        tf = self.theta_f(n, j)
        big_g = self.big_g(n, j, tf)
        piece = partial_derivative(big_g, n, self.dim + 1)
        diag = self.diagnostics["levels"].setdefault((n, j), {})

        chi = self.frame.chi_s(j)
        leib = None
        for k in range(self.dim + 2):
            dchi = partial_derivative(chi, n, k) if k else chi
            dtf = partial_derivative(tf, n, self.dim + 1 - k) if k <= self.dim else tf
            term = comb(self.dim + 1, k) * (dchi * dtf)
            leib = term if leib is None else leib + term
        scale = max(piece.max_abs(), 1e-300)
        leib_err = float(np.max(np.abs(piece.values - leib.values)) / scale)
        diag["leibniz_rel_err"] = leib_err
        if self.strict and leib_err > LEIBNIZ_REL_TOL:
            raise ResolutionError(
                f"Leibniz cross-check failed at (n={n}, j={j}): {leib_err:.3e} "
                f"> {LEIBNIZ_REL_TOL}; increase N")

        radius = mollifier_radius(j, self.m)
        if radius / self.grid.spacing >= FD_MIN_SAMPLES_PER_RADIUS:
            fd = fd_derivative(big_g, n, self.dim + 1)
            fd_err = float(np.max(np.abs(piece.values - fd.values)) / scale)
            diag["fd_rel_err"] = fd_err
            if self.strict and fd_err > FD_REL_TOL:
                raise ResolutionError(
                    f"finite-difference witness failed at (n={n}, j={j}): "
                    f"{fd_err:.3e} > {FD_REL_TOL}")

        sigma = self.sigma(j, tf)
        smax = sigma.max_abs()
        tf_max = tf.max_abs()
        if smax > 0 and tf_max > 0:
            on_e = self.frame.e_mask(j, 1)
            on_abs = float(np.max(np.abs(sigma.values[on_e]))) if on_e.any() else 0.0
            out_abs = float(np.max(np.abs(sigma.values[~self.frame.e_mask(j, 2)])))
            diag["sigma_on_e_rel"] = on_abs / smax
            diag["sigma_outside_e2_rel"] = out_abs / smax
            # floors guard against degenerate sigma much smaller than the
            # FFT-roundoff scale |theta*f|
            if on_abs > max(1e-9 * smax, 1e-12 * tf_max):
                raise InternalConsistencyError(
                    f"sigma does not vanish on E_{j}^1 (rel {on_abs / smax})")
            if out_abs > max(1e-12 * smax, 1e-13 * tf_max):
                raise InternalConsistencyError(
                    f"sigma escapes E_{j}^2 (rel {out_abs / smax})")
        return piece

    @_memo
    def correction(self):
        """Sum over (n, j) of g_piece - psi_cone*f 1_{E_j^1}: the last term
        of the telescoping route and the correction part of f - g."""
        corr = zero_field(self.grid)
        for n in range(self.dim):
            for j in range(self.j_min, 1):
                corr = corr + (self.g_piece(n, j)
                               - self.psi_cone_f(n, j) * self.frame.e_indicator(j))
        return corr

    # -- assembly -------------------------------------------------------------

    def assemble(self):
        fr = self.frame
        tau_f = self.tau_f()
        chi = fr.chi_s(0)
        g = tau_f * chi
        for n in range(self.dim):
            for j in range(self.j_min, 1):
                g = g + self.g_piece(n, j)

        # telescoping route: h = tau*f chi + sum_j psi_j*f 1_{E_j^1}, plus
        # the correction sum
        two_route = tau_f * chi
        for j in range(self.j_min, 1):
            two_route = two_route + self.psi_f(j) * fr.e_indicator(j)
        two_route = two_route + self.correction()
        scale = max(g.max_abs(), 1e-300)
        route_err = float(np.max(np.abs(g.values - two_route.values)) / scale)
        if route_err > 1e-10:
            raise InternalConsistencyError(
                f"direct and telescoping assemblies differ by {route_err}")

        outside_5u = fr.outside_5u()
        support_err = float(np.max(np.abs(g.values[outside_5u])) / scale) if scale > 0 else 0.0
        if self.strict and support_err > SUPPORT_REL_TOL:
            raise ResolutionError(
                f"g does not vanish outside 5U (rel {support_err:.3e}); increase N")

        diag = self.diagnostics
        diag["g_two_route_rel_err"] = route_err
        diag["support_5u_rel"] = support_err
        diag["chi_derivative_sup"] = dict(fr.chi_certificates())
        diag["nyquist_level"] = fr.nyquist_level()
        diag["strict"] = self.strict
        return ProjectionOutput(g=g, chi=chi, diagnostics=diag,
                                _builder=self)

    def residual_parts(self):
        """The three components of f - g: low-pass off-cutoff, annulus
        pieces off the rings, and the correction derivatives.  The annulus
        copies below j_min are read once and not kept."""
        fr = self.frame
        tau_f = self.tau_f()
        chi = fr.chi_s(0)
        one = SampledField(self.grid, np.ones(self.grid.shape, dtype=np.complex128))
        comp_low = tau_f * (one - chi)
        comp_mid = zero_field(self.grid)
        for j in range(fr.nyquist_level(), 1):
            if j >= self.j_min:
                comp_mid = comp_mid + self.psi_f(j) * (one - fr.e_indicator(j))
            else:
                comp_mid = comp_mid + apply_multiplier(
                    self.pin.f, psi_multiplier(self.grid, j - self.m), False)
        return comp_low, comp_mid, self.correction()


# ---------------------------------------------------------------------------
# Operation-style wrappers.

def assemble(pin, frame=None):
    """Build the projection and verify its internal identities.  A frame
    built for pin's grid, tree and strictness may be shared across
    calls; without one a private frame is built."""
    return ProjectionBuilder(pin, frame).assemble()


def residual_decomposition(pin, output):
    """Split f - g into its three parts and verify the reconstruction."""
    if output._builder is None:
        raise ValidationError("the projection output no longer holds its builder")
    comp_low, comp_mid, comp_corr = output._builder.residual_parts()
    recon = comp_low + comp_mid - comp_corr
    target = pin.f - output.g
    scale = max(pin.f.max_abs(), 1e-300)
    err = float(np.max(np.abs(recon.values - target.values)) / scale)
    if err > 1e-8:
        raise InternalConsistencyError(
            f"residual identity failed (rel {err}); telescoping depth "
            f"misconfigured or spectrum truncated")
    output.diagnostics["residual_rel_err"] = err
    return comp_low, comp_mid, comp_corr

