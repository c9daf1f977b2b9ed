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
  * g equals the telescoping route h + sum_n k_n,
  * f - g splits into low-pass, off-set annulus and correction parts.
Smoothness-dependent diagnostics (enforced in strict mode): the Leibniz
cross-check of each spectral derivative, the vanishing of g outside 5U,
and a finite-difference witness of the smoothness of G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from math import comb

import numpy as np

from .cubes import DyadicCube, expand_to_tree
from .errors import InternalConsistencyError, ResolutionError, ValidationError
from .grid import (
    SampledField,
    apply_multiplier,
    cube_mask,
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
    tau_multiplier,
)


@dataclass(frozen=True)
class ProjectionSettings:
    """Resolution policy and tolerances for a projection build.

    `mollifier_cell_fraction` sets the cutoff mollifier radius as a
    fraction of one collar cell 2^(j-m-3); anything below 1 preserves
    the exact plateau and support facts.  Strict mode additionally
    demands `min_samples_per_radius` grid samples per mollifier radius,
    which is what the smoothness-dependent tolerances below were
    calibrated against.
    """

    mollifier_cell_fraction: float = 1.0
    strict: bool = True
    min_samples_per_radius: int = 32
    leibniz_rel_tol: float = 1e-6
    support_rel_tol: float = 1e-8
    fd_rel_tol: float = 1e-4
    fd_min_samples_per_radius: int = 160
    keep_pieces: bool = True


@dataclass
class ProjectionInput:
    f: SampledField
    cfg: TreeConfig
    tree: TreeIndex
    grid: TorusGrid
    settings: ProjectionSettings


@dataclass
class PieceBundle:
    chi_s: SampledField
    sigma: SampledField
    big_g: SampledField
    g_piece: SampledField


@dataclass
class ProjectionOutput:
    g: SampledField
    chi: SampledField
    pieces: dict
    h_part: SampledField
    k_parts: list
    diagnostics: dict
    _builder: object = dc_field(default=None, repr=False, compare=False)


def mollifier_radius(j, m, settings=None):
    frac = (settings or ProjectionSettings()).mollifier_cell_fraction
    return frac * 2.0 ** (j - m - 3)


def resolution_check(cfg, grid, settings):
    """Pre-flight refusal if the grid cannot carry the construction.

    Hard tier: kernel bands inside Nyquist, collar cells and mollifier
    radii at least one grid cell.  Strict tier: enough samples across
    the finest mollifier radius for the smooth-route diagnostics.
    """
    j_min, m = cfg.j_min, cfg.gap_m
    band = 2.0 ** (2 + m - j_min)
    if band > grid.nyquist + 1e-12:
        need = _next_pow2(math.ceil(band * 4 * grid.half_width))
        raise ResolutionError(
            f"kernel band radius {band} exceeds Nyquist {grid.nyquist}; "
            f"need at least N={need}", required_samples=need)
    cell = 2.0 ** (j_min - m - 3)
    if grid.spacing > cell + 1e-15:
        need = _next_pow2(math.ceil(2 * grid.half_width / cell))
        raise ResolutionError(
            f"collar cells at level {j_min - m - 3} are below the grid spacing; "
            f"need at least N={need}", required_samples=need)
    radius = mollifier_radius(j_min, m, settings)
    min_samples = settings.min_samples_per_radius if settings.strict else 1.0
    if radius < min_samples * grid.spacing:
        need = _next_pow2(math.ceil(min_samples * 2 * grid.half_width / radius))
        raise ResolutionError(
            f"finest mollifier radius {radius} has fewer than {min_samples} "
            f"grid samples; need at least N={need}", required_samples=need)


def _next_pow2(n):
    return 1 << (max(int(n), 1) - 1).bit_length()


def projection_input(f, cfg, grid=None, settings=None):
    """Validate and bundle the inputs of a projection build."""
    grid = grid or f.grid
    if f.grid != grid:
        raise ValidationError("f does not live on the stated grid")
    if not cfg.normalized:
        raise ValidationError(
            "projection requires the normalized frame (root = unit cube at 0); "
            "use TreeConfig.normalize() and map f accordingly")
    settings = settings or ProjectionSettings()
    resolution_check(cfg, grid, settings)
    tree = expand_to_tree(cfg)
    return ProjectionInput(f=f, cfg=cfg, tree=tree, grid=grid, settings=settings)


class ProjectionBuilder:
    """Caches per-level kernels, cutoffs and filtered copies of f."""

    def __init__(self, pin):
        self.pin = pin
        self.grid = pin.grid
        self.tree = pin.tree
        self.m = pin.cfg.gap_m
        self.dim = pin.grid.dim
        self.j_min = pin.cfg.j_min
        self.settings = pin.settings
        self._chi = {}
        self._masks = {}
        self._inds = {}
        self._theta_f = {}
        self._psi_cone_f = {}
        self._psi_f = {}
        self._theta_mult = {}
        self.diagnostics = {"levels": {}, "wrap_flags": []}

    # -- cached primitives -------------------------------------------------

    def e_mask(self, j, k=1):
        key = (j, k)
        if key not in self._masks:
            self._masks[key] = cube_mask(self.grid, self.tree.cubes(j, k))
        return self._masks[key]

    def e_indicator(self, j):
        if j not in self._inds:
            self._inds[j] = SampledField(
                self.grid, self.e_mask(j, 1).astype(np.complex128))
        return self._inds[j]

    def chi_s(self, j):
        if j not in self._chi:
            radius = mollifier_radius(j, self.m, self.settings)
            kappa = build_mollifier(self.grid, radius)
            self._chi[j] = mollified_indicator(
                self.grid, self.tree.cubes(j, 1), j, self.m, kappa)
        return self._chi[j]

    def theta_mult(self, n, j):
        key = (n, j)
        if key not in self._theta_mult:
            handle = build_theta(self.grid, n, j - self.m)
            if handle.certificate.get("wrap_flag"):
                self.diagnostics["wrap_flags"].append(handle.kernel_id)
            self._theta_mult[key] = handle.multiplier
        return self._theta_mult[key]

    def theta_f(self, n, j):
        key = (n, j)
        if key not in self._theta_f:
            self._theta_f[key] = apply_multiplier(self.pin.f, self.theta_mult(n, j))
        return self._theta_f[key]

    def psi_cone_f(self, n, j):
        key = (n, j)
        if key not in self._psi_cone_f:
            mult = psi_cone_multiplier(self.grid, n, j - self.m)
            self._psi_cone_f[key] = apply_multiplier(self.pin.f, mult)
        return self._psi_cone_f[key]

    def psi_f(self, j):
        if j not in self._psi_f:
            mult = (tau_multiplier(self.grid, j - 1 - self.m)
                    - tau_multiplier(self.grid, j - self.m))
            self._psi_f[j] = apply_multiplier(self.pin.f, mult)
        return self._psi_f[j]

    def tau_f(self):
        handle = build_tau(self.grid, -self.m)
        if handle.certificate.get("wrap_flag"):
            self.diagnostics["wrap_flags"].append(handle.kernel_id)
        return apply_multiplier(self.pin.f, handle.multiplier)

    # -- per-scale pieces ----------------------------------------------------

    def sigma(self, n, j):
        """Correction factor times theta*f: vanishes on E_j^1, supported
        within the 2^(j-m-1)-collar (inside E_j^2)."""
        if j < self.j_min or j > 0:
            return zero_field(self.grid)
        return (self.chi_s(j) - self.e_indicator(j)) * self.theta_f(n, j)

    def big_g(self, n, j):
        """Smooth product chi_j (theta*f); identical to the masked route."""
        if j < self.j_min or j > 0:
            return zero_field(self.grid)
        tf = self.theta_f(n, j)
        smooth = self.chi_s(j) * tf
        ind = self.e_indicator(j)
        masked_route = ind * tf + (self.chi_s(j) - ind) * tf
        scale = max(smooth.max_abs(), 1e-300)
        err = np.max(np.abs(smooth.values - masked_route.values)) / scale
        if err > 1e-12:
            raise InternalConsistencyError(
                f"two routes to G differ by {err} at (n={n}, j={j})")
        self.diagnostics["levels"].setdefault((n, j), {})["big_g_route_err"] = float(err)
        return smooth

    def g_piece(self, n, j):
        """(d+1)-fold derivative of G along the cone axis, with a Leibniz
        cross-check quantifying product-differentiation aliasing."""
        if j < self.j_min or j > 0:
            return zero_field(self.grid)
        big_g = self.big_g(n, j)
        piece = partial_derivative(big_g, n, self.dim + 1)
        diag = self.diagnostics["levels"].setdefault((n, j), {})

        chi = self.chi_s(j)
        tf = self.theta_f(n, j)
        leib = None
        for k in range(self.dim + 2):
            dchi = partial_derivative(chi, n, k) if k else chi
            dtf = partial_derivative(tf, n, self.dim + 1 - k) if k <= self.dim else tf
            term = comb(self.dim + 1, k) * (dchi * dtf)
            leib = term if leib is None else leib + term
        scale = max(piece.max_abs(), 1e-300)
        leib_err = float(np.max(np.abs(piece.values - leib.values)) / scale)
        diag["leibniz_rel_err"] = leib_err
        if self.settings.strict and leib_err > self.settings.leibniz_rel_tol:
            raise ResolutionError(
                f"Leibniz cross-check failed at (n={n}, j={j}): {leib_err:.3e} "
                f"> {self.settings.leibniz_rel_tol}; increase N")

        radius = mollifier_radius(j, self.m, self.settings)
        if radius / self.grid.spacing >= self.settings.fd_min_samples_per_radius:
            fd = fd_derivative(big_g, n, self.dim + 1)
            fd_err = float(np.max(np.abs(piece.values - fd.values)) / scale)
            diag["fd_rel_err"] = fd_err
            if self.settings.strict and fd_err > self.settings.fd_rel_tol:
                raise ResolutionError(
                    f"finite-difference witness failed at (n={n}, j={j}): "
                    f"{fd_err:.3e} > {self.settings.fd_rel_tol}")

        sigma = self.sigma(n, j)
        smax = sigma.max_abs()
        tf_max = tf.max_abs()
        if smax > 0 and tf_max > 0:
            on_e = self.e_mask(j, 1)
            on_abs = float(np.max(np.abs(sigma.values[on_e]))) if on_e.any() else 0.0
            out_abs = float(np.max(np.abs(sigma.values[~self.e_mask(j, 2)])))
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

    # -- assembly -------------------------------------------------------------

    def nyquist_level(self):
        """Coarsest j with tau-hat at scale j-m identically 1 on the lattice."""
        xi_max = float(np.max(self.grid.freq_radius))
        j = self.m - math.ceil(math.log2(xi_max))
        while np.min(tau_multiplier(self.grid, j - self.m)) < 1.0:
            j -= 1
        return j

    def assemble(self):
        tau_f = self.tau_f()
        chi = self.chi_s(0)
        g = tau_f * chi
        pieces = {}
        for n in range(self.dim):
            for j in range(self.j_min, 1):
                piece = self.g_piece(n, j)
                g = g + piece
                if self.settings.keep_pieces:
                    pieces[(n, j)] = PieceBundle(
                        chi_s=self.chi_s(j), sigma=self.sigma(n, j),
                        big_g=self.big_g(n, j), g_piece=piece)
                else:
                    pieces[(n, j)] = piece

        h_part = tau_f * chi
        for j in range(self.j_min, 1):
            h_part = h_part + self.psi_f(j) * self.e_indicator(j)
        k_parts = []
        for n in range(self.dim):
            k_n = zero_field(self.grid)
            for j in range(self.j_min, 1):
                gp = pieces[(n, j)].g_piece if self.settings.keep_pieces else pieces[(n, j)]
                k_n = k_n + (gp - self.psi_cone_f(n, j) * self.e_indicator(j))
            k_parts.append(k_n)

        two_route = h_part
        for k_n in k_parts:
            two_route = two_route + k_n
        scale = max(g.max_abs(), 1e-300)
        route_err = float(np.max(np.abs(g.values - two_route.values)) / scale)
        if route_err > 1e-10:
            raise InternalConsistencyError(
                f"direct and telescoping assemblies differ by {route_err}")

        outside_5u = ~cube_mask(
            self.grid, [DyadicCube(0, idx) for idx in _box_indices(self.dim, 2)])
        support_err = float(np.max(np.abs(g.values[outside_5u])) / scale) if scale > 0 else 0.0
        if self.settings.strict and support_err > self.settings.support_rel_tol:
            raise ResolutionError(
                f"g does not vanish outside 5U (rel {support_err:.3e}); increase N")

        diag = self.diagnostics
        diag["g_two_route_rel_err"] = route_err
        diag["support_5u_rel"] = support_err
        diag["chi_derivative_sup"] = self._chi_derivative_certificates(chi)
        diag["nyquist_level"] = self.nyquist_level()
        diag["strict"] = self.settings.strict
        out = ProjectionOutput(
            g=g, chi=chi, pieces=pieces, h_part=h_part, k_parts=k_parts,
            diagnostics=diag)
        out._builder = self
        return out

    def _chi_derivative_certificates(self, chi):
        """Sup norms of derivatives of chi against the 2^(m|l|) scaling."""
        out = {}
        for order in (1, self.dim + 1, 3 * self.dim + 3):
            d_chi = partial_derivative(chi, 0, order)
            out[f"order_{order}"] = float(
                d_chi.max_abs() / 2.0 ** (self.m * order))
        return out

    def residual_parts(self):
        """The three components of f - g: low-pass off-cutoff, annulus
        pieces off the rings, and the correction derivatives."""
        tau_f = self.tau_f()
        chi = self.chi_s(0)
        one = SampledField(self.grid, np.ones(self.grid.shape, dtype=np.complex128))
        comp_low = tau_f * (one - chi)
        comp_mid = zero_field(self.grid)
        for j in range(self.nyquist_level(), 1):
            psi_f = self.psi_f(j)
            if j >= self.j_min:
                comp_mid = comp_mid + psi_f * (one - self.e_indicator(j))
            else:
                comp_mid = comp_mid + psi_f
        comp_corr = zero_field(self.grid)
        for n in range(self.dim):
            for j in range(self.j_min, 1):
                comp_corr = comp_corr + (
                    self.g_piece(n, j) - self.psi_cone_f(n, j) * self.e_indicator(j))
        return comp_low, comp_mid, comp_corr


# ---------------------------------------------------------------------------
# Operation-style wrappers.

def assemble(pin):
    """Build the projection and verify its internal identities."""
    return ProjectionBuilder(pin).assemble()


def residual_decomposition(pin, output):
    """Split f - g into its three parts and verify the reconstruction."""
    builder = output._builder if output._builder is not None else ProjectionBuilder(pin)
    comp_low, comp_mid, comp_corr = builder.residual_parts()
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


def _box_indices(dim, radius):
    from itertools import product as iproduct
    return [tuple(t) for t in iproduct(range(-radius, radius + 1), repeat=dim)]
