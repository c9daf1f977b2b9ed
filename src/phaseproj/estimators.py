"""Size surrogate and empirical evaluation of the projection inequalities.

The scale-invariant size of f over the tree is approximated from below
by a finite dictionary surrogate: the supremum over a kernel class is
replaced by a maximum over normalized dictionary members.  All theorem
checks report the ratio lhs / rhs-without-constant; the proven constant
is existential, so ratios are tracked against frozen regression
baselines rather than asserted against an invented numeric bound.

Every per-cube table (size, Carleson, off-tree, Bernstein) is a reduction
over one primitive, `level_norms`: the weighted norms of each (cube,
kernel) pair at one level.  Its speed rests on two exact arguments, so
the tables equal, float for float, a direct evaluation with full-grid
weights rho_I ** -e:

- Dyadic translates.  Grid points -B + h n and cube centres (k + 1/2) 2^i
  are dyadic rationals, so each difference x - c_I is computed exactly,
  and within a level it recurs, shifted by a whole number of grid steps,
  among the differences y - c_0 of one 2N-point base vector y = -2B + h m.
  Applying max(1, 1/2 + |.| / s) ** -e to that vector once gives every
  cube's per-axis weights as slices of it (grid.level_weights).  rho_I is
  the max over axes, and max, +, / and ** -e are monotone, so rho_I ** -e
  is the min over axes of the slices; in d = 1 it is the slice itself.
- Clamping.  The off-tree right-hand side needs the peak of
  rho_J ** -alpha over the grid points of the root U.  That is a
  monotone function of the l-infinity distance to J's centre, and U's
  points form a product of axis grids, so the peak sits at the distance
  max over axes of (min over U's axis points of |u - c|).  The same
  ufuncs applied to that one distance give the full-grid maximum's float.
- Fan-out.  level_norms computes the kernel responses and each cube's
  weight itself and hands the cube's norms to a thread pool.  A task runs
  the same ufunc calls on the same inputs as a serial loop would (the
  weighted magnitudes, their powers, the sums and maxima of grid.lp_norms),
  writing only into a scratch array private to its worker, and the rows
  are consumed in submission order; so each float and every tie-break is
  the serial loop's, for any number of workers.

The Carleson terms are kept sorted by (level, index), which is the order
in which carleson_sum adds them; it stops at J's level and tests
ancestry with integer shifts.
"""

from __future__ import annotations

import csv
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field as dc_field
from itertools import product as iproduct
from math import inf

import numpy as np

from .cubes import DyadicCube
from .errors import InternalConsistencyError, ResolutionError
from .grid import (
    apply_multiplier,
    level_weights,
    lp_norms,
    mollified_distance,
    weighted_lp_norm,
)
from .kernels import DictionarySpec, build_dictionary


def _inv(p):
    return 0.0 if p == inf else 1.0 / p


def _conj_inv(p):
    """1/p' for the conjugate exponent."""
    return 1.0 - _inv(p)


_POOL = None                 # (executor, worker count), made on first use
_SCRATCH = threading.local()  # each worker's norm buffer


def _norm_pool():
    """The thread pool of the per-cube norms, one worker per CPU that the
    process may run on."""
    global _POOL
    if _POOL is None:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
        _POOL = (ThreadPoolExecutor(workers, thread_name_prefix="phaseproj-norms"),
                 workers)
    return _POOL


def norm_workers():
    """Number of threads that evaluate the per-cube norms."""
    return _norm_pool()[1]


def _cube_norms(weight, responses, shape, h_d, p_values):
    """One cube's rows, computed in the calling worker's own scratch."""
    scratch = getattr(_SCRATCH, "buffer", None)
    if scratch is None or scratch.shape != shape:
        scratch = _SCRATCH.buffer = np.empty(shape)
    return [(kernel_id, lp_norms(resp_mag, h_d, p_values, weight, scratch))
            for kernel_id, resp_mag in responses]


def level_norms(field, kernels, cubes, level, weight_exp, p_values):
    """Norms ||rho_I^{-weight_exp} |k * field| ||_p at one level.

    Yields (cube, [(kernel_id, {p: norm}) per kernel]) for each cube in
    the given order, kernels in dictionary order, so that callers keep
    their tie-breaking order.  The kernel responses and each cube's weight
    are computed here; the norms run on the pool, at most two cubes per
    worker ahead of the consumer.  Closing the generator early, or an
    error in a task, cancels the queued cubes and waits for the running
    ones.
    """
    grid = field.grid
    h_d = grid.spacing ** grid.dim
    responses = [(k.kernel_id, np.abs(apply_multiplier(field, k.multiplier).values))
                 for k in kernels]
    weight_of = level_weights(grid, level, weight_exp)
    pool, workers = _norm_pool()
    pending = deque()
    try:
        for cube in cubes:
            pending.append((cube, pool.submit(_cube_norms, weight_of(cube), responses,
                                              grid.shape, h_d, p_values)))
            if len(pending) >= 2 * workers:
                done, task = pending.popleft()
                yield done, task.result()
        while pending:
            done, task = pending.popleft()
            yield done, task.result()
    finally:
        for _, task in pending:
            task.cancel()
        wait([task for _, task in pending])


def _dictionary(grid, level, alpha, kind, dict_spec):
    return build_dictionary(grid, level, 4 * alpha, kind, dict_spec)


@dataclass
class SizeEstimate:
    """Dictionary surrogate for the size of f over the tree."""

    value: float
    witness: tuple          # (level, cube, kernel_id)
    alpha: float
    p: float
    m: int
    dict_spec_id: str
    per_level: dict = dc_field(default_factory=dict)

    def to_dict(self):
        level, cube, kernel_id = self.witness if self.witness else (None, None, None)
        return {
            "value": self.value,
            "witness_level": level,
            "witness_cube": cube.label() if cube else None,
            "witness_kernel": kernel_id,
            "alpha": self.alpha,
            "p": "inf" if self.p == inf else self.p,
            "m": self.m,
            "dict_spec": self.dict_spec_id,
            "per_level": {str(k): v for k, v in sorted(self.per_level.items())},
        }


@dataclass
class InequalityReport:
    inequality: str
    lhs: float
    rhs_without_constant: float
    ratio: float
    p: float
    context: dict = dc_field(default_factory=dict)
    per_scale: list = dc_field(default_factory=list)

    def to_dict(self):
        return {
            "inequality": self.inequality,
            "lhs": self.lhs,
            "rhs_without_constant": self.rhs_without_constant,
            "ratio": self.ratio,
            "p": "inf" if self.p == inf else self.p,
            "context": {k: str(v) for k, v in sorted(self.context.items())},
            "per_scale": self.per_scale,
        }


def _ratio(lhs, rhs):
    if rhs > 0:
        return lhs / rhs
    return 0.0 if lhs == 0 else inf


# ---------------------------------------------------------------------------
# Size estimate.

def estimate_S_multi(pin, alpha, p_values=(1.0, 2.0, inf), dict_spec=None):
    """{p: surrogate size}: max over tree levels i, tree cubes I at level
    i and dictionary kernels of 2^{-id/p} || rho_I^{-alpha} (phi * f) ||_p.

    Dictionaries are built two levels below the gap scale (class level
    i - m - 2), so the surrogate is a certified lower bound for the
    class supremum defining the size.
    """
    dict_spec = dict_spec or DictionarySpec()
    grid, tree, m = pin.grid, pin.tree, pin.cfg.gap_m
    d = grid.dim
    best = {p: (0.0, None) for p in p_values}
    per_level = {p: {} for p in p_values}
    for i in range(pin.cfg.j_min, 1):
        kernels = _dictionary(grid, i - m - 2, alpha, "phi", dict_spec)
        for cube, rows in level_norms(pin.f, kernels, tree.cubes(i), i, alpha, p_values):
            for kernel_id, norms in rows:
                for p in p_values:
                    term = 2.0 ** (-i * d * _inv(p)) * norms[p]
                    lvl = per_level[p]
                    lvl[i] = max(lvl.get(i, 0.0), term)
                    if term > best[p][0]:
                        best[p] = (term, (i, cube, kernel_id))
    return {
        p: SizeEstimate(value=best[p][0], witness=best[p][1], alpha=alpha, p=p,
                        m=m, dict_spec_id=dict_spec.spec_id,
                        per_level=per_level[p])
        for p in p_values
    }


def verify_witness(pin, est, dict_spec=None):
    """Re-evaluate the witness term; must reproduce the estimate."""
    if est.witness is None:
        return 0.0
    i, cube, kernel_id = est.witness
    kernels = _dictionary(pin.grid, i - est.m - 2, est.alpha, "phi",
                          dict_spec or DictionarySpec())
    kernel = next(k for k in kernels if k.kernel_id == kernel_id)
    _, rows = next(level_norms(pin.f, [kernel], [cube], i, est.alpha, (est.p,)))
    return 2.0 ** (-i * pin.grid.dim * _inv(est.p)) * rows[0][1][est.p]


# ---------------------------------------------------------------------------
# Eligibility and enumeration of evaluation cubes.

def offtree_eligible(tree, J):
    """A cube J qualifies for the off-tree inequality when no same-level
    neighbor (mollified distance <= 1) contains a tree cube.  Returns
    (eligible, violating neighbor or None)."""
    if J.level < tree.j_min:
        return True, None   # a neighbor finer than every leaf contains none
    for off in iproduct((-1, 0, 1), repeat=J.dim):
        neighbor = DyadicCube(J.level, tuple(k + o for k, o in zip(J.index, off)))
        if tree.contains_tree_element(neighbor):
            return False, neighbor
    return True, None


def root_peak_weight(grid, J, alpha):
    """max of rho_J ** -alpha over the grid points of the root U, equal
    to the full-grid maximum bit for bit: grid.mollified_distance runs on
    the one clamped distance (module docstring)."""
    root_axis = grid.axis_points[grid.cube_slices(DyadicCube(0, (0,) * J.dim))[0]]
    dist = max(np.min(np.abs(root_axis - c)) for c in J.center)
    peak = mollified_distance(np.array([dist]), J.side) ** (-alpha)
    return float(np.max(peak))


def window_cubes(dim, level):
    """The cubes at `level` that meet 9U, in index order."""
    span = 1 << (-level)
    return [DyadicCube(level, idx) for idx in iproduct(range(-4 * span, 5 * span), repeat=dim)]


def enumerate_window(dim, depth):
    """All dyadic cubes intersecting 9U with level >= -(depth + 2)."""
    return [c for level in range(0, -(depth + 3), -1) for c in window_cubes(dim, level)]


# ---------------------------------------------------------------------------
# Per-run estimator context: term tables shared across all J evaluations.

class EstimatorContext:
    """Precomputes the per-(level, cube) terms of both sum-type
    inequalities so that every evaluation cube J reduces to index
    arithmetic over the tables."""

    def __init__(self, pin, output, dict_spec=None, p_values=(1.0, 2.0, inf),
                 window_depth=None):
        self.pin = pin
        self.output = output
        self.grid = pin.grid
        self.tree = pin.tree
        self.m = pin.cfg.gap_m
        self.alpha = pin.cfg.alpha
        self.dict_spec = dict_spec or DictionarySpec()
        self.p_values = tuple(p_values)
        self.depth = window_depth if window_depth is not None else -pin.cfg.j_min
        self.d = self.grid.dim

        self.sizes = estimate_S_multi(pin, self.alpha, self.p_values, self.dict_spec)
        for p, est in self.sizes.items():
            value = verify_witness(pin, est, self.dict_spec)
            if value != est.value:
                raise InternalConsistencyError(
                    f"size witness {est.witness} at p={p} re-evaluates to "
                    f"{value!r}, not {est.value!r}")
        self._carleson_terms = self._build_carleson_terms()
        self._offtree_terms, self.offtree_floor = self._build_offtree_terms()

    def _level_maxima(self, field, level, kind, cubes):
        """Per cube at `level`: {p: max over the level's dictionary of the
        rho^{-3 alpha}-weighted norm}."""
        kernels = _dictionary(self.grid, level - self.m, self.alpha, kind, self.dict_spec)
        for cube, rows in level_norms(field, kernels, cubes, level, 3 * self.alpha,
                                      self.p_values):
            yield cube, {p: max([0.0] + [norms[p] for _, norms in rows])
                         for p in self.p_values}

    # -- carleson side -------------------------------------------------------

    def _build_carleson_terms(self):
        """{p: {(level, index): term}} over tree cubes, in sorted key order,
        which is the summation order of carleson_sum."""
        fg = self.pin.f - self.output.g
        terms = {p: {} for p in self.p_values}
        for i in range(self.pin.cfg.j_min, 1):
            for cube, best in self._level_maxima(fg, i, "phi", self.tree.cubes(i)):
                for p in self.p_values:
                    terms[p][(i, cube.index)] = (
                        2.0 ** (i * self.d * _conj_inv(p)) * best[p])
        return {p: dict(sorted(t.items())) for p, t in terms.items()}

    def carleson_sum(self, J, p):
        """Sum of the per-cube terms over tree cubes inside J against
        the size times |J|."""
        by_level = {}
        lhs = 0.0
        for (i, idx), value in self._carleson_terms[p].items():
            if i > J.level:
                break
            shift = J.level - i
            if all(k >> shift == kj for k, kj in zip(idx, J.index)):
                lhs += value
                by_level[i] = by_level.get(i, 0.0) + value
        rhs = self.sizes[p].value * 2.0 ** (J.level * self.d)
        per_scale = []
        cumulative = 0.0
        for i in sorted(by_level, reverse=True):
            cumulative += by_level[i]
            per_scale.append({"i": i, "term": by_level[i], "cumulative": cumulative})
        return InequalityReport(
            inequality="carleson", lhs=lhs, rhs_without_constant=rhs,
            ratio=_ratio(lhs, rhs), p=p,
            context={"J": J.label(), "m": self.m, "in_tree": self.tree.member(J)},
            per_scale=per_scale)

    # -- off-tree side ---------------------------------------------------------

    def _build_offtree_terms(self):
        """Tables idx -> term per level for the off-tree inequality.

        The level floor comes from the kernel bands: dictionaries at
        class level i - m need their annuli inside Nyquist.  Per-scale
        contributions below the floor are reported as truncated.
        """
        nyq_floor = 2 + self.m - int(math.floor(math.log2(self.grid.nyquist)))
        floor = max(-(self.depth + 2), nyq_floor)
        tables = {p: {} for p in self.p_values}
        for i in range(floor, 1):
            span = 1 << (-i)
            window_lo = -4 * span
            level_arrays = {p: np.zeros((9 * span,) * self.d) for p in self.p_values}
            tree_at_level = self.tree.slice_indices(i)
            cubes = [c for c in window_cubes(self.d, i) if c.index not in tree_at_level]
            for cube, best in self._level_maxima(self.output.g, i, "psi", cubes):
                pos = tuple(k - window_lo for k in cube.index)
                for p in self.p_values:
                    level_arrays[p][pos] = 2.0 ** (-i * self.d * _inv(p)) * best[p]
            for p in self.p_values:
                tables[p][i] = (window_lo, level_arrays[p])
        return tables, floor

    def offtree_geometry(self, J):
        """(violating neighbor or None, peak of rho_J^{-alpha} over U);
        the peak is None for an ineligible J."""
        eligible, violator = offtree_eligible(self.tree, J)
        if not eligible:
            return violator, None
        return None, root_peak_weight(self.grid, J, self.alpha)

    def offtree_sum(self, J, p, geometry=None):
        """Scale sum of suprema over off-tree cubes inside J against the
        size times the peak of rho_J^{-alpha} over the root.  `geometry`
        is offtree_geometry(J), computed here when not given."""
        violator, rhs_weight = geometry or self.offtree_geometry(J)
        if violator is not None:
            return InequalityReport(
                inequality="offtree", lhs=0.0, rhs_without_constant=0.0,
                ratio=0.0, p=p,
                context={"J": J.label(), "m": self.m, "skipped":
                         f"ineligible: neighbor {violator.label()} meets the tree"})
        lhs = 0.0
        per_scale = []
        for i in sorted(self._offtree_terms[p], reverse=True):
            if i > J.level:
                continue
            window_lo, table = self._offtree_terms[p][i]
            shift = J.level - i
            sl = tuple(
                slice(max((k << shift) - window_lo, 0),
                      max(((k + 1) << shift) - window_lo, 0))
                for k in J.index)
            block = table[sl]
            sup_i = float(np.max(block)) if block.size else 0.0
            lhs += sup_i
            per_scale.append({"i": i, "term": sup_i, "cumulative": lhs})
        rhs = self.sizes[p].value * rhs_weight
        return InequalityReport(
            inequality="offtree", lhs=lhs, rhs_without_constant=rhs,
            ratio=_ratio(lhs, rhs), p=p,
            context={"J": J.label(), "m": self.m,
                     "truncation_floor": self.offtree_floor},
            per_scale=per_scale)

    # -- norm side ----------------------------------------------------------------

    def norm_report(self, p):
        lhs = weighted_lp_norm(self.output.g, None, p)
        rhs = self.sizes[p].value
        context = {"m": self.m}
        if rhs == 0.0 and lhs > 0.0:
            context["anomaly"] = "size surrogate vanished for nonzero g"
        return InequalityReport(
            inequality="norm", lhs=lhs, rhs_without_constant=rhs,
            ratio=_ratio(lhs, rhs), p=p, context=context)

    # -- full evaluation -------------------------------------------------------------

    def evaluate_window(self):
        """Reports for every window cube: carleson for all, off-tree for
        the eligible ones, plus the norm bound."""
        reports = [self.norm_report(p) for p in self.p_values]
        for J in enumerate_window(self.d, self.depth):
            geometry = self.offtree_geometry(J)
            for p in self.p_values:
                reports.append(self.carleson_sum(J, p))
                rep = self.offtree_sum(J, p, geometry)
                if "skipped" not in rep.context:
                    reports.append(rep)
        return reports


# ---------------------------------------------------------------------------
# Comparison checks for the size across exponent pairs.

def prop_spq_checks(pin, alpha, p=2.0, q=inf, n_draws=100, seed=0,
                    dict_spec=None, m_range=(0, 1, 2, 3, 4)):
    """Per-kernel comparison inequalities between sizes at different
    exponents: a weighted Hoelder step (p <= q), log-convexity
    interpolation (q <= p), and the locally band-limited sup-vs-mean
    ratio tracked across the frequency gap."""
    dict_spec = dict_spec or DictionarySpec()
    grid, tree, m = pin.grid, pin.tree, pin.cfg.gap_m
    d = grid.dim
    rng = np.random.default_rng(seed)
    levels = list(range(pin.cfg.j_min, 1))

    draws = []
    for _ in range(n_draws):
        i = int(rng.choice(levels))
        cubes = tree.cubes(i)
        cube = cubes[int(rng.integers(len(cubes)))]
        kernels = _dictionary(grid, i - m - 2, alpha, "phi", dict_spec)
        kernel = kernels[int(rng.integers(len(kernels)))]
        draws.append((i, cube, kernel))

    gap = _inv(p) - _inv(q)
    norms = _draw_norms(pin, draws, alpha, (p, q, inf))
    if p < q:
        heavy = _draw_norms(pin, draws, alpha * (1 + gap), (p,))
    reports = []
    for i, cube, kernel in draws:
        key = (i, cube, kernel.kernel_id)
        u = norms[key]
        ctx = {"i": i, "I": cube.label(), "kernel": kernel.kernel_id, "m": m}
        if p < q:
            lhs = heavy[key][p]
            weight = level_weights(grid, i, alpha * gap)(cube)
            w_norm = lp_norms(weight, grid.spacing ** d, (1.0 / gap,))[1.0 / gap]
            rhs = w_norm * u[q]
            reports.append(InequalityReport(
                inequality="holder", lhs=lhs, rhs_without_constant=rhs,
                ratio=_ratio(lhs, rhs), p=p, context=dict(ctx, q=q)))
        if q <= p:
            share = 0.0 if p == inf else q / p
            rhs = (u[q] ** share) * (u[inf] ** (1.0 - share))
            reports.append(InequalityReport(
                inequality="logconvex", lhs=u[p], rhs_without_constant=rhs,
                ratio=_ratio(u[p], rhs), p=p, context=dict(ctx, q=q)))

    bern = bernstein_sweep(pin, alpha, dict_spec, m_range, draws)
    reports.extend(bern)
    return reports


def _draw_norms(pin, draws, weight_exp, p_values):
    """{(level, cube, kernel id): {p: norm}} of the rho^{-weight_exp}
    weighted responses of the drawn kernels on the drawn cubes, one
    level_norms call per level."""
    out = {}
    for i in sorted({i for i, _, _ in draws}):
        kernels = {k.kernel_id: k for ii, _, k in draws if ii == i}
        cubes = sorted({c for ii, c, _ in draws if ii == i})
        for cube, rows in level_norms(pin.f, list(kernels.values()), cubes, i,
                                      weight_exp, p_values):
            out.update(((i, cube, kernel_id), norms) for kernel_id, norms in rows)
    return out


def bernstein_sweep(pin, alpha, dict_spec, m_range, draws):
    """Sup-vs-mean ratios of weighted kernel responses across the gap.

    The tracked quantity divides out the expected 2^{d(m-i)} growth of
    the band radius, so its per-step log-increment stays well below
    d + 1/2.  A gap whose dictionary the grid cannot resolve ends the
    sweep with a skipped row."""
    d = pin.grid.dim
    reports = []
    levels = sorted({i for i, _, _ in draws})
    cubes_by_level = {i: sorted({c for ii, c, _ in draws if ii == i}) for i in levels}
    for m_val in m_range:
        worst = 0.0
        worst_ctx = None
        for i in levels:
            try:
                kernels = _dictionary(pin.grid, i - m_val - 2, alpha, "phi", dict_spec)
            except ResolutionError as exc:  # Nyquist refusal at large m
                reports.append(InequalityReport(
                    inequality="bernstein", lhs=0.0, rhs_without_constant=0.0,
                    ratio=0.0, p=inf,
                    context={"m": m_val, "skipped": str(exc)}))
                break
            for cube, rows in level_norms(pin.f, kernels, cubes_by_level[i], i, alpha,
                                          (1.0, inf)):
                for kernel_id, norms in rows:
                    sup, mean = norms[inf], norms[1.0]
                    if mean == 0.0:
                        continue
                    ratio = sup / (2.0 ** (d * (m_val - i)) * mean)
                    if ratio > worst:
                        worst = ratio
                        worst_ctx = {"i": i, "I": cube.label(), "kernel": kernel_id}
        else:
            reports.append(InequalityReport(
                inequality="bernstein", lhs=worst, rhs_without_constant=1.0,
                ratio=worst, p=inf, context=dict(worst_ctx or {}, m=m_val)))
    return reports


# ---------------------------------------------------------------------------
# Sweeps and the constant table.

@dataclass
class ConstantTable:
    """Headline ratios across a sweep, grouped for uniformity metrics."""

    rows: list = dc_field(default_factory=list)

    def add(self, inequality, p, seed, m, ratio):
        self.rows.append({"inequality": inequality, "p": p, "seed": seed,
                          "m": m, "ratio": ratio})

    def uniformity(self):
        """max/min of the ratio over m, per (inequality, p, seed)."""
        groups = {}
        for row in self.rows:
            key = (row["inequality"], row["p"], row["seed"])
            groups.setdefault(key, []).append(row["ratio"])
        out = []
        for key in sorted(groups):
            ratios = [r for r in groups[key] if r > 0]
            if not ratios:
                continue
            out.append({
                "inequality": key[0], "p": key[1], "seed": key[2],
                "max_ratio": max(ratios), "min_ratio": min(ratios),
                "uniformity": max(ratios) / min(ratios),
            })
        return out

    def max_ratio(self, inequality):
        vals = [r["ratio"] for r in self.rows
                if r["inequality"] == inequality and np.isfinite(r["ratio"])]
        return max(vals) if vals else 0.0

    def to_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.DictWriter(fh, fieldnames=["inequality", "p", "seed", "m", "ratio"])
            w.writeheader()
            for row in self.rows:
                w.writerow({**row, "p": "inf" if row["p"] == inf else row["p"],
                            "ratio": repr(row["ratio"])})
