"""Size surrogate and empirical evaluation of the projection inequalities.

The scale-invariant size of f over the tree is approximated from below
by a finite dictionary surrogate: the supremum over a kernel class is
replaced by a maximum over normalized dictionary members.  All theorem
checks report the ratio lhs / rhs-without-constant; the proven constant
is existential, so ratios are tracked against frozen regression
baselines rather than asserted against an invented numeric bound.

An inequality report has one format, its report.json row (_report): a
dict of inequality, lhs, rhs_without_constant, ratio, p ("inf" or the
float), context (sorted keys, each value a string) and per_scale.
carleson_sum, offtree_sum, norm_report and bernstein_sweep return rows,
and evaluate_window builds the window's rows in the order report.json
holds them: by inequality, then by p by p_name, then by J by label.

Every per-cube table rests on the weighted norms of (cube, kernel) pairs
at one level.  The size table, its witness and the Bernstein sweep need
each pair's norms and take them from `level_norms`; the Carleson and
off-tree tables keep only each cube's largest norm per p and take it from
`level_maxima`, which prunes the norms that cannot be that largest.  The
speed of both rests on exact arguments, so the tables equal, float for
float, a direct evaluation of every norm with full-grid weights rho_I ** -e:

- Dyadic translates.  B and h are powers of two (TorusGrid), so grid
  points -B + h n and cube centres (k + 1/2) 2^i are dyadic rationals,
  each difference x - c_I is exact, and a side 2^i >= h is whole grid
  steps: within a level x - c_I recurs, shifted by whole steps, among
  the differences y - c_0 of one 2N-point base vector y = -2B + h m.
  Applying max(1, 1/2 + |.| / s) ** -e to that vector once gives every
  cube's per-axis weights as slices of it.  rho_I is the max over axes,
  and max, +, / and ** -e are monotone, so rho_I ** -e is the min over
  axes of the slices.  min is exact, so grid.weight_table takes it once
  per level, at every d-tuple of base points, into a read-only table of
  (2N)^d floats (in d = 1 the base vector itself), and each cube's
  weight is a view of an N^d block of it, starting at a whole number of
  cells (grid.weight_origin).
- Clamping.  The off-tree right-hand side needs the peak of
  rho_J ** -alpha over the grid points of the root U.  That is a
  monotone function of the l-infinity distance to J's centre, and U's
  points form a product of axis grids, so the peak sits at the distance
  max over axes of (min over U's axis points of |u - c|).  U's axis
  points are 0, h, ..., 1 - h, so the nearest one to c is the nearest
  grid point round(c / h) h clamped into [0, 1 - h] (root_distance).  c
  and h are dyadic, so each step is exact and the distance is the float
  of a scan over the axis.  The same ufuncs applied to that one distance
  give the full-grid maximum's float.
- Pruning.  level_maxima answers p = inf with one product per cube: the
  pointwise max M of the level's responses m_k, weighted.  Rounding w m
  is monotone in m for w >= 0, so max_k fl(w m_k) = fl(w max_k m_k), and
  the max over the grid of fl(w M) is the largest p = inf norm, bit for
  bit.  For finite p >= 1 each response's max M_kb over aligned blocks b
  of BOUND_BLOCK^d grid points is taken, and per level the sums of w^p
  over every block of that size whose start is a whole number of cells,
  so every cube's weight view splits into such blocks.  Since
  w m_k <= w M_kb on b, the norm of kernel k is at most
  (h^d sum_b M_kb^p sum_{x in b} w(x)^p)^(1/p).  A cube takes the exact
  norms (grid.lp_norms, as level_norms) of its kernels largest bound
  first, and stops at the first kernel whose bound, widened by the
  relative margin BOUND_MARGIN = 1e-9, is below the largest norm taken:
  no kernel left can reach that norm.  The margin covers the rounding of
  both sides: each is a sum of at most N^d non-negative terms rounded a
  few times, which even in a naive order is off by less than
  N^d 2^-53 < 1.2e-10 of itself for the 2^20 points of the largest
  grids the suite runs, and the root (1/p <= 1) does not magnify it.
  Nothing is pruned for p < 1, nor while the largest norm taken is below
  2^(-1000/p), so that the p-th powers near the subnormal range, where
  rounding is absolute.  Kernels go in chunks of KERNEL_CHUNK, in
  dictionary order, and a cube's running max carries over from chunk to
  chunk, so a chunk prunes against the norms of every earlier one.  A
  chunk whose block maxima are not all finite takes every norm of its
  kernels at every p, p = inf included, and stays out of M.  Only a
  larger norm replaces the running max, so it keeps the first of equal
  norms and skips a nan, as max([0.0, ...]) does.
- Mirrors.  A real field's response to a complex sinc box equals, in
  exact arithmetic, its response to the box's mirror (kernels module
  docstring), the conjugate kernel.  So one rule, _distinct, drops from a
  real field's plan each kernel whose mirror comes before it in its
  level, and level_norms and level_maxima both read their plans through
  it: every table reads one response per mirror pair, the first
  member's.  Each table keeps the first of equal terms (a strict >), so
  the second member's equal norms could never win a row: the size
  witness is always a first member, and verify_witness re-evaluates it
  alone.
- Order.  Both run on the calling thread, level by level, the kernels in
  dictionary order.  Each kernel response |k * f| is one inverse FFT
  (irfftn for a real kernel on a real field, ifftn otherwise), written
  into a float buffer that the call reuses (grid.response_writer), and
  the norms of it are taken in one scratch array (grid.lp_norms).
  level_norms keeps one buffer; level_maxima writes a chunk of
  KERNEL_CHUNK responses into one set of buffers and raises every cube's
  running maxima by the chunk before it writes the next.  A level's
  arrays (buffers, scratch, M, weight table and views) die before the plan
  is pulled again, since the pull builds the next level's dictionary.

Each per-J answer reads tables that the context builds once per (p,
level) on first use, so evaluating the window rescans no term:

- carleson_sum reads the tree terms bucketed by their ancestor at J's
  level, each bucket in sorted (level, index) order, the summation order.
- offtree_sum reads, per table level, the maxima of the off-tree table
  over the cubes of J's level (np.maximum.reduceat over each axis), and
  max is exact.
- offtree_geometry looks J up in the level's set of ineligible indices,
  the cubes next to one that holds a leaf, and reads root_peak_weight
  once per (level, distance).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field
from itertools import product as iproduct
from math import inf

import numpy as np

from .cubes import DyadicCube
from .errors import InternalConsistencyError, ResolutionError
from .grid import (
    check_exponent,
    lp_norm,
    lp_norms,
    mollified_distance,
    response_writer,
    weight_origin,
    weight_table,
)
from .kernels import build_dictionary


def _inv(p):
    return 0.0 if p == inf else 1.0 / p


def _cube_weights(grid, level, weight_exp, cubes):
    """The level's weight table (grid.weight_table), each cube's origin in
    it (grid.weight_origin) and each cube's weight, the N^d view of the
    table at its origin (module docstring, Dyadic translates)."""
    table = weight_table(grid, level, weight_exp)
    origins = [weight_origin(grid, level, cube) for cube in cubes]
    return table, origins, [table[tuple(slice(s, s + grid.samples) for s in origin)]
                            for origin in origins]


def level_norms(field, plan, weight_exp, p_values):
    """Norms ||rho_I^{-weight_exp} |k * field| ||_p over a plan of levels
    (module docstring, Order).

    `plan` yields (level, kernels, cubes at that level).  Yields (cube,
    [(kernel_id, {p: norm}) per kernel]) for each cube in plan order,
    kernels in dictionary order, so that callers keep their tie-breaking
    order; on a real field without the kernels that _distinct drops
    (module docstring, Mirrors).
    """
    grid = field.grid
    h_d = grid.spacing ** grid.dim
    response, scratch = np.empty(grid.shape), np.empty(grid.shape)
    write = None
    for level, kernels, cubes in _distinct(field, plan):
        weights = _cube_weights(grid, level, weight_exp, cubes)[2]
        rows = []   # (id, its norms per cube) per kernel
        for kernel in kernels:
            if write is None:
                write = response_writer(field)
            write(kernel.multiplier, response, kernel.real)
            rows.append((kernel.kernel_id,
                         [lp_norms(response, h_d, p_values, weight, scratch) for weight in weights]))
        yield from ((cube, [(kernel_id, norms[c]) for kernel_id, norms in rows])
                    for c, cube in enumerate(cubes))


def _distinct(field, plan):
    """`plan` with, on a real field, each kernel whose mirror comes before
    it in its level left out (module docstring, Mirrors)."""
    for level, kernels, cubes in plan:
        if field.is_real:
            ids = [kernel.kernel_id for kernel in kernels]
            kernels = [kernel for k, kernel in enumerate(kernels) if kernel.mirror not in ids[:k]]
        yield level, kernels, cubes


# The pruned maxima (module docstring, Pruning): bounds over blocks of
# BOUND_BLOCK^d grid points, widened by the relative margin BOUND_MARGIN
# that covers the rounding of a bound and of a norm; the kernels of a level
# in chunks of KERNEL_CHUNK, so that at most one chunk of responses lives.
BOUND_BLOCK = 16
BOUND_MARGIN = 1e-9
KERNEL_CHUNK = 4


def _block_reduce(array, size, ufunc):
    """ufunc over each aligned block of size^d entries of `array`."""
    shape = [s for n in array.shape for s in (n // size, size)]
    return ufunc.reduce(array.reshape(shape), axis=tuple(range(1, 2 * array.ndim, 2)))


def _block_maxima(array, size):
    """The max over each aligned block of size^d entries of `array`, per
    axis the max of its `size` strided views; max is exact, so this is
    _block_reduce with np.maximum, float for float, without its reduce
    over a short contiguous axis."""
    for ax in range(array.ndim):
        array = functools.reduce(np.maximum, (array[(slice(None),) * ax + (slice(j, None, size),)]
                                              for j in range(size)))
    return array


def _window_sums(sums, run):
    """Per axis, the sums of `run` consecutive entries of `sums`, from each
    entry on."""
    for ax in range(sums.ndim):
        count = sums.shape[ax] - run + 1
        sums = functools.reduce(np.add, (np.take(sums, range(j, j + count), axis=ax)
                                         for j in range(run)))
    return sums


def _power_sums(table, grain, p):
    """The sums of table ** p over its aligned blocks of grain^d entries,
    taken a slab of about 2^14 entries at a time, so that no power of the
    whole table is held."""
    rows = max(grain, (1 << 14) // (table.size // len(table)) // grain * grain)
    return np.concatenate([_block_reduce(table[i:i + rows] ** p, grain, np.add)
                           for i in range(0, len(table), rows)])


def _bounded(p_values):
    """The p that get bounds: below p = 1 the root would magnify the
    rounding past the margin."""
    return [p for p in p_values if 1.0 <= p < inf]


def _block_sums(grid, level, table, origins, p_values):
    """Per cube of the given weight origins, {p: the sums of the weight
    table to the p over the cube's aligned blocks of BOUND_BLOCK^d
    points}, for each bounded p."""
    n, cells = grid.samples, grid.cells(level)
    size = min(BOUND_BLOCK, n)
    # each cube's weight starts a whole number of cells into the table:
    # sums over blocks of min(cells, size) points, then over runs of them
    grain, run = min(cells, size), max(size // cells, 1)
    windows = {p: _window_sums(_power_sums(table, grain, p), run) for p in _bounded(p_values)}
    return [{p: window[tuple(slice(s // grain, s // grain + (n // size) * run, run)
                             for s in origin)]
             for p, window in windows.items()} for origin in origins]


def _block_powers(responses, p_values):
    """{p: powers[k, b] = M_kb^p} of the responses' maxima M_kb over their
    aligned blocks of BOUND_BLOCK^d points, for each bounded p; None if a
    block maximum is not finite."""
    n = responses[0].shape[0]
    size = min(BOUND_BLOCK, n)
    peaks = np.array([_block_maxima(response, size).ravel() for response in responses])
    if not np.isfinite(peaks).all():
        return None
    return {p: peaks ** p for p in _bounded(p_values)}


def _bounds(powers, cube_sums, h_d):
    """{p: per kernel, the bound (h^d sum_b M_kb^p sum_{x in b} w^p)^(1/p)
    on its norm} of one cube, from powers[p][k, b] = M_kb^p and the sums
    of w^p over the cube's blocks; +inf where inf * 0 leaves no bound."""
    bounds = {}
    for p, power in powers.items():
        bound = (h_d * (power @ cube_sums[p].ravel())) ** (1.0 / p)
        bound[np.isnan(bound)] = inf
        bounds[p] = bound
    return bounds


def _raise_maxima(best, responses, peak, bounds, weight, h_d, scratch):
    """Raise the running maxima {p: largest norm so far} of one cube by
    the kernels of one chunk (module docstring, Pruning).  Each p that
    `bounds` holds takes the norms of the kernels whose bound reaches the
    running max, largest bound first; every other finite p takes every
    kernel's norm, and so does p = inf where `bounds` is None, for a chunk
    whose block maxima are not all finite.  Otherwise p = inf takes one
    product with `peak`, the pointwise max of every response of the level
    in a chunk with bounds, given to the level's last chunk alone.  Only
    a larger norm replaces the max, so a nan never does."""
    if peak is not None and inf in best:
        norm = lp_norms(peak, h_d, (inf,), weight, scratch)[inf]
        if norm > best[inf]:
            best[inf] = norm
    taken = [p for p in best if bounds is None or p != inf]
    norms = {}   # kernel index -> its norms at every p taken
    for p in taken:
        bound = (bounds or {}).get(p)
        order = range(len(responses)) if bound is None else np.argsort(-bound, kind="stable")
        top = best[p]
        for k in order:
            if (bound is not None and bound[k] * (1.0 + BOUND_MARGIN) < top
                    and top >= 2.0 ** (-1000.0 / p)):
                break
            if k not in norms:
                norms[k] = lp_norms(responses[k], h_d, taken, weight, scratch)
            if norms[k][p] > top:
                top = norms[k][p]
        best[p] = top


def _cube_maxima(field, writer, level, kernels, cubes, weight_exp, p_values):
    """{p: the max over `kernels` of the cube's norm} of each cube of one
    level (module docstring, Pruning): the kernels' responses chunk by
    chunk, with writer(), into one set of buffers, and each chunk raises
    every cube's running maxima in one scratch array.  The pointwise max
    of the responses goes to the last chunk.  Every array of the level
    dies with the call."""
    grid = field.grid
    h_d = grid.spacing ** grid.dim
    table, origins, weights = _cube_weights(grid, level, weight_exp, cubes)
    sums = _block_sums(grid, level, table, origins, p_values)
    maxima = [dict.fromkeys(p_values, 0.0) for _ in cubes]
    buffers, scratch, peak = [], np.empty(grid.shape), np.zeros(grid.shape)
    for start in range(0, len(kernels), KERNEL_CHUNK):
        group = kernels[start:start + KERNEL_CHUNK]
        buffers.extend(np.empty(grid.shape) for _ in range(len(group) - len(buffers)))
        chunk = [writer()(kernel.multiplier, out, kernel.real) for kernel, out in zip(group, buffers)]
        powers = _block_powers(chunk, p_values)
        if powers is not None:
            for response in chunk:
                np.maximum(peak, response, out=peak)
        last = peak if start + KERNEL_CHUNK >= len(kernels) else None
        for weight, cube_sums, best in zip(weights, sums, maxima):
            bounds = None if powers is None else _bounds(powers, cube_sums, h_d)
            _raise_maxima(best, chunk, last, bounds, weight, h_d, scratch)
    return maxima


def level_maxima(field, plan, weight_exp, p_values):
    """Per cube of a level_norms plan, (cube, {p: max over the level's
    kernels of ||rho_I^{-weight_exp} |k * field| ||_p}), 0.0 for a level
    without kernels: the max of the cube's level_norms row, float for
    float, with most of its norms pruned (module docstring, Pruning), and
    its plan read through _distinct, as level_norms reads it (Mirrors)."""
    for p in p_values:
        check_exponent(p)
    p_values = tuple(p_values)
    writer = functools.cache(lambda: response_writer(field))   # made with the first response
    return ((cube, best) for level, kernels, cubes in _distinct(field, plan)
            for cube, best in zip(cubes, _cube_maxima(field, writer, level, kernels, cubes,
                                                      weight_exp, p_values)))


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


def _ratio(lhs, rhs):
    if rhs > 0:
        return lhs / rhs
    return 0.0 if lhs == 0 else inf


def p_name(p):
    return "inf" if p == inf else ("1" if p == 1.0 else ("2" if p == 2.0 else str(p)))


def _context(values):
    """A report's context as its row holds it: sorted keys, each value as a
    string."""
    return {k: str(v) for k, v in sorted(values.items())}


def _report(inequality, lhs, rhs, p, context, per_scale=()):
    """An inequality report as its report.json row: the ratio lhs / rhs
    (_ratio), p as "inf" or the float, and the context as _context made
    it, which the rows of one cube at every p may share."""
    return {
        "inequality": inequality,
        "lhs": lhs,
        "rhs_without_constant": rhs,
        "ratio": _ratio(lhs, rhs),
        "p": "inf" if p == inf else p,
        "context": context,
        "per_scale": per_scale,
    }


# ---------------------------------------------------------------------------
# Size estimate.

def estimate_S_multi(tree, f, p_values, dict_spec):
    """{p: surrogate size}: max over tree levels i, tree cubes I at level
    i and dictionary kernels of 2^{-id/p} || rho_I^{-alpha} (phi * f) ||_p,
    alpha and the gap m the tree's.

    Dictionaries are built two levels below the gap scale (class level
    i - m - 2), so the surrogate is a certified lower bound for the
    class supremum defining the size.
    """
    m, alpha, d = tree.cfg.gap_m, tree.cfg.alpha, f.grid.dim
    best = {p: (0.0, None) for p in p_values}
    per_level = {p: {} for p in p_values}
    plan = ((i, _dictionary(f.grid, i - m - 2, alpha, "phi", dict_spec), tree.cubes(i))
            for i in tree.levels())
    for cube, rows in level_norms(f, plan, alpha, p_values):
        i = cube.level
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


def verify_witness(f, est, dict_spec):
    """Re-evaluate the witness term of f, the witness kernel's own
    response (module docstring, Mirrors); must reproduce the estimate."""
    if est.witness is None:
        return 0.0
    i, cube, kernel_id = est.witness
    kernels = _dictionary(f.grid, i - est.m - 2, est.alpha, "phi", dict_spec)
    witness = [k for k in kernels if k.kernel_id == kernel_id]
    _, [(_, norms)] = next(level_norms(f, [(i, witness, [cube])], est.alpha, (est.p,)))
    return 2.0 ** (-i * f.grid.dim * _inv(est.p)) * norms[est.p]


# ---------------------------------------------------------------------------
# Eligibility and enumeration of evaluation cubes.

def root_distance(grid, c):
    """min over the root U's grid points u on one axis of |u - c|, in
    closed form; the clamped distance from a point to U is its max over
    the axes (module docstring, Clamping)."""
    h = grid.spacing
    return abs(min(max(round(c / h) * h, 0.0), 1.0 - h) - c)


def root_peak_weight(dist, side, alpha):
    """max of rho_J ** -alpha over the grid points of the root U for a
    cube J of the given side whose centre lies at the clamped distance
    `dist` from U, equal to the full-grid maximum bit for bit:
    grid.mollified_distance runs on the one clamped distance."""
    peak = mollified_distance(np.array([dist]), side) ** (-alpha)
    return float(np.max(peak))


def window_cubes(dim, level):
    """The cubes at `level` that meet 9U, in index order."""
    span = 1 << (-level)
    return [DyadicCube(level, idx) for idx in iproduct(range(-4 * span, 5 * span), repeat=dim)]


def enumerate_window(dim, depth):
    """All dyadic cubes intersecting 9U with level >= -(depth + 2), made one
    at a time in label order.  A label is "level:k_1,...,k_d", and ':' sorts
    after every digit while ',' sorts before every digit and '-', so label
    order is the order of the strings f"{level}:", then of each index's
    string in turn."""
    for level in sorted(range(0, -(depth + 3), -1), key=lambda level: f"{level}:"):
        span = 1 << (-level)
        axis = sorted(range(-4 * span, 5 * span), key=str)
        for index in iproduct(axis, repeat=dim):
            yield DyadicCube(level, index)


# ---------------------------------------------------------------------------
# Per-run estimator context: term tables shared across all J evaluations.

class EstimatorContext:
    """Precomputes the per-(level, cube) terms of both sum-type
    inequalities so that every evaluation cube J reduces to index
    arithmetic over the tables."""

    def __init__(self, tree, f, g, dict_spec, p_values, window_depth):
        self.tree = tree
        self.g = g
        self.grid = f.grid
        self.m = tree.cfg.gap_m
        self.alpha = tree.cfg.alpha
        self.dict_spec = dict_spec
        self.p_values = tuple(p_values)
        self.depth = window_depth if window_depth is not None else -tree.j_min
        self.d = self.grid.dim
        self.grid.cells(-(self.depth + 2))   # the window's finest cubes

        self.sizes = estimate_S_multi(tree, f, self.p_values, self.dict_spec)
        for p, est in self.sizes.items():
            value = verify_witness(f, est, self.dict_spec)
            if value != est.value:
                raise InternalConsistencyError(
                    f"size witness {est.witness} at p={p} re-evaluates to "
                    f"{value!r}, not {est.value!r}")
        self._carleson_terms = self._build_carleson_terms(f)
        self._offtree_terms, self.offtree_floor = self._build_offtree_terms()
        # the per-J answers' tables, each built on first use: per (p, level)
        # the Carleson buckets and the off-tree block maxima, per level the
        # ineligible indices and per (level, distance) root_peak_weight
        self._carleson_buckets = {}
        self._block_maxima = {}
        self._ineligible = {}
        self._root_peaks = {}

    def _level_maxima(self, field, kind, levels):
        """Per cube of `levels`, (level, cubes at it) pairs: {p: max over
        the level's dictionary of the rho^{-3 alpha}-weighted norm}."""
        plan = ((level, _dictionary(self.grid, level - self.m, self.alpha, kind,
                                    self.dict_spec), cubes)
                for level, cubes in levels)
        return level_maxima(field, plan, 3 * self.alpha, self.p_values)

    # -- carleson side -------------------------------------------------------

    def _build_carleson_terms(self, f):
        """{p: {(level, index): term}} over tree cubes, in sorted key order,
        which is the summation order of carleson_sum."""
        fg = f - self.g
        terms = {p: {} for p in self.p_values}
        levels = ((i, self.tree.cubes(i)) for i in self.tree.levels())
        for cube, best in self._level_maxima(fg, "phi", levels):
            i = cube.level
            for p in self.p_values:
                terms[p][(i, cube.index)] = (
                    2.0 ** (i * self.d * (1.0 - _inv(p))) * best[p])  # |I|^(1/p')
        return {p: dict(sorted(t.items())) for p, t in terms.items()}

    def _carleson_bucket(self, p, level, index):
        """(level, term) of the tree cubes inside the level-`level` cube of
        the given index, in summation order: the terms bucketed by their
        ancestor at that level, once per (p, level)."""
        buckets = self._carleson_buckets.get((p, level))
        if buckets is None:
            buckets = self._carleson_buckets[p, level] = {}
            for (i, idx), value in self._carleson_terms[p].items():
                if i > level:
                    break
                shift = level - i
                buckets.setdefault(tuple(k >> shift for k in idx), []).append((i, value))
        return buckets.get(index, ())

    def carleson_sum(self, J, p, context=None):
        """Sum of the per-cube terms over tree cubes inside J against
        the size times |J|; `context`, if given, is the row's context
        (_carleson_context)."""
        by_level = {}
        lhs = 0.0
        for i, value in self._carleson_bucket(p, J.level, J.index):
            lhs += value
            by_level[i] = by_level.get(i, 0.0) + value
        rhs = self.sizes[p].value * 2.0 ** (J.level * self.d)
        per_scale = []
        cumulative = 0.0
        for i in sorted(by_level, reverse=True):
            cumulative += by_level[i]
            per_scale.append({"i": i, "term": by_level[i], "cumulative": cumulative})
        return _report("carleson", lhs, rhs, p, context or self._carleson_context(J), per_scale)

    def _carleson_context(self, J):
        return _context({"J": J.label(), "m": self.m, "in_tree": self.tree.member(J)})

    # -- off-tree side ---------------------------------------------------------

    def _build_offtree_terms(self):
        """Tables idx -> term per level for the off-tree inequality.

        The level floor comes from the kernel bands: dictionaries at
        class level i - m need their annuli inside Nyquist.  Per-scale
        contributions below the floor are reported as truncated.
        """
        nyq_floor = 2 + self.m - int(math.floor(math.log2(self.grid.nyquist)))
        floor = max(-(self.depth + 2), nyq_floor)
        levels = range(floor, 1)
        # per level: the window's lowest index and one entry per window cube
        tables = {p: {i: (-4 * (1 << -i), np.zeros((9 * (1 << -i),) * self.d))
                      for i in levels}
                  for p in self.p_values}
        off_tree = ((i, [c for c in window_cubes(self.d, i)
                         if c.index not in self.tree.slice_indices(i)])
                    for i in levels)
        for cube, best in self._level_maxima(self.g, "psi", off_tree):
            i = cube.level
            for p in self.p_values:
                window_lo, table = tables[p][i]
                table[tuple(k - window_lo for k in cube.index)] = (
                    2.0 ** (-i * self.d * _inv(p)) * best[p])
        return tables, floor

    def _ineligible_indices(self, level):
        """The indices of the level's cubes that have a same-level neighbor
        (mollified distance <= 1) holding a leaf, so containing a tree
        cube; built once per level from the cubes that hold a leaf."""
        ineligible = self._ineligible.get(level)
        if ineligible is None:
            holders = {leaf.ancestor(level).index for leaf in self.tree.cfg.leaves
                       if leaf.level <= level}
            ineligible = self._ineligible[level] = frozenset(
                tuple(k + o for k, o in zip(holder, off))
                for holder in holders for off in iproduct((-1, 0, 1), repeat=self.d))
        return ineligible

    def offtree_geometry(self, J):
        """The peak of rho_J^{-alpha} over U (module docstring, Clamping),
        or None for an ineligible J."""
        if J.index in self._ineligible_indices(J.level):
            return None
        key = (J.level, max(root_distance(self.grid, c) for c in J.center))
        if key not in self._root_peaks:
            self._root_peaks[key] = root_peak_weight(key[1], J.side, self.alpha)
        return self._root_peaks[key]

    def _offtree_block_maxima(self, p, level):
        """(i, k0, maxima) per table level i <= level, coarsest first,
        built once per (p, level): maxima[k - k0] is the max of the
        level-i table over the cells inside the level-`level` cube of index
        k, for each cube that meets the window.  np.maximum.reduceat takes
        it over each axis's runs of cells, so a cube at the window's edge
        takes its clipped block, as J's block is clipped; max is exact."""
        maxima = self._block_maxima.get((p, level))
        if maxima is None:
            maxima = self._block_maxima[p, level] = []
            for i in sorted(self._offtree_terms[p], reverse=True):
                if i > level:
                    continue
                window_lo, table = self._offtree_terms[p][i]
                cube_of = [(window_lo + c) >> (level - i) for c in range(table.shape[0])]
                starts = [c for c in range(table.shape[0])
                          if c == 0 or cube_of[c] != cube_of[c - 1]]
                for ax in range(self.d):
                    table = np.maximum.reduceat(table, starts, axis=ax)
                maxima.append((i, cube_of[0], table))
        return maxima

    def offtree_sum(self, J, p, rhs_weight, context=None):
        """Scale sum of suprema over off-tree cubes inside an eligible J
        against the size times rhs_weight, the peak of rho_J^{-alpha} over
        the root that offtree_geometry(J) gives; `context`, if given, is the
        row's context (_offtree_context)."""
        lhs = 0.0
        per_scale = []
        for i, first, maxima in self._offtree_block_maxima(p, J.level):
            at = tuple(k - first for k in J.index)
            # a cube that misses the window holds no cell: sup 0
            sup_i = float(maxima[at]) if all(0 <= a < len(maxima) for a in at) else 0.0
            lhs += sup_i
            per_scale.append({"i": i, "term": sup_i, "cumulative": lhs})
        rhs = self.sizes[p].value * rhs_weight
        return _report("offtree", lhs, rhs, p, context or self._offtree_context(J), per_scale)

    def _offtree_context(self, J):
        return _context({"J": J.label(), "m": self.m, "truncation_floor": self.offtree_floor})

    # -- norm side ----------------------------------------------------------------

    def norm_report(self, p):
        lhs = lp_norm(self.g, p)
        rhs = self.sizes[p].value
        context = {"m": self.m}
        if rhs == 0.0 and lhs > 0.0:
            context["anomaly"] = "size surrogate vanished for nonzero g"
        return _report("norm", lhs, rhs, p, _context(context))

    # -- full evaluation -------------------------------------------------------------

    def evaluate_window(self):
        """The window's report.json rows in report order (module
        docstring): the carleson rows of every window cube, the norm rows,
        then the off-tree rows of the cubes that offtree_geometry finds
        eligible.  The cubes are made once, one at a time, and
        each one's rows at every p share one context; the rows go into
        one list per (inequality, p) as they are made, so at its peak the
        call holds little more than its rows."""
        p_values = sorted(self.p_values, key=p_name)
        # the norm rows first, while their full-grid temporaries are the
        # only large arrays alive
        norms = [self.norm_report(p) for p in p_values]
        carleson, offtree = ({p: [] for p in p_values} for _ in range(2))
        for J in enumerate_window(self.d, self.depth):
            context = self._carleson_context(J)
            for p in p_values:
                carleson[p].append(self.carleson_sum(J, p, context))
            rhs_weight = self.offtree_geometry(J)
            if rhs_weight is not None:
                context = self._offtree_context(J)
                for p in p_values:
                    offtree[p].append(self.offtree_sum(J, p, rhs_weight, context))
        rows = [row for p in p_values for row in carleson.pop(p)]
        rows += norms
        rows.extend(row for p in p_values for row in offtree.pop(p))
        return rows


# ---------------------------------------------------------------------------
# The Bernstein (sup-vs-mean) comparison across the frequency gap.

def bernstein_sweep(tree, f, dict_spec):
    """Sup-vs-mean ratios of weighted kernel responses of f across the
    gaps m = 0..4, the worst over every tree cube and phi kernel of each
    gap, at the tree's alpha.

    The tracked quantity divides out the expected 2^{d(m-i)} growth of
    the band radius, so its per-step log-increment stays well below
    d + 1/2.  One report.json row (_report) per gap; a gap whose
    dictionary the grid cannot resolve gets a row with a "skipped"
    context."""
    d, alpha = f.grid.dim, tree.cfg.alpha
    reports = []
    for m_val in range(5):
        refusals = []
        worst = 0.0
        worst_ctx = None
        for cube, rows in level_norms(f, _bernstein_plan(tree, f.grid, m_val, dict_spec,
                                                         refusals),
                                      alpha, (1.0, inf)):
            i = cube.level
            for kernel_id, norms in rows:
                sup, mean = norms[inf], norms[1.0]
                if mean == 0.0:
                    continue
                ratio = sup / (2.0 ** (d * (m_val - i)) * mean)
                if ratio > worst:
                    worst = ratio
                    worst_ctx = {"i": i, "I": cube.label(), "kernel": kernel_id}
        if refusals:
            reports.append(_report("bernstein", 0.0, 0.0, inf,
                                   _context({"m": m_val, "skipped": refusals[0]})))
        else:
            reports.append(_report("bernstein", worst, 1.0, inf,
                                   _context(dict(worst_ctx or {}, m=m_val))))
    return reports


def _bernstein_plan(tree, grid, m_val, dict_spec, refusals):
    """The level_norms plan of one gap: each tree level with its phi
    dictionary, until the grid cannot resolve one; that refusal is
    appended to `refusals` and ends the plan."""
    for i in tree.levels():
        try:
            kernels = _dictionary(grid, i - m_val - 2, tree.cfg.alpha, "phi", dict_spec)
        except ResolutionError as exc:  # Nyquist refusal at large m
            refusals.append(exc)
            return
        yield i, kernels, tree.cubes(i)
