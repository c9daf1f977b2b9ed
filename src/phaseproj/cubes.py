"""Dyadic cubes, mollified distances and stopping-time trees.

Cube geometry is exact: a cube is a (level, integer index) pair and all
set relations (containment, disjointness, dilated containment) are
computed with integer shifts, never with floats.  Mollified distances
use a closed form derived from the defining infimum; the derivation is
cross-checked against a bisection oracle in the test suite.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import InternalConsistencyError, ValidationError


def _as_index(index):
    if isinstance(index, (int, np.integer)):
        return (int(index),)
    return tuple(int(k) for k in index)


def _ceil_div(a, b):
    return -((-a) // b)


@dataclass(frozen=True, order=True)
class DyadicCube:
    """Half-open dyadic cube prod_n [2^level * k_n, 2^level * (k_n + 1))."""

    level: int
    index: tuple

    def __post_init__(self):
        object.__setattr__(self, "index", _as_index(self.index))

    @property
    def dim(self):
        return len(self.index)

    @property
    def side(self):
        return 2.0 ** self.level

    @property
    def center(self):
        return tuple((k + 0.5) * self.side for k in self.index)

    def lower(self):
        return tuple(k * self.side for k in self.index)

    def upper(self):
        return tuple((k + 1) * self.side for k in self.index)

    def parent(self):
        return DyadicCube(self.level + 1, tuple(k >> 1 for k in self.index))

    def ancestor(self, level):
        """The unique cube at `level` >= self.level containing this cube."""
        if level < self.level:
            raise ValidationError("ancestor level must be >= cube level")
        s = level - self.level
        return DyadicCube(level, tuple(k >> s for k in self.index))

    def children(self):
        return [
            DyadicCube(self.level - 1, tuple(2 * k + o for k, o in zip(self.index, off)))
            for off in product((0, 1), repeat=self.dim)
        ]

    def contains(self, other):
        """other is a subset of self (dyadic nesting, exact)."""
        if other.dim != self.dim or other.level > self.level:
            return False
        return other.ancestor(self.level) == self

    def dilated_contains(self, r, other):
        """other is a subset of r*self for odd integer r (exact)."""
        if r % 2 != 1 or r < 1:
            raise ValidationError("dilation factor must be an odd positive integer")
        half = (r - 1) // 2
        fine = min(self.level, other.level)
        s1, s2 = self.level - fine, other.level - fine
        for k, a in zip(self.index, other.index):
            lo, hi = (k - half) << s1, (k + 1 + half) << s1
            if not (lo <= (a << s2) and ((a + 1) << s2) <= hi):
                return False
        return True

    def disjoint(self, other):
        return not (self.contains(other) or other.contains(self))

    def label(self):
        return f"{self.level}:" + ",".join(str(k) for k in self.index)


def unit_cube(dim):
    return DyadicCube(0, (0,) * dim)


# ---------------------------------------------------------------------------
# Mollified distance rho_I: equal to 1 on I, growing linearly with the
# l-infinity distance to I measured in units of I's side.  Closed form:
#     rho_I(y) = max(1, 1/2 + |y - c|_inf / side)
# which equals inf{r > 1 : y in (2r-1) I}.

def rho_point(cube, y):
    """Mollified distance from cube to a point (closed form)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    c = np.asarray(cube.center)
    return max(1.0, 0.5 + float(np.max(np.abs(y - c))) / cube.side)


def rho_to_cube(cube, other):
    """Mollified distance from cube to the closure of another cube."""
    dist = 0.0
    for cs, co in zip(cube.center, other.center):
        dist = max(dist, abs(cs - co) - other.side / 2.0)
    return max(1.0, 0.5 + max(dist, 0.0) / cube.side)


def rho_set(cube, target):
    """Mollified distance from cube to a set.

    `target` is a sequence of DyadicCube or an (m, d) array of points;
    an empty target gives +inf (infimum over the empty set).
    """
    if isinstance(target, np.ndarray):
        if target.size == 0:
            return math.inf
        pts = target.reshape(-1, cube.dim)
        c = np.asarray(cube.center)
        dist = np.min(np.max(np.abs(pts - c), axis=1))
        return max(1.0, 0.5 + float(dist) / cube.side)
    target = list(target)
    if not target:
        return math.inf
    return min(rho_to_cube(cube, o) for o in target)


# ---------------------------------------------------------------------------
# Tree configuration and normalization.

@dataclass(frozen=True)
class CubeMap:
    """Dyadic dilation/translation taking the working frame to the
    normalized frame (root at level 0, index 0)."""

    level_shift: int            # original root level i0
    origin_index: tuple         # original root index

    def forward(self, cube):
        if cube.level > self.level_shift:
            raise ValidationError("cube coarser than the root cannot be normalized")
        s = self.level_shift - cube.level
        idx = tuple(k - (k0 << s) for k, k0 in zip(cube.index, self.origin_index))
        return DyadicCube(cube.level - self.level_shift, idx)

    def backward(self, cube):
        if cube.level > 0:
            raise ValidationError("normalized cube coarser than the unit root")
        s = -cube.level
        idx = tuple(k + (k0 << s) for k, k0 in zip(cube.index, self.origin_index))
        return DyadicCube(cube.level + self.level_shift, idx)


@dataclass(frozen=True)
class TreeConfig:
    """Root cube U, disjoint leaves M inside it, frequency gap m, exponent alpha."""

    root: DyadicCube
    leaves: tuple
    gap_m: int
    alpha: float

    def __post_init__(self):
        leaves = tuple(sorted(self.leaves))
        object.__setattr__(self, "leaves", leaves)
        if not leaves:
            raise ValidationError("leaf collection M must be non-empty")
        d = self.root.dim
        for leaf in leaves:
            if leaf.dim != d:
                raise ValidationError("leaf dimension differs from root dimension")
            if not self.root.contains(leaf):
                raise ValidationError(f"leaf {leaf.label()} not contained in the root")
        for i, a in enumerate(leaves):
            for b in leaves[i + 1:]:
                if not a.disjoint(b):
                    raise ValidationError(f"leaves {a.label()} and {b.label()} overlap")
        if self.gap_m < 0:
            raise ValidationError("frequency gap m must be >= 0")
        if not self.alpha > d:
            raise ValidationError("alpha must exceed the dimension")

    @property
    def dim(self):
        return self.root.dim

    @property
    def j_min(self):
        return min(leaf.level for leaf in self.leaves)

    @property
    def normalized(self):
        return self.root == unit_cube(self.dim)

    def normalize(self):
        """Return (normalized config, cube map original->normalized)."""
        cmap = CubeMap(self.root.level, self.root.index)
        if self.normalized:
            return self, cmap
        leaves = tuple(cmap.forward(leaf) for leaf in self.leaves)
        cfg = TreeConfig(unit_cube(self.dim), leaves, self.gap_m, self.alpha)
        return cfg, cmap


# ---------------------------------------------------------------------------
# Tree expansion: ancestors of the leaves, level slices, rings and shells.

class TreeIndex:
    """Level-sliced view of the stopping-time tree generated by a leaf set.

    Index sets live in the normalized frame; cube-returning accessors map
    back to the original frame through the stored CubeMap.
    """

    def __init__(self, cfg):
        cfg_n, cmap = cfg.normalize()
        self.cfg = cfg
        self.cfg_normalized = cfg_n
        self.cube_map = cmap
        self.dim = cfg_n.dim
        self._shift = cmap.level_shift
        self.j_min = cfg.j_min
        t0 = {j: set() for j in range(cfg_n.j_min, 1)}
        for leaf in cfg_n.leaves:
            for j in range(leaf.level, 1):
                t0[j].add(leaf.ancestor(j).index)
        self._t0 = {j: frozenset(v) for j, v in t0.items()}
        self._rings = {}

    # Public accessors speak the original frame; index sets are kept in
    # the normalized frame internally.

    def levels(self):
        return list(range(self.j_min, self._shift + 1))

    def slice_indices(self, j, k=0):
        """Normalized index set of T_j^k (j in the original frame)."""
        return self._slice_norm(j - self._shift, k)

    def _slice_norm(self, jn, k=0):
        if jn < self.cfg_normalized.j_min or jn > 0:
            return frozenset()
        if k == 0:
            return self._t0[jn]
        key = (jn, k)
        if key not in self._rings:
            base = np.array(sorted(self._t0[jn]), dtype=np.int64)
            offs = np.array(list(product(range(-k, k + 1), repeat=self.dim)), dtype=np.int64)
            dil = (base[:, None, :] + offs[None, :, :]).reshape(-1, self.dim)
            self._rings[key] = frozenset(map(tuple, np.unique(dil, axis=0).tolist()))
        return self._rings[key]

    def shell_indices(self, j, k):
        """Normalized index set of B_j^k = T_j^{k+1} minus T_j^k."""
        return self.slice_indices(j, k + 1) - self.slice_indices(j, k)

    # -- cube accessors (original frame) -----------------------------------

    def _to_original(self, j, indices):
        jn = j - self._shift
        return sorted(self.cube_map.backward(DyadicCube(jn, idx)) for idx in indices)

    def cubes(self, j, k=0):
        return self._to_original(j, self.slice_indices(j, k))

    def shell_cubes(self, j, k):
        return self._to_original(j, self.shell_indices(j, k))

    # -- membership (original-frame cubes) ----------------------------------

    def member(self, cube):
        """cube lies in the tree T = M_U."""
        jn = cube.level - self._shift
        if jn < self.cfg_normalized.j_min or jn > 0:
            return False
        return self.cube_map.forward(cube).index in self._t0[jn]

    def contains_tree_element(self, cube):
        """Some tree cube is a subset of `cube`."""
        for leaf in self.cfg.leaves:
            if cube.level >= leaf.level and cube.contains(leaf):
                return True
        return False

    # -- corona -------------------------------------------------------------

    @cached_property
    def corona(self):
        """Disjoint family partitioning E_0^1, as (level, cube) pairs.

        Level-j members are the level-j cubes inside E_{j+1}^1 that are
        not inside E_j^1.  Verified to tile E_0^1 exactly.
        """
        out = []
        for j in range(-1, self.cfg_normalized.j_min - 2, -1):
            inner = self._slice_norm(j, 1)
            pieces = []
            for idx in sorted(self._slice_norm(j + 1, 1)):
                for child in DyadicCube(j + 1, idx).children():
                    if child.index not in inner:
                        pieces.append(child)
            out.extend((j, c) for c in sorted(pieces))
            if not inner:
                break
        self._verify_corona(out)
        return [(j + self._shift, self.cube_map.backward(c)) for j, c in out]

    def _verify_corona(self, members):
        if not members:
            raise InternalConsistencyError("corona family is empty")
        j_fine = min(j for j, _ in members)
        total = sum(1 << (self.dim * (j - j_fine)) for j, _ in members)
        expected = (3 ** self.dim) * (1 << (self.dim * (-j_fine)))
        if total != expected:
            raise InternalConsistencyError(
                f"corona measure {total} != 3^d in units 2^{j_fine} ({expected})")
        by_level = {}
        for j, c in members:
            by_level.setdefault(j, set()).add(c.index)
        lvls = sorted(by_level)
        for j, c in members:
            if c.ancestor(0).index not in self._slice_norm(0, 1):
                raise InternalConsistencyError("corona cube escapes E_0^1")
            for j2 in lvls:
                if j2 <= j:
                    continue
                if c.ancestor(j2).index in by_level[j2]:
                    raise InternalConsistencyError("corona cubes are not disjoint")

    # -- maximal off-tree cubes ----------------------------------------------

    def maximal_offtree(self, level_floor=None):
        """Maximal dyadic K inside 7U whose triple contains no tree cube.

        The full family is an infinite Whitney-type covering; enumeration
        stops at `level_floor` (default: two levels below the finest leaf).
        Returned in the original frame.
        """
        if level_floor is None:
            level_floor = self.j_min - 2
        level_floor -= self._shift
        tree_cubes = [DyadicCube(jn, idx) for jn in range(self.cfg_normalized.j_min, 1)
                      for idx in self._slice_norm(jn)]
        prev_family = None  # family mask at level j+1
        prev_lo = None
        out = []
        for j in range(2, level_floor - 1, -1):
            if j <= 0:
                u = 1 << (-j)
                ax_lo, ax_hi = -3 * u, 4 * u - 1
            else:
                v = 1 << j
                ax_lo, ax_hi = _ceil_div(-3, v), 4 // v - 1
            lo = [ax_lo] * self.dim
            hi = [ax_hi] * self.dim
            shape = tuple(h - l + 1 for l, h in zip(lo, hi))
            if any(s <= 0 for s in shape):
                prev_family, prev_lo = None, None
                continue
            bad = np.zeros(shape, dtype=bool)
            for cube in tree_cubes:
                sl = []
                feasible = True
                for ax, a in enumerate(cube.index):
                    t = j - cube.level
                    if t >= 0:
                        k_hi = (a >> t) + 1
                        k_lo = _ceil_div(a + 1, 2 ** t) - 2
                    else:
                        k_hi = (a << (-t)) + 1
                        k_lo = ((a + 1) << (-t)) - 2
                    k_lo, k_hi = max(k_lo, lo[ax]), min(k_hi, hi[ax])
                    if k_lo > k_hi:
                        feasible = False
                        break
                    sl.append(slice(k_lo - lo[ax], k_hi - lo[ax] + 1))
                if feasible:
                    bad[tuple(sl)] = True
            family = ~bad
            if j <= 0:
                it = np.ndindex(shape)
                for pos in it:
                    if not family[pos]:
                        continue
                    idx = tuple(p + l for p, l in zip(pos, lo))
                    parent_idx = tuple(k >> 1 for k in idx)
                    parent_in_family = False
                    if prev_family is not None:
                        ppos = tuple(pk - pl for pk, pl in zip(parent_idx, prev_lo))
                        if all(0 <= q < s for q, s in zip(ppos, prev_family.shape)):
                            parent_in_family = bool(prev_family[ppos])
                    if not parent_in_family:
                        out.append(DyadicCube(j, idx))
            prev_family, prev_lo = family, lo
        return sorted(self.cube_map.backward(c) for c in out)


def expand_to_tree(cfg):
    """Expand a TreeConfig into its level-sliced TreeIndex."""
    return TreeIndex(cfg)


def corona_partition(tree):
    """The corona family of a built tree as (level, cube) pairs."""
    return tree.corona


def maximal_offtree(tree, level_floor=None):
    return tree.maximal_offtree(level_floor)


# ---------------------------------------------------------------------------
# Dyadic partitions of the root, for the conditional-expectation baseline.

@dataclass(frozen=True)
class DyadicPartition:
    """Finite dyadic partition of a root cube into disjoint cells."""

    root: DyadicCube
    cells: tuple

    def __post_init__(self):
        cells = tuple(sorted(self.cells))
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise ValidationError("partition needs at least one cell")
        fine = min(c.level for c in cells)
        total = 0
        for c in cells:
            if not self.root.contains(c):
                raise ValidationError(f"cell {c.label()} outside the root")
            total += 1 << (self.root.dim * (c.level - fine))
        if total != 1 << (self.root.dim * (self.root.level - fine)):
            raise ValidationError("cells do not tile the root exactly")
        for i, a in enumerate(cells):
            for b in cells[i + 1:]:
                if not a.disjoint(b):
                    raise ValidationError("partition cells overlap")

    def sigma_contains(self, cube):
        """cube belongs to the sigma algebra generated by the cells."""
        if not self.root.contains(cube):
            return False
        return not any(c != cube and c.contains(cube) for c in self.cells)


# ---------------------------------------------------------------------------
# Text interfaces.

def tree_config_to_dict(cfg):
    return {
        "dimension": cfg.dim,
        "root": {"level": cfg.root.level, "index": list(cfg.root.index)},
        "leaves": [{"level": c.level, "index": list(c.index)} for c in cfg.leaves],
        "m": cfg.gap_m,
        "alpha": cfg.alpha,
    }


def tree_config_from_dict(data):
    root = DyadicCube(data["root"]["level"], tuple(data["root"]["index"]))
    leaves = tuple(DyadicCube(c["level"], tuple(c["index"])) for c in data["leaves"])
    cfg = TreeConfig(root, leaves, int(data["m"]), float(data["alpha"]))
    if cfg.dim != int(data["dimension"]):
        raise ValidationError("declared dimension does not match the cubes")
    return cfg


def tree_index_to_csv(tree, path, level_floor=None):
    """Emit the expanded tree as rows (tag, level, index) for inspection."""
    rows = []
    for j in tree.levels():
        for c in tree.cubes(j):
            rows.append(("T", c.level, c.index))
        for c in tree.shell_cubes(j, 1):
            rows.append(("B1", c.level, c.index))
    for j, c in tree.corona:
        rows.append(("corona", c.level, c.index))
    for c in tree.maximal_offtree(level_floor):
        rows.append(("offtree", c.level, c.index))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["tag", "level", "index"])
        for tag, level, index in rows:
            w.writerow([tag, level, ";".join(str(k) for k in index)])
