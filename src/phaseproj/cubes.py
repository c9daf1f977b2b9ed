"""Dyadic cubes and stopping-time trees.

Cube geometry is exact: a cube is a (level, integer index) pair and all
set relations (containment, disjointness) are computed with integer
shifts, never with floats.
"""

from __future__ import annotations

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

    def disjoint(self, other):
        return not (self.contains(other) or other.contains(self))

    def label(self):
        return f"{self.level}:" + ",".join(str(k) for k in self.index)


def unit_cube(dim):
    return DyadicCube(0, (0,) * dim)


# ---------------------------------------------------------------------------
# Tree configuration.

@dataclass(frozen=True)
class TreeConfig:
    """Disjoint leaves M inside the root U = [0,1)^d, frequency gap m,
    exponent alpha.  Scaling makes the unit cube the root without loss
    of generality."""

    leaves: tuple
    gap_m: int
    alpha: float

    def __post_init__(self):
        leaves = tuple(sorted(self.leaves))
        object.__setattr__(self, "leaves", leaves)
        if not leaves:
            raise ValidationError("leaf collection M must be non-empty")
        d = self.dim
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
        return self.leaves[0].dim

    @property
    def root(self):
        return unit_cube(self.dim)

    @property
    def j_min(self):
        return min(leaf.level for leaf in self.leaves)


# ---------------------------------------------------------------------------
# Tree expansion: ancestors of the leaves, level slices, rings and shells.

class TreeIndex:
    """Level-sliced view of the stopping-time tree generated by a leaf set."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.dim = cfg.dim
        self.j_min = cfg.j_min
        t0 = {j: set() for j in range(cfg.j_min, 1)}
        for leaf in cfg.leaves:
            for j in range(leaf.level, 1):
                t0[j].add(leaf.ancestor(j).index)
        self._t0 = {j: frozenset(v) for j, v in t0.items()}
        self._rings = {}

    def levels(self):
        return list(range(self.j_min, 1))

    def slice_indices(self, j, k=0):
        """Index set of T_j^k: the level-j tree cubes dilated k cells."""
        if j < self.j_min or j > 0:
            return frozenset()
        if k == 0:
            return self._t0[j]
        key = (j, k)
        if key not in self._rings:
            base = np.array(sorted(self._t0[j]), dtype=np.int64)
            offs = np.array(list(product(range(-k, k + 1), repeat=self.dim)), dtype=np.int64)
            dil = (base[:, None, :] + offs[None, :, :]).reshape(-1, self.dim)
            self._rings[key] = frozenset(map(tuple, np.unique(dil, axis=0).tolist()))
        return self._rings[key]

    # -- cube accessors --------------------------------------------------------

    def cubes(self, j, k=0):
        return sorted(DyadicCube(j, idx) for idx in self.slice_indices(j, k))

    def shell_cubes(self, j, k):
        """The cubes of the shell B_j^k = T_j^{k+1} minus T_j^k."""
        return sorted(DyadicCube(j, idx)
                      for idx in self.slice_indices(j, k + 1) - self.slice_indices(j, k))

    # -- membership ------------------------------------------------------------

    def member(self, cube):
        """cube lies in the tree T = M_U."""
        return cube.index in self.slice_indices(cube.level)

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
        for j in range(-1, self.j_min - 2, -1):
            inner = self.slice_indices(j, 1)
            pieces = []
            for idx in sorted(self.slice_indices(j + 1, 1)):
                for child in DyadicCube(j + 1, idx).children():
                    if child.index not in inner:
                        pieces.append(child)
            out.extend((j, c) for c in sorted(pieces))
            if not inner:
                break
        self._verify_corona(out)
        return out
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
            if c.ancestor(0).index not in self.slice_indices(0, 1):
                raise InternalConsistencyError("corona cube escapes E_0^1")
            for j2 in lvls:
                if j2 <= j:
                    continue
                if c.ancestor(j2).index in by_level[j2]:
                    raise InternalConsistencyError("corona cubes are not disjoint")

    # -- maximal off-tree cubes ----------------------------------------------

    def maximal_offtree(self, level_floor):
        """Maximal dyadic K inside 7U whose triple contains no tree cube.

        The full family is an infinite Whitney-type covering; enumeration
        stops at `level_floor`.
        """
        tree_cubes = [DyadicCube(j, idx) for j in self.levels()
                      for idx in self.slice_indices(j)]
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
        return sorted(out)


def expand_to_tree(cfg):
    """Expand a TreeConfig into its level-sliced TreeIndex."""
    return TreeIndex(cfg)


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


def tree_index_rows(tree, level_floor):
    """The expanded tree as rows (tag, level, index "k1;k2;...") for
    inspection, off-tree cubes down to `level_floor`."""
    tagged = []
    for j in tree.levels():
        tagged += [("T", c) for c in tree.cubes(j)]
        tagged += [("B1", c) for c in tree.shell_cubes(j, 1)]
    tagged += [("corona", c) for _, c in tree.corona]
    tagged += [("offtree", c) for c in tree.maximal_offtree(level_floor)]
    return [(tag, c.level, ";".join(map(str, c.index))) for tag, c in tagged]
