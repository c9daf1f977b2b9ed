"""Dyadic cubes and stopping-time trees.

Cube geometry is exact: a cube is a (level, integer index) pair and all
set relations (containment, disjointness) are computed with integer
shifts, never with floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ValidationError


_INT = {int}


def _as_index(index):
    if isinstance(index, (int, np.integer)):
        return (int(index),)
    return tuple(int(k) for k in index)


@dataclass(frozen=True, order=True)
class DyadicCube:
    """Half-open dyadic cube prod_n [2^level * k_n, 2^level * (k_n + 1))."""

    level: int
    index: tuple

    def __init__(self, level, index):
        # an index that is already a tuple of ints is kept as it is; the
        # fields go straight into the instance dict, as the frozen class
        # refuses attribute assignment
        if type(index) is not tuple or not _INT.issuperset(map(type, index)):
            index = _as_index(index)
        fields = self.__dict__
        fields["level"] = level
        fields["index"] = index

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

    def levels(self):
        return list(range(self.j_min, 1))

    def slice_indices(self, j, k=0):
        """Index set of T_j^k: the level-j tree cubes dilated k cells."""
        if j < self.j_min or j > 0:
            return frozenset()
        if k == 0:
            return self._t0[j]
        base = np.array(sorted(self._t0[j]), dtype=np.int64)
        offs = np.array(list(product(range(-k, k + 1), repeat=self.dim)), dtype=np.int64)
        dil = (base[:, None, :] + offs[None, :, :]).reshape(-1, self.dim)
        return frozenset(map(tuple, np.unique(dil, axis=0).tolist()))

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


def tree_index_rows(tree):
    """The expanded tree as rows (tag, level, index "k1;k2;...") for
    inspection: each level's tree cubes, then its first shell."""
    tagged = []
    for j in tree.levels():
        tagged += [("T", c) for c in tree.cubes(j)]
        tagged += [("B1", c) for c in tree.shell_cubes(j, 1)]
    return [(tag, c.level, ";".join(map(str, c.index))) for tag, c in tagged]
