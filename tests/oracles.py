"""Reference implementations that the tests compare the package against.

None of these runs in the package: each restates a definition directly
(a set distance, a dilation, a kernel family) so that the fast or
indirect route the package takes can be checked against it.
"""

import math

import numpy as np

from phaseproj.cubes import DyadicCube, TreeConfig
from phaseproj.grid import kernel_field_from_multiplier
from phaseproj.kernels import (
    KernelHandle,
    build_mollifier,
    cone_multiplier_values,
    psi_multiplier,
)


def rho_bisection(cube, y):
    """Mollified distance from `cube` to the point y, by bisecting the
    defining infimum inf{r > 1 : y in (2r-1) I}."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    c = np.asarray(cube.center)

    def inside(r):
        return np.all(np.abs(y - c) <= (2 * r - 1) * cube.side / 2)

    lo, hi = 1.0, 2.0
    while not inside(hi):
        hi *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            hi = mid
        else:
            lo = mid
    return max(1.0, hi)


def rho_to_cube(cube, other):
    """Mollified distance from `cube` to the closure of another cube."""
    dist = 0.0
    for cs, co in zip(cube.center, other.center):
        dist = max(dist, abs(cs - co) - other.side / 2.0)
    return max(1.0, 0.5 + max(dist, 0.0) / cube.side)


def rho_set(cube, target):
    """Mollified distance from `cube` to a set: a sequence of cubes or an
    (m, d) array of points; +inf for an empty set."""
    if isinstance(target, np.ndarray):
        if target.size == 0:
            return math.inf
        pts = target.reshape(-1, cube.dim)
        dist = np.min(np.max(np.abs(pts - np.asarray(cube.center)), axis=1))
        return max(1.0, 0.5 + float(dist) / cube.side)
    target = list(target)
    if not target:
        return math.inf
    return min(rho_to_cube(cube, o) for o in target)


def dilated_contains(cube, r, other):
    """`other` lies inside r * `cube` for an odd integer r >= 1, in
    integer arithmetic."""
    assert r % 2 == 1 and r >= 1
    half = (r - 1) // 2
    fine = min(cube.level, other.level)
    s1, s2 = cube.level - fine, other.level - fine
    for k, a in zip(cube.index, other.index):
        lo, hi = (k - half) << s1, (k + 1 + half) << s1
        if not (lo <= (a << s2) and ((a + 1) << s2) <= hi):
            return False
    return True


def tree_config_from_dict(data):
    """Inverse of cubes.tree_config_to_dict."""
    root = DyadicCube(data["root"]["level"], tuple(data["root"]["index"]))
    leaves = tuple(DyadicCube(c["level"], tuple(c["index"])) for c in data["leaves"])
    cfg = TreeConfig(root, leaves, int(data["m"]), float(data["alpha"]))
    assert cfg.dim == int(data["dimension"])
    return cfg


def psi_kernel(grid, j):
    """The annulus kernel psi_j = tau_{j-1} - tau_j, supported on
    2^-j <= |xi| <= 2^(2-j): its multiplier and its spatial samples."""
    mult = psi_multiplier(grid, j)
    return KernelHandle(grid, f"psi[{j}]", "psi", j, mult,
                        kernel_field_from_multiplier(grid, mult))


def kappa_kernel(grid, scale):
    """The cutoff mollifier kappa at dyadic scale `scale`: support radius
    2^(scale - 9), grid mass one."""
    return build_mollifier(grid, 2.0 ** (scale - 9))


def cone_partition(dim):
    """The d cone multipliers as callables on broadcastable axis arrays;
    they sum to exactly 1 on the annulus 1 <= |zeta| <= 4."""
    return [lambda zeta_axes, n=n: cone_multiplier_values(dim, n, zeta_axes)
            for n in range(dim)]


def is_real(field, tol=1e-12):
    """The imaginary parts of the samples are within tol of their peak."""
    scale = np.max(np.abs(field.values))
    return scale == 0 or np.max(np.abs(field.values.imag)) <= tol * scale
