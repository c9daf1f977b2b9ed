"""Dyadic cube arithmetic, mollified distances and trees."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dilated_contains,
    rho_bisection,
    rho_set,
    rho_to_cube,
    tree_config_from_dict,
)
from phaseproj.cubes import (
    DyadicCube,
    TreeConfig,
    expand_to_tree,
    tree_config_to_dict,
    unit_cube,
)
from phaseproj.errors import ValidationError
from phaseproj.grid import TorusGrid, mollified_distance, rho_values


def cube1(level, k):
    return DyadicCube(level, (k,))


def rho_point(cube, y):
    """The package's closed form of rho_I at the point y."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return float(mollified_distance(np.max(np.abs(y - np.asarray(cube.center))), cube.side))


class TestRho:
    """The closed form of rho_I (grid.mollified_distance) against a
    bisection of its defining infimum, and the set-distance oracles."""

    def test_center_point(self):
        assert rho_point(unit_cube(1), 0.5) == 1.0

    def test_outside_point(self):
        assert rho_point(unit_cube(1), 2.0) == pytest.approx(
            rho_bisection(unit_cube(1), 2.0), abs=1e-10)
        assert rho_point(unit_cube(1), 2.0) == 2.0

    def test_2d_point(self):
        got = rho_point(unit_cube(2), (3.0, 0.5))
        assert got == pytest.approx(rho_bisection(unit_cube(2), (3.0, 0.5)), abs=1e-10)
        assert got == 3.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=-4, max_value=2),
        st.integers(min_value=-8, max_value=8),
        st.floats(min_value=-20, max_value=20, allow_nan=False),
    )
    def test_closed_form_matches_bisection(self, level, k, y):
        cube = cube1(level, k)
        assert rho_point(cube, y) == pytest.approx(rho_bisection(cube, y), abs=1e-10)

    def test_closed_form_matches_bisection_2d(self):
        # rho_values on the points of a 2-d grid
        grid = TorusGrid(2, 8.0, 1 << 6)
        rng = np.random.default_rng(7)
        for _ in range(200):
            cube = DyadicCube(int(rng.integers(-3, 2)), tuple(rng.integers(-6, 6, size=2)))
            k = tuple(int(i) for i in rng.integers(grid.samples, size=2))
            y = grid.axis_points[list(k)]
            assert rho_values(grid, cube)[k] == pytest.approx(rho_bisection(cube, y), abs=1e-10)

    def test_rho_to_set_boundary(self):
        # F = {y : |y - 1/2| >= 3/2} approached through sample points
        pts = np.array([[-1.0], [2.0], [5.0], [-4.0]])
        assert rho_set(unit_cube(1), pts) == 2.0

    def test_rho_of_self(self):
        assert rho_set(unit_cube(1), [unit_cube(1)]) == 1.0

    def test_empty_set(self):
        assert rho_set(unit_cube(1), []) == math.inf
        assert rho_set(unit_cube(1), np.empty((0, 1))) == math.inf

    def test_adjacent_cubes(self):
        assert rho_to_cube(cube1(0, 0), cube1(0, 1)) == 1.0
        assert rho_to_cube(cube1(0, 0), cube1(0, 2)) == 2.0
        assert rho_to_cube(cube1(0, 0), cube1(0, -3)) == 3.0


class TestCubeAlgebra:
    def test_nesting_chain(self):
        c = DyadicCube(-3, (5, -2))
        parent = c.ancestor(c.level + 1)
        assert parent.contains(c)
        assert c.ancestor(0).contains(c)
        assert not c.contains(parent)

    def test_same_level_disjoint(self):
        assert cube1(-1, 0).disjoint(cube1(-1, 1))
        assert not cube1(-1, 0).disjoint(cube1(-1, 0))

    def test_dilated_contains(self):
        # 3*[0,1) = [-1,2)
        assert dilated_contains(cube1(0, 0), 3, cube1(0, -1))
        assert dilated_contains(cube1(0, 0), 3, cube1(0, 1))
        assert not dilated_contains(cube1(0, 0), 3, cube1(0, 2))
        assert dilated_contains(cube1(0, 0), 3, cube1(-2, -4))
        assert not dilated_contains(cube1(0, 0), 3, cube1(-2, -5))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=-4, max_value=0), st.integers(min_value=-10, max_value=10))
    def test_child_parent_roundtrip(self, level, k):
        c = cube1(level, k)
        assert all(ch.ancestor(level) == c for ch in c.children())


class TestBadCubeInput:
    """Bad cube arguments fail with the package's ValidationError."""

    def test_ancestor_below_level(self):
        with pytest.raises(ValidationError, match="ancestor level"):
            cube1(-1, 0).ancestor(-2)


class TestTreeExpansion:
    def test_two_leaf_tree(self):
        cfg = TreeConfig((cube1(-2, 0), cube1(-2, 2)), 0, 2.0)
        tree = expand_to_tree(cfg)
        got = sorted(c for j in tree.levels() for c in tree.cubes(j))
        expected = sorted([
            cube1(-2, 0), cube1(-1, 0), cube1(-2, 2), cube1(-1, 1), cube1(0, 0),
        ])
        assert got == expected
        assert len(got) == 5

    def test_ring_and_shell(self):
        cfg = TreeConfig((cube1(-2, 0),), 0, 2.0)
        tree = expand_to_tree(cfg)
        assert tree.cubes(-2, 1) == [cube1(-2, -1), cube1(-2, 0), cube1(-2, 1)]
        assert tree.shell_cubes(-2, 1) == [cube1(-2, -2), cube1(-2, 2)]

    def test_single_node_tree(self):
        cfg = TreeConfig((unit_cube(1),), 0, 2.0)
        tree = expand_to_tree(cfg)
        assert tree.cubes(0) == [unit_cube(1)]
        # E_0^1 = 3U
        assert tree.cubes(0, 1) == [cube1(0, -1), cube1(0, 0), cube1(0, 1)]

    def test_ring_matches_rho_criterion(self):
        # T_j^k = {I : rho_I(E_j^0) <= k}, checked against the definition.
        rng = np.random.default_rng(3)
        for _ in range(5):
            leaves = sorted({cube1(-2, int(k)) for k in rng.choice(4, size=2, replace=False)})
            cfg = TreeConfig(tuple(leaves), 0, 2.0)
            tree = expand_to_tree(cfg)
            for j in tree.levels():
                base = tree.cubes(j)
                for k in (1, 2):
                    got = {c.index for c in tree.cubes(j, k)}
                    window = {idx for c in tree.cubes(j, k + 1) for idx in [c.index]}
                    for idx in window:
                        cand = DyadicCube(j, idx)
                        expect = rho_set(cand, base) <= k
                        assert (idx in got) == expect

    def test_nesting_invariants(self):
        cfg = TreeConfig((DyadicCube(-2, (0, 1)), DyadicCube(-1, (1, 1))), 1, 3.0)
        tree = expand_to_tree(cfg)
        for j in tree.levels():
            e1 = tree.slice_indices(j, 1)
            e2 = tree.slice_indices(j, 2)
            assert e1 <= e2
            if j < 0:
                up = tree.slice_indices(j + 1, 1)
                for idx in e1:
                    assert DyadicCube(j, idx).ancestor(j + 1).index in up

    def test_shells_disjoint_across_levels(self):
        cfg = TreeConfig((cube1(-3, 1), cube1(-2, 2)), 0, 2.0)
        tree = expand_to_tree(cfg)
        shells = [(j, c) for j in tree.levels() for c in tree.shell_cubes(j, 1)]
        for i, (j1, c1) in enumerate(shells):
            for j2, c2 in shells[i + 1:]:
                assert c1.disjoint(c2), (c1.label(), c2.label())
        # B_j^1 for j < 0 stays inside 3U; the level-0 shell reaches into 5U
        three_u = unit_cube(1)
        for j, c in shells:
            if j < 0:
                assert dilated_contains(three_u, 3, c)
            assert dilated_contains(three_u, 5, c)

    def test_validation(self):
        with pytest.raises(ValidationError):
            TreeConfig((), 0, 2.0)
        with pytest.raises(ValidationError):
            TreeConfig((cube1(0, 1),), 0, 2.0)  # outside root
        with pytest.raises(ValidationError):
            TreeConfig((cube1(-1, 0), cube1(-2, 1)), 0, 2.0)  # overlap
        with pytest.raises(ValidationError):
            TreeConfig((cube1(-1, 0),), 0, 0.5)  # alpha <= d
        # the root is always the unit cube: a tree below another root fails
        with pytest.raises(ValidationError, match="not contained in the root"):
            TreeConfig((DyadicCube(0, (5,)),), 0, 2.0)  # [5, 6), under root [4, 8)
        with pytest.raises(ValidationError, match="not contained in the root"):
            TreeConfig((cube1(1, 0),), 0, 2.0)  # coarser than the unit root
        with pytest.raises(ValidationError, match="differs from root dimension"):
            TreeConfig((cube1(-1, 0), DyadicCube(-1, (1, 1))), 0, 2.0)


class TestSerialization:
    def test_round_trip(self):
        cfg = TreeConfig((DyadicCube(-2, (1, 2)),), 1, 3.5)
        assert tree_config_from_dict(tree_config_to_dict(cfg)) == cfg
