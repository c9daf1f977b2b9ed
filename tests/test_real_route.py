"""Real fields take real transforms: the real route against the complex
route of tests/oracles.py, the realness and mirror facts of the kernel
builders, and what the real route keeps real."""

import contextlib
import hashlib
import tracemalloc
from collections import defaultdict
from dataclasses import replace
from math import inf

import numpy as np
import pytest
from conftest import PACKAGE_CACHES
from oracles import complex_route, is_real

from phaseproj import kernels
from phaseproj.acceptance import REFERENCE_CONFIG
from phaseproj.cubes import DyadicCube, TreeConfig, expand_to_tree
from phaseproj.estimators import estimate_S_multi, verify_witness
from phaseproj.grid import TorusGrid, apply_multiplier
from phaseproj.harness import (
    RunConfig,
    build_f,
    build_tree_config,
    field_from_modes,
    random_bandpass_field,
    run,
)
from phaseproj.kernels import DictionarySpec
from phaseproj.projection import ProjectionFrame, assemble, residual_decomposition

# The benchmark's 2-d run, its whole window
VERIFY_D2_CONFIG = RunConfig(dim=2, grid_n=1 << 8, tree_depth=1, leaf_count=1, alpha=3.0,
                             strict=False)
# The digests of report.json and perscale.csv of REFERENCE_CONFIG, and of
# report.json of the 2-d run of test_estimators, frozen while every field
# was complex; the complex route reproduces them
COMPLEX_ROUTE_DIGESTS = {
    "report.json": "22a611267340aeda2e0061d4a2d3f27ef491091494432993dba1103750c125cf",
    "perscale.csv": "f6d29599e5590f938159d5a62fb282d78647ba81153508c8ee06722c4e96170d",
}
COMPLEX_ROUTE_2D_REPORT = "de0e4a1d25e224d27b9a3a283ea6712cb7edcbbb9ca6abf82d3a0188843a65b4"


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestComplexRoute:
    def test_reproduces_the_complex_reports(self, tmp_path):
        with complex_route():
            assert "error" not in run(REFERENCE_CONFIG, out_dir=str(tmp_path / "ref"))
            config = RunConfig(dim=2, grid_n=1 << 8, tree_depth=1, leaf_count=1, alpha=3.0,
                               strict=False, window_depth=0)
            assert "error" not in run(config, out_dir=str(tmp_path / "2d"))
        for name, expected in COMPLEX_ROUTE_DIGESTS.items():
            assert digest(tmp_path / "ref" / name) == expected, name
        assert digest(tmp_path / "2d" / "report.json") == COMPLEX_ROUTE_2D_REPORT

    @pytest.mark.parametrize("config,roundoff_tables", [
        (REFERENCE_CONFIG, ()),
        (VERIFY_D2_CONFIG, [("carleson", p, "lhs") for p in (1.0, 2.0, "inf")])],
        ids=["reference", "verify_d2"])
    def test_report_terms_match_complex_route(self, config, roundoff_tables):
        # each lhs, rhs and S within 1e-12 of the complex route's, relative,
        # or within 1e-15 of the largest term of its table (the terms of one
        # inequality, p and side): far off-tree terms sit at the roundoff of
        # their table's largest one.  The Carleson lhs tables of the 2-d run
        # are roundoff as a whole: every term is below 1e-11, against norms
        # near 10, the responses of bands that f - g misses, and f - g takes
        # other roundoff on each route.  Two of their terms per p differ by
        # up to 4.3e-11, relative, so they are held to 1e-10
        real = run(config)
        with complex_route():
            oracle = run(config)
        assert "error" not in real and "error" not in oracle
        assert len(real["reports"]) == len(oracle["reports"])
        largest = defaultdict(float)
        for row in oracle["reports"]:
            for side in ("lhs", "rhs_without_constant"):
                key = (row["inequality"], row["p"], side)
                largest[key] = max(largest[key], abs(row[side]))
        for got, want in zip(real["reports"], oracle["reports"]):
            assert (got["inequality"], got["p"], got["context"]) == (
                want["inequality"], want["p"], want["context"])
            for side in ("lhs", "rhs_without_constant"):
                table = (want["inequality"], want["p"], side)
                gap = abs(got[side] - want[side])
                rel = 1e-10 if table in roundoff_tables else 1e-12
                assert gap <= rel * abs(want[side]) or gap <= 1e-15 * largest[table], (
                    got["context"], side, got[side], want[side])
        for table in roundoff_tables:
            assert largest[table] < 1e-11 * largest["norm", table[1], "lhs"], table
        for p, size in oracle["sizes"].items():
            assert real["sizes"][p]["value"] == pytest.approx(size["value"], rel=1e-12, abs=0)

    def test_real_route_peak_below_complex_route(self):
        # traced peaks of harness.run, each with cold caches; an untraced
        # run first pays the first-use allocations of the process, which
        # would otherwise fall on whichever route is traced first
        assert "error" not in run(REFERENCE_CONFIG)
        for cache in PACKAGE_CACHES:
            cache.cache_clear()
        peaks = []
        for route in (complex_route, contextlib.nullcontext):
            with route():
                tracemalloc.start()
                try:
                    assert "error" not in run(REFERENCE_CONFIG)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            for cache in PACKAGE_CACHES:
                cache.cache_clear()
        assert peaks[1] < peaks[0], peaks


class TestRealFields:
    @pytest.mark.parametrize("dim,samples,leaves,alpha", [
        (1, 1 << 12, (DyadicCube(-1, (1,)),), 2.0),
        (2, 1 << 8, (DyadicCube(-1, (0, 1)),), 3.0)])
    def test_real_f_keeps_every_field_real(self, dim, samples, leaves, alpha):
        grid = TorusGrid(dim, 8.0, samples)
        f = random_bandpass_field(grid, seed=3, annulus=(1.0, 3.0), n_modes=5)
        frame = ProjectionFrame(TreeConfig(leaves, 0, alpha), grid, False)
        builder = assemble(frame, f)
        parts = residual_decomposition(builder)
        fields = [f, builder.g, f - builder.g, *parts]
        fields += [frame.chi_s(j) for j in range(frame.j_min, 1)]
        fields += [frame.chi_derivative(j, n, k) for j in range(frame.j_min, 1)
                   for n in range(dim) for k in range(1, dim + 2)]
        fields += [value for key, value in builder._memo.items() if key[0] == "g_piece"]
        assert all(field.values.dtype == np.float64 for field in fields)
        # the cached spectra are half spectra
        assert f.fft().shape == (samples,) * (dim - 1) + (samples // 2 + 1,)

    def test_complex_f_stays_complex(self):
        config = replace(REFERENCE_CONFIG, f_modes=((1.5, 1.0, 0.5), (-2.0, 0.25, 0.0)))
        grid = TorusGrid(config.dim, config.grid_b, config.grid_n)
        f = build_f(config, grid)
        builder = assemble(ProjectionFrame(build_tree_config(config), grid, False), f)
        assert f.values.dtype == builder.g.values.dtype == np.complex128
        assert f.fft().shape == grid.shape
        record = run(config)
        assert "error" not in record

    def test_field_from_modes_is_real_part_of_complex_inverse(self):
        grid = TorusGrid(2, 8.0, 1 << 6)
        modes = [((3, -2), 1.0 + 0.5j), ((0, 5), -0.25j)]
        real = field_from_modes(grid, modes)
        with complex_route():
            oracle = field_from_modes(grid, modes)
        assert real.values.dtype == np.float64
        assert np.array_equal(real.values, oracle.values.real)


GRIDS = {1: (TorusGrid(1, 8.0, 1 << 12), -3, 8.0, DictionarySpec()),
         2: (TorusGrid(2, 8.0, 1 << 7), -1, 12.0, DictionarySpec(2, 1, 1, 1))}


class TestKernelFacts:
    @pytest.mark.parametrize("kind", ["phi", "psi"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_real_and_mirror_facts(self, dim, kind):
        # a kernel is real as its builder says iff its samples are, and
        # each mirror is the kernel of the conjugate samples
        grid, level, beta, spec = GRIDS[dim]
        candidates = {c.kernel_id: c for c in kernels._candidates(grid, level, beta, kind, spec)}
        mirrored = 0
        for cand in candidates.values():
            assert cand.real == is_real(cand.field), cand.kernel_id
            if cand.mirror is None:
                continue
            mirrored += 1
            other = candidates[cand.mirror]
            assert not cand.real and other.mirror == cand.kernel_id
            scale = np.max(np.abs(cand.field.values))
            assert np.max(np.abs(np.conj(cand.field.values) - other.field.values)) <= 1e-12 * scale
        assert mirrored == 6 * dim   # three boxes of each sign on each axis

    @pytest.mark.parametrize("dim", [1, 2])
    def test_mirrors_answer_a_real_field_alike(self, dim):
        grid, level, beta, spec = GRIDS[dim]
        f = random_bandpass_field(grid, seed=4, annulus=(1.0, 3.0), n_modes=6)
        dictionary = {k.kernel_id: k for k in kernels.build_dictionary(grid, level, beta, "phi",
                                                                       spec)}
        pairs = [(k, dictionary[k.mirror]) for k in dictionary.values() if k.mirror]
        assert pairs
        for k, mirror in pairs:
            a, b = (np.abs(apply_multiplier(f, h.multiplier, True, h.real).values)
                    for h in (k, mirror))
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(a), k.kernel_id

    def test_ladder_witness_reproduced(self):
        # the size witness of a mode at frequency 6 is a ladder box; the
        # estimator context's `!=` check of verify_witness holds for it, and
        # its mirror, whose norms the table took from the same response,
        # re-evaluates to the same float
        grid = TorusGrid(1, 8.0, 1 << 12)
        tree = expand_to_tree(TreeConfig((DyadicCube(-1, (0,)),), 0, 2.0))
        f = field_from_modes(grid, [((96,), 1.0 + 0.5j)])
        spec = DictionarySpec()
        for p, est in estimate_S_multi(tree, f, (1.0, 2.0, inf), spec).items():
            level, cube, kernel_id = est.witness
            assert kernel_id == "sincpow[phi,-3,eta=-4]", p
            assert verify_witness(f, est, spec) == est.value
            mirror = replace(est, witness=(level, cube, "sincpow[phi,-3,eta=4]"))
            assert verify_witness(f, mirror, spec) == est.value
