"""Experiment orchestration: configs, instance generators, runs, demos.

A run builds the tree, the projection and the estimator context, then
evaluates every inequality over the enumeration window and persists a
deterministic report.  Identical configs byte-reproduce report.json;
wall-clock timings go to a separate file so they never break that.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import os
import time
from dataclasses import asdict, dataclass, field as dc_field, fields, replace
from math import inf

import numpy as np

from .cubes import (
    DyadicCube,
    TreeConfig,
    tree_config_to_dict,
    tree_index_rows,
    unit_cube,
)
from .errors import PhaseprojError, ValidationError
from .estimators import EstimatorContext, bernstein_sweep, p_name
from .grid import (
    SampledField,
    TorusGrid,
    inner_product,
    load_field,
    lp_norm,
    modulate,
    physical_spectrum,
    plane_wave,
    save_field,
)
from .kernels import DictionarySpec
from .projection import ProjectionFrame, assemble, residual_decomposition


def parse_p(value):
    """An exponent from a number or its name (p_name): any positive
    number, or "inf"; a bool is no number, as _is_number holds."""
    try:
        p = float(value)
    except (TypeError, ValueError):
        p = math.nan
    if isinstance(value, bool) or not p > 0:
        raise ValidationError(f"exponent {value!r} is not a positive number or inf")
    return p


def parse_p_values(values):
    """A tuple of one or more distinct exponents, parse_p of each."""
    p_values = tuple(map(parse_p, values or ()))
    if not p_values or len(set(p_values)) < len(p_values):
        raise ValidationError(f"p_values must hold one or more distinct exponents, not {values!r}")
    return p_values


@dataclass
class RunConfig:
    """Everything needed to reproduce a verification run."""

    dim: int = 1
    grid_n: int = 1 << 14
    grid_b: float = 8.0
    tree_seed: int = 0
    tree_depth: int = 1
    leaf_count: int = 1
    leaves: tuple | None = None          # explicit (level, index) pairs, overrides seed
    f_seed: int = 1
    f_modes: tuple | None = None         # explicit (freq, re, im) triples
    f_annulus: tuple | None = None       # default: (2, 2^(2+depth))
    f_mode_count: int = 8
    f_scale_with_gap: bool = False       # dilate mode frequencies by 2^m
    f_file: str | None = None
    gap_m: int = 0
    alpha: float = 2.0
    p_values: tuple = (1.0, 2.0, inf)
    dict_spec: DictionarySpec = dc_field(default_factory=DictionarySpec)
    window_depth: int | None = None
    strict: bool = True
    # Read by nothing.  It stays because config_hash hashes every field,
    # and the benchmark compares stored config hashes.
    keep_pieces: bool = False

    def to_dict(self):
        """Every field as JSON values: exponents by name (p_name), leaf
        levels and indices as ints, an empty sequence as None."""
        out = asdict(self)
        out["p_values"] = [p_name(p) for p in self.p_values]
        out["leaves"] = [[int(k) for k in leaf] for leaf in self.leaves] if self.leaves else None
        out["f_modes"] = out["f_modes"] or None
        out["f_annulus"] = out["f_annulus"] or None
        return out

    @staticmethod
    def from_dict(data):
        data = _checked_fields(RunConfig, data)
        for key in ("leaves", "f_modes", "f_annulus"):
            if data.get(key):
                data[key] = tuple(tuple(x) if isinstance(x, list) else x for x in data[key])
        if "p_values" in data:
            data["p_values"] = parse_p_values(data["p_values"])
        if "dict_spec" in data:
            data["dict_spec"] = DictionarySpec(**_checked_fields(DictionarySpec,
                                                                 data["dict_spec"]))
        return RunConfig(**data)

    def config_hash(self):
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _is_number(v, kind=numbers.Real):
    """A number of `kind`, not a bool, that a float holds finitely: an
    integer beyond the float range is refused like inf."""
    if not isinstance(v, kind) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def _is_list(v, item=None, length=None):
    return (isinstance(v, (list, tuple)) and length in (None, len(v))
            and (item is None or all(map(item, v))))


# The JSON values accepted for each field annotation, and for the
# sequences of RunConfig
_TYPES = {"int": lambda v: _is_number(v, numbers.Integral), "float": _is_number,
          "bool": lambda v: isinstance(v, bool), "str": lambda v: isinstance(v, str),
          "None": lambda v: v is None, "tuple": _is_list,
          "DictionarySpec": lambda v: isinstance(v, dict)}
_ITEMS = {
    "leaves": lambda v: _is_list(v, lambda leaf: _is_list(leaf, _TYPES["int"]) and len(leaf) > 1),
    "f_modes": lambda v: _is_list(v, lambda mode: _is_list(mode, length=3) and (
        _is_number(mode[0]) or _is_list(mode[0], _is_number)) and _is_list(mode[1:], _is_number)),
    "f_annulus": lambda v: _is_list(v, _is_number, 2) and 0 <= v[0] <= v[1],
}
# What a refused value should have been, where its type alone does not say
_NEEDS = {"f_annulus": "an annulus lo,hi of finite numbers with 0 <= lo <= hi"}


def _checked_fields(cls, data):
    """A copy of `data`, whose keys must all be fields of `cls` and whose
    values must be JSON values of the field's type.  Nothing is coerced,
    so an accepted config hashes as written."""
    if not isinstance(data, dict):
        raise ValidationError(f"a {cls.__name__} is a JSON object, not {data!r}")
    types = {f.name: f.type for f in fields(cls)}
    unknown = sorted(map(str, set(data) - set(types)))
    if unknown:
        raise ValidationError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    for key, value in data.items():
        items = _ITEMS.get(key) if value is not None else None
        if (not any(_TYPES[t](value) for t in types[key].split(" | "))
                or items and not items(value)):
            raise ValidationError(
                f"{cls.__name__} key {key!r} takes {_NEEDS.get(key, types[key])}, not {value!r}")
    return dict(data)


# ---------------------------------------------------------------------------
# Instance generators.

def random_partition_cells(seed, depth, dim):
    """Random dyadic partition of the unit cube by recursive splitting:
    a cube above level -depth splits with probability 0.7."""
    rng = np.random.default_rng(seed)
    cells = []

    def descend(cube, budget):
        if budget > 0 and rng.random() < 0.7:
            for child in cube.children():
                descend(child, budget - 1)
        else:
            cells.append(cube)

    descend(unit_cube(dim), depth)
    return tuple(sorted(cells))


def generate_tree(seed, depth, leaf_count, dim, gap_m=0, alpha=None):
    """Random tree config: disjoint dyadic leaves sampled from a random
    recursive partition of the unit cube.  Deterministic in the seed."""
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, not {dim}")
    if depth < 0:
        raise ValidationError(f"tree_depth must be >= 0, not {depth}")
    if leaf_count < 1:
        raise ValidationError("leaf_count must be >= 1")
    if leaf_count > (1 << (dim * depth)):
        raise ValidationError(
            f"cannot place {leaf_count} disjoint leaves at depth {depth}")
    rng = np.random.default_rng(seed)
    cells = list(random_partition_cells(seed + 1, depth, dim))
    while len(cells) < leaf_count:
        # split the coarsest cell (first in sorted order) until enough
        cells.sort()
        splittable = [c for c in cells if c.level > -depth]
        target = max(splittable, key=lambda c: c.level)
        cells.remove(target)
        cells.extend(target.children())
    chosen = rng.choice(len(cells), size=leaf_count, replace=False)
    leaves = tuple(sorted(cells[int(i)] for i in chosen))
    return TreeConfig(leaves, gap_m, alpha if alpha is not None else dim + 1.0)


def random_bandpass_modes(grid, seed, annulus=(2.0, 16.0), n_modes=8):
    """Random lattice frequencies inside an annulus, with amplitudes."""
    if n_modes < 1:
        raise ValidationError(f"f_mode_count must be >= 1, not {n_modes}")
    rng = np.random.default_rng(seed)
    lo, hi = annulus
    lat = 1.0 / (2 * grid.half_width)
    if hi / lat >= np.iinfo(np.int64).max:
        raise ValidationError(f"annulus bound {hi!r} is past every drawable lattice index")
    modes = []
    guard = 0
    while len(modes) < n_modes and guard < 10000:
        guard += 1
        k = rng.integers(-int(hi / lat), int(hi / lat) + 1, size=grid.dim)
        r = math.sqrt(float(np.sum((k * lat) ** 2)))
        if not (lo <= r <= hi):
            continue
        modes.append((tuple(int(kk) for kk in k), rng.normal() + 1j * rng.normal()))
    if len(modes) < n_modes:
        raise ValidationError("annulus holds no lattice frequencies")
    return modes


def field_from_modes(grid, modes, scale=1):
    """Real field from (lattice index, amplitude) pairs, frequencies
    dilated by the integer scale factor (exact on the lattice): float64
    samples, the real parts of the inverse of the Hermitian spectrum,
    whose imaginary parts are roundoff."""
    spec = np.zeros(grid.shape, dtype=np.complex128)
    nyq = grid.samples // 2
    for k, amp in modes:
        k_scaled = tuple(int(kk) * scale for kk in k)
        if any(abs(kk) >= nyq for kk in k_scaled):
            raise ValidationError("scaled mode exceeds the Nyquist frequency")
        idx = tuple(kk % grid.samples for kk in k_scaled)
        idx_conj = tuple((-kk) % grid.samples for kk in k_scaled)
        spec[idx] += amp
        spec[idx_conj] += np.conj(amp)
    vals = np.fft.ifftn(spec).real * grid.size
    return SampledField(grid, vals)


def random_bandpass_field(grid, seed, annulus=(2.0, 16.0), n_modes=8, scale=1):
    """Real trigonometric polynomial with spectrum in the given annulus,
    optionally dilated by an integer frequency scale."""
    return field_from_modes(
        grid, random_bandpass_modes(grid, seed, annulus, n_modes), scale)


def mode_field(grid, modes):
    """Sum of on-lattice modes given as (freq vector or scalar, re, im).
    A frequency off the lattice or at or past Nyquist would alias, so it
    is refused."""
    vals = np.zeros(grid.shape, dtype=np.complex128)
    for freq, re, im in modes:
        freq = np.atleast_1d(np.asarray(freq, dtype=float))
        k = np.rint(freq * 2 * grid.half_width)
        if (freq.shape != (grid.dim,) or np.max(np.abs(k / (2 * grid.half_width) - freq)) > 1e-9
                or np.max(np.abs(k)) >= grid.samples // 2):
            raise ValidationError(f"mode frequency {freq.tolist()} is not a {grid.dim}-d "
                                  "lattice frequency below Nyquist")
        vals = vals + (re + 1j * im) * plane_wave(grid, freq)
    return SampledField(grid, vals)


def build_f(config, grid):
    if config.f_file:
        field = load_field(config.f_file)
        if field.grid != grid:
            raise ValidationError("field file grid does not match the run grid")
        return field
    if config.f_modes:
        return mode_field(grid, config.f_modes)
    annulus = config.f_annulus
    if annulus is None:
        # keep the spectrum inside the pass band of the size dictionaries
        # at every tree level, for any gap parameter
        annulus = (2.0, 2.0 ** (2 + config.tree_depth))
    scale = 2 ** config.gap_m if config.f_scale_with_gap else 1
    return random_bandpass_field(grid, config.f_seed, annulus,
                                 config.f_mode_count, scale)


def build_tree_config(config):
    if config.leaves:
        leaves = tuple(DyadicCube(int(leaf[0]), tuple(int(x) for x in leaf[1:]))
                       for leaf in config.leaves)
        if any(leaf.dim != config.dim for leaf in leaves):
            raise ValidationError(f"every leaf needs dim = {config.dim} index entries")
        return TreeConfig(leaves, config.gap_m, config.alpha)
    return generate_tree(config.tree_seed, config.tree_depth, config.leaf_count,
                         config.dim, config.gap_m, config.alpha)


# ---------------------------------------------------------------------------
# The full run.

def run(config, out_dir=None):
    """Build everything, evaluate every report, optionally persist.

    A PhaseprojError is recorded with its stage tag, and whatever was
    computed before it is still persisted; any other exception is a bug
    and propagates.
    """
    record = {}
    timings = {}
    stage = "config"
    try:
        t0 = time.perf_counter()
        _check_config_values(config)
        p_values = parse_p_values(config.p_values)
        if config.window_depth is not None and config.window_depth < 0:
            raise ValidationError(
                f"window_depth must be >= 0, not {config.window_depth}")
        record["config"] = config.to_dict()
        record["config_hash"] = config.config_hash()
        stage = "grid"
        grid = TorusGrid(config.dim, config.grid_b, config.grid_n)
        stage = "tree"
        cfg = build_tree_config(config)
        record["tree"] = tree_config_to_dict(cfg)
        stage = "f"
        f = build_f(config, grid)
        stage = "projection"
        frame = ProjectionFrame(cfg, grid, config.strict)
        builder = assemble(frame, f)
        residual_decomposition(builder)
        # the split is verified: keep g, chi and the tree, release the
        # builder with its pieces and the frame before the estimators run.
        # g and chi are made last, near the top of the heap; copied once the
        # pieces are freed, they leave the top free, so the allocator can
        # give the projection's memory back to the system
        g, chi, tree, diagnostics = builder.g, frame.chi_s(0), frame.tree, builder.diagnostics
        del builder, frame
        g, chi = (SampledField(grid, field.values.copy()) for field in (g, chi))
        timings["build"] = time.perf_counter() - t0
        record["diagnostics"] = _diagnostics_dict(diagnostics)

        stage = "estimators"
        t0 = time.perf_counter()
        ctx = EstimatorContext(tree, f, g, config.dict_spec, p_values, config.window_depth)
        reports = ctx.evaluate_window()
        timings["estimators"] = time.perf_counter() - t0
        record["sizes"] = {p_name(p): est.to_dict() for p, est in ctx.sizes.items()}
        record["report_summary"] = _summarize(reports)
        record["reports"] = reports
        stage = "write"
        if out_dir:
            _persist(record, timings, out_dir, (("g", g), ("chi", chi), ("f", f)), tree)
        return record
    except PhaseprojError as exc:
        record["error"] = {"stage": stage, "message": str(exc),
                           "type": type(exc).__name__}
        if out_dir:
            _persist(record, timings, out_dir)
        return record


def _check_config_values(config):
    """_checked_fields of a RunConfig's values but the grid's, which
    TorusGrid checks, and the type of its dict_spec."""
    _checked_fields(RunConfig, {f.name: getattr(config, f.name) for f in fields(config)
                                if f.name not in ("dim", "grid_b", "grid_n", "dict_spec")})
    if not isinstance(config.dict_spec, DictionarySpec):
        raise ValidationError(f"dict_spec must be a DictionarySpec, not {config.dict_spec!r}")


def _diagnostics_dict(diag):
    out = dict(diag)
    out["levels"] = {f"n={n},j={j}": v for (n, j), v in sorted(diag["levels"].items())}
    return out


def _summarize(rows):
    """Headline ratios per (inequality, p) of report.json rows: max over
    evaluated cubes.  A row's p is "inf" or the float, and p_name names
    either."""
    summary = {}
    for row in rows:
        key = (row["inequality"], p_name(row["p"]))
        entry = summary.setdefault(key, {"max_ratio": 0.0, "count": 0,
                                         "finite": True})
        entry["count"] += 1
        if not math.isfinite(row["ratio"]):
            entry["finite"] = False
        else:
            entry["max_ratio"] = max(entry["max_ratio"], row["ratio"])
    return {f"{ineq}:p={p}": val for (ineq, p), val in sorted(summary.items())}


def write_csv(path, header, rows):
    """A CSV file of a header and rows; floats are written as repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _persist(record, timings, out_dir, saved=(), tree=None):
    """Write a run's files; the (name, field) pairs `saved` and tree.csv
    only for a finished run, config.echo only for a config that passed
    the config stage."""
    os.makedirs(out_dir, exist_ok=True)
    fields_dir = os.path.join(out_dir, "fields")
    os.makedirs(fields_dir, exist_ok=True)
    manifest = []
    for name, field in saved:
        path = os.path.join(fields_dir, f"{name}.bin")
        save_field(field, path)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        manifest.append(f"{name}.bin sha256={digest}")
    if tree is not None:
        write_csv(os.path.join(out_dir, "tree.csv"), ("tag", "level", "index"),
                  tree_index_rows(tree))
    for name, data in (("report.json", record), ("config.echo", record.get("config"))):
        if data is None:
            continue
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True, indent=2)
            fh.write("\n")
    write_csv(os.path.join(out_dir, "perscale.csv"),
              ("inequality", "p", "J", "i", "term", "cumulative"),
              ([rep["inequality"], rep["p"], rep["context"].get("J", ""), row["i"],
                row["term"], row["cumulative"]]
               for rep in record.get("reports", []) for row in rep.get("per_scale", [])))
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(manifest) + "\n")
    with open(os.path.join(out_dir, "timings.txt"), "w", encoding="utf-8") as fh:
        for key, value in timings.items():
            fh.write(f"{key} {value:.3f}s\n")


def spq_checks(config):
    """bernstein_sweep on a config's f and tree, the tree taken from a
    projection frame checked at the non-strict resolution tier.  The
    config values are checked as run checks them."""
    _check_config_values(config)
    grid = TorusGrid(config.dim, config.grid_b, config.grid_n)
    cfg = build_tree_config(config)
    f = build_f(config, grid)
    return bernstein_sweep(ProjectionFrame(cfg, grid, False).tree, f, config.dict_spec)


# ---------------------------------------------------------------------------
# Reference sweep (the uniformity-in-m experiment).

def reference_sweep_configs(seeds=range(20), m_values=(0, 1, 2, 3),
                            grid_n=1 << 17, depth=2):
    """The frozen reference sweep: d=1 trees of bounded depth, one random
    mode pattern per seed carried across the gap values.

    The mode frequencies dilate with 2^m so that every kernel window at
    gap m sees the same relative content as at gap 0; with a fixed f the
    ratios would instead measure how the shifting frequency windows
    happen to meet the fixed modes, which says nothing about uniformity
    of the constants.
    """
    configs = []
    for seed in seeds:
        for m in m_values:
            configs.append(RunConfig(
                dim=1, grid_n=grid_n, tree_seed=seed, tree_depth=depth,
                leaf_count=1 + seed % 3, f_seed=1000 + seed, gap_m=m,
                alpha=2.0, window_depth=depth, strict=True,
                f_annulus=(1.0, 3.0), f_scale_with_gap=True))
    return configs


# ---------------------------------------------------------------------------
# Modulation almost-orthogonality demo.

def _average_ranks(values):
    """1-based ranks of a 1-d array; each group of equal values gets the
    mean of its positions, as scipy.stats.rankdata(method="average")."""
    order = np.argsort(values)
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(starts, append=values.size)
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(starts + (counts + 1) / 2, counts)
    return ranks


def rank_correlation(x, y):
    """Spearman's rank correlation of two equal-length sequences: the
    Pearson correlation of their average ranks.  NaN for fewer than two
    observations, a constant input or a NaN in either input, as
    scipy.stats.spearmanr gives; otherwise its value bit for bit (the same
    ranks through np.corrcoef with the variables as rows)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if (x.size < 2 or np.isnan(x).any() or np.isnan(y).any()
            or np.all(x == x[0]) or np.all(y == y[0])):
        return math.nan
    return float(np.corrcoef(np.vstack((_average_ranks(x), _average_ranks(y))))[1, 0])


def modulation_demo(config, separations=None, second_tree_seed=None):
    """Pairings of modulated projections across frequency separations.

    g_k is built from f modulated down by eta_k and re-modulated up; the
    normalized pairing against the unmodulated projection decays as the
    separation grows, and vanishes once the measured spectral supports
    disjoin.  "spearman" is the rank correlation (rank_correlation) of
    the pairings against the separations past the first: -1 when every
    step out lowers the pairing, NaN with fewer than two such separations
    or when every pairing is equal.  The config values are checked as
    run checks them, and a projection of L2 norm 0, whose pairing is
    undefined, is refused."""
    _check_config_values(config)
    grid = TorusGrid(config.dim, config.grid_b, config.grid_n)
    lat = 1.0 / (2 * grid.half_width)
    if separations is None:
        separations = [0.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]
    if len(separations) == 0:
        raise ValidationError("separations must hold at least one frequency")
    for eta in separations:
        if not _is_number(eta):
            raise ValidationError(f"separation {eta!r} is not a finite real number")
        if abs(round(eta / lat) * lat - eta) > 1e-9:
            raise ValidationError(f"separation {eta} is off the frequency lattice")
    cfg = build_tree_config(config)
    second_cfg = cfg
    if second_tree_seed is not None:
        second_cfg = build_tree_config(replace(config, tree_seed=second_tree_seed,
                                               leaves=None))
    f = build_f(config, grid)
    # one frame per tree config: its geometry does not depend on f
    frame = ProjectionFrame(cfg, grid, config.strict)
    second = frame if second_cfg == cfg else ProjectionFrame(second_cfg, grid, config.strict)

    def project(eta, on):
        """The projection at separation eta and its L2 norm."""
        shifted = modulate(f, [-eta] + [0.0] * (config.dim - 1))
        g = modulate(assemble(on, shifted).g, [eta] + [0.0] * (config.dim - 1))
        norm = lp_norm(g, 2.0)
        if norm == 0:
            raise ValidationError(f"the projection at separation {eta} has L2 norm 0, "
                                  "so its pairing is undefined")
        return g, norm

    base, base_norm = project(separations[0], frame)
    base_spec = np.abs(physical_spectrum(base))
    table = []
    for i, eta in enumerate(separations):
        other, other_norm = ((base, base_norm) if i == 0 and second is frame
                             else project(eta, second))
        pairing = abs(inner_product(base, other)) / (base_norm * other_norm)
        # magnitude overlap of the spectra: a rigorous phase-free upper
        # bound for the pairing, so small overlap certifies near-orthogonality
        other_spec = np.abs(physical_spectrum(other))
        overlap = float(np.sum(base_spec * other_spec)) / (
            (2 * grid.half_width) ** grid.dim * base_norm * other_norm)
        table.append({"separation": eta - separations[0], "pairing": pairing,
                      "overlap_bound": overlap,
                      "spectra_disjoint": bool(overlap <= 1e-10)})
    seps = [row["separation"] for row in table[1:]]
    pairs = [row["pairing"] for row in table[1:]]
    return {"table": table, "spearman": rank_correlation(seps, pairs)}


# ---------------------------------------------------------------------------
# Frozen regression baselines.

def baselines_path():
    return os.path.join(os.path.dirname(__file__), "baselines.txt")


def load_baselines():
    out = {}
    path = baselines_path()
    if not os.path.exists(path):
        return out
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = float(value.strip())
    return out


def save_baselines(values, notes=None):
    with open(baselines_path(), "w", encoding="utf-8") as fh:
        fh.write("# frozen regression baselines, computed by this implementation\n")
        fh.write("# regenerate with: phaseproj freeze-baselines\n")
        for key in sorted(values):
            note = f"  # {notes[key]}" if notes and key in notes else ""
            fh.write(f"{key} = {values[key]!r}{note}\n")
