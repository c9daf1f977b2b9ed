"""Command-line interface for building, verifying and sweeping projections."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from math import inf

from .acceptance import run_sweep_artifacts, uniformity_by_key
from .errors import PhaseprojError, ValidationError
from .harness import (
    RunConfig,
    baseline_demo,
    modulation_demo,
    parse_p,
    reference_sweep_configs,
    run,
    save_baselines,
    spq_checks,
)


def _add_run_flags(sub):
    sub.add_argument("--config", help="JSON file with a RunConfig; flags override")
    sub.add_argument("--dim", type=int)
    sub.add_argument("--grid-n", type=int)
    sub.add_argument("--grid-b", type=float)
    sub.add_argument("--tree-seed", type=int)
    sub.add_argument("--depth", type=int, dest="tree_depth")
    sub.add_argument("--leaves", type=int, dest="leaf_count")
    sub.add_argument("--f-seed", type=int)
    sub.add_argument("--f-annulus", help="lo,hi frequency annulus for f")
    sub.add_argument("--m", type=int, dest="gap_m")
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--p", help="comma list of exponents: positive numbers or inf")
    sub.add_argument("--window-depth", type=int)
    sub.add_argument("--no-strict", action="store_true")
    sub.add_argument("--out", help="run directory for reports and fields")


def _numbers(text, flag, count=None):
    """The comma-separated numbers given to `flag`, `count` of them if set."""
    try:
        values = [float(v) for v in text.split(",")]
        if count in (None, len(values)):
            return values
    except ValueError:
        pass
    raise ValidationError(
        f"{flag} takes {count or 'one or more'} comma-separated numbers, not {text!r}")


def _config_from_args(args):
    config = RunConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = RunConfig.from_dict(json.load(fh))
    overrides = {}
    for key in ("dim", "grid_n", "grid_b", "tree_seed", "tree_depth",
                "leaf_count", "f_seed", "gap_m", "alpha", "window_depth"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "f_annulus", None):
        overrides["f_annulus"] = tuple(_numbers(args.f_annulus, "--f-annulus", 2))
    if getattr(args, "p", None):
        overrides["p_values"] = tuple(parse_p(p) for p in args.p.split(","))
    if getattr(args, "no_strict", False):
        overrides["strict"] = False
    return dataclasses.replace(config, **overrides)


def _cmd_run(args):
    """build and verify: one run, after which verify prints its checks."""
    record = run(_config_from_args(args), out_dir=args.out)
    if "error" in record:
        print(f"FAILED at stage {record['error']['stage']}: {record['error']['message']}")
        return 1
    if args.command == "build":
        print(f"built projection; config hash {record['config_hash']}")
        if args.out:
            print(f"outputs in {args.out}")
        return 0
    for key, entry in sorted(record["report_summary"].items()):
        status = "finite" if entry["finite"] else "INFINITE"
        print(f"{key}: max ratio {entry['max_ratio']:.6g} over {entry['count']} cubes [{status}]")
    diag = record["diagnostics"]
    print(f"identities: two-route {diag['g_two_route_rel_err']:.2e}, "
          f"support(5U) {diag['support_5u_rel']:.2e}, "
          f"residual {diag.get('residual_rel_err', float('nan')):.2e}")
    return 0


def _cmd_sweep(args):
    seeds = range(args.seeds)
    m_values = tuple(int(v) for v in args.m_list.split(","))
    configs = reference_sweep_configs(seeds=seeds, m_values=m_values,
                                      grid_n=args.grid_n or (1 << 17),
                                      depth=args.depth or 2)
    art = run_sweep_artifacts(configs)
    for config, error in art["failures"]:
        print(f"FAILED seed={config.tree_seed} m={config.gap_m}: "
              f"stage {error['stage']}: {error['message']}")
    for (ineq, p), value in sorted(uniformity_by_key(art["table"]).items(), key=str):
        print(f"{ineq} p={p}: worst uniformity across m = {value:.3f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        art["table"].to_csv(os.path.join(args.out, "sweep.csv"))
        print(f"rows in {args.out}/sweep.csv")
    return 1 if art["failures"] else 0


def _cmd_spq(args):
    config = _config_from_args(args)
    p = parse_p(args.p.split(",")[0]) if args.p else 2.0
    q = parse_p(args.q) if args.q else inf
    reports = spq_checks(config, p, q, n_draws=args.draws, seed=args.draw_seed)
    worst = {}
    for rep in reports:
        if "skipped" in rep.context:
            continue
        slack = rep.rhs_without_constant - rep.lhs
        key = rep.inequality
        worst[key] = min(worst.get(key, float("inf")), slack)
        if rep.inequality == "bernstein":
            print(f"bernstein m={rep.context.get('m')}: ratio {rep.ratio:.6g}")
    for key, slack in sorted(worst.items()):
        if key != "bernstein":
            print(f"{key}: minimal slack {slack:.3e}")
    return 0


def _cmd_mod_demo(args):
    config = _config_from_args(args)
    seps = None
    if args.separations:
        seps = _numbers(args.separations, "--separations")
    result = modulation_demo(config, separations=seps,
                             second_tree_seed=args.second_tree_seed)
    for row in result["table"]:
        tag = " (disjoint spectra)" if row["spectra_disjoint"] else ""
        print(f"separation {row['separation']:8.3f}: pairing {row['pairing']:.3e}{tag}")
    print(f"spearman rank correlation: {result['spearman']:.4f}")
    return 0


def _cmd_baseline(args):
    result = baseline_demo(dim=args.dim or 1, seed=args.tree_seed or 0,
                           depth=args.tree_depth or 3, grid_n=args.grid_n or (1 << 12),
                           f_seed=args.f_seed or 7,
                           csv_path=os.path.join(args.out, "baseline.csv") if args.out else None,
                           smooth_compare=args.smooth_compare)
    for key, value in sorted(result.items()):
        print(f"{key}: {value}")
    return 0


def _cmd_freeze(args):
    from .acceptance import compute_baselines
    values, notes = compute_baselines(verbose=True)
    save_baselines(values, notes)
    print("baselines frozen:")
    for key in sorted(values):
        print(f"  {key} = {values[key]!r}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="phaseproj",
        description="Frequency-localized projections onto dyadic trees")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, text in (("build", "build tree + projection, emit fields"),
                       ("verify", "full inequality suite for one config")):
        sub = subs.add_parser(name, help=text)
        _add_run_flags(sub)
        sub.set_defaults(func=_cmd_run)

    sub = subs.add_parser("sweep", help="reference m/seed sweep")
    sub.add_argument("--seeds", type=int, default=20)
    sub.add_argument("--m-list", default="0,1,2,3")
    sub.add_argument("--grid-n", type=int)
    sub.add_argument("--depth", type=int)
    sub.add_argument("--out")
    sub.set_defaults(func=_cmd_sweep)

    sub = subs.add_parser("spq", help="size comparison checks across exponents")
    _add_run_flags(sub)
    sub.add_argument("--q", default="inf", help="exponent q: a positive number or inf")
    sub.add_argument("--draws", type=int, default=100)
    sub.add_argument("--draw-seed", type=int, default=0)
    sub.set_defaults(func=_cmd_spq)

    sub = subs.add_parser("mod-demo", help="modulation almost-orthogonality demo")
    _add_run_flags(sub)
    sub.add_argument("--separations", help="comma list of lattice frequencies")
    sub.add_argument("--second-tree-seed", type=int)
    sub.set_defaults(func=_cmd_mod_demo)

    sub = subs.add_parser("baseline", help="exact conditional-expectation demo")
    _add_run_flags(sub)
    sub.add_argument("--smooth-compare", action="store_true")
    sub.set_defaults(func=_cmd_baseline)

    sub = subs.add_parser("freeze-baselines",
                          help="recompute and freeze regression baselines")
    sub.set_defaults(func=_cmd_freeze)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PhaseprojError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
