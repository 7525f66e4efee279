"""Command line entry points: run experiments, query the oracle, list the registry."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from ..lmg_statics import EigensolverError, LmgParams, correlations, order_parameters, solve_ground
from .config import ConfigError, OutputSection, apply_overrides, parse_config_text
from .experiments import REGISTRY, ExperimentError, default_config, plan, run_experiment
from .oracle import brute_force_statics


def _run_configs(args) -> list:
    """One config per named experiment, all built before any runs. With no
    name, the experiment that --config's [run] names, or else the whole registry."""
    names = args.experiments or list(REGISTRY)
    overrides = {}
    if args.config is not None:
        named, overrides = parse_config_text(Path(args.config).read_text(encoding="utf-8"))
        if not args.experiments and named is not None:
            names = [named]
        if len(names) > 1:
            raise ConfigError(f"--config applies to one experiment, got {len(names)}")
        if named is not None and named != names[0]:
            raise ConfigError(
                f"config names experiment {named!r} but the command line says {names[0]!r}"
            )
    cfgs = []
    for name in names:
        cfg = apply_overrides(default_config(name), overrides)
        out = args.out if len(names) == 1 else str(Path(args.out or ".") / name)
        output = OutputSection(out or cfg.output.directory, args.svg or cfg.output.emit_svg)
        cfgs.append(dataclasses.replace(cfg, output=output))
    return cfgs


def _cmd_run(args) -> int:
    try:
        cfgs = _run_configs(args)
    except (ConfigError, OSError) as err:
        print(f"[config] {err}", file=sys.stderr)
        return 1
    try:
        shared = plan(cfgs)  # every config is checked before any stage runs
        for cfg in cfgs:
            manifest = run_experiment(cfg, shared)
            for entry in manifest.outputs:
                print(f"wrote {cfg.output.directory}/{entry['path']}")
            for stage in manifest.stages:
                line = f"  {stage['name']}: {stage['seconds']:.2f} s, peak RSS {stage['peak_rss_mb']:.1f} MB"
                if "max_window" in stage:
                    line += f", widest window {stage['max_window']} levels, norm drift {stage['norm_drift']:.2e}"
                if "reused_from" in stage:
                    line += f", reused from {stage['reused_from']}"
                print(line)
            total = sum(s["seconds"] for s in manifest.stages)
            print(f"{cfg.experiment}: {len(manifest.outputs)} files in {total:.1f} s")
    except ExperimentError as err:
        print(str(err), file=sys.stderr)
        return 1
    return 0


def _cmd_oracle(args) -> int:
    try:
        params = LmgParams(n_qubits=args.n, jx=args.jx, jy=args.jy, bx=args.bx)
        ob = brute_force_statics(args.n, args.jx, args.jy, args.bx)
        res = solve_ground(params)
        gap = res.gap
        ops = order_parameters(res)
        corr = correlations(res)
    except (ValueError, EigensolverError) as err:
        print(f"[oracle] {err}", file=sys.stderr)
        return 1
    rows = [
        ("e0", ob.e0, res.e0),
        ("gap", ob.gap, gap),
        ("zeta_x", ob.zeta_x, ops.zeta_x),
        ("zeta_y", ob.zeta_y, ops.zeta_y),
        # the collective ground state is real, so <S_y> and Re<S_x S_y> vanish exactly
        ("c_xy", ob.c_xy, 0.0),
        ("c_xxyy", ob.c_xxyy, corr.c_xxyy),
    ]
    print(f"N={args.n} jx={args.jx} jy={args.jy} bx={args.bx}")
    print(f"{'quantity':>10} {'full 2^N':>24} {'collective':>24} {'|diff|':>12}")
    worst = 0.0
    for name, a, b in rows:
        worst = max(worst, abs(a - b))
        print(f"{name:>10} {a:>24.16g} {b:>24.16g} {abs(a - b):>12.3e}")
    print(f"max |diff| = {worst:.3e}")
    return 0


def _cmd_list(_args) -> int:
    width = max(len(name) for name in REGISTRY)
    for name in REGISTRY:
        print(f"{name:<{width}}  {REGISTRY[name].description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinamp",
        description="single-photon triggered first-order QPT amplifier simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run registry experiments")
    p_run.add_argument(
        "experiments", nargs="*", help="experiment names (see 'spinamp list'); none runs them all"
    )
    p_run.add_argument("--config", help="sectioned key=value config file (one experiment, by default its [run] one)")
    p_run.add_argument(
        "--out", help="output directory (overrides config); with several experiments, OUT/<name>"
    )
    p_run.add_argument("--svg", action="store_true", help="also emit SVG charts")
    p_run.set_defaults(func=_cmd_run)

    p_oracle = sub.add_parser("oracle", help="full 2^N brute-force statics check")
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--jx", type=float, required=True)
    p_oracle.add_argument("--jy", type=float, required=True)
    p_oracle.add_argument("--bx", type=float, default=0.0)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_list = sub.add_parser("list", help="print the experiment registry")
    p_list.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
