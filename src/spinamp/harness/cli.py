"""Command line entry points: run experiments, query the oracle, list the registry."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from ..lmg_statics import LmgParams, correlations, order_parameters, solve_ground
from .config import ConfigError, apply_overrides, parse_config_file
from .experiments import REGISTRY, ExperimentError, default_config, run_experiment
from .oracle import brute_force_statics


def _cmd_run(args) -> int:
    try:
        cfg = default_config(args.experiment)
        if args.config is not None:
            named, overrides = parse_config_file(args.config)
            if named is not None and named != args.experiment:
                raise ConfigError(
                    f"config names experiment {named!r} but the command line says "
                    f"{args.experiment!r}"
                )
            cfg = apply_overrides(cfg, overrides)
        updates = {}
        if args.out is not None:
            updates["directory"] = args.out
        if args.svg:
            updates["emit_svg"] = True
        if updates:
            cfg = dataclasses.replace(cfg, output=dataclasses.replace(cfg.output, **updates))
    except (ConfigError, OSError) as err:
        print(f"[config] {err}", file=sys.stderr)
        return 1
    try:
        manifest = run_experiment(cfg)
    except ExperimentError as err:
        print(str(err), file=sys.stderr)
        return 1
    for entry in manifest.outputs:
        print(f"wrote {cfg.output.directory}/{entry['path']}")
    total = sum(s["seconds"] for s in manifest.stages)
    print(f"{cfg.experiment}: {len(manifest.outputs)} files in {total:.1f} s")
    return 0


def _cmd_oracle(args) -> int:
    try:
        ob = brute_force_statics(args.n, args.jx, args.jy, args.bx)
        params = LmgParams(n_qubits=args.n, jx=args.jx, jy=args.jy, bx=args.bx)
        res = solve_ground(params)
        ops = order_parameters(res)
        corr = correlations(res)
    except ValueError as err:
        print(f"[oracle] {err}", file=sys.stderr)
        return 1
    rows = [
        ("e0", ob.e0, res.e0),
        ("gap", ob.gap, res.gap),
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

    p_run = sub.add_parser("run", help="run a registry experiment")
    p_run.add_argument("experiment", help="experiment name (see 'spinamp list')")
    p_run.add_argument("--config", help="sectioned key=value config file")
    p_run.add_argument("--out", help="output directory (overrides config)")
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
