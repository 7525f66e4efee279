#!/usr/bin/env python3
"""Run every registry experiment with its default configuration.

Usage: python scripts/run_all_figures.py [--out DIR] [--svg] [--only NAME ...]

Each experiment takes seconds; the amplifier runs of fig2, fig3 and figS3
take the longest. Outputs land in one subdirectory per experiment, each with
its own manifest.json; the seconds of each stage are printed from it.
"""

import argparse
import dataclasses
import sys
import time

from spinamp.harness.config import OutputSection
from spinamp.harness.experiments import REGISTRY, ExperimentError, default_config, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="base output directory")
    parser.add_argument("--svg", action="store_true", help="also emit SVG charts")
    parser.add_argument("--only", nargs="*", help="subset of experiment names")
    args = parser.parse_args(argv)

    names = args.only if args.only else list(REGISTRY)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")

    for name in names:
        cfg = dataclasses.replace(
            default_config(name),
            output=OutputSection(directory=f"{args.out}/{name}", emit_svg=args.svg),
        )
        print(f"== {name}")
        t0 = time.time()
        try:
            manifest = run_experiment(cfg)
        except ExperimentError as err:
            print(f"   {err}", file=sys.stderr)
            return 1
        print(f"   {len(manifest.outputs)} files in {time.time() - t0:.1f} s")
        for stage in manifest.stages:
            print(f"     {stage['name']}: {stage['seconds']:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
