"""One round of a benchmark workload, in a fresh process.

    python3 worker.py --root DIR --workload NAME --out DIR --spawned T [--setup-only] [--trace FILE]

--spawned is time.monotonic() in the parent just before it started this
process. CLOCK_MONOTONIC is shared by all processes, so setup_s runs from
process start, interpreter start-up included, to a built config. The last
stdout line is one JSON object: setup_s, and unless --setup-only also
wall_s (run_experiment, which ends by verifying the manifest), cpu_s,
peak_rss_mb and the manifest's stage times.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from workloads import config_text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.root) / "src"))
    from spinamp.harness.config import apply_overrides, parse_config_text
    from spinamp.harness.experiments import ExperimentError, default_config, run_experiment

    name, overrides = parse_config_text(config_text(args.workload, args.out))
    cfg = apply_overrides(default_config(name), overrides)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run = run_experiment
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracer.span("harness.run_experiment", run_experiment)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        manifest = run(cfg)
    except ExperimentError as err:
        print(f"{args.workload}: {err}", file=sys.stderr)
        return 1
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    if args.trace:
        trace = tracer.to_json()
        trace.update(wall_s=wall_s, cpu_s=cpu_s, calibration=tracing.calibrate())
        Path(args.trace).write_text(json.dumps(trace), encoding="utf-8")
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "stages": manifest.stages,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
