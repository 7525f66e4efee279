"""Benchmark entry point: run one workload, check its outputs, print its metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. A round runs the workload's registry
experiment once, in a fresh worker process, with BLAS threads capped at the
CPUs this process may use; one process works at a time. Rounds run back to
back until S seconds have passed, and each metric is the median over the
rounds. After the last round, the first round's outputs are checked, and
every later round must reproduce them byte for byte. With --trace 0 the
run tops the set-up samples up to SETUP_SAMPLES with set-up-only workers
and reports wall_s, setup_s and peak_rss_mb; with --trace 1 the rounds run
under spans and the run reports the per-layer metrics instead. The last
stdout line is one JSON object: correct, attempted, failed, metrics.

The inputs are fixed registry configurations; the program takes no random
input, so the seed only names the run directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

SETUP_SAMPLES = 7
ROUND_TIMEOUT_S = 120  # a 40-s run ends within 180 s even if its second round hangs
SWITCH_S = 0.5
SELF_TIME_TOLERANCE_S = 1e-6


def unit_of(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("us_per_step"):
        return "us"
    if metric.endswith("solves_per_point"):
        return "solve/point"
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    return "count"


def rotate_threads(pid: int, turn: int, cpus: list) -> None:
    """Pin the worker's main thread to cpus[turn % len(cpus)] and its other threads to the rest.

    The other threads are the BLAS pools started at import; they keep CPUs
    of their own, so a BLAS call still runs on all the CPUs.
    """
    main = cpus[turn % len(cpus)]
    rest = set(cpus) - {main}
    try:
        for tid in (int(t) for t in os.listdir(f"/proc/{pid}/task")):
            os.sched_setaffinity(tid, {main} if tid == pid else rest)
    except (FileNotFoundError, ProcessLookupError):
        pass  # the worker, or one of its threads, has just ended


def start_worker(bench: Path, root: Path, env, workload: str, out: Path, extra=()):
    """Run one worker to its end; returns its JSON report, or None if it failed.

    Every SWITCH_S the worker's main thread moves to the next CPU this
    process may use, so that a round samples each CPU equally: on a shared
    host each vCPU's speed moves on its own, and an unmoved single-threaded
    worker would measure whichever vCPU it happened to stay on.
    """
    cmd = [sys.executable, str(bench / "worker.py"), "--root", str(root), "--workload", workload,
           "--out", str(out), *extra]
    cpus = sorted(os.sched_getaffinity(0))
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    turn = 0
    while True:
        try:
            stdout, stderr = proc.communicate(timeout=SWITCH_S)
            break
        except subprocess.TimeoutExpired:
            if time.monotonic() - spawned > ROUND_TIMEOUT_S:
                proc.kill()
                proc.communicate()
                print(f"{workload}: worker exceeded {ROUND_TIMEOUT_S} s", file=sys.stderr)
                return None
            if len(cpus) > 1:
                turn += 1
                rotate_threads(proc.pid, turn, cpus)
    if proc.returncode != 0:
        print(stderr.strip(), file=sys.stderr)
        return None
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = Path(__file__).resolve().parent
    root = bench.parent
    if not (root / "src" / "spinamp" / "__init__.py").is_file():
        print(f"no spinamp source tree under {root}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    runs = bench / "runs"
    runs.mkdir(exist_ok=True)
    env = dict(os.environ)
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.setdefault(var, cpus)

    reports, problems, rounds = [], [], []
    attempted = failed = 0
    begin = time.monotonic()
    # rounds run back to back; their outputs are checked after the window
    while attempted == 0 or time.monotonic() - begin < args.seconds:
        attempted += 1
        tag = f"{args.workload}-seed{args.seed}-{attempted}"
        out = runs / tag
        trace_file = runs / f"trace-{tag}.json"
        shutil.rmtree(out, ignore_errors=True)
        extra = ("--trace", str(trace_file)) if args.trace else ()
        report = start_worker(bench, root, env, args.workload, out, extra)
        if report is None:
            failed += 1
            shutil.rmtree(out, ignore_errors=True)
        else:
            reports.append(report)
            rounds.append((out, trace_file))

    first_digests = None
    for number, ((out, trace_file), report) in enumerate(zip(rounds, reports), start=1):
        # the first round is checked in full; reruns of the same
        # config must give byte-identical outputs
        problems += checks.run_checks(args.workload, out, full=first_digests is None)
        digests = checks.output_digests(out)
        if first_digests is None:
            first_digests = digests
        elif digests != first_digests:
            problems.append(f"round {number}: outputs differ from the first round's")
        if args.trace:
            trace = json.loads(trace_file.read_text(encoding="utf-8"))
            gap = tracing.self_time_gap(trace)
            if gap > SELF_TIME_TOLERANCE_S:
                problems.append(f"self times miss the traced wall time by {gap:.3e} s")
            report["layers"] = tracing.layer_metrics(trace)
        for stage in report["stages"]:
            print(f"round {number}: {stage['name']} {stage['seconds']:.3f} s")
        print(f"round {number}: wall {report['wall_s']:.3f} s")
        shutil.rmtree(out, ignore_errors=True)

    metrics = {}
    if reports and args.trace:
        for name in reports[0]["layers"]:
            value = statistics.median(r["layers"][name] for r in reports)
            metrics[name] = {"value": value, "unit": unit_of(name)}
    elif reports:
        setups = [r["setup_s"] for r in reports]
        for _ in range(SETUP_SAMPLES - len(setups)):
            probe = start_worker(bench, root, env, args.workload, runs / "setup-probe", ("--setup-only",))
            if probe is None:
                problems.append("set-up probe failed")
            else:
                setups.append(probe["setup_s"])
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in reports), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reports), "unit": "MB"},
        }
    for problem in problems:
        print(f"{args.workload}: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and bool(reports),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if reports else 1


if __name__ == "__main__":
    sys.exit(main())
