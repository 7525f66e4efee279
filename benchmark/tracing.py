"""Spans and counters around calls into spinamp, and the layer metrics they give.

A span records a name, its parent span, a start and an end; spans are kept
in memory and written out once the run ends. Frequent small calls (RK4
steps, drive lookups, Dicke operator builds and expectations) are counted,
not spanned. Wrappers are placed in every spinamp module namespace that
holds the original function, because the harness, criticality and
amplifier_dynamics bind their callees by `from ... import`; patching only
the defining module would miss those calls.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path

MIB = float(1 << 20)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.attrs: dict[int, dict] = {}
        self.counts: Counter = Counter()
        self.rows = 0  # CSV rows passed through write_csv
        self._open: list[int] = []

    def call(self, name, fn, args, kwargs):
        """Run fn inside a span; returns (span index, result)."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts[idx] = time.perf_counter()
        try:
            return idx, fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter()
            self._open.pop()

    def span(self, name, fn, attrs=None):
        def wrapper(*args, **kwargs):
            idx, result = self.call(name, fn, args, kwargs)
            if attrs is not None:
                self.attrs[idx] = attrs(result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count_rows(self, rows):
        for row in rows:
            self.rows += 1
            yield row

    def write_csv(self, fn):
        """write_csv span that also counts rows and output bytes."""

        def wrapper(path, header, rows):
            before = self.rows
            idx, result = self.call("harness.write_csv", fn, (path, header, self.count_rows(rows)), {})
            self.attrs[idx] = {"rows": self.rows - before, "bytes": Path(result).stat().st_size}
            return result

        return wrapper

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "parents": self.parents,
            "starts": self.starts,
            "ends": self.ends,
            "attrs": {str(k): v for k, v in self.attrs.items()},
            "counts": dict(self.counts),
            "rows": self.rows,
        }


def install(tracer: Tracer):
    """Wrap spinamp's layer entry points; returns a function that restores them."""
    from spinamp import absorber, amplifier_dynamics, criticality, dicke, lmg_statics
    from spinamp.harness import experiments

    wrapped = {
        lmg_statics.solve_ground: tracer.span("lmg_statics.solve_ground", lmg_statics.solve_ground),
        lmg_statics.order_parameters: tracer.span("lmg_statics.order_parameters", lmg_statics.order_parameters),
        lmg_statics.correlations: tracer.span("lmg_statics.correlations", lmg_statics.correlations),
        criticality.field_sweep: tracer.span(
            "criticality.field_sweep", criticality.field_sweep, lambda r: {"points": len(r)}
        ),
        criticality.size_sweep: tracer.span(
            "criticality.size_sweep", criticality.size_sweep, lambda r: {"points": len(r)}
        ),
        criticality.fit_power_law: tracer.span("criticality.fit_power_law", criticality.fit_power_law),
        absorber.integrate_hierarchy: tracer.span(
            "absorber.integrate_hierarchy", absorber.integrate_hierarchy, lambda r: {"states": len(r.states)}
        ),
        amplifier_dynamics.evolve: tracer.span(
            "amplifier_dynamics.evolve", amplifier_dynamics.evolve, lambda r: {"state_bytes": r.states.nbytes}
        ),
        amplifier_dynamics.quantum_gain: tracer.span("amplifier_dynamics.quantum_gain", amplifier_dynamics.quantum_gain),
        amplifier_dynamics.q_function: tracer.span("amplifier_dynamics.q_function", amplifier_dynamics.q_function),
        dicke.build_collective_operator: tracer.counter("dicke.build_collective_operator", dicke.build_collective_operator),
        dicke.expectation: tracer.counter("dicke.expectation", dicke.expectation),
        experiments.write_csv: tracer.write_csv(experiments.write_csv),
        experiments.sha256_file: tracer.span("harness.sha256_file", experiments.sha256_file),
        experiments.verify_manifest: tracer.span("harness.verify_manifest", experiments.verify_manifest),
    }
    restore = []

    def patch(owner, attr, value):
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    by_id = {id(original): wrapper for original, wrapper in wrapped.items()}
    modules = [m for n, m in list(sys.modules.items()) if n == "spinamp" or n.startswith("spinamp.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                patch(module, attr, by_id[id(value)])
    # one rk4_step object serves both integrators; count each caller apart
    patch(absorber, "rk4_step", tracer.counter("absorber.rk4_step", absorber.rk4_step))
    patch(amplifier_dynamics, "rk4_step", tracer.counter("amplifier_dynamics.rk4_step", amplifier_dynamics.rk4_step))
    drive = amplifier_dynamics.DriveSchedule
    patch(drive, "pe_at", tracer.counter("amplifier_dynamics.DriveSchedule.pe_at", drive.pe_at))

    def uninstall():
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)

    return uninstall


def calibrate(repeats: int = 20000) -> dict:
    """Seconds each kind of wrapper adds per call: wrapped minus bare no-op."""

    def noop(*args):
        return None

    def best_of_three(run):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - t0)
        return best / repeats

    def calls(fn):
        def run():
            for _ in range(repeats):
                fn(1)

        return run

    def iterate(rows):
        def run():
            for _ in rows():
                pass

        return run

    tracer = Tracer()
    items = list(range(repeats))
    bare = best_of_three(calls(noop))
    return {
        "span_s": best_of_three(calls(tracer.span("calibration", noop))) - bare,
        "count_s": best_of_three(calls(tracer.counter("calibration", noop))) - bare,
        "row_s": best_of_three(iterate(lambda: tracer.count_rows(items)))
        - best_of_three(iterate(lambda: iter(items))),
    }


def _self_times(trace: dict) -> list[float]:
    """Span duration minus the durations of its direct children."""
    own = [end - start for start, end in zip(trace["starts"], trace["ends"])]
    self_t = list(own)
    for idx, parent in enumerate(trace["parents"]):
        if parent >= 0:
            self_t[parent] -= own[idx]
    return self_t


def self_time_gap(trace: dict) -> float:
    """|sum of all self times - root span duration|; zero up to rounding."""
    roots = [i for i, p in enumerate(trace["parents"]) if p < 0]
    total = sum(trace["ends"][i] - trace["starts"][i] for i in roots)
    return abs(sum(_self_times(trace)) - total)


def layer_metrics(trace: dict) -> dict:
    """Per-layer numbers from one traced run; see the README for the map to end-to-end metrics."""
    names, parents = trace["names"], trace["parents"]
    attrs = {int(k): v for k, v in trace["attrs"].items()}
    counts = trace["counts"]
    self_t = _self_times(trace)
    total = [end - start for start, end in zip(trace["starts"], trace["ends"])]

    def spans(name):
        return [i for i, n in enumerate(names) if n == name]

    def self_s(*names_):
        return sum(self_t[i] for n in names_ for i in spans(n))

    def total_s(name):
        return sum(total[i] for i in spans(name))

    def attr_sum(name, key):
        return sum(attrs[i][key] for i in spans(name))

    def under(idx, ancestors):
        while parents[idx] >= 0:
            idx = parents[idx]
            if names[idx] in ancestors:
                return True
        return False

    sweeps = ("criticality.field_sweep", "criticality.size_sweep")
    sweep_points = sum(attr_sum(n, "points") for n in sweeps)
    sweep_solves = sum(1 for i in spans("lmg_statics.solve_ground") if under(i, sweeps))
    abs_steps = counts.get("absorber.rk4_step", 0)
    abs_self = self_s("absorber.integrate_hierarchy")
    evolve_bytes = [attrs[i]["state_bytes"] for i in spans("amplifier_dynamics.evolve")]
    calib = trace["calibration"]
    n_counted = sum(counts.values())
    root = spans("harness.run_experiment")
    return {
        "dicke.build_collective_operator.calls": counts.get("dicke.build_collective_operator", 0),
        "dicke.expectation.calls": counts.get("dicke.expectation", 0),
        "lmg_statics.solve_ground.calls": len(spans("lmg_statics.solve_ground")),
        "lmg_statics.solve_ground.self_s": self_s("lmg_statics.solve_ground"),
        "lmg_statics.observables.self_s": self_s("lmg_statics.order_parameters", "lmg_statics.correlations"),
        "criticality.field_sweep.self_s": self_s("criticality.field_sweep"),
        "criticality.size_sweep.self_s": self_s("criticality.size_sweep"),
        "criticality.fit_power_law.s": total_s("criticality.fit_power_law"),
        "criticality.solves_per_point": sweep_solves / sweep_points if sweep_points else 0.0,
        "absorber.integrate_hierarchy.calls": len(spans("absorber.integrate_hierarchy")),
        "absorber.integrate_hierarchy.self_s": abs_self,
        "absorber.rk4_steps": abs_steps,
        "absorber.us_per_step": 1e6 * abs_self / abs_steps if abs_steps else 0.0,
        "absorber.stored_states": attr_sum("absorber.integrate_hierarchy", "states"),
        "amplifier_dynamics.evolve.calls": len(spans("amplifier_dynamics.evolve")),
        "amplifier_dynamics.evolve.self_s": self_s("amplifier_dynamics.evolve"),
        "amplifier_dynamics.rk4_steps": counts.get("amplifier_dynamics.rk4_step", 0),
        "amplifier_dynamics.drive_evals": counts.get("amplifier_dynamics.DriveSchedule.pe_at", 0),
        "amplifier_dynamics.stored_state_mb": max(evolve_bytes, default=0) / MIB,
        "amplifier_dynamics.quantum_gain.s": total_s("amplifier_dynamics.quantum_gain"),
        "amplifier_dynamics.q_function.self_s": self_s("amplifier_dynamics.q_function"),
        "harness.write_csv.self_s": self_s("harness.write_csv"),
        "harness.csv_rows": attr_sum("harness.write_csv", "rows"),
        "harness.output_mb": attr_sum("harness.write_csv", "bytes") / MIB,
        "harness.manifest.s": self_s("harness.sha256_file", "harness.verify_manifest"),
        "harness.run_experiment.self_s": self_s("harness.run_experiment"),
        "harness.run_experiment.s": sum(total[i] for i in root),
        "process.cpu_s": trace["cpu_s"],
        "tracing.overhead_s": len(names) * calib["span_s"]
        + n_counted * calib["count_s"]
        + trace["rows"] * calib["row_s"],
    }
