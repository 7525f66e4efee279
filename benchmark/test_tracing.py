"""The tracer sees every call into the layers, wherever the caller looks the name up.

    python3 -m pytest benchmark/test_tracing.py
"""

import sys
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spinamp.harness.config import apply_overrides, parse_config_text  # noqa: E402
from spinamp.harness.experiments import default_config, run_experiment  # noqa: E402

TINY_GAIN_SCALING = """\
[run]
experiment = figS3_gain_scaling
[sweep]
lo = 20
hi = 40
points = 2
[integration]
t_end = 0
"""


def test_traced_run_counts_every_layer_call(tmp_path):
    name, overrides = parse_config_text(TINY_GAIN_SCALING + f"[output]\ndirectory = {tmp_path}\n")
    cfg = apply_overrides(default_config(name), overrides)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.span("harness.run_experiment", run_experiment)(cfg)
    finally:
        uninstall()
    trace = tracer.to_json()
    trace.update(cpu_s=0.0, calibration={"span_s": 0.0, "count_s": 0.0, "row_s": 0.0})
    m = tracing.layer_metrics(trace)
    # the harness reaches integrate_hierarchy, evolve and write_csv, and
    # evolve reaches solve_ground and rk4_step, through their own imports
    assert m["absorber.integrate_hierarchy.calls"] == 1
    assert m["absorber.rk4_steps"] == 5000  # -5 .. 0 at tau_f / 1000
    assert m["amplifier_dynamics.evolve.calls"] == 2
    assert m["amplifier_dynamics.rk4_steps"] == 2 * 5000
    assert m["amplifier_dynamics.drive_evals"] == 4 * m["amplifier_dynamics.rk4_steps"]
    assert m["lmg_statics.solve_ground.calls"] == 2
    assert m["harness.csv_rows"] == 2
    assert m["absorber.stored_states"] == 5000 // 10 + 1
    assert tracing.self_time_gap(trace) < 1e-9
    # the layer times partition the traced wall time
    wall = m.pop("harness.run_experiment.s")
    parts = [v for k, v in m.items() if k.endswith("self_s") or k.endswith(".s")]
    assert abs(sum(parts) - wall) < 1e-9
    # after uninstall the program runs unwrapped again
    from spinamp import absorber, amplifier_dynamics
    from spinamp.harness import experiments

    assert experiments.integrate_hierarchy is absorber.integrate_hierarchy
    assert "wrapper" not in amplifier_dynamics.rk4_step.__name__
