"""Experiment registry: each entry reproduces one figure-level result.

Outputs are CSV files with fixed column schemas (17 significant digits,
byte-identical across reruns of the same config) plus a manifest.json
written last, carrying the config echo, per-stage wall times, and SHA-256
digests of every emitted file. SVG emission is optional and presentational.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import __version__
from ..absorber import AbsorberParams, PulseEnvelope, integrate_hierarchy
from ..amplifier_dynamics import DriveSchedule, check_step, evolve, q_function, quantum_gain
from ..criticality import SizePoint, SweepPoint, field_sweep, fit_power_law, size_sweep
from ..lmg_statics import LmgParams
from ..stepping import sample_grid, sample_index
from . import svgplot
from .config import (
    ConfigError,
    CouplingSection,
    ExperimentConfig,
    IntegrationSection,
    ModelSection,
    SweepSection,
    serialize_config,
    untaken,
)

# Power-law fit windows (in units of epsilon). The correlator and gap
# windows sit in the measured scaling regime at N=1000: local log-log
# slopes are stationary there, and halving the window moves the fitted
# exponents by < 0.05. The susceptibility window lies above the
# finite-size crossover field ~2/N^2 = 2e-6 but for its lowest three points;
# at N=1000 the local slope of chi = dM_x/dB_x there runs from -1.73 to
# -1.15 and the fitted exponent is ~-1.55 (r2 ~ 0.9995).
CHI_FIT_WINDOW = (1e-6, 1e-4)
CXXYY_FIT_WINDOW = (1e-4, 1e-2)
GAP_FIT_WINDOW = (1e-4, 1e-2)

FLOAT_FMT = "%.17g"
FIG3_SNAPSHOTS = (-5.0, 3.0, 10.0, 18.0)


class ExperimentError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class RunManifest:
    experiment: str
    version: str
    config_text: str
    stages: list = field(default_factory=list)  # [{"name":..., "seconds":...}]
    outputs: list = field(default_factory=list)  # [{"path":..., "sha256":...}]

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)


class _Run:
    """One run's stages and the files it writes into out, SVG only if asked for."""

    def __init__(self, out: Path, emit_svg: bool):
        self.out = out
        self.emit_svg = emit_svg
        self.files = []
        self.records = []
        self.current = "setup"

    @contextlib.contextmanager
    def stage(self, name):
        self.current = name
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.records.append({"name": name, "seconds": time.perf_counter() - t0})

    def csv(self, name, header, rows):
        self.files.append(write_csv(self.out / name, header, rows))

    def chart(self, name, *args, **kwargs):
        if self.emit_svg:
            self.files.append(svgplot.svg_chart(self.out / name, *args, **kwargs))

    def heatmap(self, name, *args):
        if self.emit_svg:
            self.files.append(svgplot.svg_heatmap(self.out / name, *args))


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return FLOAT_FMT % float(v)


def write_csv(path: Path, header, rows) -> Path:
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} != header width {len(header)} in {path.name}")
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def verify_manifest(manifest_path) -> bool:
    """Re-hash every output listed in a manifest; False on any mismatch."""
    manifest_path = Path(manifest_path)
    data = json.loads(manifest_path.read_text())
    base = manifest_path.parent
    for entry in data["outputs"]:
        target = base / entry["path"]
        if not target.exists() or sha256_file(target) != entry["sha256"]:
            return False
    return True


# --------------------------------------------------------------------------
# shared pieces

SWEEP_CSV = tuple(f.name for f in dataclasses.fields(SweepPoint))
GAIN_CSV = ("t", "pe", "sx2", "sy2", "gain")
QFUNC_CSV = ("theta", "phi", "q")
TMAP_CSV = ("delta_pp", "gamma", "pe_steady")
SIZE_CSV = SizePoint._fields
FITS_CSV = ("quantity", "exponent", "log_amplitude", "r_squared", "window_lo", "window_hi", "n_points")
GAIN_SCALING_CSV = ("n", "g_max", "t_am")
ABSORPTION_CSV = ("t", "pe")


def _drive_from_absorber(cfg: ExperimentConfig) -> DriveSchedule:
    grid = cfg.integration
    trace = integrate_hierarchy(cfg.absorber, cfg.pulse, grid.t_start, grid.t_end, dt=grid.dt)
    return DriveSchedule.from_trace(trace, bx=cfg.coupling.bx)


def _lmg_params(cfg: ExperimentConfig, n_qubits: int, jx: float) -> LmgParams:
    return LmgParams(n_qubits=n_qubits, jx=float(jx), jy=cfg.model.jy, epsilon=cfg.model.epsilon)


def _amplify(cfg: ExperimentConfig, drive: DriveSchedule, n_qubits: int, jx: float):
    """Amplifier trajectory at (n_qubits, jx) over the configured time grid."""
    grid = cfg.integration
    return evolve(
        _lmg_params(cfg, n_qubits, jx),
        drive,
        t_start=grid.t_start,
        t_end=grid.t_end,
        dt=grid.dt,
        sample_every=grid.sample_every,
    )


def _fit_row(name, fit):
    return (
        name,
        fit.exponent,
        fit.log_amplitude,
        fit.r_squared,
        fit.window[0],
        fit.window[1],
        fit.n_points,
    )


def _tag(value: float) -> str:
    return ("%g" % value).replace(".", "p").replace("-", "m")


def _grid_rows(x, y, values):
    """Rows (x[i], y[j], values[i, j]), x-major."""
    return zip(np.repeat(x, y.size), np.tile(y, x.size), values.ravel())


# --------------------------------------------------------------------------
# runners


def _run_fig2(cfg, run):
    with run.stage("absorber"):
        drive = _drive_from_absorber(cfg)
    curves = []
    for jx in cfg.sweep.values():
        with run.stage(f"dynamics-jx={jx:g}"):
            traj = _amplify(cfg, drive, cfg.model.n_qubits, jx)
            gain = quantum_gain(traj, t_arrival=cfg.pulse.t_arrival)
            pe = drive.pe_at(traj.times)
            rows = zip(traj.times, pe, traj.sx2, traj.sy2, gain.gain)
            run.csv(f"gain_jx{_tag(jx)}.csv", GAIN_CSV, rows)
            curves.append((traj.times, gain.gain, f"jx={jx:g}", "line"))
    run.chart("gain_vs_bias.svg", curves, "t", "G(t)", "quantum gain vs bias", logy=True)


def _check_driven(cfg):
    """The amplifier's step must be within its propagation bound."""
    check_step(cfg.integration.dt)


def _check_fig3(cfg):
    """The driven check, and each snapshot time must be a stored amplifier sample."""
    _check_driven(cfg)
    grid = cfg.integration
    _, times = sample_grid(grid.t_start, grid.t_end, grid.dt, grid.sample_every)
    for t_snap in FIG3_SNAPSHOTS:
        sample_index(times, t_snap)


def _run_fig3(cfg, run):
    with run.stage("absorber"):
        drive = _drive_from_absorber(cfg)
    for jx in cfg.sweep.values():
        with run.stage(f"dynamics-jx={jx:g}"):
            traj = _amplify(cfg, drive, cfg.model.n_qubits, jx)
        with run.stage(f"qfunction-jx={jx:g}"):
            for t_snap in FIG3_SNAPSHOTS:
                grid = q_function(traj.state_at(t_snap), traj.params.space)
                name = f"qfunction_jx{_tag(jx)}_t{_tag(t_snap)}"
                run.csv(f"{name}.csv", QFUNC_CSV, _grid_rows(grid.theta, grid.phi, grid.values))
                title = f"Q(theta, phi) at t={t_snap:g}, jx={jx:g}"
                run.heatmap(f"{name}.svg", grid.phi, grid.theta, grid.values, "phi", "theta", title)


def _run_fig4(cfg, run):
    params = _lmg_params(cfg, cfg.model.n_qubits, cfg.model.jx)
    with run.stage("field-sweep"):
        points = field_sweep(params, cfg.sweep.values())
    run.csv("susceptibility_sweep.csv", SWEEP_CSV, map(dataclasses.astuple, points))
    with run.stage("fit"):
        chi_fit = fit_power_law([(p.bx, p.chi) for p in points], CHI_FIT_WINDOW)
        run.csv("fits.csv", FITS_CSV, [_fit_row("chi", chi_fit)])
    with run.stage("size-sweep"):
        rows = size_sweep(cfg.model.jx, 1e-5, np.arange(200, 2001, 200), epsilon=cfg.model.epsilon)
        run.csv("chi_vs_n.csv", SIZE_CSV, rows)
    run.chart(
        "susceptibility.svg",
        [([p.bx for p in points], [p.chi for p in points], "chi", "dots")],
        "bx",
        "chi",
        f"susceptibility, fitted exponent {chi_fit.exponent:.3f}",
        logx=True,
        logy=True,
    )
    run.chart(
        "chi_vs_n.svg",
        [([r.n for r in rows], [r.chi for r in rows], "chi", "dots")],
        "N",
        "chi",
        "susceptibility vs qubit number",
    )


def _run_fig5(cfg, run):
    params = _lmg_params(cfg, cfg.model.n_qubits, cfg.model.jx)
    with run.stage("field-sweep"):
        points = field_sweep(params, cfg.sweep.values())
    run.csv("correlation_gap_sweep.csv", SWEEP_CSV, map(dataclasses.astuple, points))
    with run.stage("fit"):
        c_fit = fit_power_law([(p.bx, abs(p.c_xxyy)) for p in points], CXXYY_FIT_WINDOW)
        gap_fit = fit_power_law([(p.bx, p.gap) for p in points], GAP_FIT_WINDOW)
        run.csv("fits.csv", FITS_CSV, [_fit_row("abs_c_xxyy", c_fit), _fit_row("gap", gap_fit)])
    run.chart(
        "correlation_gap.svg",
        [
            ([p.bx for p in points], [abs(p.c_xxyy) for p in points], "|C_xxyy|", "dots"),
            ([p.bx for p in points], [p.gap for p in points], "gap", "dots"),
        ],
        "bx",
        "value",
        f"correlator exponent {-c_fit.exponent:.3f}, gap exponent {gap_fit.exponent:.3f}",
        logx=True,
        logy=True,
    )


def _run_figs1(cfg, run):
    grid = cfg.integration
    with run.stage("absorber"):
        trace = integrate_hierarchy(cfg.absorber, cfg.pulse, grid.t_start, grid.t_end, dt=grid.dt)
    run.csv("absorption.csv", ABSORPTION_CSV, zip(trace.times, trace.pe))
    run.chart(
        "absorption.svg",
        [(trace.times, trace.pe, "P_e(t)", "line")],
        "t",
        "P_e",
        f"absorption, steady value {trace.pe_steady:.4f}",
    )


def _run_figs2(cfg, run):
    grid = cfg.integration
    # one cell per (delta_pp, gamma), both decay rates set to gamma
    d, g = np.meshgrid(cfg.sweep.values(), np.linspace(5.0, 40.0, 8), indexing="ij")
    with run.stage("transduction-map"):
        trace = integrate_hierarchy(AbsorberParams(d, g, g), cfg.pulse, grid.t_start, grid.t_end, grid.dt)
    run.csv("transduction_map.csv", TMAP_CSV, zip(d.ravel(), g.ravel(), trace.pe_steady.ravel()))
    title = "steady transduction probability"
    run.heatmap("transduction_map.svg", g[0], d[:, 0], trace.pe_steady, "gamma", "delta_pp", title)


def _run_figs3(cfg, run):
    with run.stage("absorber"):
        drive = _drive_from_absorber(cfg)
    rows = []
    for n in cfg.sweep.values():
        n = int(round(n))
        with run.stage(f"dynamics-n={n}"):
            # no name holds the trajectory, so its states are freed before the next N runs
            gain = quantum_gain(_amplify(cfg, drive, n, cfg.model.jx), t_arrival=cfg.pulse.t_arrival)
            rows.append((n, gain.g_max, gain.t_am))
    run.csv("gain_scaling.csv", GAIN_SCALING_CSV, rows)
    run.chart(
        "gain_scaling.svg",
        [([r[0] for r in rows], [r[1] for r in rows], "g_max", "dots")],
        "N",
        "g_max",
        "gain vs qubit number",
    )


def _run_figs8(cfg, run):
    curves = []
    for n in (500, 1000, 2000):
        with run.stage(f"field-sweep-n={n}"):
            points = field_sweep(_lmg_params(cfg, n, cfg.model.jx), cfg.sweep.values())
        run.csv(f"eta_n{n}.csv", SWEEP_CSV, map(dataclasses.astuple, points))
        curves.append(([p.bx for p in points], [p.eta for p in points], f"N={n}", "line"))
    run.chart("eta.svg", curves, "bx", "eta", "correlated fraction vs field", logx=True)


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    defaults: ExperimentConfig  # sections and fields left None are not taken
    runner: object  # runner(cfg, run) computes and writes through the _Run
    check: object = None  # check(cfg) raises ValueError on a config the runner cannot use


def _exp(name, description, runner, check=None, **sections):
    return Experiment(
        name=name,
        description=description,
        defaults=ExperimentConfig(experiment=name, **sections),
        runner=runner,
        check=check,
    )


# The paper's pulse through the absorber into the amplifier at B_x = 0.01.
_DRIVEN = dict(
    coupling=CouplingSection(bx=0.01),
    pulse=PulseEnvelope(tau_f=1.0, t_arrival=0.0),
    absorber=AbsorberParams(delta_pp=10.0, gamma_fg=20.0, gamma_he=20.0),
    integration=IntegrationSection(dt=1e-3, t_start=-5.0, t_end=20.0, sample_every=25),
)
# Non-critical and critical J_x at N = 400; the sweep sets J_x.
_BIAS_PAIR = dict(
    model=ModelSection(n_qubits=400, jx=None, jy=0.7),
    sweep=SweepSection(lo=0.5, hi=0.675, points=2, spacing="linear"),
)
# The N = 1000 field sweep on the transition line J_x = J_y.
_LINE_SWEEP = dict(
    model=ModelSection(n_qubits=1000, jx=0.7, jy=0.7),
    sweep=SweepSection(lo=1e-6, hi=1e-2, points=33, spacing="log"),
)

REGISTRY = {
    e.name: e
    for e in (
        _exp(
            "fig2_gain_vs_bias",
            "gain traces for a J_x bias grid at N=400, J_y=0.7, B_x=0.01",
            _run_fig2,
            _check_driven,
            **_BIAS_PAIR,
            **_DRIVEN,
        ),
        _exp(
            "fig3_qfunction",
            "Q-function snapshots at t in {-5,3,10,18} for critical and non-critical bias",
            _run_fig3,
            _check_fig3,
            **_BIAS_PAIR,
            **_DRIVEN,
        ),
        _exp(
            "fig4_susceptibility",
            "field sweep at the transition, susceptibility exponent fit, chi vs N",
            _run_fig4,
            **_LINE_SWEEP,
        ),
        _exp(
            "fig5_correlation_gap",
            "higher-order correlator and gap sweeps with exponent fits",
            _run_fig5,
            **_LINE_SWEEP,
        ),
        _exp(
            "figS1_absorption",
            "time-dependent absorption probability P_e(t)",
            _run_figs1,
            pulse=PulseEnvelope(tau_f=1.0, t_arrival=0.0),
            absorber=AbsorberParams(delta_pp=5.0, gamma_fg=10.0, gamma_he=10.0),
            integration=IntegrationSection(dt=1e-3, t_start=-5.0, t_end=15.0),
        ),
        _exp(
            "figS2_transduction_map",
            "steady transduction probability over a (delta_pp, gamma) grid",
            _run_figs2,
            pulse=PulseEnvelope(tau_f=1.0, t_arrival=0.0),
            sweep=SweepSection(lo=0.0, hi=20.0, points=6, spacing="linear"),
            integration=IntegrationSection(dt=1e-3, t_start=-5.0, t_end=10.0),
        ),
        _exp(
            "figS3_gain_scaling",
            "maximum gain and amplification time vs qubit number",
            _run_figs3,
            _check_driven,
            model=ModelSection(n_qubits=None, jx=0.675, jy=0.7),
            sweep=SweepSection(lo=100, hi=400, points=3, spacing="log"),
            **_DRIVEN,
        ),
        _exp(
            "figS8_eta",
            "rescaled correlation eta vs field for several qubit numbers",
            _run_figs8,
            model=ModelSection(n_qubits=None, jx=0.7, jy=0.7),
            sweep=SweepSection(lo=1e-6, hi=1e-2, points=25, spacing="log"),
        ),
    )
}


def default_config(experiment: str) -> ExperimentConfig:
    if experiment not in REGISTRY:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {sorted(REGISTRY)}"
        )
    return REGISTRY[experiment].defaults


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    if cfg.experiment not in REGISTRY:
        raise ExperimentError("config", f"unknown experiment {cfg.experiment!r}")
    entry = REGISTRY[cfg.experiment]
    extra = untaken(cfg, entry.defaults)
    if extra is not None:
        raise ExperimentError("config", f"experiment {cfg.experiment} does not take {extra}")
    try:
        if cfg.pulse is not None:  # every run with a pulse starts in its tail
            cfg.pulse.check_start(cfg.integration.t_start)
        if entry.check is not None:
            entry.check(cfg)
    except ValueError as err:
        raise ExperimentError("config", f"[integration] {err}") from err
    out = Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    run = _Run(out, cfg.output.emit_svg)
    try:
        entry.runner(cfg, run)
    except Exception as err:
        raise ExperimentError(run.current, str(err)) from err

    manifest = RunManifest(
        experiment=cfg.experiment,
        version=__version__,
        config_text=serialize_config(cfg),
        stages=run.records,
        outputs=[{"path": f.name, "sha256": sha256_file(f)} for f in run.files],
    )
    manifest_path = out / "manifest.json"
    manifest_path.write_text(manifest.to_json(), encoding="utf-8")
    if not verify_manifest(manifest_path):
        raise ExperimentError("manifest", "output digest verification failed after write")
    return manifest
