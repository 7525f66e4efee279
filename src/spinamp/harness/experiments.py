"""Experiment registry: each entry reproduces one figure-level result.

Outputs are CSV files with fixed column schemas (17 significant digits,
byte-identical across reruns of the same config) plus a manifest.json
written last, carrying the config echo, per-stage wall times, and SHA-256
digests of every emitted file. SVG emission is optional and presentational.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import __version__
from ..absorber import SAMPLE_EVERY, AbsorberParams, PulseEnvelope, integrate_hierarchy, optimize_transduction
from ..amplifier_dynamics import DriveSchedule, evolve, q_function, quantum_gain
from ..criticality import SizePoint, SweepPoint, field_sweep, fit_power_law, size_sweep
from ..lmg_statics import LmgParams
from . import svgplot
from .config import (
    AbsorberSection,
    ConfigError,
    CouplingSection,
    ExperimentConfig,
    IntegrationSection,
    ModelSection,
    PulseSection,
    SweepSection,
    serialize_config,
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


class _StageClock:
    def __init__(self):
        self.records = []
        self.current = "setup"

    def stage(self, name):
        clock = self

        class _Ctx:
            def __enter__(self_inner):
                clock.current = name
                self_inner.t0 = time.perf_counter()
                return self_inner

            def __exit__(self_inner, exc_type, exc, tb):
                clock.records.append(
                    {"name": name, "seconds": time.perf_counter() - self_inner.t0}
                )
                return False

        return _Ctx()


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


def _absorber_params(cfg: ExperimentConfig) -> AbsorberParams:
    a, p = cfg.absorber, cfg.pulse
    return AbsorberParams(
        delta_pp=a.delta_pp,
        gamma_fg=a.gamma_fg,
        gamma_he=a.gamma_he,
        tau_f=p.tau_f,
        t_arrival=p.t_arrival,
        eta_scatter=a.eta,
        phase=a.phase,
    )


def _check_drive_start(cfg: ExperimentConfig) -> None:
    """The amplifier and the absorber both start at t_start, before the pulse.

    The absorber trace must begin in the vacuum, 5 tau_f ahead of the pulse
    centre, and the amplifier may not start after the trace's first sample.
    """
    latest = cfg.pulse.t_arrival - 5.0 * cfg.pulse.tau_f
    if cfg.integration.t_start > latest:
        raise ExperimentError(
            "config",
            f"[integration] t_start = {cfg.integration.t_start:g} is later than "
            f"t_arrival - 5 tau_f = {latest:g}",
        )


def _drive_from_absorber(cfg: ExperimentConfig) -> DriveSchedule:
    grid = cfg.integration
    trace = integrate_hierarchy(_absorber_params(cfg), grid.t_start, grid.t_end, dt=grid.dt)
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


def _jx_tag(jx: float) -> str:
    return ("%g" % jx).replace(".", "p").replace("-", "m")


# --------------------------------------------------------------------------
# runners


def _run_fig2(cfg, out, clock, emit_svg):
    with clock.stage("absorber"):
        drive = _drive_from_absorber(cfg)
    files = []
    curves = []
    for jx in cfg.sweep.values():
        with clock.stage(f"dynamics-jx={jx:g}"):
            traj = _amplify(cfg, drive, cfg.model.n_qubits, jx)
            gain = quantum_gain(traj, t_arrival=cfg.pulse.t_arrival)
            pe = drive.pe_at(traj.times)
            rows = zip(traj.times, pe, traj.sx2, traj.sy2, gain.gain)
            files.append(write_csv(out / f"gain_jx{_jx_tag(float(jx))}.csv", GAIN_CSV, rows))
            curves.append((traj.times, gain.gain, f"jx={jx:g}", "line"))
    if emit_svg:
        files.append(
            svgplot.svg_chart(
                out / "gain_vs_bias.svg", curves, "t", "G(t)", "quantum gain vs bias", logy=True
            )
        )
    return files


def _run_fig3(cfg, out, clock, emit_svg):
    snapshots = (-5.0, 3.0, 10.0, 18.0)
    with clock.stage("absorber"):
        drive = _drive_from_absorber(cfg)
    files = []
    for jx in cfg.sweep.values():
        with clock.stage(f"dynamics-jx={jx:g}"):
            traj = _amplify(cfg, drive, cfg.model.n_qubits, jx)
        with clock.stage(f"qfunction-jx={jx:g}"):
            for t_snap in snapshots:
                grid = q_function(traj.state_at(t_snap), traj.params.space)
                rows = (
                    (grid.theta[i], grid.phi[j], grid.values[i, j])
                    for i in range(grid.theta.size)
                    for j in range(grid.phi.size)
                )
                name = f"qfunction_jx{_jx_tag(float(jx))}_t{('%g' % t_snap).replace('-', 'm')}"
                files.append(write_csv(out / f"{name}.csv", QFUNC_CSV, rows))
                if emit_svg:
                    files.append(
                        svgplot.svg_heatmap(
                            out / f"{name}.svg",
                            grid.phi,
                            grid.theta,
                            grid.values,
                            "phi",
                            "theta",
                            f"Q(theta, phi) at t={t_snap:g}, jx={jx:g}",
                        )
                    )
    return files


def _run_fig4(cfg, out, clock, emit_svg):
    params = _lmg_params(cfg, cfg.model.n_qubits, cfg.model.jx)
    bx_values = cfg.sweep.values()
    with clock.stage("field-sweep"):
        points = field_sweep(params, bx_values)
    files = [write_csv(out / "susceptibility_sweep.csv", SWEEP_CSV, map(dataclasses.astuple, points))]
    with clock.stage("fit"):
        chi_fit = fit_power_law([(p.bx, p.chi) for p in points], CHI_FIT_WINDOW)
        files.append(write_csv(out / "fits.csv", FITS_CSV, [_fit_row("chi", chi_fit)]))
    with clock.stage("size-sweep"):
        n_values = np.arange(200, 2001, 200)
        rows = size_sweep(cfg.model.jx, 1e-5, n_values, epsilon=cfg.model.epsilon)
        files.append(write_csv(out / "chi_vs_n.csv", SIZE_CSV, rows))
    if emit_svg:
        files.append(
            svgplot.svg_chart(
                out / "susceptibility.svg",
                [([p.bx for p in points], [p.chi for p in points], "chi", "dots")],
                "bx",
                "chi",
                f"susceptibility, fitted exponent {chi_fit.exponent:.3f}",
                logx=True,
                logy=True,
            )
        )
        files.append(
            svgplot.svg_chart(
                out / "chi_vs_n.svg",
                [([r.n for r in rows], [r.chi for r in rows], "chi", "dots")],
                "N",
                "chi",
                "susceptibility vs qubit number",
            )
        )
    return files


def _run_fig5(cfg, out, clock, emit_svg):
    params = _lmg_params(cfg, cfg.model.n_qubits, cfg.model.jx)
    bx_values = cfg.sweep.values()
    with clock.stage("field-sweep"):
        points = field_sweep(params, bx_values)
    files = [write_csv(out / "correlation_gap_sweep.csv", SWEEP_CSV, map(dataclasses.astuple, points))]
    with clock.stage("fit"):
        c_fit = fit_power_law([(p.bx, abs(p.c_xxyy)) for p in points], CXXYY_FIT_WINDOW)
        gap_fit = fit_power_law([(p.bx, p.gap) for p in points], GAP_FIT_WINDOW)
        files.append(
            write_csv(
                out / "fits.csv",
                FITS_CSV,
                [_fit_row("abs_c_xxyy", c_fit), _fit_row("gap", gap_fit)],
            )
        )
    if emit_svg:
        files.append(
            svgplot.svg_chart(
                out / "correlation_gap.svg",
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
        )
    return files


def _run_figs1(cfg, out, clock, emit_svg):
    params = _absorber_params(cfg)
    with clock.stage("absorber"):
        trace = integrate_hierarchy(
            params, cfg.integration.t_start, cfg.integration.t_end, dt=cfg.integration.dt
        )
    files = [write_csv(out / "absorption.csv", ABSORPTION_CSV, zip(trace.times, trace.pe))]
    if emit_svg:
        files.append(
            svgplot.svg_chart(
                out / "absorption.svg",
                [(trace.times, trace.pe, "P_e(t)", "line")],
                "t",
                "P_e",
                f"absorption, steady value {trace.pe_steady:.4f}",
            )
        )
    return files


def _run_figs2(cfg, out, clock, emit_svg):
    pulse = PulseEnvelope(tau_f=cfg.pulse.tau_f, t_arrival=cfg.pulse.t_arrival)
    deltas = cfg.sweep.values()
    gammas = np.linspace(5.0, 40.0, 8)
    grid = cfg.integration
    with clock.stage("transduction-map"):
        tmap = optimize_transduction(
            deltas, gammas, pulse, t_end=grid.t_end, dt=grid.dt, t_start=grid.t_start
        )
    rows = (
        (tmap.delta_pp_values[i], tmap.gamma_values[j], tmap.pe_steady[i, j])
        for i in range(tmap.delta_pp_values.size)
        for j in range(tmap.gamma_values.size)
    )
    files = [write_csv(out / "transduction_map.csv", TMAP_CSV, rows)]
    if emit_svg:
        files.append(
            svgplot.svg_heatmap(
                out / "transduction_map.svg",
                tmap.gamma_values,
                tmap.delta_pp_values,
                tmap.pe_steady,
                "gamma",
                "delta_pp",
                "steady transduction probability",
            )
        )
    return files


def _run_figs3(cfg, out, clock, emit_svg):
    with clock.stage("absorber"):
        drive = _drive_from_absorber(cfg)
    rows = []
    for n in cfg.sweep.values():
        n = int(round(n))
        with clock.stage(f"dynamics-n={n}"):
            # no name holds the trajectory, so its states are freed before the next N runs
            gain = quantum_gain(_amplify(cfg, drive, n, cfg.model.jx), t_arrival=cfg.pulse.t_arrival)
            rows.append((n, gain.g_max, gain.t_am))
    files = [write_csv(out / "gain_scaling.csv", GAIN_SCALING_CSV, rows)]
    if emit_svg:
        files.append(
            svgplot.svg_chart(
                out / "gain_scaling.svg",
                [([r[0] for r in rows], [r[1] for r in rows], "g_max", "dots")],
                "N",
                "g_max",
                "gain vs qubit number",
            )
        )
    return files


def _run_figs8(cfg, out, clock, emit_svg):
    bx_values = cfg.sweep.values()
    files = []
    curves = []
    for n in (500, 1000, 2000):
        with clock.stage(f"field-sweep-n={n}"):
            points = field_sweep(_lmg_params(cfg, n, cfg.model.jx), bx_values)
        files.append(write_csv(out / f"eta_n{n}.csv", SWEEP_CSV, map(dataclasses.astuple, points)))
        curves.append(([p.bx for p in points], [p.eta for p in points], f"N={n}", "line"))
    if emit_svg:
        files.append(
            svgplot.svg_chart(
                out / "eta.svg", curves, "bx", "eta", "correlated fraction vs field", logx=True
            )
        )
    return files


@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    defaults: ExperimentConfig  # sections left None are not taken
    runner: object


def _exp(name, description, runner, **sections):
    return Experiment(
        name=name,
        description=description,
        defaults=ExperimentConfig(experiment=name, **sections),
        runner=runner,
    )


REGISTRY = {
    e.name: e
    for e in (
        _exp(
            "fig2_gain_vs_bias",
            "gain traces for a J_x bias grid at N=400, J_y=0.7, B_x=0.01",
            _run_fig2,
            model=ModelSection(n_qubits=400, jx=0.675, jy=0.7),
            coupling=CouplingSection(bx=0.01),
            pulse=PulseSection(tau_f=1.0, t_arrival=0.0),
            absorber=AbsorberSection(delta_pp=10.0, gamma_fg=20.0, gamma_he=20.0),
            sweep=SweepSection(lo=0.5, hi=0.675, points=2, spacing="linear"),
            integration=IntegrationSection(dt=1e-3, t_start=-5.0, t_end=20.0),
        ),
        _exp(
            "fig3_qfunction",
            "Q-function snapshots at t in {-5,3,10,18} for critical and non-critical bias",
            _run_fig3,
            model=ModelSection(n_qubits=400, jx=0.675, jy=0.7),
            coupling=CouplingSection(bx=0.01),
            pulse=PulseSection(tau_f=1.0, t_arrival=0.0),
            absorber=AbsorberSection(delta_pp=10.0, gamma_fg=20.0, gamma_he=20.0),
            sweep=SweepSection(lo=0.5, hi=0.675, points=2, spacing="linear"),
            integration=IntegrationSection(dt=1e-3, t_start=-5.0, t_end=20.0),
        ),
        _exp(
            "fig4_susceptibility",
            "field sweep at the transition, susceptibility exponent fit, chi vs N",
            _run_fig4,
            model=ModelSection(n_qubits=1000, jx=0.7, jy=0.7),
            sweep=SweepSection(lo=1e-6, hi=1e-2, points=33, spacing="log"),
        ),
        _exp(
            "fig5_correlation_gap",
            "higher-order correlator and gap sweeps with exponent fits",
            _run_fig5,
            model=ModelSection(n_qubits=1000, jx=0.7, jy=0.7),
            sweep=SweepSection(lo=1e-6, hi=1e-2, points=33, spacing="log"),
        ),
        _exp(
            "figS1_absorption",
            "time-dependent absorption probability P_e(t)",
            _run_figs1,
            pulse=PulseSection(tau_f=1.0, t_arrival=0.0),
            absorber=AbsorberSection(delta_pp=5.0, gamma_fg=10.0, gamma_he=10.0),
            integration=IntegrationSection(dt=1e-3, t_start=-5.0, t_end=15.0, sample_every=SAMPLE_EVERY),
        ),
        _exp(
            "figS2_transduction_map",
            "steady transduction probability over a (delta_pp, gamma) grid",
            _run_figs2,
            pulse=PulseSection(tau_f=1.0, t_arrival=0.0),
            sweep=SweepSection(lo=0.0, hi=20.0, points=6, spacing="linear"),
            integration=IntegrationSection(dt=1e-3, t_start=-5.0, t_end=10.0, sample_every=SAMPLE_EVERY),
        ),
        _exp(
            "figS3_gain_scaling",
            "maximum gain and amplification time vs qubit number",
            _run_figs3,
            model=ModelSection(n_qubits=400, jx=0.675, jy=0.7),
            coupling=CouplingSection(bx=0.01),
            pulse=PulseSection(tau_f=1.0, t_arrival=0.0),
            absorber=AbsorberSection(delta_pp=10.0, gamma_fg=20.0, gamma_he=20.0),
            sweep=SweepSection(lo=100, hi=400, points=3, spacing="log"),
            integration=IntegrationSection(dt=1e-3, t_start=-5.0, t_end=20.0),
        ),
        _exp(
            "figS8_eta",
            "rescaled correlation eta vs field for several qubit numbers",
            _run_figs8,
            model=ModelSection(n_qubits=1000, jx=0.7, jy=0.7),
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
    for section in ("model", "coupling", "pulse", "absorber", "sweep", "integration"):
        if getattr(cfg, section) is not None and getattr(entry.defaults, section) is None:
            raise ExperimentError(
                "config", f"experiment {cfg.experiment} does not take a [{section}] section"
            )
    if entry.defaults.coupling is not None:  # the absorber drives the amplifier
        _check_drive_start(cfg)
    elif cfg.integration is not None and cfg.integration.sample_every != SAMPLE_EVERY:
        every = cfg.integration.sample_every  # the absorber alone stores every SAMPLE_EVERY steps
        raise ExperimentError("config", f"[integration] sample_every = {every} must be {SAMPLE_EVERY}")
    out = Path(cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    clock = _StageClock()
    try:
        files = entry.runner(cfg, out, clock, cfg.output.emit_svg)
    except ExperimentError:
        raise
    except Exception as err:
        raise ExperimentError(clock.current, str(err)) from err

    manifest = RunManifest(
        experiment=cfg.experiment,
        version=__version__,
        config_text=serialize_config(cfg),
        stages=clock.records,
        outputs=[{"path": Path(f).name, "sha256": sha256_file(Path(f))} for f in files],
    )
    manifest_path = out / "manifest.json"
    manifest_path.write_text(manifest.to_json(), encoding="utf-8")
    if not verify_manifest(manifest_path):
        raise ExperimentError("manifest", "output digest verification failed after write")
    return manifest
