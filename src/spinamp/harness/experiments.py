"""Experiment registry: each entry reproduces one figure-level result.

An entry declares its defaults, the times at which its trajectories keep
the amplifier's state and its fit windows. plan(cfgs) checks every config
against them before any stage of any run. Each runner takes the drive and
trajectories, each with its gain, from _driven, or the field sweeps from
_sweep, which compute each distinct one once per plan, and writes what it
reads.

Outputs are CSV files with fixed column schemas (17 significant digits,
byte-identical across reruns of the same config) plus a manifest.json
written last, carrying the config echo, per-stage wall times and peak RSS
(a dynamics stage's time covers its trajectory's gain, and its record adds
the amplifier's widest window and norm drift; a stage that another run of the
plan computed adds reused_from naming that run's stage and takes that run's
trajectory and gain), and SHA-256 digests of every emitted file. SVG emission
is optional and presentational.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .. import __version__
from ..absorber import AbsorberParams, PulseEnvelope, integrate_hierarchy
from ..amplifier_dynamics import Q_PHI, Q_THETA, DriveSchedule, evolve, q_function, quantum_gain, sample_plan
from ..criticality import ScalingFit, SizePoint, SweepPoint, field_sweep, fit_power_law, size_sweep
from ..lmg_statics import LmgParams
from ..stepping import TimeGrid
from . import svgplot
from .config import (
    ConfigError,
    CouplingSection,
    ExperimentConfig,
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
    # [{"name":..., "seconds":..., "peak_rss_mb":...}]; a dynamics stage adds
    # "max_window" and "norm_drift" from its AmplifierTrajectory, and a stage
    # another run of the plan computed adds "reused_from": "<experiment>/<stage>"
    stages: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # [{"path":..., "sha256":...}]

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)


class Plan(NamedTuple):
    """What the runs of one invocation share: the snapshot times each
    trajectory key keeps, and each value a run computed, by its key, with the
    "<experiment>/<stage>" that computed it."""

    snapshots: dict
    done: dict


class _Run:
    """One run of cfg: its stages and the files it writes into its output
    directory, SVG only if asked for; what it computes goes into the plan it
    shares with the other runs."""

    def __init__(self, cfg: ExperimentConfig, shared: Plan):
        self.out = Path(cfg.output.directory)
        self.cfg = cfg
        self.shared = shared
        self.files = []
        self.records = []
        self.current = "setup"

    @contextlib.contextmanager
    def stage(self, name):
        """Time the block; it may add fields to the stage record it is given."""
        self.current = name
        extra = {}
        t0 = time.perf_counter()
        try:
            yield extra
        finally:
            seconds = time.perf_counter() - t0
            # the process's peak resident set so far, in KiB on Linux
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            self.records.append({"name": name, "seconds": seconds, "peak_rss_mb": peak_rss_mb, **extra})

    def computed(self, name, key, compute):
        """compute() inside stage(name) or, where a run of the plan already
        computed key, that value, the stage record naming its origin in
        reused_from."""
        with self.stage(name) as record:
            if key in self.shared.done:
                record["reused_from"] = self.shared.done[key][1]
            else:
                self.shared.done[key] = compute(), f"{self.cfg.experiment}/{name}"
        return self.shared.done[key][0]

    def csv(self, name, header, rows):
        self.files.append(write_csv(self.out / name, header, rows))

    def chart(self, name, *args, **kwargs):
        if self.cfg.output.emit_svg:
            self.files.append(svgplot.svg_chart(self.out / name, *args, **kwargs))

    def heatmap(self, name, *args):
        if self.cfg.output.emit_svg:
            self.files.append(svgplot.svg_heatmap(self.out / name, *args))


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return FLOAT_FMT % float(v)


def write_csv(path: Path, header, rows) -> Path:
    """Write the header, then each row as rows yields it; a row whose width
    is not the header's is a ValueError, the rows before it written."""
    with path.open("w", encoding="utf-8") as out:
        out.write(",".join(header) + "\n")
        for row in rows:
            if len(row) != len(header):
                raise ValueError(f"row width {len(row)} != header width {len(header)} in {path.name}")
            out.write(",".join(_fmt(v) for v in row) + "\n")
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

SWEEP_CSV = SweepPoint._fields
GAIN_CSV = ("t", "pe", "sx2", "sy2", "gain")
QFUNC_CSV = ("theta", "phi", "q")
TMAP_CSV = ("delta_pp", "gamma", "pe_steady")
SIZE_CSV = SizePoint._fields
FITS_CSV = ("quantity", *ScalingFit._fields)
GAIN_SCALING_CSV = ("n", "g_max", "t_am")
ABSORPTION_CSV = ("t", "pe")


def _models(cfg: ExperimentConfig, values=None) -> list[tuple[str, LmgParams]]:
    """(stage-name suffix, amplifier) at each sweep point, from [model],
    [coupling] bx and [sweep].

    Each value (the [sweep] values unless given) sets the one [model] field
    the registry leaves None, which the suffix names: jx in fig2 and fig3
    ("-jx=0.675"), the rounded n_qubits in figS3 and figS8 ("-n=400"). With
    no field left None (fig4, fig5) there is one model and no suffix.
    """
    fields = dict(vars(cfg.model), bx=cfg.coupling.bx if cfg.coupling else 0.0)
    free = [key for key, value in fields.items() if value is None]
    if not free:
        return [("", LmgParams(**fields))]
    cast, tag = (float, "jx") if free == ["jx"] else (round, "n")
    values = cfg.sweep.values() if values is None else values
    return [(f"-{tag}={_exact(x)}", LmgParams(**{**fields, free[0]: x})) for x in map(cast, values)]


def _driven(cfg: ExperimentConfig, run: _Run):
    """The absorber's drive, then (model, trajectory, gain, {snapshot time:
    state}) at each sweep point. The absorber trace and each trajectory are
    computed once per plan, and a trajectory keeps the states at the snapshot
    times the plan gives its key. Its gain (quantum_gain from the pulse's
    arrival) comes with it, computed in the same dynamics stage and reused
    with it; its widest window and norm drift go into its stage record."""
    source = (cfg.absorber, cfg.pulse, cfg.integration)
    trace = run.computed("absorber", source, lambda: integrate_hierarchy(*source))
    drive = DriveSchedule(trace.times, trace.pe)
    yield drive
    for suffix, params in _models(cfg):
        key = (params, *source)
        kept = run.shared.snapshots[key]

        def evolved():
            traj = evolve(params, drive, cfg.integration, snapshots=kept)
            return traj, quantum_gain(traj, t_arrival=cfg.pulse.t_arrival)

        traj, gain = run.computed(f"dynamics{suffix}", key, evolved)
        run.records[-1].update(max_window=traj.max_window, norm_drift=traj.norm_drift)
        yield params, traj, gain, dict(zip(kept, traj.states))


def _sweep(cfg: ExperimentConfig, run: _Run, values=None):
    """(model, its field_sweep over the [sweep] fields) of each model, each
    computed once per plan."""
    bxs = cfg.sweep.values()
    for suffix, params in _models(cfg, values):
        yield params, run.computed(f"field-sweep{suffix}", (params, cfg.sweep), lambda: field_sweep(params, bxs))


def _fit(quantity, points, window):
    """fit_power_law(points, window), its refusal prefixed by the quantity fitted."""
    try:
        return fit_power_law(points, window)
    except ValueError as err:
        raise type(err)(f"{quantity}: {err}") from err


def _exact(value: float) -> str:
    """The shortest decimal that reads back as value, never in exponent form."""
    return np.format_float_positional(value, trim="-")


def _tag(value: float) -> str:
    return _exact(value).replace(".", "p").replace("-", "m")


def _grid_rows(x, y, values):
    """Rows (x[i], y[j], values[i, j]), x-major, of strings that write_csv
    passes through: each x and y is formatted once, the values in one pass."""
    xs, ys = [_fmt(v) for v in x], [_fmt(v) for v in y]
    column = (((FLOAT_FMT + "\n") * values.size) % tuple(values.ravel().tolist())).split()
    return zip([s for s in xs for _ in ys], ys * len(xs), column)


@contextlib.contextmanager
def _refusing(section):
    """A ValueError raised inside is a config error in [section], found before any stage."""
    try:
        yield
    except ValueError as err:
        raise ExperimentError("config", f"[{section}] {err}") from err


# --------------------------------------------------------------------------
# runners


def _run_fig2(cfg, run):
    driven = _driven(cfg, run)
    drive = next(driven)
    curves = []
    for params, traj, gain, _ in driven:
        rows = zip(traj.times, map(drive.pe_at, traj.times), traj.sx2, traj.sy2, gain.gain)
        run.csv(f"gain_jx{_tag(params.jx)}.csv", GAIN_CSV, rows)
        curves.append((traj.times, gain.gain, f"jx={_exact(params.jx)}", "line"))
    run.chart("gain_vs_bias.svg", curves, "t", "G(t)", "quantum gain vs bias", logy=True)


def _run_fig3(cfg, run):
    driven = _driven(cfg, run)
    next(driven)  # the drive
    for params, _, _, states in driven:
        with run.stage(f"qfunction-jx={_exact(params.jx)}"):
            for t_snap in FIG3_SNAPSHOTS:
                q = q_function(states[t_snap])
                name = f"qfunction_jx{_tag(params.jx)}_t{_tag(t_snap)}"
                run.csv(f"{name}.csv", QFUNC_CSV, _grid_rows(Q_THETA, Q_PHI, q))
                title = f"Q(theta, phi) at t={t_snap:g}, jx={_exact(params.jx)}"
                run.heatmap(f"{name}.svg", Q_PHI, Q_THETA, q, "phi", "theta", title)


def _run_fig4(cfg, run):
    ((params, points),) = _sweep(cfg, run)
    run.csv("susceptibility_sweep.csv", SWEEP_CSV, points)
    with run.stage("fit"):
        chi_fit = _fit("chi", [(p.bx, p.chi) for p in points], CHI_FIT_WINDOW)
        run.csv("fits.csv", FITS_CSV, [("chi", *chi_fit)])
    with run.stage("size-sweep"):
        rows = size_sweep(params, 1e-5, np.arange(200, 2001, 200))
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
    ((_, points),) = _sweep(cfg, run)
    run.csv("correlation_gap_sweep.csv", SWEEP_CSV, points)
    with run.stage("fit"):
        c_fit = _fit("abs_c_xxyy", [(p.bx, abs(p.c_xxyy)) for p in points], CXXYY_FIT_WINDOW)
        gap_fit = _fit("gap", [(p.bx, p.gap) for p in points], GAP_FIT_WINDOW)
        run.csv("fits.csv", FITS_CSV, [("abs_c_xxyy", *c_fit), ("gap", *gap_fit)])
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
    with run.stage("absorber"):
        trace = integrate_hierarchy(cfg.absorber, cfg.pulse, cfg.integration)
    run.csv("absorption.csv", ABSORPTION_CSV, zip(trace.times, trace.pe))
    run.chart(
        "absorption.svg",
        [(trace.times, trace.pe, "P_e(t)", "line")],
        "t",
        "P_e",
        f"absorption, steady value {trace.pe_steady:.4f}",
    )


def _run_figs2(cfg, run):
    # one cell per (delta_pp, gamma), both decay rates set to gamma
    d, g = np.meshgrid(cfg.sweep.values(), np.linspace(5.0, 40.0, 8), indexing="ij")
    with run.stage("transduction-map"):
        trace = integrate_hierarchy(AbsorberParams(d, g, g), cfg.pulse, cfg.integration)
    run.csv("transduction_map.csv", TMAP_CSV, zip(d.ravel(), g.ravel(), trace.pe_steady.ravel()))
    title = "steady transduction probability"
    run.heatmap("transduction_map.svg", g[0], d[:, 0], trace.pe_steady, "gamma", "delta_pp", title)


def _run_figs3(cfg, run):
    driven = _driven(cfg, run)
    next(driven)  # the drive
    rows = []
    for params, _, gain, _ in driven:
        rows.append((params.n_qubits, gain.g_max, gain.t_am))
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
    for params, points in _sweep(cfg, run, (500, 1000, 2000)):
        n = params.n_qubits
        run.csv(f"eta_n{n}.csv", SWEEP_CSV, points)
        curves.append(([p.bx for p in points], [p.eta for p in points], f"N={n}", "line"))
    run.chart("eta.svg", curves, "bx", "eta", "correlated fraction vs field", logx=True)


@dataclass(frozen=True)
class Experiment:
    description: str
    defaults: ExperimentConfig  # sections and fields left None are not taken
    runner: object  # runner(cfg, run) writes through the _Run what _driven or _sweep gives it
    snapshots: tuple = ()  # times at which a driven runner reads the amplifier's state
    fits: tuple = ()  # power-law fit windows over the [sweep] fields


def _exp(name, description, runner, snapshots=(), fits=(), **sections):
    return Experiment(description, ExperimentConfig(experiment=name, **sections), runner, snapshots, fits)


# The paper's pulse through the absorber into the amplifier at B_x = 0.01.
_DRIVEN = dict(
    coupling=CouplingSection(bx=0.01),
    pulse=PulseEnvelope(tau_f=1.0, t_arrival=0.0),
    absorber=AbsorberParams(delta_pp=10.0, gamma_fg=20.0, gamma_he=20.0),
    integration=TimeGrid(dt=1e-3, t_start=-5.0, t_end=20.0, sample_every=25),
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
    e.defaults.experiment: e
    for e in (
        _exp(
            "fig2_gain_vs_bias",
            "gain traces for a J_x bias grid at N=400, J_y=0.7, B_x=0.01",
            _run_fig2,
            **_BIAS_PAIR,
            **_DRIVEN,
        ),
        _exp(
            "fig3_qfunction",
            "Q-function snapshots at t in {-5,3,10,18} for critical and non-critical bias",
            _run_fig3,
            snapshots=FIG3_SNAPSHOTS,
            **_BIAS_PAIR,
            **_DRIVEN,
        ),
        _exp(
            "fig4_susceptibility",
            "field sweep at the transition, susceptibility exponent fit, chi vs N",
            _run_fig4,
            fits=(CHI_FIT_WINDOW,),
            **_LINE_SWEEP,
        ),
        _exp(
            "fig5_correlation_gap",
            "higher-order correlator and gap sweeps with exponent fits",
            _run_fig5,
            fits=(CXXYY_FIT_WINDOW, GAP_FIT_WINDOW),
            **_LINE_SWEEP,
        ),
        _exp(
            "figS1_absorption",
            "time-dependent absorption probability P_e(t)",
            _run_figs1,
            pulse=PulseEnvelope(tau_f=1.0, t_arrival=0.0),
            absorber=AbsorberParams(delta_pp=5.0, gamma_fg=10.0, gamma_he=10.0),
            integration=TimeGrid(dt=1e-3, t_start=-5.0, t_end=15.0),
        ),
        _exp(
            "figS2_transduction_map",
            "steady transduction probability over a (delta_pp, gamma) grid",
            _run_figs2,
            pulse=PulseEnvelope(tau_f=1.0, t_arrival=0.0),
            sweep=SweepSection(lo=0.0, hi=20.0, points=6, spacing="linear"),
            integration=TimeGrid(dt=1e-3, t_start=-5.0, t_end=10.0),
        ),
        _exp(
            "figS3_gain_scaling",
            "maximum gain and amplification time vs qubit number",
            _run_figs3,
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


def plan(cfgs) -> Plan:
    """Check every config before any stage of any run, and map each trajectory
    key (LmgParams, AbsorberParams, PulseEnvelope, TimeGrid) to the sorted
    union of the snapshot times of the runs that read it.

    A config its run cannot use is a "config" ExperimentError: an unknown
    experiment, a section or key it does not take, a grid that starts inside
    the pulse's tail or does not resolve the pulse, or a fit window with too
    few [sweep] fields (fit_power_law, given the fields with y = 1, refuses
    them where it would refuse the sweep's data for too few points). A driven
    run also needs a model of its own at each sweep point, an amplifier step
    within its bound and a stored sample at each snapshot time.
    """
    snapshots = {}
    for cfg in cfgs:
        entry = REGISTRY.get(cfg.experiment)
        if entry is None:
            raise ExperimentError("config", f"unknown experiment {cfg.experiment!r}")
        extra = untaken(cfg, entry.defaults)
        if extra is not None:
            raise ExperimentError("config", f"experiment {cfg.experiment} does not take {extra}")
        if cfg.pulse is not None:  # every run with a pulse starts in its tail and resolves it
            with _refusing("integration"):
                cfg.pulse.check_grid(cfg.integration)
        with _refusing("sweep"):
            for window in entry.fits:
                fit_power_law([(bx, 1.0) for bx in cfg.sweep.values()], window)
            # a driven run's amplifier takes the absorber's drive through [coupling]
            models = [params for _, params in _models(cfg)] if cfg.coupling else []
            for j, params in enumerate(models):
                if params in models[:j]:
                    raise ValueError(f"points {models.index(params) + 1} and {j + 1} both give {params}")
        if models:
            with _refusing("integration"):
                sample_plan(cfg.integration, entry.snapshots)
        for params in models:
            key = (params, cfg.absorber, cfg.pulse, cfg.integration)
            snapshots[key] = tuple(sorted({*snapshots.get(key, ()), *entry.snapshots}))
    return Plan(snapshots, {})


def run_experiment(cfg: ExperimentConfig, shared: Plan | None = None) -> RunManifest:
    """Run cfg's experiment into its output directory; the manifest is written last.

    shared is the plan of all the configs of one invocation, cfg among them,
    so that a run reuses what an earlier one computed; without it cfg is
    planned alone.
    """
    run = _Run(cfg, plan([cfg]) if shared is None else shared)
    try:
        run.out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ExperimentError("output", f"cannot make output directory {run.out}: {err}") from err
    try:
        REGISTRY[cfg.experiment].runner(cfg, run)
    except Exception as err:
        raise ExperimentError(run.current, str(err)) from err

    manifest = RunManifest(
        experiment=cfg.experiment,
        version=__version__,
        config_text=serialize_config(cfg),
        stages=run.records,
        outputs=[{"path": f.name, "sha256": sha256_file(f)} for f in run.files],
    )
    manifest_path = run.out / "manifest.json"
    manifest_path.write_text(manifest.to_json(), encoding="utf-8")
    if not verify_manifest(manifest_path):
        raise ExperimentError("manifest", "output digest verification failed after write")
    return manifest
