"""Single-photon transduction in a 4-level Lambda absorber.

A Gaussian one-photon pulse pumps |g> -> |f>; a coherent coupling delta_pp
mixes the excited states |f> <-> |h>; spontaneous decay |h> -> |e> stores the
detection event in the metastable state |e>. The atom starts in |g> and the
field carries one photon, so the single-photon Fock-state master equation
(Baragiola et al., PRA 86, 013811, 2012) closes on one excitation: two
amplitudes psi = (psi_f, psi_h) and the stored population P_e, with

    psi' = M psi - c xi(t) sqrt(gamma_fg) e_f,   P_e' = gamma_he |psi_h|^2,
    M = [[-gamma_fg/2, -i delta_pp], [-i delta_pp, -gamma_he/2]],

and c = sqrt(eta). A phase of c would be a gauge: the ODE is linear, starts
at zero and is driven only through c, so psi = c psi~ and P_e = |c|^2 P~_e
with (psi~, P~_e) the c = 1 solution, and c e^{i phi} only multiplies psi by
e^{i phi}, leaving P_e and every population unchanged.

The hierarchy's physical block is
rho_11 = |psi><psi| + P_e |e><e| + (1 - |psi|^2 - P_e) |g><g|, its coherence
rho_10 = |psi><g| and rho_00 = |g><g| (the single-excitation picture of
one-photon absorption; Stobinska, Alber and Leuchs, EPL 86, 14007, 2009).

In the rotating frame at the resonant carrier the Hamiltonian reduces to
H = delta_pp (|f><h| + |h><f|) and the pulse envelope loses its carrier; the
level splittings never enter the populations. Decay of |e> back to |g> is
neglected (metastable destination).

integrate_hierarchy is the one entry point, for one absorber and for a grid
of them alike: a grid (figS2's (delta_pp, gamma) map) is an AbsorberParams
whose fields are arrays, and every cell is the same three-number ODE. The
module's rk4_step steps y = (psi_f, psi_h, P_e) as three numbers: Python
complex and float for one cell, arrays of the cell shape for a grid, with
the same operations in the same order either way. The run's time grid is a
stepping.TimeGrid; the absorber stores on it every SAMPLE_EVERY steps,
whatever the grid's own sample_every.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .stepping import IntegrationError, TimeGrid

SAMPLE_EVERY = 10  # RK4 steps per stored sample
POPULATION_TOL = 1e-5  # P_e and p_g must stay in [-tol, 1 + tol]


def rk4_step(y, j, dt, deriv):
    """One classical RK4 step of y = (psi_f, psi_h, P_e) from half-step j.

    deriv(j, psi_f, psi_h) returns the three rates at t_start + j dt / 2; P_e
    enters none of them. The step from step i starts at j = 2 i and calls
    deriv at j, twice at j + 1 and at j + 2. Each component takes the
    operations of stepping.rk4_step in its order, so a cell steps to the
    same bits as there.
    """
    f, h, p = y
    half = 0.5 * dt
    f1, h1, p1 = deriv(j, f, h)
    f2, h2, p2 = deriv(j + 1, f + half * f1, h + half * h1)
    f3, h3, p3 = deriv(j + 1, f + half * f2, h + half * h2)
    f4, h4, p4 = deriv(j + 2, f + dt * f3, h + dt * h3)
    sixth = dt / 6.0
    return (
        f + sixth * (f1 + 2.0 * f2 + 2.0 * f3 + f4),
        h + sixth * (h1 + 2.0 * h2 + 2.0 * h3 + h4),
        p + sixth * (p1 + 2.0 * p2 + 2.0 * p3 + p4),
    )


def _require(obj, name: str, ok, rule: str) -> None:
    """ValueError naming the first element of obj.name that ok refuses; a NaN fails every rule."""
    value = np.asarray(getattr(obj, name))
    good = ok(value)
    if not good.all():
        raise ValueError(f"{name} {rule}, got {value.flat[np.argmin(good)].item()}")


def _require_finite(obj) -> None:
    for f in dataclasses.fields(obj):
        _require(obj, f.name, np.isfinite, "must be finite")


@dataclass(frozen=True)
class PulseEnvelope:
    """Gaussian single-photon wave packet, carrier removed.

    xi(t) = (2 pi tau_f^2)^(-1/4) exp(-(t - t_arrival)^2 / (4 tau_f^2)),
    normalized so that integral |xi|^2 dt = 1.
    """

    tau_f: float
    t_arrival: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        _require(self, "tau_f", lambda v: v > 0.0, "must be positive")

    def check_grid(self, grid: TimeGrid) -> None:
        """A run on grid starts in the pulse's vacuum tail, t_start <= t_arrival - 5 tau_f,
        and its step resolves the envelope, dt <= tau_f / 100."""
        latest = self.t_arrival - 5.0 * self.tau_f
        if grid.t_start > latest:
            raise ValueError(
                f"t_start = {grid.t_start:.15g} is later than "
                f"t_arrival - 5 tau_f = {latest:.15g} (pulse tail)"
            )
        if grid.dt > self.tau_f / 100.0:
            raise ValueError(f"dt = {grid.dt} exceeds tau_f / 100 = {self.tau_f / 100.0}")

    def amplitude(self, t):
        t = np.asarray(t, dtype=float)
        pref = (2.0 * np.pi * self.tau_f**2) ** (-0.25)
        return pref * np.exp(-((t - self.t_arrival) ** 2) / (4.0 * self.tau_f**2))


@dataclass(frozen=True)
class AbsorberParams:
    """The atom: rates in units of the amplifier splitting, coupling c = sqrt(eta).

    c is real: a phase of c would only multiply the amplitudes by that phase
    and leave P_e unchanged (see the module docstring).

    Each field may be an array; the fields broadcast into a grid of cells
    that integrate_hierarchy steps as one batch. Every element is checked,
    and the message names the first one refused.
    """

    delta_pp: float
    gamma_fg: float
    gamma_he: float
    eta: float = 1.0

    def __post_init__(self):
        _require_finite(self)
        for name in ("gamma_fg", "gamma_he"):
            _require(self, name, lambda v: v > 0.0, "must be positive")
        _require(self, "eta", lambda v: (v > 0.0) & (v <= 1.0), "must lie in (0, 1]")


@dataclass(frozen=True)
class TransductionTrace:
    """P_e(t) samples of one absorber or of a grid of cells; pe_steady is each cell's max over time.

    With scalar rates, pe[k] is P_e at times[k], states[k] the amplitude pair
    (psi_f, psi_h), and pe_steady a float, the saturation value; with them
    the pair fixes the whole hierarchy (see the module docstring). Rates that
    broadcast to the cell shape C give pe of shape (n_samples, *C), states
    (n_samples, 2, *C) and pe_steady of shape C.
    """

    times: np.ndarray
    pe: np.ndarray
    pe_steady: float | np.ndarray
    states: np.ndarray


def integrate_hierarchy(params: AbsorberParams, pulse: PulseEnvelope, grid: TimeGrid) -> TransductionTrace:
    """Propagate the amplitudes and P_e under one pulse with fixed-step RK4 on grid.

    y = (psi_f, psi_h, P_e) starts at zero at grid.t_start and takes steps
    of grid.dt to grid.t_end. The rates of params may be arrays: they
    broadcast into one batch of cells that share the pulse and step
    together, each cell as it would step alone. The run must start in the
    pulse's tail and the step must resolve the envelope
    (PulseEnvelope.check_grid). Every SAMPLE_EVERY-th step and the last one
    are stored (TimeGrid.samples); grid.sample_every is not read. The pulse
    is looked up once, on every half step of the grid, and each rate
    evaluation reads that table by its half-step index. Raises
    IntegrationError, naming the first failing cell's rates, t and dt, if
    P_e or p_g = 1 - |psi|^2 - P_e leaves [-POPULATION_TOL, 1 + POPULATION_TOL].

    The name predates the two-amplitude form. The trace is still the whole
    single-photon Fock hierarchy, carried by the amplitudes it closes on, and
    callers and the benchmark's tracer look the function up by this name.
    """
    pulse.check_grid(grid)
    dt = grid.dt
    steps, times = grid.samples(SAMPLE_EVERY)
    # rk4_step evaluates the drive at half-steps j, j + 1 and j + 2: one lookup table
    xi = pulse.amplitude(grid.t_start + 0.5 * dt * np.arange(2 * steps[-1] + 1)).tolist()
    delta_pp, gamma_fg, gamma_he = params.delta_pp, params.gamma_fg, params.gamma_he
    cells = np.broadcast(delta_pp, gamma_fg, gamma_he).shape
    source = -np.sqrt(params.eta) * np.sqrt(gamma_fg)
    if not cells:  # one cell steps on Python numbers
        delta_pp, gamma_fg, gamma_he, source = (float(v) for v in (delta_pp, gamma_fg, gamma_he, source))
    m_ff, m_hh, m_fh = -0.5 * gamma_fg, -0.5 * gamma_he, -1j * delta_pp

    def deriv(j, f, h):
        return (
            m_ff * f + m_fh * h + source * xi[j],
            m_fh * f + m_hh * h,
            gamma_he * abs(h) ** 2,
        )

    samples = np.zeros((steps.size, 3) + cells, dtype=complex)
    zero = np.zeros(cells)
    y = (zero + 0j, zero + 0j, zero) if cells else (0j, 0j, 0.0)
    for k in range(1, steps.size):
        for i in range(steps[k - 1], steps[k]):
            y = rk4_step(y, 2 * i, dt, deriv)
        samples[k] = y
        pe = samples[k, 2].real
        pg = 1.0 - abs(samples[k, 0]) ** 2 - abs(samples[k, 1]) ** 2 - pe
        ok = (np.minimum(pe, pg) >= -POPULATION_TOL) & (np.maximum(pe, pg) <= 1.0 + POPULATION_TOL)
        if not np.all(ok):  # NaN fails both comparisons
            cell = np.unravel_index(np.argmin(ok), cells)
            rates = tuple(float(np.broadcast_to(r, cells)[cell]) for r in (delta_pp, gamma_fg, gamma_he))
            raise IntegrationError(
                f"populations P_e = {pe[cell]:.6g}, p_g = {pg[cell]:.6g} left [0, 1] at "
                f"(delta_pp, gamma_fg, gamma_he) = {rates}, t = {times[k]:.4f} with dt = {dt}"
            )
    pe = samples[:, 2].real.copy()
    return TransductionTrace(times=times, pe=pe, pe_steady=pe.max(axis=0), states=samples[:, :2])
