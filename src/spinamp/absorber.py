"""Single-photon transduction in a 4-level Lambda absorber.

A Gaussian one-photon pulse pumps |g> -> |f>; a coherent coupling delta_pp
mixes the excited states |f> <-> |h>; spontaneous decay |h> -> |e> stores the
detection event in the metastable state |e>. The atom starts in |g> and the
field carries one photon, so the single-photon Fock-state master equation
(Baragiola et al., PRA 86, 013811, 2012) closes on one excitation: two
amplitudes psi = (psi_f, psi_h) and the stored population P_e, with

    psi' = M psi - c xi(t) sqrt(gamma_fg) e_f,   P_e' = gamma_he |psi_h|^2,
    M = [[-gamma_fg/2, -i delta_pp], [-i delta_pp, -gamma_he/2]],

and c = sqrt(eta) e^{i phase}. The hierarchy's physical block is
rho_11 = |psi><psi| + P_e |e><e| + (1 - |psi|^2 - P_e) |g><g|, its coherence
rho_10 = |psi><g| and rho_00 = |g><g| (the single-excitation picture of
one-photon absorption; Stobinska, Alber and Leuchs, EPL 86, 14007, 2009).

In the rotating frame at the resonant carrier the Hamiltonian reduces to
H = delta_pp (|f><h| + |h><f|) and the pulse envelope loses its carrier; the
level splittings never enter the populations. Decay of |e> back to |g> is
neglected (metastable destination).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .stepping import IntegrationError, rk4_step, sample_grid

SAMPLE_EVERY = 10  # RK4 steps per stored sample
POPULATION_TOL = 1e-5  # P_e and p_g must stay in [-tol, 1 + tol]


def _require_finite(obj) -> None:
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


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
        if self.tau_f <= 0.0:
            raise ValueError(f"tau_f must be positive, got {self.tau_f}")

    def check_start(self, t_start: float) -> None:
        """A run starts in the pulse's vacuum tail: t_start <= t_arrival - 5 tau_f."""
        latest = self.t_arrival - 5.0 * self.tau_f
        if t_start > latest:
            raise ValueError(
                f"t_start = {t_start:.15g} is later than "
                f"t_arrival - 5 tau_f = {latest:.15g} (pulse tail)"
            )

    def amplitude(self, t):
        t = np.asarray(t, dtype=float)
        pref = (2.0 * np.pi * self.tau_f**2) ** (-0.25)
        return pref * np.exp(-((t - self.t_arrival) ** 2) / (4.0 * self.tau_f**2))

    def norm_on_grid(self, times: np.ndarray) -> float:
        amp = self.amplitude(times)
        return float(np.trapezoid(amp * amp, times))


@dataclass(frozen=True)
class AbsorberParams:
    """The atom: rates in units of the amplifier splitting, coupling c = sqrt(eta) e^{i phase}."""

    delta_pp: float
    gamma_fg: float
    gamma_he: float
    eta: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        for name in ("gamma_fg", "gamma_he"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")


@dataclass(frozen=True)
class TransductionTrace:
    """P_e(t) samples; pe_steady is the max over the trace (the saturation value).

    states[k] is the amplitude pair (psi_f, psi_h) at times[k]; with pe[k] it
    fixes the whole hierarchy (see the module docstring).
    """

    times: np.ndarray
    pe: np.ndarray
    pe_steady: float
    states: np.ndarray


def _amplitudes(pulse, delta_pp, gamma_fg, gamma_he, coupling, t_start, t_end, dt):
    """Step y = (psi_f, psi_h, P_e) from zero with fixed-step RK4; returns (times, samples).

    The rates may be arrays: they broadcast into one batch of cells that share
    the pulse, and samples has shape (n_samples, 3, *cells). Preconditions,
    sampling and the guard are those of integrate_hierarchy; the guard names
    the first failing cell by its rates.
    """
    if dt is None:
        dt = pulse.tau_f / 1000.0
    pulse.check_start(t_start)
    if dt > pulse.tau_f / 100.0:
        raise ValueError(f"dt = {dt} exceeds tau_f / 100 = {pulse.tau_f / 100.0}")
    steps, times = sample_grid(t_start, t_end, dt, SAMPLE_EVERY)
    # rk4_step evaluates the drive at t, t + dt/2 and t + dt: one lookup table
    xi = pulse.amplitude(t_start + 0.5 * dt * np.arange(2 * steps[-1] + 1))
    half_steps = 2.0 / dt
    m_ff, m_hh, m_fh = -0.5 * gamma_fg, -0.5 * gamma_he, -1j * delta_pp
    source = -coupling * np.sqrt(gamma_fg)

    def deriv(t, y):
        out = np.empty_like(y)
        out[0] = m_ff * y[0] + m_fh * y[1] + source * xi[round((t - t_start) * half_steps)]
        out[1] = m_fh * y[0] + m_hh * y[1]
        out[2] = gamma_he * abs(y[1]) ** 2
        return out

    cells = np.broadcast(delta_pp, gamma_fg, gamma_he).shape
    samples = np.zeros((steps.size, 3) + cells, dtype=complex)
    y = samples[0]
    for k in range(1, steps.size):
        for i in range(steps[k - 1], steps[k]):
            y = rk4_step(y, t_start + i * dt, dt, deriv)
        samples[k] = y
        pe = y[2].real
        pg = 1.0 - abs(y[0]) ** 2 - abs(y[1]) ** 2 - pe
        ok = (np.minimum(pe, pg) >= -POPULATION_TOL) & (np.maximum(pe, pg) <= 1.0 + POPULATION_TOL)
        if not np.all(ok):  # NaN fails both comparisons
            cell = np.unravel_index(np.argmin(ok), cells)
            rates = tuple(float(np.broadcast_to(r, cells)[cell]) for r in (delta_pp, gamma_fg, gamma_he))
            raise IntegrationError(
                f"populations P_e = {pe[cell]:.6g}, p_g = {pg[cell]:.6g} left [0, 1] at "
                f"(delta_pp, gamma_fg, gamma_he) = {rates}, t = {times[k]:.4f} with dt = {dt}"
            )
    return times, samples


def integrate_hierarchy(
    params: AbsorberParams,
    pulse: PulseEnvelope,
    t_start: float,
    t_end: float,
    dt: float | None = None,
) -> TransductionTrace:
    """Propagate one absorber's amplitudes and P_e under one pulse with fixed-step RK4.

    The run must start in the pulse's tail (PulseEnvelope.check_start) and
    the step must resolve the envelope (dt <= tau_f / 100; the default is
    tau_f / 1000). Every SAMPLE_EVERY-th step and the last one are stored
    (stepping.sample_grid). Raises IntegrationError, naming the rates, t
    and dt, if P_e or p_g = 1 - |psi|^2 - P_e leaves
    [-POPULATION_TOL, 1 + POPULATION_TOL].

    The name predates the two-amplitude form. The trace is still the whole
    single-photon Fock hierarchy, carried by the amplitudes it closes on, and
    callers and the benchmark's tracer look the function up by this name.
    """
    coupling = np.sqrt(params.eta) * np.exp(1j * params.phase)
    times, y = _amplitudes(
        pulse, params.delta_pp, params.gamma_fg, params.gamma_he, coupling, t_start, t_end, dt
    )
    pe = y[:, 2].real.copy()
    return TransductionTrace(times=times, pe=pe, pe_steady=float(pe.max()), states=y[:, :2])


@dataclass(frozen=True)
class TransductionMap:
    """pe_steady over a (delta_pp, gamma) grid with gamma_fg = gamma_he."""

    delta_pp_values: np.ndarray
    gamma_values: np.ndarray
    pe_steady: np.ndarray


def optimize_transduction(
    delta_pp_values,
    gamma_values,
    pulse: PulseEnvelope,
    t_end: float | None = None,
    dt: float | None = None,
    t_start: float | None = None,
) -> TransductionMap:
    """Transduction probability map; both decay rates are set to gamma.

    All cells are stepped together as one batch; t_start defaults to
    t_arrival - 5 tau_f and t_end to t_arrival + 10 tau_f.
    """
    delta_pp_values = np.asarray(delta_pp_values, dtype=float)
    gamma_values = np.asarray(gamma_values, dtype=float)
    if delta_pp_values.size == 0 or gamma_values.size == 0:
        raise ValueError("grid must be nonempty")
    if t_start is None:
        t_start = pulse.t_arrival - 5.0 * pulse.tau_f
    if t_end is None:
        t_end = pulse.t_arrival + 10.0 * pulse.tau_f
    d, g = np.meshgrid(delta_pp_values, gamma_values, indexing="ij")
    for dd, gg in zip(d.flat, g.flat):
        try:
            AbsorberParams(dd, gg, gg)
        except ValueError as err:
            raise RuntimeError(f"transduction map cell (delta_pp={dd}, gamma={gg}) failed: {err}") from err
    try:
        _, y = _amplitudes(pulse, d, g, g, 1.0, t_start, t_end, dt)
    except IntegrationError as err:
        raise RuntimeError(f"transduction map cell failed: {err}") from err
    return TransductionMap(
        delta_pp_values=delta_pp_values,
        gamma_values=gamma_values,
        pe_steady=y[:, 2].real.max(axis=0),
    )
