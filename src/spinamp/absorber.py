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

integrate_hierarchy is the one entry point, for one absorber and for a grid
of them alike: a grid (figS2's (delta_pp, gamma) map) is an AbsorberParams
whose fields are arrays, and every cell is the same three-number ODE.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .stepping import IntegrationError, rk4_step, sample_grid

SAMPLE_EVERY = 10  # RK4 steps per stored sample
POPULATION_TOL = 1e-5  # P_e and p_g must stay in [-tol, 1 + tol]


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
    """The atom: rates in units of the amplifier splitting, coupling c = sqrt(eta) e^{i phase}.

    Each field may be an array; the fields broadcast into a grid of cells
    that integrate_hierarchy steps as one batch. Every element is checked,
    and the message names the first one refused.
    """

    delta_pp: float
    gamma_fg: float
    gamma_he: float
    eta: float = 1.0
    phase: float = 0.0

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


def integrate_hierarchy(
    params: AbsorberParams,
    pulse: PulseEnvelope,
    t_start: float,
    t_end: float,
    dt: float,
) -> TransductionTrace:
    """Propagate the amplitudes and P_e under one pulse with fixed-step RK4.

    y = (psi_f, psi_h, P_e) starts at zero. The rates of params may be
    arrays: they broadcast into one batch of cells that share the pulse and
    step together, each cell as it would step alone. The run must start in
    the pulse's tail (PulseEnvelope.check_start) and the step must resolve
    the envelope (dt <= tau_f / 100). Every SAMPLE_EVERY-th step and the
    last one are stored (stepping.sample_grid). Raises IntegrationError,
    naming the first failing cell's rates, t and dt, if P_e or
    p_g = 1 - |psi|^2 - P_e leaves [-POPULATION_TOL, 1 + POPULATION_TOL].

    The name predates the two-amplitude form. The trace is still the whole
    single-photon Fock hierarchy, carried by the amplitudes it closes on, and
    callers and the benchmark's tracer look the function up by this name.
    """
    pulse.check_start(t_start)
    if dt > pulse.tau_f / 100.0:
        raise ValueError(f"dt = {dt} exceeds tau_f / 100 = {pulse.tau_f / 100.0}")
    steps, times = sample_grid(t_start, t_end, dt, SAMPLE_EVERY)
    # rk4_step evaluates the drive at t, t + dt/2 and t + dt: one lookup table
    xi = pulse.amplitude(t_start + 0.5 * dt * np.arange(2 * steps[-1] + 1))
    half_steps = 2.0 / dt
    delta_pp, gamma_fg, gamma_he = params.delta_pp, params.gamma_fg, params.gamma_he
    m_ff, m_hh, m_fh = -0.5 * gamma_fg, -0.5 * gamma_he, -1j * delta_pp
    coupling = np.sqrt(params.eta) * np.exp(1j * params.phase)
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
    pe = samples[:, 2].real.copy()
    return TransductionTrace(times=times, pe=pe, pe_steady=pe.max(axis=0), states=samples[:, :2])
