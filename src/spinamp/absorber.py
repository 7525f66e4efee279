"""Single-photon transduction in a 4-level Lambda absorber.

A Gaussian one-photon pulse pumps |g> -> |f>; a coherent coupling delta_pp
mixes the excited states |f> <-> |h>; spontaneous decay |h> -> |e> stores the
detection event in the metastable state |e>. The dynamics is the single-photon
Fock-state master equation for generalized 4x4 density blocks rho_mn,
m, n in {0, 1}, with the physical state rho_11. It is linear: flattened to 64
numbers, d/dt rho = (a + xi(t) b) rho with a fixed pair of generator matrices,
a acting on every block alike and b feeding the pulse from rho_0n to rho_1n
and from rho_m0 to rho_m1.

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

from .stepping import IntegrationError, rk4_step

LEVELS = ("g", "f", "h", "e")
_G, _F, _H, _E = 0, 1, 2, 3
SAMPLE_EVERY = 10  # RK4 steps per stored sample


@dataclass(frozen=True)
class AbsorberParams:
    """Absorber rates and pulse parameters, in units of the amplifier splitting."""

    delta_pp: float
    gamma_fg: float
    gamma_he: float
    tau_f: float
    t_arrival: float = 0.0
    eta_scatter: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.gamma_fg <= 0.0 or self.gamma_he <= 0.0:
            raise ValueError("decay rates must be positive")
        if self.tau_f <= 0.0:
            raise ValueError("pulse length must be positive")
        if not 0.0 < self.eta_scatter <= 1.0:
            raise ValueError(f"eta_scatter must lie in (0, 1], got {self.eta_scatter}")

    @property
    def pulse(self) -> "PulseEnvelope":
        return PulseEnvelope(tau_f=self.tau_f, t_arrival=self.t_arrival)


@dataclass(frozen=True)
class PulseEnvelope:
    """Gaussian single-photon wave packet, carrier removed.

    xi(t) = (2 pi tau_f^2)^(-1/4) exp(-(t - t_arrival)^2 / (4 tau_f^2)),
    normalized so that integral |xi|^2 dt = 1.
    """

    tau_f: float
    t_arrival: float = 0.0

    def amplitude(self, t):
        t = np.asarray(t, dtype=float)
        pref = (2.0 * np.pi * self.tau_f**2) ** (-0.25)
        return pref * np.exp(-((t - self.t_arrival) ** 2) / (4.0 * self.tau_f**2))

    def norm_on_grid(self, times: np.ndarray) -> float:
        amp = self.amplitude(times)
        return float(np.trapezoid(amp * amp, times))


@dataclass(frozen=True)
class TransductionTrace:
    """P_e(t) samples; pe_steady is the max over the trace (the saturation value).

    states[k] is the hierarchy rho[m, n] (2, 2, 4, 4) at times[k].
    """

    times: np.ndarray
    pe: np.ndarray
    pe_steady: float
    states: np.ndarray

    def pe_at(self, t):
        return np.interp(t, self.times, self.pe)


def _generators(params: AbsorberParams) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with d/dt rho = (a + xi(t) b) rho on the row-major flattened rho[m, n].

    Every block evolves under the Lindblad generator D of H = delta_pp(|f><h|
    + |h><f|), L_in = sqrt(gamma_fg)|g><f| and L_out = sqrt(gamma_he)|e><h|,
    so a = kron(eye(4), D). The photon raises one hierarchy index: rho_1n
    gains c [rho_0n, L_in^+] and rho_m1 gains conj(c) [L_in, rho_m0], with
    c = sqrt(eta) e^{i phase}.
    """
    eye = np.eye(4)

    def left(x):  # rho -> x rho
        return np.kron(x, eye)

    def right(x):  # rho -> rho x
        return np.kron(eye, x.T)

    h = np.zeros((4, 4))
    h[_F, _H] = h[_H, _F] = params.delta_pp
    l_in = np.zeros((4, 4))
    l_in[_G, _F] = np.sqrt(params.gamma_fg)
    l_out = np.zeros((4, 4))
    l_out[_E, _H] = np.sqrt(params.gamma_he)
    d = -1j * (left(h) - right(h))
    for op in (l_in, l_out):
        ldl = op.T @ op
        d = d + left(op) @ right(op.T) - 0.5 * (left(ldl) + right(ldl))
    c = np.sqrt(params.eta_scatter) * np.exp(1j * params.phase)
    up = np.array([[0.0, 0.0], [1.0, 0.0]])  # hierarchy index 0 -> 1
    raise_m = np.kron(np.kron(up, np.eye(2)), c * (right(l_in.T) - left(l_in.T)))
    raise_n = np.kron(np.kron(np.eye(2), up), np.conj(c) * (left(l_in) - right(l_in)))
    return np.kron(eye, d), raise_m + raise_n


def integrate_hierarchy(
    params: AbsorberParams,
    t_start: float,
    t_end: float,
    dt: float | None = None,
) -> TransductionTrace:
    """Propagate the single-photon hierarchy with fixed-step RK4.

    The pulse must start in the far Gaussian tail (t_start < t_arrival - 4
    tau_f) and the step must resolve the envelope (dt <= tau_f / 100; the
    default is tau_f / 1000). Every SAMPLE_EVERY-th step and the last one are
    stored. Raises IntegrationError if the trace of the physical block drifts
    beyond 1e-5.
    """
    if dt is None:
        dt = params.tau_f / 1000.0
    if t_start >= params.t_arrival - 4.0 * params.tau_f:
        raise ValueError(
            f"t_start = {t_start} must precede t_arrival - 4 tau_f = "
            f"{params.t_arrival - 4.0 * params.tau_f} (pulse tail)"
        )
    if dt > params.tau_f / 100.0:
        raise ValueError(f"dt = {dt} exceeds tau_f / 100 = {params.tau_f / 100.0}")
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")

    a, b = _generators(params)
    pulse = params.pulse

    def deriv(t, y):
        return a @ y + float(pulse.amplitude(t)) * (b @ y)

    n_steps = int(np.ceil((t_end - t_start) / dt - 1e-12))
    steps = np.append(np.arange(0, n_steps, SAMPLE_EVERY), n_steps)  # sampled step counts
    times = t_start + steps * dt
    states = np.zeros((steps.size, 2, 2, 4, 4), dtype=complex)
    states[0, 0, 0, _G, _G] = states[0, 1, 1, _G, _G] = 1.0
    y = states[0].ravel()
    for k in range(1, steps.size):
        for i in range(steps[k - 1], steps[k]):
            y = rk4_step(y, t_start + i * dt, dt, deriv)
        states[k] = y.reshape(2, 2, 4, 4)
        tr = states[k, 1, 1].trace().real
        if not abs(tr - 1.0) <= 1e-5:
            raise IntegrationError(
                f"trace of the physical block drifted to {tr:.8f} at "
                f"t = {times[k]:.4f} with dt = {dt}"
            )
    pe = states[:, 1, 1, _E, _E].real.copy()
    return TransductionTrace(times=times, pe=pe, pe_steady=float(pe.max()), states=states)


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
) -> TransductionMap:
    """Transduction probability map; both decay rates are set to gamma."""
    delta_pp_values = np.asarray(delta_pp_values, dtype=float)
    gamma_values = np.asarray(gamma_values, dtype=float)
    if delta_pp_values.size == 0 or gamma_values.size == 0:
        raise ValueError("grid must be nonempty")
    if t_end is None:
        t_end = pulse.t_arrival + 10.0 * pulse.tau_f
    t_start = pulse.t_arrival - 5.0 * pulse.tau_f
    table = np.zeros((delta_pp_values.size, gamma_values.size))
    for i, d in enumerate(delta_pp_values):
        for j, g in enumerate(gamma_values):
            params = AbsorberParams(
                delta_pp=float(d),
                gamma_fg=float(g),
                gamma_he=float(g),
                tau_f=pulse.tau_f,
                t_arrival=pulse.t_arrival,
            )
            try:
                trace = integrate_hierarchy(params, t_start, t_end, dt=dt)
            except (IntegrationError, ValueError) as err:
                raise RuntimeError(
                    f"transduction map cell (delta_pp={d}, gamma={g}) failed: {err}"
                ) from err
            table[i, j] = trace.pe_steady
    return TransductionMap(
        delta_pp_values=delta_pp_values, gamma_values=gamma_values, pe_steady=table
    )
