"""Single-photon transduction in a 4-level Lambda absorber.

A Gaussian one-photon pulse pumps |g> -> |f>; a coherent coupling delta_pp
mixes the excited states |f> <-> |h>; spontaneous decay |h> -> |e> stores the
detection event in the metastable state |e>. The dynamics is the single-photon
Fock-state master equation: a 2x2-indexed hierarchy of generalized 4x4 density
blocks rho_mn coupled by the pulse amplitude, with the physical state rho_11.

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
class FockHierarchyState:
    """The four generalized density blocks at one instant."""

    rho_00: np.ndarray
    rho_01: np.ndarray
    rho_10: np.ndarray
    rho_11: np.ndarray

    @classmethod
    def from_array(cls, rho: np.ndarray) -> "FockHierarchyState":
        return cls(
            rho_00=rho[0, 0].copy(),
            rho_01=rho[0, 1].copy(),
            rho_10=rho[1, 0].copy(),
            rho_11=rho[1, 1].copy(),
        )

    def hermiticity_defect(self) -> float:
        d = max(
            np.abs(self.rho_00 - self.rho_00.conj().T).max(),
            np.abs(self.rho_11 - self.rho_11.conj().T).max(),
            np.abs(self.rho_10 - self.rho_01.conj().T).max(),
        )
        return float(d)

    def min_eigenvalue_11(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.rho_11 + self.rho_11.conj().T)).min())


@dataclass(frozen=True)
class TransductionTrace:
    """P_e(t) samples; pe_steady is the max over the trace (the saturation value)."""

    times: np.ndarray
    pe: np.ndarray
    pe_steady: float
    states: tuple

    def pe_at(self, t):
        return np.interp(t, self.times, self.pe)


def _operators(params: AbsorberParams):
    h = np.zeros((4, 4))
    h[_F, _H] = h[_H, _F] = params.delta_pp
    l1 = np.zeros((4, 4))
    l1[_G, _F] = np.sqrt(params.gamma_fg)  # |g><f|
    l2 = np.zeros((4, 4))
    l2[_E, _H] = np.sqrt(params.gamma_he)  # |e><h|
    return h, l1, l2


def integrate_hierarchy(
    params: AbsorberParams,
    t_start: float,
    t_end: float,
    dt: float | None = None,
    sample_every: int = 10,
) -> TransductionTrace:
    """Propagate the single-photon hierarchy with fixed-step RK4.

    The pulse must start in the far Gaussian tail (t_start < t_arrival - 4
    tau_f) and the step must resolve the envelope (dt <= tau_f / 100; the
    default is tau_f / 1000). Raises IntegrationError if the trace of the
    physical block drifts beyond 1e-5.
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

    h, l1, l2 = _operators(params)
    l1d, l2d = l1.T.copy(), l2.T.copy()
    esum = l1d @ l1 + l2d @ l2
    g_amp = np.sqrt(params.eta_scatter)
    ph_m = g_amp * np.exp(1j * params.phase)
    ph_n = g_amp * np.exp(-1j * params.phase)
    pulse = params.pulse

    n_steps = int(np.ceil((t_end - t_start) / dt - 1e-12))

    rho = np.zeros((2, 2, 4, 4), dtype=complex)
    rho[0, 0, _G, _G] = 1.0
    rho[1, 1, _G, _G] = 1.0

    def deriv(t, rho_in):
        xi_t = float(pulse.amplitude(t))
        out = -1j * (h @ rho_in - rho_in @ h)
        out += l1 @ rho_in @ l1d + l2 @ rho_in @ l2d
        out -= 0.5 * (esum @ rho_in + rho_in @ esum)
        drive_m = (xi_t * ph_m) * (rho_in[0] @ l1d - l1d @ rho_in[0])
        drive_n = (xi_t * ph_n) * (l1 @ rho_in[:, 0] - rho_in[:, 0] @ l1)
        out[1] += drive_m
        out[:, 1] += drive_n
        return out

    times = [t_start]
    pe = [float(rho[1, 1, _E, _E].real)]
    states = [FockHierarchyState.from_array(rho)]
    for i in range(n_steps):
        rho = rk4_step(rho, t_start + i * dt, dt, deriv)
        if (i + 1) % sample_every == 0 or i == n_steps - 1:
            tr = rho[1, 1].trace().real
            if not abs(tr - 1.0) <= 1e-5:
                raise IntegrationError(
                    f"trace of the physical block drifted to {tr:.8f} at "
                    f"t = {t_start + (i + 1) * dt:.4f} with dt = {dt}"
                )
            times.append(t_start + (i + 1) * dt)
            pe.append(float(rho[1, 1, _E, _E].real))
            states.append(FockHierarchyState.from_array(rho))

    times = np.asarray(times)
    pe = np.asarray(pe)
    return TransductionTrace(times=times, pe=pe, pe_steady=float(pe.max()), states=tuple(states))


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
