"""Constructions only the tests use: a zero drive, dense matrices, coherent
states, the analytic J_x = J_y spectrum and a pulse's norm on a grid."""

import numpy as np

from spinamp.absorber import PulseEnvelope
from spinamp.amplifier_dynamics import DriveSchedule
from spinamp.dicke import BandedHermitianOperator, DickeSpace, coherent_log_magnitudes
from spinamp.lmg_statics import LmgParams


def zero_drive(t_start: float, t_end: float) -> DriveSchedule:
    return DriveSchedule(times=np.array([t_start, t_end]), pe=np.zeros(2))


def densify(op: BandedHermitianOperator) -> np.ndarray:
    """Full real matrix form."""
    n = op.dimension
    a = np.zeros((n, n))
    idx = np.arange(n)
    a[idx, idx] = op.bands[0]
    for k in range(1, op.bandwidth + 1):
        u = op.bands[k][: n - k]
        a[idx[: n - k], idx[k:]] = u
        a[idx[k:], idx[: n - k]] = u
    return a


def coherent_amplitudes(space: DickeSpace, theta: float, phi: float) -> np.ndarray:
    """Amplitudes <S,m|theta,phi> = sqrt(C(2S,S+m)) cos^(S+m)(t/2) sin^(S-m)(t/2) e^{-i(S-m)phi}.

    The spin coherent state along (theta, phi), as a read-only complex array.
    """
    log_mag = coherent_log_magnitudes(space, np.array([theta]))[0]
    with np.errstate(under="ignore"):
        mag = np.exp(log_mag)
    k = np.arange(space.dimension)
    amps = np.ascontiguousarray(mag * np.exp(-1j * (space.n_qubits - k) * phi), dtype=complex)
    amps.setflags(write=False)
    return amps


def solvable_line_energies(params: LmgParams) -> np.ndarray:
    """Analytic spectrum eps*m - (2J/N)[S(S+1) - m^2] + J on the line jx == jy, bx == 0."""
    if params.jx != params.jy or params.bx != 0.0:
        raise ValueError("analytic spectrum only exists for jx == jy with bx == 0")
    space = params.space
    m = space.m_values()
    s = params.n_qubits / 2.0
    j = params.jx
    return params.epsilon * m - (2.0 * j / params.n_qubits) * (s * (s + 1.0) - m * m) + j


def norm_on_grid(pulse: PulseEnvelope, times: np.ndarray) -> float:
    amp = pulse.amplitude(times)
    return float(np.trapezoid(amp * amp, times))
