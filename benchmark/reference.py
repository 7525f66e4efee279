"""Independent physics used by the output checks.

Nothing here imports spinamp. The matrices are built from the closed-form
Dicke matrix elements, the absorber is the single-photon Fock-state master
equation (Baragiola et al., PRA 86, 013811 (2012)) written as Kronecker
superoperators, and time evolution goes through scipy.integrate.solve_ivp.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.integrate import solve_ivp

# --------------------------------------------------------------------------
# Dicke space, basis |S, m> with m ascending from -S to +S


def ladder(n_qubits: int) -> np.ndarray:
    """<m+1|S_+|m> for m = -S .. S-1."""
    s = n_qubits / 2.0
    m = np.arange(-s, s)
    return np.sqrt(s * (s + 1.0) - m * (m + 1.0))


def line_bands(n_qubits: int, j: float, epsilon: float, bx: float):
    """Diagonal and first off-diagonal of H on the line J_x = J_y = j.

    There S_x^2 + S_y^2 = S(S+1) - S_z^2, so
    H = eps S_z - (2j/N)[S(S+1) - S_z^2] + j + 2 bx S_x is tridiagonal.
    """
    s = n_qubits / 2.0
    m = np.arange(-s, s + 1.0)
    diag = epsilon * m - (2.0 * j / n_qubits) * (s * (s + 1.0) - m * m) + j
    return diag, bx * ladder(n_qubits)


def line_spectrum(n_qubits: int, j: float, epsilon: float) -> np.ndarray:
    """Sorted analytic spectrum E(m) = eps m - (2j/N)[S(S+1) - m^2] + j at bx = 0."""
    return np.sort(line_bands(n_qubits, j, epsilon, 0.0)[0])


def line_magnetization(n_qubits: int, j: float, epsilon: float, bx: float) -> float:
    """M_x = -<S_x>/N in the ground state of the tridiagonal line Hamiltonian."""
    diag, off = line_bands(n_qubits, j, epsilon, bx)
    _, vec = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    v = vec[:, 0]
    # <S_x> = sum_m c_m v_m v_{m+1}, twice the half-element c_m / 2
    return -float(np.sum(ladder(n_qubits) * v[:-1] * v[1:])) / n_qubits


def line_chi_central(n_qubits: int, j: float, epsilon: float, bx: float, rel_step: float) -> float:
    up = line_magnetization(n_qubits, j, epsilon, bx * (1.0 + rel_step))
    dn = line_magnetization(n_qubits, j, epsilon, bx * (1.0 - rel_step))
    return (up - dn) / (2.0 * bx * rel_step)


def spin_matrices(n_qubits: int):
    """Sparse S_x, S_x^2, S_y^2 and S_z from S_+ (real; S_y^2 = -(S_+ - S_-)^2/4)."""
    sp = scipy.sparse.diags(ladder(n_qubits), -1, format="csr")
    sm = sp.T.tocsr()
    sx = 0.5 * (sp + sm)
    diff = sp - sm
    sy2 = -0.25 * (diff @ diff)
    s = n_qubits / 2.0
    sz = scipy.sparse.diags(np.arange(-s, s + 1.0), 0, format="csr")
    return sx.tocsr(), (sx @ sx).tocsr(), sy2.tocsr(), sz


def lmg_hamiltonian(n_qubits: int, jx: float, jy: float, epsilon: float):
    """Sparse H_Am = eps S_z - (jx/N)(2 S_x^2 - N/2) - (jy/N)(2 S_y^2 - N/2), and S_x, S_x^2."""
    sx, sx2, sy2, sz = spin_matrices(n_qubits)
    eye = scipy.sparse.identity(n_qubits + 1, format="csr")
    h = (
        epsilon * sz
        - (jx / n_qubits) * (2.0 * sx2 - (n_qubits / 2.0) * eye)
        - (jy / n_qubits) * (2.0 * sy2 - (n_qubits / 2.0) * eye)
    )
    return h.tocsr(), sx, sx2


# --------------------------------------------------------------------------
# single-photon Fock-state master equation for the four-level absorber

_G, _F, _H, _E = 0, 1, 2, 3


def fock_generators(delta_pp, gamma_fg, gamma_he, eta=1.0, phase=0.0):
    """A and B of d/dt [r00, r01, r10, r11] = (A + xi(t) B) [r00, r01, r10, r11].

    Each block is a row-major flattened 4x4 matrix. The photon enters through
    L = sqrt(gamma_fg)|g><f| with amplitude c xi(t), c = sqrt(eta) e^{i phase}:
      r00' = D r00
      r01' = D r01 + conj(c) xi [L, r00]
      r10' = D r10 + c xi [r00, L^+]
      r11' = D r11 + c xi [r01, L^+] + conj(c) xi [L, r10]
    with D the Lindblad generator of H = delta_pp(|f><h| + |h><f|), L and
    sqrt(gamma_he)|e><h|.
    """
    eye = np.eye(4)

    def left(a):  # rho -> a rho
        return np.kron(a, eye)

    def right(b):  # rho -> rho b
        return np.kron(eye, b.T)

    h = np.zeros((4, 4))
    h[_F, _H] = h[_H, _F] = delta_pp
    l_in = np.zeros((4, 4))
    l_in[_G, _F] = np.sqrt(gamma_fg)
    l_out = np.zeros((4, 4))
    l_out[_E, _H] = np.sqrt(gamma_he)
    lind = -1j * (left(h) - right(h))
    for op in (l_in, l_out):
        ldl = op.T @ op
        lind = lind + left(op) @ right(op.T) - 0.5 * (left(ldl) + right(ldl))
    c = np.sqrt(eta) * np.exp(1j * phase)
    with_l = np.conj(c) * (left(l_in) - right(l_in))  # [L, rho]
    with_ld = c * (right(l_in.T) - left(l_in.T))  # [rho, L^+]
    a = scipy.linalg.block_diag(lind, lind, lind, lind)
    b = np.zeros((64, 64), dtype=complex)
    b[16:32, 0:16] = with_l
    b[32:48, 0:16] = with_ld
    b[48:64, 16:32] = with_ld
    b[48:64, 32:48] = with_l
    return a, b


def fock_initial_state() -> np.ndarray:
    y = np.zeros((4, 4, 4), dtype=complex)
    y[0, _G, _G] = 1.0
    y[3, _G, _G] = 1.0
    return y.ravel()


PE_INDEX = 48 + 4 * _E + _E  # <e|r11|e> in the flattened state


def pulse_amplitude(t, tau_f, t_arrival):
    pref = (2.0 * np.pi * tau_f**2) ** -0.25
    return pref * np.exp(-((t - t_arrival) ** 2) / (4.0 * tau_f**2))


def gain_samples(n_qubits, jx, jy, epsilon, bx, absorber, pulse, t_start, sample_times, rtol=1e-10):
    """G(t) = <S_x^2>(t) / <S_x^2>(t_start) under H_Am + 2 P_e(t) bx S_x.

    The absorber and the amplifier are one ODE system, so the drive is the
    exact P_e(t) of the master equation with no sampling or interpolation.
    The amplifier starts in a ground state of H_Am; any vector of a
    degenerate ground doublet gives the same G to ~1e-11.
    """
    h, sx, sx2 = lmg_hamiltonian(n_qubits, jx, jy, epsilon)
    e0, vec = scipy.linalg.eigh(h.toarray(), subset_by_index=[0, 0])
    dim = n_qubits + 1
    h_shift = (h - e0[0] * scipy.sparse.identity(dim)).astype(complex).tocsr()
    drive = (2.0 * bx * sx).astype(complex).tocsr()
    a, b = fock_generators(
        absorber["delta_pp"], absorber["gamma_fg"], absorber["gamma_he"],
        absorber.get("eta", 1.0), absorber.get("phase", 0.0),
    )
    tau, t_arr = pulse["tau_f"], pulse["t_arrival"]

    def rhs(t, y):
        psi, rho = y[:dim], y[dim:]
        pe = rho[PE_INDEX].real
        dpsi = -1j * (h_shift @ psi + pe * (drive @ psi))
        drho = a @ rho + pulse_amplitude(t, tau, t_arr) * (b @ rho)
        return np.concatenate((dpsi, drho))

    y0 = np.concatenate((vec[:, 0].astype(complex), fock_initial_state()))
    sol = solve_ivp(
        rhs, (t_start, sample_times[-1]), y0, method="DOP853",
        t_eval=sample_times, rtol=rtol, atol=rtol * 1e-2,
    )
    if not sol.success:
        raise RuntimeError(f"reference amplifier integration failed: {sol.message}")
    psi = sol.y[:dim]
    sx2_t = np.einsum("ij,ij->j", psi.conj(), sx2 @ psi).real
    return sx2_t / sx2_t[0]
