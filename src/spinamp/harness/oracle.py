"""Full-Hilbert-space oracle: independent check of the collective-sector path.

The Hamiltonian is rebuilt directly from its Pauli terms on all 2^N states
(no pair-sum identity, no Dicke basis) and dense-diagonalized. Observables
are then computed from the collective operators sum_j s_j^a / 2 acting on
the full space.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

MAX_ORACLE_QUBITS = 12  # 4096-dim dense; cost guard

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
# i*sigma_y is real; sigma_y^(i) sigma_y^(j) = -(i sigma_y)_i (i sigma_y)_j
_ISY = np.array([[0.0, 1.0], [-1.0, 0.0]])


class OracleStatics(NamedTuple):
    e0: float
    gap: float
    zeta_x: float
    zeta_y: float
    c_xy: float
    c_xxyy: float


def _site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    return np.kron(np.eye(2**site), np.kron(op, np.eye(2 ** (n - 1 - site))))


def brute_force_hamiltonian(n_qubits: int, jx: float, jy: float, bx: float, epsilon: float = 1.0) -> np.ndarray:
    """H = (eps/2) sum s_z - (1/N) sum_{i<j} (J_x s^x s^x + J_y s^y s^y) + B_x sum s^x.

    Each Pauli term is a signed permutation of the basis states, added in
    O(2^N) rather than as a dense Kronecker product. Site j is the bit
    2^(N-1-j) of the state index, set for spin down, as in the Kronecker
    order of collective_operators: s^z_j is the sign +1 / -1 of the bit
    clear / set, s^x_j flips the bit, and s^x_i s^x_j flips both bits.
    s^y_i s^y_j = -(i s^y)_i (i s^y)_j flips both bits too, with sign -1
    where the two bits are equal and +1 where they differ. The terms are
    added in the order of the Kronecker sum, so the matrix is the same to
    the last bit.
    """
    if n_qubits > MAX_ORACLE_QUBITS:
        raise ValueError(f"oracle capped at N = {MAX_ORACLE_QUBITS} (got {n_qubits})")
    n = n_qubits
    states = np.arange(2**n)
    bits = [1 << (n - 1 - j) for j in range(n)]
    h = np.zeros((states.size, states.size))
    diagonal = np.zeros(states.size)
    for bit in bits:
        diagonal += (epsilon / 2.0) * np.where(states & bit, -1.0, 1.0)
        h[states ^ bit, states] += bx
    h[states, states] = diagonal
    for i in range(n):
        for j in range(i + 1, n):
            flipped = states ^ (bits[i] | bits[j])
            differ = ((states & bits[i]) == 0) != ((states & bits[j]) == 0)
            h[flipped, states] -= jx / n
            h[flipped, states] -= (jy / n) * np.where(differ, 1.0, -1.0)
    return h


def collective_operators(n_qubits: int):
    """(S_x, iS_y_real, S_z) on the full space; S_y = -i * (iS_y_real)."""
    n = n_qubits
    dim = 2**n
    sx = np.zeros((dim, dim))
    isy = np.zeros((dim, dim))
    sz = np.zeros((dim, dim))
    for j in range(n):
        sx += _site_operator(_SX, j, n) / 2.0
        isy += _site_operator(_ISY, j, n) / 2.0
        sz += _site_operator(_SZ, j, n) / 2.0
    return sx, isy, sz


def symmetric_sector_basis(n_qubits: int) -> np.ndarray:
    """Columns are the normalized Dicke states |S, m>, m ascending, in the
    full 2^N basis (bit set = spin down)."""
    n = n_qubits
    dim = 2**n
    basis = np.zeros((dim, n + 1))
    n_down = np.array([bin(b).count("1") for b in range(dim)])
    for k in range(n + 1):  # k = S + m, i.e. number of up spins
        rows = np.nonzero(n_down == n - k)[0]
        basis[rows, k] = 1.0 / np.sqrt(rows.size)
    return basis


def brute_force_statics(
    n_qubits: int, jx: float, jy: float, bx: float = 0.0, epsilon: float = 1.0
) -> OracleStatics:
    """Ground-state observables from full 2^N dense diagonalization."""
    if n_qubits > MAX_ORACLE_QUBITS:
        raise ValueError(f"oracle capped at N = {MAX_ORACLE_QUBITS} (got {n_qubits})")
    h = brute_force_hamiltonian(n_qubits, jx, jy, bx, epsilon)
    w, v = scipy.linalg.eigh(h, subset_by_index=(0, 1))
    ground = v[:, 0]
    sx, isy, _ = collective_operators(n_qubits)

    x_psi = sx @ ground
    iy_psi = isy @ ground  # S_y psi = -i * iy_psi for real psi
    n2 = float(n_qubits) ** 2
    zeta_x = float(x_psi @ x_psi) / n2
    zeta_y = float(iy_psi @ iy_psi) / n2

    mean_x = float(ground @ x_psi)
    mean_y = float(np.real(-1j * (ground @ iy_psi)))
    # Re <S_x S_y> = Re[(S_x psi)^dag (-i)(iS_y psi)] = Im[x_psi . iy_psi] = 0 for real vectors
    c_xy = float(np.real(np.vdot(x_psi, -1j * iy_psi))) - mean_x * mean_y

    x2_psi = sx @ x_psi
    y2_psi = -(isy @ iy_psi)  # S_y^2 = -(iS_y)^2
    mean_x2 = float(ground @ x2_psi)
    mean_y2 = float(ground @ y2_psi)
    c_xxyy = float(x2_psi @ y2_psi) - mean_x2 * mean_y2

    return OracleStatics(
        e0=float(w[0]),
        gap=float(w[1] - w[0]),
        zeta_x=zeta_x,
        zeta_y=zeta_y,
        c_xy=c_xy,
        c_xxyy=c_xxyy,
    )
