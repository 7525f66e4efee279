"""Full-Hilbert-space oracle: independent check of the collective-sector path.

The Hamiltonian is rebuilt directly from its Pauli terms on all 2^N states
(no pair-sum identity, no Dicke basis) and dense-diagonalized. Observables
are then computed from the collective operators sum_j s_j^a / 2 acting on
the full space. Both are built by one bit rule: site j is the bit 2^(N-1-j)
of the state index, set for spin down, and each Pauli term is a signed
permutation of the basis states, added in O(2^N) per term.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

MAX_ORACLE_QUBITS = 12  # 4096-dim dense; cost guard


class OracleStatics(NamedTuple):
    e0: float
    gap: float
    zeta_x: float
    zeta_y: float
    c_xy: float
    c_xxyy: float


def brute_force_hamiltonian(n_qubits: int, jx: float, jy: float, bx: float, epsilon: float = 1.0) -> np.ndarray:
    """H = (eps/2) sum s_z - (1/N) sum_{i<j} (J_x s^x s^x + J_y s^y s^y) + B_x sum s^x.

    Each Pauli term is a signed permutation of the basis states, by the bit
    rule of collective_operators: s^z_j is the sign +1 / -1 of the bit
    clear / set, s^x_j flips the bit, and s^x_i s^x_j flips both bits.
    s^y_i s^y_j = -(i s^y)_i (i s^y)_j flips both bits too, with sign -1
    where the two bits are equal and +1 where they differ. The terms are
    added in the order of the Kronecker sum over sites and pairs, so the
    matrix equals that sum to the last bit.
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
    """(S_x, iS_y_real, S_z) on the full space; S_y = -i * (iS_y_real).

    Per site, s^z_j / 2 adds +1/2 / -1/2 on the diagonal where the bit is
    clear / set, s^x_j / 2 adds 1/2 from each state to the one with the bit
    flipped, and (i s^y)_j / 2 = [[0, 1], [-1, 0]] / 2 in the order (up,
    down) adds +1/2 from a set to a clear bit and -1/2 the other way. Every
    entry is a sum of halves, so it is exact.
    """
    n = n_qubits
    states = np.arange(2**n)
    sx = np.zeros((states.size, states.size))
    isy = np.zeros((states.size, states.size))
    sz = np.zeros((states.size, states.size))
    for j in range(n):
        bit = 1 << (n - 1 - j)
        down = (states & bit) != 0
        sx[states ^ bit, states] += 0.5
        isy[states ^ bit, states] += np.where(down, 0.5, -0.5)
        sz[states, states] += np.where(down, -0.5, 0.5)
    return sx, isy, sz


def brute_force_statics(
    n_qubits: int, jx: float, jy: float, bx: float = 0.0, epsilon: float = 1.0
) -> OracleStatics:
    """Ground-state observables from full 2^N dense diagonalization; past
    MAX_ORACLE_QUBITS, brute_force_hamiltonian refuses the build."""
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
