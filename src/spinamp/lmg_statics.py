"""Statics of the anisotropic all-to-all qubit amplifier.

The Hamiltonian, in the Dicke basis and in units of the qubit splitting, is

    H = eps*S_z - (J_x/N)(2 S_x^2 - N/2) - (J_y/N)(2 S_y^2 - N/2) + 2 B_x S_x

using the pair-sum identity sum_{i<j} s_i^a s_j^a = 2 S_a^2 - N/2 for the
all-to-all coupling. The constant +(J_x+J_y)/2 is retained so absolute
energies stay traceable; gaps and order parameters are unaffected. The
result is a real symmetric pentadiagonal matrix; ``solve_ground`` finds its
two lowest eigenpairs in O(N) time and memory, by a branch that the field
selects: a parity split into two tridiagonal blocks at B_x = 0, and banded
eigenvalues plus banded inverse iteration at B_x != 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dicke import BandedHermitianOperator, DickeSpace, build_collective_operator, expectation


class EigensolverError(RuntimeError):
    """Eigensolver failure, carrying the dimension and parameters."""

    def __init__(self, message: str, dimension: int, params: "LmgParams"):
        super().__init__(f"{message} (dimension={dimension}, params={params})")
        self.dimension = dimension
        self.params = params


@dataclass(frozen=True)
class LmgParams:
    """Couplings of the amplifier, all in units of the splitting epsilon."""

    n_qubits: int
    jx: float
    jy: float
    bx: float = 0.0
    epsilon: float = 1.0

    def __post_init__(self):
        for name in ("jx", "jy", "bx", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.jx < 0.0 or self.jy < 0.0:
            raise ValueError(f"couplings must be ferromagnetic (jx, jy >= 0), got {self.jx}, {self.jy}")

    @property
    def space(self) -> DickeSpace:
        return DickeSpace(self.n_qubits)


@dataclass(frozen=True)
class GroundStateResult:
    e0: float
    e1: float
    gap: float
    ground: np.ndarray
    params: LmgParams

    def __post_init__(self):
        if self.gap < -1e-10:
            raise ValueError(f"eigenvalues out of order: gap = {self.gap}")


@dataclass(frozen=True)
class OrderParameters:
    """zeta_a = <S_a^2>_0 / N^2, the squared magnetization densities."""

    zeta_x: float
    zeta_y: float


@dataclass(frozen=True)
class CorrelationSet:
    """Symmetrized x-y correlators of the ground state.

    eta = (2/N)|c_xxyy|^(1/4) is the rescaled correlation, read as the
    fraction of correlated qubits.
    """

    c_xy: float
    c_xxyy: float
    eta: float


def assemble_hamiltonian(params: LmgParams) -> BandedHermitianOperator:
    """Real symmetric pentadiagonal amplifier Hamiltonian."""
    space = params.space
    n_q = params.n_qubits
    dim = space.dimension
    m = space.m_values()
    c = space.ladder_coefficients()
    s = n_q / 2.0
    sq_diag = (s * (s + 1.0) - m * m) / 2.0  # shared diagonal of S_x^2 and S_y^2
    bands = np.zeros((3, dim))
    bands[0] = (
        params.epsilon * m
        - (2.0 * params.jx / n_q) * sq_diag
        - (2.0 * params.jy / n_q) * sq_diag
        + (params.jx + params.jy) / 2.0
    )
    bands[1, : dim - 1] = params.bx * c  # 2*B_x*S_x contributes B_x*c_m on the first band
    if dim >= 3:
        pair = c[:-1] * c[1:] / 4.0
        bands[2, : dim - 2] = -(2.0 / n_q) * (params.jx - params.jy) * pair
    return BandedHermitianOperator(dim, 2, bands)


def solvable_line_energies(params: LmgParams) -> np.ndarray:
    """Analytic spectrum eps*m - (2J/N)[S(S+1) - m^2] + J on the line jx == jy, bx == 0."""
    if params.jx != params.jy or params.bx != 0.0:
        raise ValueError("analytic spectrum only exists for jx == jy with bx == 0")
    space = params.space
    m = space.m_values()
    s = params.n_qubits / 2.0
    j = params.jx
    return params.epsilon * m - (2.0 * j / params.n_qubits) * (s * (s + 1.0) - m * m) + j


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Deterministic global sign: first non-negligible component positive."""
    thresh = 1e-12 * np.abs(vec).max()
    idx = np.argmax(np.abs(vec) > thresh)
    if vec[idx] < 0.0:
        vec = -vec
    return vec


def _ground_by_parity(h: BandedHermitianOperator):
    """E0, E1 and the ground vector from the even and odd m-offset blocks at B_x = 0.

    Bisection leaves each eigenvalue a few ulp of |H| off, so levels closer
    than 4 ulp are a tie; on a tie the even block supplies the vector.
    """
    n = h.dimension
    found = []  # (eigenvalue, parity, block_vector)
    for par in (0, 1):
        idx = np.arange(par, n, 2)
        w, v = scipy.linalg.eigh_tridiagonal(
            h.bands[0][idx], h.bands[2][idx[:-1]], select="i", select_range=(0, min(1, idx.size - 1))
        )
        found.extend((float(w[i]), par, v[:, i]) for i in range(w.size))
    found.sort(key=lambda t: t[0])
    e0, e1 = found[0][0], found[1][0]
    tie = 4.0 * np.spacing(h.norm_upper_bound())
    _, par, vb = min((f for f in found if f[0] - e0 <= tie), key=lambda f: f[1])
    vec = np.zeros(n)
    vec[par::2] = vb
    return e0, e1, vec


def _inverse_iterate(ab: np.ndarray, u: int) -> np.ndarray:
    vec = np.ones(ab.shape[1])
    for _ in range(3):
        vec = scipy.linalg.solve_banded((u, u), ab, vec)
        vec /= np.linalg.norm(vec)
    return vec


def _ground_by_inverse_iteration(h: BandedHermitianOperator):
    """E0 and E1 from eigenvalues only; the vector from 3 inverse-iteration steps at E0.

    The Rayleigh quotient then refines E0. An exactly singular LU moves the
    shift by one ulp of |H|.
    """
    upper = h.scipy_upper_bands()
    e0, e1 = scipy.linalg.eigvals_banded(upper, select="i", select_range=(0, 1))
    u, n = upper.shape[0] - 1, h.dimension
    ab = np.vstack([upper, np.zeros((u, n))])  # general (u, u) band storage
    for k in range(1, u + 1):
        ab[u + k, : n - k] = upper[u - k, k:]
    ab[u] -= e0
    try:
        vec = _inverse_iterate(ab, u)
    except scipy.linalg.LinAlgError:  # exactly singular
        ab[u] -= np.spacing(h.norm_upper_bound())
        vec = _inverse_iterate(ab, u)
    return float(vec @ h.matvec(vec)), float(e1), vec


def solve_ground(params: LmgParams) -> GroundStateResult:
    """Two lowest eigenpairs of the assembled Hamiltonian, in O(N).

    At B_x = 0, H commutes with the pi rotation about z, so its even and odd
    m-offset sublattices decouple into two tridiagonal blocks, each solved
    by bisection and inverse iteration. Deep in an ordered phase the ground
    doublet is degenerate to machine precision; the split still returns a
    parity eigenstate, not an arbitrary mix of the pair. At B_x != 0, E0 and
    E1 come from a banded eigenvalue-only solve, which forms no N x N
    transform, and the ground vector from banded inverse iteration at E0.
    The vector is real, stored complex for uniformity, with a deterministic
    global sign; its residual must stay within 1e-8 * max(|H|, 1).
    """
    h = assemble_hamiltonian(params)
    try:
        if params.bx == 0.0:
            e0, e1, vec = _ground_by_parity(h)
        else:
            e0, e1, vec = _ground_by_inverse_iteration(h)
    except (scipy.linalg.LinAlgError, ValueError) as err:
        raise EigensolverError(f"eigensolver failed: {err}", h.dimension, params) from err
    vec = _fix_sign(vec)
    nrm = np.linalg.norm(vec)
    vec = vec / nrm
    residual = np.linalg.norm(h.matvec(vec) - e0 * vec)
    h_norm = h.norm_upper_bound()
    if not residual <= 1e-8 * max(h_norm, 1.0):
        raise EigensolverError(
            f"eigenpair residual {residual:.3e} exceeds 1e-8 * |H| = {1e-8 * h_norm:.3e}",
            h.dimension,
            params,
        )
    return GroundStateResult(e0=e0, e1=e1, gap=e1 - e0, ground=vec.astype(complex), params=params)


def order_parameters(result: GroundStateResult) -> OrderParameters:
    space = result.params.space
    n2 = float(result.params.n_qubits) ** 2
    zx = expectation(build_collective_operator(space, "Sx2"), result.ground) / n2
    zy = expectation(build_collective_operator(space, "Sy2"), result.ground) / n2
    return OrderParameters(zeta_x=zx, zeta_y=zy)


def correlations(result: GroundStateResult) -> CorrelationSet:
    """C_xy, C_xxyy and the rescaled correlation eta.

    Operator products are applied as successive banded applications to the
    state; dense products are never formed.
    """
    space = result.params.space
    psi = result.ground
    sx = build_collective_operator(space, "Sx")
    sy = build_collective_operator(space, "Sy")
    sx2 = build_collective_operator(space, "Sx2")
    sy2 = build_collective_operator(space, "Sy2")

    x_psi = sx.matvec(psi)
    y_psi = sy.matvec(psi)
    mean_x = expectation(sx, psi)
    mean_y_c = np.vdot(psi, y_psi)
    mean_y = float(mean_y_c.real)
    c_xy = float(np.vdot(x_psi, y_psi).real) - mean_x * mean_y

    x2_psi = sx2.matvec(psi)
    y2_psi = sy2.matvec(psi)
    mean_x2 = expectation(sx2, psi)
    mean_y2 = expectation(sy2, psi)
    c_xxyy = float(np.vdot(x2_psi, y2_psi).real) - mean_x2 * mean_y2

    eta = (2.0 / result.params.n_qubits) * abs(c_xxyy) ** 0.25
    return CorrelationSet(c_xy=c_xy, c_xxyy=c_xxyy, eta=eta)
