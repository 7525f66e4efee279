"""Statics of the anisotropic all-to-all qubit amplifier.

The Hamiltonian, in the Dicke basis and in units of the qubit splitting, is

    H = eps*S_z - (J_x/N)(2 S_x^2 - N/2) - (J_y/N)(2 S_y^2 - N/2) + 2 B_x S_x

using the pair-sum identity sum_{i<j} s_i^a s_j^a = 2 S_a^2 - N/2 for the
all-to-all coupling. The constant +(J_x+J_y)/2 is retained so absolute
energies stay traceable; gaps and order parameters are unaffected. The
result is a real symmetric pentadiagonal matrix; ``solve_ground`` finds its
two lowest eigenpairs in O(N) time and memory, by a branch that the field
selects: a parity split into two tridiagonal blocks at B_x = 0, and at
B_x != 0 shift-and-invert with banded Cholesky factors of H - sigma*I, whose
existence certifies sigma < E0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .dicke import BandedHermitianOperator, DickeSpace, add_band_products, build_collective_operator, expectation


class EigensolverError(RuntimeError):
    """Eigensolver failure, naming the step that failed and the parameter point."""

    def __init__(self, step: str, message: str, dimension: int, params: "LmgParams"):
        super().__init__(f"[{step}] {message} (dimension={dimension}, params={params})")
        self.step = step


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
    """E0, the ground vector and its parameters; the gap E1 - E0 is found on its first read.

    excited is the zero-argument step that gives the gap, from either branch
    of solve_ground; the first read of gap runs it once. At B_x = 0 it hands
    back the gap the solve found with the ground pair, and at B_x != 0 it runs
    E1's Lanczos.
    """

    e0: float
    ground: np.ndarray
    params: LmgParams
    excited: Callable[[], float] = field(repr=False, compare=False)

    @functools.cached_property
    def gap(self) -> float:
        gap = self.excited()
        if gap < -1e-10:
            raise ValueError(f"eigenvalues out of order: gap = {gap}")
        return gap


@dataclass(frozen=True)
class OrderParameters:
    """zeta_a = <S_a^2>_0 / N^2, the squared magnetization densities."""

    zeta_x: float
    zeta_y: float


@dataclass(frozen=True)
class CorrelationSet:
    """Symmetrized x-y correlator of the ground state.

    eta = (2/N)|c_xxyy|^(1/4) is the rescaled correlation, read as the
    fraction of correlated qubits. The first-order C_xy is not kept: the
    ground state is real, so <S_y> and Re<S_x S_y> vanish and C_xy = 0
    identically.
    """

    c_xxyy: float
    eta: float


def assemble_hamiltonian(params: LmgParams) -> BandedHermitianOperator:
    """Real symmetric pentadiagonal amplifier Hamiltonian.

    S_x^2 and S_y^2 share their diagonal d, and S_y^2's pair band is minus
    S_x^2's, so one dicke S_x^2 gives both squares: band 0 is
    eps m - (2 J_x / N) d - (2 J_y / N) d + (J_x + J_y) / 2 and band 2 is
    -(2 / N)(J_x - J_y) times S_x^2's pair band. 2 B_x S_x puts B_x c_m on
    band 1.
    """
    space = params.space
    n_q = params.n_qubits
    dim = space.dimension
    sx2 = build_collective_operator(space, "Sx2").bands
    bands = np.zeros((3, dim))
    bands[0] = (
        params.epsilon * space.m_values()
        - (2.0 * params.jx / n_q) * sx2[0]
        - (2.0 * params.jy / n_q) * sx2[0]
        + (params.jx + params.jy) / 2.0
    )
    bands[1, : dim - 1] = params.bx * space.ladder_coefficients()
    bands[2, : dim - 2] = -(2.0 / n_q) * (params.jx - params.jy) * sx2[2, : dim - 2]
    return BandedHermitianOperator(dim, bands)


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    """Deterministic global sign: first non-negligible component positive."""
    thresh = 1e-12 * np.abs(vec).max()
    idx = np.argmax(np.abs(vec) > thresh)
    if vec[idx] < 0.0:
        vec = -vec
    return vec


def _ground_by_parity(h: BandedHermitianOperator, params: "LmgParams"):
    """E0, the E1 step and the unit ground vector from the even and odd
    m-offset blocks at B_x = 0.

    Both levels come from the same solve, so the E1 step only hands back
    E1 - E0. Bisection leaves each eigenvalue a few ulp of |H| off, so levels
    closer than 4 ulp are a tie; on a tie the even block supplies the vector.
    A failing tridiagonal solve is EigensolverError step ``parity``. The
    vector's sign and residual are left to solve_ground.
    """
    n = h.dimension
    found = []  # (eigenvalue, parity, block_vector)
    try:
        for par in (0, 1):
            idx = np.arange(par, n, 2)
            w, v = scipy.linalg.eigh_tridiagonal(
                h.bands[0][idx], h.bands[2][idx[:-1]], select="i", select_range=(0, min(1, idx.size - 1))
            )
            found.extend((float(w[i]), par, v[:, i]) for i in range(w.size))
    except (scipy.linalg.LinAlgError, ValueError) as err:
        raise EigensolverError("parity", f"eigensolver failed: {err}", n, params) from err
    found.sort(key=lambda t: t[0])
    e0, e1 = found[0][0], found[1][0]
    tie = 4.0 * np.spacing(h.norm_upper_bound())
    _, par, vb = min((f for f in found if f[0] - e0 <= tie), key=lambda f: f[1])
    vec = np.zeros(n)
    vec[par::2] = vb
    return e0, lambda: e1 - e0, vec / np.linalg.norm(vec)


_SHIFT_MARGIN = 1e-13  # a trial shift stays this far below the E0 upper bound, relative to |H|
_SHIFT_TOL = 1e-3  # relative Ritz residual that ends one shift round
_SHIFT_ROUNDS = 20
_HALVINGS = 60  # cap on failed trials per round: a rounded midpoint need not fall below them
_EXCITED_TOL = 1e-12  # relative Ritz residual at which E1 counts as converged
_LANCZOS_STEPS = 40  # cap on the Krylov dimension of one Lanczos run


def _factor(h: BandedHermitianOperator, sigma: float):
    """H - sigma*I and its banded Cholesky factor, or None where H - sigma*I is not positive definite.

    By Sylvester's law of inertia the factorization exists exactly when sigma < E0.
    """
    bands = h.bands.copy()
    bands[0] -= sigma
    shifted = BandedHermitianOperator(h.dimension, bands)
    chol, info = scipy.linalg.lapack.dpbtrf(shifted.scipy_upper_bands())
    return None if info else (shifted, chol)


def _top_ritz(chol: np.ndarray, start: np.ndarray, tol: float, deflate: np.ndarray | None = None):
    """Largest Ritz pair of P (H - sigma)^-1 P, with P the projector off the unit vector ``deflate``.

    Lanczos with full reorthogonalization, at most _LANCZOS_STEPS solves with
    the Cholesky factor; the Lanczos matrix is kept as its two diagonals and
    solved by LAPACK dstev. Returns (mu, residual, unit Ritz vector,
    converged), converged meaning residual <= tol * mu. A non-finite step or
    a dstev failure returns mu = residual = NaN, not converged.
    """
    basis = np.empty((_LANCZOS_STEPS, start.size))
    q = start if deflate is None else start - (deflate @ start) * deflate
    basis[0] = q / np.linalg.norm(q)
    alpha = np.zeros(_LANCZOS_STEPS)
    beta = np.zeros(_LANCZOS_STEPS)  # beta[j] couples basis vectors j and j + 1
    for j in range(_LANCZOS_STEPS):
        w = scipy.linalg.lapack.dpbtrs(chol, basis[j])[0]
        if deflate is not None:
            w -= (deflate @ w) * deflate
        for _ in range(2):
            coef = basis[: j + 1] @ w
            w -= coef @ basis[: j + 1]
            alpha[j] += coef[j]
        beta[j] = np.linalg.norm(w)
        if not math.isfinite(beta[j]):  # left for the residual guard to report
            return math.nan, math.nan, w, False
        # dstev takes max(j, 1) off-diagonal entries; at j = 0 the one it reads is unused
        ritz, vecs, info = scipy.linalg.lapack.dstev(alpha[: j + 1], beta[: max(j, 1)])
        if info:
            return math.nan, math.nan, w, False
        mu, s = ritz[-1], vecs[:, -1]
        residual = abs(beta[j] * s[-1])
        if residual <= tol * mu or j + 1 == _LANCZOS_STEPS:
            break
        basis[j + 1] = w / beta[j]
    y = s @ basis[: j + 1]
    if deflate is not None:
        y -= (deflate @ y) * deflate
    return mu, residual, y / np.linalg.norm(y), residual <= tol * mu


def _rayleigh(op: BandedHermitianOperator, x: np.ndarray):
    """Rayleigh quotient of a unit vector and the norm of its residual."""
    ox = op.matvec(x)
    theta = float(x @ ox)
    return theta, float(np.linalg.norm(ox - theta * x))


def _check_residual(h: BandedHermitianOperator, e0: float, vec: np.ndarray, params: "LmgParams"):
    residual = np.linalg.norm(h.matvec(vec) - e0 * vec)
    h_norm = h.norm_upper_bound()
    if not residual <= 1e-8 * max(h_norm, 1.0):  # a NaN residual fails too
        raise EigensolverError(
            "residual",
            f"eigenpair residual {residual:.3e} exceeds 1e-8 * |H| = {1e-8 * h_norm:.3e}",
            h.dimension,
            params,
        )


def _ground_by_shift_invert(h: BandedHermitianOperator, params: "LmgParams"):
    """E0, the E1 step and the unit ground vector at B_x != 0 from Cholesky factors of H - sigma*I.

    1. Certified shift: sigma starts at the Gershgorin floor. Each round runs
       Lanczos on (H - sigma)^-1 and moves sigma to the Kato lower bound of its
       top Ritz pair, capped _SHIFT_MARGIN * |H| below the best upper bound on
       E0; a trial counts only if its Cholesky factorization succeeds, and a
       failed trial is halved back towards sigma.
    2. Ground pair: inverse iteration with the last factor, E0 its Rayleigh
       quotient; solve_ground fixes the vector's sign and checks its residual.
    3. E1 (``_excited_gap``), handed back unrun with the last factor and run
       when the gap is first read: Lanczos on (H - sigma)^-1 deflated by the
       ground vector, started from the field term 2 B_x S_x applied to it
       (H's band 1 alone, through dicke.add_band_products), which flips the
       m-parity that labels the zero-field doublet. The step takes the vector
       before solve_ground fixes its sign: flipping the sign flips every
       Lanczos vector exactly and leaves the gap's bits as they are. One
       Krylov vector cannot resolve a nearly degenerate E1, E2 pair, so there
       E1 may sit up to their splitting above its exact value.

    Energies are taken as sigma plus Rayleigh quotients of H - sigma*I, so the
    gap is a difference of two small numbers (Ericsson and Ruhe, Math. Comp.
    35, 1251 (1980)).
    """
    n = h.dimension
    h_norm = max(h.norm_upper_bound(), 1.0)
    margin = _SHIFT_MARGIN * h_norm
    sigma = float(np.min(h.bands[0] - h.row_radius())) - margin
    factor = _factor(h, sigma)
    if factor is None:
        raise EigensolverError(
            "shift",
            f"no positive-definite shift: H - sigma*I has no Cholesky factor "
            f"at the Gershgorin floor sigma = {sigma:.6e}",
            n,
            params,
        )
    upper = float(h.bands[0].min())
    x = np.ones(n)
    for _ in range(_SHIFT_ROUNDS):
        mu, res, x, _ = _top_ritz(factor[1], x, _SHIFT_TOL)
        theta, r = _rayleigh(factor[0], x)
        upper = min(upper, sigma + theta, sigma + 1.0 / mu)
        if upper - sigma <= 2.0 * margin:
            break
        trial = min(max(sigma + 1.0 / (mu + res), sigma + theta - r), upper - margin)
        for _ in range(_HALVINGS):
            if not trial > sigma:  # a NaN trial is never factored: dpbtrf can pass NaN bands
                break
            candidate = _factor(h, trial)
            if candidate is not None:
                sigma, factor = trial, candidate
                break
            trial = 0.5 * (sigma + trial)
    shifted, chol = factor
    for _ in range(5):
        x = scipy.linalg.lapack.dpbtrs(chol, x)[0]
        x = x / np.linalg.norm(x)
        theta0, r = _rayleigh(shifted, x)
        if r <= 1e-14 * h_norm:
            break
    return sigma + theta0, functools.partial(_excited_gap, shifted, chol, x, theta0, params), x


def _excited_gap(
    shifted: BandedHermitianOperator, chol: np.ndarray, ground: np.ndarray, theta0: float, params: "LmgParams"
) -> float:
    """Step 3 of ``_ground_by_shift_invert``: E1 - E0 from the final factor of H - sigma*I.

    theta0 is the ground vector's Rayleigh quotient of H - sigma*I; H's band 1
    is ``shifted``'s, since the shift moves band 0 only.
    """
    n = shifted.dimension
    start = add_band_products(0.0 * ground, ground, shifted.bands[1][: n - 1], np.zeros(max(n - 2, 0)))
    mu1, res1, y, converged = _top_ritz(chol, start, _EXCITED_TOL, deflate=ground)
    if not converged:
        raise EigensolverError(
            "excited",
            f"E1 not converged within {_LANCZOS_STEPS} Lanczos steps "
            f"(relative Ritz residual {res1 / mu1:.3e} > {_EXCITED_TOL:.0e})",
            n,
            params,
        )
    theta1, _ = _rayleigh(shifted, y)
    return theta1 - theta0


def solve_ground(params: LmgParams) -> GroundStateResult:
    """Two lowest eigenpairs of the assembled Hamiltonian, in O(N).

    At B_x = 0, H commutes with the pi rotation about z, so its even and odd
    m-offset sublattices decouple into two tridiagonal blocks, each solved
    by bisection and inverse iteration. Deep in an ordered phase the ground
    doublet is degenerate to machine precision; the split still returns a
    parity eigenstate, not an arbitrary mix of the pair. At B_x != 0 a
    certified shift sigma < E0 gives a banded Cholesky factor of H - sigma*I,
    and the ground pair and E1 come from inverse iteration and Lanczos with
    that factor (``_ground_by_shift_invert``); no step forms an N x N array
    or costs more than O(N) per iteration. Both branches hand back E1 as a
    step that the first read of the result's gap runs; there E1's Lanczos
    runs, not here, so a solve whose gap nothing reads never runs it.
    Here, for both branches, the vector gets its deterministic global sign
    (_fix_sign) and its residual must stay within 1e-8 * max(|H|, 1)
    (_check_residual). A failure raises EigensolverError naming the step:
    ``parity``, ``shift`` or ``residual`` from this call, and ``excited``
    from the first read of the gap.
    """
    h = assemble_hamiltonian(params)
    e0, excited, vec = (_ground_by_shift_invert if params.bx != 0.0 else _ground_by_parity)(h, params)
    vec = _fix_sign(vec)
    _check_residual(h, e0, vec, params)
    return GroundStateResult(e0=e0, ground=vec, params=params, excited=excited)


def order_parameters(result: GroundStateResult) -> OrderParameters:
    space = result.params.space
    n2 = float(result.params.n_qubits) ** 2
    zx = expectation(build_collective_operator(space, "Sx2"), result.ground) / n2
    zy = expectation(build_collective_operator(space, "Sy2"), result.ground) / n2
    return OrderParameters(zeta_x=zx, zeta_y=zy)


def correlations(result: GroundStateResult) -> CorrelationSet:
    """C_xxyy and the rescaled correlation eta.

    One banded application of each of S_x^2 and S_y^2 to the real ground
    vector gives both means and the product term; dense products are never
    formed.
    """
    space = result.params.space
    psi = result.ground
    x2_psi = build_collective_operator(space, "Sx2").matvec(psi)
    y2_psi = build_collective_operator(space, "Sy2").matvec(psi)
    c_xxyy = float(x2_psi @ y2_psi) - float(psi @ x2_psi) * float(psi @ y2_psi)

    eta = (2.0 / result.params.n_qubits) * abs(c_xxyy) ** 0.25
    return CorrelationSet(c_xxyy=c_xxyy, eta=eta)
