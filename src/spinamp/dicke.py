"""Collective-spin (Dicke basis) linear algebra.

Everything lives in the maximal-spin sector of N spin-1/2 qubits, where the
2^N-dimensional problem collapses to dimension N+1. Operators are stored in
one shape, as real symmetric pentadiagonal bands: S_z is diagonal, S_x is
tridiagonal, and S_x^2 and S_y^2 are pentadiagonal with closed-form matrix
elements. S_y itself is
imaginary in this basis and is not provided: the amplifier Hamiltonian is
real, so its ground state is real and <S_y> and Re<S_x S_y> vanish
identically (the 2^N oracle in ``harness.oracle`` keeps S_y as the check).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

OPERATOR_TAGS = ("Sz", "Sx", "Sx2", "Sy2")


def _frozen_array(a):
    out = np.ascontiguousarray(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DickeSpace:
    """Maximal collective-spin sector of ``n_qubits`` spin-1/2 particles.

    The basis is |S,m> with S = n_qubits/2 and m ascending from -S to +S.
    m values are half-integers, which are exactly representable in binary
    floating point.
    """

    n_qubits: int

    def __post_init__(self):
        if not isinstance(self.n_qubits, (int, np.integer)) or self.n_qubits < 1:
            raise ValueError(f"n_qubits must be a positive integer, got {self.n_qubits!r}")

    @property
    def dimension(self) -> int:
        return self.n_qubits + 1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers, ascending: -S, -S+1, ..., +S."""
        return np.arange(self.dimension) - self.n_qubits / 2.0

    def ladder_coefficients(self) -> np.ndarray:
        """c_m = sqrt(S(S+1) - m(m+1)) for m = -S ... S-1 (length N)."""
        s = self.n_qubits / 2.0
        m = self.m_values()[:-1]
        return np.sqrt(s * (s + 1.0) - m * (m + 1.0))


def add_band_products(out: np.ndarray, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Add to out the products of x with the off-diagonal bands of a symmetric
    pentadiagonal matrix, and return out.

    For x and out of length m, u is the first band (length m - 1) and v the
    second (length m - 2), unpadded: u[i] is the element (i, i+1) and v[i]
    the element (i, i+2). The sums run band 1 above, band 1 below, band 2
    above, band 2 below. This is the one banded product in the package:
    BandedHermitianOperator.matvec and row_radius, the amplifier's RK4
    derivative and Chebyshev recurrence, and the E1 start vector of the
    shift-invert solve all call it.
    """
    m = x.size
    out[: m - 1] += u * x[1:]
    out[1:] += u * x[: m - 1]
    out[: m - 2] += v * x[2:]
    out[2:] += v * x[: m - 2]
    return out


@dataclass(frozen=True)
class BandedHermitianOperator:
    """Real symmetric pentadiagonal operator stored as its main and two upper diagonals.

    bands has shape (3, dimension), and ``bands[k][i]`` is the element
    (i, i+k); the lower bands follow by symmetry and are never stored.
    Entries of band k with index >= dimension-k are padding and must be
    zero. Every operator the amplifier needs (S_z, S_x, S_x^2, S_y^2 and the
    Hamiltonian) is real and at most pentadiagonal in the Dicke basis, so no
    imaginary part and no other shape is carried; S_z and S_x have zero
    upper bands where they are narrower.
    """

    bandwidth = 2  # the levels one product reaches on each side
    dimension: int
    bands: np.ndarray

    def __post_init__(self):
        if self.bands.shape != (3, self.dimension):
            raise ValueError(f"bands shape {self.bands.shape} does not match (3, dimension {self.dimension})")
        object.__setattr__(self, "bands", _frozen_array(self.bands))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the operator to a vector (real or complex)."""
        n = self.dimension
        if x.shape != (n,):
            raise ValueError(f"vector length {x.shape} does not match dimension {n}")
        return add_band_products(self.bands[0] * x, x, self.bands[1][: n - 1], self.bands[2][: n - 2])

    def row_radius(self) -> np.ndarray:
        """Gershgorin radii: per row, the sum of |off-diagonal entries|."""
        n = self.dimension
        u, v = np.abs(self.bands[1][: n - 1]), np.abs(self.bands[2][: n - 2])
        return add_band_products(np.zeros(n), np.ones(n), u, v)

    def norm_upper_bound(self) -> float:
        """Infinity norm computed from the stored bands."""
        return float((np.abs(self.bands[0]) + self.row_radius()).max())

    def scipy_upper_bands(self) -> np.ndarray:
        """LAPACK ``ab`` upper-form storage, as the banded Cholesky ``dpbtrf`` takes it.

        Rows above the usable bandwidth (dimension - 1) are trimmed so tiny
        spaces remain solvable.
        """
        n = self.dimension
        u = min(self.bandwidth, n - 1)
        ab = np.zeros((u + 1, n))
        for k in range(u + 1):
            ab[u - k, k:] = self.bands[k][: n - k]
        return ab


def build_collective_operator(space: DickeSpace, which: str) -> BandedHermitianOperator:
    """Build S_z, S_x, or the analytic pentadiagonal S_x^2 / S_y^2.

    S_z is diagonal and S_x tridiagonal; both come in the one pentadiagonal
    shape, with zero upper bands beyond their own. The squares use the
    closed-form matrix elements <m|S_a^2|m> = [S(S+1) - m^2]/2 and
    <m|S_a^2|m+2> = +-c_m c_{m+1}/4 rather than a matrix product, which
    keeps the bandwidth exactly 2.
    """
    if which not in OPERATOR_TAGS:
        raise ValueError(f"unknown operator tag {which!r}; expected one of {OPERATOR_TAGS}")
    n = space.dimension
    m = space.m_values()
    c = space.ladder_coefficients()
    s = space.n_qubits / 2.0
    bands = np.zeros((3, n))
    if which == "Sz":
        bands[0] = m
    elif which == "Sx":
        bands[1, : n - 1] = c / 2.0
    else:
        bands[0] = (s * (s + 1.0) - m * m) / 2.0
        pair = c[:-1] * c[1:] / 4.0
        bands[2, : n - 2] = pair if which == "Sx2" else -pair
    return BandedHermitianOperator(n, bands)


def expectation(op: BandedHermitianOperator, state: np.ndarray) -> float:
    """<state|op|state> for a normalized state.

    The quadratic form is evaluated separately on the real and imaginary
    parts of the state; for a real operator the cross terms cancel exactly,
    so the result is real with no rounding noise to discard.
    """
    state = np.asarray(state)
    if state.shape != (op.dimension,):
        raise ValueError(
            f"state length {state.shape} does not match operator dimension {op.dimension}"
        )
    nrm = np.linalg.norm(state)
    if not abs(nrm - 1.0) <= 1e-8:  # a NaN norm fails too
        raise ValueError(f"state is not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
    x = np.ascontiguousarray(state.real)
    val = float(x @ op.matvec(x))
    if np.iscomplexobj(state):
        y = np.ascontiguousarray(state.imag)
        val += float(y @ op.matvec(y))
    return val


def coherent_log_magnitudes(space: DickeSpace, thetas: np.ndarray) -> np.ndarray:
    """log |<S,m|theta,phi>| on a theta grid, shape (len(thetas), dimension).

    Binomial coefficients are evaluated in log space and the magnitude is
    assembled by exponentiating a log sum; naive binomials overflow long
    before N = 1000. Rows at the poles are handled exactly.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if np.any((thetas < 0.0) | (thetas > np.pi)):
        raise ValueError("theta must lie in [0, pi]")
    n = space.n_qubits
    k = np.arange(n + 1)  # k = S + m
    log_binom = 0.5 * (gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0))
    out = np.full((thetas.size, n + 1), -np.inf)
    half = thetas / 2.0
    cos_h, sin_h = np.cos(half), np.sin(half)
    # classify poles by the evaluated half-angle: theta/2 can underflow to 0
    # for denormal theta, and theta == pi is a south pole despite cos(pi/2)
    # rounding to ~6e-17 rather than 0
    north = sin_h == 0.0
    south = (cos_h == 0.0) | (thetas == np.pi)
    interior = ~(north | south)
    if np.any(interior):
        lc = np.log(cos_h[interior])[:, None]
        ls = np.log(sin_h[interior])[:, None]
        out[interior] = log_binom[None, :] + k[None, :] * lc + (n - k)[None, :] * ls
    out[north, n] = 0.0
    out[south, 0] = 0.0
    return out
