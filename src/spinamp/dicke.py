"""Collective-spin (Dicke basis) linear algebra.

Everything lives in the maximal-spin sector of N spin-1/2 qubits, where the
2^N-dimensional problem collapses to dimension N+1. Operators are stored as
real symmetric bands: S_z is diagonal, S_x is tridiagonal, and S_x^2 and
S_y^2 are pentadiagonal with closed-form matrix elements. S_y itself is
imaginary in this basis and is not provided: the amplifier Hamiltonian is
real, so its ground state is real and <S_y> and Re<S_x S_y> vanish
identically (the 2^N oracle in ``harness.oracle`` keeps S_y as the check).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

OPERATOR_TAGS = ("Sz", "Sx", "Sx2", "Sy2")


def _frozen_array(a, dtype=np.float64):
    out = np.ascontiguousarray(a, dtype=dtype)
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


@dataclass(frozen=True)
class BandedHermitianOperator:
    """Real symmetric operator stored as its main and upper diagonals.

    ``bands[k][i]`` is the element (i, i+k); the lower bands follow by
    symmetry and are never stored. Entries of band k with index >=
    dimension-k are padding and must be zero. Every operator the amplifier
    needs (S_z, S_x, S_x^2, S_y^2 and the Hamiltonian) is real in the Dicke
    basis, so no imaginary part is carried.
    """

    dimension: int
    bandwidth: int
    bands: np.ndarray

    def __post_init__(self):
        if self.bands.shape != (self.bandwidth + 1, self.dimension):
            raise ValueError(
                f"bands shape {self.bands.shape} does not match "
                f"(bandwidth+1, dimension) = {(self.bandwidth + 1, self.dimension)}"
            )
        object.__setattr__(self, "bands", _frozen_array(self.bands))

    def densify(self) -> np.ndarray:
        """Full real matrix form."""
        n = self.dimension
        a = np.zeros((n, n))
        idx = np.arange(n)
        a[idx, idx] = self.bands[0]
        for k in range(1, self.bandwidth + 1):
            u = self.bands[k][: n - k]
            a[idx[: n - k], idx[k:]] = u
            a[idx[k:], idx[: n - k]] = u
        return a

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the operator to a vector (real or complex)."""
        n = self.dimension
        if x.shape != (n,):
            raise ValueError(f"vector length {x.shape} does not match dimension {n}")
        y = self.bands[0] * x
        for k in range(1, self.bandwidth + 1):
            u = self.bands[k][: n - k]
            y[: n - k] += u * x[k:]
            y[k:] += u * x[: n - k]
        return y

    def norm_upper_bound(self) -> float:
        """Infinity norm computed from the stored bands."""
        n = self.dimension
        mags = np.abs(self.bands)
        row = mags[0].copy()
        for k in range(1, self.bandwidth + 1):
            u = mags[k][: n - k]
            row[: n - k] += u
            row[k:] += u
        return float(row.max())

    def scipy_upper_bands(self) -> np.ndarray:
        """LAPACK ``ab`` upper-form storage for scipy.linalg.eig_banded.

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

    The squares use the closed-form matrix elements
    <m|S_a^2|m> = [S(S+1) - m^2]/2 and <m|S_a^2|m+2> = +-c_m c_{m+1}/4
    rather than a matrix product, which keeps the bandwidth exactly 2.
    """
    if which not in OPERATOR_TAGS:
        raise ValueError(f"unknown operator tag {which!r}; expected one of {OPERATOR_TAGS}")
    n = space.dimension
    m = space.m_values()
    c = space.ladder_coefficients()
    s = space.n_qubits / 2.0

    if which == "Sz":
        return BandedHermitianOperator(n, 0, m[np.newaxis, :].copy())

    if which == "Sx":
        bands = np.zeros((2, n))
        bands[1, : n - 1] = c / 2.0
        return BandedHermitianOperator(n, 1, bands)

    bands = np.zeros((3, n))
    bands[0] = (s * (s + 1.0) - m * m) / 2.0
    pair = c[:-1] * c[1:] / 4.0 if n >= 3 else np.zeros(0)
    bands[2, : n - 2] = pair if which == "Sx2" else -pair
    return BandedHermitianOperator(n, 2, bands)


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


def coherent_amplitudes(space: DickeSpace, theta: float, phi: float) -> np.ndarray:
    """Amplitudes <S,m|theta,phi> = sqrt(C(2S,S+m)) cos^(S+m)(t/2) sin^(S-m)(t/2) e^{-i(S-m)phi}.

    The spin coherent state along (theta, phi), as a read-only complex array.
    """
    log_mag = coherent_log_magnitudes(space, np.array([theta]))[0]
    with np.errstate(under="ignore"):
        mag = np.exp(log_mag)
    k = np.arange(space.dimension)
    amps = mag * np.exp(-1j * (space.n_qubits - k) * phi)
    return _frozen_array(amps, dtype=complex)
