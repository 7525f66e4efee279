"""Constructions only the tests use: a zero drive, dense matrices, coherent
states, the amplifier Hamiltonian written out term by term, the analytic
J_x = J_y spectrum, a pulse's norm on a grid, a Q-function's norm and plane
masses, the full-space Dicke basis and Kronecker-sum collective operators the
2^N oracle is checked against, the absorber stepped as one array, the
Chebyshev series on the whole Hamiltonian's interval, and the classical spin
that is the amplifier's mean-field limit."""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import jv

from spinamp.absorber import SAMPLE_EVERY, AbsorberParams, PulseEnvelope
from spinamp.amplifier_dynamics import Q_PHI, Q_THETA, SERIES_CUT, DriveSchedule
from spinamp.dicke import BandedHermitianOperator, DickeSpace, coherent_log_magnitudes
from spinamp.lmg_statics import LmgParams
from spinamp.stepping import TimeGrid, rk4_step


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


def explicit_hamiltonian(params: LmgParams) -> BandedHermitianOperator:
    """The amplifier Hamiltonian's bands written out term by term from m and
    c_m: the reference that lmg_statics.assemble_hamiltonian, which takes the
    squares from dicke, must match bit for bit."""
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
    return BandedHermitianOperator(dim, bands)


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


def q_norm_integral(q: np.ndarray) -> float:
    """integral Q sin(theta) d(theta) d(phi) of a q_function array on
    (Q_THETA, Q_PHI) by the trapezoidal rule; 1 for a normalized state."""
    inner = np.trapezoid(q * np.sin(Q_THETA)[:, None], Q_PHI, axis=1)
    return float(np.trapezoid(inner, Q_THETA))


def azimuthal_plane_mass(q: np.ndarray, plane: str) -> float:
    """Fraction of the mass of a q_function array with azimuth within pi/4 of a plane.

    plane = "xz" selects phi near {0, pi}; plane = "yz" selects phi near
    {pi/2, 3 pi/2}.
    """
    if plane == "xz":
        centers = (0.0, np.pi, 2.0 * np.pi)
    elif plane == "yz":
        centers = (np.pi / 2.0, 3.0 * np.pi / 2.0)
    else:
        raise ValueError(f"unknown plane {plane!r}; expected 'xz' or 'yz'")
    # integral Q sin(theta) d(theta) on the phi grid
    marginal = np.trapezoid(q * np.sin(Q_THETA)[:, None], Q_THETA, axis=0)
    total = np.trapezoid(marginal, Q_PHI)
    mask = np.zeros_like(Q_PHI, dtype=bool)
    for c in centers:
        mask |= np.abs(Q_PHI - c) <= np.pi / 4.0 + 1e-12
    masked = np.where(mask, marginal, 0.0)
    # the trapezoids straddling a window edge keep half the boundary value;
    # on the 1-degree grid that is a ~d(phi)/2 edge effect, far below the
    # 80% thresholds this feeds
    selected = np.trapezoid(masked, Q_PHI)
    return float(selected / total)


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


_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
# i*sigma_y is real; sigma_y^(i) sigma_y^(j) = -(i sigma_y)_i (i sigma_y)_j
_ISY = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    return np.kron(np.eye(2**site), np.kron(op, np.eye(2 ** (n - 1 - site))))


def kronecker_collective_operators(n_qubits: int):
    """(S_x, iS_y_real, S_z) on the full space as sums of dense Kronecker
    products, site 0 the most significant factor; S_y = -i * (iS_y_real)."""
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


def array_amplitudes(params: AbsorberParams, pulse: PulseEnvelope, grid: TimeGrid):
    """The absorber's y = (psi_f, psi_h, P_e) as one complex array of shape
    (3, *cells), stepped by stepping.rk4_step with the derivative that fills
    np.empty_like(y) and finds the pulse's half step by rounding the time t,
    apart from the absorber's index arithmetic; the samples on
    integrate_hierarchy's grid, (n_samples, 3, *cells)."""
    t_start, dt = grid.t_start, grid.dt
    steps, _ = grid.samples(SAMPLE_EVERY)
    xi = pulse.amplitude(t_start + 0.5 * dt * np.arange(2 * steps[-1] + 1))
    half_steps = 2.0 / dt
    delta_pp, gamma_fg, gamma_he = params.delta_pp, params.gamma_fg, params.gamma_he
    m_ff, m_hh, m_fh = -0.5 * gamma_fg, -0.5 * gamma_he, -1j * delta_pp
    source = -np.sqrt(params.eta) * np.sqrt(gamma_fg)

    def deriv(t, y):
        out = np.empty_like(y)
        out[0] = m_ff * y[0] + m_fh * y[1] + source * xi[round((t - t_start) * half_steps)]
        out[1] = m_fh * y[0] + m_hh * y[1]
        out[2] = gamma_he * abs(y[1]) ** 2
        return out

    cells = np.broadcast(delta_pp, gamma_fg, gamma_he).shape
    samples = np.zeros((steps.size, 3) + cells, dtype=complex)
    y = samples[0]
    for k in range(1, steps.size):
        for i in range(steps[k - 1], steps[k]):
            y = rk4_step(y, t_start + i * dt, dt, deriv)
        samples[k] = y
    return samples


def whole_interval_propagator(h: BandedHermitianOperator, e0: float, dt: float):
    """amplifier_dynamics._chebyshev_propagator's step with every series on the
    Gershgorin interval of the whole H - e0, one coefficient set per distinct
    stride length; the same cut and the same slice per term."""
    n = h.dimension
    diag = h.bands[0] - e0
    radius = h.row_radius()
    lo, hi = float((diag - radius).min()), float((diag + radius).max())
    mid, half = (hi + lo) / 2.0, (hi - lo) / 2.0
    d2 = (2.0 / half * (diag - mid)).astype(complex)
    u2 = (2.0 / half * h.bands[1][: n - 1]).astype(complex)
    v2 = (2.0 / half * h.bands[2][: n - 2]).astype(complex)

    def twice_scaled(psi, prev, d, u, v):
        m = psi.size
        out = d * psi - prev
        out[: m - 1] += u * psi[1:]
        out[1:] += u * psi[: m - 1]
        out[: m - 2] += v * psi[2:]
        out[2:] += v * psi[: m - 2]
        return out

    coefficients = {}

    def series(n_steps):
        tau = n_steps * dt
        x = half * tau
        k = np.arange(2 * int(x) + 64)
        bessel = jv(k, x)
        cut = int(np.flatnonzero((k > max(x, 1.0)) & (np.abs(bessel) < SERIES_CUT))[0])
        c = 2.0 * np.array([1.0, -1j, -1.0, 1j])[k[:cut] % 4] * bessel[:cut]
        c[0] /= 2.0
        return np.exp(-1j * mid * tau) * c

    def step(psi, n_steps, lo, hi):
        if n_steps not in coefficients:
            coefficients[n_steps] = series(n_steps)
        c = coefficients[n_steps]
        reach = h.bandwidth * c.size
        a, b = max(lo - reach, 0), min(hi + reach, n)
        bands = d2[a:b], u2[a : b - 1], v2[a : b - 2]
        window = psi[a:b]
        prev, cur = window, 0.5 * twice_scaled(window, np.zeros_like(window), *bands)
        out = c[0] * prev + c[1] * cur
        for ck in c[2:]:
            prev, cur = cur, twice_scaled(cur, prev, *bands)
            out += ck * cur
        psi[a:b] = out
        return a, b

    return step


def two_branch_nx2(params: LmgParams, drive: DriveSchedule, times: np.ndarray) -> np.ndarray:
    """n_x^2 of the classical spin, averaged over its two starting branches, at times.

    With S = (N/2) n, H / (N/2) is, up to a constant,
    e = eps n_z - J_x n_x^2 - J_y n_y^2 + 2 B_x P_e(t) n_x, and the spin
    precesses as dn/dt = grad e x n. The zero-field ground state in the
    y-ordered phase is the even mixture of the two minima
    n = (0, +-sqrt(1 - (eps / 2 J_y)^2), -eps / 2 J_y), so each branch
    starts at one of them at times[0]. Each is solved by solve_ivp
    DOP853 at rtol 1e-10 and atol 1e-12 on drive.pe_at: at solve_ivp's
    default atol of 1e-6 the non-critical maximum is 1.1e-5 off, which moves
    N x (mean field - quantum) at N = 6400 by 5e-4. n_x^2 of a branch does
    not depend on N: params.n_qubits is not read.
    """
    eps, jx, jy, bx = params.epsilon, params.jx, params.jy, params.bx
    nz = -eps / (2.0 * jy)

    def rhs(t, n):
        grad = np.array([2.0 * bx * drive.pe_at(t) - 2.0 * jx * n[0], -2.0 * jy * n[1], eps])
        return np.cross(grad, n)

    span = (float(times[0]), float(times[-1]))
    starts = [[0.0, sign * np.sqrt(1.0 - nz * nz), nz] for sign in (1.0, -1.0)]
    nx = [solve_ivp(rhs, span, n0, "DOP853", times, rtol=1e-10, atol=1e-12).y[0] for n0 in starts]
    return (nx[0] ** 2 + nx[1] ** 2) / 2.0
