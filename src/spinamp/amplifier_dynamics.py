"""Time-dependent amplification: the qubit ensemble driven by the absorber.

After transduction the amplifier experiences an effective in-plane field
P_e(t) * B_x, i.e. H(t) = H_Am + 2 P_e(t) B_x S_x. The evolution is strictly
unitary (pure-state propagation; the amplifier dissipator is absent), run
with fixed-step RK4 on the banded Hamiltonian. The ground energy is
subtracted before propagation - a global phase - so the fast phase winding
of the low-lying manifold does not eat the RK4 error budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dicke import DickeSpace, build_collective_operator, coherent_log_magnitudes, expectation
from .lmg_statics import LmgParams, assemble_hamiltonian, solve_ground
from .stepping import IntegrationError, rk4_step, sample_grid, sample_index

Q_THETA_POINTS = 181  # theta = 0 .. pi in 1-degree steps
Q_PHI_POINTS = 361  # phi = 0 .. 2 pi in 1-degree steps, both ends stored
MAX_DT = 1e-3  # the largest RK4 step evolve takes


def check_step(dt: float) -> None:
    """ValueError unless dt is within the propagation bound MAX_DT."""
    if not dt <= MAX_DT + 1e-15:
        raise ValueError(f"dt = {dt} exceeds the {MAX_DT:g} propagation bound")


@dataclass(frozen=True)
class DriveSchedule:
    """P_e samples plus the coupling B_x; linear interpolation between
    samples, constant extrapolation at the ends."""

    times: np.ndarray
    pe: np.ndarray
    bx: float

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        pe = np.asarray(self.pe, dtype=float)
        # each check is written so that a NaN fails it
        if times.ndim != 1 or times.size < 2 or not np.all(np.isfinite(times)):
            raise ValueError("times must be a finite sequence of at least two samples")
        if not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be a strictly ascending sequence")
        if pe.shape != times.shape:
            raise ValueError("pe and times must have matching shapes")
        if not np.all((pe >= -1e-8) & (pe <= 1.0 + 1e-8)):
            raise ValueError("pe samples must lie in [0, 1]")
        if not np.isfinite(self.bx):
            raise ValueError(f"bx must be finite, got {self.bx}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "pe", pe)

    @classmethod
    def from_trace(cls, trace, bx: float) -> "DriveSchedule":
        return cls(times=trace.times, pe=trace.pe, bx=bx)

    @classmethod
    def zero(cls, t_start: float, t_end: float, bx: float = 0.0) -> "DriveSchedule":
        return cls(times=np.array([t_start, t_end]), pe=np.zeros(2), bx=bx)

    def pe_at(self, t):
        return np.interp(t, self.times, self.pe)


@dataclass(frozen=True)
class AmplifierTrajectory:
    """The samples of one evolve run, on the grid of stepping.sample_grid.

    states[k] is the renormalized state at times[k], one row of an
    (n_samples, dimension) complex array; sx2[k] and sy2[k] are its
    <S_x^2> and <S_y^2>.
    """

    times: np.ndarray
    states: np.ndarray
    sx2: np.ndarray
    sy2: np.ndarray
    params: LmgParams

    def state_at(self, t: float) -> np.ndarray:
        return self.states[sample_index(self.times, t)]


@dataclass(frozen=True)
class GainTrace:
    """G(t) = <S_x^2(t)> / <S_x^2(t_0)>; t_am is the first time G reaches
    0.95 * g_max, measured from the pulse arrival."""

    times: np.ndarray
    gain: np.ndarray
    g_max: float
    t_am: float


def evolve(
    params: LmgParams,
    drive: DriveSchedule,
    t_start: float,
    t_end: float,
    dt: float,
    sample_every: int,
) -> AmplifierTrajectory:
    """Propagate the zero-field ground state under H_Am + 2 P_e(t) B_x S_x.

    The bias field lives in the drive; params.bx must be zero, and dt must
    pass check_step. One rk4_step per step of dt; a sample is stored on the
    grid of stepping.sample_grid, written in place into arrays sized before
    the first step. Norm drift accumulated across samples must stay below
    1e-6 (states are renormalized at sample points), otherwise
    IntegrationError names the step.
    """
    if params.bx != 0.0:
        raise ValueError("params.bx must be 0; the drive carries the coupling field")
    check_step(dt)
    if t_start > drive.times[0]:
        raise ValueError("t_start must not be later than the first drive sample")
    steps, times = sample_grid(t_start, t_end, dt, sample_every)

    space = params.space
    ground = solve_ground(params)
    h = assemble_hamiltonian(params)
    n = h.dimension
    # ground-energy shift; pure global phase
    b0 = h.bands[0] - ground.e0
    b2 = h.bands[2][: n - 2]
    sx_band = space.ladder_coefficients() / 2.0  # first band of S_x

    two_bx = 2.0 * drive.bx

    def deriv(t, psi):
        y = b0 * psi
        u = (two_bx * drive.pe_at(t)) * sx_band
        y[: n - 1] += u * psi[1:]
        y[1:] += u * psi[: n - 1]
        y[: n - 2] += b2 * psi[2:]
        y[2:] += b2 * psi[: n - 2]
        return -1j * y

    sx2 = build_collective_operator(space, "Sx2")
    sy2 = build_collective_operator(space, "Sy2")

    states = np.empty((steps.size, n), dtype=complex)
    sx2_vals = np.empty(steps.size)
    sy2_vals = np.empty(steps.size)
    states[0] = ground.ground
    psi = states[0]
    sx2_vals[0] = expectation(sx2, psi)
    sy2_vals[0] = expectation(sy2, psi)
    drift = 0.0
    for k in range(1, steps.size):
        for i in range(steps[k - 1], steps[k]):
            psi = rk4_step(psi, t_start + i * dt, dt, deriv)
        nrm = np.linalg.norm(psi)
        drift += abs(nrm - 1.0)
        if not drift <= 1e-6:
            raise IntegrationError(
                f"norm drift {drift:.3e} exceeded 1e-6 at t = {times[k]:.4f} with dt = {dt}"
            )
        states[k] = psi / nrm
        psi = states[k]
        sx2_vals[k] = expectation(sx2, psi)
        sy2_vals[k] = expectation(sy2, psi)

    return AmplifierTrajectory(times=times, states=states, sx2=sx2_vals, sy2=sy2_vals, params=params)


def quantum_gain(traj: AmplifierTrajectory, *, t_arrival: float = 0.0) -> GainTrace:
    """Gain trace relative to <S_x^2> at the first sample, traj.times[0]."""
    ref = traj.sx2[0]
    if ref < 1e-300:
        raise ZeroDivisionError("degenerate gain denominator: <S_x^2> at the first sample ~ 0")
    gain = traj.sx2 / ref
    g_max = float(gain.max())
    idx = int(np.argmax(gain >= 0.95 * g_max))
    return GainTrace(times=traj.times, gain=gain, g_max=g_max, t_am=float(traj.times[idx] - t_arrival))


@dataclass(frozen=True)
class QFunctionGrid:
    """Q(theta, phi) = ((2S+1)/4 pi) |<theta, phi|psi>|^2 on a regular grid.

    phi covers a full turn with both endpoints stored (phi = 0 and 2 pi are
    the same physical azimuth), which makes trapezoidal quadrature exact for
    the periodic direction.
    """

    theta: np.ndarray
    phi: np.ndarray
    values: np.ndarray

    def norm_integral(self) -> float:
        inner = np.trapezoid(self.values * np.sin(self.theta)[:, None], self.phi, axis=1)
        return float(np.trapezoid(inner, self.theta))

    def azimuthal_marginal(self) -> np.ndarray:
        """integral Q sin(theta) d(theta) on the phi grid."""
        return np.trapezoid(self.values * np.sin(self.theta)[:, None], self.theta, axis=0)


def q_function(state: np.ndarray, space: DickeSpace) -> QFunctionGrid:
    """Spin Q-function of a pure state on the 1-degree grid, log-stable in the
    coherent overlaps."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (space.dimension,):
        raise ValueError("state length does not match the space dimension")
    nrm = np.linalg.norm(state)
    if not abs(nrm - 1.0) <= 1e-6:
        raise ValueError(f"state is not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
    theta = np.linspace(0.0, np.pi, Q_THETA_POINTS)
    phi = np.linspace(0.0, 2.0 * np.pi, Q_PHI_POINTS)
    with np.errstate(under="ignore"):
        mag = np.exp(coherent_log_magnitudes(space, theta))  # (theta, dim)
    k = np.arange(space.dimension)
    phases = np.exp(-1j * np.outer(k, phi))  # (dim, phi)
    overlap = (mag * state[np.newaxis, :]) @ phases
    values = (space.dimension / (4.0 * np.pi)) * np.abs(overlap) ** 2
    return QFunctionGrid(theta=theta, phi=phi, values=values)


def azimuthal_plane_mass(grid: QFunctionGrid, plane: str) -> float:
    """Fraction of the Q-function mass with azimuth within pi/4 of a plane.

    plane = "xz" selects phi near {0, pi}; plane = "yz" selects phi near
    {pi/2, 3 pi/2}.
    """
    if plane == "xz":
        centers = (0.0, np.pi, 2.0 * np.pi)
    elif plane == "yz":
        centers = (np.pi / 2.0, 3.0 * np.pi / 2.0)
    else:
        raise ValueError(f"unknown plane {plane!r}; expected 'xz' or 'yz'")
    marginal = grid.azimuthal_marginal()
    total = np.trapezoid(marginal, grid.phi)
    mask = np.zeros_like(grid.phi, dtype=bool)
    for c in centers:
        mask |= np.abs(grid.phi - c) <= np.pi / 4.0 + 1e-12
    masked = np.where(mask, marginal, 0.0)
    # the trapezoids straddling a window edge keep half the boundary value;
    # on the 1-degree grid that is a ~d(phi)/2 edge effect, far below the
    # 80% thresholds this feeds
    selected = np.trapezoid(masked, grid.phi)
    return float(selected / total)
