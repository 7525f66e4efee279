"""Time-dependent amplification: the qubit ensemble driven by the absorber.

After transduction the amplifier experiences an effective in-plane field
P_e(t) * B_x, i.e. H(t) = H_Am + 2 P_e(t) B_x S_x, with B_x the LmgParams
field and P_e(t) the DriveSchedule: H at drive P_e is assemble_hamiltonian
of the LmgParams with B_x scaled by P_e. The evolution is strictly
unitary (pure-state propagation; the amplifier dissipator is absent) on the
banded Hamiltonian: fixed-step RK4 while the drive moves, and once P_e(t)
has taken its final value, one Chebyshev series for exp(-i H tau) per
stored stride of the then constant H, sized on the Gershgorin interval of
the levels that stride runs on. The ground energy is subtracted before
propagation - a global phase - so the fast phase winding of the low-lying
manifold eats neither the RK4 error budget nor Chebyshev terms.

Both stretches run on a window of Dicke levels, not on the whole space. The
low-lying LMG states are wave packets about sqrt(N) levels wide (Dusuel and
Vidal, PRB 71, 224420 (2005)); every level far outside one holds numerical
dust. Before each group of RK4 steps and each Chebyshev stride, each end of
the state is cut back while the cut stays within SUPPORT_TAIL of norm and
set to exactly 0, and the steps run on the levels left plus their reach:
the levels a banded H can fill in those steps. Outside that slice the state
stays exactly zero, so on it the arithmetic is that of the whole space; only
the trimmed norm differs, and the norm-drift guard counts it. RK4 on the
window is stable while dt times the largest Gershgorin row bound of H - E0
there stays within RK4_STABLE; evolve checks this before every group.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

from .dicke import (
    BandedHermitianOperator,
    DickeSpace,
    _frozen_array,
    add_band_products,
    build_collective_operator,
    coherent_log_magnitudes,
    expectation,
)
from .lmg_statics import LmgParams, assemble_hamiltonian, solve_ground
from .stepping import IntegrationError, TimeGrid, rk4_step, sample_index

# q_function's grid: theta = 0 .. pi and phi = 0 .. 2 pi in 1-degree steps,
# both ends of phi stored (the same azimuth), which makes trapezoidal
# quadrature exact for the periodic direction
Q_THETA = _frozen_array(np.linspace(0.0, np.pi, 181))
Q_PHI = _frozen_array(np.linspace(0.0, 2.0 * np.pi, 361))
MAX_DT = 1e-3  # the largest RK4 step evolve takes while the drive moves
SERIES_CUT = 1e-17  # the Chebyshev series stops at the first |J_k| below this past k = x
# Each end of the state is trimmed while the cut keeps a norm of at most
# this: 1e-14 of a double's rounding of the unit norm, while its square,
# 1e-60, stays far above float64 underflow.
SUPPORT_TAIL = 1e-30
# RK4 steps between trims. A trim costs a few passes over the window, and
# each step of a group widens it by 4 H.bandwidth levels. Against 5, on the
# registry drive at J_y = 0.7, B_x = 0.01 (process time, minimum of 5 evolve
# runs, one thread, 2-core shared host): 1 took 19-25 % longer at J_x = 0.675,
# N = 400 and 1600, and at J_x = 0.5, N = 400; 10 took -3 to +7 % and 25 -3 to
# +15 %. 5 also keeps the widening to 40 levels.
TRIM_EVERY = 5
RK4_STABLE = 2.0 * np.sqrt(2.0)  # RK4 is stable on the imaginary axis up to |dt lambda| = 2 sqrt 2


def sample_plan(grid: TimeGrid, snapshots=()):
    """The samples evolve stores and the ones whose states it keeps: (steps, times, kept).

    steps and times are grid.samples(grid.sample_every), and kept[j] is the
    index of the sample at snapshots[j] (stepping.sample_index). ValueError
    if grid has no sample_every, grid.dt exceeds the propagation bound
    MAX_DT or a snapshot time is off the grid.
    """
    if grid.sample_every is None:
        raise ValueError("the amplifier needs a sample_every, got None")
    if not grid.dt <= MAX_DT + 1e-15:
        raise ValueError(f"dt = {grid.dt} exceeds the {MAX_DT:g} propagation bound")
    steps, times = grid.samples(grid.sample_every)
    kept = np.array([sample_index(times, t) for t in snapshots], dtype=int)
    return steps, times, kept


@dataclass(frozen=True)
class DriveSchedule:
    """P_e samples; linear interpolation between samples, constant
    extrapolation at the ends.

    pe_at(t) takes one float and returns numpy.interp(t, times, pe) to the
    last bit: it finds the interval by bisect over Python-float copies of the
    samples, made once here, and applies numpy.interp's own formula, at a
    fraction of a numpy call's cost per lookup.
    """

    times: np.ndarray
    pe: np.ndarray

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
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "pe", pe)
        object.__setattr__(self, "_samples", (times.tolist(), pe.tolist()))

    def pe_at(self, t: float) -> float:
        times, pe = self._samples
        j = bisect_right(times, t) - 1  # times[j] <= t < times[j + 1]
        if j < 0:
            return pe[0]
        if j >= len(times) - 1 or times[j] == t:
            return pe[j]
        slope = (pe[j + 1] - pe[j]) / (times[j + 1] - times[j])
        return slope * (t - times[j]) + pe[j]


@dataclass(frozen=True)
class AmplifierTrajectory:
    """The samples of one evolve run, on the grid of sample_plan.

    sx2[k] and sy2[k] are <S_x^2> and <S_y^2> of the renormalized state at
    times[k], for every stored sample. Only the states evolve was asked to
    keep are held: states[j] is the renormalized state at snapshots[j], in
    the order and with the repeats evolve was given, one row of a
    (len(snapshots), N + 1) complex array; a row is all q_function needs.

    max_window is the most Dicke levels one propagation step ran on, and
    norm_drift the sum of |norm - 1| over the samples that the guard checks.
    """

    times: np.ndarray
    sx2: np.ndarray
    sy2: np.ndarray
    states: np.ndarray
    max_window: int
    norm_drift: float


@dataclass(frozen=True)
class GainTrace:
    """G(t) = <S_x^2(t)> / <S_x^2(t_0)> on the trajectory's times; t_am is the
    first time G reaches 0.95 * g_max, measured from the pulse arrival."""

    gain: np.ndarray
    g_max: float
    t_am: float


def flat_drive_start(drive: DriveSchedule) -> float:
    """t_flat: the first drive sample after the last P_e value that differs
    from P_e[-1]. From t_flat on, pe_at is P_e[-1] to the last bit."""
    moving = np.flatnonzero(drive.pe != drive.pe[-1])
    return float(drive.times[moving[-1] + 1] if moving.size else drive.times[0])


def _support(psi: np.ndarray) -> tuple[int, int]:
    """[lo, hi): psi without the longest run at each end whose norm is at most
    SUPPORT_TAIL. A NaN or inf ends a run, so it always stays inside."""
    tail = SUPPORT_TAIL**2
    weight = psi.real**2 + psi.imag**2
    lo = int(np.count_nonzero(np.cumsum(weight) <= tail))
    hi = psi.size - int(np.count_nonzero(np.cumsum(weight[::-1]) <= tail))
    return lo, max(lo, hi)


def _trim(psi: np.ndarray, a: int, b: int) -> tuple[int, int]:
    """Set the tails _support finds in psi[a:b] to 0 and return the rest as
    [lo, hi); psi must be zero outside [a, b)."""
    lo, hi = _support(psi[a:b])
    psi[a : a + lo] = 0.0
    psi[a + hi : b] = 0.0
    return a + lo, a + hi


def _chebyshev_propagator(h: BandedHermitianOperator, e0: float, dt: float):
    """step(psi, n_steps, lo, hi) = exp(-i (H - e0) n_steps dt) psi for the
    real symmetric pentadiagonal operator h, by a Chebyshev series with
    Bessel-function coefficients (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
    (1984)).

    psi must be zero outside [lo, hi). Each term is one product with H, which
    widens the support by h.bandwidth levels, so a series of K terms runs on
    [lo, hi) plus K h.bandwidth levels, with H's bands cut to that slice.
    Each stride maps H - e0 on its slice onto [-1, 1] through the Gershgorin
    interval of the slice's rows, from h.row_radius() as in
    BandedHermitianOperator.norm_upper_bound, so every T_k(H~) psi stays
    bounded by |psi|. With x = half-width * tau,
    exp(-i (H - e0) tau) = exp(-i mid tau) sum_k (2 - delta_k0) (-i)^k J_k(x) T_k(H~),
    cut at SERIES_CUT. The interval and K form a fixed point: starting from
    the previous stride's K, the slice widens until the K its interval needs
    fits its reach, and the coefficients are those of the stride's own
    interval. Each term's product is the diagonal times psi, less the term
    before, plus dicke.add_band_products of the two scaled off-diagonal
    bands. step writes the result back into psi and returns the slice as
    (a, b). The scratch is a few vectors of the slice's length.
    """
    n = h.dimension
    diag = h.bands[0] - e0
    radius = h.row_radius()
    lower, upper = diag - radius, diag + radius
    terms = 0  # the previous stride's K

    def twice_scaled(psi, prev, d, u, v):
        """2 H~ psi - prev on a slice whose bands are (d, u, v)."""
        out = d * psi
        out -= prev
        return add_band_products(out, psi, u, v)

    def series(a, b, tau):
        """The coefficients on the Gershgorin interval of rows [a, b), and its midpoint and half-width."""
        e_lo, e_hi = float(lower[a:b].min()), float(upper[a:b].max())
        mid, half = (e_hi + e_lo) / 2.0, (e_hi - e_lo) / 2.0
        x = half * tau
        k = np.arange(2 * int(x) + 64)  # past k = 2x, |J_k(x)| < exp(-0.45 k): the cut lies inside
        bessel = jv(k, x)
        cut = int(np.flatnonzero((k > max(x, 1.0)) & (np.abs(bessel) < SERIES_CUT))[0])
        c = 2.0 * np.array([1.0, -1j, -1.0, 1j])[k[:cut] % 4] * bessel[:cut]
        c[0] /= 2.0
        return np.exp(-1j * mid * tau) * c, mid, half

    def step(psi, n_steps, lo, hi):
        nonlocal terms
        tau = n_steps * dt
        while True:
            reach = h.bandwidth * terms
            c, mid, half = series(max(lo - reach, 0), min(hi + reach, n), tau)
            fits = c.size <= terms
            terms = c.size
            if fits:
                break
        reach = h.bandwidth * terms
        a, b = max(lo - reach, 0), min(hi + reach, n)
        # twice H~ = (H - mid) / half, complex so no product casts its operands
        scale = 2.0 / half
        d = (scale * (diag[a:b] - mid)).astype(complex)
        u = (scale * h.bands[1][a : b - 1]).astype(complex)
        v = (scale * h.bands[2][a : b - 2]).astype(complex)
        window = psi[a:b]
        prev, cur = window, 0.5 * twice_scaled(window, np.zeros_like(window), d, u, v)
        out = c[0] * prev + c[1] * cur
        for ck in c[2:]:
            prev, cur = cur, twice_scaled(cur, prev, d, u, v)
            out += ck * cur
        psi[a:b] = out
        return a, b

    return step


def evolve(params: LmgParams, drive: DriveSchedule, grid: TimeGrid, *, snapshots=()) -> AmplifierTrajectory:
    """Propagate the zero-field ground state under H_Am + 2 P_e(t) B_x S_x on grid.

    params is the whole amplifier: the run starts in the ground state of
    params at bx = 0 at grid.t_start and takes steps of grid.dt to
    grid.t_end, and the drive scales params.bx by P_e(t), so H at
    drive P_e is assemble_hamiltonian of params with bx * P_e. That H at
    zero drive gives the RK4 derivative its diagonal and pair bands, at
    bx = 1 its drive band c_m, which the derivative scales by
    params.bx * P_e(t) as H at that field would, at the
    largest drive sample the RK4 guard's bound, and at the final one the
    operator _chebyshev_propagator exponentiates. sample_plan checks the
    grid and maps each snapshot time to its sample before any work, so a
    missing sample_every, a dt above MAX_DT or a time off the grid is a
    ValueError. A sample is stored every grid.sample_every steps, on
    sample_plan's grid, written in place into arrays sized before the first
    step: <S_x^2> and <S_y^2> at every sample, and states[j] only at
    snapshots[j]; the running state is one vector, so a run that keeps no
    state needs O(N) memory whatever its length.

    Up to k_flat, the first stored sample at or after flat_drive_start(drive),
    evolve takes one rk4_step per step of dt, each with four pe_at calls:
    each derivative is -i H(t) y on the window, the diagonal times y plus
    dicke.add_band_products with the drive band at B_x P_e(t) and the pair band.
    After k_flat the Hamiltonian is constant, and each stride between stored
    samples is one exp(-i (H - E0) tau) from _chebyshev_propagator, a series
    on the Gershgorin interval of the stride's own slice of levels; the drive
    is not looked up again.

    Every TRIM_EVERY RK4 steps, and before each Chebyshev stride, _trim cuts
    the state's tails of norm at most SUPPORT_TAIL to exactly 0, and the
    steps run on the levels left plus their reach, read from H.bandwidth:
    4 H.bandwidth levels per RK4 step (four products with H), H.bandwidth
    per Chebyshev term (one product). A state that fills the space runs on
    the whole space. Before each group of RK4 steps, dt times the largest
    Gershgorin row bound |H_mm - E0| + H.row_radius() on the slice, with
    P_e at its largest sample, must stay within RK4_STABLE; otherwise
    IntegrationError names the time, the slice and the bound. On both stretches norm drift
    accumulated across samples must stay below 1e-6 (states are
    renormalized at sample points), otherwise IntegrationError names the
    time.
    """
    steps, times, kept = sample_plan(grid, snapshots)
    t_start, dt = grid.t_start, grid.dt
    if t_start > drive.times[0]:
        raise ValueError("t_start must not be later than the first drive sample")
    k_flat = int(np.searchsorted(times, flat_drive_start(drive)))

    space = params.space
    ground = solve_ground(dataclasses.replace(params, bx=0.0))

    def driven(pe):
        """H at drive pe: the amplifier with its field B_x scaled by pe."""
        return assemble_hamiltonian(dataclasses.replace(params, bx=params.bx * float(pe)))

    h = driven(0.0)
    n = h.dimension
    # ground-energy shift; pure global phase
    b0 = h.bands[0] - ground.e0
    b2 = h.bands[2][: n - 2]
    # H's band 1 at B_x = 1 is c_m; deriv scales it by B_x P_e(t)
    c = assemble_hamiltonian(dataclasses.replace(params, bx=1.0)).bands[1][: n - 1]
    # -i H folded into the bands: multiplying by -1j only swaps and negates
    # parts, so each product is the one of -1j * (H psi) to the last bit
    mb0, mb2, mc = -1j * b0, -1j * b2, -1j * c
    # Gershgorin row bounds of H - E0 at the largest drive sample
    h_max = driven(drive.pe.max())
    row_bound = np.abs(b0) + h_max.row_radius()

    def window_deriv(a, b):
        """-i H(t) y for y on the levels [a, b)."""
        d, s, v = mb0[a:b], mc[a : b - 1], mb2[a : b - 2]

        def deriv(t, y):
            return add_band_products(d * y, y, (params.bx * drive.pe_at(t)) * s, v)

        return deriv

    flat_step = _chebyshev_propagator(driven(drive.pe[-1]), ground.e0, dt)

    sx2 = build_collective_operator(space, "Sx2")
    sy2 = build_collective_operator(space, "Sy2")

    states = np.empty((kept.size, n), dtype=complex)
    sx2_vals = np.empty(steps.size)
    sy2_vals = np.empty(steps.size)
    psi = ground.ground.astype(complex)
    states[kept == 0] = psi
    sx2_vals[0] = expectation(sx2, psi)
    sy2_vals[0] = expectation(sy2, psi)
    drift = 0.0
    a, b = 0, n  # psi is exactly zero outside [a, b)
    max_window = 0
    for k in range(1, steps.size):
        if k <= k_flat:
            for first in range(steps[k - 1], steps[k], TRIM_EVERY):
                last = min(first + TRIM_EVERY, steps[k])
                lo, hi = _trim(psi, a, b)
                reach = 4 * h.bandwidth * (last - first)
                a, b = max(lo - reach, 0), min(hi + reach, n)
                bound = float(row_bound[a:b].max())
                if not bound * dt <= RK4_STABLE:
                    raise IntegrationError(
                        f"RK4 unstable at t = {t_start + first * dt:.4f} on levels [{a}, {b}): "
                        f"Gershgorin bound {bound:.4g} of H - E0 times dt = {dt} exceeds 2 sqrt 2"
                    )
                deriv = window_deriv(a, b)
                window = psi[a:b]
                for i in range(first, last):
                    window = rk4_step(window, t_start + i * dt, dt, deriv)
                psi[a:b] = window
                max_window = max(max_window, b - a)
        else:
            lo, hi = _trim(psi, a, b)
            a, b = flat_step(psi, int(steps[k] - steps[k - 1]), lo, hi)
            max_window = max(max_window, b - a)
        nrm = np.linalg.norm(psi)
        drift += abs(nrm - 1.0)
        if not drift <= 1e-6:
            raise IntegrationError(
                f"norm drift {drift:.3e} exceeded 1e-6 at t = {times[k]:.4f} with dt = {dt}"
            )
        psi = psi / nrm
        states[kept == k] = psi
        sx2_vals[k] = expectation(sx2, psi)
        sy2_vals[k] = expectation(sy2, psi)

    return AmplifierTrajectory(
        times=times,
        sx2=sx2_vals,
        sy2=sy2_vals,
        states=states,
        max_window=max_window,
        norm_drift=drift,
    )


def quantum_gain(traj: AmplifierTrajectory, *, t_arrival: float = 0.0) -> GainTrace:
    """Gain trace relative to <S_x^2> at the first sample, traj.times[0]."""
    ref = traj.sx2[0]
    if ref < 1e-300:
        raise ZeroDivisionError("degenerate gain denominator: <S_x^2> at the first sample ~ 0")
    gain = traj.sx2 / ref
    g_max = float(gain.max())
    idx = int(np.argmax(gain >= 0.95 * g_max))
    return GainTrace(gain=gain, g_max=g_max, t_am=float(traj.times[idx] - t_arrival))


def q_function(state: np.ndarray) -> np.ndarray:
    """Q(theta, phi) = ((2S+1)/4 pi) |<theta, phi|psi>|^2 of a pure state on
    the 1-degree grid: a (Q_THETA.size, Q_PHI.size) array, log-stable in the
    coherent overlaps.

    state is one vector of N + 1 Dicke amplitudes, which fixes N; a state of
    another shape or a single amplitude is a ValueError, as is one whose norm
    is off 1 by more than 1e-6.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim != 1:
        raise ValueError(f"state must be one vector of Dicke amplitudes, got shape {state.shape}")
    space = DickeSpace(state.size - 1)
    nrm = np.linalg.norm(state)
    if not abs(nrm - 1.0) <= 1e-6:
        raise ValueError(f"state is not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
    with np.errstate(under="ignore"):
        mag = np.exp(coherent_log_magnitudes(space, Q_THETA))  # (theta, dim)
    k = np.arange(space.dimension)
    phases = np.exp(-1j * np.outer(k, Q_PHI))  # (dim, phi)
    overlap = (mag * state[np.newaxis, :]) @ phases
    return (space.dimension / (4.0 * np.pi)) * np.abs(overlap) ** 2
