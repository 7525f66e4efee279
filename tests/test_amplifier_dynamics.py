import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from scipy.special import jv

from spinamp import amplifier_dynamics
from spinamp.amplifier_dynamics import (
    Q_PHI,
    Q_THETA,
    AmplifierTrajectory,
    DriveSchedule,
    evolve,
    flat_drive_start,
    q_function,
    quantum_gain,
    sample_plan,
)
from spinamp.absorber import AbsorberParams, PulseEnvelope, integrate_hierarchy
from spinamp.dicke import DickeSpace, build_collective_operator, expectation
from spinamp.lmg_statics import LmgParams, assemble_hamiltonian, solve_ground
from spinamp.stepping import IntegrationError, TimeGrid, rk4_step
from helpers import (
    azimuthal_plane_mass,
    coherent_amplitudes,
    densify,
    q_norm_integral,
    two_branch_nx2,
    whole_interval_propagator,
    zero_drive,
)

BIAS = dict(jx=0.675, jy=0.7)


def evolve_keeping_all(params, drive, grid):
    """evolve with every stored sample's state kept."""
    _, times = grid.samples(grid.sample_every)
    return evolve(params, drive, grid, snapshots=times)


def test_drive_schedule_validation():
    with pytest.raises(ValueError):
        DriveSchedule(times=np.array([0.0, 0.0]), pe=np.zeros(2))
    with pytest.raises(ValueError):
        DriveSchedule(times=np.array([0.0, 1.0]), pe=np.array([0.0, 1.5]))
    with pytest.raises(ValueError):
        DriveSchedule(times=np.array([0.0, 1.0]), pe=np.zeros(3))
    # non-finite input: every range check must trip on NaN
    for times, pe in [
        ([0.0, 1.0], [np.nan, 0.5]),
        ([0.0, 1.0], [0.0, np.inf]),
        ([0.0, np.nan], [0.0, 0.5]),
        ([0.0, np.inf], [0.0, 0.5]),
        ([-np.inf, 0.0], [0.0, 0.5]),
    ]:
        with pytest.raises(ValueError):
            DriveSchedule(times=np.array(times), pe=np.array(pe))


def test_drive_schedule_interpolation_and_extrapolation():
    drive = DriveSchedule(times=np.array([0.0, 2.0]), pe=np.array([0.0, 1.0]))
    assert drive.pe_at(1.0) == pytest.approx(0.5)
    assert drive.pe_at(-10.0) == 0.0
    assert drive.pe_at(10.0) == 1.0


def test_evolve_preconditions(monkeypatch):
    params = LmgParams(n_qubits=20, bx=0.01, **BIAS)
    drive = zero_drive(-1.0, 1.0)
    with pytest.raises(ValueError, match="dt"):
        evolve(params, drive, TimeGrid(5e-3, -1.0, 1.0, 25))
    with pytest.raises(ValueError, match="t_start"):
        evolve(params, drive, TimeGrid(1e-3, 0.0, 1.0, 25))
    # an off-grid snapshot is refused before the ground state is solved or any step taken
    monkeypatch.setattr(amplifier_dynamics, "solve_ground", lambda p: pytest.fail("evolve started work"))
    with pytest.raises(ValueError, match="no stored sample at t = 0.1234567"):
        evolve(params, drive, TimeGrid(1e-3, -1.0, 1.0, 25), snapshots=(0.5, 0.1234567))


def test_norm_drift_guard_trips_on_nan(monkeypatch):
    # the drive moves until t = 0, past the window, so every step is an rk4_step
    drive = DriveSchedule(times=np.array([-1.0, 0.0]), pe=np.array([0.0, 0.5]))
    monkeypatch.setattr(amplifier_dynamics, "rk4_step", lambda psi, t, dt, deriv: np.full_like(psi, np.nan))
    with pytest.raises(IntegrationError, match="norm drift"):
        evolve(LmgParams(n_qubits=20, **BIAS), drive, TimeGrid(1e-3, -1.0, -0.9, 25))


def test_norm_drift_guard_trips_on_nan_in_flat_stretch(monkeypatch):
    # a zero drive is flat from its first sample, so only the Chebyshev series runs;
    # a NaN leading coefficient makes its first stride NaN
    monkeypatch.setattr(amplifier_dynamics, "jv", lambda k, x: np.where(k == 0, np.nan, jv(k, x)))
    with pytest.raises(IntegrationError, match="norm drift .* at t = -0.9750"):
        evolve(LmgParams(n_qubits=20, **BIAS), zero_drive(-1.0, 1.0), TimeGrid(1e-3, -1.0, -0.9, 25))


def test_flat_drive_start():
    times = np.array([-1.0, 0.0, 0.5, 2.0])
    assert flat_drive_start(DriveSchedule(times, np.array([0.0, 0.3, 0.3, 0.3]))) == 0.0
    assert flat_drive_start(DriveSchedule(times, np.array([0.3, 0.3, 0.2, 0.3]))) == 2.0
    assert flat_drive_start(DriveSchedule(times, np.full(4, 0.3))) == -1.0


def test_rk4_runs_only_while_the_drive_moves(monkeypatch):
    """One rk4_step per dt and four pe_at calls per step up to the first
    stored sample at or after t_flat; neither after it."""
    rk4_times, pe_times = [], []
    rk4 = amplifier_dynamics.rk4_step
    pe_at = DriveSchedule.pe_at

    def counting_rk4(psi, t, dt, deriv):
        rk4_times.append(t)
        return rk4(psi, t, dt, deriv)

    def counting_pe_at(self, t):
        pe_times.append(t)
        return pe_at(self, t)

    monkeypatch.setattr(amplifier_dynamics, "rk4_step", counting_rk4)
    monkeypatch.setattr(DriveSchedule, "pe_at", counting_pe_at)
    params = LmgParams(n_qubits=30, bx=0.01, **BIAS)
    # flat from t = 0.01, between the stored samples at 0.0 and 0.025
    drive = DriveSchedule(times=np.array([-1.0, 0.01, 2.0]), pe=np.array([0.0, 0.5, 0.5]))
    traj = evolve(params, drive, TimeGrid(1e-3, -1.0, 1.0, 25))
    assert len(rk4_times) == 1025
    assert np.allclose(rk4_times, -1.0 + 1e-3 * np.arange(1025), rtol=0.0, atol=1e-12)
    assert len(pe_times) == 4 * len(rk4_times)
    assert max(pe_times) < traj.times[41] + 1e-12  # the last step's t + dt
    # a drive flat from its first sample never reaches rk4_step
    rk4_times.clear()
    pe_times.clear()
    evolve(params, zero_drive(-1.0, 1.0), TimeGrid(1e-3, -1.0, 1.0, 25))
    assert rk4_times == [] and pe_times == []


@pytest.mark.parametrize("n_qubits", [1, 2, 7, 12])
def test_flat_stretch_matches_dense_expm(n_qubits):
    """Under a constant drive every stride is one Chebyshev series; each
    stored state is exp(-i (H - E0) (t - t_start)) psi0 from a dense expm
    of the same H, within 1e-12. The span ends on a shorter stride, and the
    strides of 400 steps need a longer series than the registry's 25."""
    params = LmgParams(n_qubits=n_qubits, bx=0.3, **BIAS)
    drive = DriveSchedule(times=np.array([-1.0, 3.0]), pe=np.array([0.6, 0.6]))
    # 3130 steps: 7 strides of 400, one of 330
    traj = evolve_keeping_all(params, drive, TimeGrid(1e-3, -1.0, 2.13, 400))
    ground = solve_ground(dataclasses.replace(params, bx=0.0))
    h = densify(assemble_hamiltonian(dataclasses.replace(params, bx=0.6 * params.bx)))
    h -= ground.e0 * np.eye(h.shape[0])
    psi0 = ground.ground.astype(complex)
    for t, state in zip(traj.times, traj.states):
        exact = scipy.linalg.expm(-1j * h * (t + 1.0)) @ psi0
        assert np.abs(state - exact).max() < 1e-12


@pytest.fixture(scope="module")
def registry_drive():
    trace = integrate_hierarchy(AbsorberParams(10.0, 20.0, 20.0), PulseEnvelope(1.0), TimeGrid(1e-3, -5.0, 20.0))
    return DriveSchedule(trace.times, trace.pe)


@pytest.mark.parametrize("n_qubits", [100, 400])
def test_flat_stretch_matches_all_rk4(registry_drive, n_qubits):
    """The registry drive is flat from t = 7.8 on. Against RK4 over the
    whole window, the reference, sx2 and sy2 agree within 1e-10 relative
    and g_max within 1e-12 relative; up to t_flat they are the same RK4
    steps, bit for bit."""
    t_flat = flat_drive_start(registry_drive)
    assert -5.0 < t_flat < 20.0
    # one more sample past t_end that differs from the last one moves t_flat
    # beyond the window without changing pe_at inside it
    moving = DriveSchedule(
        np.append(registry_drive.times, 21.0), np.append(registry_drive.pe, registry_drive.pe[-1] / 2.0)
    )
    assert flat_drive_start(moving) == 21.0
    params = LmgParams(n_qubits=n_qubits, jx=0.675, jy=0.7, bx=0.01)
    traj = evolve_keeping_all(params, registry_drive, TimeGrid(1e-3, -5.0, 20.0, 25))
    ref = evolve_keeping_all(params, moving, TimeGrid(1e-3, -5.0, 20.0, 25))
    k_flat = int(np.searchsorted(traj.times, t_flat))
    assert np.array_equal(traj.states[: k_flat + 1], ref.states[: k_flat + 1])
    assert np.abs(traj.sx2 - ref.sx2).max() / ref.sx2.min() < 1e-10
    assert np.abs(traj.sy2 - ref.sy2).max() / ref.sy2.min() < 1e-10
    g, g_ref = quantum_gain(traj).g_max, quantum_gain(ref).g_max
    assert abs(g - g_ref) / g_ref < 1e-12


@pytest.mark.parametrize(
    "jx, band", [(0.675, (5.0, 5.5)), (0.5, (-0.026, -0.024))], ids=["critical", "noncritical"]
)
def test_gain_approaches_the_two_branch_mean_field(registry_drive, jx, band):
    """(G - 1)/N at N = 1600 and 6400 on the registry drive against its mean-field limit.

    The mean field's (G - 1)/N is (N/4) max n_x^2 / <S_x^2>_0, with n_x^2
    from helpers.two_branch_nx2 on the quantum run's samples and <S_x^2>_0
    that of the B_x = 0 ground state; the classical spin is solved once per
    bias. N x (mean field - quantum) measured 5.094 and 5.361 at J_x = 0.675,
    and -0.02503 and -0.02479 at J_x = 0.5, at N = 1600 and 6400: the
    deficit falls as 1/N, towards about 5.37 critical. The bands are
    [5.0, 5.5] and [-0.026, -0.024].
    """
    grid = TimeGrid(1e-3, -5.0, 20.0, 25)
    _, times, _ = sample_plan(grid)
    params = LmgParams(n_qubits=1, jx=jx, jy=0.7, bx=0.01)
    nx2 = two_branch_nx2(params, registry_drive, times).max()
    for n in (1600, 6400):
        params = dataclasses.replace(params, n_qubits=n)
        quantum = (quantum_gain(evolve(params, registry_drive, grid)).g_max - 1.0) / n
        ground = solve_ground(dataclasses.replace(params, bx=0.0)).ground
        mean_field = (n / 4.0) * nx2 / expectation(build_collective_operator(params.space, "Sx2"), ground)
        assert band[0] <= n * (mean_field - quantum) <= band[1], (n, mean_field, quantum)


def test_pe_at_is_np_interp_bit_for_bit(registry_drive):
    """pe_at(t) equals numpy.interp(t, times, pe) to the last bit: at every
    sample time and midpoint, at random times, before the first sample and at
    and after the last."""
    times, pe = registry_drive.times, registry_drive.pe
    probes = np.concatenate(
        [
            times,
            (times[1:] + times[:-1]) / 2.0,
            np.random.default_rng(7).uniform(times[0], times[-1], 20000),
            [times[0] - 1.0, np.nextafter(times[0], -np.inf), np.nextafter(times[-1], np.inf), times[-1] + 1.0],
        ]
    )
    got = np.array([registry_drive.pe_at(float(t)) for t in probes])
    assert np.array_equal(got, np.interp(probes, times, pe))


@pytest.mark.parametrize("n_qubits", [400, 1600])
def test_window_interval_series_matches_whole_interval(registry_drive, monkeypatch, n_qubits):
    """Each Chebyshev stride on its slice's own Gershgorin interval against
    the series on the whole H's interval (helpers.whole_interval_propagator),
    non-critical bias, whose window is the wider, over -5..12 (t_flat = 7.8):
    the RK4 stretch bit for bit, then sx2 and sy2 within 1e-12 relative,
    rounding of two series that both converge to SERIES_CUT."""
    params = LmgParams(n_qubits=n_qubits, jx=0.5, jy=0.7, bx=0.01)
    traj = evolve(params, registry_drive, TimeGrid(1e-3, -5.0, 12.0, 25))
    monkeypatch.setattr(amplifier_dynamics, "_chebyshev_propagator", whole_interval_propagator)
    ref = evolve(params, registry_drive, TimeGrid(1e-3, -5.0, 12.0, 25))
    k_flat = int(np.searchsorted(traj.times, flat_drive_start(registry_drive)))
    assert k_flat < traj.times.size - 100
    assert np.array_equal(traj.sx2[: k_flat + 1], ref.sx2[: k_flat + 1])
    assert np.abs(traj.sx2 / ref.sx2 - 1.0).max() < 1e-12
    assert np.abs(traj.sy2 / ref.sy2 - 1.0).max() < 1e-12


def full_space_reference(params, drive, ground, grid):
    """<S_x^2> and <S_y^2> from evolve's two stretches stepped on all N + 1
    levels from ground.ground: RK4 while the drive moves, then
    exp(-i (H - E0) tau) per stride as a Chebyshev series on H's exact
    spectral interval."""
    t_start, dt = grid.t_start, grid.dt
    steps, times = grid.samples(grid.sample_every)
    k_flat = int(np.searchsorted(times, flat_drive_start(drive)))
    bands = assemble_hamiltonian(params).bands
    d, v, s = bands[0] - ground.e0, bands[2][:-2], params.space.ladder_coefficients() / 2.0

    def h_times(pe, psi):
        out = d * psi
        for band, k in ((2.0 * params.bx * pe * s, 1), (v, 2)):
            out[:-k] += band * psi[k:]
            out[k:] += band * psi[:-k]
        return out

    h_flat = np.stack([d, np.append(2.0 * params.bx * drive.pe[-1] * s, 0.0), np.append(v, [0.0, 0.0])])
    e_lo, e_hi = scipy.linalg.eigvals_banded(h_flat, lower=True)[[0, -1]]
    mid, half = (e_hi + e_lo) / 2.0, (e_hi - e_lo) / 2.0
    sx2, sy2 = (build_collective_operator(params.space, tag) for tag in ("Sx2", "Sy2"))
    psi = ground.ground.astype(complex)
    out = [(expectation(sx2, psi), expectation(sy2, psi))]
    for k in range(1, steps.size):
        if k <= k_flat:
            for i in range(steps[k - 1], steps[k]):
                psi = rk4_step(psi, t_start + i * dt, dt, lambda t, y: -1j * h_times(drive.pe_at(t), y))
        else:
            x = half * (steps[k] - steps[k - 1]) * dt
            prev, cur = psi, (h_times(drive.pe[-1], psi) - mid * psi) / half
            new = jv(0, x) * prev - 2j * jv(1, x) * cur
            for j in range(2, int(2 * x) + 64):
                prev, cur = cur, 2.0 * (h_times(drive.pe[-1], cur) - mid * cur) / half - prev
                new += 2.0 * (-1j) ** j * jv(j, x) * cur
            psi = np.exp(-1j * mid * (steps[k] - steps[k - 1]) * dt) * new
        psi = psi / np.linalg.norm(psi)
        out.append((expectation(sx2, psi), expectation(sy2, psi)))
    return np.array(out).T


def test_window_matches_the_full_space(registry_drive, monkeypatch):
    """At N = 1600 over -5..10, both stretches (t_flat = 7.8): evolve on its
    window against steps on the whole space, sx2, sy2 and g_max within 1e-13
    relative; every RK4 step ran on fewer than half of the levels."""
    widths = []
    rk4 = amplifier_dynamics.rk4_step

    def recording_rk4(psi, t, dt, deriv):
        widths.append(psi.size)
        return rk4(psi, t, dt, deriv)

    monkeypatch.setattr(amplifier_dynamics, "rk4_step", recording_rk4)
    params = LmgParams(n_qubits=1600, bx=0.01, **BIAS)
    traj = evolve(params, registry_drive, TimeGrid(1e-3, -5.0, 10.0, 25))
    assert traj.times[-1] > flat_drive_start(registry_drive) + 1.0
    ground = solve_ground(dataclasses.replace(params, bx=0.0))
    sx2, sy2 = full_space_reference(params, registry_drive, ground, TimeGrid(1e-3, -5.0, 10.0, 25))
    assert np.abs(traj.sx2 / sx2 - 1.0).max() < 1e-13
    assert np.abs(traj.sy2 / sy2 - 1.0).max() < 1e-13
    assert abs(traj.sx2.max() - sx2.max()) / sx2.max() < 1e-13  # g_max, over the same sx2[0]
    assert max(widths) < 1601 / 2 and traj.max_window < 1601 / 2
    assert 0.0 < traj.norm_drift < 1e-12


@pytest.mark.parametrize(
    "pe, exact",
    [([0.0, 1.0], True), ([1.0, 1.0], False)],
    ids=["rk4", "chebyshev"],
)
def test_window_reach_covers_a_state_with_hard_edges(monkeypatch, pe, exact):
    """Started from one Dicke level, the state spreads over the levels next
    to it with amplitudes far above SUPPORT_TAIL; on its window it must still
    match the whole space: bit for bit under RK4 (a drive that moves past
    t_end), within 1e-13 relative under the Chebyshev series (a constant
    drive)."""
    params = LmgParams(n_qubits=400, bx=0.01, **BIAS)
    level = np.zeros(401, dtype=complex)
    level[200] = 1.0
    # the level's own energy as E0, so RK4's error stays within the drift guard
    start = SimpleNamespace(e0=assemble_hamiltonian(params).bands[0][200], ground=level)
    monkeypatch.setattr(amplifier_dynamics, "solve_ground", lambda p: start)
    drive = DriveSchedule(times=np.array([-0.1, 0.2]), pe=np.array(pe))
    traj = evolve(params, drive, TimeGrid(1e-3, -0.1, 0.1, 25))
    sx2, sy2 = full_space_reference(params, drive, start, TimeGrid(1e-3, -0.1, 0.1, 25))
    if exact:
        assert np.array_equal(traj.sx2, sx2) and np.array_equal(traj.sy2, sy2)
    assert np.abs(traj.sx2 / sx2 - 1.0).max() < 1e-13
    assert np.abs(traj.sy2 / sy2 - 1.0).max() < 1e-13
    assert traj.max_window < 401


def test_window_runs_where_full_space_rk4_is_unstable(registry_drive):
    """At N = 3200 and dt = 1e-3, RK4 on all levels exceeds its stability
    bound; on the window evolve completes, and sx2 agrees with dt = 5e-4
    within C11's 1e-6."""
    params = LmgParams(n_qubits=3200, bx=0.01, **BIAS)
    a = evolve(params, registry_drive, TimeGrid(1e-3, -5.0, 0.0, 25))
    b = evolve(params, registry_drive, TimeGrid(5e-4, -5.0, 0.0, 50))
    assert np.array_equal(a.times, b.times)
    assert np.abs(a.sx2 / b.sx2 - 1.0).max() < 1e-6
    assert a.max_window < 3201 / 2


def test_stability_guard_fires_on_the_whole_space(registry_drive, monkeypatch):
    """With the window forced to every level, the guard refuses N = 3200 at
    dt = 1e-3 before RK4 takes a step."""
    outputs = []
    rk4 = amplifier_dynamics.rk4_step

    def recording_rk4(psi, t, dt, deriv):
        outputs.append(rk4(psi, t, dt, deriv))
        return outputs[-1]

    monkeypatch.setattr(amplifier_dynamics, "rk4_step", recording_rk4)
    monkeypatch.setattr(amplifier_dynamics, "_support", lambda psi: (0, psi.size))
    params = LmgParams(n_qubits=3200, bx=0.01, **BIAS)
    message = r"RK4 unstable at t = -5\.0000 on levels \[0, 3201\): Gershgorin bound [0-9.]+ .* exceeds 2 sqrt 2"
    with pytest.raises(IntegrationError, match=message):
        evolve(params, registry_drive, TimeGrid(1e-3, -5.0, 0.0, 25))
    assert all(np.all(np.isfinite(y)) for y in outputs)


def test_support_trims_only_dust_and_keeps_non_finite_entries():
    psi = np.array([1e-40, 1e-31, 0.0, 0.6, 0.8, 1e-31, 1e-31, 1e-40], dtype=complex)
    assert amplifier_dynamics._support(psi) == (3, 5)
    # the cut norm may reach SUPPORT_TAIL but not pass it
    assert amplifier_dynamics._support(np.array([1e-30, 1.0, 1e-30 + 1e-45j])) == (1, 2)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        psi = np.array([0.0, bad, 0.0, 1.0, 0.0, 0.0], dtype=complex)
        assert amplifier_dynamics._support(psi) == (1, 4)
        assert amplifier_dynamics._support(psi[::-1]) == (2, 5)


def test_ground_state_is_stationary_without_drive():
    # params.bx is scaled by P_e = 0, so the zero-field ground state stays put
    params = LmgParams(n_qubits=60, bx=0.01, **BIAS)
    traj = evolve_keeping_all(params, zero_drive(-1.0, 2.0), TimeGrid(1e-3, -1.0, 2.0, 25))
    assert np.abs(traj.sx2 - traj.sx2[0]).max() < 1e-8
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6


def test_energy_conserved_with_frozen_drive():
    params = LmgParams(n_qubits=100, bx=0.01, **BIAS)
    drive = DriveSchedule(times=np.array([-1.0, 4.0]), pe=np.array([1.0, 1.0]))
    traj = evolve_keeping_all(params, drive, TimeGrid(1e-3, -1.0, 4.0, 25))
    h_field = assemble_hamiltonian(params)
    energies = np.array([expectation(h_field, s) for s in traj.states])
    assert np.abs(energies - energies[0]).max() / abs(energies[0]) < 1e-8


def test_step_halving_convergence():
    params = LmgParams(n_qubits=100, bx=0.01, **BIAS)
    drive = DriveSchedule(times=np.array([-1.0, 0.0, 1.0]), pe=np.array([0.0, 0.5, 1.0]))
    a = evolve(params, drive, TimeGrid(1e-3, -1.0, 2.0, 100))
    b = evolve(params, drive, TimeGrid(5e-4, -1.0, 2.0, 200))
    assert abs(a.sx2[-1] - b.sx2[-1]) / a.sx2[-1] < 1e-6


def test_quantum_gain_definition():
    times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    sx2 = np.array([2.0, 4.0, 19.5, 20.0, 18.0])
    traj = AmplifierTrajectory(
        times=times,
        sx2=sx2,
        sy2=sx2,
        states=np.zeros((5, 2), dtype=complex),
        max_window=2,
        norm_drift=0.0,
    )
    gain = quantum_gain(traj, t_arrival=1.0)
    assert gain.gain[0] == 1.0
    assert gain.g_max == pytest.approx(10.0)
    # first crossing of 0.95 * g_max happens at t = 2.0, i.e. 1.0 after arrival
    assert gain.t_am == pytest.approx(1.0)
    with pytest.raises(TypeError):  # the arrival time is keyword-only
        quantum_gain(traj, 1.0)


def test_last_partial_sample():
    """A span that is no whole number of sample strides ends on a shorter stride."""
    params = LmgParams(n_qubits=20, bx=0.01, **BIAS)
    drive = DriveSchedule(times=np.array([-1.0, 0.0, 1.0]), pe=np.array([0.0, 0.5, 1.0]))
    traj = evolve_keeping_all(params, drive, TimeGrid(1e-3, -1.0, 0.01, 100))  # 1010 steps
    assert np.array_equal(traj.times, -1.0 + 1e-3 * np.array([*range(0, 1001, 100), 1010]))
    assert np.abs(np.linalg.norm(traj.states, axis=1) - 1.0).max() < 1e-12
    assert np.all(np.abs(np.diff(traj.states, axis=0)).max(axis=1) > 1e-6)
    sx2 = build_collective_operator(params.space, "Sx2")
    assert all(traj.sx2[k] == expectation(sx2, s) for k, s in enumerate(traj.states))
    # the absorber keeps the same rule at its own stride of 10 steps
    absorber = AbsorberParams(10.0, 20.0, 20.0)
    trace = integrate_hierarchy(absorber, PulseEnvelope(1.0), TimeGrid(1e-3, -5.0, -3.995))  # 1005 steps
    assert np.array_equal(trace.times, -5.0 + 1e-3 * np.array([*range(0, 1001, 10), 1005]))


def test_run_keeping_no_state_needs_no_per_sample_memory():
    """2001 samples at N = 400 would be 12.8 MB of states; a run that keeps
    none peaks below a tenth of that, on both the RK4 and the Chebyshev stretch."""
    params = LmgParams(n_qubits=400, bx=0.01, **BIAS)
    drive = DriveSchedule(times=np.array([-1.0, 0.0]), pe=np.array([0.0, 0.5]))  # flat from t = 0
    tracemalloc.start()
    try:
        traj = evolve(params, drive, TimeGrid(1e-3, -1.0, 1.0, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < traj.sx2.size * 401 * 16 / 10
    assert traj.states.shape == (0, 401) and traj.sx2.size == 2001


def test_kept_states_are_the_rows_of_a_run_keeping_all():
    params = LmgParams(n_qubits=50, bx=0.01, **BIAS)
    drive = DriveSchedule(times=np.array([-1.0, 0.0, 1.0]), pe=np.array([0.0, 0.5, 0.5]))  # flat from t = 0
    every = evolve_keeping_all(params, drive, TimeGrid(1e-3, -1.0, 1.01, 25))
    snapshots = (0.5, -1.0, 1.01, 0.5, 0.0)  # unordered, repeated, the first and the shorter last sample
    some = evolve(params, drive, TimeGrid(1e-3, -1.0, 1.01, 25), snapshots=snapshots)
    assert some.states.shape == (5, 51)
    assert np.array_equal(some.sx2, every.sx2) and np.array_equal(some.sy2, every.sy2)
    # states[j] is the state at snapshots[j]: the row of its sample in a run keeping all
    _, times, kept = sample_plan(TimeGrid(1e-3, -1.0, 1.01, 25), snapshots)
    assert np.array_equal(times, every.times) and kept.tolist() == [60, 0, 81, 60, 40]
    assert np.array_equal(some.states, every.states[kept])


def test_q_function_pole_state():
    state = np.zeros(41, dtype=complex)
    state[0] = 1.0  # |S, -S>, polarized along -z
    q = q_function(state)
    assert q[-1].max() == q.max()  # theta = pi row
    assert np.abs(q[0]).max() < 1e-12  # theta = 0 row
    assert abs(q_norm_integral(q) - 1.0) < 1e-3


def test_q_function_peaks_at_coherent_parameters():
    space = DickeSpace(60)
    theta0, phi0 = 1.1, 2.3
    state = coherent_amplitudes(space, theta0, phi0)
    q = q_function(state)
    i, j = np.unravel_index(np.argmax(q), q.shape)
    assert abs(Q_THETA[i] - theta0) < 2 * np.pi / 180
    assert abs(Q_PHI[j] - phi0) < 2 * np.pi / 180
    assert abs(q_norm_integral(q) - 1.0) < 1e-3


def test_q_function_rejects_unnormalized():
    with pytest.raises(ValueError):
        q_function(np.ones(11, dtype=complex))
    with pytest.raises(ValueError, match="normalized"):
        q_function(np.full(11, np.nan, dtype=complex))


def test_q_function_takes_the_space_from_one_vector():
    # N + 1 amplitudes fix N: a stack of states and a lone amplitude fix none
    with pytest.raises(ValueError, match=r"one vector of Dicke amplitudes, got shape \(1, 11\)"):
        q_function(np.eye(1, 11, dtype=complex))
    with pytest.raises(ValueError, match="n_qubits must be a positive integer, got 0"):
        q_function(np.ones(1, dtype=complex))
    state = np.zeros(11, dtype=complex)
    state[-1] = 1.0  # |S, +S>: N = 10 from the length alone
    assert q_function(state)[0].max() == pytest.approx(11 / (4 * np.pi), rel=1e-12)


def test_azimuthal_plane_masses():
    space = DickeSpace(80)
    equator_x = coherent_amplitudes(space, np.pi / 2, 0.0)
    gx = q_function(equator_x)
    assert azimuthal_plane_mass(gx, "xz") > 0.95
    assert azimuthal_plane_mass(gx, "yz") < 0.05
    equator_y = coherent_amplitudes(space, np.pi / 2, np.pi / 2)
    gy = q_function(equator_y)
    assert azimuthal_plane_mass(gy, "yz") > 0.95
    with pytest.raises(ValueError):
        azimuthal_plane_mass(gx, "xy")
