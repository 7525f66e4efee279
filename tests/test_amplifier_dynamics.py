import dataclasses

import numpy as np
import pytest

from spinamp import amplifier_dynamics
from spinamp.amplifier_dynamics import (
    AmplifierTrajectory,
    DriveSchedule,
    azimuthal_plane_mass,
    evolve,
    q_function,
    quantum_gain,
)
from spinamp.absorber import AbsorberParams, PulseEnvelope, integrate_hierarchy
from spinamp.dicke import DickeSpace, build_collective_operator, coherent_amplitudes, expectation
from spinamp.lmg_statics import LmgParams, assemble_hamiltonian
from spinamp.stepping import IntegrationError

BIAS = dict(jx=0.675, jy=0.7)


def test_drive_schedule_validation():
    with pytest.raises(ValueError):
        DriveSchedule(times=np.array([0.0, 0.0]), pe=np.zeros(2), bx=0.01)
    with pytest.raises(ValueError):
        DriveSchedule(times=np.array([0.0, 1.0]), pe=np.array([0.0, 1.5]), bx=0.01)
    with pytest.raises(ValueError):
        DriveSchedule(times=np.array([0.0, 1.0]), pe=np.zeros(3), bx=0.01)
    # non-finite input: every range check must trip on NaN
    for times, pe, bx in [
        ([0.0, 1.0], [np.nan, 0.5], 0.01),
        ([0.0, 1.0], [0.0, np.inf], 0.01),
        ([0.0, np.nan], [0.0, 0.5], 0.01),
        ([0.0, np.inf], [0.0, 0.5], 0.01),
        ([-np.inf, 0.0], [0.0, 0.5], 0.01),
        ([0.0, 1.0], [0.0, 0.5], np.nan),
        ([0.0, 1.0], [0.0, 0.5], np.inf),
    ]:
        with pytest.raises(ValueError):
            DriveSchedule(times=np.array(times), pe=np.array(pe), bx=bx)


def test_drive_schedule_interpolation_and_extrapolation():
    drive = DriveSchedule(times=np.array([0.0, 2.0]), pe=np.array([0.0, 1.0]), bx=0.5)
    assert drive.pe_at(1.0) == pytest.approx(0.5)
    assert drive.pe_at(-10.0) == 0.0
    assert drive.pe_at(10.0) == 1.0


def test_evolve_preconditions():
    params = LmgParams(n_qubits=20, **BIAS)
    drive = DriveSchedule.zero(-1.0, 1.0, bx=0.01)
    with pytest.raises(ValueError, match="bx"):
        evolve(dataclasses.replace(params, bx=0.1), drive, -1.0, 1.0, 1e-3, 25)
    with pytest.raises(ValueError, match="dt"):
        evolve(params, drive, -1.0, 1.0, dt=5e-3, sample_every=25)
    with pytest.raises(ValueError, match="t_start"):
        evolve(params, drive, 0.0, 1.0, 1e-3, 25)


def test_norm_drift_guard_trips_on_nan(monkeypatch):
    monkeypatch.setattr(amplifier_dynamics, "rk4_step", lambda psi, t, dt, deriv: np.full_like(psi, np.nan))
    with pytest.raises(IntegrationError, match="norm drift"):
        evolve(LmgParams(n_qubits=20, **BIAS), DriveSchedule.zero(-1.0, 1.0, bx=0.01), -1.0, -0.9, 1e-3, 25)


def test_ground_state_is_stationary_without_drive():
    params = LmgParams(n_qubits=60, **BIAS)
    traj = evolve(params, DriveSchedule.zero(-1.0, 2.0, bx=0.01), -1.0, 2.0, 1e-3, 25)
    assert np.abs(traj.sx2 - traj.sx2[0]).max() < 1e-8
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6


def test_energy_conserved_with_frozen_drive():
    params = LmgParams(n_qubits=100, **BIAS)
    drive = DriveSchedule(times=np.array([-1.0, 4.0]), pe=np.array([1.0, 1.0]), bx=0.01)
    traj = evolve(params, drive, -1.0, 4.0, 1e-3, 25)
    h_field = assemble_hamiltonian(dataclasses.replace(params, bx=0.01))
    energies = np.array([expectation(h_field, s) for s in traj.states])
    assert np.abs(energies - energies[0]).max() / abs(energies[0]) < 1e-8


def test_step_halving_convergence():
    params = LmgParams(n_qubits=100, **BIAS)
    drive = DriveSchedule(times=np.array([-1.0, 0.0, 1.0]), pe=np.array([0.0, 0.5, 1.0]), bx=0.01)
    a = evolve(params, drive, -1.0, 2.0, dt=1e-3, sample_every=100)
    b = evolve(params, drive, -1.0, 2.0, dt=5e-4, sample_every=200)
    assert abs(a.sx2[-1] - b.sx2[-1]) / a.sx2[-1] < 1e-6


def test_quantum_gain_definition():
    times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    sx2 = np.array([2.0, 4.0, 19.5, 20.0, 18.0])
    traj = AmplifierTrajectory(
        times=times,
        states=np.zeros((5, 2), dtype=complex),
        sx2=sx2,
        sy2=sx2,
        params=LmgParams(n_qubits=1, jx=0.0, jy=0.0),
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
    params = LmgParams(n_qubits=20, **BIAS)
    drive = DriveSchedule(times=np.array([-1.0, 0.0, 1.0]), pe=np.array([0.0, 0.5, 1.0]), bx=0.01)
    traj = evolve(params, drive, -1.0, 0.01, dt=1e-3, sample_every=100)  # 1010 steps
    assert np.array_equal(traj.times, -1.0 + 1e-3 * np.array([*range(0, 1001, 100), 1010]))
    assert np.abs(np.linalg.norm(traj.states, axis=1) - 1.0).max() < 1e-12
    assert np.all(np.abs(np.diff(traj.states, axis=0)).max(axis=1) > 1e-6)
    sx2 = build_collective_operator(params.space, "Sx2")
    assert all(traj.sx2[k] == expectation(sx2, s) for k, s in enumerate(traj.states))
    # the absorber keeps the same rule at its own stride of 10 steps
    absorber = AbsorberParams(10.0, 20.0, 20.0)
    trace = integrate_hierarchy(absorber, PulseEnvelope(1.0), -5.0, -3.995, 1e-3)  # 1005 steps
    assert np.array_equal(trace.times, -5.0 + 1e-3 * np.array([*range(0, 1001, 10), 1005]))


def test_state_at_lookup():
    params = LmgParams(n_qubits=12, **BIAS)
    traj = evolve(params, DriveSchedule.zero(0.0, 1.0), 0.0, 1.0, dt=1e-3, sample_every=100)
    assert traj.state_at(0.1).shape == (13,)
    with pytest.raises(ValueError):
        traj.state_at(0.1234567)


def test_q_function_pole_state():
    space = DickeSpace(40)
    state = np.zeros(41, dtype=complex)
    state[0] = 1.0  # |S, -S>, polarized along -z
    grid = q_function(state, space)
    assert grid.values[-1].max() == grid.values.max()  # theta = pi row
    assert np.abs(grid.values[0]).max() < 1e-12  # theta = 0 row
    assert abs(grid.norm_integral() - 1.0) < 1e-3


def test_q_function_peaks_at_coherent_parameters():
    space = DickeSpace(60)
    theta0, phi0 = 1.1, 2.3
    state = coherent_amplitudes(space, theta0, phi0)
    grid = q_function(state, space)
    i, j = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert abs(grid.theta[i] - theta0) < 2 * np.pi / 180
    assert abs(grid.phi[j] - phi0) < 2 * np.pi / 180
    assert abs(grid.norm_integral() - 1.0) < 1e-3


def test_q_function_rejects_unnormalized():
    space = DickeSpace(10)
    with pytest.raises(ValueError):
        q_function(np.ones(11, dtype=complex), space)
    with pytest.raises(ValueError, match="normalized"):
        q_function(np.full(11, np.nan, dtype=complex), space)


def test_azimuthal_plane_masses():
    space = DickeSpace(80)
    equator_x = coherent_amplitudes(space, np.pi / 2, 0.0)
    gx = q_function(equator_x, space)
    assert azimuthal_plane_mass(gx, "xz") > 0.95
    assert azimuthal_plane_mass(gx, "yz") < 0.05
    equator_y = coherent_amplitudes(space, np.pi / 2, np.pi / 2)
    gy = q_function(equator_y, space)
    assert azimuthal_plane_mass(gy, "yz") > 0.95
    with pytest.raises(ValueError):
        azimuthal_plane_mass(gx, "xy")
