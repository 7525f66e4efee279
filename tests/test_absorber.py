import numpy as np
import pytest

from spinamp import absorber
from spinamp.absorber import (
    SAMPLE_EVERY,
    AbsorberParams,
    PulseEnvelope,
    integrate_hierarchy,
    optimize_transduction,
)
from spinamp.stepping import IntegrationError, rk4_step

RIDGE = dict(delta_pp=10.0, gamma_fg=20.0, gamma_he=20.0)
PULSE = PulseEnvelope(tau_f=1.0)
_G, _F, _H, _E = 0, 1, 2, 3


def _block_deriv(params, xi, rho):
    """The hierarchy derivative block by block, as 4x4 matrix products."""
    h = np.zeros((4, 4))
    h[_F, _H] = h[_H, _F] = params.delta_pp
    l1 = np.zeros((4, 4))
    l1[_G, _F] = np.sqrt(params.gamma_fg)
    l2 = np.zeros((4, 4))
    l2[_E, _H] = np.sqrt(params.gamma_he)
    l1d, l2d = l1.T, l2.T
    esum = l1d @ l1 + l2d @ l2
    c = np.sqrt(params.eta) * np.exp(1j * params.phase)
    out = -1j * (h @ rho - rho @ h)
    out += l1 @ rho @ l1d + l2 @ rho @ l2d
    out -= 0.5 * (esum @ rho + rho @ esum)
    out[1] += xi * c * (rho[0] @ l1d - l1d @ rho[0])
    out[:, 1] += xi * np.conj(c) * (l1 @ rho[:, 0] - rho[:, 0] @ l1)
    return out


def _hierarchy_rk4(params, pulse, t_start, t_end, dt):
    """The 64-number hierarchy rho[m, n] under the same RK4, on the trace's sample grid."""
    rho = np.zeros((2, 2, 4, 4), dtype=complex)
    rho[0, 0, _G, _G] = rho[1, 1, _G, _G] = 1.0
    n_steps = int(np.ceil((t_end - t_start) / dt - 1e-12))
    samples = [rho]
    for i in range(n_steps):
        rho = rk4_step(
            rho, t_start + i * dt, dt, lambda t, r: _block_deriv(params, float(pulse.amplitude(t)), r)
        )
        if (i + 1) % SAMPLE_EVERY == 0 or i + 1 == n_steps:
            samples.append(rho)
    return np.array(samples)


def reconstructed_blocks(trace):
    """rho_11 and rho_10 per sample, rebuilt from the amplitudes and P_e."""
    psi, pe = trace.states, trace.pe
    rho11 = np.zeros((pe.size, 4, 4), dtype=complex)
    rho11[:, _F:_E, _F:_E] = psi[:, :, None] * psi[:, None, :].conj()
    rho11[:, _E, _E] = pe
    rho11[:, _G, _G] = 1.0 - (np.abs(psi) ** 2).sum(axis=1) - pe
    rho10 = np.zeros_like(rho11)
    rho10[:, _F:_E, _G] = psi
    return rho11, rho10


def test_params_validation():
    with pytest.raises(ValueError):
        AbsorberParams(delta_pp=1.0, gamma_fg=0.0, gamma_he=1.0)
    with pytest.raises(ValueError):
        PulseEnvelope(tau_f=-1.0)
    with pytest.raises(ValueError):
        AbsorberParams(delta_pp=1.0, gamma_fg=1.0, gamma_he=1.0, eta=1.5)


def test_params_reject_non_finite():
    # a NaN rate used to run to the end and report pe_steady = nan
    with pytest.raises(ValueError, match="delta_pp"):
        AbsorberParams(delta_pp=float("nan"), gamma_fg=20.0, gamma_he=20.0)
    with pytest.raises(ValueError, match="t_arrival"):
        PulseEnvelope(tau_f=1.0, t_arrival=float("inf"))


def test_population_guard_trips_on_nan(monkeypatch):
    step = absorber.rk4_step

    def nan_in_last_cell(y, t, dt, deriv):
        y = step(y, t, dt, deriv)
        y.reshape(3, -1)[:, -1] = np.nan
        return y

    monkeypatch.setattr(absorber, "rk4_step", nan_in_last_cell)
    with pytest.raises(IntegrationError, match=r"P_e = nan, p_g = nan .* t = -4\.9000 with dt = 0\.01"):
        integrate_hierarchy(AbsorberParams(**RIDGE), PULSE, -5.0, -4.9, dt=1e-2)
    with pytest.raises(RuntimeError, match=r"map cell .* = \(10\.0, 20\.0, 20\.0\)"):
        optimize_transduction([0.0, 10.0], [5.0, 20.0], PULSE, t_end=-4.9, dt=1e-2)


def test_pulse_norm_on_grid():
    pulse = PulseEnvelope(tau_f=0.7, t_arrival=2.0)
    times = np.arange(2.0 - 5 * 0.7, 2.0 + 5 * 0.7, 0.7 / 1000)
    assert abs(pulse.norm_on_grid(times) - 1.0) < 1e-6


def test_preconditions():
    params = AbsorberParams(**RIDGE)
    with pytest.raises(ValueError, match="tail"):
        integrate_hierarchy(params, PULSE, -3.0, 5.0)
    with pytest.raises(ValueError, match="dt"):
        integrate_hierarchy(params, PULSE, -5.0, 5.0, dt=0.5)
    with pytest.raises(ValueError, match="t_end"):
        integrate_hierarchy(params, PULSE, -5.0, -6.0)


def test_severed_arm_gives_zero_transduction():
    params = AbsorberParams(delta_pp=0.0, gamma_fg=10.0, gamma_he=10.0)
    trace = integrate_hierarchy(params, PULSE, -5.0, 4.0, dt=2e-3)
    assert np.abs(trace.pe).max() < 1e-12


def test_absorption_rises_and_saturates():
    params = AbsorberParams(delta_pp=5.0, gamma_fg=10.0, gamma_he=10.0)
    trace = integrate_hierarchy(params, PULSE, -5.0, 12.0)
    assert trace.pe_steady > 0.9
    # nondecreasing once the pulse has passed (no decay channel out of |e>)
    after = trace.times > PULSE.t_arrival + 4.0 * PULSE.tau_f
    assert np.all(np.diff(trace.pe[after]) > -1e-8)
    assert trace.pe_steady == pytest.approx(trace.pe.max())


def test_trace_conservation_and_block_structure():
    trace = integrate_hierarchy(AbsorberParams(**RIDGE), PULSE, -5.0, 6.0)
    assert trace.states.shape == (trace.times.size, 2)
    rho11, _ = reconstructed_blocks(trace)
    assert np.abs(np.trace(rho11, axis1=1, axis2=2).real - 1.0).max() < 1e-6
    assert np.abs(rho11 - rho11.transpose(0, 2, 1).conj()).max() < 1e-10
    assert np.linalg.eigvalsh(rho11).min() > -1e-8


@pytest.mark.parametrize(
    "cell",
    [
        dict(delta_pp=10.0, gamma_fg=20.0, gamma_he=20.0),  # fig2, fig3, figS3
        dict(delta_pp=5.0, gamma_fg=10.0, gamma_he=10.0),  # figS1
        dict(delta_pp=7.0, gamma_fg=12.0, gamma_he=30.0, eta=0.6, phase=0.7),
    ],
)
def test_amplitudes_match_fock_hierarchy(cell):
    # the atom starts in |g>, so the hierarchy closes on (psi, P_e): the two
    # RK4 discretizations agree to rounding at dt = tau_f / 1000
    params = AbsorberParams(**cell)
    trace = integrate_hierarchy(params, PULSE, -5.0, 4.0)
    rho = _hierarchy_rk4(params, PULSE, -5.0, 4.0, 1e-3)
    assert np.abs(trace.pe - rho[:, 1, 1, _E, _E].real).max() < 5e-14
    rho11, rho10 = reconstructed_blocks(trace)
    assert np.abs(rho11 - rho[:, 1, 1]).max() < 2e-13
    assert np.abs(rho10 - rho[:, 1, 0]).max() < 2e-13
    assert np.all(rho[:, 0, 0] == rho[0, 0, 0])  # rho_00 stays |g><g|


def test_scattering_efficiency_scales_transduction():
    # rho_11 is second order in the photon amplitude: P_e scales with
    # |c|^2 = eta, and the phase of c cancels
    full = integrate_hierarchy(AbsorberParams(**RIDGE), PULSE, -5.0, 4.0)
    lossy = integrate_hierarchy(AbsorberParams(**RIDGE, eta=0.6, phase=0.7), PULSE, -5.0, 4.0)
    assert np.abs(lossy.pe - 0.6 * full.pe).max() < 1e-12


def test_vacuum_drive_keeps_blocks_equal():
    # arrival pushed far outside the window: xi == 0 on the whole grid
    params = AbsorberParams(delta_pp=5.0, gamma_fg=8.0, gamma_he=8.0)
    trace = integrate_hierarchy(params, PulseEnvelope(tau_f=1.0, t_arrival=1e6), -5.0, 3.0, dt=2e-3)
    assert np.abs(trace.pe).max() == 0.0
    # psi = 0 keeps rho_11 = rho_00 = |g><g| and rho_01 = 0
    assert np.abs(trace.states).max() < 1e-14


def test_step_halving_convergence():
    params = AbsorberParams(**RIDGE)
    coarse = integrate_hierarchy(params, PULSE, -5.0, 4.0, dt=1e-3)
    fine = integrate_hierarchy(params, PULSE, -5.0, 4.0, dt=5e-4)
    assert abs(coarse.pe[-1] - fine.pe[-1]) < 1e-6


def test_trace_drift_error_names_dt():
    # absurd decay rate makes explicit RK4 unstable at this step
    params = AbsorberParams(delta_pp=5.0, gamma_fg=5e3, gamma_he=5e3)
    with pytest.raises(IntegrationError, match="0.01"):
        integrate_hierarchy(params, PULSE, -5.0, 2.0, dt=0.01)


def test_determinism():
    params = AbsorberParams(**RIDGE)
    a = integrate_hierarchy(params, PULSE, -5.0, 3.0, dt=2e-3)
    b = integrate_hierarchy(params, PULSE, -5.0, 3.0, dt=2e-3)
    assert np.array_equal(a.pe, b.pe)


def test_optimize_transduction_grid():
    tmap = optimize_transduction([0.0, 10.0], [5.0, 20.0, 80.0], PULSE, t_end=8.0, dt=5e-3)
    assert tmap.pe_steady.shape == (2, 3)
    assert np.abs(tmap.pe_steady[0]).max() < 1e-12  # severed-arm row
    ridge_row = tmap.pe_steady[1]
    assert np.argmax(ridge_row) == 1  # gamma = 2 delta_pp wins
    for i, d in enumerate([0.0, 10.0]):  # the batch steps each cell as one trace does
        for j, g in enumerate([5.0, 20.0, 80.0]):
            cell = AbsorberParams(delta_pp=d, gamma_fg=g, gamma_he=g)
            single = integrate_hierarchy(cell, PULSE, -5.0, 8.0, dt=5e-3).pe_steady
            assert abs(tmap.pe_steady[i, j] - single) <= 1e-15
    again = optimize_transduction([0.0, 10.0], [5.0, 20.0, 80.0], PULSE, t_end=8.0, dt=5e-3)
    assert np.array_equal(tmap.pe_steady, again.pe_steady)


def test_optimize_transduction_rejects_empty_grid():
    with pytest.raises(ValueError):
        optimize_transduction([], [1.0], PULSE)
    with pytest.raises(ValueError, match="tail"):  # t_start passes the trace's precondition
        optimize_transduction([1.0], [1.0], PULSE, t_start=-3.0)
