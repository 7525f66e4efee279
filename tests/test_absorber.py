import numpy as np
import pytest

from spinamp import absorber
from spinamp.absorber import (
    AbsorberParams,
    PulseEnvelope,
    integrate_hierarchy,
    optimize_transduction,
)
from spinamp.stepping import IntegrationError

RIDGE = dict(delta_pp=10.0, gamma_fg=20.0, gamma_he=20.0, tau_f=1.0)
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
    c = np.sqrt(params.eta_scatter) * np.exp(1j * params.phase)
    out = -1j * (h @ rho - rho @ h)
    out += l1 @ rho @ l1d + l2 @ rho @ l2d
    out -= 0.5 * (esum @ rho + rho @ esum)
    out[1] += xi * c * (rho[0] @ l1d - l1d @ rho[0])
    out[:, 1] += xi * np.conj(c) * (l1 @ rho[:, 0] - rho[:, 0] @ l1)
    return out


def test_params_validation():
    with pytest.raises(ValueError):
        AbsorberParams(delta_pp=1.0, gamma_fg=0.0, gamma_he=1.0, tau_f=1.0)
    with pytest.raises(ValueError):
        AbsorberParams(delta_pp=1.0, gamma_fg=1.0, gamma_he=1.0, tau_f=-1.0)
    with pytest.raises(ValueError):
        AbsorberParams(delta_pp=1.0, gamma_fg=1.0, gamma_he=1.0, tau_f=1.0, eta_scatter=1.5)


def test_params_reject_non_finite():
    # a NaN rate used to run to the end and report pe_steady = nan
    with pytest.raises(ValueError, match="delta_pp"):
        AbsorberParams(delta_pp=float("nan"), gamma_fg=20.0, gamma_he=20.0, tau_f=1.0)
    with pytest.raises(ValueError, match="t_arrival"):
        AbsorberParams(**RIDGE, t_arrival=float("inf"))


def test_trace_guard_trips_on_nan(monkeypatch):
    monkeypatch.setattr(absorber, "rk4_step", lambda rho, t, dt, deriv: np.full_like(rho, np.nan))
    with pytest.raises(IntegrationError, match="trace"):
        integrate_hierarchy(AbsorberParams(**RIDGE), -5.0, -4.9, dt=1e-2)


def test_pulse_norm_on_grid():
    pulse = PulseEnvelope(tau_f=0.7, t_arrival=2.0)
    times = np.arange(2.0 - 5 * 0.7, 2.0 + 5 * 0.7, 0.7 / 1000)
    assert abs(pulse.norm_on_grid(times) - 1.0) < 1e-6


def test_preconditions():
    params = AbsorberParams(**RIDGE)
    with pytest.raises(ValueError, match="tail"):
        integrate_hierarchy(params, -3.0, 5.0)
    with pytest.raises(ValueError, match="dt"):
        integrate_hierarchy(params, -5.0, 5.0, dt=0.5)
    with pytest.raises(ValueError, match="t_end"):
        integrate_hierarchy(params, -5.0, -6.0)


def test_severed_arm_gives_zero_transduction():
    params = AbsorberParams(delta_pp=0.0, gamma_fg=10.0, gamma_he=10.0, tau_f=1.0)
    trace = integrate_hierarchy(params, -5.0, 4.0, dt=2e-3)
    assert np.abs(trace.pe).max() < 1e-12


def test_absorption_rises_and_saturates():
    params = AbsorberParams(delta_pp=5.0, gamma_fg=10.0, gamma_he=10.0, tau_f=1.0)
    trace = integrate_hierarchy(params, -5.0, 12.0)
    assert trace.pe_steady > 0.9
    # nondecreasing once the pulse has passed (no decay channel out of |e>)
    after = trace.times > params.t_arrival + 4.0 * params.tau_f
    assert np.all(np.diff(trace.pe[after]) > -1e-8)
    assert trace.pe_steady == pytest.approx(trace.pe.max())


def test_trace_conservation_and_block_structure():
    params = AbsorberParams(**RIDGE)
    rho = integrate_hierarchy(params, -5.0, 6.0).states
    assert rho.shape[1:] == (2, 2, 4, 4)
    assert np.abs(np.trace(rho[:, 1, 1], axis1=1, axis2=2).real - 1.0).max() < 1e-6
    assert np.abs(rho - rho.transpose(0, 2, 1, 4, 3).conj()).max() < 1e-10  # rho_mn = rho_nm^+
    assert np.linalg.eigvalsh(rho[:, 1, 1]).min() > -1e-8


@pytest.mark.parametrize("xi", [0.0, 0.37])
def test_generators_match_block_derivative(xi):
    params = AbsorberParams(**RIDGE, eta_scatter=0.6, phase=0.7)
    a, b = absorber._generators(params)
    rng = np.random.default_rng(5)
    y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    expected = _block_deriv(params, xi, y.reshape(2, 2, 4, 4)).ravel()
    assert np.abs(a @ y + xi * (b @ y) - expected).max() < 1e-13


def test_scattering_efficiency_scales_transduction():
    # rho_11 is second order in the photon amplitude: P_e scales with
    # |c|^2 = eta, and the phase of c cancels
    full = integrate_hierarchy(AbsorberParams(**RIDGE), -5.0, 4.0)
    lossy = integrate_hierarchy(AbsorberParams(**RIDGE, eta_scatter=0.6, phase=0.7), -5.0, 4.0)
    assert np.abs(lossy.pe - 0.6 * full.pe).max() < 1e-12


def test_vacuum_drive_keeps_blocks_equal():
    # arrival pushed far outside the window: xi == 0 on the whole grid
    params = AbsorberParams(delta_pp=5.0, gamma_fg=8.0, gamma_he=8.0, tau_f=1.0, t_arrival=1e6)
    trace = integrate_hierarchy(params, -5.0, 3.0, dt=2e-3)
    assert np.abs(trace.pe).max() == 0.0
    last = trace.states[-1]
    assert np.abs(last[1, 1] - last[0, 0]).max() < 1e-14
    assert np.abs(last[0, 1]).max() < 1e-14


def test_step_halving_convergence():
    params = AbsorberParams(**RIDGE)
    coarse = integrate_hierarchy(params, -5.0, 4.0, dt=1e-3)
    fine = integrate_hierarchy(params, -5.0, 4.0, dt=5e-4)
    assert abs(coarse.pe[-1] - fine.pe[-1]) < 1e-6


def test_trace_drift_error_names_dt():
    # absurd decay rate makes explicit RK4 unstable at this step
    params = AbsorberParams(delta_pp=5.0, gamma_fg=5e3, gamma_he=5e3, tau_f=1.0)
    with pytest.raises(IntegrationError, match="0.01"):
        integrate_hierarchy(params, -5.0, 2.0, dt=0.01)


def test_determinism():
    params = AbsorberParams(**RIDGE)
    a = integrate_hierarchy(params, -5.0, 3.0, dt=2e-3)
    b = integrate_hierarchy(params, -5.0, 3.0, dt=2e-3)
    assert np.array_equal(a.pe, b.pe)


def test_optimize_transduction_grid():
    pulse = PulseEnvelope(tau_f=1.0)
    tmap = optimize_transduction([0.0, 10.0], [5.0, 20.0, 80.0], pulse, t_end=8.0, dt=5e-3)
    assert tmap.pe_steady.shape == (2, 3)
    assert np.abs(tmap.pe_steady[0]).max() < 1e-12  # severed-arm row
    ridge_row = tmap.pe_steady[1]
    assert np.argmax(ridge_row) == 1  # gamma = 2 delta_pp wins
    again = optimize_transduction([0.0, 10.0], [5.0, 20.0, 80.0], pulse, t_end=8.0, dt=5e-3)
    assert np.array_equal(tmap.pe_steady, again.pe_steady)


def test_optimize_transduction_rejects_empty_grid():
    with pytest.raises(ValueError):
        optimize_transduction([], [1.0], PulseEnvelope(tau_f=1.0))
