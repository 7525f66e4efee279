import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import wofz

from spinamp import absorber
from spinamp.absorber import SAMPLE_EVERY, AbsorberParams, PulseEnvelope, integrate_hierarchy
from spinamp.stepping import IntegrationError, TimeGrid
from helpers import array_amplitudes, norm_on_grid

RIDGE = dict(delta_pp=10.0, gamma_fg=20.0, gamma_he=20.0)
PULSE = PulseEnvelope(tau_f=1.0)
_G, _F, _H, _E = 0, 1, 2, 3


def _block_deriv(params):
    """The hierarchy derivative (xi, rho) -> drho/dt block by block, as 4x4 matrix products.

    The generators are built once per cell.
    """
    h = np.zeros((4, 4))
    h[_F, _H] = h[_H, _F] = params.delta_pp
    l1 = np.zeros((4, 4))
    l1[_G, _F] = np.sqrt(params.gamma_fg)
    l2 = np.zeros((4, 4))
    l2[_E, _H] = np.sqrt(params.gamma_he)
    l1d, l2d = l1.T, l2.T
    esum = l1d @ l1 + l2d @ l2
    c = np.sqrt(params.eta)

    def deriv(xi, rho):
        out = -1j * (h @ rho - rho @ h)
        out += l1 @ rho @ l1d + l2 @ rho @ l2d
        out -= 0.5 * (esum @ rho + rho @ esum)
        out[1] += xi * c * (rho[0] @ l1d - l1d @ rho[0])
        out[:, 1] += xi * np.conj(c) * (l1 @ rho[:, 0] - rho[:, 0] @ l1)
        return out

    return deriv


def _hierarchy_rk4(params, pulse, t_start, t_end, dt):
    """The 64-number hierarchy rho[m, n] under classical RK4, on the trace's sample grid.

    drho/dt is linear in rho and in xi: its two 64 x 64 maps are read off
    _block_deriv once per cell, column by column, and the drive comes from
    one call on the half-step grid t_start + k dt / 2.
    """
    deriv = _block_deriv(params)
    units = np.eye(64).reshape(64, 2, 2, 4, 4)
    free = np.array([deriv(0.0, e).ravel() for e in units]).T
    drive = np.array([deriv(1.0, e).ravel() for e in units]).T - free
    y = np.zeros((2, 2, 4, 4), dtype=complex)
    y[0, 0, _G, _G] = y[1, 1, _G, _G] = 1.0
    y = y.ravel()
    n_steps = int(np.ceil((t_end - t_start) / dt - 1e-12))
    xi = pulse.amplitude(t_start + 0.5 * dt * np.arange(2 * n_steps + 1)).tolist()
    samples = [y]
    for i in range(n_steps):
        x0, xm, x1 = xi[2 * i : 2 * i + 3]
        k1 = free @ y + x0 * (drive @ y)
        y2 = y + (0.5 * dt) * k1
        k2 = free @ y2 + xm * (drive @ y2)
        y3 = y + (0.5 * dt) * k2
        k3 = free @ y3 + xm * (drive @ y3)
        y4 = y + dt * k3
        k4 = free @ y4 + x1 * (drive @ y4)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (i + 1) % SAMPLE_EVERY == 0 or i + 1 == n_steps:
            samples.append(y)
    return np.array(samples).reshape(-1, 2, 2, 4, 4)


def _closed_form_psi(cell, pulse, t_start, t):
    """psi(t) = int_{t_start}^t e^{M (t - s)} b xi(s) ds, b = -c sqrt(gamma_fg) e_f, in M's eigenbasis.

    With u = s - t_arrival and sigma = tau_f, each eigenvalue lam contributes
    I(t) = int e^{lam (t - s)} xi(s) ds, which is (2 pi sigma^2)^(-1/4) sigma sqrt(pi)
    [e^{-u1^2 / 4 sigma^2} erfcx(z1) - e^{lam (t - t_start) - u0^2 / 4 sigma^2} erfcx(z0)]
    with z = -(u + 2 sigma^2 lam) / (2 sigma) and erfcx(z) = wofz(i z).
    """
    d, gf, gh = cell["delta_pp"], cell["gamma_fg"], cell["gamma_he"]
    lam, vec = np.linalg.eig(np.array([[-gf / 2, -1j * d], [-1j * d, -gh / 2]]))
    c = np.sqrt(cell.get("eta", 1.0))
    coef = np.linalg.solve(vec, [-c * np.sqrt(gf), 0.0])
    sigma = pulse.tau_f
    u0, u1 = t_start - pulse.t_arrival, np.asarray(t, dtype=float)[..., None] - pulse.t_arrival
    z0, z1 = -(u0 + 2 * sigma**2 * lam) / (2 * sigma), -(u1 + 2 * sigma**2 * lam) / (2 * sigma)
    decay = np.exp(lam * (u1 - u0) - u0**2 / (4 * sigma**2))
    integral = (2 * np.pi * sigma**2) ** -0.25 * sigma * np.sqrt(np.pi) * (
        np.exp(-(u1**2) / (4 * sigma**2)) * wofz(1j * z1) - decay * wofz(1j * z0)
    )
    return (integral * coef) @ vec.T


def _closed_form_pe(cell, pulse, t_start, times):
    """P_e = gamma_he int |psi_h|^2 by adaptive quadrature between consecutive times."""
    dens = lambda s: abs(_closed_form_psi(cell, pulse, t_start, s)[1]) ** 2  # noqa: E731
    edges = np.concatenate([[t_start], times])
    parts = [quad(dens, a, b, epsabs=1e-14, epsrel=1e-12)[0] for a, b in zip(edges[:-1], edges[1:])]
    return cell["gamma_he"] * np.cumsum(parts)


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
        y = tuple(np.array(c) for c in step(y, t, dt, deriv))
        for c in y:
            c.reshape(-1)[-1] = np.nan
        return y

    monkeypatch.setattr(absorber, "rk4_step", nan_in_last_cell)
    with pytest.raises(IntegrationError, match=r"P_e = nan, p_g = nan .* t = -4\.9000 with dt = 0\.01"):
        integrate_hierarchy(AbsorberParams(**RIDGE), PULSE, TimeGrid(1e-2, -5.0, -4.9))
    d, g = np.meshgrid([0.0, 10.0], [5.0, 20.0], indexing="ij")
    with pytest.raises(IntegrationError, match=r"P_e = nan.* = \(10\.0, 20\.0, 20\.0\), t = -4\.9000"):
        integrate_hierarchy(AbsorberParams(d, g, g), PULSE, TimeGrid(1e-2, -5.0, -4.9))


@pytest.mark.parametrize("grid", [False, True], ids=["cell", "grid"])
def test_step_matches_array_rk4_bit_for_bit(grid):
    """The three-number rk4_step, on Python numbers for one cell and on arrays
    for a 2 x 3 grid, against stepping.rk4_step on y as one complex array
    (helpers.array_amplitudes): every stored sample to the last bit."""
    if grid:
        d, g = np.meshgrid([0.0, 10.0], [5.0, 20.0, 40.0], indexing="ij")
        params = AbsorberParams(d, g, 20.0, eta=0.6)
    else:
        params = AbsorberParams(**RIDGE, eta=0.6)
    trace = integrate_hierarchy(params, PULSE, TimeGrid(1e-3, -5.0, 3.0))
    samples = array_amplitudes(params, PULSE, TimeGrid(1e-3, -5.0, 3.0))
    assert np.array_equal(trace.states, samples[:, :2])
    assert np.array_equal(trace.pe, samples[:, 2].real)
    assert np.all(samples[:, 2].imag == 0.0)


def test_pulse_norm_on_grid():
    pulse = PulseEnvelope(tau_f=0.7, t_arrival=2.0)
    times = np.arange(2.0 - 5 * 0.7, 2.0 + 5 * 0.7, 0.7 / 1000)
    assert abs(norm_on_grid(pulse, times) - 1.0) < 1e-6


def test_preconditions():
    params = AbsorberParams(**RIDGE)
    with pytest.raises(ValueError, match="tail"):
        integrate_hierarchy(params, PULSE, TimeGrid(1e-3, -3.0, 5.0))
    with pytest.raises(ValueError, match="dt"):
        integrate_hierarchy(params, PULSE, TimeGrid(0.5, -5.0, 5.0))
    with pytest.raises(ValueError, match="t_end"):
        integrate_hierarchy(params, PULSE, TimeGrid(1e-3, -5.0, -6.0))


def test_severed_arm_gives_zero_transduction():
    params = AbsorberParams(delta_pp=0.0, gamma_fg=10.0, gamma_he=10.0)
    trace = integrate_hierarchy(params, PULSE, TimeGrid(2e-3, -5.0, 4.0))
    assert np.abs(trace.pe).max() < 1e-12


def test_absorption_rises_and_saturates():
    params = AbsorberParams(delta_pp=5.0, gamma_fg=10.0, gamma_he=10.0)
    trace = integrate_hierarchy(params, PULSE, TimeGrid(1e-3, -5.0, 12.0))
    assert trace.pe_steady > 0.9
    # nondecreasing once the pulse has passed (no decay channel out of |e>)
    after = trace.times > PULSE.t_arrival + 4.0 * PULSE.tau_f
    assert np.all(np.diff(trace.pe[after]) > -1e-8)
    assert trace.pe_steady == pytest.approx(trace.pe.max())


def test_trace_conservation_and_block_structure():
    trace = integrate_hierarchy(AbsorberParams(**RIDGE), PULSE, TimeGrid(1e-3, -5.0, 6.0))
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
        dict(delta_pp=7.0, gamma_fg=12.0, gamma_he=30.0, eta=0.6),
    ],
)
def test_amplitudes_match_fock_hierarchy(cell):
    # the atom starts in |g>, so the hierarchy closes on (psi, P_e): the two
    # RK4 discretizations agree to rounding at dt = tau_f / 1000
    params = AbsorberParams(**cell)
    trace = integrate_hierarchy(params, PULSE, TimeGrid(1e-3, -5.0, 4.0))
    rho = _hierarchy_rk4(params, PULSE, -5.0, 4.0, 1e-3)
    assert np.abs(trace.pe - rho[:, 1, 1, _E, _E].real).max() < 5e-14
    rho11, rho10 = reconstructed_blocks(trace)
    assert np.abs(rho11 - rho[:, 1, 1]).max() < 2e-13
    assert np.abs(rho10 - rho[:, 1, 0]).max() < 2e-13
    assert np.all(rho[:, 0, 0] == rho[0, 0, 0])  # rho_00 stays |g><g|


def test_scattering_efficiency_scales_transduction():
    # rho_11 is second order in the photon amplitude: P_e scales with |c|^2 = eta
    full = integrate_hierarchy(AbsorberParams(**RIDGE), PULSE, TimeGrid(1e-3, -5.0, 4.0))
    lossy = integrate_hierarchy(AbsorberParams(**RIDGE, eta=0.6), PULSE, TimeGrid(1e-3, -5.0, 4.0))
    assert np.abs(lossy.pe - 0.6 * full.pe).max() < 1e-12


def test_vacuum_drive_keeps_blocks_equal():
    # arrival pushed far outside the window: xi == 0 on the whole grid
    params = AbsorberParams(delta_pp=5.0, gamma_fg=8.0, gamma_he=8.0)
    trace = integrate_hierarchy(params, PulseEnvelope(tau_f=1.0, t_arrival=1e6), TimeGrid(2e-3, -5.0, 3.0))
    assert np.abs(trace.pe).max() == 0.0
    # psi = 0 keeps rho_11 = rho_00 = |g><g| and rho_01 = 0
    assert np.abs(trace.states).max() < 1e-14


def test_step_halving_convergence():
    params = AbsorberParams(**RIDGE)
    coarse = integrate_hierarchy(params, PULSE, TimeGrid(1e-3, -5.0, 4.0))
    fine = integrate_hierarchy(params, PULSE, TimeGrid(5e-4, -5.0, 4.0))
    assert abs(coarse.pe[-1] - fine.pe[-1]) < 1e-6


def test_trace_drift_error_names_dt():
    # absurd decay rate makes explicit RK4 unstable at this step
    params = AbsorberParams(delta_pp=5.0, gamma_fg=5e3, gamma_he=5e3)
    with pytest.raises(IntegrationError, match="0.01"):
        integrate_hierarchy(params, PULSE, TimeGrid(0.01, -5.0, 2.0))


def test_determinism():
    params = AbsorberParams(**RIDGE)
    a = integrate_hierarchy(params, PULSE, TimeGrid(2e-3, -5.0, 3.0))
    b = integrate_hierarchy(params, PULSE, TimeGrid(2e-3, -5.0, 3.0))
    assert np.array_equal(a.pe, b.pe)


def test_grid_steps_each_cell_as_one_trace():
    d, g = np.meshgrid([0.0, 10.0], [5.0, 20.0, 80.0], indexing="ij")
    grid = integrate_hierarchy(AbsorberParams(d, g, g), PULSE, TimeGrid(5e-3, -5.0, 8.0))
    n = grid.times.size
    assert (grid.pe.shape, grid.states.shape, grid.pe_steady.shape) == ((n, 2, 3), (n, 2, 2, 3), (2, 3))
    assert np.abs(grid.pe_steady[0]).max() < 1e-12  # severed-arm row
    assert np.argmax(grid.pe_steady[1]) == 1  # gamma = 2 delta_pp wins
    for i, j in np.ndindex(d.shape):
        cell = AbsorberParams(delta_pp=d[i, j], gamma_fg=g[i, j], gamma_he=g[i, j])
        single = integrate_hierarchy(cell, PULSE, TimeGrid(5e-3, -5.0, 8.0))
        assert isinstance(single.pe_steady, float)
        assert abs(grid.pe_steady[i, j] - single.pe_steady) <= 1e-15
        assert np.abs(grid.states[..., i, j] - single.states).max() <= 1e-15
    again = integrate_hierarchy(AbsorberParams(d, g, g), PULSE, TimeGrid(5e-3, -5.0, 8.0))
    assert np.array_equal(grid.pe_steady, again.pe_steady)


def test_params_check_every_cell():
    nan = float("nan")
    for kwargs, message in (
        (dict(delta_pp=[1.0, nan], gamma_fg=1.0, gamma_he=1.0), "delta_pp must be finite, got nan"),
        (dict(delta_pp=1.0, gamma_fg=[[1.0, -2.0], [0.0, 3.0]], gamma_he=1.0), "gamma_fg must be positive, got -2.0"),
        (dict(delta_pp=1.0, gamma_fg=1.0, gamma_he=1.0, eta=[1.0, 0.5, 0.0]), r"eta must lie in \(0, 1\], got 0.0"),
    ):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            AbsorberParams(**{k: np.asarray(v) for k, v in kwargs.items()})
    with pytest.raises(ValueError, match=r"^tau_f must be positive, got -1.0$"):
        PulseEnvelope(tau_f=np.array([1.0, -1.0]))


# RK4's error against the closed form is ~1e-13 here at dt = 1e-3 (it falls as
# dt^4); the bound leaves two decades for rounding in the reference
CLOSED_FORM_TOL = 1e-11
CLOSED_FORM_CELLS = [
    dict(delta_pp=10.0, gamma_fg=20.0, gamma_he=20.0),
    dict(delta_pp=7.0, gamma_fg=12.0, gamma_he=30.0, eta=0.6),
]


@pytest.mark.parametrize("cell", CLOSED_FORM_CELLS)
def test_amplitudes_match_closed_form(cell):
    pulse = PulseEnvelope(tau_f=1.0, t_arrival=0.5)
    trace = integrate_hierarchy(AbsorberParams(**cell), pulse, TimeGrid(1e-3, -5.0, 4.0))
    assert np.abs(trace.states - _closed_form_psi(cell, pulse, -5.0, trace.times)).max() < CLOSED_FORM_TOL
    every = slice(None, None, 50)
    pe = _closed_form_pe(cell, pulse, -5.0, trace.times[every])
    assert pe[-1] > 0.5
    assert np.abs(trace.pe[every] - pe).max() < CLOSED_FORM_TOL


def test_grid_matches_closed_form():
    # gamma_he = 1.5 gamma_fg keeps every cell off M's exceptional point
    d, g = np.meshgrid([0.0, 7.0, 10.0], [5.0, 20.0], indexing="ij")
    params = AbsorberParams(d, g, 1.5 * g, eta=0.6)
    trace = integrate_hierarchy(params, PULSE, TimeGrid(1e-3, -5.0, 3.0))
    every = slice(None, None, 50)
    for i, j in np.ndindex(d.shape):
        cell = dict(delta_pp=d[i, j], gamma_fg=g[i, j], gamma_he=1.5 * g[i, j], eta=0.6)
        psi = _closed_form_psi(cell, PULSE, -5.0, trace.times)
        assert np.abs(trace.states[..., i, j] - psi).max() < CLOSED_FORM_TOL
        pe = _closed_form_pe(cell, PULSE, -5.0, trace.times[every])
        assert np.abs(trace.pe[every, i, j] - pe).max() < CLOSED_FORM_TOL
        assert trace.pe_steady[i, j] == trace.pe[:, i, j].max()
