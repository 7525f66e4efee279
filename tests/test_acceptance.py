"""Acceptance suite: every figure-level claim at its stated tolerance.

Each test prints one ``ACCEPTANCE Cn`` line (run with ``pytest -s -v`` to see
them all). Two gates (C4, C7a) encode reference values that this
implementation measurably contradicts; they are asserted exactly as stated
and fail with the measured numbers in the message. Their docstrings give
the measured cause; the solver checks they depend on (C10, C11) pass.
"""

import time

import numpy as np
import pytest

from spinamp.absorber import AbsorberParams, PulseEnvelope, integrate_hierarchy
from spinamp.amplifier_dynamics import (
    DriveSchedule,
    evolve,
    q_function,
    quantum_gain,
    sample_plan,
)
from spinamp.criticality import field_sweep, fit_power_law, size_sweep
from spinamp.harness.experiments import CHI_FIT_WINDOW, CXXYY_FIT_WINDOW, GAP_FIT_WINDOW
from spinamp.harness.oracle import brute_force_statics
from spinamp.lmg_statics import (
    LmgParams,
    correlations,
    order_parameters,
    solve_ground,
)
from spinamp.stepping import TimeGrid
from helpers import azimuthal_plane_mass, q_norm_integral, solvable_line_energies
from test_absorber import reconstructed_blocks

_T0 = {}


def _report(tag: str, ok: bool, detail: str, limit_s: float | None = None) -> bool:
    elapsed = time.perf_counter() - _T0.get(tag.split()[0], time.perf_counter())
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail}) [{elapsed:.1f} s]"
    print(line)
    if limit_s is not None and elapsed >= limit_s:
        print(f"ACCEPTANCE {tag}: runtime {elapsed:.1f} s exceeded the {limit_s:.0f} s budget")
        return False
    return ok


def _clock(tag: str):
    _T0[tag] = time.perf_counter()


def _nu_fit(n: int, j: float, window) -> float:
    bxs = np.geomspace(window[0], window[1], 17)
    vals = []
    for bx in bxs:
        res = solve_ground(LmgParams(n_qubits=n, jx=j, jy=j, bx=float(bx)))
        vals.append(abs(correlations(res).c_xxyy))
    return -fit_power_law(list(zip(bxs, vals)), window).exponent


@pytest.fixture(scope="module")
def transition_sweep():
    params = LmgParams(n_qubits=1000, jx=0.7, jy=0.7)
    return field_sweep(params, np.geomspace(1e-6, 1e-2, 33))


@pytest.fixture(scope="module")
def absorber_drive():
    params = AbsorberParams(delta_pp=10.0, gamma_fg=20.0, gamma_he=20.0)
    trace = integrate_hierarchy(params, PulseEnvelope(tau_f=1.0), TimeGrid(1e-3, -5.0, 20.0))
    return DriveSchedule(trace.times, trace.pe)


@pytest.fixture(scope="module")
def critical_trajectory(absorber_drive):
    params = LmgParams(n_qubits=400, jx=0.675, jy=0.7, bx=0.01)
    _, every_sample, _ = sample_plan(TimeGrid(1e-3, -5.0, 20.0, 25))  # C9 and C11 read the states
    return evolve(params, absorber_drive, TimeGrid(1e-3, -5.0, 20.0, 25), snapshots=every_sample)


@pytest.fixture(scope="module")
def noncritical_trajectory(absorber_drive):
    params = LmgParams(n_qubits=400, jx=0.5, jy=0.7, bx=0.01)
    return evolve(params, absorber_drive, TimeGrid(1e-3, -5.0, 20.0, 25))


def test_c01_susceptibility_exponent(transition_sweep):
    """Reference gate: chi ~ |B_x|^-1.525 over B_x in [1e-6, 1e-4] at N=1000.

    chi is the response of the field-induced magnetization,
    -(1/N) d<S_x>/dB_x; measured gamma ~ 1.553, r2 ~ 0.9995. The field
    derivative of sqrt(zeta_x) cannot pass at any window: its local slope
    at N=1000 never goes past -1.43 on [1e-6, 1e-2].
    """
    _clock("C1")
    fit = fit_power_law([(p.bx, p.chi) for p in transition_sweep], CHI_FIT_WINDOW)
    gamma = -fit.exponent
    ok = abs(gamma - 1.525) <= 0.05 and fit.r_squared >= 0.99
    assert _report(
        "C1 (susceptibility exponent)",
        ok,
        f"gamma={gamma:.4f} vs 1.525 +/- 0.05, r2={fit.r_squared:.4f} vs >= 0.99, "
        f"window={CHI_FIT_WINDOW}",
        limit_s=120.0,
    )


def test_c02a_correlator_exponent(transition_sweep):
    _clock("C2a")
    fit = fit_power_law([(p.bx, abs(p.c_xxyy)) for p in transition_sweep], CXXYY_FIT_WINDOW)
    nu = -fit.exponent
    ok = abs(nu - 0.919) <= 0.05
    assert _report(
        "C2a (correlator exponent)",
        ok,
        f"nu_tilde={nu:.4f} vs 0.919 +/- 0.05, r2={fit.r_squared:.5f}, window={CXXYY_FIT_WINDOW}",
        limit_s=300.0,
    )


def test_c02b_exponent_universal_in_coupling(transition_sweep):
    """The exponent must not move along the transition line (J > eps/2).

    J = 0.6 stands in for the line endpoint J = eps/2, which is not a
    first-order point (no divergence there).
    """
    _clock("C2b")
    fit7 = fit_power_law([(p.bx, abs(p.c_xxyy)) for p in transition_sweep], CXXYY_FIT_WINDOW)
    exps = {0.7: -fit7.exponent}
    for j in (0.6, 0.9):
        exps[j] = _nu_fit(1000, j, CXXYY_FIT_WINDOW)
    spread = max(exps.values()) - min(exps.values())
    ok = spread < 0.05
    assert _report(
        "C2b (coupling universality)",
        ok,
        "nu_tilde " + ", ".join(f"J={j}: {v:.4f}" for j, v in sorted(exps.items()))
        + f"; spread={spread:.4f} vs < 0.05",
        limit_s=300.0,
    )


def test_c02c_exponent_universal_in_size(transition_sweep):
    """N-universality with the window scaled by the crossover field ~ 1/N^2."""
    _clock("C2c")
    fit1000 = fit_power_law([(p.bx, abs(p.c_xxyy)) for p in transition_sweep], CXXYY_FIT_WINDOW)
    scale = (1000.0 / 500.0) ** 2
    nu500 = _nu_fit(500, 0.7, (CXXYY_FIT_WINDOW[0] * scale, CXXYY_FIT_WINDOW[1] * scale))
    nu1000 = -fit1000.exponent
    shift = abs(nu500 - nu1000)
    ok = shift < 0.05
    assert _report(
        "C2c (size universality)",
        ok,
        f"nu_tilde N=500: {nu500:.4f}, N=1000: {nu1000:.4f}; shift={shift:.4f} vs < 0.05",
        limit_s=300.0,
    )


def test_c03_gap_exponent(transition_sweep):
    _clock("C3")
    fit = fit_power_law([(p.bx, p.gap) for p in transition_sweep], GAP_FIT_WINDOW)
    worst = 0.0
    for n in (200, 600, 1000, 1500, 2000):
        params = LmgParams(n_qubits=n, jx=0.7, jy=0.7)
        energies = np.sort(solvable_line_energies(params))
        worst = max(worst, abs(solve_ground(params).gap - (energies[1] - energies[0])))
    ok = abs(fit.exponent - 0.50) <= 0.02 and worst <= 1e-10
    assert _report(
        "C3 (gap exponent)",
        ok,
        f"exponent={fit.exponent:.4f} vs 0.50 +/- 0.02, window={GAP_FIT_WINDOW}; "
        f"analytic-gap mismatch at B_x=0: {worst:.2e} vs <= 1e-10",
        limit_s=60.0,
    )


def test_c04_chi_scales_linearly_with_n():
    """Reference gate: one-sided chi at B_x=1e-5 linear in N with r2 >= 0.99.

    Fails. The per-qubit magnetization is at most 1/2, so the one-sided chi
    at the fixed probe is bounded by 1/(2 B_x) = 5e4 for every N; chi
    saturates once N exceeds ~sqrt(2/B_x) ~ 450, since the finite-size
    crossover field is ~2/N^2. Measured over N in {200..2000}: chi runs
    from 16152 to 32260 (r2 ~ 0.79) towards M_x/B_x at the mean-field
    M_x ~ 0.35. The total (N * chi) response is linear (r2 ~ 0.9993), but
    the per-qubit normalisation is the one the statics use throughout.
    """
    _clock("C4")
    rows = size_sweep(LmgParams(n_qubits=200, jx=0.7, jy=0.7), 1e-5, np.arange(200, 2001, 200))
    ns = np.array([r.n for r in rows], dtype=float)
    chis = np.array([r.chi for r in rows])
    design = np.vstack([ns, np.ones_like(ns)]).T
    coef, *_ = np.linalg.lstsq(design, chis, rcond=None)
    pred = design @ coef
    r2 = 1.0 - np.sum((chis - pred) ** 2) / np.sum((chis - chis.mean()) ** 2)
    ok = r2 >= 0.99 and coef[0] > 0.0
    assert _report(
        "C4 (chi-N linearity)",
        ok,
        f"slope={coef[0]:.3f} (>0 required), r2={r2:.4f} vs >= 0.99, N=200..2000 step 200",
        limit_s=300.0,
    )


def test_c05_gap_inverse_n_at_transition():
    """Soft check: gap(B_x=0) ~ 1/N on the transition line.

    Uses N multiples of 100 over [200, 2000]; the integer-commensuration
    oscillation of the level spacing needs the denser sampling for a fair
    slope (step-200 alone biases it to ~-0.78).
    """
    _clock("C5")
    ns = np.arange(200, 2001, 100)
    gaps = [solve_ground(LmgParams(n_qubits=int(n), jx=0.7, jy=0.7)).gap for n in ns]
    fit = fit_power_law(list(zip(ns, gaps)), (100.0, 3000.0))
    ok = abs(fit.exponent + 1.0) <= 0.2
    assert _report(
        "C5 (gap-N scaling)",
        ok,
        f"log-log slope={fit.exponent:.3f} vs -1.0 +/- 0.2 (r2={fit.r_squared:.3f})",
        limit_s=60.0,
    )


def test_c06_transduction_ridge():
    _clock("C6")
    steady = {}
    for gamma in (20.0, 80.0, 5.0):
        params = AbsorberParams(delta_pp=10.0, gamma_fg=gamma, gamma_he=gamma)
        pulse = PulseEnvelope(tau_f=1.0)
        steady[gamma] = integrate_hierarchy(params, pulse, TimeGrid(1e-3, -5.0, 12.0)).pe_steady
    ok = (
        steady[20.0] >= 0.95
        and steady[20.0] > steady[80.0]
        and steady[20.0] > steady[5.0]
    )
    assert _report(
        "C6 (transduction ridge)",
        ok,
        f"pe_steady at Gamma=2d''={steady[20.0]:.5f} (>= 0.95), "
        f"Gamma=8d''={steady[80.0]:.5f}, Gamma=d''/2={steady[5.0]:.5f}",
        limit_s=60.0,
    )


def test_c07a_gain_contrast(critical_trajectory, noncritical_trajectory):
    """Reference gate: critical/non-critical max-gain ratio >= 100 at N=400.

    Fails with a ratio of ~12.9 (g_max ~47.6 against ~3.70). At jx=0.5 the
    drive tilts the y-ordered magnet coherently, by n_x ~ B_x/(J_y - J_x)
    = 0.05 plus overshoot (max <S_x>^2/N^2 ~ 2.2e-3 at N = 100, 200, 400),
    so both gains grow roughly as N: G-1 is 0.69, 1.36, 2.70 non-critical
    and 9.6, 21.7, 46.6 critical, a ratio of 6.3, 9.6, 12.9. Var S_x stays
    within 1.05x of its t0 value in both runs, so a spin-noise gain would
    not raise the contrast either. The ratio keeps rising with N (15.4 at
    N = 800, 17.0 at 1600), but a classical mean-field spin under the same
    drive, started from both branches of the zero-field parity doublet and
    averaged, gives (G-1)/N -> 6.676e-3 non-critical and 0.12738 critical,
    so the ratio tends to about 19.1 as N -> infinity and no N reaches 100.
    """
    _clock("C7a")
    g_crit = quantum_gain(critical_trajectory).g_max
    g_flat = quantum_gain(noncritical_trajectory).g_max
    ratio = g_crit / g_flat
    ok = ratio >= 100.0
    assert _report(
        "C7a (gain contrast)",
        ok,
        f"g_max(0.675)={g_crit:.2f}, g_max(0.5)={g_flat:.2f}, ratio={ratio:.1f} vs >= 100",
        limit_s=120.0,
    )


def test_c07b_amplification_time(critical_trajectory):
    _clock("C7b")
    t_am = quantum_gain(critical_trajectory, t_arrival=0.0).t_am
    ok = abs(t_am - 15.0) <= 3.0
    assert _report(
        "C7b (amplification time)", ok, f"eps*T_Am={t_am:.2f} vs 15 +/- 3", limit_s=120.0
    )


def test_c08_gain_scaling_with_n(absorber_drive, critical_trajectory):
    _clock("C8")
    results = {400: quantum_gain(critical_trajectory)}
    for n in (100, 200):
        params = LmgParams(n_qubits=n, jx=0.675, jy=0.7, bx=0.01)
        traj = evolve(params, absorber_drive, TimeGrid(1e-3, -5.0, 20.0, 25))
        results[n] = quantum_gain(traj)
    ns = np.array(sorted(results), dtype=float)
    gm = np.array([results[int(n)].g_max for n in ns])
    ta = np.array([results[int(n)].t_am for n in ns])
    design = np.vstack([ns, np.ones_like(ns)]).T
    coef, *_ = np.linalg.lstsq(design, gm, rcond=None)
    pred = design @ coef
    r2 = 1.0 - np.sum((gm - pred) ** 2) / np.sum((gm - gm.mean()) ** 2)
    ta_spread = (ta.max() - ta.min()) / ta.mean()
    ok = r2 >= 0.95 and ta_spread < 0.20
    assert _report(
        "C8 (gain-N scaling)",
        ok,
        f"g_max={[round(float(g), 2) for g in gm]} linear r2={r2:.4f} vs >= 0.95; "
        f"t_am spread={100 * ta_spread:.1f}% vs < 20%",
        limit_s=300.0,
    )


def test_c09_q_function_rotation(critical_trajectory):
    _clock("C9")
    # the fixture keeps every sample's state, so states[k] is the one at times[k]
    _, _, (k_before, k_after) = sample_plan(TimeGrid(1e-3, -5.0, 20.0, 25), (-5.0, 18.0))
    before = q_function(critical_trajectory.states[k_before])
    after = q_function(critical_trajectory.states[k_after])
    yz_before = azimuthal_plane_mass(before, "yz")
    xz_after = azimuthal_plane_mass(after, "xz")
    norm_ok = abs(q_norm_integral(before) - 1.0) < 1e-3 and abs(q_norm_integral(after) - 1.0) < 1e-3
    ok = yz_before >= 0.80 and xz_after >= 0.80 and norm_ok
    assert _report(
        "C9 (Q-function rotation)",
        ok,
        f"yz mass(t=-5)={yz_before:.4f}, xz mass(t=18)={xz_after:.4f} vs >= 0.80 each; "
        f"norms ok={norm_ok}",
        limit_s=120.0,
    )


def test_c10_oracle_equivalence():
    _clock("C10")
    worst = 0.0
    for n in (2, 4, 6, 8, 10):
        params = LmgParams(n_qubits=n, jx=0.675, jy=0.7)
        res = solve_ground(params)
        ops = order_parameters(res)
        corr = correlations(res)
        oracle = brute_force_statics(n, 0.675, 0.7, 0.0)
        worst = max(
            worst,
            abs(res.e0 - oracle.e0),
            abs(res.gap - oracle.gap),
            abs(ops.zeta_x - oracle.zeta_x),
            abs(ops.zeta_y - oracle.zeta_y),
            abs(oracle.c_xy),  # the collective C_xy is 0: its ground state is real
            abs(corr.c_xxyy - oracle.c_xxyy),
        )
    ok = worst <= 1e-8
    assert _report(
        "C10 (oracle equivalence)", ok, f"max |diff| over N=2..10: {worst:.2e} vs <= 1e-8",
        limit_s=30.0,
    )


def test_c11_property_suite(transition_sweep, critical_trajectory):
    _clock("C11")
    checks = {}

    # unitarity: sampled states stay normalized after the drift-checked run
    norms = np.linalg.norm(critical_trajectory.states, axis=1)
    checks["unitarity"] = np.abs(norms - 1.0).max() < 1e-6

    # step-halving convergence of both integrators
    params = LmgParams(n_qubits=100, jx=0.675, jy=0.7, bx=0.01)
    ramp = DriveSchedule(times=np.array([-1.0, 0.0, 1.0]), pe=np.array([0.0, 0.5, 1.0]))
    a = evolve(params, ramp, TimeGrid(1e-3, -1.0, 2.0, 100))
    b = evolve(params, ramp, TimeGrid(5e-4, -1.0, 2.0, 200))
    checks["dynamics step-halving"] = abs(a.sx2[-1] - b.sx2[-1]) / a.sx2[-1] < 1e-6
    ap = AbsorberParams(delta_pp=10.0, gamma_fg=20.0, gamma_he=20.0)
    pulse = PulseEnvelope(tau_f=1.0)
    ta = integrate_hierarchy(ap, pulse, TimeGrid(1e-3, -5.0, 4.0))
    tb = integrate_hierarchy(ap, pulse, TimeGrid(5e-4, -5.0, 4.0))
    checks["absorber step-halving"] = abs(ta.pe[-1] - tb.pe[-1]) < 1e-6

    # trace conservation and block structure of the physical block rho_11 at
    # dt = tau_f/1000, rebuilt from the amplitudes (the trace holds by
    # construction; test_absorber checks the amplitudes against the hierarchy)
    rho, _ = reconstructed_blocks(ta)
    checks["trace conservation"] = (
        np.abs(np.trace(rho, axis1=1, axis2=2).real - 1.0).max() < 1e-6
    )
    checks["hermiticity/PSD"] = (
        np.abs(rho - rho.transpose(0, 2, 1).conj()).max() < 1e-10
        and np.linalg.eigvalsh(rho).min() > -1e-8
    )

    # statics symmetries
    up = order_parameters(solve_ground(LmgParams(n_qubits=400, jx=0.7, jy=0.7, bx=3e-5)))
    dn = order_parameters(solve_ground(LmgParams(n_qubits=400, jx=0.7, jy=0.7, bx=-3e-5)))
    checks["field-sign symmetry"] = abs(up.zeta_x - dn.zeta_x) < 1e-12
    oa = order_parameters(solve_ground(LmgParams(n_qubits=200, jx=0.62, jy=0.7)))
    ob = order_parameters(solve_ground(LmgParams(n_qubits=200, jx=0.7, jy=0.62)))
    checks["x-y swap symmetry"] = (
        abs(oa.zeta_x - ob.zeta_y) < 1e-12 and abs(oa.zeta_y - ob.zeta_x) < 1e-12
    )

    # C_xy = 0 exactly (a real ground vector has <S_y> = Re<S_x S_y> = 0) and
    # eta monotone away from the transition
    checks["C_xy zero (real ground state)"] = all(
        not np.any(solve_ground(LmgParams(n_qubits=400, jx=0.7, jy=0.7, bx=bx)).ground.imag)
        for bx in (1e-6, 1e-4, 1e-2)
    )
    eta = np.array([p.eta for p in transition_sweep])
    checks["eta monotone"] = bool(np.all(np.diff(eta) < 0.0))

    failed = [k for k, v in checks.items() if not v]
    assert _report(
        "C11 (property suite)",
        not failed,
        "all invariants hold" if not failed else f"failed: {failed}",
        limit_s=120.0,
    )
