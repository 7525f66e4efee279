import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spinamp.criticality import (
    InsufficientDataError,
    field_sweep,
    fit_power_law,
    size_sweep,
    susceptibility_at,
)
from spinamp import lmg_statics
from spinamp.harness.oracle import brute_force_hamiltonian, brute_force_statics, collective_operators
from spinamp.lmg_statics import LmgParams, solve_ground


def test_fit_power_law_exact_quadratic():
    xs = np.linspace(0.5, 3.0, 10)
    fit = fit_power_law(list(zip(xs, 4.0 * xs**2)), (0.1, 10.0))
    assert abs(fit.exponent - 2.0) < 1e-12
    assert abs(fit.log_amplitude - np.log(4.0)) < 1e-12
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.n_points == 10


@settings(max_examples=30, deadline=None)
@given(
    slope=st.floats(min_value=-3.0, max_value=3.0),
    log_amp=st.floats(min_value=-3.0, max_value=3.0),
)
def test_fit_power_law_recovers_synthetic(slope, log_amp):
    xs = np.geomspace(1e-3, 1e2, 12)
    ys = np.exp(log_amp) * xs**slope
    fit = fit_power_law(list(zip(xs, ys)), (1e-4, 1e3))
    assert abs(fit.exponent - slope) < 1e-9
    assert abs(fit.log_amplitude - log_amp) < 1e-9


def test_fit_power_law_window_filters_points():
    xs = np.geomspace(1e-4, 1.0, 20)
    fit = fit_power_law(list(zip(xs, xs**-1.5)), (1e-3, 1e-1))
    assert fit.n_points == sum(1 for x in xs if 1e-3 <= x <= 1e-1)
    assert (fit.window_lo, fit.window_hi) == (1e-3, 1e-1)


def test_fit_power_law_errors():
    with pytest.raises(InsufficientDataError):
        fit_power_law([(1.0, 1.0), (2.0, 4.0)], (0.5, 3.0))
    # the rule counts fields, not rows: geomspace from lo to lo gives two
    # equal fields and one an ulp from them
    xs = np.geomspace(5e-5, 5e-5, 3)
    with pytest.raises(InsufficientDataError, match="found 3 at 2 distinct x"):
        fit_power_law(list(zip(xs, [1.0, 2.0, 3.0])), (1e-6, 1e-4))
    with pytest.raises(ValueError, match="nonpositive"):
        fit_power_law([(1.0, 1.0), (2.0, -4.0), (3.0, 9.0)], (0.5, 4.0))
    with pytest.raises(ValueError, match="lo < hi"):
        fit_power_law([(1.0, 1.0)], (2.0, 1.0))


def test_fit_power_law_refuses_fields_only_ulps_apart():
    # three distinct fields two ulps apart in all: their logs differ by less
    # than an ulp of |log x|, and exact y = 1e-3 / x used to fit exponent -0.299, r^2 -2.0
    xs = np.geomspace(5e-5, 5.0000000000000016e-5, 3)
    assert len(set(xs)) == 3
    with pytest.raises(InsufficientDataError, match="found 3 at 3 distinct x, 1 apart in log x"):
        fit_power_law(list(zip(xs, 1e-3 / xs)), (1e-6, 1e-4))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_fit_power_law_rejects_non_finite_y(bad):
    # a NaN used to pass the positivity filter and fit a NaN exponent; inf warned in log
    with pytest.raises(ValueError, match="non-finite"):
        fit_power_law([(1.0, 1.0), (2.0, bad), (3.0, 9.0), (4.0, 16.0)], (0.5, 5.0))


def test_susceptibility_preconditions():
    params = LmgParams(n_qubits=10, jx=0.7, jy=0.7)
    with pytest.raises(ValueError):
        susceptibility_at(params, 0.0)
    with pytest.raises(ValueError, match="bx must be positive"):
        size_sweep(params, -1e-4, [4])


@pytest.mark.parametrize("n", [4, 8, 10])
def test_susceptibility_matches_oracle_energy_curvature(n):
    # chi = -(1/2N) d^2 E_0/dB_x^2 (Hellmann-Feynman on the +2 B_x S_x term),
    # with E_0 from the full 2^N Hamiltonian and the same relative step; the
    # zero-field oracle Hamiltonian is built once, and b * sum sigma^x = 2 b S_x
    # is added from the oracle's own collective S_x
    params = LmgParams(n_qubits=n, jx=0.7, jy=0.7)
    h0 = brute_force_hamiltonian(n, 0.7, 0.7, 0.0)
    sx, _, _ = collective_operators(n)

    def e0(b):
        return scipy.linalg.eigh(h0 + 2.0 * b * sx, eigvals_only=True, subset_by_index=(0, 0))[0]

    for bx in (1e-3, 1e-2, 1e-1):
        h = 1e-2 * bx
        e_up, e_mid, e_dn = (e0(b) for b in (bx + h, bx, bx - h))
        expected = -(e_up - 2.0 * e_mid + e_dn) / (2.0 * n * h * h)
        chi = susceptibility_at(params, bx)
        assert abs(chi - expected) <= 1e-3 * abs(expected), (n, bx, chi, expected)


def test_susceptibility_positive_along_sweep():
    # E_0 is concave in B_x, so the response of M_x = -<S_x>/N cannot be negative
    points = field_sweep(LmgParams(n_qubits=4, jx=0.7, jy=0.7), np.geomspace(1e-4, 1e-1, 7))
    assert all(p.chi > 0.0 for p in points), [p.chi for p in points]


def test_noncritical_susceptibility_is_small():
    # far from the transition the response has no divergence
    params = LmgParams(n_qubits=200, jx=0.0, jy=0.0)
    chi = susceptibility_at(params, 1e-3)
    assert np.isfinite(chi)
    assert abs(chi) < 10.0


def test_field_sweep_deterministic_and_schema():
    params = LmgParams(n_qubits=80, jx=0.7, jy=0.7)
    bxs = [1e-4, 1e-4]
    a, b = field_sweep(params, bxs)
    assert a == b  # bit-for-bit identical dataclasses
    assert a.sqrt_zeta_x == np.sqrt(a.zeta_x)
    assert a.gap >= 0.0 and np.isfinite(a.chi)


def test_field_sweep_names_the_field_of_a_failing_excited_level():
    # a nonzero dstev info once the first ground pair has passed its guard
    # fails E1, which runs when the sweep reads the gap
    real_check, real_stev = lmg_statics._check_residual, scipy.linalg.lapack.dstev
    checked = []

    def noting_check(*args):
        real_check(*args)
        checked.append(True)

    def failing_stev(d, e, **kwargs):
        w, v, info = real_stev(d, e, **kwargs)
        return w, v, (1 if checked else info)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lmg_statics, "_check_residual", noting_check)
        mp.setattr(scipy.linalg.lapack, "dstev", failing_stev)
        refusal = r"^field sweep failed at bx = 1\.000000e-03: \[excited\] E1 not converged"
        with pytest.raises(RuntimeError, match=refusal):
            field_sweep(LmgParams(n_qubits=200, jx=0.7, jy=0.7), [1e-3])


def test_excited_level_runs_once_per_gap_read():
    """E1's deflated Lanczos runs only where a gap is read, once: for each
    field_sweep point, and neither for the chi differences nor for the
    size scan's probes, whose gap comes from the B_x = 0 solve."""
    real_top_ritz = lmg_statics._top_ritz
    deflated = []

    def counting_top_ritz(chol, start, tol, deflate=None):
        deflated.append(deflate is not None)
        return real_top_ritz(chol, start, tol, deflate)

    params = LmgParams(n_qubits=200, jx=0.7, jy=0.7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lmg_statics, "_top_ritz", counting_top_ritz)
        field_sweep(params, np.geomspace(1e-5, 1e-3, 5))
        size_sweep(params, 1e-5, [200, 400, 800])
        assert sum(deflated) == 5
        result = solve_ground(LmgParams(n_qubits=200, jx=0.7, jy=0.7, bx=1e-3))
        assert sum(deflated) == 5
        assert result.gap == result.gap
    assert sum(deflated) == 6


def test_field_sweep_rejects_nonpositive_bx():
    with pytest.raises(ValueError):
        field_sweep(LmgParams(n_qubits=10, jx=0.7, jy=0.7), [1e-4, 0.0])


def test_order_parameters_cross_at_transition():
    # zeta_x rises with the field, zeta_y drops
    params = LmgParams(n_qubits=300, jx=0.7, jy=0.7)
    points = field_sweep(params, np.geomspace(1e-5, 1e-3, 7))
    zx = [p.zeta_x for p in points]
    zy = [p.zeta_y for p in points]
    assert all(np.diff(zx) > 0.0)
    assert all(np.diff(zy) < 0.0)


def test_gap_follows_square_root_of_field():
    params = LmgParams(n_qubits=300, jx=0.7, jy=0.7)
    points = field_sweep(params, np.geomspace(1e-3, 1e-2, 9))
    fit = fit_power_law([(p.bx, p.gap) for p in points], (1e-3, 1e-2))
    assert abs(fit.exponent - 0.5) < 0.05


def test_eta_monotone_decreasing_away_from_transition():
    params = LmgParams(n_qubits=500, jx=0.7, jy=0.7)
    points = field_sweep(params, np.geomspace(1e-5, 1e-2, 10))
    eta = [p.eta for p in points]
    assert all(np.diff(eta) < 0.0)


def test_cxy_shows_no_singularity():
    from spinamp.lmg_statics import solve_ground
    import dataclasses

    # a real ground vector has <S_y> = Re<S_x S_y> = 0, so C_xy = 0 identically
    params = LmgParams(n_qubits=400, jx=0.7, jy=0.7)
    for bx in np.geomspace(1e-6, 1e-2, 7):
        assert not np.any(solve_ground(dataclasses.replace(params, bx=bx)).ground.imag)


def test_fit_window_stability():
    # halving the window (in decades) moves the correlator exponent < 0.05
    params = LmgParams(n_qubits=500, jx=0.7, jy=0.7)
    window = (4e-4, 4e-2)
    points = field_sweep(params, np.geomspace(window[0], window[1], 17))
    pairs = [(p.bx, abs(p.c_xxyy)) for p in points]
    full = fit_power_law(pairs, window)
    half = fit_power_law(pairs, (window[0], np.sqrt(window[0] * window[1])))
    assert abs(full.exponent - half.exponent) < 0.05


def test_size_sweep_smallest_system_against_oracle():
    rows = size_sweep(LmgParams(n_qubits=10, jx=0.7, jy=0.7), 1e-5, [2])
    point = rows[0]
    oracle0 = brute_force_statics(2, 0.7, 0.7, 0.0)
    oracle_b = brute_force_statics(2, 0.7, 0.7, 1e-5)
    assert np.isfinite(point.chi)
    assert abs(point.gap - oracle0.gap) < 1e-10
    assert abs(point.c_xxyy - oracle_b.c_xxyy) < 1e-8


def test_size_sweep_follows_the_model_couplings():
    # off the transition line and off unit epsilon; the model's own bx is not used
    params = LmgParams(n_qubits=10, jx=0.5, jy=0.8, bx=0.3, epsilon=1.3)
    (point,) = size_sweep(params, 1e-3, [6])
    oracle0 = brute_force_statics(6, 0.5, 0.8, 0.0, 1.3)
    oracle_b = brute_force_statics(6, 0.5, 0.8, 1e-3, 1.3)
    assert point.n == 6
    assert abs(point.gap - oracle0.gap) < 1e-10
    assert abs(point.c_xxyy - oracle_b.c_xxyy) < 1e-8


def test_size_sweep_rejects_tiny_n():
    with pytest.raises(ValueError):
        size_sweep(LmgParams(n_qubits=10, jx=0.7, jy=0.7), 1e-5, [1])
