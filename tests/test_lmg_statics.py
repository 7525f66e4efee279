
import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spinamp import lmg_statics
from spinamp.criticality import field_sweep, susceptibility_at
from spinamp.dicke import build_collective_operator, expectation
from spinamp.harness.oracle import brute_force_hamiltonian, brute_force_statics
from helpers import densify, explicit_hamiltonian, solvable_line_energies, symmetric_sector_basis
from spinamp.lmg_statics import (
    EigensolverError,
    LmgParams,
    assemble_hamiltonian,
    correlations,
    order_parameters,
    solve_ground,
)

TEST_POINT = dict(jx=0.675, jy=0.7)


def test_params_validation():
    with pytest.raises(ValueError):
        LmgParams(n_qubits=0, jx=0.1, jy=0.1)
    with pytest.raises(ValueError):
        LmgParams(n_qubits=4, jx=-0.1, jy=0.1)
    with pytest.raises(ValueError):
        LmgParams(n_qubits=4, jx=0.1, jy=0.1, epsilon=0.0)


def test_free_spins():
    res = solve_ground(LmgParams(n_qubits=4, jx=0.0, jy=0.0))
    assert_allclose(res.e0, -2.0, atol=1e-13)
    assert_allclose(res.gap, 1.0, atol=1e-13)
    h = densify(assemble_hamiltonian(LmgParams(n_qubits=4, jx=0.0, jy=0.0)))
    assert_allclose(h, np.diag(np.arange(5) - 2.0), atol=1e-14)


def test_free_spins_large():
    res = solve_ground(LmgParams(n_qubits=100, jx=0.0, jy=0.0))
    assert_allclose(res.e0, -50.0, atol=1e-12)
    assert_allclose(res.gap, 1.0, atol=1e-12)
    ground = res.ground.real
    assert abs(ground[0]) > 1.0 - 1e-12 and np.abs(ground[1:]).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 20, 401, 2000])
def test_hamiltonian_matches_the_explicit_assembly_bit_for_bit(n):
    """H's bands from dicke's S_x^2 against the term-by-term assembly
    (helpers.explicit_hamiltonian) at 200 random (J_x, J_y, B_x, eps): every
    byte, the padding and the signs of zeros included."""
    rng = np.random.default_rng(n)
    for _ in range(200):
        jx, jy, eps = rng.uniform(0.0, 2.0, 3) + [0.0, 0.0, 0.1]
        params = LmgParams(n_qubits=n, jx=float(jx), jy=float(jy), bx=float(rng.normal(0.0, 0.1)), epsilon=float(eps))
        assert assemble_hamiltonian(params).bands.tobytes() == explicit_hamiltonian(params).bands.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 400])
def test_drive_band_is_the_ladder_coefficients_bit_for_bit(n):
    """Band 1 of H at B_x = 1 is c_m exactly, and (B_x P_e) c_m, the drive band
    amplifier_dynamics.evolve forms from it, is band 1 of H at field B_x P_e."""
    params = LmgParams(n_qubits=n, bx=1.0, **TEST_POINT)
    c = params.space.ladder_coefficients()
    assert np.array_equal(assemble_hamiltonian(params).bands[1], np.append(c, 0.0))
    for pe in np.random.default_rng(n).uniform(0.0, 1.0, 200):
        driven = assemble_hamiltonian(dataclasses.replace(params, bx=0.01 * float(pe)))
        assert ((0.01 * pe) * c).tobytes() == driven.bands[1][:n].tobytes()


def test_transition_line_hamiltonian_is_diagonal():
    params = LmgParams(n_qubits=40, jx=0.7, jy=0.7)
    h = densify(assemble_hamiltonian(params))
    assert np.abs(h - np.diag(np.diag(h))).max() < 1e-14
    assert_allclose(np.diag(h), solvable_line_energies(params), atol=1e-13)


@pytest.mark.parametrize("n", [17, 200, 1000])
def test_solvable_line_eigenvalues(n):
    params = LmgParams(n_qubits=n, jx=0.7, jy=0.7)
    res = solve_ground(params)
    energies = np.sort(solvable_line_energies(params))
    assert abs(res.e0 - energies[0]) < 1e-10
    assert abs(res.e0 + res.gap - energies[1]) < 1e-10


def test_ground_level_on_line_n1000():
    # analytic minimizer of E(m): m* = -eps N / (4J) = -357.14 -> m* = -357
    params = LmgParams(n_qubits=1000, jx=0.7, jy=0.7)
    res = solve_ground(params)
    m = params.space.m_values()
    assert m[np.argmax(np.abs(res.ground))] == -357.0


def _kron_site(op, site, n):
    return np.kron(np.eye(2**site), np.kron(op, np.eye(2 ** (n - 1 - site))))


def _kron_pair(op, i, j, n):
    inner = np.kron(op, np.kron(np.eye(2 ** (j - i - 1)), op))
    return np.kron(np.eye(2**i), np.kron(inner, np.eye(2 ** (n - 1 - j))))


def kron_hamiltonian(n, jx, jy, bx, epsilon=1.0):
    """The 2^N Hamiltonian as a sum of dense Kronecker products: the reference
    for the oracle's bit-flip build."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    isy = np.array([[0.0, 1.0], [-1.0, 0.0]])
    h = np.zeros((2**n, 2**n))
    for j in range(n):
        h += (epsilon / 2.0) * _kron_site(sz, j, n)
        if bx != 0.0:
            h += bx * _kron_site(sx, j, n)
    for i in range(n):
        for j in range(i + 1, n):
            h -= (jx / n) * _kron_pair(sx, i, j, n)
            h -= (jy / n) * (-1.0) * _kron_pair(isy, i, j, n)  # s^y s^y = -(i s^y)(i s^y)
    return h


@pytest.mark.parametrize("n", range(1, 9))
def test_oracle_hamiltonian_equals_kronecker_sum(n):
    for jx, jy, bx, epsilon in [(0.675, 0.7, 0.013, 1.0), (0.5, 0.8, 0.0, 1.3), (0.7, 0.7, -0.3, 0.9)]:
        full = brute_force_hamiltonian(n, jx, jy, bx, epsilon)
        assert np.array_equal(full, kron_hamiltonian(n, jx, jy, bx, epsilon))


@pytest.mark.parametrize("n", [4, 8, 11])
def test_hamiltonian_matches_full_space_sector(n):
    params = LmgParams(n_qubits=n, bx=0.013, **TEST_POINT)
    basis = symmetric_sector_basis(n)
    full = brute_force_hamiltonian(n, params.jx, params.jy, params.bx)
    assert np.abs(basis.T @ full @ basis - densify(assemble_hamiltonian(params))).max() < 1e-12


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_brute_force_equivalence(n):
    params = LmgParams(n_qubits=n, **TEST_POINT)
    res = solve_ground(params)
    ops = order_parameters(res)
    corr = correlations(res)
    oracle = brute_force_statics(n, params.jx, params.jy, 0.0)
    assert abs(res.e0 - oracle.e0) < 1e-8
    assert abs(res.gap - oracle.gap) < 1e-8
    assert abs(ops.zeta_x - oracle.zeta_x) < 1e-8
    assert abs(ops.zeta_y - oracle.zeta_y) < 1e-8
    assert abs(oracle.c_xy) < 1e-8  # the collective C_xy is 0: its ground state is real
    assert abs(corr.c_xxyy - oracle.c_xxyy) < 1e-8


def test_expectation_against_brute_force_with_field():
    params = LmgParams(n_qubits=8, bx=0.02, **TEST_POINT)
    res = solve_ground(params)
    ops = order_parameters(res)
    oracle = brute_force_statics(8, params.jx, params.jy, params.bx)
    assert abs(ops.zeta_x - oracle.zeta_x) < 1e-10
    assert abs(ops.zeta_y - oracle.zeta_y) < 1e-10


def test_lowest_weight_order_parameters():
    res = solve_ground(LmgParams(n_qubits=64, jx=0.0, jy=0.0))
    ops = order_parameters(res)
    assert_allclose(ops.zeta_x, 1.0 / (4 * 64), atol=1e-14)
    assert_allclose(ops.zeta_y, 1.0 / (4 * 64), atol=1e-14)
    assert not np.any(res.ground.imag)  # a real ground vector gives C_xy = 0


def test_zeta_bound():
    for n, jx, jy in [(30, 0.9, 0.7), (101, 0.7, 0.7), (64, 0.0, 1.2)]:
        ops = order_parameters(solve_ground(LmgParams(n_qubits=n, jx=jx, jy=jy)))
        bound = 0.25 + 1.0 / (2 * n)
        assert 0.0 <= ops.zeta_x <= bound
        assert 0.0 <= ops.zeta_y <= bound


def test_xy_symmetry_on_line():
    ops = order_parameters(solve_ground(LmgParams(n_qubits=301, jx=0.7, jy=0.7)))
    assert abs(ops.zeta_x - ops.zeta_y) < 1e-12


def test_xy_swap_symmetry():
    a = solve_ground(LmgParams(n_qubits=200, jx=0.62, jy=0.7))
    b = solve_ground(LmgParams(n_qubits=200, jx=0.7, jy=0.62))
    assert abs(a.e0 - b.e0) < 1e-12
    assert abs(a.gap - b.gap) < 1e-12
    oa, ob = order_parameters(a), order_parameters(b)
    assert abs(oa.zeta_x - ob.zeta_y) < 1e-12
    assert abs(oa.zeta_y - ob.zeta_x) < 1e-12


def test_field_sign_symmetry():
    up = order_parameters(solve_ground(LmgParams(n_qubits=400, jx=0.7, jy=0.7, bx=3e-5)))
    dn = order_parameters(solve_ground(LmgParams(n_qubits=400, jx=0.7, jy=0.7, bx=-3e-5)))
    assert abs(up.zeta_x - dn.zeta_x) < 1e-12
    assert abs(up.zeta_y - dn.zeta_y) < 1e-12


def test_large_negative_correlation_at_transition():
    params = LmgParams(n_qubits=1000, jx=0.7, jy=0.7, bx=1e-5)
    corr = correlations(solve_ground(params))
    assert corr.c_xxyy < -1e6  # strong negative x-y correlation at the transition
    assert corr.eta == pytest.approx((2.0 / 1000) * abs(corr.c_xxyy) ** 0.25, rel=0, abs=0)


def test_single_path_matches_dense_eigh():
    # both branches (bx == 0: parity split; bx != 0: inverse iteration) against a dense solve
    for n in (1, 2, 3, 20, 101):
        for point in (TEST_POINT, dict(jx=0.7, jy=0.7)):
            for bx in (0.0, 1e-3):
                params = LmgParams(n_qubits=n, bx=bx, **point)
                res = solve_ground(params)
                h = assemble_hamiltonian(params)
                w, v = np.linalg.eigh(densify(h))
                tol = 1e-11 * max(h.norm_upper_bound(), 1.0)
                assert abs(res.e0 - w[0]) <= tol, (n, point, bx)
                assert abs(res.e0 + res.gap - w[1]) <= tol, (n, point, bx)
                if w[1] - w[0] > 1e-8:
                    assert abs(np.vdot(res.ground, v[:, 0])) >= 1.0 - 1e-10, (n, point, bx)


def test_fig4_fields_match_full_banded_eigensolver():
    # reference: LAPACK banded eigensolver with its N x N eigenvector transform;
    # pins how far the fig4 sweep columns may move from it
    base = LmgParams(n_qubits=1000, jx=0.7, jy=0.7)
    sx = build_collective_operator(base.space, "Sx")

    def reference(bx):
        h = assemble_hamiltonian(dataclasses.replace(base, bx=bx))
        w, v = scipy.linalg.eig_banded(h.scipy_upper_bands(), select="i", select_range=(0, 1))
        return w, v[:, 0], h.norm_upper_bound()

    def magnetization(bx):
        return -expectation(sx, reference(bx)[1]) / base.n_qubits

    for bx in np.geomspace(1e-6, 1e-2, 33)[[0, 16, 32]]:
        res = solve_ground(dataclasses.replace(base, bx=bx))
        w, v, h_norm = reference(bx)
        assert abs(res.e0 - w[0]) <= 1e-12 * h_norm
        assert abs(res.gap - (w[1] - w[0])) <= 1e-12
        assert abs(np.vdot(res.ground, v)) >= 1.0 - 1e-12
        chi_ref = (magnetization(bx * 1.01) - magnetization(bx * 0.99)) / (2.0 * bx * 0.01)
        assert abs(susceptibility_at(base, bx) - chi_ref) <= 1e-10 * chi_ref


def test_degenerate_doublet_gives_parity_eigenstate():
    # deep FM-Y doublet at N = 501: degenerate to machine precision at bx = 0
    params = LmgParams(n_qubits=501, **TEST_POINT)
    res = solve_ground(params)
    h = assemble_hamiltonian(params)
    psi = res.ground.real
    assert np.linalg.norm(h.matvec(psi) - res.e0 * psi) <= 1e-8 * h.norm_upper_bound()
    even, odd = psi[0::2], psi[1::2]
    assert (np.all(odd == 0.0) and np.abs(even).max() > 0.0) or (
        np.all(even == 0.0) and np.abs(odd).max() > 0.0
    )


NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(["jx", "jy", "bx", "epsilon"]), value=NON_FINITE)
def test_params_reject_non_finite(field, value):
    kwargs = dict(n_qubits=4, jx=0.6, jy=0.7, bx=1e-3, epsilon=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        LmgParams(**kwargs)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 60), bx=st.sampled_from([0.0, 1e-3]), index=st.integers(0, 10_000))
def test_residual_guard_trips_on_nan_vector(n, bx, index):
    # a NaN anywhere in the solver's vector must fail the residual check, not pass it
    params = LmgParams(n_qubits=n, jx=0.6, jy=0.7, bx=bx)
    real_tridiagonal = scipy.linalg.eigh_tridiagonal
    real_solve = scipy.linalg.lapack.dpbtrs

    def poisoned_tridiagonal(*args, **kwargs):
        w, v = real_tridiagonal(*args, **kwargs)
        v[index % v.shape[0]] = np.nan
        return w, v

    def poisoned_solve(chol, b, **kwargs):
        x, info = real_solve(chol, np.nan_to_num(b), **kwargs)
        x[index % x.size] = np.nan
        return x, info

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.linalg, "eigh_tridiagonal", poisoned_tridiagonal)
        mp.setattr(scipy.linalg.lapack, "dpbtrs", poisoned_solve)
        with pytest.raises(EigensolverError, match="residual"):
            solve_ground(params)


def test_parity_branch_failure_names_its_step():
    def failing(*args, **kwargs):
        raise scipy.linalg.LinAlgError("no convergence")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.linalg, "eigh_tridiagonal", failing)
        with pytest.raises(EigensolverError, match=r"^\[parity\] eigensolver failed: no convergence") as err:
            solve_ground(LmgParams(n_qubits=20, jx=0.7, jy=0.7))
    assert err.value.step == "parity" and "n_qubits=20" in str(err.value)


def test_ground_state_sign_convention_deterministic():
    params = LmgParams(n_qubits=144, **TEST_POINT)
    a = solve_ground(params).ground
    b = solve_ground(params).ground
    assert np.array_equal(a, b)
    first = a.real[np.argmax(np.abs(a.real) > 1e-12 * np.abs(a.real).max())]
    assert first > 0.0


@pytest.mark.parametrize("n", [2000, 10_000])
@pytest.mark.parametrize("point", [dict(jx=0.5, jy=0.7), TEST_POINT])
def test_shift_invert_matches_banded_eigenvalues_off_the_line(n, point):
    # reference: LAPACK's banded eigenvalue solver (band reduction plus bisection)
    for bx in (1e-6, 1e-3, 1e-1):
        params = LmgParams(n_qubits=n, bx=bx, **point)
        res = solve_ground(params)
        h = assemble_hamiltonian(params)
        h_norm = h.norm_upper_bound()
        w = scipy.linalg.eigvals_banded(h.scipy_upper_bands(), select="i", select_range=(0, 1))
        assert abs(res.e0 - w[0]) <= 1e-12 * h_norm, (n, point, bx)
        if w[1] - w[0] < 1e-9:
            # a y-ordered doublet, split exponentially in N; the reference's own
            # rounding (up to 5.1e-11 here, about 1e-14 |H|) is all its gap shows
            assert abs(res.gap) <= 1e-12, (n, point, bx)
        else:
            # the reference's levels sit on a grid of ulp(|E0|), 9.1e-13 at N = 10^4
            assert abs(res.gap - (w[1] - w[0])) <= max(1e-12, 1e-15 * h_norm), (n, point, bx)
        if w[1] - w[0] > 1e-8:
            # sin(angle to the exact ground vector) <= residual / (E1 - rho)
            psi = res.ground
            hpsi = h.matvec(psi)
            rho = float(psi @ hpsi)
            sin = np.linalg.norm(hpsi - rho * psi) / (w[1] - rho)
            assert np.sqrt(1.0 - sin**2) >= 1.0 - 1e-10, (n, point, bx)


@pytest.mark.parametrize("n", [1, 2, 3, 20, 101])
def test_factored_shifts_lie_below_the_ground_energy(n):
    # Cholesky succeeds only below E0 (Sylvester): every shift the solver factors
    # must lie below the dense E0
    real_factor = scipy.linalg.lapack.dpbtrf
    for point in (TEST_POINT, dict(jx=0.7, jy=0.7), dict(jx=0.5, jy=0.7)):
        for bx in (1e-3, -0.1):
            params = LmgParams(n_qubits=n, bx=bx, **point)
            h = assemble_hamiltonian(params)
            diagonal = h.bands[0]
            shifts = []

            def recording_factor(ab, **kwargs):
                chol, info = real_factor(ab, **kwargs)
                if info == 0:
                    shifts.append(float(diagonal[0] - ab[-1, 0]))
                return chol, info

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(scipy.linalg.lapack, "dpbtrf", recording_factor)
                res = solve_ground(params)
            e0 = np.linalg.eigvalsh(densify(h))[0]
            assert shifts and max(shifts) < e0, (n, point, bx)
            assert abs(res.e0 - e0) <= 1e-11 * h.norm_upper_bound()


def test_failure_names_the_shift_step():
    params = LmgParams(n_qubits=30, bx=1e-3, **TEST_POINT)
    real_factor = scipy.linalg.lapack.dpbtrf

    def failing_factor(ab, **kwargs):
        chol, _ = real_factor(ab, **kwargs)
        return chol, 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.linalg.lapack, "dpbtrf", failing_factor)
        with pytest.raises(EigensolverError, match=r"\[shift\] no positive-definite shift") as err:
            solve_ground(params)
    assert err.value.step == "shift" and "n_qubits=30" in str(err.value)


def test_excited_level_stops_at_its_iteration_cap():
    # once the ground pair has passed its residual guard, every solve returns
    # noise, so E1's Lanczos never converges
    params = LmgParams(n_qubits=200, jx=0.7, jy=0.7, bx=1e-3)
    real_check, real_solve = lmg_statics._check_residual, scipy.linalg.lapack.dpbtrs
    rng = np.random.default_rng(7)
    checked = []

    def noting_check(*args):
        real_check(*args)
        checked.append(True)

    def noisy_solve(chol, b, **kwargs):
        x, info = real_solve(chol, b, **kwargs)
        return (rng.standard_normal(x.shape) if checked else x), info

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lmg_statics, "_check_residual", noting_check)
        mp.setattr(scipy.linalg.lapack, "dpbtrs", noisy_solve)
        with pytest.raises(EigensolverError, match=r"\[excited\] E1 not converged within 40") as err:
            solve_ground(params).gap
    assert err.value.step == "excited" and "bx=0.001" in str(err.value)


def _dense_tridiagonal_eigh(d, e, **kwargs):
    """The Ritz step as it was before dstev: np.linalg.eigh of the dense Lanczos matrix."""
    t = np.diag(d) + np.diag(e[: d.size - 1], 1) + np.diag(e[: d.size - 1], -1)
    return (*np.linalg.eigh(t), 0)


@pytest.mark.parametrize("n", [200, 1000, 2000])
def test_tridiagonal_ritz_step_matches_dense_eigh(n):
    """On the transition line, over the fig4 / fig5 / figS8 field range, the
    dstev Ritz step leaves the observables where the dense eigh step put
    them: chi within 1e-10 relative (measured <= 1.1e-12), the gap within
    1e-14 (<= 5.6e-17), zeta_x and c_xxyy within 1e-14 relative (equal)."""
    params = LmgParams(n_qubits=n, jx=0.7, jy=0.7)
    fields = np.geomspace(1e-6, 1e-2, 9)
    new = field_sweep(params, fields)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.linalg.lapack, "dstev", _dense_tridiagonal_eigh)
        old = field_sweep(params, fields)
    for a, b in zip(new, old):
        assert abs(a.chi - b.chi) <= 1e-10 * abs(b.chi)
        assert abs(a.gap - b.gap) <= 1e-14
        assert abs(a.zeta_x - b.zeta_x) <= 1e-14 * b.zeta_x
        assert abs(a.c_xxyy - b.c_xxyy) <= 1e-14 * abs(b.c_xxyy)


def test_failed_ritz_step_is_not_converged():
    # a nonzero dstev info once the ground pair has passed its guard fails E1
    params = LmgParams(n_qubits=200, jx=0.7, jy=0.7, bx=1e-3)
    real_check, real_factor = lmg_statics._check_residual, lmg_statics._factor
    real_stev = scipy.linalg.lapack.dstev
    checked, shifts = [], []

    def noting_check(*args):
        real_check(*args)
        checked.append(True)

    def failing_stev(d, e, **kwargs):
        w, v, info = real_stev(d, e, **kwargs)
        return w, v, (1 if checked else info)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lmg_statics, "_check_residual", noting_check)
        mp.setattr(scipy.linalg.lapack, "dstev", failing_stev)
        with pytest.raises(EigensolverError, match=r"\[excited\] E1 not converged") as err:
            solve_ground(params).gap
    assert err.value.step == "excited"

    # failing from the first shift round on, the solve still fails loudly and
    # never factors a NaN shift, which dpbtrf could pass
    def noting_factor(h, sigma):
        shifts.append(sigma)
        return real_factor(h, sigma)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lmg_statics, "_factor", noting_factor)
        mp.setattr(scipy.linalg.lapack, "dstev", lambda d, e, **kwargs: (*real_stev(d, e, **kwargs)[:2], 1))
        with pytest.raises(EigensolverError):
            solve_ground(params).gap
    assert shifts and all(np.isfinite(shifts))


def test_solve_at_n_1e5_passes_the_residual_guard():
    # every step is O(N): no N x N array, so N = 10^5 takes a fraction of a second
    params = LmgParams(n_qubits=100_000, bx=1e-3, **TEST_POINT)
    res = solve_ground(params)
    h = assemble_hamiltonian(params)
    psi = res.ground
    assert np.linalg.norm(h.matvec(psi) - res.e0 * psi) <= 1e-8 * h.norm_upper_bound()
    assert res.gap >= -1e-10
