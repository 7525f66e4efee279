
import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spinamp.criticality import susceptibility_at
from spinamp.dicke import build_collective_operator, expectation
from spinamp.harness.oracle import brute_force_hamiltonian, brute_force_statics, symmetric_sector_basis
from spinamp.lmg_statics import (
    EigensolverError,
    LmgParams,
    assemble_hamiltonian,
    correlations,
    order_parameters,
    solvable_line_energies,
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
    h = assemble_hamiltonian(LmgParams(n_qubits=4, jx=0.0, jy=0.0)).densify()
    assert_allclose(h, np.diag(np.arange(5) - 2.0), atol=1e-14)


def test_free_spins_large():
    res = solve_ground(LmgParams(n_qubits=100, jx=0.0, jy=0.0))
    assert_allclose(res.e0, -50.0, atol=1e-12)
    assert_allclose(res.gap, 1.0, atol=1e-12)
    ground = res.ground.real
    assert abs(ground[0]) > 1.0 - 1e-12 and np.abs(ground[1:]).max() < 1e-12


def test_transition_line_hamiltonian_is_diagonal():
    params = LmgParams(n_qubits=40, jx=0.7, jy=0.7)
    h = assemble_hamiltonian(params).densify()
    assert np.abs(h - np.diag(np.diag(h))).max() < 1e-14
    assert_allclose(np.diag(h), solvable_line_energies(params), atol=1e-13)


@pytest.mark.parametrize("n", [17, 200, 1000])
def test_solvable_line_eigenvalues(n):
    params = LmgParams(n_qubits=n, jx=0.7, jy=0.7)
    res = solve_ground(params)
    energies = np.sort(solvable_line_energies(params))
    assert abs(res.e0 - energies[0]) < 1e-10
    assert abs(res.e1 - energies[1]) < 1e-10


def test_ground_level_on_line_n1000():
    # analytic minimizer of E(m): m* = -eps N / (4J) = -357.14 -> m* = -357
    params = LmgParams(n_qubits=1000, jx=0.7, jy=0.7)
    res = solve_ground(params)
    m = params.space.m_values()
    assert m[np.argmax(np.abs(res.ground))] == -357.0


@pytest.mark.parametrize("n", [4, 8, 11])
def test_hamiltonian_matches_full_space_sector(n):
    params = LmgParams(n_qubits=n, bx=0.013, **TEST_POINT)
    basis = symmetric_sector_basis(n)
    full = brute_force_hamiltonian(n, params.jx, params.jy, params.bx)
    assert np.abs(basis.T @ full @ basis - assemble_hamiltonian(params).densify()).max() < 1e-12


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
                w, v = np.linalg.eigh(h.densify())
                tol = 1e-11 * max(h.norm_upper_bound(), 1.0)
                assert abs(res.e0 - w[0]) <= tol, (n, point, bx)
                assert abs(res.e1 - w[1]) <= tol, (n, point, bx)
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
    real_banded = scipy.linalg.solve_banded

    def poisoned_tridiagonal(*args, **kwargs):
        w, v = real_tridiagonal(*args, **kwargs)
        v[index % v.shape[0]] = np.nan
        return w, v

    def poisoned_banded(lu, ab, b, **kwargs):
        x = real_banded(lu, ab, np.nan_to_num(b), **kwargs)
        x[index % x.size] = np.nan
        return x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.linalg, "eigh_tridiagonal", poisoned_tridiagonal)
        mp.setattr(scipy.linalg, "solve_banded", poisoned_banded)
        with pytest.raises(EigensolverError, match="residual"):
            solve_ground(params)


def test_ground_state_sign_convention_deterministic():
    params = LmgParams(n_qubits=144, **TEST_POINT)
    a = solve_ground(params).ground
    b = solve_ground(params).ground
    assert np.array_equal(a, b)
    first = a.real[np.argmax(np.abs(a.real) > 1e-12 * np.abs(a.real).max())]
    assert first > 0.0
