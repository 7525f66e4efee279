import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spinamp.dicke import (
    BandedHermitianOperator,
    DickeSpace,
    add_band_products,
    build_collective_operator,
    expectation,
)
from spinamp.harness.oracle import collective_operators
from helpers import coherent_amplitudes, densify, kronecker_collective_operators, symmetric_sector_basis


def oracle_sy(n):
    """S_y on the symmetric sector, from the 2^N oracle; the banded algebra is
    real and does not build the imaginary S_y."""
    basis = symmetric_sector_basis(n)
    _, isy_full, _ = collective_operators(n)
    return basis.T @ (-1j * isy_full) @ basis


def lowest_weight(space):
    v = np.zeros(space.dimension, dtype=complex)
    v[0] = 1.0
    return v


def test_space_counts():
    sp = DickeSpace(7)
    assert sp.dimension == 8
    assert_allclose(sp.m_values(), np.arange(8) - 3.5)


def test_space_rejects_bad_n():
    with pytest.raises(ValueError):
        DickeSpace(0)


def test_sz_single_spin():
    sz = densify(build_collective_operator(DickeSpace(1), "Sz"))
    assert_allclose(sz, np.diag([-0.5, 0.5]))


def test_sx2_diagonal_identity_n2():
    sx2 = densify(build_collective_operator(DickeSpace(2), "Sx2"))
    # <S,m|S_x^2|S,m> = [S(S+1) - m^2]/2; S=1, m=-1 gives 1/2
    assert_allclose(sx2[0, 0], 0.5, atol=1e-15)
    assert_allclose(np.diag(sx2), [0.5, 1.0, 0.5], atol=1e-15)


def test_unknown_tag_rejected():
    for tag in ("Sz2", "Sy"):
        with pytest.raises(ValueError, match="unknown operator tag"):
            build_collective_operator(DickeSpace(4), tag)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_squares_match_matrix_product(n):
    sp = DickeSpace(n)
    sx = densify(build_collective_operator(sp, "Sx"))
    sy = oracle_sy(n)
    assert np.abs(sx @ sx - densify(build_collective_operator(sp, "Sx2"))).max() < 1e-12
    assert np.abs(sy @ sy - densify(build_collective_operator(sp, "Sy2"))).max() < 1e-12


@pytest.mark.parametrize("n", [1, 3, 6, 10])
def test_commutator_and_casimir(n):
    sp = DickeSpace(n)
    sx = densify(build_collective_operator(sp, "Sx"))
    sy = oracle_sy(n)
    sz = densify(build_collective_operator(sp, "Sz"))
    assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() < 1e-12
    s = n / 2.0
    casimir = (
        densify(build_collective_operator(sp, "Sx2"))
        + densify(build_collective_operator(sp, "Sy2"))
        + sz @ sz
    )
    assert np.abs(casimir - s * (s + 1.0) * np.eye(n + 1)).max() < 1e-10


@pytest.mark.parametrize("n", [2, 4, 7, 10])
def test_all_builders_match_full_space_symmetric_sector(n):
    basis = symmetric_sector_basis(n)
    sx_full, isy_full, sz_full = collective_operators(n)
    sp = DickeSpace(n)
    pairs = [
        ("Sx", sx_full),
        ("Sz", sz_full),
        ("Sx2", sx_full @ sx_full),
        ("Sy2", -(isy_full @ isy_full)),
    ]
    for tag, full in pairs:
        restricted = basis.T @ full @ basis
        assert np.abs(densify(build_collective_operator(sp, tag)) - restricted).max() < 1e-12, tag


@pytest.mark.parametrize("n", range(1, 7))
def test_oracle_collective_operators_match_the_kronecker_sum(n):
    for tag, fast, reference in zip(("Sx", "iSy", "Sz"), collective_operators(n), kronecker_collective_operators(n)):
        assert np.array_equal(fast, reference), tag


@pytest.mark.parametrize("dimension", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("bandwidth", [0, 1, 2])
def test_row_radius_is_the_dense_gershgorin_radius(bandwidth, dimension):
    """Integer entries of both signs, so every sum is exact in any order;
    the bands above bandwidth are zero, as in S_z and S_x."""
    rng = np.random.default_rng(10 * bandwidth + dimension)
    bands = np.zeros((3, dimension))
    bands[: bandwidth + 1] = rng.integers(-9, 10, size=(bandwidth + 1, dimension))
    for k in range(1, bandwidth + 1):
        bands[k, max(dimension - k, 0) :] = 0.0  # padding
    op = BandedHermitianOperator(dimension, bands)
    dense = densify(op)
    assert np.array_equal(op.row_radius(), np.abs(dense - np.diag(np.diag(dense))).sum(axis=1))
    assert op.norm_upper_bound() == np.abs(dense).sum(axis=1).max()


@pytest.mark.parametrize("m", [1, 2, 3, 8])
@pytest.mark.parametrize("fold", [1.0, -1j], ids=["real", "folded"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_add_band_products_is_the_dense_product(m, fold, dtype):
    """Integer entries, so every sum is exact in any order. fold = -1j gives
    the amplifier's -i H bands; out starts with the diagonal term, and m = 1
    and 2 leave some of the slices empty."""
    rng = np.random.default_rng(m)
    bands = np.zeros((3, m))
    bands[0] = rng.integers(-9, 10, size=m)
    bands[1, : m - 1] = rng.integers(-9, 10, size=max(m - 1, 0))
    bands[2, : m - 2] = rng.integers(-9, 10, size=max(m - 2, 0))
    x = rng.integers(-9, 10, size=m).astype(dtype)
    if dtype is complex:
        x += 1j * rng.integers(-9, 10, size=m)
    out = fold * bands[0] * x
    got = add_band_products(out, x, fold * bands[1][: m - 1], fold * bands[2][: m - 2])
    assert got is out
    assert np.array_equal(got, fold * densify(BandedHermitianOperator(m, bands)) @ x)


def test_expectation_lowest_weight_values():
    n = 12
    sp = DickeSpace(n)
    state = lowest_weight(sp)
    assert_allclose(expectation(build_collective_operator(sp, "Sz"), state), -n / 2.0, atol=1e-14)
    assert_allclose(expectation(build_collective_operator(sp, "Sx2"), state), n / 4.0, atol=1e-14)


def test_expectation_rejects_bad_states():
    sp = DickeSpace(4)
    op = build_collective_operator(sp, "Sz")
    with pytest.raises(ValueError, match="does not match"):
        expectation(op, np.ones(3, dtype=complex))
    with pytest.raises(ValueError, match="not normalized"):
        expectation(op, np.ones(5, dtype=complex))


def test_expectation_rejects_nan_state():
    # |nan - 1| > 1e-8 is False, so the norm check used to let NaN through
    op = build_collective_operator(DickeSpace(4), "Sz")
    with pytest.raises(ValueError, match="not normalized"):
        expectation(op, np.full(5, np.nan, dtype=complex))


def test_banded_matvec_matches_dense():
    sp = DickeSpace(9)
    rng = np.random.default_rng(7)
    v = rng.normal(size=10) + 1j * rng.normal(size=10)
    for tag in ("Sz", "Sx", "Sx2", "Sy2"):
        op = build_collective_operator(sp, tag)
        assert_allclose(op.matvec(v), densify(op) @ v, atol=1e-12)


def test_coherent_poles_are_exact():
    sp = DickeSpace(37)
    north = coherent_amplitudes(sp, 0.0, 1.3)
    assert north[-1] == 1.0 and np.abs(north[:-1]).max() == 0.0
    south = coherent_amplitudes(sp, np.pi, 0.7)
    assert abs(abs(south[0]) - 1.0) < 1e-15 and np.abs(south[1:]).max() == 0.0


def test_coherent_large_n_norm():
    # C(400, 200) overflows double precision; log-space assembly must not
    amps = coherent_amplitudes(DickeSpace(400), np.pi / 2.0, 0.0)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-10


def test_coherent_rejects_theta_outside_range():
    with pytest.raises(ValueError):
        coherent_amplitudes(DickeSpace(5), -0.1, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=150),
    theta=st.floats(min_value=0.0, max_value=np.pi, allow_nan=False),
    phi=st.floats(min_value=0.0, max_value=2.0 * np.pi, exclude_max=True, allow_nan=False),
)
def test_coherent_norm_property(n, theta, phi):
    amps = coherent_amplitudes(DickeSpace(n), theta, phi)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=60), theta=st.floats(min_value=0.05, max_value=np.pi - 0.05))
def test_coherent_sz_expectation_property(n, theta):
    sp = DickeSpace(n)
    amps = coherent_amplitudes(sp, theta, 0.3)
    sz = build_collective_operator(sp, "Sz")
    assert abs(expectation(sz, amps) - (n / 2.0) * np.cos(theta)) < 1e-9 * max(1.0, n)
