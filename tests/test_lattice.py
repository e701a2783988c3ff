import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incrstat.lattice import (
    TorusField,
    TorusGeometry,
    backward_divergence,
    forward_gradient,
    laplace_symbol,
    laplacian,
    shift,
    solve_helmholtz,
)
from oracle_utils import dense_forward_diff, dense_helmholtz, dense_laplacian

# geometries small enough for dense matrix oracles
SMALL_GEOMS = [(1, 4), (1, 9), (1, 32), (2, 4), (2, 7), (3, 3), (3, 4)]


def rand_field(geom, seed, components=1):
    rng = np.random.default_rng(seed)
    return TorusField(geom, rng.standard_normal((components,) + geom.shape))


# ---------------------------------------------------------------- geometry


def test_geometry_rejects_bad_dimension():
    for d in (0, 4, -1):
        with pytest.raises(ValueError):
            TorusGeometry(d, 8)


def test_geometry_rejects_small_side():
    with pytest.raises(ValueError):
        TorusGeometry(2, 1)


def test_centered_axis_signs():
    assert list(TorusGeometry(1, 4).centered_axis()) == [0.0, 1.0, 2.0, -1.0]
    assert list(TorusGeometry(1, 5).centered_axis()) == [0.0, 1.0, 2.0, -2.0, -1.0]


def test_site_distances_symmetry():
    geom = TorusGeometry(2, 6)
    dist = geom.site_distances()
    assert dist[0, 0] == 0.0
    for x in range(6):
        for y in range(6):
            assert dist[x, y] == dist[(-x) % 6, (-y) % 6]


# ---------------------------------------------------------------- fields


def test_field_scalar_promotion():
    geom = TorusGeometry(2, 4)
    f = TorusField(geom, np.zeros(geom.shape))
    assert f.components == 1
    assert f.values.shape == (1, 4, 4)


def test_field_shape_mismatch():
    geom = TorusGeometry(2, 4)
    with pytest.raises(ValueError):
        TorusField(geom, np.zeros((4, 5)))
    with pytest.raises(ValueError):
        TorusField(geom, np.zeros((2, 4, 5)))


def test_field_is_immutable():
    f = rand_field(TorusGeometry(1, 8), 0)
    with pytest.raises(AttributeError):
        f.values = np.zeros((1, 8))
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0  # numpy write-protection


def test_field_does_not_alias_input():
    geom = TorusGeometry(1, 4)
    arr = np.zeros(geom.shape)
    f = TorusField(geom, arr)
    arr[0] = 7.0
    assert f.values[0, 0] == 0.0


def test_field_pickle_roundtrip():
    f = rand_field(TorusGeometry(2, 5), 3, components=2)
    g = pickle.loads(pickle.dumps(f))
    assert g == f
    with pytest.raises(ValueError):
        g.values[0, 0, 0] = 1.0


def test_delta():
    geom = TorusGeometry(2, 4)
    dlt = TorusField.delta(geom)
    assert dlt.values.sum() == 1.0 and dlt.values[0, 0, 0] == 1.0


# ---------------------------------------------------------------- shift


def test_shift_semantics():
    geom = TorusGeometry(1, 4)
    f = TorusField(geom, np.array([0.0, 1.0, 2.0, 3.0]))
    g = shift(f, [1])  # g(x) = f(x + 1)
    assert list(g.values[0]) == [1.0, 2.0, 3.0, 0.0]


def test_shift_rejects_wrong_length():
    f = rand_field(TorusGeometry(2, 4), 0)
    with pytest.raises(ValueError):
        shift(f, [1])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(SMALL_GEOMS))
def test_shift_group_law(seed, dl):
    geom = TorusGeometry(*dl)
    rng = np.random.default_rng(seed)
    f = TorusField(geom, rng.standard_normal(geom.shape))
    k = rng.integers(-6, 7, size=geom.d)
    m = rng.integers(-6, 7, size=geom.d)
    assert shift(shift(f, k), m) == shift(f, k + m)
    assert shift(f, np.zeros(geom.d, dtype=int)) == f


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(SMALL_GEOMS))
def test_shift_preserves_value_multiset(seed, dl):
    geom = TorusGeometry(*dl)
    rng = np.random.default_rng(seed)
    f = TorusField(geom, rng.standard_normal(geom.shape))
    g = shift(f, rng.integers(-5, 6, size=geom.d))
    assert np.array_equal(np.sort(f.values.ravel()), np.sort(g.values.ravel()))


# ---------------------------------------------------------------- operators


def test_gradient_line_example():
    geom = TorusGeometry(1, 4)
    u = TorusField(geom, np.array([0.0, 1.0, 0.0, 0.0]))
    assert list(forward_gradient(u).values[0]) == [1.0, -1.0, 0.0, 0.0]


def test_gradient_of_constant_is_zero():
    geom = TorusGeometry(3, 4)
    u = TorusField(geom, np.full(geom.shape, 2.5))
    assert not forward_gradient(u).values.any()


def test_gradient_components_telescope():
    z = forward_gradient(rand_field(TorusGeometry(2, 6), 1))
    sums = z.values.sum(axis=(1, 2))
    assert np.allclose(sums, 0.0, atol=1e-12)


def test_divergence_of_constant_is_zero():
    geom = TorusGeometry(2, 5)
    z = TorusField(geom, np.ones((2,) + geom.shape))
    assert not backward_divergence(z).values.any()


def test_divergence_site_sum_vanishes():
    z = rand_field(TorusGeometry(3, 4), 2, components=3)
    assert abs(backward_divergence(z).values.sum()) < 1e-12


def test_divergence_component_count():
    geom = TorusGeometry(2, 4)
    with pytest.raises(ValueError):
        backward_divergence(TorusField(geom, np.zeros((3,) + geom.shape)))


def test_gradient_rejects_vector_input():
    z = rand_field(TorusGeometry(2, 4), 0, components=2)
    with pytest.raises(ValueError):
        forward_gradient(z)
    with pytest.raises(ValueError):
        laplacian(z)


@pytest.mark.parametrize("d,L", SMALL_GEOMS)
def test_operators_match_dense_matrices(d, L):
    geom = TorusGeometry(d, L)
    rng = np.random.default_rng(d * 100 + L)
    u = rng.standard_normal(geom.shape)
    uf = TorusField(geom, u)
    flat = u.reshape(-1)

    grad = forward_gradient(uf).values
    for axis in range(d):
        expected = dense_forward_diff(d, L, axis) @ flat
        assert np.allclose(grad[axis].reshape(-1), expected, atol=1e-12)

    z = rng.standard_normal((d,) + geom.shape)
    div = backward_divergence(TorusField(geom, z)).values[0].reshape(-1)
    expected = np.zeros(L**d)
    for axis in range(d):
        expected += dense_forward_diff(d, L, axis).T @ z[axis].reshape(-1)
    assert np.allclose(div, expected, atol=1e-12)

    lap = laplacian(uf).values[0].reshape(-1)
    assert np.allclose(lap, dense_laplacian(d, L) @ flat, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31))
def test_adjointness(seed):
    # <grad u, z> = <u, div* z> on the d=2, L=6 torus
    geom = TorusGeometry(2, 6)
    rng = np.random.default_rng(seed)
    u = TorusField(geom, rng.standard_normal(geom.shape))
    z = TorusField(geom, rng.standard_normal((2,) + geom.shape))
    lhs = float(np.sum(forward_gradient(u).values * z.values))
    rhs = float(np.sum(u.values[0] * backward_divergence(z).values[0]))
    assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))


def test_laplacian_identity_with_div_grad():
    u = rand_field(TorusGeometry(3, 4), 5)
    via_ops = backward_divergence(forward_gradient(u)).values[0]
    assert np.allclose(laplacian(u).values[0], -via_ops, atol=1e-12)


def test_laplacian_stencil_on_delta():
    geom = TorusGeometry(1, 4)
    neg_lap = -laplacian(TorusField.delta(geom)).values[0]
    assert list(neg_lap) == [2.0, -1.0, 0.0, -1.0]


def test_laplacian_of_constant_is_zero():
    geom = TorusGeometry(2, 5)
    u = TorusField(geom, np.full(geom.shape, -1.25))
    assert np.allclose(laplacian(u).values, 0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(SMALL_GEOMS))
def test_neg_laplacian_positive_semidefinite(seed, dl):
    geom = TorusGeometry(*dl)
    rng = np.random.default_rng(seed)
    u = TorusField(geom, rng.standard_normal(geom.shape))
    quad = -float(np.sum(laplacian(u).values[0] * u.values[0]))
    assert quad >= -1e-10
    if np.ptp(u.values) > 1e-6:
        assert quad > 0.0


def test_symbol_matches_dense_spectrum():
    for d, L in ((1, 8), (2, 5), (3, 3)):
        eigs = np.sort(np.linalg.eigvalsh(-dense_laplacian(d, L)))
        sym = np.sort(laplace_symbol(d, L).ravel())
        assert np.allclose(eigs, sym, atol=1e-9)


def test_symbol_is_write_protected():
    sym = laplace_symbol(1, 8)
    with pytest.raises(ValueError):
        sym[0] = 1.0


# ---------------------------------------------------------------- solver


def test_solver_frozen_line_example():
    # d=1, L=4, mu=1, f = delta: u = (7/15, 1/5, 2/15, 1/5)
    geom = TorusGeometry(1, 4)
    u = solve_helmholtz(1.0, TorusField.delta(geom)).values[0]
    assert np.allclose(u, [7 / 15, 1 / 5, 2 / 15, 1 / 5], atol=1e-12)


def test_solver_zero_rhs():
    geom = TorusGeometry(2, 6)
    u = solve_helmholtz(0.7, TorusField(geom, np.zeros(geom.shape)))
    assert not u.values.any()


@pytest.mark.parametrize("d,L", SMALL_GEOMS)
@pytest.mark.parametrize("mu", [0.01, 1.0, 3.0])
def test_solver_matches_dense_solve(d, L, mu):
    geom = TorusGeometry(d, L)
    rng = np.random.default_rng(L + int(100 * mu))
    f = rng.standard_normal(geom.shape)
    u = solve_helmholtz(mu, TorusField(geom, f)).values[0].reshape(-1)
    expected = dense_helmholtz(mu, d, L, f.reshape(-1))
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(u - expected)) <= 1e-10 * max(scale, 1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(SMALL_GEOMS), st.floats(1e-3, 10.0))
def test_solver_residual(seed, dl, mu):
    geom = TorusGeometry(*dl)
    rng = np.random.default_rng(seed)
    f = TorusField(geom, rng.standard_normal(geom.shape))
    u = solve_helmholtz(mu, f)
    resid = mu * u.values[0] - laplacian(u).values[0] - f.values[0]
    assert np.max(np.abs(resid)) <= 1e-10 * (np.abs(f.values).max() + np.abs(u.values).max())


def test_solver_site_sum_identity():
    geom = TorusGeometry(2, 8)
    rng = np.random.default_rng(11)
    f = TorusField(geom, rng.standard_normal(geom.shape))
    for mu in (0.25, 2.0):
        u = solve_helmholtz(mu, f)
        assert mu * u.values.sum() == pytest.approx(f.values.sum(), abs=1e-9)


def test_solver_linearity():
    geom = TorusGeometry(1, 16)
    rng = np.random.default_rng(7)
    f = TorusField(geom, rng.standard_normal(geom.shape))
    g = TorusField(geom, rng.standard_normal(geom.shape))
    combo = TorusField(geom, 2.0 * f.values[0] - 0.5 * g.values[0])
    left = solve_helmholtz(0.3, combo).values
    right = 2.0 * solve_helmholtz(0.3, f).values - 0.5 * solve_helmholtz(0.3, g).values
    assert np.allclose(left, right, atol=1e-12)


def test_solver_componentwise():
    geom = TorusGeometry(2, 6)
    rng = np.random.default_rng(13)
    z = rng.standard_normal((2,) + geom.shape)
    stacked = solve_helmholtz(0.5, TorusField(geom, z)).values
    for c in range(2):
        single = solve_helmholtz(0.5, TorusField(geom, z[c])).values[0]
        assert np.array_equal(stacked[c], single)


def test_solver_rejects_nonpositive_mu():
    geom = TorusGeometry(1, 4)
    for mu in (0.0, -1.0):
        with pytest.raises(ValueError):
            solve_helmholtz(mu, TorusField.delta(geom))
