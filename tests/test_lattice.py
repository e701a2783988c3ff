import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incrstat.lattice import (
    TorusField,
    TorusGeometry,
    _from_half_spectrum,
    _half_spectrum,
    _half_symbol,
    _inverse_symbol,
    _neighbour_diff,
    _subtract_neighbour,
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


def rand_field(geom, seed, components=None):
    """A random scalar field, or a (components,) + shape vector field."""
    shape = geom.shape if components is None else (components,) + geom.shape
    return np.random.default_rng(seed).standard_normal(shape)


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
    f = TorusField(TorusGeometry(1, 8), rand_field(TorusGeometry(1, 8), 0))
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
    geom = TorusGeometry(2, 5)
    f = TorusField(geom, rand_field(geom, 3, components=2))
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
    g = shift(np.array([0.0, 1.0, 2.0, 3.0]), [1])  # g(x) = f(x + 1)
    assert list(g) == [1.0, 2.0, 3.0, 0.0]


def test_shift_rejects_wrong_length():
    f = rand_field(TorusGeometry(2, 4), 0)
    for k in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="shift vector has"):
            shift(f, k)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(SMALL_GEOMS))
def test_shift_group_law(seed, dl):
    geom = TorusGeometry(*dl)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(geom.shape)
    k = rng.integers(-6, 7, size=geom.d)
    m = rng.integers(-6, 7, size=geom.d)
    assert np.array_equal(shift(shift(f, k), m), shift(f, k + m))
    assert np.array_equal(shift(f, np.zeros(geom.d, dtype=int)), f)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(SMALL_GEOMS))
def test_shift_equals_np_roll(seed, dl):
    geom = TorusGeometry(*dl)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(geom.shape)
    k = rng.integers(-2 * geom.L, 2 * geom.L + 1, size=geom.d)
    # an index gather, independent of np.roll, which shift calls
    gathered = f[np.ix_(*[(np.arange(n) + kl) % n for n, kl in zip(f.shape, k)])]
    assert shift(f, k).tobytes() == gathered.tobytes()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(SMALL_GEOMS))
def test_shift_preserves_value_multiset(seed, dl):
    geom = TorusGeometry(*dl)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(geom.shape)
    g = shift(f, rng.integers(-5, 6, size=geom.d))
    assert np.array_equal(np.sort(f.ravel()), np.sort(g.ravel()))


# ---------------------------------------------------------------- operators


def test_gradient_line_example():
    u = np.array([0.0, 1.0, 0.0, 0.0])
    assert list(forward_gradient(u)[0]) == [1.0, -1.0, 0.0, 0.0]


def test_gradient_of_constant_is_zero():
    assert not forward_gradient(np.full(TorusGeometry(3, 4).shape, 2.5)).any()


def test_gradient_components_telescope():
    z = forward_gradient(rand_field(TorusGeometry(2, 6), 1))
    sums = z.sum(axis=(1, 2))
    assert np.allclose(sums, 0.0, atol=1e-12)


def test_divergence_of_constant_is_zero():
    assert not backward_divergence(np.ones((2,) + TorusGeometry(2, 5).shape)).any()


def test_divergence_site_sum_vanishes():
    z = rand_field(TorusGeometry(3, 4), 2, components=3)
    assert abs(backward_divergence(z).sum()) < 1e-12


def test_divergence_component_count():
    geom = TorusGeometry(2, 4)
    for c in (1, 3):
        with pytest.raises(ValueError, match="expects 2 components, got " + str(c)):
            backward_divergence(np.zeros((c,) + geom.shape))
    with pytest.raises(ValueError, match="expects 0 components"):
        backward_divergence(np.zeros(geom.L))  # a scalar field on the line


@pytest.mark.parametrize("d,L", SMALL_GEOMS)
def test_operators_match_dense_matrices(d, L):
    geom = TorusGeometry(d, L)
    rng = np.random.default_rng(d * 100 + L)
    u = rng.standard_normal(geom.shape)
    flat = u.reshape(-1)

    grad = forward_gradient(u)
    for axis in range(d):
        expected = dense_forward_diff(d, L, axis) @ flat
        assert np.allclose(grad[axis].reshape(-1), expected, atol=1e-12)

    z = rng.standard_normal((d,) + geom.shape)
    div = backward_divergence(z).reshape(-1)
    expected = np.zeros(L**d)
    for axis in range(d):
        expected += dense_forward_diff(d, L, axis).T @ z[axis].reshape(-1)
    assert np.allclose(div, expected, atol=1e-12)

    lap = laplacian(u).reshape(-1)
    assert np.allclose(lap, dense_laplacian(d, L) @ flat, atol=1e-12)


def strided_copy(a):
    """A copy of a whose flat view cannot exist: every other entry of a longer first axis."""
    b = np.empty((2 * a.shape[0],) + a.shape[1:])[::2]
    b[...] = a
    return b


@pytest.mark.parametrize("shape", [(9,), (5, 7), (3, 4, 6), (4, 3, 5, 6)])
def test_stencils_equal_roll_on_batches_and_strided_arrays(shape):
    # along the last axis a C-contiguous out takes one flat pass, a strided
    # one the slice stencil; (4, 3, 5, 6) is a batch of four 3-D fields
    rng = np.random.default_rng(len(shape))
    v = rng.standard_normal(shape)
    for src in (v, strided_copy(v)):
        for axis in range(len(shape)):
            for step in (1, -1):
                expected = np.roll(src, -step, axis) - src
                for out in (np.empty(shape), strided_copy(np.empty(shape))):
                    assert np.array_equal(_neighbour_diff(src, axis, step, out), expected)


# sides 2 and 3 put every site next to the wrap; (4, 3, 5, 6) is a batch of four 3-D fields
SUBTRACT_SHAPES = [(2,), (3,), (9,), (2, 3), (3, 2), (2, 2, 3), (3, 3, 2), (5, 7), (3, 4, 6), (4, 3, 5, 6)]


@pytest.mark.parametrize("shape", SUBTRACT_SHAPES)
def test_subtract_neighbour_equals_roll_on_batches_and_strided_arrays(shape):
    # along the last axis a C-contiguous v and out take one flat pass and a
    # wrap column fixed afterwards, anything else the slice stencil
    rng = np.random.default_rng(sum(shape))
    v = rng.standard_normal(shape)
    acc = rng.standard_normal(shape)
    for src in (v, strided_copy(v)):
        for axis in range(len(shape)):
            for step in (1, -1):
                expected = acc - np.roll(src, -step, axis)
                for out in (acc.copy(), strided_copy(acc)):
                    assert _subtract_neighbour(src, axis, step, out) is out
                    assert np.array_equal(out, expected)


@pytest.mark.parametrize("d, L, k", [(1, 2, 3), (1, 3, 1), (1, 17, 4), (2, 2, 2), (2, 3, 3),
                                     (2, 8, 1), (3, 2, 2), (3, 3, 1), (3, 6, 2)])
def test_neighbour_residual_matches_divergence_of_gradient(d, L, k):
    # (mu + 2d) phi - rhs - sum_l [phi(x + e_l) + phi(x - e_l)] is the
    # corrector's residual mu phi + D*.(D phi) - rhs in another order of
    # rounding: for each row of a (k,) + shape batch, within 1e-14 of the
    # largest term
    rng = np.random.default_rng(100 * d + L)
    mu = 0.3
    phi = rng.standard_normal((k,) + (L,) * d)
    rhs = rng.standard_normal(phi.shape)
    residual = np.multiply(phi, mu + 2 * d)
    residual -= rhs
    for l in range(1, d + 1):
        _subtract_neighbour(phi, l, 1, residual)
        _subtract_neighbour(phi, l, -1, residual)
    for row, phi_row, rhs_row in zip(residual, phi, rhs):
        expected = mu * phi_row + backward_divergence(forward_gradient(phi_row)) - rhs_row
        scale = (mu + 4 * d) * np.max(np.abs(phi_row)) + np.max(np.abs(rhs_row))
        assert np.max(np.abs(row - expected)) <= 1e-14 * scale


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31))
def test_adjointness(seed):
    # <grad u, z> = <u, div* z> on the d=2, L=6 torus
    geom = TorusGeometry(2, 6)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(geom.shape)
    z = rng.standard_normal((2,) + geom.shape)
    lhs = float(np.sum(forward_gradient(u) * z))
    rhs = float(np.sum(u * backward_divergence(z)))
    assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))


def test_laplacian_identity_with_div_grad():
    u = rand_field(TorusGeometry(3, 4), 5)
    via_ops = backward_divergence(forward_gradient(u))
    assert np.allclose(laplacian(u), -via_ops, atol=1e-12)


def test_laplacian_stencil_on_delta():
    neg_lap = -laplacian(np.array([1.0, 0.0, 0.0, 0.0]))
    assert list(neg_lap) == [2.0, -1.0, 0.0, -1.0]


def test_laplacian_of_constant_is_zero():
    u = np.full(TorusGeometry(2, 5).shape, -1.25)
    assert np.allclose(laplacian(u), 0.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(SMALL_GEOMS))
def test_neg_laplacian_positive_semidefinite(seed, dl):
    geom = TorusGeometry(*dl)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(geom.shape)
    quad = -float(np.sum(laplacian(u) * u))
    assert quad >= -1e-10
    if np.ptp(u) > 1e-6:
        assert quad > 0.0


def test_symbol_matches_dense_spectrum():
    for d, L in ((1, 8), (2, 5), (3, 3)):
        eigs = np.sort(np.linalg.eigvalsh(-dense_laplacian(d, L)))
        sym = np.sort(laplace_symbol(d, L).ravel())
        assert np.allclose(eigs, sym, atol=1e-9)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [2, 3, 5, 16, 33, 64, 96])
def test_half_symbol_bitwise_equals_sliced_full_symbol(d, L):
    half = _half_symbol(d, L)
    assert half.shape == (L,) * (d - 1) + (L // 2 + 1,)
    assert half.tobytes() == np.ascontiguousarray(laplace_symbol(d, L)[..., : L // 2 + 1]).tobytes()


def test_inverse_symbol_writes_one_array_for_every_mu():
    sym = _half_symbol(2, 6)
    solution = np.empty((6, 6))
    for mu in (0.5, 2.0**-9):
        inverse = _inverse_symbol(mu, 2, solution)
        assert np.shares_memory(inverse, solution)
        assert inverse.tobytes() == (1.0 / (mu + sym)).tobytes()
        assert solution.reshape(-1)[: sym.size].tobytes() == inverse.tobytes()
    for mu in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="mu must be positive"):
            _inverse_symbol(mu, 2, solution)


def summed_half_symbol(d, L):
    """The half-spectrum symbol as a zero array plus each axis line in turn, broadcast over all of it."""
    line = 4.0 * np.sin(np.pi * np.arange(L) / L) ** 2
    s = np.zeros((L,) * (d - 1) + (L // 2 + 1,))
    for l in range(d):
        view = [1] * d
        view[l] = s.shape[l]
        s += line[: s.shape[l]].reshape(view)
    return s


@pytest.mark.parametrize("d, L", [(d, L) for d in (1, 2, 3) for L in (2, 3, 7, 8, 96)]
                         + [(1, 8193), (2, 129)])
def test_inverse_symbol_bitwise_equals_inverse_of_summed_symbol(d, L):
    # the inverse is built from a (L,)*(d-1) table of lines and the last
    # line, with the same additions in the same order as a whole-array sum
    symbol = summed_half_symbol(d, L)
    assert _half_symbol(d, L).tobytes() == symbol.tobytes()
    for mu in (0.3, 0.25, 2.0**-12):
        inverse = _inverse_symbol(mu, d, np.empty((L,) * d))
        assert inverse.tobytes() == (1.0 / (mu + symbol)).tobytes()


# (d, L, rows k): even and odd sides, the smallest included, one row and several
TRANSFORM_CASES = [(d, L, k) for d, sides in ((1, (2, 9, 64)), (2, (3, 8, 15)), (3, (2, 5, 12)))
                   for L in sides for k in (1, 3)]


@pytest.mark.parametrize("d, L, k", TRANSFORM_CASES)
def test_transform_pair_bitwise_equals_rfftn_pair(d, L, k):
    shape = (k,) + (L,) * d
    axes = tuple(range(1, d + 1))
    x = np.random.default_rng(L + 10 * d + k).standard_normal(shape)
    before = x.copy()
    spectrum = _half_spectrum(x, d)
    assert spectrum.tobytes() == np.fft.rfftn(x, axes=axes).tobytes()
    assert x.tobytes() == before.tobytes()
    out = np.empty(shape)
    assert _from_half_spectrum(spectrum.copy(), out, d) is out
    assert out.tobytes() == np.fft.irfftn(spectrum, s=shape[1:], axes=axes).tobytes()
    # and on a single field, whose leading axis is spatial
    field = x[0]
    assert _half_spectrum(field, d).tobytes() == np.fft.rfftn(field).tobytes()
    one = np.empty(field.shape)
    _from_half_spectrum(np.fft.rfftn(field), one, d)
    expected = np.fft.irfftn(np.fft.rfftn(field), s=field.shape, axes=tuple(range(d)))
    assert one.tobytes() == expected.tobytes()


# ---------------------------------------------------------------- solver


def test_solver_frozen_line_example():
    # d=1, L=4, mu=1, f = delta: u = (7/15, 1/5, 2/15, 1/5)
    u = solve_helmholtz(1.0, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(u, [7 / 15, 1 / 5, 2 / 15, 1 / 5], atol=1e-12)


def test_solver_zero_rhs():
    geom = TorusGeometry(2, 6)
    assert not solve_helmholtz(0.7, np.zeros(geom.shape)).any()


@pytest.mark.parametrize("d,L", SMALL_GEOMS)
@pytest.mark.parametrize("mu", [0.01, 1.0, 3.0])
def test_solver_matches_dense_solve(d, L, mu):
    geom = TorusGeometry(d, L)
    rng = np.random.default_rng(L + int(100 * mu))
    f = rng.standard_normal(geom.shape)
    u = solve_helmholtz(mu, f).reshape(-1)
    expected = dense_helmholtz(mu, d, L, f.reshape(-1))
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(u - expected)) <= 1e-10 * max(scale, 1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31), st.sampled_from(SMALL_GEOMS), st.floats(1e-3, 10.0))
def test_solver_residual(seed, dl, mu):
    geom = TorusGeometry(*dl)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(geom.shape)
    u = solve_helmholtz(mu, f)
    resid = mu * u - laplacian(u) - f
    assert np.max(np.abs(resid)) <= 1e-10 * (np.abs(f).max() + np.abs(u).max())


def test_solver_site_sum_identity():
    geom = TorusGeometry(2, 8)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(geom.shape)
    for mu in (0.25, 2.0):
        assert mu * solve_helmholtz(mu, f).sum() == pytest.approx(f.sum(), abs=1e-9)


def test_solver_linearity():
    geom = TorusGeometry(1, 16)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(geom.shape)
    g = rng.standard_normal(geom.shape)
    left = solve_helmholtz(0.3, 2.0 * f - 0.5 * g)
    right = 2.0 * solve_helmholtz(0.3, f) - 0.5 * solve_helmholtz(0.3, g)
    assert np.allclose(left, right, atol=1e-12)


# tracemalloc peak bound of one warm solve, in field sizes. At d=1 and d=2
# numpy's float-to-complex cast buffer of the multiply (8192 elements at
# most) sits beside the solution; at d=3, L=64 it is a small share.
SOLVER_PEAK_FIELDS = {(1, 4096): 3.25, (2, 128): 3.25, (3, 32): 3.25, (3, 64): 2.3}


@pytest.mark.parametrize("d, L", list(SOLVER_PEAK_FIELDS))
def test_solver_peak_memory_within_three_and_a_quarter_fields(d, L):
    # f, its half spectrum multiplied in place, and the solution, in which
    # the inverse symbol is built; an inverse of its own, or a product out
    # of place, exceeds the bound
    f = rand_field(TorusGeometry(d, L), 0)
    solve_helmholtz(0.5, f)  # numpy's one-time set-up
    tracemalloc.start()
    try:
        solve_helmholtz(0.5, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= SOLVER_PEAK_FIELDS[d, L] * f.nbytes


def test_solver_rejects_nonpositive_mu():
    for mu in (0.0, -1.0):
        with pytest.raises(ValueError):
            solve_helmholtz(mu, np.array([1.0, 0.0, 0.0, 0.0]))


@pytest.mark.parametrize(
    "shape, message",
    [
        ((), "dimension must be 1, 2 or 3, got 0"),
        ((4,) * 4, "dimension must be 1, 2 or 3, got 4"),
        ((1,), "torus side must be >= 2, got 1"),
        ((4, 1), "torus side must be >= 2, got 1"),
        ((4, 5), r"field shape \(4, 5\) is not a cubic torus"),
        ((2, 6, 6), r"field shape \(2, 6, 6\) is not a cubic torus"),
    ],
)
def test_solver_rejects_non_torus_shapes(shape, message):
    with pytest.raises(ValueError, match=message):
        solve_helmholtz(1.0, np.zeros(shape))
