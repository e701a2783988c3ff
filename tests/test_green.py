import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incrstat.errors import DiagnosticError
from incrstat.green import (
    DyadicGradientNorms,
    decay_rate_1d,
    dyadic_gradient_norms,
    grad_green_l2,
    green_1d_exact,
    green_1d_table,
    green_torus,
)
from incrstat.lattice import TorusGeometry, laplacian
from oracle_utils import line_green_dense


def periodized_1d(mu, L, m_range=300):
    """Oracle: G_torus(x) = sum_m G_line(x + m L), truncated far past float eps."""
    xs = np.arange(L)
    total = np.zeros(L)
    for m in range(-m_range, m_range + 1):
        total += green_1d_exact(mu, xs + m * L)
    return total


# ------------------------------------------------------------- closed form


@settings(max_examples=40, deadline=None)
@given(st.floats(1e-4, 50.0))
def test_decay_rate_solves_characteristic_equation(mu):
    lam = decay_rate_1d(mu)
    assert 0.0 < lam < 1.0
    assert lam * lam - (2.0 + mu) * lam + 1.0 == pytest.approx(0.0, abs=1e-12)


def test_decay_rate_rejects_nonpositive_mu():
    with pytest.raises(ValueError):
        decay_rate_1d(0.0)
    with pytest.raises(ValueError):
        green_1d_exact(-1.0, 0)


def test_closed_form_frozen_values():
    # mu=3: G(0) = 1/sqrt(21), G(1) = lambda/sqrt(21), lambda = (5 - sqrt(21))/2
    assert green_1d_exact(3.0, 0) == pytest.approx(1.0 / math.sqrt(21.0), rel=1e-14)
    assert green_1d_exact(3.0, 0) == pytest.approx(0.2182179, abs=5e-8)
    lam = (5.0 - math.sqrt(21.0)) / 2.0
    assert green_1d_exact(3.0, 1) == pytest.approx(lam / math.sqrt(21.0), rel=1e-13)
    # exact value is 0.04554475...; the dense line solve below pins it
    assert green_1d_exact(3.0, 1) == pytest.approx(0.045544, abs=1e-6)


def test_closed_form_matches_truncated_line_solve():
    radius = 200
    for mu in (0.01, 0.1, 1.0, 3.0):
        dense = line_green_dense(mu, radius)
        xs = np.arange(-50, 51)
        exact = green_1d_exact(mu, xs)
        rel = np.abs(exact - dense[xs + radius]) / np.abs(dense[xs + radius])
        assert np.max(rel) <= 1e-10


def test_closed_form_symmetry_and_recursion():
    xs = np.arange(-30, 31)
    for mu in (0.05, 1.0, 4.0):
        g = green_1d_exact(mu, xs)
        assert np.array_equal(g, g[::-1])
        # (mu + 2) G(x) - G(x-1) - G(x+1) = delta(x) away from the truncation edge
        resid = (mu + 2.0) * g[1:-1] - g[:-2] - g[2:]
        delta = (xs[1:-1] == 0).astype(float)
        assert np.max(np.abs(resid - delta)) <= 1e-12


def test_closed_form_scalar_and_vector_modes():
    assert isinstance(green_1d_exact(1.0, 3), float)
    arr = green_1d_exact(1.0, [0, 1, 2])
    assert isinstance(arr, np.ndarray) and arr.shape == (3,)


# ------------------------------------------------------------- torus table


@pytest.mark.parametrize(
    "d,L,mu", [(1, 64, 1.0), (1, 33, 0.2), (2, 16, 0.5), (3, 8, 0.25)]
)
def test_torus_site_sum_is_inverse_mu(d, L, mu):
    table = green_torus(mu, TorusGeometry(d, L))
    assert table.site_sum == pytest.approx(1.0 / mu, rel=1e-10)


def test_torus_positivity_and_negation_symmetry():
    for d, L, mu in ((1, 32, 0.5), (2, 12, 0.3), (3, 6, 1.0)):
        vals = green_torus(mu, TorusGeometry(d, L)).values
        assert np.all(vals > 0.0)
        idx = [(-np.arange(L)) % L] * d
        flipped = vals[np.ix_(*idx)] if d > 1 else vals[idx[0]]
        assert np.max(np.abs(vals - flipped)) <= 1e-10


def test_torus_coordinate_symmetries():
    vals = green_torus(0.4, TorusGeometry(2, 10)).values
    assert np.max(np.abs(vals - vals.T)) <= 1e-10  # axis permutation
    assert np.max(np.abs(vals - vals[:, (-np.arange(10)) % 10])) <= 1e-10  # sign flip


def test_torus_residual_everywhere():
    geom = TorusGeometry(3, 32)
    mu = 0.25
    table = green_torus(mu, geom)
    resid = mu * table.values - laplacian(table.values)
    resid[0, 0, 0] -= 1.0
    assert np.max(np.abs(resid)) <= 1e-9


def test_torus_matches_periodization_oracle():
    mu, L = 1.0, 64
    table = green_torus(mu, TorusGeometry(1, L))
    oracle = periodized_1d(mu, L)
    assert np.max(np.abs(table.values - oracle)) <= 1e-10
    assert abs(table.values[0] - oracle[0]) <= 1e-10


def test_torus_g0_decreasing_in_mu():
    geom = TorusGeometry(2, 24)
    g0 = [green_torus(mu, geom).values[0, 0] for mu in (0.1, 0.5, 1.0, 3.0)]
    assert all(a > b for a, b in zip(g0, g0[1:]))


def test_torus_wrap_estimate():
    mu, L = 1.0, 32
    table = green_torus(mu, TorusGeometry(1, L))
    assert table.wrap_estimate == pytest.approx(decay_rate_1d(mu) ** (L // 2), rel=1e-12)


def test_exact_table_mode():
    table = green_1d_table(3.0, radius=40)
    assert table.mode == "exact_1d"
    assert table.values.shape == (81,)
    assert table.grad.shape == (1, 80)
    assert table.wrap_estimate == pytest.approx(decay_rate_1d(3.0) ** 40, rel=1e-12)
    with pytest.raises(ValueError):
        green_1d_table(3.0, radius=1)


# ------------------------------------------------------------- gradient norms


def test_grad_l2_closed_form_value():
    # d=1, mu=3: 2 C^2 (1 - lambda)/(1 + lambda), C = 1/sqrt(21)
    lam = decay_rate_1d(3.0)
    expected = 2.0 * (1.0 / 21.0) * (1.0 - lam) / (1.0 + lam)
    got = grad_green_l2(3.0, TorusGeometry(1, 64))
    assert got == pytest.approx(expected, rel=1e-10)
    assert got == pytest.approx(0.06235, abs=5e-6)


def test_grad_l2_direct_summation_oracle():
    mu = 0.8
    xs = np.arange(-201, 201)
    g = green_1d_exact(mu, xs)
    direct = float(np.sum((g[1:] - g[:-1]) ** 2))
    assert grad_green_l2(mu, TorusGeometry(1, 128)) == pytest.approx(direct, rel=1e-10)


def test_grad_l2_monotone_in_mu_d1():
    geom = TorusGeometry(1, 512)
    vals = [grad_green_l2(mu, geom) for mu in (1.0, 0.1, 0.01)]
    assert vals[0] < vals[1] < vals[2]


def test_grad_l2_axis_independent():
    geom = TorusGeometry(3, 12)
    vals = [grad_green_l2(0.5, geom, axis) for axis in range(3)]
    assert all(v > 0 for v in vals)
    assert max(vals) - min(vals) <= 1e-10 * max(vals)


def test_grad_l2_rejects_bad_axis():
    with pytest.raises(ValueError):
        grad_green_l2(1.0, TorusGeometry(2, 8), axis=2)


def test_grad_l2_mu_pair_close_for_d3():
    # uniform-in-mu boundedness evidence above the critical dimension
    geom = TorusGeometry(3, 64)
    a = grad_green_l2(2.0**-4, geom)
    b = grad_green_l2(2.0**-10, geom)
    assert abs(a - b) / min(a, b) <= 0.20


def test_sup_grad_uniform_over_mu():
    # max-norm of grad G bounded by one constant over a dyadic mu sweep
    geom = TorusGeometry(3, 32)
    sups = [
        float(np.max(np.abs(green_torus(2.0**-k, geom).grad)))
        for k in range(0, 11)
    ]
    assert max(sups) <= 1.0


# ------------------------------------------------------------- dyadic annuli


def test_dyadic_slopes_d3():
    table = green_torus(1e-4, TorusGeometry(3, 64))
    for p, expected in ((1.0, 1.0), (2.0, -1.0)):
        fit = dyadic_gradient_norms(table, p)
        assert isinstance(fit, DyadicGradientNorms)
        assert fit.expected_slope == expected
        assert abs(fit.slope - expected) <= 0.5
        assert len(fit.annuli) >= 4


def test_dyadic_exact_1d_mode():
    fit = dyadic_gradient_norms(green_1d_table(0.01, radius=64), 2.0)
    assert fit.expected_slope == 1 + 2 * (1 - 1)  # d + p(1-d) with d = 1
    assert len(fit.annuli) >= 5


def test_dyadic_needs_three_annuli():
    table = green_torus(1.0, TorusGeometry(1, 8))
    with pytest.raises(DiagnosticError):
        dyadic_gradient_norms(table, 2.0)


def test_dyadic_p_range():
    table = green_torus(1.0, TorusGeometry(1, 64))
    for p in (0.5, 4.5):
        with pytest.raises(ValueError):
            dyadic_gradient_norms(table, p)
