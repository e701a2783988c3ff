"""Tests for the regularized corrector solve, its cross-checks, the Monte
Carlo estimator, and the scaling verdict machinery."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from incrstat import corrector, lattice
from incrstat.corrector import (
    DEFAULT_MU_GRID,
    MCResult,
    gradient_defect,
    green_representation_check,
    required_side,
    scaling_study,
    second_moment_mc,
    solve_corrector,
    variance_formula_iid,
)
from incrstat.errors import BudgetError, ConfigError, DiagnosticError, GeneratorError
from incrstat.green import decay_rate_1d, green_torus
from incrstat.lattice import TorusGeometry
from incrstat.randfields import (
    GeneratorSpec,
    IncrementLaw,
    IncrementSample,
    _decay_amplitude,
    gradient_increments,
    iid_increments,
)
from oracle_utils import (
    corrector_moments_reference,
    dense_forward_diff,
    dense_laplacian,
    reversed_map,
)

UNIT_LAW = IncrementLaw("uniform_centered", 1.0)
IID_SPEC = GeneratorSpec(kind="iid", axis=0, law=UNIT_LAW)
IID_SPEC_2D = GeneratorSpec(kind="iid", axis=1, law=UNIT_LAW)


def manual_sample(geometry, component_arrays, curl_free=False):
    """IncrementSample with hand-set component values, bypassing generators."""
    vals = np.stack([np.asarray(a, dtype=float) for a in component_arrays])
    return IncrementSample(
        geometry=geometry,
        axis=0,
        values=vals,
        generator_id="manual",
        parameters=(),
        seed=0,
        realization=0,
        curl_free=curl_free,
    )


# ---------------------------------------------------------------- solve


def test_solve_rejects_nonpositive_mu():
    z = iid_increments(TorusGeometry(1, 8), 0, UNIT_LAW, 0)
    with pytest.raises(ValueError, match="mu"):
        solve_corrector(0.0, z)
    with pytest.raises(ValueError, match="mu"):
        solve_corrector(-1.0, z)


def test_zero_field_gives_zero_corrector():
    geom = TorusGeometry(2, 8)
    z = GeneratorSpec(kind="zero").realize(geom, 0)
    sol = solve_corrector(0.5, z)
    assert np.all(sol.phi == 0.0)
    assert sol.second_moment == 0.0
    assert sol.dirichlet_energy == 0.0
    assert sol.residual_max == 0.0


def test_constant_field_gives_zero_corrector():
    # the backward divergence of any constant field vanishes identically
    geom = TorusGeometry(2, 6)
    z = manual_sample(geom, [np.full(geom.shape, 3.0), np.full(geom.shape, -1.5)])
    sol = solve_corrector(1.0, z)
    assert np.all(sol.phi == 0.0)
    assert sol.second_moment == 0.0


def test_solve_matches_dense_4x4():
    geom = TorusGeometry(1, 4)
    zc = np.array([1.0, -1.0, 0.0, 0.0])
    z = manual_sample(geom, [zc])
    sol = solve_corrector(1.0, z)
    # oracle: mu*u - lap u = D^T zeta as a dense 4x4 system, mean removed
    D = dense_forward_diff(1, 4, 0)
    rhs = D.T @ zc
    u = np.linalg.solve(np.eye(4) - dense_laplacian(1, 4), rhs)
    u -= u.mean()
    assert np.max(np.abs(sol.phi - u)) <= 1e-10


def test_solution_arrays_are_read_only_and_consistent():
    geom = TorusGeometry(2, 8)
    sol = solve_corrector(0.5, iid_increments(geom, 0, UNIT_LAW, 1))
    assert sol.phi.shape == geom.shape and sol.grad.shape == (2,) + geom.shape
    assert np.array_equal(sol.grad, lattice.forward_gradient(sol.phi))
    with pytest.raises(ValueError):
        sol.phi[0, 0] = 1.0
    with pytest.raises(ValueError):
        sol.grad[1, 0, 0] = 1.0


def test_solution_invariants_random_batch():
    # residual, pinned mean, and the energy estimate on every realization
    for d, L in ((1, 32), (2, 12), (3, 6)):
        geom = TorusGeometry(d, L)
        for mu in (2.0, 0.1, 1e-3):
            for i in range(5):
                z = iid_increments(geom, 0, UNIT_LAW, 0, i)
                sol = solve_corrector(mu, z)
                phi_max = float(np.max(np.abs(sol.phi)))
                assert sol.residual_max <= 1e-9 * (1.0 + phi_max)
                assert abs(float(sol.phi.mean())) <= 1e-10
                assert sol.energy_margin >= -1e-9
                assert sol.zeta_second_moment == pytest.approx(z.second_moment())
                assert sol.source_sample_id == z.sample_id


def test_solve_shift_equivariance():
    geom = TorusGeometry(2, 16)
    z = iid_increments(geom, 0, UNIT_LAW, 3)
    shifted = IncrementSample(
        geometry=geom,
        axis=0,
        values=np.roll(z.values, (5, -3), axis=(1, 2)),
        generator_id=z.generator_id,
        parameters=z.parameters,
        seed=z.seed,
        realization=z.realization,
        curl_free=z.curl_free,
    )
    phi = solve_corrector(0.5, z).phi
    phi_shifted = solve_corrector(0.5, shifted).phi
    assert np.max(np.abs(phi_shifted - np.roll(phi, (5, -3), axis=(0, 1)))) <= 1e-12


# ---------------------------------------------------------------- certification


# every spec the MC path serves; gff exists only in d = 2
ALL_SPECS = (
    (GeneratorSpec(kind="iid", axis=0, law=UNIT_LAW), 1),
    (GeneratorSpec(kind="iid", axis=1, law=IncrementLaw("gaussian", 0.7)), 3),
    (GeneratorSpec(kind="gradient", axis=0, law=UNIT_LAW), 2),
    (GeneratorSpec(kind="gff", axis=1), 2),
    (GeneratorSpec(kind="decay_alpha", axis=0, alpha=3.0), 3),
    (GeneratorSpec(kind="decay_alpha", axis=0, alpha=1.5), 2),
    (GeneratorSpec(kind="zero"), 2),
)
SIDES = {1: 64, 2: 16, 3: 8}


@pytest.mark.parametrize("spec, d", ALL_SPECS)
def test_solve_matches_roll_pipeline_within_1e12(spec, d):
    # the kernel sums squares with einsum and scales by a cached reciprocal
    # symbol, so it agrees with the roll pipeline to rounding, not bit for bit
    geom = TorusGeometry(d, SIDES[d])
    for mu in (1.0, 0.05, 2.0**-12):
        for i in range(2):
            z = spec.realize(geom, 5, i)
            sol = solve_corrector(mu, z)
            ref = corrector_moments_reference(mu, z.values)
            second_moment, dirichlet, margin = ref
            assert abs(sol.second_moment - second_moment) <= 1e-12 * second_moment
            assert abs(sol.dirichlet_energy - dirichlet) <= 1e-12 * dirichlet
            # the margin is a difference of terms of size |zeta|^2: judge it on that scale
            assert abs(sol.energy_margin - margin) <= 1e-12 * sol.zeta_second_moment


def run_solve(mu, spec, geom):
    return solve_corrector(mu, spec.realize(geom, 0, 0))


def run_mc(mu, spec, geom):
    return second_moment_mc(mu, spec, geom, 2, 0)


def run_study(mu, spec, geom):
    grid = tuple(mu * 2.0**-k for k in range(5))
    return scaling_study(spec, geom.d, mu_grid=grid, n_per_mu=2, l_max=geom.L,
                         l_rule_coefficient=1.0)


CERTIFIED_PATHS = pytest.mark.parametrize("run", [run_solve, run_mc, run_study])


@CERTIFIED_PATHS
def test_residual_check_fires_on_perturbed_symbol(monkeypatch, run):
    exact = lattice.laplace_symbol
    monkeypatch.setattr(lattice, "laplace_symbol", lambda d, L: exact(d, L) + 1e-6)
    with pytest.raises(DiagnosticError, match="residual"):
        run(0.5, IID_SPEC_2D, TorusGeometry(2, 16))


@CERTIFIED_PATHS
def test_mean_check_fires_when_pinning_leaves_an_offset(monkeypatch, run):
    def pin_with_offset(phi):
        phi -= phi.mean() - 1e-8

    monkeypatch.setattr(corrector, "_pin_mean", pin_with_offset)
    # mu * offset stays far below the residual tolerance, so only the mean check fires
    with pytest.raises(DiagnosticError, match="mean not pinned"):
        run(0.01, IID_SPEC_2D, TorusGeometry(2, 16))


@CERTIFIED_PATHS
def test_energy_check_fires_on_shrunk_zeta_moment(monkeypatch, run):
    exact = IncrementSample.second_moment
    monkeypatch.setattr(IncrementSample, "second_moment", lambda self: 0.1 * exact(self))
    with pytest.raises(DiagnosticError, match="energy estimate violated"):
        run(0.5, IID_SPEC_2D, TorusGeometry(2, 16))


def test_unperturbed_paths_pass_the_checks():
    for run in (run_solve, run_mc, run_study):
        run(0.01, IID_SPEC_2D, TorusGeometry(2, 16))


def test_residual_check_fires_after_an_unperturbed_solve(monkeypatch):
    # an inverse symbol kept from the first solve would hide the perturbed one
    geom = TorusGeometry(2, 16)
    run_solve(0.5, IID_SPEC_2D, geom)
    exact = lattice.laplace_symbol
    monkeypatch.setattr(lattice, "laplace_symbol", lambda d, L: exact(d, L) + 1e-6)
    for run in (run_solve, run_mc, run_study):
        with pytest.raises(DiagnosticError, match="residual"):
            run(0.5, IID_SPEC_2D, geom)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_component_divergence_and_moment_are_exact(d):
    # adding the exact zeros of the other components changes no sum
    geom = TorusGeometry(d, SIDES[d])
    specs = [GeneratorSpec(kind="iid", axis=a, law=UNIT_LAW) for a in range(d)]
    specs += [GeneratorSpec(kind="zero", axis=a) for a in range(d)]
    for spec in specs:
        z = spec.realize(geom, 3, 1)
        assert z.support == (spec.axis,)
        full = dataclasses.replace(z, support=None)
        assert full.support == tuple(range(d))
        rhs, _ = corrector._divergence_hat(z)
        assert rhs.tobytes() == lattice.backward_divergence(z.values).tobytes()
        assert z.second_moment() == full.second_moment()
        assert z.second_moment() == float(np.mean(np.sum(z.values**2, axis=0)))


@pytest.mark.parametrize("spec", [IID_SPEC, GeneratorSpec(kind="decay_alpha", alpha=3.0)])
def test_realization_peak_memory_within_budget_formula(spec):
    # one task with a cold symbol cache, its inverse symbols included
    geom = TorusGeometry(3, 32)
    lattice.laplace_symbol.cache_clear()
    _decay_amplitude.cache_clear()
    tracemalloc.start()
    try:
        mus = (0.25, 0.0625, 0.015625)
        steps = tuple((mu, lattice._inverse_symbol(mu, geom.shape)) for mu in mus)
        corrector._realization_stats((spec, geom, steps, 0, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < corrector._bytes_per_site(geom.d) * geom.n_sites


@pytest.mark.parametrize("spec, d", ALL_SPECS)
@pytest.mark.parametrize("map_fn", [map, reversed_map])
def test_grouped_mc_equals_per_mu_solves_bitwise(spec, d, map_fn):
    geom = TorusGeometry(d, SIDES[d])
    mus = (0.5, 2.0**-5, 2.0**-10)
    n = 3
    grouped = corrector._second_moments_mc(mus, spec, geom, n, 11, map_fn=map_fn)
    samples = [spec.realize(geom, 11, i) for i in range(n)]
    for mu, res in zip(mus, grouped):
        sols = [solve_corrector(mu, z) for z in samples]
        moments = np.array([s.second_moment for s in sols])
        assert res.values == tuple(moments)
        assert res.mean == float(np.mean(moments))
        assert res.stderr == float(np.std(moments, ddof=1) / np.sqrt(n))
        assert res.energy_margin_min == min(s.energy_margin for s in sols)
        if samples[0].psi_second_moment is None:
            assert res.psi_mean is None
        else:
            assert res.psi_mean == float(np.mean([z.psi_second_moment for z in samples]))
        assert res == second_moment_mc(mu, spec, geom, n, 11, map_fn=map_fn)


def test_study_points_sharing_a_side_equal_single_mu_runs():
    grid = tuple(2.0 ** (-1 - i) for i in range(5))
    rep = scaling_study(IID_SPEC, 2, mu_grid=grid, n_per_mu=3, master_seed=4, l_max=16)
    assert [p.L for p in rep.points] == [12, 16, 16, 16, 16]
    for p in rep.points:
        single = second_moment_mc(p.mu, IID_SPEC, TorusGeometry(2, p.L), 3, 4)
        assert (p.mean, p.stderr, p.energy_margin_min) == (
            single.mean, single.stderr, single.energy_margin_min)


# ---------------------------------------------------------------- representation


def test_representation_zero_field():
    z = GeneratorSpec(kind="zero").realize(TorusGeometry(2, 8), 0)
    assert green_representation_check(1.0, z) == 0.0


def test_representation_agrees_with_solver():
    geom = TorusGeometry(2, 32)
    z = iid_increments(geom, 0, UNIT_LAW, 0)
    assert green_representation_check(0.5, z) <= 1e-8


def test_representation_accepts_prebuilt_table():
    geom = TorusGeometry(1, 64)
    z = iid_increments(geom, 0, UNIT_LAW, 1)
    table = green_torus(0.25, geom)
    assert green_representation_check(0.25, z, table=table) <= 1e-8


def test_representation_rejects_mismatched_table():
    geom = TorusGeometry(1, 64)
    z = iid_increments(geom, 0, UNIT_LAW, 1)
    with pytest.raises(ValueError, match="geometries"):
        green_representation_check(0.25, z, table=green_torus(0.25, TorusGeometry(1, 32)))
    with pytest.raises(ValueError, match="mu"):
        green_representation_check(0.25, z, table=green_torus(0.5, geom))


def test_representation_shift_invariant():
    geom = TorusGeometry(2, 16)
    z = iid_increments(geom, 0, UNIT_LAW, 2)
    shifted = IncrementSample(
        geometry=geom,
        axis=0,
        values=np.roll(z.values, (3, 7), axis=(1, 2)),
        generator_id=z.generator_id,
        parameters=z.parameters,
        seed=z.seed,
        realization=z.realization,
        curl_free=z.curl_free,
    )
    assert green_representation_check(0.5, shifted) <= 1e-8


# ---------------------------------------------------------------- variance formula


def test_variance_formula_degenerate_and_invalid():
    geom = TorusGeometry(1, 64)
    assert variance_formula_iid(1.0, geom, 0.0) == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        variance_formula_iid(1.0, geom, -0.5)


def test_variance_formula_closed_form():
    geom = TorusGeometry(1, 256)
    lam = decay_rate_1d(3.0)
    amp_sq = 1.0 / (9.0 + 12.0)  # 1/(mu^2 + 4 mu) at mu = 3
    exact = 2.0 * amp_sq * (1.0 - lam) / (1.0 + lam)
    got = variance_formula_iid(3.0, geom, 1.0)
    assert got == pytest.approx(exact, rel=1e-10)
    assert got == pytest.approx(0.06235, abs=5e-6)
    # scaling in var_a is exactly linear
    assert variance_formula_iid(3.0, geom, 2.5) == pytest.approx(2.5 * got, rel=1e-14)


# ---------------------------------------------------------------- Monte Carlo


def test_mc_needs_two_realizations():
    with pytest.raises(ValueError, match="at least 2"):
        second_moment_mc(1.0, GeneratorSpec(kind="zero"), TorusGeometry(1, 8), 1, 0)


def test_mc_zero_generator():
    res = second_moment_mc(1.0, GeneratorSpec(kind="zero"), TorusGeometry(1, 8), 4, 0)
    mean, stderr = res
    assert mean == 0.0 and stderr == 0.0
    assert res.n == 4
    assert res.values == (0.0, 0.0, 0.0, 0.0)
    assert res.psi_mean is None
    assert res.energy_margin_min == 0.0


def test_mc_matches_variance_formula():
    geom = TorusGeometry(1, 256)
    spec = GeneratorSpec(kind="iid", axis=0, law=UNIT_LAW)
    res = second_moment_mc(0.25, spec, geom, 200, 0)
    target = variance_formula_iid(0.25, geom, UNIT_LAW.variance)
    assert res.stderr > 0.0
    assert abs(res.mean - target) <= 3.0 * res.stderr
    assert res.energy_margin_min >= -1e-9


def test_mc_values_match_per_index_solves():
    # realization i is exactly the field seeded at (master, field-domain, i)
    geom = TorusGeometry(1, 32)
    spec = GeneratorSpec(kind="iid", axis=0, law=UNIT_LAW)
    res = second_moment_mc(0.5, spec, geom, 5, 9)
    for i in range(5):
        direct = solve_corrector(0.5, spec.realize(geom, 9, i)).second_moment
        assert res.values[i] == direct


def test_mc_bit_stable_under_reordered_schedule():
    geom = TorusGeometry(1, 64)
    spec = GeneratorSpec(kind="iid", axis=0, law=UNIT_LAW)
    a = second_moment_mc(0.25, spec, geom, 16, 0)
    b = second_moment_mc(0.25, spec, geom, 16, 0, map_fn=reversed_map)
    assert a.values == b.values
    assert a.mean == b.mean
    assert a.stderr == b.stderr


def test_mc_propagates_generator_failure_with_index():
    spec = GeneratorSpec(kind="iid", axis=3, law=UNIT_LAW)
    with pytest.raises(GeneratorError, match="failed at realization 0"):
        second_moment_mc(1.0, spec, TorusGeometry(1, 8), 4, 0)


def test_mc_gradient_reports_psi_mean():
    geom = TorusGeometry(1, 64)
    spec = GeneratorSpec(kind="gradient", axis=0, law=UNIT_LAW)
    res = second_moment_mc(0.25, spec, geom, 20, 0)
    assert res.psi_mean is not None and res.psi_mean > 0.0
    # spectral multiplier bound: site-avg phi^2 <= site-avg psi^2
    assert res.mean <= res.psi_mean + 1e-12


def test_mcresult_unpacks_as_pair():
    res = MCResult(mean=1.0, stderr=0.1, n=3, energy_margin_min=0.0,
                   psi_mean=None, values=(1.0, 1.0, 1.0))
    m, s = res
    assert (m, s) == (1.0, 0.1)


# ---------------------------------------------------------------- gradient defect


def test_gradient_defect_decreases_with_mu():
    z = gradient_increments(TorusGeometry(1, 64), 0, UNIT_LAW, 0)
    defects = [gradient_defect(solve_corrector(mu, z), z) for mu in (1.0, 0.1, 0.01, 1e-4)]
    assert all(b < a for a, b in zip(defects, defects[1:]))
    assert defects[-1] <= 1e-3


def test_gradient_defect_zero_field():
    z = GeneratorSpec(kind="zero").realize(TorusGeometry(1, 16), 0)
    assert gradient_defect(solve_corrector(1.0, z), z) == 0.0


# ---------------------------------------------------------------- L rule


def test_required_side_values():
    assert required_side(1.0) == 8
    assert required_side(0.25) == 16
    assert required_side(2.0**-4) == 32
    assert required_side(100.0) == 4  # floor at the smallest usable torus
    assert required_side(1.0, coefficient=2.0) == 4


def test_required_side_even_and_sufficient():
    for mu in (0.3, 0.07, 0.011, 2.0**-9):
        L = required_side(mu)
        assert L % 2 == 0
        assert L >= 8.0 / np.sqrt(mu)
        assert L - 2 < max(4, 8.0 / np.sqrt(mu)) + 1


# ---------------------------------------------------------------- scaling study


def test_grid_validation():
    with pytest.raises(ConfigError, match="at least 5"):
        scaling_study(IID_SPEC, 1, mu_grid=(0.5, 0.25, 0.125, 0.0625))
    with pytest.raises(ConfigError, match="positive"):
        scaling_study(IID_SPEC, 1, mu_grid=(0.5, 0.25, 0.125, 0.0625, -1.0))
    with pytest.raises(ConfigError, match="geometric"):
        scaling_study(IID_SPEC, 1, mu_grid=(1.0, 0.5, 0.25, 0.2, 0.1))
    with pytest.raises(ConfigError, match="ratio"):
        scaling_study(IID_SPEC, 1, mu_grid=(0.5,) * 5)
    with pytest.raises(ConfigError, match="n_per_mu"):
        scaling_study(IID_SPEC, 1, n_per_mu=1)
    with pytest.raises(ConfigError, match="l_max"):
        scaling_study(IID_SPEC, 1, l_max=1)
    with pytest.raises(ConfigError, match="budget"):
        scaling_study(IID_SPEC, 1, memory_budget_mb=0.0)


def test_budget_refusal_before_any_computation():
    # required side at mu_max = 0.25 is 16; a cap of 8 cannot start
    with pytest.raises(BudgetError, match="cap L=8"):
        scaling_study(IID_SPEC, 1, n_per_mu=5, l_max=8)


def test_default_grid_shape():
    assert len(DEFAULT_MU_GRID) == 6
    assert DEFAULT_MU_GRID[0] == 0.25
    ratios = {DEFAULT_MU_GRID[i + 1] / DEFAULT_MU_GRID[i] for i in range(5)}
    assert ratios == {0.25}


def test_scaling_d1_iid_powerlaw_verdict():
    rep = scaling_study(IID_SPEC, 1, n_per_mu=30, master_seed=0)
    assert rep.verdict == "diverging-powerlaw"
    assert -0.6 <= rep.fits.loglog_slope <= -0.4
    assert rep.fits.loglog_r2 >= 0.9
    assert rep.fits.boundedness_ratio > 1.5
    assert "slope" in rep.verdict_reason
    assert rep.l_cap is None
    for p in rep.points:
        assert p.L == required_side(p.mu)
        assert not p.capped
        assert p.stderr > 0.0
        assert p.energy_margin_min >= -1e-9


def test_scaling_d3_iid_bounded_verdict_with_cap():
    grid = tuple(2.0 ** (-1 - i) for i in range(5))
    rep = scaling_study(IID_SPEC, 3, mu_grid=grid, n_per_mu=10, master_seed=0, l_max=16)
    assert rep.verdict == "bounded"
    assert rep.fits.boundedness_ratio <= 1.5
    assert rep.l_cap == 16
    assert [p.capped for p in rep.points] == [False, False, True, True, True]
    assert all(p.L == 16 for p in rep.points if p.capped)


def test_scaling_gradient_bounded_on_small_mu_grid():
    grid = tuple(2.0 ** (-4 - 2 * i) for i in range(5))
    spec = GeneratorSpec(kind="gradient", axis=0, law=UNIT_LAW)
    rep = scaling_study(spec, 1, mu_grid=grid, n_per_mu=10, master_seed=0)
    assert rep.verdict == "bounded"
    for p in rep.points:
        assert p.psi_mean is not None
        assert p.mean <= p.psi_mean + 1e-12


def test_scaling_report_serializable_and_csv():
    grid = tuple(2.0 ** (-1 - i) for i in range(5))
    rep = scaling_study(IID_SPEC, 1, mu_grid=grid, n_per_mu=5, master_seed=0)
    blob = json.loads(json.dumps(rep.to_dict()))
    assert blob["verdict"] == rep.verdict
    assert blob["d"] == 1
    assert blob["generator"]["kind"] == "iid"
    assert len(blob["points"]) == 5
    assert rep.CSV_HEADER == ("mu", "mean", "stderr", "L", "n")
    rows = rep.csv_rows()
    assert len(rows) == 5
    assert rows[0] == (grid[0], rep.points[0].mean, rep.points[0].stderr,
                       rep.points[0].L, 5)


def test_scaling_bit_stable_under_reordered_schedule():
    grid = tuple(2.0 ** (-1 - i) for i in range(5))
    a = scaling_study(IID_SPEC, 1, mu_grid=grid, n_per_mu=8, master_seed=0)
    b = scaling_study(IID_SPEC, 1, mu_grid=grid, n_per_mu=8, master_seed=0,
                      map_fn=reversed_map)
    assert a.csv_rows() == b.csv_rows()
    assert a.verdict == b.verdict
