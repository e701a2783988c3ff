"""Tests for point-set construction, pair energies, density studies, the
linearity detector, and translation reconstruction."""

import numpy as np
import pytest

from incrstat.errors import DiagnosticError, GeneratorError
from incrstat.lattice import TorusGeometry, forward_gradient
from incrstat.pointsets import (
    IntervalLaw,
    LatticeFieldWindow,
    LatticeMapSpec,
    PairPotential,
    PointSetWindow,
    cumulative_translation,
    energy,
    energy_bruteforce,
    lattice_image_pointset,
    linearity_detector,
    renewal_pointset_1d,
    thermodynamic_density,
)
from incrstat.randfields import IncrementLaw, IncrementSample
from oracle_utils import renewal_reference, reversed_map

UNIT_INTERVAL = IntervalLaw("constant", 1.0)
UNIFORM_INTERVAL = IntervalLaw("uniform", 0.5, 1.5)


def manual_increments(geometry, psi_arrays):
    """Curl-free samples built from explicit potentials, one per coordinate."""
    out = []
    for i, psi in enumerate(psi_arrays):
        zeta = forward_gradient(np.asarray(psi, dtype=float))
        out.append(
            IncrementSample(
                geometry=geometry,
                axis=i,
                values=zeta,
                generator_id="manual",
                parameters=(),
                seed=0,
                realization=0,
                curl_free=True,
            )
        )
    return out


# ---------------------------------------------------------------- interval laws


def test_interval_law_validation():
    with pytest.raises(ValueError, match="positive"):
        IntervalLaw("constant", 0.0)
    with pytest.raises(ValueError, match="nonpositive"):
        IntervalLaw("uniform", 0.0, 1.0)
    with pytest.raises(ValueError, match="lo < hi"):
        IntervalLaw("uniform", 1.0, 1.0)
    with pytest.raises(ValueError, match="rate"):
        IntervalLaw("exponential", -2.0)
    with pytest.raises(ValueError, match="unknown"):
        IntervalLaw("gamma", 1.0)


def test_interval_law_mean_and_cdf():
    assert IntervalLaw("constant", 2.0).mean == 2.0
    assert UNIFORM_INTERVAL.mean == 1.0
    assert IntervalLaw("exponential", 4.0).mean == 0.25
    u = UNIFORM_INTERVAL
    assert u.cdf(0.5) == 0.0
    assert u.cdf(1.0) == pytest.approx(0.5)
    assert u.cdf(2.0) == 1.0
    e = IntervalLaw("exponential", 1.0)
    assert e.cdf(0.0) == 0.0
    assert e.cdf(1.0) == pytest.approx(1.0 - np.exp(-1.0))
    c = IntervalLaw("constant", 1.5)
    assert c.cdf(1.4) == 0.0 and c.cdf(1.5) == 1.0


def test_interval_law_draws_positive():
    rng = np.random.default_rng(0)
    for law in (UNIT_INTERVAL, UNIFORM_INTERVAL, IntervalLaw("exponential", 3.0)):
        assert np.all(law.draw(rng, 1000) > 0)


# ---------------------------------------------------------------- renewal sets


def test_renewal_unit_intervals_is_integer_lattice():
    w = renewal_pointset_1d(UNIT_INTERVAL, (0.0, 10.0), 0)
    assert np.array_equal(w.points[:, 0], np.arange(11.0))
    assert np.array_equal(w.labels[:, 0], np.arange(11))
    assert w.generator == "renewal_constant"
    # window endpoints are inclusive and negative labels appear when reached
    w2 = renewal_pointset_1d(UNIT_INTERVAL, (-3.0, 5.0), 0)
    assert np.array_equal(w2.points[:, 0], np.arange(-3.0, 6.0))
    assert np.array_equal(w2.labels[:, 0], np.arange(-3, 6))


def test_renewal_rejects_empty_window():
    with pytest.raises(ValueError, match="empty"):
        renewal_pointset_1d(UNIT_INTERVAL, (1.0, 0.0), 0)


def test_renewal_determinism_and_seed_sensitivity():
    a = renewal_pointset_1d(UNIFORM_INTERVAL, (0.0, 50.0), 7)
    b = renewal_pointset_1d(UNIFORM_INTERVAL, (0.0, 50.0), 7)
    assert np.array_equal(a.points, b.points)
    c = renewal_pointset_1d(UNIFORM_INTERVAL, (0.0, 50.0), 8)
    assert not np.array_equal(a.points, c.points)


def test_renewal_window_nesting_bitwise():
    # the window only selects; values are a pure function of (seed, label)
    small = renewal_pointset_1d(UNIFORM_INTERVAL, (0.0, 10.0), 3)
    large = renewal_pointset_1d(UNIFORM_INTERVAL, (-20.0, 20.0), 3)
    inner = large.points_in(((0.0, 10.0),))
    assert np.array_equal(small.points, inner)
    mask = (large.points[:, 0] >= 0.0) & (large.points[:, 0] <= 10.0)
    assert np.array_equal(small.labels, large.labels[mask])


def test_renewal_shift_is_exact_reindexing():
    m = 5
    plain = renewal_pointset_1d(UNIFORM_INTERVAL, (-30.0, 30.0), 2)
    shifted = renewal_pointset_1d(UNIFORM_INTERVAL, (-10.0, 10.0), 2, shift=m)
    assert shifted.generator == "renewal_uniform_shift5"
    by_label = {int(k): x for k, x in zip(plain.labels[:, 0], plain.points[:, 0])}
    for k, x in zip(shifted.labels[:, 0], shifted.points[:, 0]):
        assert x == by_label[int(k) + m] - by_label[m]


@pytest.mark.parametrize("law", [UNIFORM_INTERVAL, IntervalLaw("exponential", 3.0)])
@pytest.mark.parametrize(
    "window, shift",
    [
        ((0.0, 50.0), 0),
        ((-40.0, -5.0), 0),
        ((-1500.0, 1500.0), 7),  # crosses blocks on both sides of X_0
        ((-20.0, 30.0), 3000),
        ((-30.0, 20.0), -3000),
        ((900.0, 1100.0), -1200),
        ((-1100.0, -1000.0), 2500),
        ((2.5, 2.5), 1),
    ],
)
def test_renewal_matches_per_point_reference_bitwise(law, window, shift):
    for seed in (0, 11, 2**40):
        w = renewal_pointset_1d(law, window, seed, shift=shift)
        labels, values = renewal_reference(law, window, seed, shift=shift)
        assert w.labels[:, 0].tolist() == labels
        assert w.points[:, 0].tobytes() == np.asarray(values, dtype=float).tobytes()


def test_renewal_count_lln():
    # 200 seeds at N = 1e4: count/N estimates 1/E[tau] = 1
    counts = np.array(
        [renewal_pointset_1d(UNIFORM_INTERVAL, (0.0, 1e4), s).n_points / 1e4
         for s in range(200)]
    )
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(counts.mean() - 1.0 / UNIFORM_INTERVAL.mean) <= 4.0 * se


@pytest.mark.parametrize(
    "law", [UNIFORM_INTERVAL, IntervalLaw("exponential", 2.0)], ids=["uniform", "exp"]
)
def test_renewal_interval_distribution(law):
    w = renewal_pointset_1d(law, (0.0, 1.2e4 * law.mean), 0)
    taus = np.diff(w.points[:, 0])[:10000]
    assert len(taus) == 10000
    xs = np.sort(taus)
    n = len(xs)
    cdf = law.cdf(xs)
    ks = max(
        float(np.max(np.abs(np.arange(1, n + 1) / n - cdf))),
        float(np.max(np.abs(cdf - np.arange(0, n) / n))),
    )
    assert ks <= 0.02
    # consecutive intervals are independent draws
    corr = float(np.corrcoef(taus[:-1], taus[1:])[0, 1])
    assert abs(corr) <= 4.0 / np.sqrt(n)


def test_renewal_rejects_nonpositive_draws():
    class BadLaw:
        kind = "bad"

        def draw(self, rng, size):
            return np.zeros(size)

    with pytest.raises(GeneratorError, match="nonpositive interval"):
        renewal_pointset_1d(BadLaw(), (0.0, 5.0), 0)


# ---------------------------------------------------------------- windows


def test_window_validation():
    with pytest.raises(ValueError, match="shape"):
        PointSetWindow(d=2, box=((0, 1), (0, 1)), points=np.zeros((3, 1)))
    with pytest.raises(ValueError, match="per axis"):
        PointSetWindow(d=2, box=((0, 1),), points=np.zeros((0, 2)))
    with pytest.raises(ValueError, match="empty"):
        PointSetWindow(d=1, box=((2.0, 1.0),), points=np.zeros((0, 1)))
    with pytest.raises(ValueError, match="leave the stated box"):
        PointSetWindow(d=1, box=((0.0, 1.0),), points=np.array([[2.0]]))


def test_window_rejects_coincident_points():
    with pytest.raises(GeneratorError, match="injectivity"):
        PointSetWindow(
            d=1, box=((0.0, 3.0),), points=np.array([[1.0], [2.0], [1.0]])
        )


@pytest.mark.parametrize(
    "points",
    [
        [[0.0], [1.0], [-0.0]],
        [[1.0, 2.0], [0.5, 0.5], [2.0, 1.0], [1.0, 2.0]],
        [[0.0, 1.0], [1.0, -0.0], [1.0, 0.0]],
    ],
)
def test_window_rejects_coincident_rows(points):
    pts = np.array(points)
    d = pts.shape[1]
    with pytest.raises(GeneratorError, match="injectivity"):
        PointSetWindow(d=d, box=((-1.0, 3.0),) * d, points=pts)


def test_window_accepts_rows_sharing_a_coordinate():
    pts = np.array([[1.0, 2.0], [1.0, 0.0], [0.0, 2.0], [2.0, 1.0]])
    labels = np.array([[1, 2], [1, 0], [0, 2], [2, 1]])
    w = PointSetWindow(d=2, box=((0.0, 2.0),) * 2, points=pts, labels=labels)
    assert w.n_points == 4


def test_window_label_validation():
    pts = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError, match="align with points"):
        PointSetWindow(d=1, box=((0.0, 1.0),), points=pts, labels=np.array([[0]]))
    with pytest.raises(ValueError, match="injective"):
        PointSetWindow(
            d=1, box=((0.0, 1.0),), points=pts, labels=np.array([[3], [3]])
        )
    with pytest.raises(ValueError, match="injective"):
        PointSetWindow(
            d=2, box=((0.0, 1.0),) * 2, points=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            labels=np.array([[4, -1], [0, 0], [4, -1]]),
        )


def test_points_in_region_checks_and_inclusivity():
    w = renewal_pointset_1d(UNIT_INTERVAL, (0.0, 10.0), 0)
    with pytest.raises(ValueError, match="per axis"):
        w.points_in(((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="exceeds the generated window"):
        w.points_in(((0.0, 11.0),))
    inner = w.points_in(((2.0, 5.0),))
    assert np.array_equal(inner[:, 0], np.array([2.0, 3.0, 4.0, 5.0]))


# ---------------------------------------------------------------- potentials


def test_potential_validation():
    with pytest.raises(ValueError, match="cutoff"):
        PairPotential("indicator", 0.0)
    with pytest.raises(ValueError, match="exponent"):
        PairPotential("power", 1.0, 0.0)
    with pytest.raises(ValueError, match="unknown"):
        PairPotential("lennard_jones", 1.0)


def test_potential_evaluate():
    ind = PairPotential("indicator", 1.5)
    r = np.array([0.0, 1.0, 1.5, 1.6])
    assert np.array_equal(ind.evaluate(r), np.array([1.0, 1.0, 1.0, 0.0]))
    pw = PairPotential("power", 3.0, exponent=1.0)
    got = pw.evaluate(np.array([0.0, 2.0, 4.0]))
    # r = 0 contributes 0 rather than a singularity
    assert np.array_equal(got, np.array([0.0, 0.5, 0.0]))


# ---------------------------------------------------------------- energy


def test_energy_few_points():
    V = PairPotential("indicator", 1.5)
    w = renewal_pointset_1d(UNIT_INTERVAL, (-2.0, 12.0), 0)
    assert energy(w, V, ((4.8, 5.2),)) == 0.0  # single point
    empty = PointSetWindow(d=1, box=((0.0, 1.0),), points=np.zeros((0, 1)))
    assert energy(empty, V, ((0.0, 1.0),)) == 0.0


def test_energy_integer_lattice_line():
    # Z with reach-1.5 indicator over [0, N]: exactly N adjacent pairs
    V = PairPotential("indicator", 1.5)
    w = renewal_pointset_1d(UNIT_INTERVAL, (-2.0, 12.0), 0)
    assert energy(w, V, ((0.0, 10.0),)) == 10.0
    assert energy_bruteforce(w, V, ((0.0, 10.0),)) == 10.0


def test_energy_square_lattice_density():
    V = PairPotential("indicator", 1.0)
    spec = LatticeMapSpec(kind="affine", d=2, matrix=((1.0, 0.0), (0.0, 1.0)))
    for M in (6, 12):
        w, _ = lattice_image_pointset(spec, ((-2, M + 2), (-2, M + 2)), 0)
        region = ((0.0, float(M)),) * 2
        e = energy(w, V, region)
        # nearest-neighbor pairs in the closed box: 2 * M * (M+1)
        assert e == float(2 * M * (M + 1))
        assert e / M**2 == pytest.approx(2.0 + 2.0 / M)


def test_energy_region_must_fit_window():
    V = PairPotential("indicator", 1.0)
    w = renewal_pointset_1d(UNIT_INTERVAL, (0.0, 10.0), 0)
    with pytest.raises(ValueError, match="exceeds"):
        energy(w, V, ((-1.0, 10.0),))


def test_energy_cell_list_matches_bruteforce_indicator_exact():
    # indicator sums count pairs, so both paths add exact ones
    V = PairPotential("indicator", 1.2)
    for seed in range(5):
        w = renewal_pointset_1d(UNIFORM_INTERVAL, (-2.0, 60.0), seed)
        assert energy(w, V, ((0.0, 58.0),)) == energy_bruteforce(w, V, ((0.0, 58.0),))


def test_energy_cell_list_matches_bruteforce_power():
    V = PairPotential("power", 1.5, exponent=2.0)
    spec = LatticeMapSpec(kind="perturbed_identity", d=2, amplitude=0.3)
    for seed in range(3):
        w, _ = lattice_image_pointset(spec, ((-2, 12), (-2, 12)), seed)
        region = ((0.0, 10.0), (0.0, 10.0))
        a = energy(w, V, region)
        b = energy_bruteforce(w, V, region)
        assert a == pytest.approx(b, rel=1e-12)


def _energy_case(d, seed):
    """A window and region in dimension d: a renewal line, a perturbed lattice,
    or uniform points in shuffled order (the sweep must sort them itself)."""
    if d == 1:
        w = renewal_pointset_1d(IntervalLaw("exponential", 1.0), (-3.0, 120.0), seed)
        return w, ((0.0, 117.0),)
    if seed % 2:
        spec = LatticeMapSpec(kind="perturbed_identity", d=d, amplitude=0.3)
        w, _ = lattice_image_pointset(spec, ((-2, 9),) * d, seed)
        return w, ((0.0, 7.0),) * d
    pts = np.random.default_rng(seed).uniform(0.0, 6.0, size=(400, d))
    return PointSetWindow(d=d, box=((0.0, 6.0),) * d, points=pts), ((0.5, 5.5),) * d


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["indicator", "power"])
def test_energy_sweep_matches_bruteforce_every_dimension(d, kind):
    V = PairPotential(kind, 1.7, exponent=1.5 if kind == "power" else 0.0)
    for seed in range(4):
        w, region = _energy_case(d, seed)
        a, b = energy(w, V, region), energy_bruteforce(w, V, region)
        assert b > 0
        if kind == "indicator":
            assert a == b
        else:
            assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("kind", ["indicator", "power"])
def test_energy_sweep_gap_at_cutoff_and_equal_x0_column(kind):
    V = PairPotential(kind, 1.5, exponent=2.0 if kind == "power" else 0.0)
    # axis-0 gap exactly the cutoff: the pair counts on the axis, not off it
    line = PointSetWindow(d=1, box=((0.0, 3.0),), points=[[0.0], [1.5], [3.0]])
    assert energy(line, V, ((0.0, 3.0),)) == energy_bruteforce(line, V, ((0.0, 3.0),))
    assert energy(line, V, ((0.0, 3.0),)) == 2 * float(V.evaluate(np.array(1.5)))
    # a column of equal x0 values, out of order, plus neighbours at gap = cutoff
    pts = [[0.0, 3.0], [1.5, 0.0], [0.0, 0.0], [1.5, 0.2], [0.0, 1.0], [0.0, 2.0], [3.1, 0.0]]
    plane = PointSetWindow(d=2, box=((0.0, 4.0), (0.0, 4.0)), points=pts)
    region = ((0.0, 4.0), (0.0, 4.0))
    a, b = energy(plane, V, region), energy_bruteforce(plane, V, region)
    assert a == pytest.approx(b, rel=1e-12)
    if kind == "indicator":
        # the column's 3 unit pairs, (0,0)-(1.5,0) at the cutoff, (1.5,0)-(1.5,0.2)
        assert a == b == 5.0


def test_energy_reproducible_bitwise():
    V = PairPotential("power", 2.0, exponent=1.0)
    w = renewal_pointset_1d(UNIFORM_INTERVAL, (-2.0, 40.0), 1)
    assert energy(w, V, ((0.0, 38.0),)) == energy(w, V, ((0.0, 38.0),))


def test_energy_additive_up_to_crossing_pairs():
    V = PairPotential("indicator", 2.0)
    w = renewal_pointset_1d(UNIFORM_INTERVAL, (-3.0, 103.0), 4)
    cut = 50.0
    assert not np.any(w.points[:, 0] == cut)  # split sits strictly between points
    whole = energy(w, V, ((0.0, 100.0),))
    left = energy(w, V, ((0.0, cut),))
    right = energy(w, V, ((cut, 100.0),))
    a = w.points_in(((0.0, cut),))
    b = w.points_in(((cut, 100.0),))
    diff = a[:, None, :] - b[None, :, :]
    cross = float(np.sum(V.evaluate(np.sqrt(np.sum(diff**2, axis=-1)))))
    assert whole == left + right + cross


# ---------------------------------------------------------------- density study


def test_density_study_validation():
    V = PairPotential("indicator", 2.0)
    with pytest.raises(ValueError, match="at least 3"):
        thermodynamic_density(UNIT_INTERVAL, V, (64, 128))
    with pytest.raises(ValueError, match="strictly increasing"):
        thermodynamic_density(UNIT_INTERVAL, V, (64, 64, 128))
    for sizes in ((0, 1, 2), (-3, -2, -1)):
        with pytest.raises(ValueError, match="positive"):
            thermodynamic_density(UNIT_INTERVAL, V, sizes)
    with pytest.raises(ValueError, match="at least 8"):
        thermodynamic_density(UNIT_INTERVAL, V, (64, 128, 256), n_seeds=4)
    with pytest.raises(ValueError, match="shift must be nonzero"):
        thermodynamic_density(UNIT_INTERVAL, V, (64, 128, 256), shift=0)


def test_density_deterministic_lattice():
    V = PairPotential("indicator", 2.0)
    st = thermodynamic_density(UNIT_INTERVAL, V, (16, 32, 64), n_seeds=8)
    # Z is seed-independent: zero cross-seed spread at every size
    assert np.all(st.spreads == 0.0)
    for i, N in enumerate(st.sizes):
        # pairs at distance 1 and 2 in the closed box [0, N]
        assert np.all(st.energies[i] == float(2 * N - 1))
        assert st.means[i] == pytest.approx(2.0 - 1.0 / N)
    assert st.shift_agrees
    assert np.all(st.shift_mean_gaps == 0.0)


def test_density_renewal_self_averaging():
    V = PairPotential("indicator", 2.0)
    st = thermodynamic_density(UNIFORM_INTERVAL, V, (64, 128, 256, 512), n_seeds=8)
    assert st.spread_decreases
    assert st.spreads[-1] < st.spreads[0]
    assert st.shift_agrees
    rows = st.rows()
    assert len(rows) == 4
    assert rows[0][0] == 64
    recs = st.records()
    assert len(recs) == 4 * 8
    assert recs[0][:2] == (64, 0)


def test_density_order_independent():
    V = PairPotential("indicator", 2.0)
    a = thermodynamic_density(UNIFORM_INTERVAL, V, (16, 32, 64), n_seeds=8)
    b = thermodynamic_density(UNIFORM_INTERVAL, V, (16, 32, 64), n_seeds=8,
                              map_fn=reversed_map)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.shifted_densities, b.shifted_densities)


# ---------------------------------------------------------------- lattice images


def test_map_spec_validation():
    with pytest.raises(ValueError, match="matrix"):
        LatticeMapSpec(kind="affine", d=2)
    with pytest.raises(ValueError, match="2x2"):
        LatticeMapSpec(kind="affine", d=2, matrix=((1.0,),))
    with pytest.raises(ValueError, match="amplitude"):
        LatticeMapSpec(kind="perturbed_identity", d=1)
    with pytest.raises(ValueError, match="injectivity"):
        LatticeMapSpec(kind="perturbed_identity", d=1, amplitude=0.5)
    with pytest.raises(ValueError, match="unknown"):
        LatticeMapSpec(kind="spiral", d=2)
    with pytest.raises(ValueError, match="at least 1"):
        LatticeMapSpec(kind="perturbed_identity", d=0, amplitude=0.1)


def test_identity_map_gives_lattice():
    spec = LatticeMapSpec(kind="affine", d=2, matrix=((1.0, 0.0), (0.0, 1.0)))
    w, field = lattice_image_pointset(spec, ((0, 4), (-1, 3)), 0)
    assert np.array_equal(w.points, field.sites().astype(float))
    assert np.array_equal(w.labels, field.sites())
    assert w.box == ((0.0, 4.0), (-1.0, 3.0))


def test_affine_increments_exact():
    # dyadic entries (matrix and offset both) make every evaluation exact
    # in binary floating point, so the increments telescope bitwise
    A = ((3.0 / 256, 1.0 / 2), (-5.0 / 256, 7.0 / 256))
    spec = LatticeMapSpec(
        kind="affine", d=2, matrix=A, b_law=IncrementLaw("constant", 0.25)
    )
    _, field = lattice_image_pointset(spec, ((0, 5), (0, 5)), 3)
    Amat = spec.A
    for l in range(2):
        inc = field.increments[l].reshape(-1, 2)
        assert np.all(inc == Amat[:, l])


def test_affine_b_law_draws_per_seed():
    A = ((1.0, 0.0), (0.0, 1.0))
    spec = LatticeMapSpec(
        kind="affine", d=2, matrix=A, b_law=IncrementLaw("uniform_centered", 1.0)
    )
    w0a, _ = lattice_image_pointset(spec, ((0, 3), (0, 3)), 0)
    w0b, _ = lattice_image_pointset(spec, ((0, 3), (0, 3)), 0)
    w1, _ = lattice_image_pointset(spec, ((0, 3), (0, 3)), 1)
    assert np.array_equal(w0a.points, w0b.points)
    assert not np.array_equal(w0a.points, w1.points)


def test_singular_affine_map_rejected():
    spec = LatticeMapSpec(kind="affine", d=2, matrix=((1.0, 1.0), (1.0, 1.0)))
    with pytest.raises(GeneratorError, match="injectivity"):
        lattice_image_pointset(spec, ((0, 3), (0, 3)), 0)


def test_ranges_must_match_dimension():
    spec = LatticeMapSpec(kind="affine", d=2, matrix=((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="per axis"):
        lattice_image_pointset(spec, ((0, 3),), 0)


def test_perturbed_zero_amplitude_is_identity():
    spec = LatticeMapSpec(kind="perturbed_identity", d=2, amplitude=0.0)
    w, field = lattice_image_pointset(spec, ((0, 4), (0, 4)), 5)
    assert np.array_equal(w.points, field.sites().astype(float))


def test_perturbed_hard_core_gap():
    amp = 0.3
    spec = LatticeMapSpec(kind="perturbed_identity", d=2, amplitude=amp)
    w, field = lattice_image_pointset(spec, ((0, 6), (0, 6)), 0)
    displ = np.max(np.abs(w.points - field.sites()))
    assert displ <= amp + 1e-12
    diff = w.points[:, None, :] - w.points[None, :, :]
    r = np.sqrt(np.sum(diff**2, axis=-1))
    np.fill_diagonal(r, np.inf)
    assert float(r.min()) >= 1.0 - 2.0 * amp - 1e-12


# ---------------------------------------------------------------- field windows


def test_field_window_validation():
    with pytest.raises(ValueError, match="per axis"):
        LatticeFieldWindow(d=2, ranges=((0, 2),), phi=np.zeros((3, 3, 2)))
    with pytest.raises(ValueError, match="nonempty"):
        LatticeFieldWindow(d=1, ranges=((2, 0),), phi=np.zeros((0, 1)))
    with pytest.raises(ValueError, match="shape"):
        LatticeFieldWindow(d=1, ranges=((0, 2),), phi=np.zeros((3, 2)))


def test_field_window_increments_match_manual_diff():
    rng = np.random.default_rng(0)
    phi = rng.normal(size=(4, 5, 2))
    f = LatticeFieldWindow(d=2, ranges=((0, 3), (-2, 2)), phi=phi)
    assert f.grid_shape == (4, 5)
    assert np.array_equal(f.increments[0], phi[1:, :, :] - phi[:-1, :, :])
    assert np.array_equal(f.increments[1], phi[:, 1:, :] - phi[:, :-1, :])
    sites = f.sites()
    assert sites.shape == (20, 2)
    assert np.array_equal(sites[0], np.array([0, -2]))
    assert np.array_equal(sites[-1], np.array([3, 2]))


def test_field_window_mean_increment_identity():
    spec = LatticeMapSpec(kind="affine", d=2, matrix=((1.0, 0.0), (0.0, 1.0)))
    _, field = lattice_image_pointset(spec, ((0, 4), (0, 4)), 0)
    assert np.array_equal(field.mean_increment(), np.eye(2))


# ---------------------------------------------------------------- detector


def test_detector_needs_side_three():
    f = LatticeFieldWindow(d=1, ranges=((0, 1),), phi=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="at least 3"):
        linearity_detector(f)


def test_detector_recovers_dyadic_affine_exactly():
    A = ((7.0 / 256, -1.0 / 4, 0.0),
         (1.0 / 8, 9.0 / 256, 3.0 / 256),
         (0.0, -3.0 / 128, 1.0))
    spec = LatticeMapSpec(
        kind="affine", d=3, matrix=A, b_law=IncrementLaw("constant", 3.0 / 8)
    )
    _, field = lattice_image_pointset(spec, ((0, 4), (0, 4), (0, 4)), 11)
    v = linearity_detector(field)
    assert v.affine
    assert v.residual == 0.0
    assert np.array_equal(v.A, spec.A)


def test_detector_full_mantissa_affine_within_tolerance():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(2, 2))
    spec = LatticeMapSpec(kind="affine", d=2, matrix=tuple(map(tuple, A)))
    _, field = lattice_image_pointset(spec, ((0, 8), (0, 8)), 0)
    v = linearity_detector(field)
    assert v.affine
    assert v.residual <= 1e-12  # rounding dust only
    assert np.allclose(v.A, A, atol=1e-9)


def test_detector_flags_perturbed_field():
    spec = LatticeMapSpec(kind="perturbed_identity", d=2, amplitude=0.3)
    _, field = lattice_image_pointset(spec, ((0, 6), (0, 6)), 0)
    v = linearity_detector(field)
    assert not v.affine
    assert v.A is None
    assert v.residual > 0.1


def test_detector_zero_amplitude_gives_identity():
    spec = LatticeMapSpec(kind="perturbed_identity", d=2, amplitude=0.0)
    _, field = lattice_image_pointset(spec, ((0, 4), (0, 4)), 9)
    v = linearity_detector(field)
    assert v.affine
    assert np.array_equal(v.A, np.eye(2))


def test_detector_shift_set_contents():
    spec = LatticeMapSpec(kind="affine", d=2, matrix=((1.0, 0.0), (0.0, 1.0)))
    _, field = lattice_image_pointset(spec, ((0, 4), (0, 4)), 0)
    v = linearity_detector(field)
    # dyadic axis shifts up to side-2, plus one diagonal probe
    assert set(v.tested_shifts) == {(1, 0), (2, 0), (0, 1), (0, 2), (1, 1)}


# ---------------------------------------------------------------- translations


def test_translation_validation():
    geom = TorusGeometry(2, 8)
    rng = np.random.default_rng(0)
    samples = manual_increments(geom, [rng.normal(size=(8, 8)) for _ in range(2)])
    with pytest.raises(ValueError, match="per coordinate"):
        cumulative_translation([], np.eye(2), (0, 0))
    with pytest.raises(ValueError, match="need 2 samples"):
        cumulative_translation(samples[:1], np.eye(2), (0, 0))
    with pytest.raises(ValueError, match="axis"):
        cumulative_translation(samples[::-1], np.eye(2), (0, 0))
    with pytest.raises(ValueError, match="2x2"):
        cumulative_translation(samples, np.eye(3), (0, 0))
    with pytest.raises(ValueError, match="coordinates"):
        cumulative_translation(samples, np.eye(2), (0, 0, 0))
    other = manual_increments(TorusGeometry(2, 4), [np.zeros((4, 4))] * 2)
    with pytest.raises(ValueError, match="geometries"):
        cumulative_translation([samples[0], other[1]], np.eye(2), (0, 0))


def test_translation_requires_curl_free_flag():
    geom = TorusGeometry(2, 8)
    vals = np.zeros((2, 8, 8))
    raw = [
        IncrementSample(geometry=geom, axis=i, values=vals,
                        generator_id="raw", parameters=(), seed=0, realization=0,
                        curl_free=False)
        for i in range(2)
    ]
    with pytest.raises(ValueError, match="not curl-free"):
        cumulative_translation(raw, np.eye(2), (1, 0))


def test_translation_zero_shift():
    geom = TorusGeometry(2, 8)
    rng = np.random.default_rng(3)
    samples = manual_increments(geom, [rng.normal(size=(8, 8)) for _ in range(2)])
    T = np.array([[1.0, 0.25], [0.0, 1.0]])
    assert np.array_equal(cumulative_translation(samples, T, (0, 0)), np.zeros(2))


def test_translation_unit_step_reproduces_increments():
    geom = TorusGeometry(3, 4)
    rng = np.random.default_rng(4)
    samples = manual_increments(geom, [rng.normal(size=(4, 4, 4)) for _ in range(3)])
    T = np.eye(3)
    origin = (0, 0, 0)
    for l in range(3):
        k = [0, 0, 0]
        k[l] = 1
        got = cumulative_translation(samples, T, k)
        inc = np.array([samples[i].values[l][origin] for i in range(3)])
        assert np.array_equal(got, T[:, l] + inc)


def test_translation_gradient_case_telescopes_to_potential():
    # dyadic potentials keep every telescoped sum exact, so the identity
    # Y_k = T k + psi(k) - psi(0) holds bitwise
    geom = TorusGeometry(2, 8)
    rng = np.random.default_rng(5)
    psis = [rng.integers(-512, 512, size=(8, 8)) / 256.0 for _ in range(2)]
    samples = manual_increments(geom, psis)
    T = np.array([[1.0, 0.0], [0.5, 1.0]])
    for k in ((3, 0), (0, 5), (3, -2), (-4, 7), (9, 11)):
        got = cumulative_translation(samples, T, k)
        site = tuple(ki % geom.L for ki in k)
        delta = np.array([psis[i][site] - psis[i][(0, 0)] for i in range(2)])
        assert np.array_equal(got, T @ np.asarray(k, dtype=float) + delta)


def test_translation_detects_forged_curl_flag():
    geom = TorusGeometry(2, 8)
    rng = np.random.default_rng(5)
    forged = []
    for i in range(2):
        vals = rng.normal(size=(2, 8, 8))
        vals -= vals.mean(axis=(1, 2), keepdims=True)
        forged.append(
            IncrementSample(geometry=geom, axis=i, values=vals,
                            generator_id="forged", parameters=(), seed=0,
                            realization=0, curl_free=True)
        )
    with pytest.raises(DiagnosticError, match="staircase paths disagree"):
        cumulative_translation(forged, np.eye(2), (2, 3))
