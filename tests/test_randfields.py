"""Tests for the increment-field generators and the covariance estimator.

Statistical assertions run at pinned seeds, so every number below is
deterministic; tolerances were chosen against the exact target where one
exists (spectral expectations) and against 4-standard-error bands
otherwise.
"""

import itertools
import pickle
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incrstat import randfields, seeding
from incrstat.corrector import scaling_study
from incrstat.errors import GeneratorError
from incrstat.lattice import TorusGeometry, forward_gradient
from incrstat.randfields import (
    CLAMP_WARN_FRACTION,
    GeneratorSpec,
    IncrementLaw,
    IncrementSample,
    clamp_spectrum,
    empirical_covariance,
)
from incrstat.pointsets import IntervalLaw, PairPotential, thermodynamic_density
from incrstat.seeding import STREAM_BLOCK, derive_rng, derive_rngs, derive_seed

from oracle_utils import (
    complex_fft_synthesis_reference,
    rfftn_pair_synthesis_reference,
    roll_covariance_reference,
)


def curl_max(sample: IncrementSample) -> float:
    """Largest entry of D_l zeta_m - D_m zeta_l over all component pairs."""
    geom = sample.geometry
    grads = [forward_gradient(sample.values[l]) for l in range(geom.d)]
    return max(
        float(np.max(np.abs(grads[l][m] - grads[m][l])))
        for l in range(geom.d)
        for m in range(geom.d)
    )


# ---------------------------------------------------------------- laws


def test_law_validation():
    with pytest.raises(ValueError):
        IncrementLaw("uniform_centered", 0.0)
    with pytest.raises(ValueError):
        IncrementLaw("uniform_centered", -1.0)
    with pytest.raises(ValueError):
        IncrementLaw("gaussian", 0.0)
    with pytest.raises(ValueError):
        IncrementLaw("bernoulli_pm", 0.0)
    with pytest.raises(ValueError):
        IncrementLaw("bernoulli_pm", 1.0)
    with pytest.raises(ValueError):
        IncrementLaw("triangular", 1.0)


def test_law_variance_values():
    assert IncrementLaw("uniform_centered", 1.0).variance == pytest.approx(1.0 / 12.0)
    assert IncrementLaw("gaussian", 0.5).variance == pytest.approx(0.25)
    assert IncrementLaw("bernoulli_pm", 0.25).variance == pytest.approx(0.75)
    assert IncrementLaw("constant", 7.0).variance == 0.0


def test_law_draw_supports():
    rng = np.random.default_rng(0)
    u = IncrementLaw("uniform_centered", 2.0).fill([rng], np.empty((1, 1000)))
    assert np.all(np.abs(u) <= 1.0)
    b = IncrementLaw("bernoulli_pm", 0.3).fill([rng], np.empty((1, 1000)))
    assert set(np.unique(b)) == {-1.0, 1.0}
    c = IncrementLaw("constant", 3.0).fill([rng], np.empty((1, 5)))
    assert np.all(c == 3.0)


# ---------------------------------------------------------------- iid


def test_iid_component_structure():
    geom = TorusGeometry(2, 16)
    law = IncrementLaw("uniform_centered", 1.0)
    s = GeneratorSpec("iid", 1, law).realize(geom, 3)
    assert s.axis == 1
    assert not s.curl_free
    assert s.generator_id == "iid_uniform_centered"
    assert s.parameters == (1.0,)
    assert s.psi_second_moment is None
    assert s.clamped_mass_fraction is None
    # the active component carries the draw, the other vanishes identically
    assert np.all(s.values[0] == 0.0)
    assert np.any(s.values[1] != 0.0)


@pytest.mark.parametrize(
    "law",
    [
        IncrementLaw("uniform_centered", 1.0),
        IncrementLaw("gaussian", 2.0),
        IncrementLaw("bernoulli_pm", 0.3),
    ],
)
def test_iid_zero_empirical_mean(law):
    s = GeneratorSpec("iid", 0, law).realize(TorusGeometry(1, 128), 1)
    # centering is exact empirical subtraction; only rounding dust remains
    assert abs(float(s.values[0].mean())) <= 1e-14 * max(float(np.abs(s.values).max()), 1.0)


def test_iid_variance_matches_law():
    # law of large numbers at L=256: 4 standard errors of the sample variance
    law = IncrementLaw("uniform_centered", 1.0)
    s = GeneratorSpec("iid", 0, law).realize(TorusGeometry(1, 256), 0)
    v = s.values[0]
    var = float(np.mean(v * v))
    m4 = float(np.mean(v**4))
    se = np.sqrt(max(m4 - var**2, 0.0) / v.size)
    assert abs(var - law.variance) <= 4.0 * se


def test_iid_nonzero_lags_insignificant():
    spec = GeneratorSpec("iid", 0, IncrementLaw("uniform_centered", 1.0))
    est = empirical_covariance(spec, TorusGeometry(1, 64), 100, 0, [(1,), (2,), (4,), (8,)])
    for j in range(len(est.lags)):
        assert abs(est.cov[j, 0, 0]) <= 4.0 * est.stderr[j, 0, 0]
    # nothing survives the significance filter, so no exponent is reported
    assert est.alpha_hat is None
    assert est.alpha_halfwidth is None
    assert est.n_fit_entries == 0


def test_iid_determinism_bitwise():
    geom = TorusGeometry(2, 8)
    law = IncrementLaw("gaussian", 1.0)
    spec = GeneratorSpec("iid", 0, law)
    a = spec.realize(geom, 5, 2)
    b = spec.realize(geom, 5, 2)
    assert np.array_equal(a.values, b.values)
    c = spec.realize(geom, 5, 3)
    assert not np.array_equal(a.values, c.values)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["uniform_centered", "gaussian", "bernoulli_pm"]),
    param=st.floats(min_value=0.1, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_iid_seed_determinism_property(kind, param, seed):
    geom = TorusGeometry(1, 8)
    spec = GeneratorSpec("iid", 0, IncrementLaw(kind, param))
    a = spec.realize(geom, seed)
    b = spec.realize(geom, seed)
    assert np.array_equal(a.values, b.values)


def test_derived_streams_are_pinned():
    # values of the stream addresses fixed since the seeding rule was introduced;
    # the wide index and the wide seed were computed with numpy's SeedSequence
    assert derive_seed(7, 2, 1) == 12885887828867826467
    assert derive_rng(7, 0, 3).random() == 0.7765778436824163
    assert derive_seed(7, 2, 2**32 + 5) == 16072380819543932236
    assert derive_rng(7, 0, 2**32 + 5).random() == 0.27977443871973784
    assert derive_seed(2**64 + 5, 2, 1) == 8714778776445040909
    assert derive_rng(2**64 + 5, 0, 3).random() == 0.5892859262605555
    for derive in (derive_rng, derive_seed):
        with pytest.raises(ValueError, match="nonnegative"):
            derive(-1, 0, 0)


STREAM_RANGES = (
    range(0),
    range(4, 5),
    range(3, 18),
    range(3, 19),
    range(1000),
    range(STREAM_BLOCK - 1, STREAM_BLOCK + 1),  # either side of the first block edge
    range(STREAM_BLOCK, 2 * STREAM_BLOCK),  # exactly the second block
    range(1000, 2100),  # the end of one block, a whole block and the start of a third
    range(1030, 1000, -7),  # downward across the first block edge
    range(2**32 - 40, 2**32),  # ends at the last one-word index
    range(2**32 - 20, 2**32 + 20),  # crosses into two-word indices
)


def seed_sequence_rng(seed, domain, i):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, domain, i))))


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("domain", [0, 1, 2])
@pytest.mark.parametrize("indices", STREAM_RANGES, ids=lambda r: f"{r.start}-{r.stop}")
def test_derive_rngs_match_seed_sequence(seed, domain, indices):
    seeding._block_words.cache_clear()
    for _ in ("cold", "warm"):  # the second derivation reads the blocks the first one built
        rngs = derive_rngs(seed, domain, indices)
        for i, rng in zip(indices, rngs):
            oracle = seed_sequence_rng(seed, domain, i)
            assert rng.bit_generator.state == oracle.bit_generator.state
            assert rng.integers(2**63, size=3).tolist() == oracle.integers(2**63, size=3).tolist()
            assert rng.random() == oracle.random()
        assert next(rngs, None) is None
    for i in indices:  # the one-index calls read the same memo
        oracle = seed_sequence_rng(seed, domain, i)
        assert derive_rng(seed, domain, i).bit_generator.state == oracle.bit_generator.state
        words = oracle.bit_generator.seed_seq.generate_state(1, np.uint64)
        assert derive_seed(seed, domain, i) == int(words[0])


def test_derive_rngs_gives_every_generator_its_own_stream(monkeypatch):
    # generators of one range, held together and drawn in reverse order, each
    # give the stream of their own index
    indices = range(STREAM_BLOCK - 20, STREAM_BLOCK + 20)
    rngs = list(derive_rngs(7, 0, indices))
    draws = [rng.random(4).tolist() for rng in reversed(rngs)][::-1]
    assert draws == [seed_sequence_rng(7, 0, i).random(4).tolist() for i in indices]
    for indices in (range(0), range(3), range(1000)):
        for seed, domain in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="nonnegative"):
                derive_rngs(seed, domain, indices)
    with pytest.raises(ValueError, match="nonnegative"):
        derive_rngs(0, 0, range(2, -3, -1))
    hashed = []
    real = seeding._state_words

    def counted(entropy):
        hashed.append(entropy)
        return real(entropy)

    monkeypatch.setattr(seeding, "_state_words", counted)
    # six torus sides draw the same 1100 realizations in chunks of 32 to 1024
    # rows, yet each of their two blocks of streams is hashed once
    seeding._block_words.cache_clear()
    spec = GeneratorSpec("iid", 0, IncrementLaw("uniform_centered", 1.0))
    report = scaling_study(spec, 1, n_per_mu=1100, master_seed=3)
    assert len({p.L for p in report.points}) == 6
    assert len(hashed) == 2
    # the energy study hashes its sub-seeds' block once, then one interval
    # block per sub-seed, however many box sizes and shifts read it
    hashed.clear()
    seeding._block_words.cache_clear()
    thermodynamic_density(IntervalLaw("uniform", 0.5, 1.5), PairPotential("indicator", 2.0),
                          (64, 128, 256, 512), n_seeds=8)
    assert len(hashed) == 1 + 8


def test_derive_rngs_builds_a_cold_block_from_many_threads():
    # four threads on two cores miss the same two cold blocks at once; each
    # must still get the streams derive_rng gives
    indices = range(STREAM_BLOCK // 2, STREAM_BLOCK + 8)
    start = threading.Barrier(4, timeout=30)

    def states(_):
        start.wait()
        return [rng.bit_generator.state for rng in derive_rngs(11, 0, indices)]

    seeding._block_words.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as ex:
            results = list(ex.map(states, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    expected = [derive_rng(11, 0, i).bit_generator.state for i in indices]
    assert all(r == expected for r in results)


def test_sample_id_and_second_moment():
    geom = TorusGeometry(1, 8)
    z = GeneratorSpec("iid", 0, IncrementLaw("constant", 4.0)).realize(geom, 9, 1)
    assert np.all(z.values == 0.0)
    assert z.second_moment() == 0.0
    assert z.sample_id == "iid_constant(4.0)@9/1"


def test_sample_component_count_enforced():
    geom = TorusGeometry(2, 4)
    bad = np.zeros((3,) + geom.shape)
    with pytest.raises(ValueError, match="one component per axis"):
        IncrementSample(
            geometry=geom,
            axis=0,
            values=bad,
            generator_id="x",
            parameters=(),
            seed=0,
            realization=0,
            curl_free=False,
        )


def test_sample_adopts_values_read_only():
    geom = TorusGeometry(2, 4)
    vals = np.zeros((2,) + geom.shape)
    s = IncrementSample(geometry=geom, axis=0, values=vals, generator_id="x",
                        parameters=(), seed=0, realization=0, curl_free=False)
    assert s.values is vals
    assert not vals.flags.writeable


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec(kind="iid", axis=1, law=IncrementLaw("gaussian", 1.0)),
        GeneratorSpec(kind="gradient", law=IncrementLaw("uniform_centered", 1.0)),
        GeneratorSpec(kind="decay_alpha", alpha=2.5),
        GeneratorSpec(kind="gff"),
        GeneratorSpec(kind="zero"),
    ],
    ids=lambda spec: spec.kind,
)
def test_generated_values_are_read_only(spec):
    s = spec.realize(TorusGeometry(2, 8), 4, 1)
    assert type(s.values) is np.ndarray and s.values.shape == (2, 8, 8)
    with pytest.raises(ValueError):
        s.values[0, 0, 0] = 1.0


def test_sample_pickle_roundtrip():
    spec = GeneratorSpec("gradient", 1, IncrementLaw("gaussian", 1.0))
    s = spec.realize(TorusGeometry(2, 6), 3, 2)
    t = pickle.loads(pickle.dumps(s))
    assert np.array_equal(t.values, s.values)
    assert (t.geometry, t.axis, t.sample_id, t.psi_second_moment) == (
        s.geometry, s.axis, s.sample_id, s.psi_second_moment
    )
    with pytest.raises(ValueError):
        t.values[0, 0, 0] = 1.0


# ---------------------------------------------------------------- gradient


def test_gradient_constant_law_gives_zero_field():
    s = GeneratorSpec("gradient", 0, IncrementLaw("constant", 2.0)).realize(TorusGeometry(2, 8), 0)
    assert np.all(s.values == 0.0)
    assert s.psi_second_moment == 0.0
    assert s.curl_free


@pytest.mark.parametrize("d,L", [(2, 16), (3, 8)])
def test_gradient_curl_free(d, L):
    s = GeneratorSpec("gradient", 0, IncrementLaw("gaussian", 1.0)).realize(TorusGeometry(d, L), 7)
    assert s.curl_free
    # identity holds exactly in exact arithmetic; rounding leaves ~1e-15
    assert curl_max(s) <= 1e-12


def test_gradient_metadata():
    law = IncrementLaw("uniform_centered", 2.0)
    s = GeneratorSpec("gradient", 0, law).realize(TorusGeometry(1, 64), 3)
    assert s.generator_id == "gradient_uniform_centered"
    assert s.psi_second_moment is not None and s.psi_second_moment > 0.0
    assert s.clamped_mass_fraction is None
    for l in range(s.geometry.d):
        assert abs(float(s.values[l].mean())) <= 1e-14


# ---------------------------------------------------------------- decay_alpha


def test_decay_alpha_components_independent_copies():
    s = GeneratorSpec("decay_alpha", 0, alpha=3.0).realize(TorusGeometry(3, 8), 0)
    assert not s.curl_free
    assert s.generator_id == "decay_alpha"
    assert s.parameters == (3.0,)
    for l in range(3):
        assert np.any(s.values[l] != 0.0)
        assert abs(float(s.values[l].mean())) <= 1e-14
    assert not np.array_equal(s.values[0], s.values[1])


def test_clamp_spectrum_exact():
    clamped, frac = clamp_spectrum(np.array([3.0, -1.0, 0.5, -0.5]))
    assert np.array_equal(clamped, np.array([3.0, 0.0, 0.5, 0.0]))
    assert frac == pytest.approx(1.5 / 5.0)
    clamped, frac = clamp_spectrum(np.array([0.0, 0.0]))
    assert frac == 0.0
    assert np.all(clamped == 0.0)
    # complex input: only the real part matters
    clamped, frac = clamp_spectrum(np.array([2.0 + 1e-3j, -2.0 + 0.0j]))
    assert np.array_equal(clamped, np.array([2.0, 0.0]))
    assert frac == pytest.approx(0.5)


def test_decay_alpha_clamp_reported_small_case():
    s = GeneratorSpec("decay_alpha", 0, alpha=3.0).realize(TorusGeometry(3, 64), 0)
    assert s.clamped_mass_fraction is not None
    assert 0.0 <= s.clamped_mass_fraction < CLAMP_WARN_FRACTION
    assert s.warnings == ()


def test_decay_alpha_clamp_warning_above_threshold():
    # a near-indicator covariance is far from positive definite in d=3
    spec, geom = GeneratorSpec("decay_alpha", 0, alpha=20.0), TorusGeometry(3, 16)
    s = spec.realize(geom, 0)
    assert s.clamped_mass_fraction > CLAMP_WARN_FRACTION
    assert len(s.warnings) == 1
    assert "clamped spectral mass" in s.warnings[0]
    # the covariance estimate reports the clamp as its samples do
    est = empirical_covariance(spec, geom, 2, 0, [(0, 0, 0)])
    assert (est.clamped_mass_fraction, est.warnings) == (s.clamped_mass_fraction, s.warnings)


def test_decay_alpha_cross_seed_correlation():
    geom = TorusGeometry(1, 4096)
    spec = GeneratorSpec("decay_alpha", 0, alpha=3.0)
    a = spec.realize(geom, 0).values[0]
    b = spec.realize(geom, 1).values[0]
    corr = float(np.mean(a * b) / np.sqrt(np.mean(a * a) * np.mean(b * b)))
    # independent fields; the correlation scale here is sqrt(sum C^2 / N) ~ 0.02
    assert abs(corr) <= 0.08


FIT_LAG_SIDES = (2, 3, 4, 6, 8, 11, 16)


def axis_lags(sides, d):
    """Each side along each axis in turn, as d-coordinate lags."""
    lags = []
    for m in sides:
        for ax in range(d):
            v = [0] * d
            v[ax] = m
            lags.append(tuple(v))
    return lags


@pytest.fixture(scope="module")
def decay_estimate_3d():
    """One estimate over 200 d=3, L=64 samples, at lag 0 and the fitted lags.

    Lag 0 lies outside the exponent fit, so sharing the estimate leaves
    alpha_hat as a fit over the fitted lags alone would give it.
    """
    geom = TorusGeometry(3, 64)
    spec = GeneratorSpec("decay_alpha", 0, alpha=3.0)
    return geom, empirical_covariance(spec, geom, 200, 0, [(0, 0, 0)] + axis_lags(FIT_LAG_SIDES, 3))


def test_decay_alpha_fitted_exponent(decay_estimate_3d):
    _, est = decay_estimate_3d
    assert est.n_samples == 200
    assert est.alpha_hat is not None
    assert 2.5 <= est.alpha_hat <= 3.5
    assert est.alpha_halfwidth < 0.5
    assert est.n_fit_entries >= 10


def test_decay_alpha_lag0_variance(decay_estimate_3d):
    geom, est = decay_estimate_3d
    j = est.lag_index((0, 0, 0))
    # exact expectation: mean of the clamped spectrum, minus the variance
    # removed by exact empirical centering (the zero mode over N sites)
    cov = 1.0 / (1.0 + geom.site_distances() ** 3.0)
    clamped = np.maximum(np.fft.fftn(cov).real, 0.0)
    expected = float(clamped.mean() - clamped[(0, 0, 0)] / geom.n_sites)
    for l in range(3):
        assert est.cov[j, l, l] >= 0.0
        assert abs(est.cov[j, l, l] - expected) <= 4.0 * est.stderr[j, l, l]
        # the clamp shifts the realized variance off 1 by under one percent
        assert abs(est.cov[j, l, l] - 1.0) <= 0.01


# ---------------------------------------------------------------- gff


def test_gff_d1_increments_are_centred_white_noise():
    # at d=1, |D^(k)|^2 / symbol(k) = 1 off the zero mode: zeta is unit white
    # noise less its site mean, so C(0) = 1 - 1/L and C(k) = -1/L elsewhere
    L = 256
    est = empirical_covariance(GeneratorSpec("gff"), TorusGeometry(1, L), 400, 0, [(0,), (1,)])
    for lag, exact in ((0, 1.0 - 1.0 / L), (1, -1.0 / L)):
        assert abs(est.cov[lag, 0, 0] - exact) <= 5.0 * est.stderr[lag, 0, 0]


def test_gff_curl_free_and_metadata():
    s = GeneratorSpec("gff", 1).realize(TorusGeometry(2, 32), 5)
    assert s.curl_free
    assert s.axis == 1
    assert s.generator_id == "gff"
    assert s.parameters == ()
    assert s.psi_second_moment > 0.0
    assert curl_max(s) <= 1e-12
    for l in range(2):
        assert abs(float(s.values[l].mean())) <= 1e-14


def test_gff_log_variance_growth():
    sides = (32, 64, 128)
    means = []
    spec = GeneratorSpec("gff", 0)
    for L in sides:
        geom = TorusGeometry(2, L)
        vals = [spec.realize(geom, 0, i).psi_second_moment for i in range(100)]
        means.append(float(np.mean(vals)))
    assert means[0] < means[1] < means[2]
    xs = np.log(np.array(sides, dtype=float))
    ys = np.array(means)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    r2 = 1.0 - float(np.sum((ys - pred) ** 2) / np.sum((ys - ys.mean()) ** 2))
    assert slope > 0.0
    assert r2 >= 0.95


def test_gff_covariance_exponent_near_two():
    est = empirical_covariance(GeneratorSpec("gff"), TorusGeometry(2, 128), 100, 0,
                               axis_lags(FIT_LAG_SIDES, 2))
    assert est.alpha_hat is not None
    assert 1.5 <= est.alpha_hat <= 2.5


# ---------------------------------------------------------------- synthesis oracle

# even and odd sides, the smallest included: the rfftn half spectrum has a
# Nyquist plane only at even L
ORACLE_SIDES = (2, 3, 8, 9, 16)


def within_oracle(values, ref):
    return np.max(np.abs(values - ref)) <= 1e-14 * np.max(np.abs(values))


@pytest.mark.parametrize("L", ORACLE_SIDES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_decay_alpha_matches_complex_fft_oracle(d, L):
    # the oracle draws the d components one after another, so this also pins
    # that one (d,) + shape draw takes the same stream
    geom = TorusGeometry(d, L)
    spec = GeneratorSpec("decay_alpha", 0, alpha=3.0)
    for i in range(2):
        s = spec.realize(geom, 5, i)
        ref = complex_fft_synthesis_reference("decay_alpha", d, L, 5, i, 3.0)
        assert within_oracle(s.values, ref)


@pytest.mark.parametrize("L", ORACLE_SIDES + (64,))
def test_gff_matches_complex_fft_oracle(L):
    for d, i in itertools.product((1, 2, 3), range(2)):
        s = GeneratorSpec("gff", 0).realize(TorusGeometry(d, L), 5, i)
        psi = complex_fft_synthesis_reference("gff", d, L, 5, i)[0]
        zeta = np.stack([np.roll(psi, -1, axis=l) - psi for l in range(d)])
        zeta -= zeta.mean(axis=tuple(range(1, d + 1)), keepdims=True)
        assert within_oracle(s.values, zeta), f"d={d}"
        assert s.psi_second_moment == pytest.approx(float(np.mean(psi**2)), rel=1e-13)


@pytest.mark.parametrize("L", ORACLE_SIDES)
@pytest.mark.parametrize("kind,d", [("decay_alpha", 1), ("decay_alpha", 2), ("decay_alpha", 3), ("gff", 2)])
def test_spectral_synthesis_bitwise_equals_rfftn_pair(monkeypatch, kind, d, L):
    # the in-place passes are the rfftn/irfftn passes in their axis order
    spec = GeneratorSpec(kind, alpha=3.0 if kind == "decay_alpha" else None)
    geom = TorusGeometry(d, L)
    kernel = [spec.realize(geom, 5, i).values for i in range(2)]
    monkeypatch.setattr(randfields, "_spectral_gaussian", rfftn_pair_synthesis_reference)
    for i, values in enumerate(kernel):
        assert values.tobytes() == spec.realize(geom, 5, i).values.tobytes()


# ---------------------------------------------------------------- estimator

IID_GAUSSIAN = GeneratorSpec("iid", 0, IncrementLaw("gaussian", 1.0))


@pytest.fixture
def no_draws(monkeypatch):
    """Fail any test that draws a field."""
    def chunk(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(GeneratorSpec, "chunk", chunk)


def test_covariance_needs_two_samples(no_draws):
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2"):
            empirical_covariance(IID_GAUSSIAN, TorusGeometry(1, 16), n, 0, [(0,)])


def test_covariance_rejects_wrong_lag_width(no_draws):
    with pytest.raises(ValueError, match="coordinates"):
        empirical_covariance(IID_GAUSSIAN, TorusGeometry(1, 16), 2, 0, [(0, 0)])
    with pytest.raises(ValueError, match="coordinates"):
        empirical_covariance(IID_GAUSSIAN, TorusGeometry(2, 8), 2, 0, [(0,)])


def test_covariance_rejects_empty_lags_before_drawing(no_draws):
    with pytest.raises(ValueError, match="at least one lag"):
        empirical_covariance(IID_GAUSSIAN, TorusGeometry(1, 16), 2, 0, [])


# lag 0, negative, multi-axis and components >= L, at an odd and an even
# side per d (only an even side has a Nyquist plane); at these sides a task
# takes many rows
ORACLE_LAGS = {
    1: [(0,), (1,), (-1,), (2,), (5,), (17,), (22,), (-18,)],
    2: [(0, 0), (1, 0), (0, -2), (-1, 3), (3, 3), (7, 0), (9, -8)],
    3: [(0, 0, 0), (1, 0, 0), (0, -1, 0), (2, -3, 1), (-1, -1, -1), (8, 0, 0), (-9, 17, 4)],
}
ORACLE_SPECS = {
    "iid": lambda d: GeneratorSpec("iid", d - 1, IncrementLaw("gaussian", 1.3)),
    "gradient": lambda d: GeneratorSpec("gradient", 0, IncrementLaw("uniform_centered", 0.7)),
    "gff": lambda d: GeneratorSpec("gff", 0),
    "decay_alpha": lambda d: GeneratorSpec("decay_alpha", d - 1, alpha=2.0),
    "zero": lambda d: GeneratorSpec("zero"),
}


@pytest.mark.parametrize("d,L", [(1, 16), (1, 17), (2, 7), (2, 8), (3, 7), (3, 8)])
@pytest.mark.parametrize("kind", sorted(ORACLE_SPECS))
def test_covariance_matches_roll_tensordot_oracle(kind, d, L):
    # the spectral statistic against the real-space one, to rounding: every
    # entry within 1e-12 of the largest covariance, exact zeros kept
    spec, geom, lags = ORACLE_SPECS[kind](d), TorusGeometry(d, L), ORACLE_LAGS[d]
    est = empirical_covariance(spec, geom, 12, 4, lags)
    samples = [spec.realize(geom, 4, i) for i in range(12)]
    cov, stderr, alpha_hat, n_fit = roll_covariance_reference(samples, lags)
    tol = 1e-12 * np.max(np.abs(cov))
    for value, ref in ((est.cov, cov), (est.stderr, stderr)):
        assert value.shape == ref.shape
        assert np.max(np.abs(value - ref)) <= tol
        assert value[ref == 0.0].tobytes() == ref[ref == 0.0].tobytes()
    assert (est.alpha_hat is None) == (alpha_hat is None)
    if alpha_hat is not None:
        assert est.alpha_hat == pytest.approx(alpha_hat, abs=1e-9)
        assert est.n_fit_entries == n_fit
    assert (est.axis, est.n_samples) == (spec.axis, 12)


def test_pooled_covariance_bitwise_equals_serial():
    # one sample per task at L = 32, d = 3; more threads than cores, switching
    # often, so threads that shared any state would overwrite each other's
    spec, geom = GeneratorSpec("decay_alpha", 0, alpha=3.0), TorusGeometry(3, 32)
    lags = [(0, 0, 0), (1, 0, 0), (0, 3, -2), (5, 5, 5), (-1, 0, 7)]
    serial = empirical_covariance(spec, geom, 48, 2, lags)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as ex:
            pooled = empirical_covariance(spec, geom, 48, 2, lags, map_fn=ex.map)
    finally:
        sys.setswitchinterval(interval)
    assert pooled.cov.tobytes() == serial.cov.tobytes()
    assert pooled.stderr.tobytes() == serial.stderr.tobytes()


def test_covariance_task_peak_memory_within_two_samples():
    # one d=3, L=32 decay_alpha task: one component's noise and the half
    # spectrum at the draw (1.57 samples), then the spectrum, one conjugate
    # and one cross spectrum at a time (1.92); the whole noise beside the
    # spectrum would read 2.23 samples, all d^2 cross spectra at once about 4.5
    spec, geom = GeneratorSpec("decay_alpha", 0, alpha=3.0), TorusGeometry(3, 32)
    lags = np.array([m * e for m in (0, 1, 2, 4, 8) for e in np.eye(3, dtype=int)[: 3 if m else 1]])
    task = (spec, geom, 0, *randfields._lag_phases(lags, 32), range(5, 6))
    randfields._covariance_rows(task)  # the amplitude cache, numpy's lazy set-up
    tracemalloc.start()
    try:
        randfields._covariance_rows(task)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 3 * 32**3 * 8


def test_decay_covariance_failure_names_its_realizations(monkeypatch):
    # decay_alpha tasks draw their spectra without chunk, and name their rows as it does
    def fail(*args):
        raise FloatingPointError("injected synthesis failure")

    monkeypatch.setattr(randfields, "_filtered_noise", fail)
    spec, geom = GeneratorSpec("decay_alpha", 0, alpha=3.0), TorusGeometry(3, 16)
    with pytest.raises(GeneratorError, match=r"realization 0\.\.3: injected synthesis failure"):
        empirical_covariance(spec, geom, 8, 0, [(1, 0, 0)])  # two tasks of 4 rows
    bad_axis = GeneratorSpec("decay_alpha", 3, alpha=3.0)
    with pytest.raises(GeneratorError, match=r"realization 0\.\.3: axis 3 out of range"):
        empirical_covariance(bad_axis, geom, 8, 0, [(1, 0, 0)])


def test_lag_index_lookup():
    est = empirical_covariance(IID_GAUSSIAN, TorusGeometry(1, 16), 4, 0, [(0,), (2,)])
    assert est.lag_index((2,)) == 1
    with pytest.raises(KeyError):
        est.lag_index((3,))


def test_covariance_lag_negation_symmetry():
    spec = GeneratorSpec("decay_alpha", 0, alpha=3.0)
    lags = []
    for m in (1, 2, 3, 5):
        lags += [(m, 0), (-m, 0), (0, m), (0, -m), (m, m), (-m, -m)]
    est = empirical_covariance(spec, TorusGeometry(2, 32), 100, 0, lags)
    for m in (1, 2, 3, 5):
        for pos, neg in (((m, 0), (-m, 0)), ((0, m), (0, -m)), ((m, m), (-m, -m))):
            jp, jn = est.lag_index(pos), est.lag_index(neg)
            for l in range(2):
                for mm in range(2):
                    diff = abs(est.cov[jp, l, mm] - est.cov[jn, l, mm])
                    allow = 2.0 * (est.stderr[jp, l, mm] + est.stderr[jn, l, mm])
                    assert diff <= allow + 1e-12
    # diagonal entries at opposite lags are the same sum reordered
    j1, j2 = est.lag_index((2, 0)), est.lag_index((-2, 0))
    assert abs(est.cov[j1, 0, 0] - est.cov[j2, 0, 0]) <= 1e-13


def test_covariance_lag0_is_variance():
    geom = TorusGeometry(1, 64)
    est = empirical_covariance(IID_GAUSSIAN, geom, 50, 0, [(0,)])
    assert est.cov[0, 0, 0] >= 0.0
    samples = [IID_GAUSSIAN.realize(geom, 0, i) for i in range(50)]
    direct = float(np.mean([np.mean(s.values[0] ** 2) for s in samples]))
    assert est.cov[0, 0, 0] == pytest.approx(direct, rel=1e-12)


def test_zero_samples_indeterminate():
    spec = GeneratorSpec("iid", 0, IncrementLaw("constant", 2.0))
    est = empirical_covariance(spec, TorusGeometry(1, 16), 3, 0, [(0,), (1,), (2,)])
    assert np.all(est.cov == 0.0)
    assert np.all(est.stderr == 0.0)
    assert est.alpha_hat is None
    assert est.n_fit_entries == 0


# ---------------------------------------------------------------- specs


def test_generator_spec_validation():
    with pytest.raises(ValueError, match="increment law"):
        GeneratorSpec(kind="iid")
    with pytest.raises(ValueError, match="increment law"):
        GeneratorSpec(kind="gradient")
    with pytest.raises(ValueError, match="alpha"):
        GeneratorSpec(kind="decay_alpha")
    with pytest.raises(ValueError, match="unknown generator"):
        GeneratorSpec(kind="white")


def test_generator_spec_zero_kind():
    spec = GeneratorSpec(kind="zero")
    s = spec.realize(TorusGeometry(2, 8), 0)
    assert np.all(s.values == 0.0)
    assert s.generator_id == "iid_constant"


LAWS = (
    IncrementLaw("uniform_centered", 0.7),
    IncrementLaw("gaussian", 1.3),
    IncrementLaw("bernoulli_pm", 0.3),
    IncrementLaw("constant", 2.0),
)
CHUNK_CASES = (
    [(GeneratorSpec("iid", d - 1, law), d) for law in LAWS for d in (1, 2, 3)]
    + [(GeneratorSpec("gradient", 0, LAWS[0]), d) for d in (1, 2, 3)]
    + [(GeneratorSpec("decay_alpha", d - 1, alpha=2.5), d) for d in (1, 2, 3)]
    + [(GeneratorSpec("gff", 1), 2), (GeneratorSpec("zero"), 2)]
)


# each case on a short range, then ("-batched") on one across the first block
# edge of the stream memo
EDGE = range(STREAM_BLOCK - 9, STREAM_BLOCK + 9)


@pytest.mark.parametrize("spec, d, indices", [
    pytest.param(spec, d, indices, id=f"{spec.generator_id}-d{d}{suffix}")
    for indices, suffix in ((range(3, 8), ""), (EDGE, "-batched"))
    for spec, d in CHUNK_CASES
])
def test_chunk_rows_equal_one_row_realizations(spec, d, indices):
    geom = TorusGeometry(d, {1: 16, 2: 8, 3: 4}[d])
    chunk = spec.chunk(geom, 5, indices)
    assert chunk.values.shape == (len(indices), d) + geom.shape
    assert (chunk.psi_second_moment is None) == (spec.kind not in ("gradient", "gff"))
    zeta2 = randfields._second_moments(chunk.values)
    for row, i in enumerate(indices):
        s = spec.realize(geom, 5, i)
        assert chunk.values[row].tobytes() == s.values.tobytes()
        assert zeta2[row] == s.second_moment()
        if chunk.psi_second_moment is not None:
            assert chunk.psi_second_moment[row] == s.psi_second_moment


@pytest.mark.parametrize("law", LAWS, ids=lambda law: law.kind)
def test_law_fill_draws_what_the_generator_methods_draw(law):
    # a chunk of four (3, 50) rows, row i from stream i; each row against the per-row draw
    rows, shape = 4, (3, 50)
    out = law.fill([np.random.default_rng(i) for i in range(rows)], np.empty((rows,) + shape))
    for i in range(rows):
        rng = np.random.default_rng(i)
        if law.kind == "uniform_centered":
            expected = rng.uniform(-law.param / 2.0, law.param / 2.0, size=shape)
        elif law.kind == "gaussian":
            expected = rng.normal(0.0, law.param, size=shape)
        elif law.kind == "bernoulli_pm":
            expected = np.where(rng.random(shape) < law.param, 1.0, -1.0)
        else:
            expected = np.full(shape, law.param)
        assert out[i].tobytes() == expected.tobytes()


def test_generator_spec_chunk_names_its_realizations_on_failure():
    spec = GeneratorSpec(kind="iid", axis=5, law=IncrementLaw("gaussian", 1.0))
    with pytest.raises(GeneratorError, match=r"failed at realization 4\.\.9"):
        spec.chunk(TorusGeometry(1, 8), 0, range(4, 10))


def test_generator_spec_wraps_failures_with_index():
    spec = GeneratorSpec(kind="iid", axis=5, law=IncrementLaw("gaussian", 1.0))
    with pytest.raises(GeneratorError, match="failed at realization 7"):
        spec.realize(TorusGeometry(1, 8), 0, 7)


def test_generator_spec_describe():
    law = IncrementLaw("gaussian", 0.5)
    assert GeneratorSpec(kind="iid", axis=1, law=law).describe() == {
        "kind": "iid",
        "axis": 1,
        "law": "gaussian",
        "law_param": 0.5,
    }
    assert GeneratorSpec(kind="decay_alpha", alpha=3.0).describe() == {
        "kind": "decay_alpha",
        "axis": 0,
        "alpha": 3.0,
    }
    assert GeneratorSpec(kind="gff").describe() == {"kind": "gff", "axis": 0}


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_generator_spec_rejects_nonpositive_alpha(alpha):
    with pytest.raises(ValueError, match="positive alpha"):
        GeneratorSpec(kind="decay_alpha", alpha=alpha)
