"""Tests for the increment-field generators and the covariance estimator.

Statistical assertions run at pinned seeds, so every number below is
deterministic; tolerances were chosen against the exact target where one
exists (spectral expectations) and against 4-standard-error bands
otherwise.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incrstat.errors import GeneratorError
from incrstat.lattice import TorusGeometry, forward_gradient
from incrstat.randfields import (
    CLAMP_WARN_FRACTION,
    GeneratorSpec,
    IncrementLaw,
    IncrementSample,
    clamp_spectrum,
    decay_alpha_increments,
    empirical_covariance,
    gff_increments,
    gradient_increments,
    iid_increments,
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
    u = IncrementLaw("uniform_centered", 2.0).draw(rng, (1000,))
    assert np.all(np.abs(u) <= 1.0)
    b = IncrementLaw("bernoulli_pm", 0.3).draw(rng, (1000,))
    assert set(np.unique(b)) == {-1.0, 1.0}
    c = IncrementLaw("constant", 3.0).draw(rng, (5,))
    assert np.all(c == 3.0)


# ---------------------------------------------------------------- iid


def test_iid_component_structure():
    geom = TorusGeometry(2, 16)
    law = IncrementLaw("uniform_centered", 1.0)
    s = iid_increments(geom, 1, law, 3)
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
    s = iid_increments(TorusGeometry(1, 128), 0, law, 1)
    # centering is exact empirical subtraction; only rounding dust remains
    assert abs(float(s.values[0].mean())) <= 1e-14 * max(float(np.abs(s.values).max()), 1.0)


def test_iid_axis_out_of_range():
    with pytest.raises(ValueError, match="axis"):
        iid_increments(TorusGeometry(1, 8), 1, IncrementLaw("gaussian", 1.0), 0)


def test_iid_variance_matches_law():
    # law of large numbers at L=256: 4 standard errors of the sample variance
    law = IncrementLaw("uniform_centered", 1.0)
    s = iid_increments(TorusGeometry(1, 256), 0, law, 0)
    v = s.values[0]
    var = float(np.mean(v * v))
    m4 = float(np.mean(v**4))
    se = np.sqrt(max(m4 - var**2, 0.0) / v.size)
    assert abs(var - law.variance) <= 4.0 * se


def test_iid_nonzero_lags_insignificant():
    geom = TorusGeometry(1, 64)
    law = IncrementLaw("uniform_centered", 1.0)
    samples = [iid_increments(geom, 0, law, 0, i) for i in range(100)]
    est = empirical_covariance(samples, [(1,), (2,), (4,), (8,)])
    for j in range(len(est.lags)):
        assert abs(est.cov[j, 0, 0]) <= 4.0 * est.stderr[j, 0, 0]
    # nothing survives the significance filter, so no exponent is reported
    assert est.alpha_hat is None
    assert est.alpha_halfwidth is None
    assert est.n_fit_entries == 0


def test_iid_determinism_bitwise():
    geom = TorusGeometry(2, 8)
    law = IncrementLaw("gaussian", 1.0)
    a = iid_increments(geom, 0, law, 5, 2)
    b = iid_increments(geom, 0, law, 5, 2)
    assert np.array_equal(a.values, b.values)
    c = iid_increments(geom, 0, law, 5, 3)
    assert not np.array_equal(a.values, c.values)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["uniform_centered", "gaussian", "bernoulli_pm"]),
    param=st.floats(min_value=0.1, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_iid_seed_determinism_property(kind, param, seed):
    geom = TorusGeometry(1, 8)
    law = IncrementLaw(kind, param)
    a = iid_increments(geom, 0, law, seed)
    b = iid_increments(geom, 0, law, seed)
    assert np.array_equal(a.values, b.values)


def test_sample_id_and_second_moment():
    geom = TorusGeometry(1, 8)
    z = iid_increments(geom, 0, IncrementLaw("constant", 4.0), 9, 1)
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
    s = gradient_increments(TorusGeometry(2, 6), 1, IncrementLaw("gaussian", 1.0), 3, 2)
    t = pickle.loads(pickle.dumps(s))
    assert np.array_equal(t.values, s.values)
    assert (t.geometry, t.axis, t.sample_id, t.psi_second_moment) == (
        s.geometry, s.axis, s.sample_id, s.psi_second_moment
    )
    with pytest.raises(ValueError):
        t.values[0, 0, 0] = 1.0


def test_iid_sample_declares_its_axis_as_support():
    geom = TorusGeometry(3, 4)
    law = IncrementLaw("gaussian", 1.0)
    for axis in range(3):
        s = iid_increments(geom, axis, law, 0)
        assert s.support == (axis,)
        assert not np.delete(s.values, axis, axis=0).any()
        assert pickle.loads(pickle.dumps(s)).support == (axis,)
    assert gradient_increments(geom, 0, law, 0).support == (0, 1, 2)


@pytest.mark.parametrize("support", [(), (1, 0), (0, 0), (3,), (-1,)])
def test_sample_support_must_be_increasing_components(support):
    geom = TorusGeometry(3, 4)
    with pytest.raises(ValueError, match="support"):
        IncrementSample(geometry=geom, axis=0, values=np.zeros((3,) + geom.shape),
                        generator_id="x", parameters=(), seed=0, realization=0,
                        curl_free=False, support=support)


# ---------------------------------------------------------------- gradient


def test_gradient_constant_law_gives_zero_field():
    s = gradient_increments(TorusGeometry(2, 8), 0, IncrementLaw("constant", 2.0), 0)
    assert np.all(s.values == 0.0)
    assert s.psi_second_moment == 0.0
    assert s.curl_free


@pytest.mark.parametrize("d,L", [(2, 16), (3, 8)])
def test_gradient_curl_free(d, L):
    s = gradient_increments(TorusGeometry(d, L), 0, IncrementLaw("gaussian", 1.0), 7)
    assert s.curl_free
    # identity holds exactly in exact arithmetic; rounding leaves ~1e-15
    assert curl_max(s) <= 1e-12


def test_gradient_metadata():
    law = IncrementLaw("uniform_centered", 2.0)
    s = gradient_increments(TorusGeometry(1, 64), 0, law, 3)
    assert s.generator_id == "gradient_uniform_centered"
    assert s.psi_second_moment is not None and s.psi_second_moment > 0.0
    assert s.clamped_mass_fraction is None
    for l in range(s.geometry.d):
        assert abs(float(s.values[l].mean())) <= 1e-14


# ---------------------------------------------------------------- decay_alpha


def test_decay_alpha_validation():
    geom = TorusGeometry(1, 8)
    with pytest.raises(ValueError, match="alpha"):
        decay_alpha_increments(geom, 0, 0.0, 0)
    with pytest.raises(ValueError, match="alpha"):
        decay_alpha_increments(geom, 0, -1.0, 0)


def test_decay_alpha_components_independent_copies():
    s = decay_alpha_increments(TorusGeometry(3, 8), 0, 3.0, 0)
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
    s = decay_alpha_increments(TorusGeometry(3, 64), 0, 3.0, 0)
    assert s.clamped_mass_fraction is not None
    assert 0.0 <= s.clamped_mass_fraction < CLAMP_WARN_FRACTION
    assert s.warnings == ()


def test_decay_alpha_clamp_warning_above_threshold():
    # a near-indicator covariance is far from positive definite in d=3
    s = decay_alpha_increments(TorusGeometry(3, 16), 0, 20.0, 0)
    assert s.clamped_mass_fraction > CLAMP_WARN_FRACTION
    assert len(s.warnings) == 1
    assert "clamped spectral mass" in s.warnings[0]


def test_decay_alpha_cross_seed_correlation():
    geom = TorusGeometry(1, 4096)
    a = decay_alpha_increments(geom, 0, 3.0, 0).values[0]
    b = decay_alpha_increments(geom, 0, 3.0, 1).values[0]
    corr = float(np.mean(a * b) / np.sqrt(np.mean(a * a) * np.mean(b * b)))
    # independent fields; the correlation scale here is sqrt(sum C^2 / N) ~ 0.02
    assert abs(corr) <= 0.08


@pytest.fixture(scope="module")
def decay_samples_3d():
    geom = TorusGeometry(3, 64)
    return [decay_alpha_increments(geom, 0, 3.0, 0, i) for i in range(200)]


def test_decay_alpha_fitted_exponent(decay_samples_3d):
    lags = []
    for m in (2, 3, 4, 6, 8, 11, 16):
        for ax in range(3):
            v = [0, 0, 0]
            v[ax] = m
            lags.append(tuple(v))
    est = empirical_covariance(decay_samples_3d, lags)
    assert est.alpha_hat is not None
    assert 2.5 <= est.alpha_hat <= 3.5
    assert est.alpha_halfwidth < 0.5
    assert est.n_fit_entries >= 10


def test_decay_alpha_lag0_variance(decay_samples_3d):
    geom = decay_samples_3d[0].geometry
    est = empirical_covariance(decay_samples_3d, [(0, 0, 0)])
    # exact expectation: mean of the clamped spectrum, minus the variance
    # removed by exact empirical centering (the zero mode over N sites)
    cov = 1.0 / (1.0 + geom.site_distances() ** 3.0)
    clamped = np.maximum(np.fft.fftn(cov).real, 0.0)
    expected = float(clamped.mean() - clamped[(0, 0, 0)] / geom.n_sites)
    for l in range(3):
        assert est.cov[0, l, l] >= 0.0
        assert abs(est.cov[0, l, l] - expected) <= 4.0 * est.stderr[0, l, l]
        # the clamp shifts the realized variance off 1 by under one percent
        assert abs(est.cov[0, l, l] - 1.0) <= 0.01


# ---------------------------------------------------------------- gff


def test_gff_requires_d2():
    with pytest.raises(GeneratorError, match="d = 2"):
        gff_increments(TorusGeometry(1, 16), 0, 0)
    with pytest.raises(GeneratorError, match="d = 2"):
        gff_increments(TorusGeometry(3, 4), 0, 0)


def test_gff_curl_free_and_metadata():
    s = gff_increments(TorusGeometry(2, 32), 1, 5)
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
    for L in sides:
        geom = TorusGeometry(2, L)
        vals = [gff_increments(geom, 0, 0, i).psi_second_moment for i in range(100)]
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
    geom = TorusGeometry(2, 128)
    samples = [gff_increments(geom, 0, 0, i) for i in range(100)]
    lags = []
    for m in (2, 3, 4, 6, 8, 11, 16):
        for ax in range(2):
            v = [0, 0]
            v[ax] = m
            lags.append(tuple(v))
    est = empirical_covariance(samples, lags)
    assert est.alpha_hat is not None
    assert 1.5 <= est.alpha_hat <= 2.5


# ---------------------------------------------------------------- estimator


def _iid_batch(n, geom=None, seed=0):
    geom = geom or TorusGeometry(1, 16)
    law = IncrementLaw("gaussian", 1.0)
    return [iid_increments(geom, 0, law, seed, i) for i in range(n)]


def test_covariance_needs_two_samples():
    with pytest.raises(ValueError, match="at least 2"):
        empirical_covariance(_iid_batch(1), [(0,)])


def test_covariance_rejects_mixed_geometry():
    a = _iid_batch(1, TorusGeometry(1, 16))
    b = _iid_batch(1, TorusGeometry(1, 32))
    with pytest.raises(ValueError, match="geometries"):
        empirical_covariance(a + b, [(0,)])


def test_covariance_rejects_mixed_generator():
    geom = TorusGeometry(1, 16)
    a = [iid_increments(geom, 0, IncrementLaw("gaussian", 1.0), 0, 0)]
    b = [iid_increments(geom, 0, IncrementLaw("gaussian", 2.0), 0, 1)]
    with pytest.raises(ValueError, match="generators"):
        empirical_covariance(a + b, [(0,)])


def test_covariance_rejects_mixed_axis():
    geom = TorusGeometry(2, 8)
    law = IncrementLaw("gaussian", 1.0)
    a = iid_increments(geom, 0, law, 0, 0)
    b = iid_increments(geom, 1, law, 0, 1)
    with pytest.raises(ValueError, match="axes"):
        empirical_covariance([a, b], [(0, 0)])


def test_covariance_rejects_wrong_lag_width():
    with pytest.raises(ValueError, match="coordinates"):
        empirical_covariance(_iid_batch(2), [(0, 0)])


def test_lag_index_lookup():
    est = empirical_covariance(_iid_batch(4), [(0,), (2,)])
    assert est.lag_index((2,)) == 1
    with pytest.raises(KeyError):
        est.lag_index((3,))


def test_covariance_lag_negation_symmetry():
    geom = TorusGeometry(2, 32)
    samples = [decay_alpha_increments(geom, 0, 3.0, 0, i) for i in range(100)]
    lags = []
    for m in (1, 2, 3, 5):
        lags += [(m, 0), (-m, 0), (0, m), (0, -m), (m, m), (-m, -m)]
    est = empirical_covariance(samples, lags)
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
    samples = _iid_batch(50, TorusGeometry(1, 64))
    est = empirical_covariance(samples, [(0,)])
    assert est.cov[0, 0, 0] >= 0.0
    direct = float(np.mean([np.mean(s.values[0] ** 2) for s in samples]))
    assert est.cov[0, 0, 0] == pytest.approx(direct, rel=1e-12)


def test_zero_samples_indeterminate():
    geom = TorusGeometry(1, 16)
    law = IncrementLaw("constant", 2.0)
    samples = [iid_increments(geom, 0, law, 0, i) for i in range(3)]
    est = empirical_covariance(samples, [(0,), (1,), (2,)])
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


def test_generator_spec_realize_matches_direct_call():
    geom = TorusGeometry(1, 32)
    law = IncrementLaw("uniform_centered", 1.0)
    spec = GeneratorSpec(kind="iid", axis=0, law=law)
    a = spec.realize(geom, 4, 7)
    b = iid_increments(geom, 0, law, 4, 7)
    assert np.array_equal(a.values, b.values)


def test_generator_spec_wraps_failures_with_index():
    spec = GeneratorSpec(kind="iid", axis=5, law=IncrementLaw("gaussian", 1.0))
    with pytest.raises(GeneratorError, match="failed at realization 7"):
        spec.realize(TorusGeometry(1, 8), 0, 7)


def test_generator_spec_gff_error_not_rewrapped():
    spec = GeneratorSpec(kind="gff")
    with pytest.raises(GeneratorError) as exc:
        spec.realize(TorusGeometry(1, 8), 0, 3)
    assert "realization" not in str(exc.value)
    assert "d = 2" in str(exc.value)


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
