"""Generators for stationary extensions of centered unit increments.

A sample realizes, for one draw of the randomness, the lattice field
k -> zeta_i(k) whose component l is the e_i coordinate of the centered
increment along e_l. Generators fall in two families:

* raw fields (iid, decay_alpha): prescribe the statistics of zeta
  directly. These need not satisfy the curl-free compatibility condition
  and are tagged curl_free=False; they exercise the corrector machinery
  but do not define a point-set translation.
* gradient fields (gradient, gff): zeta = D psi for a generated scalar
  psi, hence exactly curl-free and path-independent by construction.

Every component of every sample has its empirical site mean removed at
generation, so the zero spatial Fourier mode never feeds the 1/mu
amplification of the regularized solve.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import GeneratorError
from .lattice import TorusGeometry, forward_gradient, laplace_symbol
from .seeding import DOMAIN_FIELD, derive_rng

__all__ = [
    "IncrementLaw",
    "IncrementSample",
    "iid_increments",
    "gradient_increments",
    "decay_alpha_increments",
    "gff_increments",
    "GeneratorSpec",
    "CovarianceEstimate",
    "empirical_covariance",
]

CLAMP_WARN_FRACTION = 0.10
GENERATOR_KINDS = ("iid", "gradient", "decay_alpha", "gff", "zero")
INCREMENT_LAWS = ("uniform_centered", "gaussian", "bernoulli_pm", "constant")


@dataclass(frozen=True)
class IncrementLaw:
    """Scalar law for iid draws. Kinds:

    uniform_centered(width)  uniform on [-width/2, width/2]
    gaussian(sigma)          normal with mean 0
    bernoulli_pm(p)          +1 w.p. p, -1 w.p. 1-p (centered at generation)
    constant(value)          degenerate; centers to the zero field
    """

    kind: str
    param: float

    def __post_init__(self) -> None:
        if self.kind not in INCREMENT_LAWS:
            raise ValueError(f"unknown increment law {self.kind!r}")
        if self.kind == "uniform_centered" and not self.param > 0:
            raise ValueError("uniform_centered width must be positive")
        if self.kind == "gaussian" and not self.param > 0:
            raise ValueError("gaussian sigma must be positive")
        if self.kind == "bernoulli_pm" and not 0.0 < self.param < 1.0:
            raise ValueError("bernoulli_pm p must lie in (0, 1)")

    def draw(self, rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
        if self.kind == "uniform_centered":
            w = self.param
            return rng.uniform(-w / 2.0, w / 2.0, size=shape)
        if self.kind == "gaussian":
            return rng.normal(0.0, self.param, size=shape)
        if self.kind == "bernoulli_pm":
            return np.where(rng.random(shape) < self.param, 1.0, -1.0)
        return np.full(shape, self.param)

    @property
    def variance(self) -> float:
        if self.kind == "uniform_centered":
            return self.param**2 / 12.0
        if self.kind == "gaussian":
            return self.param**2
        if self.kind == "bernoulli_pm":
            return 4.0 * self.param * (1.0 - self.param)
        return 0.0


@dataclass(frozen=True, eq=False)
class IncrementSample:
    """One realization of the d-component increment field for a fixed axis.

    values is a float64 array of shape (d,) + geometry.shape whose entry l
    is the component zeta_l. It is adopted without a copy and made
    read-only in place, so the caller must hold no other reference through
    which it writes.

    support lists the components that can be nonzero, in increasing order
    (default: all d); every other component of values must vanish
    identically, which the generator guarantees and the constructor does
    not check. An iid sample carries its values in component `axis` alone,
    so its support is (axis,), and the divergence and second moment read
    only that component.
    """

    geometry: TorusGeometry
    axis: int
    values: np.ndarray
    generator_id: str
    parameters: tuple
    seed: int
    realization: int
    curl_free: bool
    psi_second_moment: float | None = None
    clamped_mass_fraction: float | None = None
    warnings: tuple[str, ...] = ()
    support: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        d = self.geometry.d
        if self.values.shape != (d,) + self.geometry.shape:
            raise ValueError("increment sample must have one component per axis")
        support = tuple(range(d)) if self.support is None else tuple(self.support)
        if not support or support != tuple(sorted(set(support) & set(range(d)))):
            raise ValueError(f"support {support} must list increasing component indices below {d}")
        object.__setattr__(self, "support", support)
        self.values.setflags(write=False)

    def __reduce__(self):
        # re-run __init__ on unpickle so the write-protection is restored
        return (IncrementSample, tuple(getattr(self, f.name) for f in fields(self)))

    @property
    def sample_id(self) -> str:
        par = ",".join(repr(p) for p in self.parameters)
        return f"{self.generator_id}({par})@{self.seed}/{self.realization}"

    def second_moment(self) -> float:
        """Site average of |zeta|^2, summed over the components in support."""
        first, *rest = self.support
        density = np.square(self.values[first])
        for l in rest:
            density += np.square(self.values[l])
        return float(np.mean(density))


def _center(arr: np.ndarray) -> np.ndarray:
    return arr - arr.mean()


def _check_axis(geometry: TorusGeometry, axis: int) -> None:
    if not 0 <= axis < geometry.d:
        raise ValueError(f"axis {axis} out of range for d={geometry.d}")


def iid_increments(
    geometry: TorusGeometry, axis: int, law: IncrementLaw, seed: int, realization: int = 0
) -> IncrementSample:
    """Independent increments a_l(k) acting along their own axis.

    Component `axis` holds the centered iid values and is the sample's
    whole support; the other components vanish identically, mirroring an
    increment that moves each lattice direction by an independent amount
    along itself.
    """
    _check_axis(geometry, axis)
    rng = derive_rng(seed, DOMAIN_FIELD, realization)
    draw = law.draw(rng, geometry.shape)
    vals = np.zeros((geometry.d,) + geometry.shape)
    np.subtract(draw, draw.mean(), out=vals[axis])
    return IncrementSample(
        geometry=geometry,
        axis=axis,
        values=vals,
        generator_id=f"iid_{law.kind}",
        parameters=(law.param,),
        seed=seed,
        realization=realization,
        curl_free=False,
        support=(axis,),
    )


def gradient_increments(
    geometry: TorusGeometry, axis: int, law: IncrementLaw, seed: int, realization: int = 0
) -> IncrementSample:
    """zeta = D psi for an iid scalar field psi; exactly curl-free.

    The sample records the site average of psi^2 (after centering), which
    bounds the corrector second moment uniformly in mu.
    """
    _check_axis(geometry, axis)
    rng = derive_rng(seed, DOMAIN_FIELD, realization)
    psi = _center(law.draw(rng, geometry.shape))
    return _gradient_sample(
        geometry, axis, psi, f"gradient_{law.kind}", (law.param,), seed, realization
    )


def _gradient_sample(
    geometry: TorusGeometry,
    axis: int,
    psi: np.ndarray,
    generator_id: str,
    parameters: tuple,
    seed: int,
    realization: int,
) -> IncrementSample:
    """The curl-free sample zeta = D psi of a centered potential psi, each component centered."""
    vals = forward_gradient(psi)
    vals -= vals.mean(axis=tuple(range(1, geometry.d + 1)), keepdims=True)
    return IncrementSample(
        geometry=geometry,
        axis=axis,
        values=vals,
        generator_id=generator_id,
        parameters=parameters,
        seed=seed,
        realization=realization,
        curl_free=True,
        psi_second_moment=float(np.mean(psi**2)),
    )


def _spectral_gaussian(
    amplitude: np.ndarray, rng: np.random.Generator, shape: tuple[int, ...]
) -> np.ndarray:
    """Real Gaussian field with spectral density amplitude**2 (nonnegative, symmetric)."""
    white = rng.standard_normal(shape)
    return np.fft.ifftn(amplitude * np.fft.fftn(white)).real


def clamp_spectrum(cov_hat: np.ndarray) -> tuple[np.ndarray, float]:
    """Zero out negative spectral mass; return (clamped spectrum, clamped fraction)."""
    real = cov_hat.real
    neg = np.abs(np.minimum(real, 0.0)).sum()
    total = np.abs(real).sum()
    frac = float(neg / total) if total > 0 else 0.0
    return np.maximum(real, 0.0), frac


@lru_cache(maxsize=16)
def _decay_amplitude(d: int, L: int, alpha: float) -> tuple[np.ndarray, float]:
    """sqrt of the clamped DFT of C(k) = 1 / (1 + |k|_2^alpha), and the clamped fraction."""
    dist = TorusGeometry(d, L).site_distances()
    spectrum, frac = clamp_spectrum(np.fft.fftn(1.0 / (1.0 + dist**alpha)))
    amplitude = np.sqrt(spectrum)
    amplitude.setflags(write=False)
    return amplitude, frac


def decay_alpha_increments(
    geometry: TorusGeometry, axis: int, alpha: float, seed: int, realization: int = 0
) -> IncrementSample:
    """Gaussian components with target covariance C(k) = 1 / (1 + |k|_2^alpha).

    Synthesis is spectral on the torus itself: the DFT of the periodized
    covariance is clamped at zero where the target is not exactly positive
    definite at finite L, and the clamped mass fraction is recorded (a
    warning is attached above 10%). Components are independent copies.
    Raw field: not curl-free.
    """
    _check_axis(geometry, axis)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    rng = derive_rng(seed, DOMAIN_FIELD, realization)
    amplitude, frac = _decay_amplitude(geometry.d, geometry.L, float(alpha))
    warn: tuple[str, ...] = ()
    if frac > CLAMP_WARN_FRACTION:
        warn = (f"clamped spectral mass fraction {frac:.3f} exceeds {CLAMP_WARN_FRACTION}",)
    vals = np.stack(
        [_center(_spectral_gaussian(amplitude, rng, geometry.shape)) for _ in range(geometry.d)]
    )
    return IncrementSample(
        geometry=geometry,
        axis=axis,
        values=vals,
        generator_id="decay_alpha",
        parameters=(alpha,),
        seed=seed,
        realization=realization,
        curl_free=False,
        clamped_mass_fraction=frac,
        warnings=warn,
    )


def gff_increments(
    geometry: TorusGeometry, axis: int, seed: int, realization: int = 0
) -> IncrementSample:
    """Gradient of the two-dimensional Gaussian free field.

    psi has spectral density 1/symbol(-laplacian) away from the zero mode,
    hence Var[psi] grows like log L, while zeta = D psi is stationary
    with covariance decaying at quadratic rate. Only defined for d = 2.
    """
    if geometry.d != 2:
        raise GeneratorError("gff increments are only defined in d = 2")
    _check_axis(geometry, axis)
    rng = derive_rng(seed, DOMAIN_FIELD, realization)
    sym = laplace_symbol(geometry.d, geometry.L).copy()
    sym[(0,) * geometry.d] = 1.0  # placeholder, zero mode removed next
    spectrum = 1.0 / sym
    spectrum[(0,) * geometry.d] = 0.0
    psi = _center(_spectral_gaussian(np.sqrt(spectrum), rng, geometry.shape))
    return _gradient_sample(geometry, axis, psi, "gff", (), seed, realization)


@dataclass(frozen=True)
class GeneratorSpec:
    """Picklable recipe for producing increment samples.

    kind: "iid" | "gradient" | "decay_alpha" | "gff" | "zero"
    The "zero" kind is the degenerate iid constant law (useful as a null
    case: the corrector of the zero field is zero).
    """

    kind: str
    axis: int = 0
    law: IncrementLaw | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind in ("iid", "gradient") and self.law is None:
            raise ValueError(f"{self.kind} generator needs an increment law")
        if self.kind == "decay_alpha" and not (self.alpha is not None and self.alpha > 0):
            raise ValueError(f"decay_alpha generator needs a positive alpha, got {self.alpha}")

    def realize(
        self, geometry: TorusGeometry, seed: int, realization: int = 0
    ) -> IncrementSample:
        try:
            if self.kind == "iid":
                return iid_increments(geometry, self.axis, self.law, seed, realization)
            if self.kind == "gradient":
                return gradient_increments(geometry, self.axis, self.law, seed, realization)
            if self.kind == "decay_alpha":
                return decay_alpha_increments(geometry, self.axis, self.alpha, seed, realization)
            if self.kind == "gff":
                return gff_increments(geometry, self.axis, seed, realization)
            zero = IncrementLaw("constant", 0.0)
            return iid_increments(geometry, self.axis, zero, seed, realization)
        except GeneratorError:
            raise
        except Exception as exc:  # attach the realization index for MC debugging
            raise GeneratorError(
                f"generator {self.kind} failed at realization {realization}: {exc}"
            ) from exc

    def describe(self) -> dict:
        out = {"kind": self.kind, "axis": self.axis}
        if self.law is not None:
            out["law"] = self.law.kind
            out["law_param"] = self.law.param
        if self.alpha is not None:
            out["alpha"] = self.alpha
        return out


@dataclass(frozen=True, eq=False)
class CovarianceEstimate:
    """Cross-realization covariance of increment components at integer lags.

    cov[j, l, m] estimates Cov(zeta_l(k + lag_j), zeta_m(k)) for the fixed
    axis of the input samples, with jackknife standard errors over the
    realizations. alpha_hat is the least-squares decay exponent of
    log|cov| against log|lag| over entries passing the 3 sigma
    significance filter, or None when no entry passes (reported as
    "indeterminate" downstream, never as a number).
    """

    axis: int
    lags: np.ndarray
    cov: np.ndarray
    stderr: np.ndarray
    n_samples: int
    alpha_hat: float | None
    alpha_halfwidth: float | None
    n_fit_entries: int

    def lag_index(self, lag) -> int:
        lag = np.asarray(lag, dtype=int)
        hits = np.where((self.lags == lag).all(axis=1))[0]
        if hits.size == 0:
            raise KeyError(f"lag {lag.tolist()} not in estimate")
        return int(hits[0])


def empirical_covariance(
    samples: Sequence[IncrementSample], lags: Sequence
) -> CovarianceEstimate:
    """Unbiased covariance over realizations, spatially averaged per lag.

    Requires at least two samples from one generator on one geometry.
    """
    if len(samples) < 2:
        raise ValueError("need at least 2 samples for a covariance estimate")
    first = samples[0]
    for s in samples[1:]:
        if s.geometry != first.geometry:
            raise ValueError("samples live on different geometries")
        if s.generator_id != first.generator_id or s.parameters != first.parameters:
            raise ValueError("samples come from different generators")
        if s.axis != first.axis:
            raise ValueError("samples have different axes")
    geom = first.geometry
    d = geom.d
    lag_arr = np.atleast_2d(np.asarray(lags, dtype=int))
    if lag_arr.shape[1] != d:
        raise ValueError(f"lags must have {d} coordinates")
    R = len(samples)
    per_real = np.empty((R, len(lag_arr), d, d))
    space_axes = tuple(range(1, d + 1))
    for r, s in enumerate(samples):
        v = s.values  # (d,) + shape, exactly centered
        for j, k in enumerate(lag_arr):
            rolled = np.roll(v, shift=tuple(-k), axis=space_axes)
            per_real[r, j] = np.tensordot(rolled, v, axes=(space_axes, space_axes)) / geom.n_sites
    mean = per_real.mean(axis=0)
    # jackknife over realizations; for this linear statistic it matches
    # the classical stderr of the mean but keeps the estimator uniform
    loo = (mean[np.newaxis] * R - per_real) / (R - 1)
    stderr = np.sqrt((R - 1) / R * np.sum((loo - mean[np.newaxis]) ** 2, axis=0))

    mags = np.sqrt(np.sum(lag_arr.astype(float) ** 2, axis=1))
    keep_lag = mags > 0
    signif = np.abs(mean) > 3.0 * stderr
    xs, ys = [], []
    for j in np.where(keep_lag)[0]:
        for l in range(d):
            for m in range(d):
                if signif[j, l, m] and mean[j, l, m] != 0.0:
                    xs.append(np.log(mags[j]))
                    ys.append(np.log(abs(mean[j, l, m])))
    alpha_hat = halfwidth = None
    if len(xs) >= 2 and len(set(xs)) >= 2:
        x = np.array(xs)
        y = np.array(ys)
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        denom = float(np.sum((x - x.mean()) ** 2))
        dof = max(len(x) - 2, 1)
        se = float(np.sqrt(np.sum(resid**2) / dof / denom)) if denom > 0 else np.inf
        alpha_hat = float(-slope)
        halfwidth = 1.96 * se
    return CovarianceEstimate(
        axis=first.axis,
        lags=lag_arr,
        cov=mean,
        stderr=stderr,
        n_samples=R,
        alpha_hat=alpha_hat,
        alpha_halfwidth=halfwidth,
        n_fit_entries=len(xs),
    )
