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

GeneratorSpec is the one way to draw a field, and chunk its one kernel:
realization i is drawn from its own seed stream into row i of a
(k, d) + shape array, and the rows are centred, and psi's second moments
taken, all at once. realize is its one-row call. empirical_covariance is
a study whose workers reduce each realization to its per-lag statistics
from its rfftn half spectrum (Wiener-Khinchin): a decay_alpha worker
takes the spectrum its synthesis filters and never transforms it back,
and any other kind's worker transforms the rows of a chunk.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import GeneratorError
from .lattice import (
    TorusGeometry, _from_half_spectrum, _gradient_rows, _half_spectrum, _half_symbol,
)
from .seeding import DOMAIN_FIELD, derive_rngs

__all__ = [
    "IncrementLaw",
    "IncrementSample",
    "FieldChunk",
    "GeneratorSpec",
    "CovarianceEstimate",
    "empirical_covariance",
]

CLAMP_WARN_FRACTION = 0.10
# Sites per Monte Carlo chunk: a study task draws k = _rows_per_task(geometry)
# realizations of one torus side together, so small tori pay Python dispatch
# once per chunk rather than once per realization; large tori keep k = 1.
# At most 2^14: a chunk of two or more rows then has rows of at most 2^13
# sites, which fit einsum's 8192-element buffer, so each row's sum of
# squares in the corrector is bitwise the sum over that row alone.
CHUNK_SITES = 2**14
# Real multiply-adds per block of a matrix product in the covariance
# statistic. OpenBLAS splits a larger product over its own threads, and two
# covariance workers doing that at once gained nothing from the second: a
# d=3, L=64 study of 24 samples took 0.91 s on two threads with whole
# products and 0.51 s in these blocks, 0.96 s on one.
_PRODUCT_MACS = 2**17
GENERATOR_KINDS = ("iid", "gradient", "decay_alpha", "gff", "zero")
INCREMENT_LAWS = ("uniform_centered", "gaussian", "bernoulli_pm", "constant")


def _rows_per_task(geometry: TorusGeometry, sites: int = CHUNK_SITES) -> int:
    """Realizations per study task on this torus: max(1, sites // L^d), sites <= CHUNK_SITES."""
    return max(1, sites // geometry.n_sites)


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

    def fill(self, streams: Iterable[np.random.Generator], rows: np.ndarray) -> np.ndarray:
        """Draw row i of the float64 array rows from the i-th generator of streams; return rows.

        Row i gets the values Generator.uniform and .normal would return
        for its shape. Each row, which must be C-contiguous, takes its
        standard draw (random or standard_normal) from its own stream;
        then the law's affine map, in place (loc + scale * standard draw;
        normal's +0.0 for loc is left out, which can only flip the sign
        of an exact zero), or its threshold runs once over all rows. The
        constant law draws nothing.
        """
        if self.kind == "constant":
            rows.fill(self.param)
            return rows
        draw = "standard_normal" if self.kind == "gaussian" else "random"
        for rng, row in zip(streams, rows):
            getattr(rng, draw)(out=row)
        if self.kind == "uniform_centered":
            lo, hi = -self.param / 2.0, self.param / 2.0
            rows *= hi - lo
            rows += lo
        elif self.kind == "gaussian":
            rows *= self.param
        else:  # bernoulli_pm
            rows[...] = np.where(rows < self.param, 1.0, -1.0)
        return rows

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

    def __post_init__(self) -> None:
        if self.values.shape != (self.geometry.d,) + self.geometry.shape:
            raise ValueError("increment sample must have one component per axis")
        self.values.setflags(write=False)

    def __reduce__(self):
        # re-run __init__ on unpickle so the write-protection is restored
        return (IncrementSample, tuple(getattr(self, f.name) for f in fields(self)))

    @property
    def sample_id(self) -> str:
        return _sample_id(self.generator_id, self.parameters, self.seed, self.realization)

    def second_moment(self) -> float:
        """Site average of |zeta|^2, summed over the components."""
        return float(_second_moments(self.values[np.newaxis])[0])


def _second_moments(values: np.ndarray) -> np.ndarray:
    """Per row of a (k, c) + shape chunk, the site average of the sum of its c squared components."""
    density = np.square(values[:, 0])
    for l in range(1, values.shape[1]):
        density += np.square(values[:, l])
    return density.mean(axis=tuple(range(1, density.ndim)))


def _centre(a: np.ndarray, d: int) -> None:
    """Remove in place the site mean of each field of an array whose last d axes are spatial."""
    a -= a.mean(axis=tuple(range(a.ndim - d, a.ndim)), keepdims=True)


def _sample_id(generator_id: str, parameters: tuple, seed: int, realization: int) -> str:
    par = ",".join(repr(p) for p in parameters)
    return f"{generator_id}({par})@{seed}/{realization}"


def _filtered_noise(
    amplitude: np.ndarray, rng: np.random.Generator, field: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """rfftn(noise) * amplitude, noise one standard normal draw into the C-contiguous field.

    The half spectrum goes to out, or a new complex array, and is that of
    a real Gaussian field of spectral density amplitude**2, before it is
    centred; field keeps the noise.
    """
    rng.standard_normal(out=field)
    spectrum = _half_spectrum(field, field.ndim, out)
    spectrum *= amplitude
    return spectrum


def _spectral_gaussian(
    amplitude: np.ndarray, rng: np.random.Generator, out: np.ndarray
) -> np.ndarray:
    """Fill out, a C-contiguous (count,) + shape array, with count real Gaussian fields.

    Field by field, _filtered_noise's half spectrum is transformed back
    into the field by lattice's in-place inverse, so each field equals
    irfftn(rfftn(noise) * amplitude) bit for bit; the stream draws the
    fields in turn, as one draw of out would, and one field's half
    spectrum is allocated at a time. The fields are not centred.
    """
    for field in out:
        _from_half_spectrum(_filtered_noise(amplitude, rng, field), field, field.ndim)
    return out


def _clamp_warnings(frac: float | None) -> tuple[str, ...]:
    """The warning a clamped spectral mass fraction above CLAMP_WARN_FRACTION raises, if any."""
    if frac is None or frac <= CLAMP_WARN_FRACTION:
        return ()
    return (f"clamped spectral mass fraction {frac:.3f} exceeds {CLAMP_WARN_FRACTION}",)


def clamp_spectrum(cov_hat: np.ndarray) -> tuple[np.ndarray, float]:
    """Zero out negative spectral mass; return (clamped spectrum, clamped fraction)."""
    real = cov_hat.real
    neg = np.abs(np.minimum(real, 0.0)).sum()
    total = np.abs(real).sum()
    frac = float(neg / total) if total > 0 else 0.0
    return np.maximum(real, 0.0), frac


@lru_cache(maxsize=16)
def _decay_amplitude(d: int, L: int, alpha: float) -> tuple[np.ndarray, float]:
    """sqrt of the clamped DFT of C(k) = 1 / (1 + |k|_2^alpha) on the rfftn half spectrum.

    Returned with the clamped fraction; the clamp and its fraction are taken on the full spectrum.
    """
    dist = TorusGeometry(d, L).site_distances()
    spectrum, frac = clamp_spectrum(np.fft.fftn(1.0 / (1.0 + dist**alpha)))
    amplitude = np.sqrt(spectrum[..., : L // 2 + 1])
    amplitude.setflags(write=False)
    return amplitude, frac


@contextmanager
def _drawing(spec: GeneratorSpec, geometry: TorusGeometry, indices: range) -> Iterator[None]:
    """Check spec's axis on geometry, then draw: any failure becomes a GeneratorError naming indices."""
    try:
        if not 0 <= spec.axis < geometry.d:
            raise ValueError(f"axis {spec.axis} out of range for d={geometry.d}")
        yield
    except Exception as exc:  # attach the realization indices for MC debugging
        where = f"{indices[0]}..{indices[-1]}" if len(indices) > 1 else f"{indices[0]}"
        raise GeneratorError(f"generator {spec.kind} failed at realization {where}: {exc}") from exc


class FieldChunk(NamedTuple):
    """Realizations of one generator on one torus, row i for the i-th index drawn.

    values is (k, d) + shape, each row centred like a sample's values;
    psi_second_moment holds each row's site average of psi^2 for a
    gradient-type generator (else None), and clamped_mass_fraction the
    decay_alpha spectral clamp (else None). The rows' zeta second moments
    are _second_moments(values). A chunk drawn support_only holds in
    values[:, j] only component spec.support(d)[j]; the components it
    leaves out are zero, so its moments are the same.
    """

    values: np.ndarray
    psi_second_moment: np.ndarray | None
    clamped_mass_fraction: float | None


@dataclass(frozen=True)
class GeneratorSpec:
    """Picklable recipe for increment samples: the one way to draw them.

    kind, one line each:
      iid          independent centred values of law along axis alone, the other components zero
      gradient     zeta = D psi for an iid psi of law: exactly curl-free, psi's mean square recorded
      decay_alpha  independent Gaussian components with covariance 1 / (1 + |k|_2^alpha)
      gff          the gradient of the Gaussian free field
      zero         the degenerate iid constant law, a null case whose corrector is zero

    decay_alpha is synthesized spectrally on the torus; it clamps the
    spectrum at zero where the target is not positive definite at finite
    L, records the clamped mass fraction and warns above
    CLAMP_WARN_FRACTION. gff's psi has spectral density
    1/symbol(-laplacian) off the zero mode, so Var[psi] grows like L in
    d = 1 and like log L in d = 2, and stays bounded in d = 3.

    chunk draws many realizations into one array; realize is its one-row
    call, so a realization does not depend on the chunk it is drawn in.
    A bad spec raises ValueError when it is built; a draw that fails
    raises GeneratorError naming its realizations.
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

    @property
    def generator_id(self) -> str:
        if self.kind in ("iid", "gradient"):
            return f"{self.kind}_{self.law.kind}"
        return "iid_constant" if self.kind == "zero" else self.kind

    @property
    def parameters(self) -> tuple:
        if self.kind in ("iid", "gradient"):
            return (self.law.param,)
        return {"zero": (0.0,), "decay_alpha": (self.alpha,), "gff": ()}[self.kind]

    def support(self, d: int) -> tuple[int, ...]:
        """The components a realization can make nonzero: the axis alone for iid and zero."""
        return (self.axis,) if self.kind in ("iid", "zero") else tuple(range(d))

    def chunk(
        self, geometry: TorusGeometry, seed: int, indices: range, support_only: bool = False
    ) -> FieldChunk:
        """Realizations indices, row i drawn from the stream (seed, field domain, indices[i]).

        Each row is drawn from its own stream, then all rows are reduced at
        once. With support_only, values holds the components in
        self.support(d) alone, in that order: an iid or zero chunk is then
        (k, 1) + shape, with the same values as its component axis.
        """
        with _drawing(self, geometry, indices):
            d, L, k = geometry.d, geometry.L, len(indices)
            shape = (k, d) + geometry.shape
            streams = derive_rngs(seed, DOMAIN_FIELD, indices)
            psi2 = frac = None
            if self.kind in ("iid", "zero"):
                law = self.law or IncrementLaw("constant", 0.0)
                if support_only:
                    values, column = np.empty((k, 1) + geometry.shape), 0
                else:
                    # zeros: the components off the support are never written, so never touched
                    values, column = np.zeros(shape), self.axis
                rows = law.fill(streams, values[:, column])
                _centre(rows, d)
            elif self.kind == "decay_alpha":
                # before the chunk is allocated: a cold build's full-spectrum fftn
                # then does not add to the chunk's peak
                amplitude, frac = _decay_amplitude(d, L, float(self.alpha))
                values = np.empty(shape)
                for rng, row in zip(streams, values):
                    _spectral_gaussian(amplitude, rng, row)
                _centre(values, d)
            else:  # gradient and gff: zeta = D psi, psi a centred potential
                psi = np.empty((k,) + geometry.shape)
                if self.kind == "gradient":
                    self.law.fill(streams, psi)
                else:
                    amplitude = _half_symbol(d, L)
                    np.sqrt(amplitude, out=amplitude)  # 0 at the zero mode, which stays 0
                    np.divide(1.0, amplitude, out=amplitude, where=amplitude > 0)
                    for rng, row in zip(streams, psi):
                        _spectral_gaussian(amplitude, rng, row[np.newaxis])
                _centre(psi, d)
                psi2 = np.square(psi).mean(axis=tuple(range(1, d + 1)))
                values = _gradient_rows(psi, np.empty(shape))
                _centre(values, d)
        return FieldChunk(values, psi2, frac)

    def realize(
        self, geometry: TorusGeometry, seed: int, realization: int = 0
    ) -> IncrementSample:
        """Realization `realization`: row 0 of its one-row chunk, as an IncrementSample."""
        chunk = self.chunk(geometry, seed, range(realization, realization + 1))
        psi2 = chunk.psi_second_moment
        return IncrementSample(
            geometry=geometry,
            axis=self.axis,
            values=chunk.values[0],
            generator_id=self.generator_id,
            parameters=self.parameters,
            seed=seed,
            realization=realization,
            curl_free=self.kind in ("gradient", "gff"),
            psi_second_moment=None if psi2 is None else float(psi2[0]),
            clamped_mass_fraction=chunk.clamped_mass_fraction,
            warnings=_clamp_warnings(chunk.clamped_mass_fraction),
        )

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
    axis of the generator, with jackknife standard errors over the
    realizations. alpha_hat is the least-squares decay exponent of
    log|cov| against log|lag| over entries passing the 3 sigma
    significance filter, or None when no entry passes (reported as
    "indeterminate" downstream, never as a number). clamped_mass_fraction
    and warnings are the spectral clamp's, as each sample would carry them.
    """

    axis: int
    lags: np.ndarray
    cov: np.ndarray
    stderr: np.ndarray
    n_samples: int
    alpha_hat: float | None
    alpha_halfwidth: float | None
    n_fit_entries: int
    clamped_mass_fraction: float | None
    warnings: tuple[str, ...]

    def lag_index(self, lag) -> int:
        lag = np.asarray(lag, dtype=int)
        hits = np.where((self.lags == lag).all(axis=1))[0]
        if hits.size == 0:
            raise KeyError(f"lag {lag.tolist()} not in estimate")
        return int(hits[0])


def lags_error(lags: Sequence) -> str | None:
    """Why `lags` cannot be the lags of a covariance estimate, or None if they can."""
    return None if len(lags) else "need at least one lag"


def _lag_phases(lags: np.ndarray, L: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The phases of the lags on the rfftn half spectrum, axis by axis, and where each lag sits.

    Axis a's phases are e_a(q, c) = e^{2 pi i q c / L} for the q of its
    spectrum (0 .. L - 1, or 0 .. L // 2 on the last axis) and the distinct
    residues c mod L of the lags' axis-a components, and, on every axis but
    the first, of their negatives. phases[a][q, j] holds them for a > 0;
    phases[0] holds axis 0's as one real matrix, the real parts in rows j
    and the imaginary parts in rows m + j, for m residues. The last axis's
    also carry the half spectrum's multiplicity over N^2, N = L^d: 1 on the
    q_last = 0 plane and, at even L, on the Nyquist plane, 2 elsewhere,
    where each q stands for itself and -q. picks[0, j] and picks[1, j] are
    where the residues of lag j, and of lag j with every component but the
    first negated, sit in the flat grid of _pair_sums.
    """
    d = lags.shape[1]
    signs = np.ones(d, dtype=int)
    signs[1:] = -1
    phases, positions = [], []
    for a in range(d):
        # sorted distinct residues; np.unique would import numpy.ma, in 8-10 ms
        residues = np.sort(np.concatenate([lags[:, a], signs[a] * lags[:, a]]) % L)
        residues = residues[np.concatenate(([True], residues[1:] != residues[:-1]))]
        q = np.arange(L // 2 + 1 if a == d - 1 else L)
        phases.append(np.exp(2j * np.pi * (np.outer(q, residues) % L) / L))
        positions.append([np.searchsorted(residues, sign * lags[:, a] % L) for sign in (1, signs[a])])
    weight = np.full(L // 2 + 1, 2.0)
    weight[0] = 1.0
    if L % 2 == 0:
        weight[-1] = 1.0
    phases[-1] *= (weight / float(L**d) ** 2)[:, np.newaxis]
    grid = [phase.shape[1] for phase in phases]
    picks = np.stack([np.ravel_multi_index([p[s] for p in positions], grid) for s in (0, 1)])
    phases[0] = np.concatenate([phases[0].real.T, phases[0].imag.T])
    return tuple(phases), picks


def _blocked_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, over b's columns in blocks of at most _PRODUCT_MACS real multiply-adds per matrix."""
    out = np.empty(b.shape[:-2] + (len(a), b.shape[-1]), np.result_type(a, b))
    macs = a.size * (4 if out.dtype.kind == "c" else 1)  # four real ones to a complex one
    step = max(1, _PRODUCT_MACS // macs)
    for i in range(0, b.shape[-1], step):
        np.matmul(a, b[..., i : i + step], out=out[..., i : i + step])
    return out


def _pair_sums(cross: np.ndarray, phases: Sequence[np.ndarray]) -> np.ndarray:
    """The sums that give the statistic of a cross spectrum C and of conj(C), as a (2, grid) array.

    With e_a and the residues j_a of _lag_phases, row 0 is A and row 1 is
    B, flat in (j_0, ..., j_{d-1}) order:

      A(j) = sum_q Re e_0(q_0, j_0) C(q) prod_{a > 0} e_a(q_a, j_a),

    and B the same with Im e_0. The sum of C against the lag's phase is
    then A + iB, so the statistic of C at lag k is Re A(k) - Im B(k); and
    that of conj(C) is Re A(k') + Im B(k'), k' being k with every component
    but the first negated. The phase factorizes per axis, so the axes are
    contracted one at a time, each by _blocked_matmul: axis 0, which holds
    most of the work, first, as one real product of the real and imaginary
    parts of C; the last axis last.
    """
    first, *rest = phases
    flat = cross.view(float).reshape(len(cross), -1)  # real, imaginary parts interleaved
    # rows: A then B, each summed over axis 0 alone
    sums = _blocked_matmul(first, flat).view(complex).reshape((len(first),) + cross.shape[1:])
    if rest:
        *middle, last = rest
        for phase in middle:  # at most one, as d <= 3: the second-to-last axis
            sums = _blocked_matmul(phase.T, sums)
        sums = _blocked_matmul(last.T, sums.reshape(-1, len(last)).T).T
    return sums.reshape(2, -1)


def _row_spectra(
    spec: GeneratorSpec, geometry: TorusGeometry, seed: int, indices: range
) -> tuple[Sequence[np.ndarray], float | None]:
    """Each realization's half spectrum (rfftn over the spatial axes), and the clamped mass fraction.

    decay_alpha's come straight from its synthesis, _filtered_noise: it
    never transforms them back, nor centres them, so their zero mode is
    not 0. Each component is drawn into one field-sized buffer and
    transformed into its row of the spectrum, so a realization's noise is
    never held whole. Any other kind's are the transforms of its chunk's
    rows.
    """
    d = geometry.d
    if spec.kind != "decay_alpha":
        chunk = spec.chunk(geometry, seed, indices)
        return _half_spectrum(chunk.values, d), chunk.clamped_mass_fraction
    with _drawing(spec, geometry, indices):
        amplitude, frac = _decay_amplitude(d, geometry.L, float(spec.alpha))
        noise = np.empty(geometry.shape)
        spectra = []
        for rng in derive_rngs(seed, DOMAIN_FIELD, indices):
            spectrum = np.empty((d,) + amplitude.shape, complex)
            for row in spectrum:
                _filtered_noise(amplitude, rng, noise, row)
            spectra.append(spectrum)
        return spectra, frac


def _covariance_rows(task) -> tuple[range, np.ndarray, float | None]:
    """Worker: indices, statistics and clamped mass fraction of one chunk, for any map_fn.

    task is (spec, geometry, master_seed, phases, picks, indices), with
    phases and picks the lags' _lag_phases. Statistic [i, j] is the site
    average of zeta(x + lag_j) zeta(x)^T for realization indices[i], its
    fields centred. From the row's half spectrum V it is, by
    Wiener-Khinchin, N^-2 sum_q w(q) Re(V_l(q) conj(V_m(q))
    e^{2 pi i q.lag_j / L}), w the half spectrum's multiplicity; V(0) is
    set to 0 first, which is what centring does.
    """
    spec, geometry, master_seed, phases, picks, indices = task
    d = geometry.d
    spectra, frac = _row_spectra(spec, geometry, master_seed, indices)
    stats = np.empty((len(indices), picks.shape[1], d, d))
    conj = cross = None
    for spectrum, stat in zip(spectra, stats):
        spectrum[(slice(None),) + (0,) * d] = 0.0
        for m in range(d):
            conj = np.conjugate(spectrum[m], out=conj)
            for l in range(m + 1):
                # V_l conj(V_m), whose conjugate is the (m, l) pair's
                cross = np.multiply(spectrum[l], conj, out=cross)
                a, b = _pair_sums(cross, phases)[:, picks]
                stat[:, m, l] = a[1].real + b[1].imag
                stat[:, l, m] = a[0].real - b[0].imag
    return indices, stats, frac


def empirical_covariance(
    spec: GeneratorSpec,
    geometry: TorusGeometry,
    n_samples: int,
    master_seed: int,
    lags: Sequence,
    map_fn: Callable[..., Iterable] | None = None,
) -> CovarianceEstimate:
    """Unbiased covariance over realizations 0 .. n_samples - 1 of spec, averaged over sites.

    Lags and n_samples >= 2 are checked before any draw. map_fn runs
    _covariance_rows over consecutive ranges of _rows_per_task(geometry)
    indices, and their statistics, never the samples, are kept in index order.
    Each statistic is a sum over the realization's half spectrum, with the
    lags' phases built here once for every task; a decay_alpha realization
    is never transformed back to real space. No reduction is a BLAS dot
    product that splits its sum, so the values do not depend on the BLAS
    thread count.
    """
    if problem := lags_error(lags):
        raise ValueError(problem)
    lag_arr = np.atleast_2d(np.asarray(lags, dtype=int))
    d = geometry.d
    if lag_arr.shape[1] != d:
        raise ValueError(f"lags must have {d} coordinates")
    if n_samples < 2:
        raise ValueError("need at least 2 samples for a covariance estimate")
    R, k = n_samples, _rows_per_task(geometry)
    ranges = (range(i, min(i + k, R)) for i in range(0, R, k))
    phases, picks = _lag_phases(lag_arr, geometry.L)
    tasks = ((spec, geometry, master_seed, phases, picks, indices) for indices in ranges)
    per_real = np.empty((R, len(lag_arr), d, d))
    for indices, stats, frac in (map_fn or map)(_covariance_rows, tasks):
        per_real[indices.start : indices.stop] = stats
    mean = per_real.mean(axis=0)
    # jackknife over realizations; for this linear statistic it matches
    # the classical stderr of the mean but keeps the estimator uniform.
    # The leave-one-out means, their deviations and squares overwrite
    # per_real in turn: no second (R, lags, d, d) array is made.
    loo = np.subtract(mean[np.newaxis] * R, per_real, out=per_real)
    loo /= R - 1
    loo -= mean[np.newaxis]
    np.square(loo, out=loo)
    stderr = np.sqrt((R - 1) / R * np.sum(loo, axis=0))

    mags = np.sqrt(np.sum(lag_arr.astype(float) ** 2, axis=1))
    fit = (np.abs(mean) > 3.0 * stderr) & (mean != 0.0) & (mags > 0)[:, None, None]
    x = np.log(mags[np.nonzero(fit)[0]])  # entries in (lag, l, m) order
    y = np.log(np.abs(mean[fit]))
    alpha_hat = halfwidth = None
    if len(x) >= 2 and x.min() < x.max():  # two distinct lag lengths
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        denom = float(np.sum((x - x.mean()) ** 2))
        dof = max(len(x) - 2, 1)
        se = float(np.sqrt(np.sum(resid**2) / dof / denom)) if denom > 0 else np.inf
        alpha_hat = float(-slope)
        halfwidth = 1.96 * se
    return CovarianceEstimate(
        axis=spec.axis,
        lags=lag_arr,
        cov=mean,
        stderr=stderr,
        n_samples=R,
        alpha_hat=alpha_hat,
        alpha_halfwidth=halfwidth,
        n_fit_entries=len(x),
        clamped_mass_fraction=frac,
        warnings=_clamp_warnings(frac),
    )
