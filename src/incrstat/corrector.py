"""Regularized corrector: solve, cross-checks, Monte Carlo scaling, verdicts.

The corrector phi of an increment field zeta at regularization mu > 0
solves mu*phi - laplacian(phi) = div*(zeta) on the torus. Uniform-in-mu
boundedness of the site-averaged second moment of phi is the numerical
signature that the underlying point set is stationary up to translation;
divergence rates mu^{-1/2} (d=1) and |ln mu| (d=2) are the expected
low-dimensional counterexample scalings.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetError, ConfigError, DiagnosticError
from .green import GreenTable, _linfit, grad_green_l2, green_torus
from .lattice import (
    TorusGeometry,
    _add_backward_diff,
    _inverse_symbol,
    _neighbour_diff,
    _spectral_quotient,
    backward_divergence,
    forward_gradient,
)
from .randfields import GeneratorSpec, IncrementSample

__all__ = [
    "CorrectorSolution",
    "solve_corrector",
    "gradient_defect",
    "green_representation_check",
    "variance_formula_iid",
    "MCResult",
    "second_moment_mc",
    "ScalingPoint",
    "ScalingFits",
    "ScalingReport",
    "verdict_checks",
    "DEFAULT_MU_GRID",
    "required_side",
    "scaling_study",
]

RESIDUAL_RTOL = 1e-9
MEAN_TOL = 1e-10
ENERGY_TOL = 1e-9

# default geometric grid, mu = 2^-2 ... 2^-12: six points, ratio 1/4
DEFAULT_MU_GRID = tuple(2.0 ** (-2 - 2 * i) for i in range(6))


@dataclass(frozen=True)
class CorrectorSolution:
    """A certified corrector phi (torus shape) and its gradient D phi ((d,) + that shape).

    Both arrays are adopted without a copy and made read-only in place.
    """

    mu: float
    phi: np.ndarray
    grad: np.ndarray
    second_moment: float
    dirichlet_energy: float
    residual_max: float
    zeta_second_moment: float
    source_sample_id: str

    def __post_init__(self) -> None:
        self.phi.setflags(write=False)
        self.grad.setflags(write=False)

    @property
    def energy_margin(self) -> float:
        """site-avg |zeta|^2 minus (mu * site-avg phi^2 + site-avg |grad phi|^2).

        Nonnegative (up to 1e-9) for every realization; this is the
        Cauchy-Schwarz energy estimate in discrete form.
        """
        return self.zeta_second_moment - (
            self.mu * self.second_moment + self.dirichlet_energy
        )


def _pin_mean(phi: np.ndarray) -> None:
    """Remove the site mean in place: the finite-volume stand-in for E[phi] = 0."""
    phi -= phi.mean()


def _divergence_hat(zeta: IncrementSample) -> tuple[np.ndarray, np.ndarray]:
    """div*(zeta) and its rfftn: the part of a solve that every mu on this torus shares.

    Only the components in zeta.support are read.
    """
    rhs = backward_divergence(zeta.values, zeta.support)
    return rhs, np.fft.rfftn(rhs)


def _square_sum(x: np.ndarray) -> float:
    """Sum of squares of all entries of a contiguous array.

    einsum on the flat view neither goes through BLAS nor writes a
    temporary, so the result does not depend on the BLAS thread count.
    """
    flat = x.reshape(-1)
    return float(np.einsum("i,i->", flat, flat))


def _certified_solve(
    mu: float,
    inverse_symbol: np.ndarray,
    rhs: np.ndarray,
    rhs_hat: np.ndarray,
    zeta_second_moment: float,
    sample_id: str,
) -> tuple[np.ndarray, float, float, float, float]:
    """Solve mu*phi - laplacian(phi) = rhs from rhs_hat = rfftn(rhs) and certify it.

    inverse_symbol is lattice._inverse_symbol(mu, rhs.shape). Returns
    (phi, second moment, Dirichlet energy, residual max, energy margin).
    Three checks run in real space, and a violation raises
    DiagnosticError: the residual mu*phi - rhs + D*.(D phi), the pinned
    mean, and the energy estimate. One buffer holds each forward
    difference D_l phi in turn: its sum of squares adds to the Dirichlet
    energy, and it is folded into the residual, which is accumulated in
    place (-laplacian = D*.D).
    """
    phi = _spectral_quotient(inverse_symbol, rhs_hat, rhs.shape)
    _pin_mean(phi)
    n_sites = phi.size
    second_moment = _square_sum(phi) / n_sites
    residual = np.multiply(phi, mu)
    residual -= rhs
    diff = np.empty_like(phi)
    dirichlet = 0.0
    for l in range(phi.ndim):
        _neighbour_diff(phi, l, 1, diff)
        dirichlet += _square_sum(diff)
        _add_backward_diff(residual, diff, l)
    dirichlet /= n_sites
    residual_max = max(float(residual.max()), -float(residual.min()))
    margin = zeta_second_moment - (mu * second_moment + dirichlet)

    phi_max = max(float(phi.max()), -float(phi.min()))
    if residual_max > RESIDUAL_RTOL * (1.0 + phi_max):
        raise DiagnosticError(
            f"corrector residual {residual_max:.3e} exceeds {RESIDUAL_RTOL}*(1+|phi|_max)"
        )
    if abs(float(phi.mean())) > MEAN_TOL:
        raise DiagnosticError("corrector site mean not pinned to zero")
    if margin < -ENERGY_TOL:
        raise DiagnosticError(
            f"energy estimate violated by {-margin:.3e} (sample {sample_id})"
        )
    return phi, second_moment, dirichlet, residual_max, margin


def solve_corrector(mu: float, zeta: IncrementSample) -> CorrectorSolution:
    """Solve mu*phi - laplacian(phi) = div*(zeta) exactly on the torus.

    The zero spatial mode of div*(zeta) vanishes identically, so phi is
    pinned to site mean zero (the finite-volume stand-in for E[phi] = 0).
    Solver invariants (residual, mean, energy estimate) are re-verified on
    the result and violations raise DiagnosticError.
    """
    inverse = _inverse_symbol(mu, zeta.geometry.shape)
    zeta2 = zeta.second_moment()
    phi, second_moment, dirichlet, residual_max, _ = _certified_solve(
        mu, inverse, *_divergence_hat(zeta), zeta2, zeta.sample_id
    )
    return CorrectorSolution(
        mu=float(mu),
        phi=phi,
        grad=forward_gradient(phi),
        second_moment=second_moment,
        dirichlet_energy=dirichlet,
        residual_max=residual_max,
        zeta_second_moment=zeta2,
        source_sample_id=zeta.sample_id,
    )


def gradient_defect(solution: CorrectorSolution, zeta: IncrementSample) -> float:
    """RMS of grad phi - zeta; tends to 0 with mu when zeta is a gradient field."""
    diff = solution.grad - zeta.values
    return float(np.sqrt(np.mean(np.sum(diff**2, axis=0))))


def green_representation_check(
    mu: float, zeta: IncrementSample, table: GreenTable | None = None
) -> float:
    """Max-norm deviation between the direct solve and the Green representation.

    The representation path evaluates phi(x) = sum_y grad G(y - x) . zeta(y)
    as d cross-correlations in Fourier space, a computation route sharing no
    intermediate with solve_corrector beyond the FFT primitive.
    """
    geom = zeta.geometry
    if table is None:
        table = green_torus(mu, geom)
    if table.geometry != geom:
        raise ValueError("Green table and sample live on different geometries")
    if table.mu != mu:
        raise ValueError(f"Green table was built for mu={table.mu}, not {mu}")
    phi_rep = np.zeros(geom.shape)
    for l in range(geom.d):
        g_hat = np.fft.fftn(table.grad[l])
        z_hat = np.fft.fftn(zeta.values[l])
        phi_rep += np.fft.ifftn(np.conj(g_hat) * z_hat).real
    phi_rep -= phi_rep.mean()
    direct = solve_corrector(mu, zeta).phi
    return float(np.max(np.abs(phi_rep - direct)))


def variance_formula_iid(
    mu: float, geometry: TorusGeometry, var_a: float, axis: int = 0
) -> float:
    """E[phi^2] for iid increments of variance var_a: var_a * sum_x (grad_i G)^2."""
    if var_a < 0:
        raise ValueError("variance must be nonnegative")
    if var_a == 0.0:
        return 0.0
    return var_a * grad_green_l2(mu, geometry, axis)


@dataclass(frozen=True)
class MCResult:
    """Ensemble statistics of the site-averaged phi^2 over realizations.

    Unpacks as (mean, stderr). energy_margin_min is the worst-case (over
    realizations) slack in the per-realization energy estimate; psi_mean
    is the ensemble mean of the generator potential's second moment when
    the generator exposes one (gradient-type generators), else None.
    """

    mean: float
    stderr: float
    n: int
    energy_margin_min: float
    psi_mean: float | None
    values: tuple[float, ...]

    def __iter__(self) -> Iterator[float]:
        return iter((self.mean, self.stderr))


def _realization_stats(task) -> tuple[int, list[tuple[float, float]], float | None]:
    """Worker: one realization, solved at every mu of one torus side.

    The field is drawn once, and its divergence and rfftn are shared by
    all mu; steps pairs each mu with its inverse symbol, built once per
    torus side. Module-level so that any map_fn can run it, a caller's
    process pool included.
    """
    spec, geometry, steps, master_seed, index = task
    sample = spec.realize(geometry, master_seed, index)
    rhs, rhs_hat = _divergence_hat(sample)
    zeta2, psi2, sample_id = sample.second_moment(), sample.psi_second_moment, sample.sample_id
    del sample
    stats = []
    for mu, inverse in steps:
        _, second_moment, _, _, margin = _certified_solve(
            mu, inverse, rhs, rhs_hat, zeta2, sample_id
        )
        stats.append((second_moment, margin))
    return index, stats, psi2


def _second_moments_mc(
    mus: Sequence[float],
    spec: GeneratorSpec,
    geometry: TorusGeometry,
    n_realizations: int,
    master_seed: int,
    map_fn: Callable[..., Iterable] | None = None,
) -> list[MCResult]:
    """second_moment_mc at each of several mu on one torus, one MCResult per mu."""
    if n_realizations < 2:
        raise ValueError("need at least 2 realizations")
    if map_fn is None:
        map_fn = map
    steps = tuple((mu, _inverse_symbol(mu, geometry.shape)) for mu in mus)
    tasks = [(spec, geometry, steps, master_seed, i) for i in range(n_realizations)]
    phi2 = np.empty((len(mus), n_realizations))
    margins = np.empty((len(mus), n_realizations))
    psi = np.full(n_realizations, np.nan)
    for index, stats, psi_sm in map_fn(_realization_stats, tasks):
        phi2[:, index], margins[:, index] = zip(*stats)
        if psi_sm is not None:
            psi[index] = psi_sm
    has_psi = not np.isnan(psi).any()
    psi_mean = float(np.mean(psi)) if has_psi else None
    return [
        MCResult(
            mean=float(np.mean(row)),
            stderr=float(np.std(row, ddof=1) / math.sqrt(n_realizations)),
            n=n_realizations,
            energy_margin_min=float(np.min(margin_row)),
            psi_mean=psi_mean,
            values=tuple(float(v) for v in row),
        )
        for row, margin_row in zip(phi2, margins)
    ]


def second_moment_mc(
    mu: float,
    spec: GeneratorSpec,
    geometry: TorusGeometry,
    n_realizations: int,
    master_seed: int,
    map_fn: Callable[..., Iterable] | None = None,
) -> MCResult:
    """Monte Carlo estimate of E[phi_mu^2] with site averaging per realization.

    Realization index i draws from the dedicated seed stream
    (master_seed, field domain, i), so the estimate is a pure function of
    (master_seed, n) no matter how map_fn schedules the tasks: results are
    written into index order before the reduction, which keeps output
    bit-stable under any execution order. The same index at the same
    geometry reuses the same field across mu values (common random
    numbers), which stabilizes cross-mu ratios.
    """
    return _second_moments_mc((mu,), spec, geometry, n_realizations, master_seed, map_fn)[0]


@dataclass(frozen=True)
class ScalingPoint:
    mu: float
    L: int
    n: int
    mean: float
    stderr: float
    energy_margin_min: float
    psi_mean: float | None
    capped: bool


@dataclass(frozen=True)
class ScalingFits:
    loglog_slope: float | None
    loglog_r2: float | None
    loglin_slope: float | None
    loglin_r2: float | None
    boundedness_ratio: float


VERDICTS = ("bounded", "diverging-powerlaw", "diverging-log", "inconclusive")

RATIO_BOUNDED = 1.5
LOGLOG_SLOPE_MAX = -0.25
LOGLOG_R2_MIN = 0.9
LOGLIN_R2_MIN = 0.95


@dataclass(frozen=True)
class ScalingReport:
    generator: dict
    d: int
    master_seed: int
    l_rule_coefficient: float
    l_cap: int | None
    points: tuple[ScalingPoint, ...]
    fits: ScalingFits
    verdict: str
    verdict_reason: str

    def to_dict(self) -> dict:
        out = asdict(self)
        out["l_rule"] = f"L >= {out.pop('l_rule_coefficient')!r} * mu^-1/2"
        return out

    CSV_HEADER = ("mu", "mean", "stderr", "L", "n")

    def csv_rows(self) -> list[tuple]:
        return [(p.mu, p.mean, p.stderr, p.L, p.n) for p in self.points]


def required_side(mu: float, coefficient: float = 8.0) -> int:
    """Smallest even torus side satisfying L >= coefficient * mu^{-1/2}."""
    L = max(4, math.ceil(coefficient / math.sqrt(mu)))
    return L + (L % 2)


def _bytes_per_site(d: int) -> float:
    # peak working set of one realization in _realization_stats, measured
    # with tracemalloc at d=3, L=32 and 3 mus with a cold symbol cache,
    # counting the symbol and the per-mu inverse symbols the task shares:
    # 97 bytes per site for iid, 77 for gradient, 101 for decay_alpha (its
    # three spectral syntheses); 16*(2d+6) = 192 at d=3 is a deliberate
    # overestimate
    return 16.0 * (2 * d + 6)


def _budget_cap(memory_budget_mb: float, d: int) -> int:
    budget = memory_budget_mb * 2**20
    L = int((budget / _bytes_per_site(d)) ** (1.0 / d))
    return max(L - (L % 2), 2)


def _validate_grid(mu_grid: Sequence[float]) -> tuple[float, ...]:
    grid = tuple(float(m) for m in mu_grid)
    if len(grid) < 5:
        raise ConfigError(f"mu-grid needs at least 5 points, got {len(grid)}")
    if any(not m > 0 for m in grid):
        raise ConfigError("mu-grid entries must be positive")
    ratios = [grid[i + 1] / grid[i] for i in range(len(grid) - 1)]
    if any(abs(r - ratios[0]) > 1e-9 * abs(ratios[0]) for r in ratios):
        raise ConfigError("mu-grid must be geometric (constant ratio)")
    if abs(ratios[0] - 1.0) < 1e-12:
        raise ConfigError("mu-grid ratio must differ from 1")
    return grid


def verdict_checks(fits: ScalingFits) -> tuple[tuple[str, str, bool], ...]:
    """(verdict, rule, passes) for each decision threshold, in cascade order.

    A fit that is None (no positive estimate to take a logarithm of) fails
    every rule that reads it.
    """
    ratio, slope, r2, lin_r2 = (
        fits.boundedness_ratio, fits.loglog_slope, fits.loglog_r2, fits.loglin_r2
    )
    return (
        ("bounded", f"ratio <= {RATIO_BOUNDED}", ratio is not None and ratio <= RATIO_BOUNDED),
        (
            "diverging-powerlaw",
            f"slope <= {LOGLOG_SLOPE_MAX} and R^2 >= {LOGLOG_R2_MIN}",
            slope is not None and slope <= LOGLOG_SLOPE_MAX
            and r2 is not None and r2 >= LOGLOG_R2_MIN,
        ),
        (
            "diverging-log",
            f"affine R^2 >= {LOGLIN_R2_MIN}",
            lin_r2 is not None and lin_r2 >= LOGLIN_R2_MIN,
        ),
    )


def _verdict(fits: ScalingFits) -> tuple[str, str]:
    """The first verdict whose rule passes, and the measured values behind it."""
    verdict = next((v for v, _, passes in verdict_checks(fits) if passes), "inconclusive")
    if verdict == "bounded":
        return verdict, f"max/first ratio {fits.boundedness_ratio:.4g} <= {RATIO_BOUNDED}"
    if verdict == "diverging-powerlaw":
        return verdict, (
            f"log-log slope {fits.loglog_slope:.4g} <= {LOGLOG_SLOPE_MAX} "
            f"with R^2 {fits.loglog_r2:.4g} >= {LOGLOG_R2_MIN}"
        )
    if verdict == "diverging-log":
        return verdict, (
            f"affine fit in |ln mu| has R^2 {fits.loglin_r2:.4g} >= {LOGLIN_R2_MIN}"
        )
    return verdict, "no decision threshold met"


def scaling_study(
    spec: GeneratorSpec,
    d: int,
    mu_grid: Sequence[float] | None = None,
    n_per_mu: int = 100,
    master_seed: int = 0,
    l_rule_coefficient: float = 8.0,
    l_max: int | None = None,
    memory_budget_mb: float | None = None,
    map_fn: Callable[..., Iterable] | None = None,
) -> ScalingReport:
    """Estimate E[phi_mu^2] across a geometric mu-grid and classify the trend.

    The torus side per mu follows L >= l_rule_coefficient * mu^{-1/2};
    a side cap (explicit l_max and/or a memory budget) may truncate the
    rule for small mu, and any capping is recorded per point. If even the
    largest mu in the grid cannot satisfy the rule under the cap, the
    study refuses to start (BudgetError).

    Verdict thresholds, applied in order:
      ratio = max estimate / estimate at largest mu <= 1.5    -> bounded
      log-log slope <= -0.25 and R^2 >= 0.9                   -> diverging-powerlaw
      affine-in-|ln mu| fit R^2 >= 0.95                       -> diverging-log
      otherwise                                               -> inconclusive
    """
    grid = _validate_grid(mu_grid if mu_grid is not None else DEFAULT_MU_GRID)
    if n_per_mu < 2:
        raise ConfigError("n_per_mu must be at least 2")
    caps = []
    if l_max is not None:
        if l_max < 2:
            raise ConfigError("l_max must be at least 2")
        caps.append(int(l_max))
    if memory_budget_mb is not None:
        if not memory_budget_mb > 0:
            raise ConfigError("memory budget must be positive")
        caps.append(_budget_cap(memory_budget_mb, d))
    cap = min(caps) if caps else None

    mu_max = max(grid)
    if cap is not None and cap < required_side(mu_max, l_rule_coefficient):
        raise BudgetError(
            f"cap L={cap} cannot satisfy L >= {l_rule_coefficient}*mu^-1/2 "
            f"even at the largest mu={mu_max}"
        )

    sides = []
    for mu in grid:
        need = required_side(mu, l_rule_coefficient)
        capped = cap is not None and need > cap
        sides.append((cap if capped else need, capped))
    # grid points sharing a torus side share each realization's draw and FFT
    by_side: dict[int, list[int]] = {}
    for j, (L, _) in enumerate(sides):
        by_side.setdefault(L, []).append(j)
    results: list[MCResult | None] = [None] * len(grid)
    for L, members in by_side.items():
        group = _second_moments_mc(
            [grid[j] for j in members], spec, TorusGeometry(d=d, L=L), n_per_mu,
            master_seed, map_fn=map_fn,
        )
        for j, res in zip(members, group):
            results[j] = res
    points = [
        ScalingPoint(
            mu=mu,
            L=L,
            n=n_per_mu,
            mean=res.mean,
            stderr=res.stderr,
            energy_margin_min=res.energy_margin_min,
            psi_mean=res.psi_mean,
            capped=capped,
        )
        for mu, (L, capped), res in zip(grid, sides, results)
    ]

    mus = np.array([p.mu for p in points])
    means = np.array([p.mean for p in points])
    at_mu_max = means[int(np.argmax(mus))]
    peak = float(np.max(means))
    if at_mu_max > 0:
        ratio = peak / float(at_mu_max)
    else:
        ratio = 0.0 if peak <= 0 else math.inf
    if np.all(means > 0):
        ll_slope, ll_r2 = _linfit(np.log(mus), np.log(means))
        la_slope, la_r2 = _linfit(np.abs(np.log(mus)), means)
        fits = ScalingFits(ll_slope, ll_r2, la_slope, la_r2, ratio)
    else:
        fits = ScalingFits(None, None, None, None, ratio)
    verdict, reason = _verdict(fits)
    return ScalingReport(
        generator=spec.describe(),
        d=d,
        master_seed=master_seed,
        l_rule_coefficient=l_rule_coefficient,
        l_cap=cap,
        points=tuple(points),
        fits=fits,
        verdict=verdict,
        verdict_reason=reason,
    )
