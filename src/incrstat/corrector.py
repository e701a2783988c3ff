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
    _divergence_rows,
    _half_spectrum,
    _neighbour_diff,
    _slabs,
    _solve_half_spectrum,
    _subtract_neighbour,
    backward_divergence,
    forward_gradient,
)
from .randfields import (
    CHUNK_SITES, GeneratorSpec, IncrementSample, _centre, _rows_per_task, _sample_id,
    _second_moments,
)

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

    Both arrays are adopted without a copy and made read-only in place;
    phi is a view of the complex buffer its solve transformed in place
    (_certified_solve), which it keeps alive.
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


def _row_square_sums(x: np.ndarray) -> np.ndarray:
    """Sum of squares of each row of a contiguous (k,) + shape array, shape (k,).

    einsum neither goes through BLAS nor writes a temporary, so the result
    does not depend on the BLAS thread count.
    """
    rows = x.reshape(x.shape[0], -1)
    return np.einsum("ij,ij->i", rows, rows)


def _chunk_divergence(
    spec: GeneratorSpec, geometry: TorusGeometry, master_seed: int, indices: range
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """div*(zeta) of realization indices[i] of spec in row i of a (k,) + shape chunk.

    One spec.chunk draw of the generator's support alone (an iid or zero
    chunk allocates one component, not d), then one stencil pass over the
    whole chunk per component. Returns the divergence chunk, its row
    spectra (rfftn over the spatial axes), which every mu on this torus
    shares, and per row the zeta and the psi second moment (None when the
    generator has no potential). The zeta moments square into the
    divergence chunk before the divergence overwrites it, and the drawn
    fields are released before the rfftn, so neither temporary adds to
    the other. An iid or zero draw, one field of noise, comes after the
    divergence chunk is allocated: freed below the divergence, its block
    could not hold the slightly larger spectra that follow, and the heap
    would grow past it. Other kinds draw more than one field, or build a
    decay_alpha amplitude first, and allocate the divergence after.
    """
    shape = (len(indices),) + geometry.shape
    rhs = np.empty(shape) if spec.kind in ("iid", "zero") else None
    fields = spec.chunk(geometry, master_seed, indices, support_only=True)
    rhs = np.empty(shape) if rhs is None else rhs
    support = spec.support(geometry.d)
    zeta2, psi2 = _second_moments(fields.values, rhs), fields.psi_second_moment
    _divergence_rows(fields.values.swapaxes(0, 1), support, rhs)  # component by component
    del fields
    return rhs, _half_spectrum(rhs, geometry.d), zeta2, psi2


def _certified_solve(
    mu: float,
    rhs: np.ndarray,
    rhs_hat: np.ndarray,
    zeta_second_moment: np.ndarray,
    labels: Sequence[tuple],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve mu*phi - laplacian(phi) = rhs[i] for each row i of a (k,) + shape chunk, and certify it.

    rhs and its spectrum rhs_hat (rfftn over the spatial, trailing, axes)
    are left alone, so that one of each serves every mu of a group.
    zeta_second_moment and labels, the arguments of randfields._sample_id
    (formatted only for a failing row), hold one entry per row. Returns
    (phi, second moments, Dirichlet energies, residual maxima, energy
    margins), the last four of shape (k,). Every row passes three checks in real space: the residual
    mu*phi - laplacian(phi) - rhs, the pinned mean, and the energy
    estimate. The first failing row in index order raises DiagnosticError
    naming its sample id.

    The task holds three field-sized arrays here and no symbol: rhs,
    rhs_hat and the solve's complex buffer P. lattice._solve_half_spectrum
    multiplies rhs_hat by 1 / (mu + symbol) into P, one slab of planes
    along the first spatial axis at a time (lattice._slabs), and
    transforms P back in its own memory: phi is a view of P's real prefix,
    bit for bit the irfftn of the product. Centring, the second moments,
    the maxima of |phi| and the mean check run on the whole of phi. The
    certification then runs slab by slab in one slab-sized difference
    buffer, reading the neighbour planes across each slab's edges and the
    torus wrap: the buffer holds each forward difference D_l phi in turn,
    whose row sums of squares add to the Dirichlet energies, and then the
    residual, built in place as
    (mu + 2d) phi - rhs - sum_l [phi(x + e_l) + phi(x - e_l)],
    in the same operations per site as on the whole array. Where L^d is
    within one slab (lattice.SLAB_SITES sites), as in every chunk of two
    or more rows, that is the whole-array arithmetic; on more slabs, the
    Dirichlet energies sum their squares slab by slab, which moves them by
    rounding (within 1e-14 relative), and nothing else moves.
    """
    k, d, L = rhs.shape[0], rhs.ndim - 1, rhs.shape[-1]
    phi = _solve_half_spectrum(mu, rhs_hat, L, d, np.empty_like(rhs_hat))
    _centre(phi, d)
    rows = phi.reshape(k, -1)
    n_sites = rows.shape[1]
    second_moment = _row_square_sums(phi) / n_sites
    slabs = _slabs(d, L)
    buffer = np.empty_like(phi[:, slabs[0]])
    dirichlet = np.zeros(k)
    residual_max = np.full(k, -np.inf)
    for planes in slabs:
        site = phi[:, planes]
        diff = buffer[:, : planes.stop - planes.start]
        # along the slab axis, the edge planes' neighbours lie outside the slab
        neighbours = [(phi, planes.start)] + [(site, 0)] * (d - 1)
        for l, (v, start) in enumerate(neighbours, 1):
            _neighbour_diff(v, l, 1, diff, start)
            dirichlet += _row_square_sums(diff)
        residual = np.multiply(site, mu + 2 * d, out=diff)
        residual -= rhs[:, planes]
        for l, (v, start) in enumerate(neighbours, 1):
            _subtract_neighbour(v, l, 1, residual, start)
            _subtract_neighbour(v, l, -1, residual, start)
        residual_rows = residual.reshape(k, -1)
        slab_max = np.maximum(residual_rows.max(axis=1), -residual_rows.min(axis=1))
        np.maximum(residual_max, slab_max, out=residual_max)
    dirichlet /= n_sites
    margin = zeta_second_moment - (mu * second_moment + dirichlet)

    phi_max = np.maximum(rows.max(axis=1), -rows.min(axis=1))
    bad_residual = residual_max > RESIDUAL_RTOL * (1.0 + phi_max)
    bad_mean = np.abs(rows.mean(axis=1)) > MEAN_TOL
    bad_energy = margin < -ENERGY_TOL
    failing = np.flatnonzero(bad_residual | bad_mean | bad_energy)
    if failing.size:
        i = failing[0]
        if bad_residual[i]:
            msg = f"corrector residual {residual_max[i]:.3e} exceeds {RESIDUAL_RTOL}*(1+|phi|_max)"
        elif bad_mean[i]:
            msg = "corrector site mean not pinned to zero"
        else:
            msg = f"energy estimate violated by {-margin[i]:.3e}"
        raise DiagnosticError(f"{msg} (sample {_sample_id(*labels[i])})")
    return phi, second_moment, dirichlet, residual_max, margin


def solve_corrector(mu: float, zeta: IncrementSample) -> CorrectorSolution:
    """Solve mu*phi - laplacian(phi) = div*(zeta) exactly on the torus.

    The zero spatial mode of div*(zeta) vanishes identically, so phi is
    pinned to site mean zero (the finite-volume stand-in for E[phi] = 0).
    Solver invariants (residual, mean, energy estimate) are re-verified on
    the result and violations raise DiagnosticError. This is the one-row
    chunk of the Monte Carlo kernel.
    """
    geom = zeta.geometry
    rhs = backward_divergence(zeta.values)[np.newaxis]
    label = (zeta.generator_id, zeta.parameters, zeta.seed, zeta.realization)
    zeta2 = np.array([zeta.second_moment()])
    phi, second_moment, dirichlet, residual_max, _ = _certified_solve(
        mu, rhs, _half_spectrum(rhs, geom.d), zeta2, [label]
    )
    return CorrectorSolution(
        mu=float(mu),
        phi=phi[0],
        grad=forward_gradient(phi[0]),
        second_moment=float(second_moment[0]),
        dirichlet_energy=float(dirichlet[0]),
        residual_max=float(residual_max[0]),
        zeta_second_moment=float(zeta2[0]),
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


def _chunk_rows(geometry: TorusGeometry, memory_budget_mb: float | None = None) -> int:
    """Realizations per Monte Carlo chunk on this torus: _rows_per_task(geometry).

    A memory budget lowers the chunk's sites to what it holds at
    _bytes_per_site(d); scaling_study's side cap keeps one row within it.
    """
    sites = CHUNK_SITES
    if memory_budget_mb is not None:
        sites = min(sites, int(memory_budget_mb * 2**20 / _bytes_per_site(geometry.d)))
    return _rows_per_task(geometry, sites)


def _chunk_stats(task) -> tuple[range, list[tuple[np.ndarray, np.ndarray]], np.ndarray | None]:
    """Worker: one chunk of realizations, each solved at every mu of one torus side.

    task is (spec, geometry, mus, master_seed, indices) and holds no
    array. Realization indices[i] is drawn from its own seed stream into
    row i of one chunk (_chunk_divergence); one rfftn over the spatial
    axes serves every mu, and each mu takes one irfftn for the whole chunk
    (_certified_solve, which builds its inverse symbol and its residual
    slab by slab, and phi in the memory of the solve's spectrum).
    Returns indices, per mu the rows' second moments and energy margins,
    and the rows' psi second moments (None when the generator has none).
    Module-level so that any map_fn can run it, a caller's process pool
    included.
    """
    spec, geometry, mus, master_seed, indices = task
    rhs, rhs_hat, zeta2, psi2 = _chunk_divergence(spec, geometry, master_seed, indices)
    generator_id, parameters = spec.generator_id, spec.parameters
    labels = [(generator_id, parameters, master_seed, i) for i in indices]
    stats = []
    for mu in mus:
        _, second_moment, _, _, margin = _certified_solve(mu, rhs, rhs_hat, zeta2, labels)
        stats.append((second_moment, margin))
    return indices, stats, psi2


def _second_moments_mc(
    mus: Sequence[float],
    spec: GeneratorSpec,
    geometry: TorusGeometry,
    n_realizations: int,
    master_seed: int,
    map_fn: Callable[..., Iterable] | None = None,
    memory_budget_mb: float | None = None,
) -> list[MCResult]:
    """second_moment_mc at each of several mu on one torus, one MCResult per mu.

    map_fn runs _chunk_stats over consecutive index ranges of
    _chunk_rows(geometry, memory_budget_mb) realizations (the last one
    shorter); the ranges depend on neither map_fn nor its thread count.
    Each chunk's rows are written into index order before the reduction.
    The tasks carry no array: each solve builds its own inverse symbol.
    """
    if n_realizations < 2:
        raise ValueError("need at least 2 realizations")
    if map_fn is None:
        map_fn = map
    mus = tuple(mus)
    for mu in mus:  # before any draw
        if not mu > 0:
            raise ValueError(f"mu must be positive, got {mu}")
    k = _chunk_rows(geometry, memory_budget_mb)
    tasks = [
        (spec, geometry, mus, master_seed, range(start, min(start + k, n_realizations)))
        for start in range(0, n_realizations, k)
    ]
    phi2 = np.empty((len(mus), n_realizations))
    margins = np.empty((len(mus), n_realizations))
    psi = np.full(n_realizations, np.nan)
    for indices, stats, psi_rows in map_fn(_chunk_stats, tasks):
        rows = slice(indices.start, indices.stop)
        for j, (second_moment, margin) in enumerate(stats):
            phi2[j, rows] = second_moment
            margins[j, rows] = margin
        if psi_rows is not None:
            psi[rows] = psi_rows
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
    # peak working set of one _chunk_stats task per chunk site, measured
    # with tracemalloc at 3 mus with a cold amplitude cache, over every
    # generator kind; a task holds no symbol, each solve builds its own
    # slab by slab: 33-44 bytes per site in d=1 chunks of 4 to 1024 rows,
    # 34-50 in d=2 chunks of 4 to 256 rows and 46-53 in d=3 chunks of 4 to
    # 32 rows, which are one slab, so their slab buffers are field-sized;
    # one-row chunks take 30-40 at d=1 and d=2 and 26-46 at d=3 (iid 26
    # at L=64, 25 at L=96), except decay_alpha, which builds its
    # amplitude: 48-50. Two-row chunks of 32 to 128 sites a row read 55
    # to 109, a fixed few kilobytes.
    # 16*(2d+6) = 128, 160 and 192 is a deliberate overestimate
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


def verdict_checks(fits: ScalingFits) -> tuple[tuple[str, str, bool, str], ...]:
    """(verdict, rule, passes, reason) for each decision threshold, in cascade order.

    The first rule that passes is the verdict; its reason, a format string
    over the fields of fits, is the verdict_reason. None passing is
    "inconclusive". A fit that is None (no positive estimate to take a
    logarithm of) fails every rule that reads it.
    """
    ratio, slope, r2, lin_r2 = (
        fits.boundedness_ratio, fits.loglog_slope, fits.loglog_r2, fits.loglin_r2
    )
    return (
        (
            "bounded",
            f"ratio <= {RATIO_BOUNDED}",
            ratio is not None and ratio <= RATIO_BOUNDED,
            f"max/first ratio {{boundedness_ratio:.4g}} <= {RATIO_BOUNDED}",
        ),
        (
            "diverging-powerlaw",
            f"slope <= {LOGLOG_SLOPE_MAX} and R^2 >= {LOGLOG_R2_MIN}",
            slope is not None and slope <= LOGLOG_SLOPE_MAX
            and r2 is not None and r2 >= LOGLOG_R2_MIN,
            f"log-log slope {{loglog_slope:.4g}} <= {LOGLOG_SLOPE_MAX} "
            f"with R^2 {{loglog_r2:.4g}} >= {LOGLOG_R2_MIN}",
        ),
        (
            "diverging-log",
            f"affine R^2 >= {LOGLIN_R2_MIN}",
            lin_r2 is not None and lin_r2 >= LOGLIN_R2_MIN,
            f"affine fit in |ln mu| has R^2 {{loglin_r2:.4g}} >= {LOGLIN_R2_MIN}",
        ),
    )


def _verdict(fits: ScalingFits) -> tuple[str, str]:
    """The first verdict whose rule passes, and the measured values behind it."""
    for verdict, _, passes, reason in verdict_checks(fits):
        if passes:
            return verdict, reason.format(**asdict(fits))
    return "inconclusive", "no decision threshold met"


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

    The verdict is the first rule of verdict_checks that passes, where
    ratio = max estimate / estimate at the largest mu.
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
            master_seed, map_fn=map_fn, memory_budget_mb=memory_budget_mb,
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
