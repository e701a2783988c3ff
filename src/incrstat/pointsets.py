"""Point sets: renewal processes, lattice images, energies, density limits.

Windows are closed axis-aligned boxes. A window is always generated with
enough margin that every point of the infinite set falling inside the
stated box is present, so pair sums over any sub-box are exact. Renewal
paths are block-wise cumulative sums and pair energies one sorted sweep in
every d; no loop runs per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DiagnosticError, GeneratorError
from .randfields import IncrementLaw, IncrementSample
from .seeding import (
    DOMAIN_INTERVALS,
    DOMAIN_POINTSET,
    derive_rng,
    derive_seed,
    zigzag,
)

__all__ = [
    "IntervalLaw",
    "PointSetWindow",
    "renewal_pointset_1d",
    "PairPotential",
    "energy",
    "energy_bruteforce",
    "DensityStudy",
    "thermodynamic_density",
    "study_window",
    "LatticeMapSpec",
    "LatticeFieldWindow",
    "lattice_image_pointset",
    "LinearityVerdict",
    "linearity_detector",
    "cumulative_translation",
]

INTERVAL_BLOCK = 1024
PATH_AGREEMENT_TOL = 1e-10
MIN_SEEDS = 8  # smallest n_seeds thermodynamic_density and the energy config accept
INTERVAL_LAWS = ("constant", "uniform", "exponential")
POTENTIALS = ("indicator", "power")


@dataclass(frozen=True)
class IntervalLaw:
    """Strictly positive inter-point interval law with finite second moment.

    kinds: constant(c), uniform(lo, hi) with lo > 0, exponential(rate).
    """

    kind: str
    a: float
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in INTERVAL_LAWS:
            raise ValueError(f"unknown interval law {self.kind!r}")
        if self.kind == "constant" and not self.a > 0:
            raise ValueError("constant interval must be positive")
        if self.kind == "uniform":
            if self.a <= 0:
                raise ValueError(
                    f"uniform({self.a}, {self.b}) admits nonpositive intervals"
                )
            if not self.a < self.b:
                raise ValueError(f"uniform interval law needs lo < hi, got ({self.a}, {self.b})")
        if self.kind == "exponential" and not self.a > 0:
            raise ValueError("exponential rate must be positive")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full(size, self.a)
        if self.kind == "uniform":
            return rng.uniform(self.a, self.b, size=size)
        return rng.exponential(1.0 / self.a, size=size)

    @property
    def mean(self) -> float:
        if self.kind == "constant":
            return self.a
        if self.kind == "uniform":
            return 0.5 * (self.a + self.b)
        return 1.0 / self.a

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return (x >= self.a).astype(float)
        if self.kind == "uniform":
            return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)
        return np.where(x > 0, 1.0 - np.exp(-self.a * x), 0.0)


def _has_repeated_row(a: np.ndarray) -> bool:
    """True if two rows of the (n, d) array are equal (-0.0 equals 0.0)."""
    s = a[np.lexsort(a.T[::-1])]
    return bool(np.any(np.all(s[1:] == s[:-1], axis=1)))


@dataclass(frozen=True, eq=False)
class PointSetWindow:
    """Finite window of a simple point set, optionally labeled by Z^d.

    box is closed; labels (when present) align row-wise with points and
    must be injective.
    """

    d: int
    box: tuple[tuple[float, float], ...]
    points: np.ndarray
    labels: np.ndarray | None = None
    generator: str = "unspecified"
    seed: int = 0

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise ValueError(f"points must have shape (n, {self.d})")
        object.__setattr__(self, "points", pts)
        if len(self.box) != self.d:
            raise ValueError("box must give one (lo, hi) pair per axis")
        for lo, hi in self.box:
            if not lo <= hi:
                raise ValueError(f"box interval ({lo}, {hi}) is empty")
        for l, (lo, hi) in enumerate(self.box):
            if pts.shape[0] and (pts[:, l].min() < lo or pts[:, l].max() > hi):
                raise ValueError(f"points leave the stated box along axis {l}")
        if _has_repeated_row(pts):
            raise GeneratorError("coincident points: injectivity violated")
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=int)
            if lab.shape != (pts.shape[0], self.d):
                raise ValueError("labels must align with points, one Z^d label per row")
            if _has_repeated_row(lab):
                raise ValueError("labeling must be injective")
            object.__setattr__(self, "labels", lab)

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])

    def points_in(self, region: Sequence[tuple[float, float]]) -> np.ndarray:
        """Points lying in the closed sub-box `region`."""
        region = tuple(region)
        if len(region) != self.d:
            raise ValueError("region must give one (lo, hi) pair per axis")
        for l, (lo, hi) in enumerate(region):
            blo, bhi = self.box[l]
            if lo < blo or hi > bhi:
                raise ValueError(
                    f"region exceeds the generated window along axis {l}: "
                    f"[{lo}, {hi}] vs [{blo}, {bhi}]"
                )
        mask = np.ones(self.n_points, dtype=bool)
        for l, (lo, hi) in enumerate(region):
            mask &= (self.points[:, l] >= lo) & (self.points[:, l] <= hi)
        return self.points[mask]


def _interval_block(law: IntervalLaw, seed: int, b: int) -> np.ndarray:
    """Intervals tau_j for j in [b * INTERVAL_BLOCK, (b + 1) * INTERVAL_BLOCK).

    Each block comes from its own derived stream (seed, interval domain,
    zigzag(b)), so tau_j is a pure function of (seed, j): shifting the
    index shifts which values are read, never which values exist.
    """
    block = law.draw(derive_rng(seed, DOMAIN_INTERVALS, zigzag(b)), INTERVAL_BLOCK)
    if np.any(block <= 0):
        raise GeneratorError("interval law produced a nonpositive interval")
    return block


def renewal_pointset_1d(
    law: IntervalLaw,
    window: tuple[float, float],
    seed: int,
    shift: int = 0,
) -> PointSetWindow:
    """Renewal point set X_k on the line, restricted to a closed window.

    X_0 = 0 and X_{k+1} = X_k + tau_k with iid intervals tau. The shift
    argument applies the index shift by `shift` exactly: the returned
    point labeled k is the bitwise value X_{k+shift} - X_{shift} of the
    unshifted realization (same seed), which realizes the group action as
    a reindexing of one fixed interval sequence.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo <= hi:
        raise ValueError(f"window ({lo}, {hi}) is empty")
    # up[m] holds X_j for j in ((m - 1) B, m B], B = INTERVAL_BLOCK, and down[m]
    # the same for X_-j. np.cumsum adds in index order and a + (-t) == a - t,
    # so each X_j is bitwise the recursion X_{j+1} = X_j + tau_j from X_0 = 0.
    up, down = [np.zeros(1)], [np.zeros(1)]

    def grow(path: list[np.ndarray], upward: bool) -> None:
        m = len(path) - 1
        tau = _interval_block(law, seed, m if upward else -m - 1)
        steps = tau if upward else -tau[::-1]
        path.append(np.cumsum(np.concatenate((path[-1][-1:], steps)))[1:])

    while INTERVAL_BLOCK * (len(up) - 1) < shift:
        grow(up, True)
    while INTERVAL_BLOCK * (len(down) - 1) < -shift:
        grow(down, False)
    base = np.concatenate(up)[shift] if shift >= 0 else np.concatenate(down)[-shift]
    # X is nondecreasing: once a point lies past each end, the window is covered
    while up[-1][-1] - base <= hi:
        grow(up, True)
    while down[-1][-1] - base >= lo:
        grow(down, False)
    below = np.concatenate(down)[:0:-1]  # X_-n, ..., X_-1
    v = np.concatenate((below, *up)) - base
    first = int(np.searchsorted(v, lo, side="left"))
    last = int(np.searchsorted(v, hi, side="right"))
    labels = np.arange(first, last) - below.size - shift
    return PointSetWindow(
        d=1,
        box=((lo, hi),),
        points=v[first:last].reshape(-1, 1),
        labels=labels.reshape(-1, 1),
        generator=f"renewal_{law.kind}" + (f"_shift{shift}" if shift else ""),
        seed=seed,
    )


@dataclass(frozen=True)
class PairPotential:
    """Finite-range two-body potential V(x - y), cutoff radius `cutoff`.

    kinds: indicator (V = 1 inside the cutoff), power (V = r^-exponent
    inside the cutoff).
    """

    kind: str
    cutoff: float
    exponent: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in POTENTIALS:
            raise ValueError(f"unknown potential {self.kind!r}")
        if not self.cutoff > 0:
            raise ValueError("cutoff radius must be positive")
        if self.kind == "power" and not self.exponent > 0:
            raise ValueError("power potential needs a positive exponent")

    def evaluate(self, r: np.ndarray) -> np.ndarray:
        inside = r <= self.cutoff
        if self.kind == "indicator":
            return inside.astype(float)
        out = np.zeros_like(r)
        np.divide(1.0, r**self.exponent, out=out, where=inside & (r > 0))
        return out


def energy(
    window: PointSetWindow, V: PairPotential, region: Sequence[tuple[float, float]]
) -> float:
    """Exact pair energy (1/2) sum_{x != y in region} V(x - y) by a sorted sweep.

    Points are stably sorted on coordinate 0; offset k visits the pairs
    (i, i + k) of that order whose axis-0 gap is at most `V.cutoff`. The
    gap grows with k and never exceeds the distance, and V vanishes beyond
    the cutoff, so the sweep stops at the first offset with no such pair
    and the sum is exact. The visiting order is fixed, so the result is
    reproducible bit-for-bit.
    """
    pts = window.points_in(region)
    pts = pts[np.argsort(pts[:, 0], kind="stable")]
    x0 = pts[:, 0]
    total = 0.0
    for k in range(1, pts.shape[0]):
        i = np.flatnonzero(x0[k:] - x0[:-k] <= V.cutoff)
        if i.size == 0:
            break
        r = np.sqrt(np.sum((pts[i + k] - pts[i]) ** 2, axis=-1))
        total += float(np.sum(V.evaluate(r)))
    return total


def energy_bruteforce(
    window: PointSetWindow, V: PairPotential, region: Sequence[tuple[float, float]]
) -> float:
    """Reference double loop over all pairs. Oracle for the sorted sweep."""
    pts = window.points_in(region)
    n = pts.shape[0]
    if n < 2:
        return 0.0
    diff = pts[:, None, :] - pts[None, :, :]
    r = np.sqrt(np.sum(diff**2, axis=-1))
    iu = np.triu_indices(n, k=1)
    return float(np.sum(V.evaluate(r[iu])))


@dataclass(frozen=True, eq=False)
class DensityStudy:
    """Energy density E(l, D)/|D| across box sizes and seeds.

    spread is the cross-seed standard deviation per size. The shift check
    compares densities of theta_k-shifted realizations (same seeds)
    against the unshifted cross-seed statistics.
    """

    sizes: tuple[int, ...]
    n_seeds: int
    energies: np.ndarray  # (sizes, seeds)
    densities: np.ndarray  # (sizes, seeds)
    shifted_densities: np.ndarray  # (sizes, seeds)
    shift: int

    @property
    def means(self) -> np.ndarray:
        return self.densities.mean(axis=1)

    @property
    def spreads(self) -> np.ndarray:
        return self.densities.std(axis=1, ddof=1)

    @property
    def spread_decreases(self) -> bool:
        s = self.spreads
        return bool(s[-1] < s[0])

    @property
    def shift_mean_gaps(self) -> np.ndarray:
        """|mean of shifted densities - mean| per size."""
        return np.abs(self.shifted_densities.mean(axis=1) - self.means)

    @property
    def shift_agrees(self) -> bool:
        """Shifted-realization mean density within 2x cross-seed spread, every size."""
        return bool(np.all(self.shift_mean_gaps <= 2.0 * self.spreads + 1e-15))

    def rows(self) -> list[tuple[int, float, float]]:
        return [
            (N, float(m), float(s))
            for N, m, s in zip(self.sizes, self.means, self.spreads)
        ]

    def records(self) -> list[tuple[int, int, float, float]]:
        """(N, seed index, energy, density) per run, CSV-ready."""
        return [
            (N, s, float(self.energies[i, s]), float(self.densities[i, s]))
            for i, N in enumerate(self.sizes)
            for s in range(self.n_seeds)
        ]


def study_window(
    law: IntervalLaw, V: PairPotential, N: int, master_seed: int, seed_index: int, shift: int = 0
) -> PointSetWindow:
    """The renewal window that a density study measures for box [0, N] and one seed index.

    It is drawn from the sub-seed (master_seed, point-set domain,
    seed_index) on [-cutoff, N + cutoff], so every pair that reaches into
    the box is present.
    """
    sub_seed = derive_seed(master_seed, DOMAIN_POINTSET, seed_index)
    return renewal_pointset_1d(law, (-V.cutoff, N + V.cutoff), sub_seed, shift=shift)


def box_sizes_error(sizes: Sequence[int]) -> str | None:
    """Why `sizes` cannot be the box sizes of a density study, or None if they can."""
    if len(sizes) < 3:
        return f"need at least 3 box sizes, got {len(sizes)}"
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        return "box sizes must be strictly increasing"
    if sizes[0] < 1:
        return f"box sizes must be positive, got {sizes[0]}"
    return None


def shift_error(shift: int) -> str | None:
    """Why `shift` cannot be the index shift of a density study's check, or None if it can."""
    if shift == 0:
        return "the index shift must be nonzero; a zero shift compares each window with itself"
    return None


def _density_task(task) -> tuple[int, list[float], list[float]]:
    """(seed index, energies, shifted energies) of one seed index, one per box size.

    The seed's unshifted and shifted windows are drawn once, for the
    largest box: a renewal window's points do not depend on its extent, so
    every box [0, N] sees the points its own window would hold.
    """
    law, V, sizes, seed_idx, master_seed, shift = task
    regions = [((0.0, float(N)),) for N in sizes]
    windows = (study_window(law, V, sizes[-1], master_seed, seed_idx, k) for k in (0, shift))
    return seed_idx, *([energy(w, V, r) for r in regions] for w in windows)


def thermodynamic_density(
    law: IntervalLaw,
    V: PairPotential,
    sizes: Sequence[int],
    n_seeds: int = 8,
    master_seed: int = 0,
    shift: int = 8,
    map_fn: Callable[..., Iterable] | None = None,
) -> DensityStudy:
    """Estimate the thermodynamic energy density of a renewal set over boxes [0, N].

    Seed index s measures the window `study_window` draws for it, and the
    same window under the index shift by `shift`; aggregation is indexed,
    so results do not depend on map_fn scheduling.
    """
    sizes = tuple(int(N) for N in sizes)
    if problem := box_sizes_error(sizes) or shift_error(shift):
        raise ValueError(problem)
    if n_seeds < MIN_SEEDS:
        raise ValueError(f"need at least {MIN_SEEDS} seeds")
    tasks = [(law, V, sizes, s, master_seed, shift) for s in range(n_seeds)]
    energies = np.empty((2, len(sizes), n_seeds))  # unshifted, shifted
    for s, e, e_shifted in (map_fn or map)(_density_task, tasks):
        energies[:, :, s] = e, e_shifted
    densities = energies / np.array(sizes, dtype=float)[:, None]
    return DensityStudy(
        sizes=sizes,
        n_seeds=n_seeds,
        energies=energies[0],
        densities=densities[0],
        shifted_densities=densities[1],
        shift=shift,
    )


@dataclass(frozen=True)
class LatticeMapSpec:
    """Map Phi: Z^d -> R^d generating a labeled point set Phi(Z^d).

    kinds:
      affine: Phi(z) = A z + b, with b drawn per realization from b_law
        (one iid coordinate each); realizes the linear endpoint exactly.
      perturbed_identity: Phi(z) = z + amplitude * u(z), u iid uniform in
        the closed unit ball. amplitude < 1/2 keeps Phi injective with a
        hard-core gap >= 1 - 2*amplitude by the triangle inequality.
    """

    kind: str
    d: int
    matrix: tuple[tuple[float, ...], ...] | None = None
    b_law: IncrementLaw | None = None
    amplitude: float | None = None

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.kind == "affine":
            if self.matrix is None:
                raise ValueError("affine map needs a matrix")
            m = np.asarray(self.matrix, dtype=float)
            if m.shape != (self.d, self.d):
                raise ValueError(f"matrix must be {self.d}x{self.d}")
            object.__setattr__(
                self, "matrix", tuple(tuple(float(v) for v in row) for row in m)
            )
        elif self.kind == "perturbed_identity":
            if self.amplitude is None or not 0 <= self.amplitude:
                raise ValueError("perturbed identity needs amplitude >= 0")
            if self.amplitude >= 0.5:
                raise ValueError(
                    f"amplitude {self.amplitude} >= 1/2 loses injectivity"
                )
        else:
            raise ValueError(f"unknown lattice map {self.kind!r}")

    @property
    def A(self) -> np.ndarray | None:
        return None if self.matrix is None else np.asarray(self.matrix, dtype=float)


@dataclass(frozen=True, eq=False)
class LatticeFieldWindow:
    """Phi restricted to a finite lattice window, with exact increments.

    ranges are inclusive integer (lo, hi) per axis; phi has shape
    grid_shape + (d,) indexed by z - lo.
    """

    d: int
    ranges: tuple[tuple[int, int], ...]
    phi: np.ndarray
    generator: str = "unspecified"
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.ranges) != self.d:
            raise ValueError("one (lo, hi) range per axis required")
        shape = tuple(hi - lo + 1 for lo, hi in self.ranges)
        if any(s < 1 for s in shape):
            raise ValueError("window ranges must be nonempty")
        if self.phi.shape != shape + (self.d,):
            raise ValueError(f"phi must have shape {shape + (self.d,)}")

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return tuple(hi - lo + 1 for lo, hi in self.ranges)

    @cached_property
    def increments(self) -> tuple[np.ndarray, ...]:
        """increments[l][z] = Phi(z + e_l) - Phi(z) on sites where both exist."""
        out = []
        for l in range(self.d):
            ahead = [slice(None)] * self.d
            here = [slice(None)] * self.d
            ahead[l] = slice(1, None)
            here[l] = slice(None, -1)
            out.append(self.phi[tuple(ahead)] - self.phi[tuple(here)])
        return tuple(out)

    def mean_increment(self) -> np.ndarray:
        """Window average of the gradient: column l is the mean of increments[l]."""
        cols = [
            inc.reshape(-1, self.d).mean(axis=0) for inc in self.increments
        ]
        return np.stack(cols, axis=1)

    def sites(self) -> np.ndarray:
        axes = [np.arange(lo, hi + 1) for lo, hi in self.ranges]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


def lattice_image_pointset(
    spec: LatticeMapSpec,
    ranges: Sequence[tuple[int, int]],
    seed: int,
) -> tuple[PointSetWindow, LatticeFieldWindow]:
    """Evaluate Phi on a lattice window; return the image set and the field.

    The point set is labeled by the lattice sites; an exact coincidence of
    two image points raises (injectivity violated), which is how singular
    affine maps surface.
    """
    ranges = tuple((int(lo), int(hi)) for lo, hi in ranges)
    if len(ranges) != spec.d:
        raise ValueError("one (lo, hi) range per axis required")
    shape = tuple(hi - lo + 1 for lo, hi in ranges)
    axes = [np.arange(lo, hi + 1, dtype=float) for lo, hi in ranges]
    mesh = np.meshgrid(*axes, indexing="ij")
    z = np.stack(mesh, axis=-1)  # shape + (d,)
    rng = derive_rng(seed, DOMAIN_POINTSET, 0)
    if spec.kind == "affine":
        b_law = spec.b_law if spec.b_law is not None else IncrementLaw("constant", 0.0)
        b = b_law.fill([rng], np.empty((1, spec.d)))[0]
        phi = z @ spec.A.T + b
        gen_id = "affine"
    else:
        u = rng.standard_normal(shape + (spec.d,))
        norm = np.sqrt(np.sum(u**2, axis=-1, keepdims=True))
        norm[norm == 0] = 1.0
        radius = rng.random(shape + (1,)) ** (1.0 / spec.d)
        u = u / norm * radius
        phi = z + spec.amplitude * u
        gen_id = "perturbed_identity"
    field = LatticeFieldWindow(
        d=spec.d, ranges=ranges, phi=phi, generator=gen_id, seed=seed
    )
    pts = phi.reshape(-1, spec.d)
    labels = field.sites()
    lo_box = tuple(
        (float(pts[:, l].min()), float(pts[:, l].max())) for l in range(spec.d)
    )
    window = PointSetWindow(
        d=spec.d,
        box=lo_box,
        points=pts,
        labels=labels,
        generator=gen_id,
        seed=seed,
    )
    return window, field


@dataclass(frozen=True, eq=False)
class LinearityVerdict:
    affine: bool
    A: np.ndarray | None
    residual: float
    tol: float
    tested_shifts: tuple[tuple[int, ...], ...]


def _shift_test_set(d: int, shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    shifts: list[tuple[int, ...]] = []
    for l in range(d):
        m = 1
        while m <= shape[l] - 2:
            k = [0] * d
            k[l] = m
            shifts.append(tuple(k))
            m *= 2
    for l in range(d):
        for m in range(l + 1, d):
            if shape[l] >= 3 and shape[m] >= 3:
                k = [0] * d
                k[l] = 1
                k[m] = 1
                shifts.append(tuple(k))
    return shifts


def linearity_detector(field: LatticeFieldWindow, tol: float = 1e-9) -> LinearityVerdict:
    """Decide whether the window is consistent with an affine Phi.

    For each shift k in a dyadic test set, the increment Phi(y + k) -
    Phi(y) is computed for every base site y; the residual is the largest
    componentwise spread over y, maximized over k. At residual <= tol the
    field is declared affine with A read off the window (bitwise-constant
    increments are read from a single site, so exactly affine inputs are
    recovered exactly).
    """
    shape = field.grid_shape
    if min(shape) < 3:
        raise ValueError("window side must be at least 3")
    shifts = _shift_test_set(field.d, shape)
    residual = 0.0
    for k in shifts:
        src = tuple(slice(None, s - dk) for s, dk in zip(shape, k))
        dst = tuple(slice(dk, None) for dk in k)
        inc = field.phi[dst] - field.phi[src]
        flat = inc.reshape(-1, field.d)
        spread = float(np.max(flat.max(axis=0) - flat.min(axis=0)))
        residual = max(residual, spread)
    if residual <= tol:
        unit_spreads = []
        cols = []
        for l in range(field.d):
            inc = field.increments[l].reshape(-1, field.d)
            unit_spreads.append(float(np.max(inc.max(axis=0) - inc.min(axis=0))))
            cols.append(inc[0])
        if max(unit_spreads) == 0.0:
            A = np.stack(cols, axis=1)  # bitwise-constant increments: exact read-off
        else:
            A = field.mean_increment()
        return LinearityVerdict(True, A, residual, tol, tuple(shifts))
    return LinearityVerdict(False, None, residual, tol, tuple(shifts))


def cumulative_translation(
    samples: Sequence[IncrementSample],
    T: np.ndarray,
    k: Sequence[int],
) -> np.ndarray:
    """Reconstruct Y_k = sum_l k_l T_l + telescoped centered increments.

    samples[i] must carry the e_i coordinates of the increment field
    (axis i), all on one geometry and curl-free; T's column l is the mean
    increment E[Y_{e_l}]. The staircase path walks axis 0 first; the
    result is cross-checked against the reversed axis order and a
    disagreement beyond 1e-10 (relative to the magnitude) means the
    increments do not define a point-set translation.
    """
    if not samples:
        raise ValueError("need one increment sample per coordinate")
    d = samples[0].geometry.d
    if len(samples) != d:
        raise ValueError(f"need {d} samples (one per coordinate), got {len(samples)}")
    geom = samples[0].geometry
    for i, s in enumerate(samples):
        if s.geometry != geom:
            raise ValueError("samples live on different geometries")
        if s.axis != i:
            raise ValueError(f"samples[{i}] must carry axis {i}, has {s.axis}")
        if not s.curl_free:
            raise ValueError(
                "increments do not define a point-set translation "
                f"(sample {s.sample_id} is not curl-free)"
            )
    T = np.asarray(T, dtype=float)
    if T.shape != (d, d):
        raise ValueError(f"T must be {d}x{d}")
    k = tuple(int(ki) for ki in k)
    if len(k) != d:
        raise ValueError(f"k must have {d} coordinates")

    fields = np.stack([s.values for s in samples], axis=0)  # (i, l) + shape

    def walk(axis_order: Sequence[int]) -> np.ndarray:
        pos = [0] * d
        y = np.zeros(d)
        for l in axis_order:
            step = 1 if k[l] >= 0 else -1
            for _ in range(abs(k[l])):
                if step > 0:
                    site = tuple(p % geom.L for p in pos)
                    y += fields[:, l][(slice(None),) + site]
                    pos[l] += 1
                else:
                    pos[l] -= 1
                    site = tuple(p % geom.L for p in pos)
                    y -= fields[:, l][(slice(None),) + site]
        return y

    y_main = walk(range(d))
    y_alt = walk(range(d - 1, -1, -1))
    scale = max(1.0, float(np.max(np.abs(y_main))))
    if float(np.max(np.abs(y_main - y_alt))) > PATH_AGREEMENT_TOL * scale:
        raise DiagnosticError(
            "increments do not define a point-set translation "
            "(staircase paths disagree)"
        )
    return T @ np.asarray(k, dtype=float) + y_main
