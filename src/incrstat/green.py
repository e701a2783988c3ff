"""Lattice Green's function of mu - laplacian and its gradient diagnostics.

In one dimension the resolvent kernel has the closed form

    G_mu(x) = lambda^|x| / sqrt(mu^2 + 4 mu),
    lambda  = (2 + mu - sqrt((2 + mu)^2 - 4)) / 2  in (0, 1),

which doubles as an oracle for the spectral torus tables computed here.
The gradient's dyadic annulus sums measure the decay exponent that
separates the dimensions: on the annulus 2^i < |y| <= 2^{i+1} the sum of
|grad G|^p scales like 2^{i (d + p (1 - d))}, and the uniform-in-mu size
of the gradient is what makes second moments of correctors bounded for
d > 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DiagnosticError
from .lattice import TorusGeometry, forward_gradient, solve_helmholtz

__all__ = [
    "green_1d_exact",
    "decay_rate_1d",
    "GreenTable",
    "green_torus",
    "grad_green_l2",
    "DyadicGradientNorms",
    "dyadic_gradient_norms",
]


def decay_rate_1d(mu: float) -> float:
    """The root lambda in (0,1) of lambda^2 - (2+mu) lambda + 1 = 0."""
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    t = 2.0 + mu
    return (t - math.sqrt(t * t - 4.0)) / 2.0


def green_1d_exact(mu: float, x) -> np.ndarray | float:
    """Closed-form Green's function of mu - laplacian on the line Z.

    Vectorized over x. For mu = 3: G(0) = 1/sqrt(21), G(1) = lambda/sqrt(21)
    with lambda = (5 - sqrt(21))/2.
    """
    lam = decay_rate_1d(mu)
    amp = 1.0 / math.sqrt(mu * mu + 4.0 * mu)
    xs = np.abs(np.asarray(x, dtype=np.int64))
    out = amp * lam**xs
    return float(out) if np.isscalar(x) or out.ndim == 0 else out


@dataclass(frozen=True)
class GreenTable:
    """Green's function values over a torus (shape geometry.shape) and their gradient.

    grad has shape (d,) + geometry.shape. wrap_estimate bounds the contamination
    by periodic images: lambda(mu)^(L/2), with the 1-D decay rate per axis.
    """

    mu: float
    values: np.ndarray
    grad: np.ndarray
    geometry: TorusGeometry
    wrap_estimate: float

    @property
    def site_sum(self) -> float:
        return float(self.values.sum())


def green_torus(mu: float, geometry: TorusGeometry) -> GreenTable:
    """Spectral solve of (mu - laplacian) G = delta_0 on the torus.

    The site sum of G is exactly 1/mu (the zero Fourier mode), and the
    residual of the defining equation is at floating-point level at every
    site. Neither is checked here: `incrstat green` reports both in its
    summary artifact (`site_sum`, `residual_max`).
    """
    delta = np.zeros(geometry.shape)
    delta[(0,) * geometry.d] = 1.0
    G = solve_helmholtz(mu, delta)
    return GreenTable(
        mu=mu,
        values=G,
        grad=forward_gradient(G),
        geometry=geometry,
        wrap_estimate=decay_rate_1d(mu) ** (geometry.L // 2),
    )


def grad_green_l2(mu: float, geometry: TorusGeometry, axis: int = 0) -> float:
    """Site sum of (D_axis G_mu)^2 over the torus.

    This is the quantity that multiplies Var[a] in the iid second-moment
    identity; in d = 1 it equals 2 C^2 (1 - lambda) / (1 + lambda) with
    C = 1/sqrt(mu^2 + 4 mu), up to wrap-around.
    """
    if not 0 <= axis < geometry.d:
        raise ValueError(f"axis {axis} out of range for d={geometry.d}")
    table = green_torus(mu, geometry)
    return float(np.sum(table.grad[axis] ** 2))


# how far a fitted dyadic slope may lie from d + p(1 - d) in the green report
SLOPE_TOLERANCE = 0.3


def _linfit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of y on x and its R^2; a flat y scores 1.0 only when the fit is exact."""
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else (1.0 if ss_res == 0 else 0.0)
    return float(slope), r2


@dataclass(frozen=True)
class DyadicGradientNorms:
    """Per-annulus sums of |grad G|^p and their fitted base-2 slope."""

    p: float
    annuli: tuple[tuple[int, float], ...]
    slope: float
    r2: float
    expected_slope: float


def p_error(p: float) -> str | None:
    """Why `p` cannot be the exponent of the dyadic gradient norms, or None if it can."""
    return None if 1.0 <= p <= 4.0 else f"p must lie in [1, 4], got {p}"


def dyadic_gradient_norms(table: GreenTable, ps: Sequence[float]) -> list[DyadicGradientNorms]:
    """Sum |grad G_mu(y)|^p over dyadic annuli 2^i < |y| <= 2^{i+1}, one fit per p of ps, in order.

    |grad G| is the Euclidean norm of the d-vector of forward differences
    and |y| uses centered torus representatives. Annuli are restricted to
    2^{i+1} <= L/2 to avoid wrap contamination; fewer than 3 usable
    annuli is a diagnostic error. The slope of log2(annulus sum) against
    i estimates d + p(1 - d). Every p is checked before any work, and the
    annuli are built once for all of them.
    """
    for p in ps:
        if problem := p_error(p):
            raise ValueError(problem)
    annuli = _annulus_gradient_norms(table)
    d = table.geometry.d
    fits = []
    for p in ps:
        sums = [(i, float(np.sum(vals**p))) for i, vals in enumerate(annuli)]
        slope, r2 = _linfit(np.arange(len(sums), dtype=float), np.log2([s for _, s in sums]))
        fits.append(DyadicGradientNorms(p, tuple(sums), slope, r2, d + p * (1 - d)))
    return fits


def _annulus_gradient_norms(table: GreenTable) -> list[np.ndarray]:
    """|grad G| at the sites of each usable dyadic annulus i, in site order: one array per i.

    The full-size norm is freed before they are returned.
    """
    geom = table.geometry
    n_annuli = (geom.L // 2).bit_length() - 1  # every i with 2^{i+1} <= L/2
    if n_annuli < 3:
        raise DiagnosticError(
            f"only {n_annuli} dyadic annuli fit inside the table; need >= 3 "
            "(increase L)"
        )
    # each site's annulus i as i + 1 (0 outside every annulus), built before
    # |grad G| so that the distances and the norm are never held together
    dist = geom.site_distances()
    ring = np.zeros(geom.shape, np.int8)
    for i in range(n_annuli):
        ring[(dist > 2**i) & (dist <= 2 ** (i + 1))] = i + 1
    del dist
    # |grad G|: the squares are added one component at a time, a slab of
    # axis 0 at a time, so no second field is allocated beside the norm
    mag = np.square(table.grad[0])
    for g in table.grad[1:]:
        for slab, g_slab in zip(mag, g):
            slab += np.square(g_slab)
    np.sqrt(mag, out=mag)
    return [mag[ring == i + 1] for i in range(n_annuli)]
