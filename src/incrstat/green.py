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

import numpy as np

from .errors import DiagnosticError
from .lattice import TorusField, TorusGeometry, forward_gradient, solve_helmholtz

__all__ = [
    "green_1d_exact",
    "decay_rate_1d",
    "GreenTable",
    "green_torus",
    "green_1d_table",
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
    """Tabulated Green's function values and forward gradient.

    mode "torus_spectral": values over a torus, shape geometry.shape, grad
    shape (d,) + geometry.shape. mode "exact_1d": values over x = -radius
    .. radius from the closed form, grad over x = -radius .. radius - 1.

    wrap_estimate bounds the contamination of the table by periodic images
    (or, for exact_1d, by the truncation): lambda(mu)^(L/2) resp.
    lambda(mu)^radius, using the one-dimensional decay rate per axis.
    """

    mu: float
    mode: str
    values: np.ndarray
    grad: np.ndarray
    geometry: TorusGeometry | None = None
    radius: int | None = None
    wrap_estimate: float = 0.0

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
    G = solve_helmholtz(mu, TorusField.delta(geometry))
    grad = forward_gradient(G)
    wrap = decay_rate_1d(mu) ** (geometry.L // 2)
    return GreenTable(
        mu=mu,
        mode="torus_spectral",
        values=G.values[0],
        grad=grad.values,
        geometry=geometry,
        wrap_estimate=wrap,
    )


def green_1d_table(mu: float, radius: int) -> GreenTable:
    """Closed-form table on x = -radius .. radius; truncation error ~ lambda^radius."""
    if radius < 2:
        raise ValueError(f"radius must be >= 2, got {radius}")
    xs = np.arange(-radius, radius + 1)
    vals = green_1d_exact(mu, xs)
    grad = vals[1:] - vals[:-1]
    return GreenTable(
        mu=mu,
        mode="exact_1d",
        values=vals,
        grad=grad[np.newaxis],
        radius=radius,
        wrap_estimate=decay_rate_1d(mu) ** radius,
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


@dataclass(frozen=True)
class DyadicGradientNorms:
    """Per-annulus sums of |grad G|^p and their fitted base-2 slope."""

    p: float
    annuli: tuple[tuple[int, float], ...]
    slope: float
    r2: float
    expected_slope: float


def dyadic_gradient_norms(table: GreenTable, p: float) -> DyadicGradientNorms:
    """Sum |grad G_mu(y)|^p over dyadic annuli 2^i < |y| <= 2^{i+1}.

    |grad G| is the Euclidean norm of the d-vector of forward differences
    and |y| uses centered torus representatives. Annuli are restricted to
    2^{i+1} <= L/2 (resp. <= radius) to avoid wrap contamination; fewer
    than 3 usable annuli is a diagnostic error. The slope of
    log2(annulus sum) against i estimates d + p(1 - d).
    """
    if not 1.0 <= p <= 4.0:
        raise ValueError(f"p must lie in [1, 4], got {p}")
    if table.mode == "torus_spectral":
        geom = table.geometry
        mag = np.sqrt(np.sum(table.grad**2, axis=0))
        dist = geom.site_distances()
        d = geom.d
        limit = geom.L // 2
    else:
        mag = np.abs(table.grad[0])
        dist = np.abs(np.arange(-table.radius, table.radius))
        d = 1
        limit = table.radius
    annuli = []
    i = 0
    while 2 ** (i + 1) <= limit:
        mask = (dist > 2**i) & (dist <= 2 ** (i + 1))
        annuli.append((i, float(np.sum(mag[mask] ** p))))
        i += 1
    if len(annuli) < 3:
        raise DiagnosticError(
            f"only {len(annuli)} dyadic annuli fit inside the table; need >= 3 "
            f"(increase L or radius)"
        )
    idx = np.array([a[0] for a in annuli], dtype=float)
    logs = np.log2([a[1] for a in annuli])
    slope, intercept = np.polyfit(idx, logs, 1)
    pred = slope * idx + intercept
    sstot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 - float(np.sum((logs - pred) ** 2)) / sstot if sstot > 0 else 1.0
    return DyadicGradientNorms(
        p=p,
        annuli=tuple(annuli),
        slope=float(slope),
        r2=r2,
        expected_slope=d + p * (1 - d),
    )
