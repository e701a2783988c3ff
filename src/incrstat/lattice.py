"""Discrete calculus on the periodic lattice torus (Z mod L)^d.

Conventions, fixed once for the whole package:

* forward gradient   (Du)_l(x)   = u(x + e_l) - u(x)
* backward divergence (D*.z)(x)  = sum_l [z_l(x - e_l) - z_l(x)]
  which is the exact adjoint of D: <Du, z> = <u, D*.z> in the site sum.
* laplacian           (Lu)(x)    = sum_l [u(x+e_l) + u(x-e_l) - 2 u(x)]
  so that L = -D*.D and -L is positive semidefinite. The Helmholtz
  solver treats mu*u - Lu = f, diagonal in the Fourier basis with symbol
  mu + sum_l 4 sin^2(pi m_l / L), and every residual in the package is
  mu*u + D*.(Du) - f.

Fields are plain float64 arrays: a scalar field has one axis per spatial
dimension, a vector field (d,) + shape. Every operator returns a new
array and leaves its input alone. All three operators are built from one
slice stencil, `_neighbour_diff`; `_add_backward_diff` adds one term of
D*.z to an accumulator in place, for residuals. `np.roll` is used only
by `shift`, which is a translation. The FFT solve supports arbitrary
L >= 2, not only powers of two.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "TorusGeometry",
    "TorusField",
    "shift",
    "forward_gradient",
    "backward_divergence",
    "laplacian",
    "solve_helmholtz",
    "laplace_symbol",
]


@dataclass(frozen=True)
class TorusGeometry:
    """Dimension d in {1, 2, 3} and side length L >= 2 of the torus."""

    d: int
    L: int

    def __post_init__(self) -> None:
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.L < 2:
            raise ValueError(f"torus side must be >= 2, got {self.L}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.L,) * self.d

    @property
    def n_sites(self) -> int:
        return self.L**self.d

    def centered_axis(self) -> np.ndarray:
        """Signed representative of each coordinate, in [-L/2, L/2)."""
        c = np.arange(self.L)
        return np.where(c <= self.L // 2, c, c - self.L) * 1.0

    def site_distances(self) -> np.ndarray:
        """Euclidean distance of every site to the origin, via centered representatives."""
        ax = np.abs(self.centered_axis())
        sq = np.zeros(self.shape)
        for l in range(self.d):
            view = [1] * self.d
            view[l] = self.L
            sq = sq + ax.reshape(view) ** 2
        return np.sqrt(sq)


# No library path builds a TorusField. Its last consumer is the span
# tracer in perfbench/spans.py, which hooks TorusField.__init__; the class
# goes with that hook (ROADMAP item 1).
class TorusField:
    """A real field on the torus with one or more components.

    values has shape (components,) + geometry.shape and is read-only;
    operators return fresh fields rather than mutating.
    """

    __slots__ = ("geometry", "values")

    def __init__(self, geometry: TorusGeometry, values: np.ndarray) -> None:
        self._seal(geometry, np.array(values, dtype=np.float64, order="C"))

    @classmethod
    def _adopt(cls, geometry: TorusGeometry, arr: np.ndarray) -> "TorusField":
        """Wrap a float64 C-contiguous array the library has just allocated, without a copy.

        The array becomes read-only; the caller must hold no other reference
        through which it writes.
        """
        self = object.__new__(cls)
        self._seal(geometry, arr)
        return self

    def _seal(self, geometry: TorusGeometry, arr: np.ndarray) -> None:
        arr.setflags(write=False)
        if arr.shape == geometry.shape:
            arr = arr[np.newaxis]
        if arr.ndim != geometry.d + 1 or arr.shape[1:] != geometry.shape:
            raise ValueError(
                f"values shape {arr.shape} incompatible with geometry "
                f"(expected (c,) + {geometry.shape})"
            )
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("TorusField is immutable")

    def __reduce__(self):
        # re-run __init__ on unpickle so the write-protection is restored
        return (TorusField, (self.geometry, self.values))

    @property
    def components(self) -> int:
        return self.values.shape[0]

    @classmethod
    def delta(cls, geometry: TorusGeometry) -> "TorusField":
        v = np.zeros(geometry.shape)
        v[(0,) * geometry.d] = 1.0
        return cls._adopt(geometry, v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TorusField)
            and self.geometry == other.geometry
            and np.array_equal(self.values, other.values)
        )


def shift(f: np.ndarray, k) -> np.ndarray:
    """Translated field g(x) = f(x + k); realizes the group action on extensions."""
    k = np.asarray(k, dtype=int).ravel()
    if k.size != f.ndim:
        raise ValueError(f"shift vector has {k.size} entries, field is {f.ndim}d")
    # np.roll by -k_l along axis l: roll(a, -k)[x] = a[x + k]
    return np.roll(f, shift=tuple(-k), axis=tuple(range(f.ndim)))


def _along(a: np.ndarray, axis: int, start: int, stop: int) -> np.ndarray:
    return a[(slice(None),) * axis + (slice(start, stop),)]


def _neighbour_diff(v: np.ndarray, axis: int, step: int, out: np.ndarray) -> np.ndarray:
    """out[x] = v[x + step*e_axis] - v[x] on the torus, step = +1 or -1.

    Same arithmetic as np.roll(v, -step, axis) - v, without the rolled copy.
    """
    n = v.shape[axis]
    # (sites, their neighbours) as index ranges along axis: the bulk, then the wrap
    if step == 1:
        parts = ((0, n - 1, 1, n), (n - 1, n, 0, 1))
    else:
        parts = ((1, n, 0, n - 1), (0, 1, n - 1, n))
    for lo, hi, nlo, nhi in parts:
        site = _along(v, axis, lo, hi)
        np.subtract(_along(v, axis, nlo, nhi), site, out=_along(out, axis, lo, hi))
    return out


def forward_gradient(u: np.ndarray) -> np.ndarray:
    """(Du)_l(x) = u(x + e_l) - u(x), shape (d,) + u.shape; component l is the e_l difference."""
    out = np.empty((u.ndim,) + u.shape)
    for l in range(u.ndim):
        _neighbour_diff(u, l, 1, out[l])
    return out


def backward_divergence(z: np.ndarray, axes: Sequence[int] | None = None) -> np.ndarray:
    """(D*.z)(x) = sum_l [z_l(x - e_l) - z_l(x)] of a (d,) + shape field, the adjoint of D.

    Only the components listed in axes (default: all) are read; the
    others are taken to vanish, which changes no sum.
    """
    if z.shape[0] != z.ndim - 1:
        raise ValueError(
            f"backward_divergence expects {z.ndim - 1} components, got {z.shape[0]}"
        )
    first, *rest = range(z.shape[0]) if axes is None else axes
    out = _neighbour_diff(z[first], first, -1, np.empty(z.shape[1:]))
    if rest:
        term = np.empty_like(out)
        for l in rest:
            out += _neighbour_diff(z[l], l, -1, term)
    return out


def _add_backward_diff(out: np.ndarray, v: np.ndarray, axis: int) -> None:
    """out[x] += v[x - e_axis] - v[x] in place: subtract v, then add its wrapped shift.

    Summed over axis l with v = z_l, this accumulates D*.z into out
    without a temporary.
    """
    out -= v
    n = v.shape[axis]
    bulk = _along(out, axis, 1, n)
    bulk += _along(v, axis, 0, n - 1)
    wrap = _along(out, axis, 0, 1)
    wrap += _along(v, axis, n - 1, n)


def laplacian(u: np.ndarray) -> np.ndarray:
    """Nearest-neighbour Laplacian sum_l [u(x+e_l) + u(x-e_l) - 2u(x)] = -(D*.D u)."""
    out = backward_divergence(forward_gradient(u))
    return np.negative(out, out=out)


@lru_cache(maxsize=16)
def laplace_symbol(d: int, L: int) -> np.ndarray:
    """Fourier symbol of -laplacian: sum_l 4 sin^2(pi m_l / L), shape (L,)*d."""
    s = np.zeros((L,) * d)
    line = 4.0 * np.sin(np.pi * np.arange(L) / L) ** 2
    for l in range(d):
        view = [1] * d
        view[l] = L
        s = s + line.reshape(view)
    s.setflags(write=False)
    return s


def _inverse_symbol(mu: float, shape: tuple[int, ...]) -> np.ndarray:
    """1 / (mu + symbol) on the rfftn half spectrum of shape, read-only.

    Since the symbol vanishes only at the zero mode and mu > 0, the
    reciprocal is always finite. Build it once per mu and torus, and hand
    it to every _spectral_quotient at that mu.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    d, L = len(shape), shape[0]
    # rfft along the last axis halves the work on real data
    inverse = 1.0 / (mu + laplace_symbol(d, L)[..., : L // 2 + 1])
    inverse.setflags(write=False)
    return inverse


def _spectral_quotient(
    inverse_symbol: np.ndarray, f_hat: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """Solution u of mu*u - laplacian(u) = f on the torus, from f_hat = rfftn(f).

    Diagonal in the Fourier basis: u_hat = f_hat * inverse_symbol, with
    inverse_symbol = _inverse_symbol(mu, shape), a real multiply instead
    of a complex division.
    """
    return np.fft.irfftn(f_hat * inverse_symbol, s=shape, axes=tuple(range(len(shape))))


def solve_helmholtz(mu: float, f: np.ndarray) -> np.ndarray:
    """Solve mu*u - laplacian(u) = f exactly for a scalar field f on the torus.

    Works for any cubic torus with L >= 2 and any mu > 0.
    """
    geom = TorusGeometry(f.ndim, min(f.shape, default=0))
    if f.shape != geom.shape:
        raise ValueError(f"field shape {f.shape} is not a cubic torus")
    return _spectral_quotient(_inverse_symbol(mu, geom.shape), np.fft.rfftn(f), geom.shape)
