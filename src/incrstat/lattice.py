"""Discrete calculus on the periodic lattice torus (Z mod L)^d.

Conventions, fixed once for the whole package:

* forward gradient   (Du)_l(x)   = u(x + e_l) - u(x)
* backward divergence (D*.z)(x)  = sum_l [z_l(x - e_l) - z_l(x)]
  which is the exact adjoint of D: <Du, z> = <u, D*.z> in the site sum.
* laplacian           (Lu)(x)    = sum_l [u(x+e_l) + u(x-e_l) - 2 u(x)]
  so that L = -D*.D and -L is positive semidefinite. The Helmholtz
  solver treats mu*u - Lu = f, diagonal in the Fourier basis with symbol
  mu + sum_l 4 sin^2(pi m_l / L). Every residual in the package is
  mu*u - Lu - f: the corrector builds it as
  (mu + 2d) u - f - sum_l [u(x+e_l) + u(x-e_l)], and `incrstat green` as
  mu*u + D*.(Du) - f.

Fields are plain float64 arrays: a scalar field has one axis per spatial
dimension, a vector field (d,) + shape. Every operator leaves its input
alone and returns a new array. All three operators are built from one
slice stencil, `_neighbour_diff`; `_subtract_neighbour` subtracts a
neighbour's value from an accumulator in place, for the corrector's
residual. Both take an explicit axis, so they also serve a (k,) + shape
batch of fields, and both take one flat pass along a C-contiguous last
axis: `_gradient_rows` and `_divergence_rows` apply D and D* to every row
of a batch, and forward_gradient and backward_divergence are their
one-row calls over every component. `_divergence_rows` reads only the
components it is given, so the corrector's chunk kernel passes an iid
field's one nonzero component alone. `shift` is np.roll with the group
action's sign. The FFT solve supports arbitrary L >= 2, not only powers
of two.

Every real field goes through Fourier space by one in-place pair:
`_half_spectrum` is rfftn over the trailing d axes into one complex
array, and `_from_half_spectrum` is irfftn, run in that array's place and
ending in a real array the caller passes in. Both take the passes of
numpy's rfftn/irfftn in their axis order, so their values are numpy's
bit for bit. The symbol of -laplacian on that half spectrum is
`_half_symbol`, and `_inverse_symbol` builds 1 / (mu + symbol) from the
per-axis lines in the first bytes of the solve's real output, which the
irfftn then writes over: no symbol is kept from one solve to the next,
and none is held beside the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        dist = np.zeros(self.shape)
        for l in range(self.d):
            view = [1] * self.d
            view[l] = self.L
            dist += ax.reshape(view) ** 2
        return np.sqrt(dist, out=dist)


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
    return np.roll(f, tuple(-k), tuple(range(f.ndim)))


def _along(a: np.ndarray, axis: int, start: int, stop: int) -> np.ndarray:
    return a[(slice(None),) * axis + (slice(start, stop),)]


def _neighbour_parts(n: int, step: int) -> tuple[tuple[int, int, int, int], ...]:
    """(sites, their step neighbours) as index ranges along an axis of n: the bulk, then the wrap."""
    if step == 1:
        return (0, n - 1, 1, n), (n - 1, n, 0, 1)
    return (1, n, 0, n - 1), (0, 1, n - 1, n)


def _flat_along(v: np.ndarray, axis: int, out: np.ndarray) -> bool:
    """Whether one flat pass over v and out covers the bulk along axis: its last, both C-contiguous."""
    return axis == v.ndim - 1 and v.flags.c_contiguous and out.flags.c_contiguous


def _neighbour_diff(v: np.ndarray, axis: int, step: int, out: np.ndarray) -> np.ndarray:
    """out[x] = v[x + step*e_axis] - v[x] on the torus, step = +1 or -1.

    Same arithmetic as np.roll(v, -step, axis) - v, without the rolled copy.
    Along the last axis of a C-contiguous v and out, one flat subtract
    covers the whole array and the wrap column is written over afterwards.
    """
    parts = _neighbour_parts(v.shape[axis], step)
    if _flat_along(v, axis, out):
        # the flat bulk pairs each row's edge site with the next row's: the wrap fixes it
        flat, flat_out = v.reshape(-1), out.reshape(-1)
        if step == 1:
            np.subtract(flat[1:], flat[:-1], out=flat_out[:-1])
        else:
            np.subtract(flat[:-1], flat[1:], out=flat_out[1:])
        parts = parts[1:]
    for lo, hi, nlo, nhi in parts:
        site = _along(v, axis, lo, hi)
        np.subtract(_along(v, axis, nlo, nhi), site, out=_along(out, axis, lo, hi))
    return out


def _subtract_neighbour(v: np.ndarray, axis: int, step: int, out: np.ndarray) -> np.ndarray:
    """out[x] -= v[x + step*e_axis] in place on the torus, step = +1 or -1; v and out do not overlap.

    Same arithmetic as out -= np.roll(v, -step, axis), without the rolled
    copy. Along the last axis of a C-contiguous v and out, one flat
    subtract covers the whole array; the wrap column, computed before it
    into a column-sized temporary, is written over it afterwards.
    """
    bulk, wrap = _neighbour_parts(v.shape[axis], step)
    if _flat_along(v, axis, out):
        lo, hi, nlo, nhi = wrap
        edge = _along(out, axis, lo, hi)
        fixed = edge - _along(v, axis, nlo, nhi)
        flat, flat_out = v.reshape(-1), out.reshape(-1)
        if step == 1:
            flat_out[:-1] -= flat[1:]
        else:
            flat_out[1:] -= flat[:-1]
        edge[...] = fixed
        return out
    for lo, hi, nlo, nhi in (bulk, wrap):
        site = _along(out, axis, lo, hi)
        np.subtract(site, _along(v, axis, nlo, nhi), out=site)
    return out


def forward_gradient(u: np.ndarray) -> np.ndarray:
    """(Du)_l(x) = u(x + e_l) - u(x), shape (d,) + u.shape; component l is the e_l difference."""
    return _gradient_rows(u[np.newaxis], np.empty((1, u.ndim) + u.shape))[0]


def _gradient_rows(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = D u[i] for each row of a (k,) + shape batch u; out is (k, d) + shape."""
    for l in range(u.ndim - 1):
        _neighbour_diff(u, l + 1, 1, out[:, l])
    return out


def backward_divergence(z: np.ndarray) -> np.ndarray:
    """(D*.z)(x) = sum_l [z_l(x - e_l) - z_l(x)] of a (d,) + shape field, the adjoint of D."""
    if z.shape[0] != z.ndim - 1:
        raise ValueError(
            f"backward_divergence expects {z.ndim - 1} components, got {z.shape[0]}"
        )
    out = np.empty(z.shape[1:])
    _divergence_rows(z[:, np.newaxis], range(z.shape[0]), out[np.newaxis])
    return out


def _divergence_rows(
    components: Sequence[np.ndarray], axes: Sequence[int], out: np.ndarray
) -> np.ndarray:
    """out = sum_j of the backward difference of components[j] along spatial axis axes[j].

    Each component and out is a (k,) + shape batch, so out[i] is D*.z of
    row i with z_l = components[j] for l = axes[j], and every component not
    in axes taken to vanish.
    """
    (first, z), *rest = zip(axes, components)
    _neighbour_diff(z, first + 1, -1, out)
    if rest:
        term = np.empty_like(out)
        for l, z in rest:
            out += _neighbour_diff(z, l + 1, -1, term)
    return out


def laplacian(u: np.ndarray) -> np.ndarray:
    """Nearest-neighbour Laplacian sum_l [u(x+e_l) + u(x-e_l) - 2u(x)] = -(D*.D u)."""
    out = backward_divergence(forward_gradient(u))
    return np.negative(out, out=out)


def _axis_line(L: int, n: int) -> np.ndarray:
    """4.0 * sin(pi * m / L) ** 2 for m < n, one axis's share of the symbol.

    Each operation runs in place in one array: at d = 1 the line is half
    a field, and each solve builds one beside its field-sized arrays.
    """
    line = np.arange(n, dtype=np.float64)
    line *= np.pi
    line /= L
    np.sin(line, out=line)
    np.square(line, out=line)
    line *= 4.0
    return line


def laplace_symbol(d: int, L: int) -> np.ndarray:
    """Fourier symbol of -laplacian: sum_l 4 sin^2(pi m_l / L), shape (L,)*d."""
    s = np.zeros((L,) * d)
    line = _axis_line(L, L)
    for l in range(d):
        view = [1] * d
        view[l] = L
        s = s + line.reshape(view)
    return s


def _half_symbol(d: int, L: int, out: np.ndarray | None = None) -> np.ndarray:
    """laplace_symbol(d, L) on the rfftn half spectrum, shape (L,)*(d-1) + (L//2+1,).

    Written to out (a new array by default) in one broadcast add: an
    (L,)*(d-1) table of the first d-1 per-axis lines plus the last line's
    half. The lines are summed in laplace_symbol's order, ((0 + l0) + l1)
    + l2, so the values are its sliced values bit for bit; the full
    spectrum is never built.
    """
    half = L // 2 + 1
    line = _axis_line(L, L if d > 1 else half)
    table = np.zeros((L,) * (d - 1))
    for l in range(d - 1):
        view = [1] * (d - 1)
        view[l] = L
        table = table + line.reshape(view)
    return np.add(table[..., np.newaxis], line[:half], out=out)


def _inverse_symbol(mu: float, d: int, solution: np.ndarray) -> np.ndarray:
    """1 / (mu + _half_symbol(d, L)) in the first bytes of solution, as a half-spectrum view.

    solution is the C-contiguous float64 array, of L-sided trailing d
    axes, that the solve's irfftn will write: the symbol is built there
    from its per-axis lines, so a solve holds no array for its inverse.
    Since the symbol vanishes only at the zero mode and mu > 0, the
    reciprocal is always finite.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    L = solution.shape[-1]
    half = (L,) * (d - 1) + (L // 2 + 1,)
    out = _half_symbol(d, L, solution.reshape(-1)[: math.prod(half)].reshape(half))
    out += mu
    return np.divide(1.0, out, out=out)


def _half_spectrum(x: np.ndarray, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """rfftn of x over its trailing d axes, in one complex array: out, or a new one.

    The rfft along the last axis writes the half spectrum, and each fft
    pass after it runs in place, in rfftn's axis order: the passes numpy's
    rfftn takes with out=, without the complex temporary of one without it.
    """
    axes = range(x.ndim - d, x.ndim)
    spectrum = np.fft.rfft(x, axis=axes[-1], out=out)
    for axis in reversed(axes[:-1]):
        np.fft.fft(spectrum, axis=axis, out=spectrum)
    return spectrum


def _from_half_spectrum(spectrum: np.ndarray, out: np.ndarray, d: int) -> np.ndarray:
    """irfftn of spectrum over its trailing d axes, written to the real array out.

    The ifft passes run in spectrum's place, in irfftn's axis order, and
    the last irfft writes out, of the real shape; out equals irfftn(spectrum,
    s=out.shape[-d:]) bit for bit, and spectrum is overwritten.
    """
    axes = range(out.ndim - d, out.ndim)
    for axis in axes[:-1]:
        np.fft.ifft(spectrum, axis=axis, out=spectrum)
    return np.fft.irfft(spectrum, n=out.shape[-1], axis=axes[-1], out=out)


def solve_helmholtz(mu: float, f: np.ndarray) -> np.ndarray:
    """Solve mu*u - laplacian(u) = f exactly for a scalar field f on the torus.

    Works for any cubic torus with L >= 2 and any mu > 0. Diagonal in the
    Fourier basis: the half spectrum of f is multiplied in place by
    1 / (mu + symbol), a real multiply instead of a complex division. The
    solution is allocated after the forward transform, and the inverse is
    built in it before the irfftn writes over it.
    """
    geom = TorusGeometry(f.ndim, min(f.shape, default=0))
    if f.shape != geom.shape:
        raise ValueError(f"field shape {f.shape} is not a cubic torus")
    spectrum = _half_spectrum(f, geom.d)
    u = np.empty(geom.shape)
    spectrum *= _inverse_symbol(mu, geom.d, u)
    return _from_half_spectrum(spectrum, u, geom.d)
