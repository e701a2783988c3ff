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
`_half_symbol`. A Helmholtz solve (`_solve_half_spectrum`, under
`solve_helmholtz` and the corrector) never holds it whole:
`_inverse_symbols` builds 1 / (mu + symbol) from the per-axis lines one
slab of planes along the first spatial axis at a time (`_slabs`, about
SLAB_SITES sites each), each slab is multiplied into the solve's complex
buffer, and `_from_half_spectrum_in_place` transforms that buffer back in
its own memory, so the solution is a view of its real prefix. The
stencils take a slab of sites too, reading the neighbours across its
edges, so the corrector certifies its solve slab by slab.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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

# Sites per slab of the spectral solve and the corrector's certification:
# the inverse symbol, the last irfft pass and the stencils run on slabs of
# about this many sites along the first spatial axis (256 KiB of float64,
# within a 2 MiB L2 cache where a d = 3 field is not). At least
# randfields.CHUNK_SITES, so a chunk of two or more rows, and any torus of
# at most this many sites, is one slab and runs whole-array arithmetic.
SLAB_SITES = 2**15


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


def _neighbour_parts(
    n: int, step: int, start: int = 0, stop: int | None = None
) -> tuple[tuple[int, int, int, int], ...]:
    """(sites, their step neighbours) as index ranges along an axis of n: the bulk, then the wrap.

    The sites are start..stop-1 (every site by default), counted from
    start; their neighbours are counted from 0. Sites whose neighbours
    do not cross the wrap are one bulk range and no wrap.
    """
    stop = n if stop is None else stop
    m = stop - start
    if 0 <= start + step and stop + step <= n:
        return ((0, m, start + step, stop + step),)
    if step == 1:
        return (0, m - 1, start + 1, n), (m - 1, m, 0, 1)
    return (1, m, 0, m - 1), (0, 1, n - 1, n)


def _flat_along(v: np.ndarray, axis: int, out: np.ndarray) -> bool:
    """Whether one flat pass over v and out covers the bulk along axis: its last, both C-contiguous and alike."""
    return (
        axis == v.ndim - 1 and v.shape == out.shape
        and v.flags.c_contiguous and out.flags.c_contiguous
    )


def _neighbour_diff(
    v: np.ndarray, axis: int, step: int, out: np.ndarray, start: int = 0
) -> np.ndarray:
    """out[x] = v[x + step*e_axis] - v[x] on the torus, step = +1 or -1, for the sites out holds.

    out holds out.shape[axis] sites of v along axis from start (all of v
    by default), so a slab of sites reads its neighbours across the slab's
    edges. Same arithmetic as np.roll(v, -step, axis) - v on those sites,
    without the rolled copy. Along the last axis of a C-contiguous v and
    an out of its shape, one flat subtract covers the whole array and the
    wrap column is written over afterwards.
    """
    parts = _neighbour_parts(v.shape[axis], step, start, start + out.shape[axis])
    if _flat_along(v, axis, out):
        # the flat bulk pairs each row's edge site with the next row's: the wrap fixes it
        flat, flat_out = v.reshape(-1), out.reshape(-1)
        if step == 1:
            np.subtract(flat[1:], flat[:-1], out=flat_out[:-1])
        else:
            np.subtract(flat[:-1], flat[1:], out=flat_out[1:])
        parts = parts[1:]
    for lo, hi, nlo, nhi in parts:
        site = _along(v, axis, start + lo, start + hi)
        np.subtract(_along(v, axis, nlo, nhi), site, out=_along(out, axis, lo, hi))
    return out


def _subtract_neighbour(
    v: np.ndarray, axis: int, step: int, out: np.ndarray, start: int = 0
) -> np.ndarray:
    """out[x] -= v[x + step*e_axis] in place on the torus, step = +1 or -1; v and out do not overlap.

    out holds sites of v from start along axis, as in _neighbour_diff.
    Same arithmetic as out -= np.roll(v, -step, axis), without the rolled
    copy. Along the last axis of a C-contiguous v and an out of its shape,
    one flat subtract covers the whole array; the wrap column, computed
    before it into a column-sized temporary, is written over it afterwards.
    """
    parts = _neighbour_parts(v.shape[axis], step, start, start + out.shape[axis])
    if _flat_along(v, axis, out):
        lo, hi, nlo, nhi = parts[1]
        edge = _along(out, axis, lo, hi)
        fixed = edge - _along(v, axis, nlo, nhi)
        flat, flat_out = v.reshape(-1), out.reshape(-1)
        if step == 1:
            flat_out[:-1] -= flat[1:]
        else:
            flat_out[1:] -= flat[:-1]
        edge[...] = fixed
        return out
    for lo, hi, nlo, nhi in parts:
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


def _symbol_lines(d: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, line) with _half_symbol(d, L) = table[..., np.newaxis] + line.

    table is the (L,)*(d-1) sum of the first d-1 per-axis lines, in
    laplace_symbol's order ((0 + l0) + l1), and line the last axis's half,
    of L//2+1 entries.
    """
    half = L // 2 + 1
    line = _axis_line(L, L if d > 1 else half)
    table = np.zeros((L,) * (d - 1))
    for l in range(d - 1):
        view = [1] * (d - 1)
        view[l] = L
        table = table + line.reshape(view)
    return table, line[:half]


def _half_symbol(d: int, L: int) -> np.ndarray:
    """laplace_symbol(d, L) on the rfftn half spectrum, shape (L,)*(d-1) + (L//2+1,).

    One broadcast add of _symbol_lines' table and last line, so the values
    are laplace_symbol's sliced values bit for bit; the full spectrum is
    never built.
    """
    table, line = _symbol_lines(d, L)
    return np.add(table[..., np.newaxis], line)


def _slabs(d: int, L: int) -> list[slice]:
    """Slabs of whole planes along the first spatial axis, of SLAB_SITES sites or one plane each.

    At d = 1 that axis is the transform axis, and the torus is one slab.
    """
    if d == 1:
        return [slice(0, L)]
    planes = max(1, SLAB_SITES // L ** (d - 1))
    return [slice(start, min(start + planes, L)) for start in range(0, L, planes)]


def _inverse_symbols(mu: float, d: int, L: int) -> Iterator[tuple[slice, np.ndarray]]:
    """(planes, 1 / (mu + _half_symbol(d, L))[planes]) for each of _slabs(d, L), in order.

    Each slab is built alone from its rows of _symbol_lines' table and the
    last line, then mu is added and the reciprocal taken, so its values
    are those of the whole inverse bit for bit and no symbol of field size
    is ever held. Since the symbol vanishes only at the zero mode and
    mu > 0, the reciprocal is always finite.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    table, line = _symbol_lines(d, L)
    for planes in _slabs(d, L):
        inverse = np.add(table[planes if d > 1 else ...][..., np.newaxis], line)
        inverse += mu
        yield planes, np.divide(1.0, inverse, out=inverse)


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


def _ifft_passes(spectrum: np.ndarray, d: int) -> None:
    """The complex ifft passes of irfftn over the trailing d axes, in place, in its axis order."""
    for axis in range(spectrum.ndim - d, spectrum.ndim - 1):
        np.fft.ifft(spectrum, axis=axis, out=spectrum)


def _from_half_spectrum(spectrum: np.ndarray, out: np.ndarray, d: int) -> np.ndarray:
    """irfftn of spectrum over its trailing d axes, written to the real array out.

    The ifft passes run in spectrum's place, in irfftn's axis order, and
    the last irfft writes out, of the real shape; out equals irfftn(spectrum,
    s=out.shape[-d:]) bit for bit, and spectrum is overwritten.
    """
    _ifft_passes(spectrum, d)
    return np.fft.irfft(spectrum, n=out.shape[-1], axis=-1, out=out)


def _from_half_spectrum_in_place(spectrum: np.ndarray, L: int, d: int) -> np.ndarray:
    """irfftn of the C-contiguous spectrum over its trailing d axes, of side L, in its own memory.

    The ifft passes run in place as in _from_half_spectrum. The last irfft
    takes the lines of L//2+1 in order, about SLAB_SITES sites of them at
    a time, into a buffer of that size, copied to the real prefix of
    spectrum's memory: line i's real output ends where line i's complex
    input is at the latest, so it lands on lines already transformed.
    Returns the real result, a C-contiguous view of that prefix, equal to
    irfftn(spectrum, s=(L,)*d) bit for bit.
    """
    _ifft_passes(spectrum, d)
    lines = spectrum.reshape(-1, spectrum.shape[-1])
    n_lines = lines.shape[0]
    real = lines.reshape(-1).view(np.float64)[: n_lines * L].reshape(n_lines, L)
    step = max(1, SLAB_SITES // L)
    buffer = np.empty((min(step, n_lines), L))
    for start in range(0, n_lines, step):
        part = buffer[: min(step, n_lines - start)]
        np.fft.irfft(lines[start : start + step], n=L, axis=-1, out=part)
        real[start : start + len(part)] = part
    return real.reshape(spectrum.shape[:-1] + (L,))


def _solve_half_spectrum(
    mu: float, spectrum: np.ndarray, L: int, d: int, out: np.ndarray | None = None
) -> np.ndarray:
    """The solution of mu*u - laplacian(u) = f from f's half spectrum, in one complex array's memory.

    spectrum is rfftn of f over its trailing d axes, of side L; any
    leading axes are a batch. Slab by slab (_slabs, _inverse_symbols), it
    is multiplied by 1 / (mu + symbol) into out, a C-contiguous complex
    array of its shape (spectrum itself by default), a real multiply
    instead of a complex division; _from_half_spectrum_in_place transforms
    out back. Returns the real solution, a C-contiguous view of out's
    first bytes.
    """
    out = spectrum if out is None else out
    axis = (slice(None),) * (spectrum.ndim - d)
    for planes, inverse in _inverse_symbols(mu, d, L):
        np.multiply(spectrum[axis + (planes,)], inverse, out=out[axis + (planes,)])
    return _from_half_spectrum_in_place(out, L, d)


def solve_helmholtz(mu: float, f: np.ndarray) -> np.ndarray:
    """Solve mu*u - laplacian(u) = f exactly for a scalar field f on the torus.

    Works for any cubic torus with L >= 2 and any mu > 0. Diagonal in the
    Fourier basis: the half spectrum of f is multiplied in place by
    1 / (mu + symbol) and transformed back in its own memory, so the
    solution is a view of the spectrum's first bytes, and the solve holds
    f, that spectrum and a few slab-sized arrays.
    """
    geom = TorusGeometry(f.ndim, min(f.shape, default=0))
    if f.shape != geom.shape:
        raise ValueError(f"field shape {f.shape} is not a cubic torus")
    return _solve_half_spectrum(mu, _half_spectrum(f, geom.d), geom.L, geom.d)
