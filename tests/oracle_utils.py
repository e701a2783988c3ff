"""Dense reference implementations used as oracles across the test suite.

Everything here is built from explicit index arithmetic and dense linear
algebra, sharing no code path with the package's roll/FFT operators.
"""

import numpy as np


def all_coords(d, L):
    """Row-major site enumeration, matching numpy's C-order reshape."""
    return list(np.ndindex(*(L,) * d))


def flat_index(coords, L):
    i = 0
    for c in coords:
        i = i * L + (c % L)
    return i


def dense_forward_diff(d, L, axis):
    """Matrix of u -> u(x + e_axis) - u(x) on the torus, row-major order."""
    n = L**d
    M = np.zeros((n, n))
    for i, c in enumerate(all_coords(d, L)):
        c2 = list(c)
        c2[axis] = (c2[axis] + 1) % L
        M[i, flat_index(c2, L)] += 1.0
        M[i, i] -= 1.0
    return M


def dense_laplacian(d, L):
    lap = np.zeros((L**d, L**d))
    for axis in range(d):
        D = dense_forward_diff(d, L, axis)
        lap -= D.T @ D
    return lap


def dense_helmholtz(mu, d, L, f_flat):
    A = mu * np.eye(L**d) - dense_laplacian(d, L)
    return np.linalg.solve(A, np.asarray(f_flat, dtype=float))


def line_green_dense(mu, radius):
    """Solve (mu - lap) G = delta on x = -radius..radius, zero outside.

    Returns the full vector; index x + radius addresses site x.
    """
    n = 2 * radius + 1
    A = np.diag(np.full(n, mu + 2.0))
    idx = np.arange(n - 1)
    A[idx, idx + 1] = -1.0
    A[idx + 1, idx] = -1.0
    rhs = np.zeros(n)
    rhs[radius] = 1.0
    return np.linalg.solve(A, rhs)


def fit_line(x, y):
    """Least-squares slope and R^2, the plain textbook formulas."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def reversed_map(fn, tasks):
    """A map evaluating and yielding in reverse order; exposes scheduling bugs."""
    tasks = list(tasks)
    return [fn(t) for t in reversed(tasks)]


def renewal_reference(law, window, seed, shift=0):
    """Renewal labels and positions built one Python float at a time.

    tau_j comes from the same derived interval blocks as the package, and
    X_{j+1} = X_j + tau_j (X_{-j-1} = X_{-j} - tau_{-j-1}) is extended
    outward from X_0 = 0 point by point. Returns the labels k and the
    values X_{k+shift} - X_shift lying in the closed window, in label order.
    """
    from incrstat.pointsets import INTERVAL_BLOCK
    from incrstat.seeding import DOMAIN_INTERVALS, derive_rng, zigzag

    blocks = {}

    def tau(j):
        b = j // INTERVAL_BLOCK
        if b not in blocks:
            blocks[b] = law.draw(derive_rng(seed, DOMAIN_INTERVALS, zigzag(b)), INTERVAL_BLOCK)
        return float(blocks[b][j - b * INTERVAL_BLOCK])

    up, down = [0.0], [0.0]  # X_0, X_1, ... and X_0, X_-1, ...

    def x(j):
        while len(up) <= j:
            up.append(up[-1] + tau(len(up) - 1))
        while len(down) <= -j:
            down.append(down[-1] - tau(-len(down)))
        return up[j] if j >= 0 else down[-j]

    lo, hi = window
    base = x(shift)
    k = 0
    while x(k + shift) - base < lo:
        k += 1
    while x(k - 1 + shift) - base >= lo:
        k -= 1
    labels, values = [], []
    while x(k + shift) - base <= hi:
        labels.append(k)
        values.append(x(k + shift) - base)
        k += 1
    return labels, values


def corrector_moments_reference(mu, zeta):
    """(second moment, Dirichlet energy, energy margin) of the corrector, via np.roll.

    The operator-by-operator pipeline: backward divergence from rolled
    copies, a full-field rfftn/irfftn solve dividing by mu + symbol, mean
    removal, rolled forward differences and np.mean reductions. The fused
    kernel multiplies by a reciprocal symbol and sums squares with einsum
    instead, so the two agree to rounding (1e-12 relative), not bit for bit.
    """
    z = np.asarray(zeta, dtype=float)
    d = z.shape[0]
    shape = z.shape[1:]
    L = shape[0]
    rhs = np.zeros(shape)
    for l in range(d):
        rhs += np.roll(z[l], 1, axis=l) - z[l]
    line = 4.0 * np.sin(np.pi * np.arange(L) / L) ** 2
    symbol = np.zeros(shape)
    for l in range(d):
        view = [1] * d
        view[l] = L
        symbol = symbol + line.reshape(view)
    denom = (mu + symbol)[..., : L // 2 + 1]
    axes = tuple(range(d))
    phi = np.fft.irfftn(np.fft.rfftn(rhs, axes=axes) / denom, s=shape, axes=axes)
    phi = phi - phi.mean()
    grad = np.stack([np.roll(phi, -1, axis=l) - phi for l in range(d)])
    second_moment = float(np.mean(phi**2))
    dirichlet = float(np.mean(np.sum(grad**2, axis=0)))
    zeta2 = float(np.mean(np.sum(z**2, axis=0)))
    return second_moment, dirichlet, zeta2 - (mu * second_moment + dirichlet)


def complex_fft_synthesis_reference(kind, d, L, seed, realization, alpha=None):
    """Spectral Gaussian fields by the complex-FFT route, one draw per field.

    The route the generators took before they shared one real-FFT kernel:
    each field is its own standard_normal draw of shape (L,)*d, filtered by
    a full-spectrum fftn/ifftn pair, keeping the real part, then centered.
    decay_alpha gives its d components, with amplitude
    sqrt(max(Re DFT(1 / (1 + |k|^alpha)), 0)); gff gives its potential psi
    as a (1,) + shape array, with amplitude 1/sqrt(symbol of -laplacian)
    and 0 at the zero mode. Amplitudes are built from np.indices here.
    """
    from incrstat.seeding import DOMAIN_FIELD, derive_rng

    idx = np.indices((L,) * d)
    if kind == "decay_alpha":
        dist = np.sqrt(np.sum(np.minimum(idx, L - idx) ** 2.0, axis=0))
        amplitude = np.sqrt(np.maximum(np.fft.fftn(1.0 / (1.0 + dist**alpha)).real, 0.0))
        count = d
    else:
        symbol = np.sum(4.0 * np.sin(np.pi * idx / L) ** 2, axis=0)
        symbol[(0,) * d] = np.inf  # zero mode: amplitude 0
        amplitude = 1.0 / np.sqrt(symbol)
        count = 1
    rng = derive_rng(seed, DOMAIN_FIELD, realization)
    fields = []
    for _ in range(count):
        f = np.fft.ifftn(amplitude * np.fft.fftn(rng.standard_normal((L,) * d))).real
        fields.append(f - f.mean())
    return np.stack(fields)


def rfftn_pair_synthesis_reference(amplitude, rng, out):
    """Spectral Gaussian fields by one out-of-place rfftn/irfftn pair.

    The form `randfields._spectral_gaussian` had before its passes ran in
    place: irfftn(rfftn(noise) * amplitude), noise one standard_normal
    draw of out's shape, written into out and not centred. Same
    signature, so a test can patch it in for the kernel.
    """
    axes = tuple(range(1, out.ndim))
    spectrum = np.fft.rfftn(rng.standard_normal(out.shape), axes=axes) * amplitude
    out[...] = np.fft.irfftn(spectrum, s=out.shape[1:], axes=axes)
    return out


def roll_covariance_reference(samples, lags):
    """(cov, stderr, alpha_hat, n_fit) of the covariance estimator built on np.roll and np.tensordot.

    Each sample's statistic at lag k is tensordot(np.roll(v, -k), v) over
    the spatial axes divided by the site count; the jackknife and the
    decay fit are those of `randfields.empirical_covariance`.
    """
    lag_arr = np.atleast_2d(np.asarray(lags, dtype=int))
    stats = []
    for s in samples:
        v = s.values
        space = tuple(range(1, v.ndim))
        stats.append(np.stack([
            np.tensordot(np.roll(v, shift=tuple(-k), axis=space), v, axes=(space, space))
            / s.geometry.n_sites
            for k in lag_arr
        ]))
    R = len(stats)
    per_real = np.stack(stats)
    mean = per_real.mean(axis=0)
    loo = (mean[np.newaxis] * R - per_real) / (R - 1)
    stderr = np.sqrt((R - 1) / R * np.sum((loo - mean[np.newaxis]) ** 2, axis=0))
    mags = np.sqrt(np.sum(lag_arr.astype(float) ** 2, axis=1))
    fit = (np.abs(mean) > 3.0 * stderr) & (mean != 0.0) & (mags > 0)[:, None, None]
    x = np.log(mags[np.nonzero(fit)[0]])
    y = np.log(np.abs(mean[fit]))
    alpha_hat = None
    if len(x) >= 2 and len(np.unique(x)) >= 2:
        alpha_hat = float(-np.polyfit(x, y, 1)[0])
    return mean, stderr, alpha_hat, len(x)
