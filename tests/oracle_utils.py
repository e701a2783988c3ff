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
    copies, a full-field rfftn/irfftn solve, mean removal, rolled forward
    differences. Every floating-point operation that reaches the three
    returned numbers is the one the fused kernel performs, in the same
    order, so the kernel must agree with it bit for bit.
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
