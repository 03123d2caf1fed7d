from dataclasses import dataclass

import numpy as np

from rfunc import check_dimension, r_value


def central_diff(fn, x, h):
    """Fourth-order central difference of fn at x (array-friendly)."""
    return (fn(x - 2 * h) - 8 * fn(x - h) + 8 * fn(x + h) - fn(x + 2 * h)) / (12 * h)


def fd_step(x, m):
    """Step size for differencing, shrunk near the singular endpoints."""
    x = np.asarray(x, dtype=float)
    d = np.minimum.reduce([x - 1.0, m - x, np.ones_like(x)])
    return np.minimum(1e-3 * d ** 0.8, d / 4.0)


def interior_grid(m, n=1000, offset=1e-4):
    return np.linspace(1.0 + offset, m - offset, n)


def random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, m, n):
    size = m * n
    g = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_product_pure(rng, m, n):
    a = rng.normal(size=m) + 1j * rng.normal(size=m)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    psi = np.kron(a, b)
    return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear function through increasing abscissae (vertices of a hull)."""

    xs: np.ndarray
    ys: np.ndarray

    def __call__(self, x):
        return np.interp(x, self.xs, self.ys)


def hull_oracle(m, samples: int = 100_000, base: str = "two") -> PiecewiseLinear:
    """Brute-force envelope: lower convex hull of sampled (lambda, R) points.

    Monotone-chain sweep over the sorted samples; serves as an independent
    cross-check of ``hull_value`` (agreement degrades only with the O(h^2)
    sagitta of the chords between samples).
    """
    m = check_dimension(m)
    if samples < 1000:
        raise ValueError("samples must be at least 1000")
    xs = np.linspace(1.0, float(m), samples)
    ys = r_value(xs, m, base=base)
    hull: list[int] = []
    for i in range(samples):
        while len(hull) >= 2:
            j, k = hull[-2], hull[-1]
            # pop k when it lies on or above the chord j -> i
            if ((xs[k] - xs[j]) * (ys[i] - ys[j])
                    - (xs[i] - xs[j]) * (ys[k] - ys[j]) <= 0.0):
                hull.pop()
            else:
                break
        hull.append(i)
    idx = np.array(hull)
    return PiecewiseLinear(xs[idx], ys[idx])
