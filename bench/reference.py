"""References the benchmark checks rfunc against, computed apart from rfunc.

R and its derivatives are written from the definition in mpmath;
the entanglement norms are recomputed with index code of our own.  Nothing
here imports rfunc.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

DPS = 40          # mpmath digits for every scalar reference
EPS = np.finfo(float).eps

# Seeded scalar queries must agree to RTOL relative error.  R-valued results
# (r_value, hull_value, isotropic_eof) may also miss by ATOL_BITS absolute,
# 1e-13 of R's range [0, log2 m]: r_value loses relative accuracy where
# 1 - gamma is tiny, and the fixed probes near lambda = 1 measure that apart.
RTOL = 1e-10
ATOL_BITS = 1e-13
# R' and R'' have condition number of order lambda / (m - lambda) near m, so
# their tolerance widens by COND_ULPS ulps times that number.
COND_ULPS = 16
NORM_TOL = 1e-10   # entanglement norms against our own index code
STATE_ATOL = 1e-11  # EOF bound in bits, against co(R) of the reference Lambda


def _gamma_parts(lam, m):
    """S = sqrt(L) + sqrt((m-1)(m-L)) and its first two derivatives in L."""
    lam, m = mp.mpf(lam), mp.mpf(m)
    s, w = mp.sqrt(lam), mp.sqrt((m - 1) * (m - lam))
    big_s = s + w
    ds = 1 / (2 * s) - (m - 1) / (2 * w)
    dds = -1 / (4 * s ** 3) - (m - 1) ** 2 / (4 * w ** 3)
    return big_s, ds, dds


def r_ref(lam, m):
    """R(lambda) in bits, from gamma = S^2/m^2 and R = H2(gamma) + (1-gamma) log2(m-1)."""
    with mp.workdps(DPS):
        big_s, _, _ = _gamma_parts(lam, m)
        gam = big_s ** 2 / mp.mpf(m) ** 2
        x = 1 - gam
        h = -gam * mp.log(gam) - (x * mp.log(x) if x > 0 else 0)
        return float((h + x * mp.log(m - 1)) / mp.log(2))


def r_derivs_ref(lam, m):
    """(R' in bits, R'' in nats) at 1 < lambda < m, by the chain rule through gamma.

    dR/dgamma = log((1-gamma)/((m-1) gamma)) and d2R/dgamma2 = -1/(gamma(1-gamma)).
    """
    with mp.workdps(DPS):
        big_s, ds, dds = _gamma_parts(lam, m)
        msq = mp.mpf(m) ** 2
        gam = big_s ** 2 / msq
        g1 = 2 * big_s * ds / msq
        g2 = 2 * (ds ** 2 + big_s * dds) / msq
        x = 1 - gam
        dr = mp.log(x / ((m - 1) * gam))
        return float(g1 * dr / mp.log(2)), float(g2 * dr - g1 ** 2 / (gam * x))


def r_second_diff(lam, m):
    """R''(lambda) in nats by numerical differentiation of R's definition (mpmath)."""
    with mp.workdps(DPS):
        m_ = mp.mpf(m)

        def r(l):
            gam = (mp.sqrt(l) + mp.sqrt((m_ - 1) * (m_ - l))) ** 2 / m_ ** 2
            return -gam * mp.log(gam) - (1 - gam) * mp.log(1 - gam) + (1 - gam) * mp.log(m_ - 1)

        return mp.diff(r, mp.mpf(lam), 2)


def hull_ref(lam, m):
    """co(R)(lambda) in bits: R up to 4(m-1)/m, then log m + (L-m) log(m-1)/(m-2)."""
    if m > 2 and lam >= 4.0 * (m - 1) / m:
        with mp.workdps(DPS):
            line = mp.log(m) + (mp.mpf(lam) - m) * mp.log(m - 1) / (m - 2)
            return float(line / mp.log(2))
    return r_ref(lam, m)


def isotropic_ref(d, fidelity):
    """EOF of the d x d isotropic state: 0 for F <= 1/d, co(R)(dF) above."""
    if fidelity <= 1.0 / d:
        return 0.0
    return hull_ref(d * fidelity, d)


def scalar_close(got, ref, lam=None, m=None, bits=False):
    """Whether a seeded scalar result matches its reference (see the tolerances above)."""
    if not math.isfinite(got):
        return False
    tol = RTOL * abs(ref)
    if bits:
        tol += ATOL_BITS
    if lam is not None:
        tol += COND_ULPS * EPS * lam / (m - lam) * abs(ref)
    return abs(got - ref) <= tol


def relative_close(got, ref, rtol=RTOL):
    """Plain relative error test, used where rfunc claims relative accuracy."""
    return math.isfinite(got) and abs(got - ref) <= rtol * abs(ref)


# ----- entanglement norms with our own index code -----

def partial_transpose_ref(mat, m, n):
    """rho^T_B by explicit index loops: entry ((i,j),(k,l)) moves to ((i,l),(k,j))."""
    out = np.empty_like(mat)
    for i in range(m):
        for j in range(n):
            for k in range(m):
                for l in range(n):
                    out[i * n + l, k * n + j] = mat[i * n + j, k * n + l]
    return out


def realign_ref(mat, m, n):
    """Realignment by explicit index loops: ((i,j),(k,l)) -> row (i,k), column (j,l)."""
    out = np.empty((m * m, n * n), dtype=mat.dtype)
    for i in range(m):
        for j in range(n):
            for k in range(m):
                for l in range(n):
                    out[i * m + k, j * n + l] = mat[i * n + j, k * n + l]
    return out


def singular_sum(mat):
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def norms_ref(mat, m, n):
    """(partial-transpose norm, realignment norm) of an m x n state."""
    return (singular_sum(partial_transpose_ref(mat, m, n)),
            singular_sum(realign_ref(mat, m, n)))


def bound_ref(lam, m):
    """EOF lower bound in bits for a Lambda already clamped to [1, m]."""
    return 0.0 if lam <= 1.0 else hull_ref(lam, m)
