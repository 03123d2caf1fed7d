"""Scalar functions underlying the R-curve analysis.

Everything here is a pure function of (lambda, m) or (delta, m).  Internally
all logarithms are natural; public entry points that return entropies accept a
``base`` argument ("two" or "natural") and convert once, by the factor
log2(e).  All functions accept numpy arrays for their real argument and
broadcast elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BASES",
    "DomainError",
    "Tolerances",
    "TOL",
    "LOG2E",
    "check_dimension",
    "check_lambda",
    "check_delta",
    "convert_base",
    "binary_entropy",
    "gamma_value",
    "one_minus_gamma",
    "gamma_first",
    "gamma_second",
    "r_value",
    "r_first",
    "r_second",
    "g_value",
    "f_value",
    "c_value",
    "a_value",
    "b_value",
    "big_f_value",
]

LOG2E = float(np.log2(np.e))

BASES = ("two", "natural")


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the function."""


@dataclass(frozen=True)
class Tolerances:
    """Central record of the numerical tolerances used across the library."""

    endpoint: float = 1e-12          # slack for lambda at the domain endpoints
    inflection_residual: float = 1e-10   # |g - f| at the reported inflection
    grid_left_offset: float = 1e-6   # guard against the log divergence at 1
    grid_right_offset: float = 1e-4  # guard against cancellation near m


TOL = Tolerances()


def check_dimension(m) -> int:
    """Validate the local dimension m (integer, at least 2)."""
    if not float(m).is_integer():
        raise DomainError(f"dimension m must be an integer, got {m!r}")
    m = int(m)
    if m < 2:
        raise DomainError(f"dimension m must be >= 2, got {m}")
    return m


def check_lambda(lam, m, tol: float = TOL.endpoint):
    """Validate lambda in [1, m]; values within tol of an endpoint are clipped."""
    m = check_dimension(m)
    lam = np.asarray(lam, dtype=float)
    if not np.all((lam >= 1.0 - tol) & (lam <= m + tol)):  # NaN fails too
        raise DomainError(f"lambda outside domain [1, {m}]")
    lam = np.clip(lam, 1.0, float(m))
    return lam if lam.ndim else float(lam)


def check_delta(delta, m):
    """Validate delta in [0, 1); parametrizes lambda = m - 1 + delta."""
    check_dimension(m)
    delta = np.asarray(delta, dtype=float)
    if np.any(delta < 0.0) or np.any(delta >= 1.0):
        raise DomainError("delta outside domain [0, 1)")
    return delta if delta.ndim else float(delta)


def _check_base(base: str) -> str:
    if base not in BASES:
        raise ValueError(f"log base must be one of {BASES}, got {base!r}")
    return base


def convert_base(value, base: str):
    """Convert a natural-log quantity to the requested base."""
    return value * LOG2E if _check_base(base) == "two" else value


def binary_entropy(x, base: str = "two"):
    """Binary entropy -x log x - (1-x) log(1-x), with 0 log 0 := 0.

    Uses the symmetry H2(x) = H2(1-x) so the log1p branch is always applied
    to the argument closest to 1, which preserves precision as x -> 0 or 1.
    """
    _check_base(base)
    x = np.asarray(x, dtype=float)
    if np.any(x < -TOL.endpoint) or np.any(x > 1.0 + TOL.endpoint):
        raise DomainError("binary_entropy argument outside [0, 1]")
    x = np.clip(x, 0.0, 1.0)
    small = np.minimum(x, 1.0 - x)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(small > 0.0,
                     -small * np.log(np.where(small > 0.0, small, 1.0))
                     - (1.0 - small) * np.log1p(-small),
                     0.0)
    h = convert_base(h, base)
    return h if h.ndim else float(h)


def _uv(lam, m):
    # u = sqrt((m-1) lambda), v = sqrt(m - lambda); gamma = 1 - ((lam-1)/(u+v))^2
    u = np.sqrt((m - 1.0) * lam)
    v = np.sqrt(m - lam)
    return u, v


def one_minus_gamma(lam, m):
    """1 - gamma(lambda), computed without cancellation near lambda = 1.

    Algebraically 1 - gamma = (sqrt((m-1)L) - sqrt(m-L))^2 / m^2 and the
    difference of square roots equals m(L-1)/(sqrt((m-1)L) + sqrt(m-L)),
    so the subtraction is exact in (L - 1).
    """
    lam = check_lambda(lam, m)
    m = int(m)
    u, v = _uv(lam, m)
    x = ((lam - 1.0) / (u + v)) ** 2
    return x if np.ndim(x) else float(x)


def gamma_value(lam, m):
    """gamma(lambda) = (sqrt(L) + sqrt((m-1)(m-L)))^2 / m^2, in [1/m, 1]."""
    x = one_minus_gamma(lam, m)
    return 1.0 - x


def gamma_first(lam, m):
    """d gamma / d lambda; zero at lambda = 1, negative on (1, m)."""
    lam = check_lambda(lam, m)
    m = int(m)
    if np.any(np.asarray(lam) >= m):
        raise DomainError("gamma_first is singular at lambda = m")
    u, v = _uv(lam, m)
    # (1/sqrt(L) - sqrt((m-1)/(m-L))) = (v - u)/sqrt(L(m-L)) with
    # v - u = -m(L-1)/(u+v); combined with the sqrt(gamma) prefactor.
    gp = -np.sqrt(gamma_value(lam, m)) * (lam - 1.0) / (
        (u + v) * np.sqrt(lam * (m - lam)))
    return gp if np.ndim(gp) else float(gp)


def gamma_second(lam, m):
    """Second derivative of gamma: -(sqrt(m-1)/2) (L(m-L))^(-3/2)."""
    lam = check_lambda(lam, m)
    m = int(m)
    if np.any(np.asarray(lam) >= m):
        raise DomainError("gamma_second is singular at lambda = m")
    gpp = -0.5 * np.sqrt(m - 1.0) * (lam * (m - lam)) ** -1.5
    return gpp if np.ndim(gpp) else float(gpp)


def r_value(lam, m, base: str = "two"):
    """R(lambda) = H2(gamma) + (1 - gamma) log(m-1); R(1)=0, R(m)=log m."""
    _check_base(base)
    x = one_minus_gamma(lam, m)  # validates
    m = int(m)
    r = binary_entropy(1.0 - np.asarray(x), base="natural") + x * np.log(m - 1.0)
    r = convert_base(r, base)
    return r if np.ndim(r) else float(r)


def g_value(lam, m):
    """g(lambda) = log[(1-gamma)/((m-1) gamma)], natural log.

    Strictly increasing; diverges to -infinity as lambda -> 1.
    """
    lam = check_lambda(lam, m)
    m = int(m)
    if np.any(np.asarray(lam) <= 1.0):
        raise DomainError("g_value is singular at lambda = 1")
    u, v = _uv(lam, m)
    # log(1-gamma) expanded through the stable form to keep precision near 1.
    g = (2.0 * (np.log(lam - 1.0) - np.log(u + v))
         - np.log(m - 1.0)
         - np.log1p(-one_minus_gamma(lam, m)))
    return g if np.ndim(g) else float(g)


def r_first(lam, m, base: str = "two"):
    """R'(lambda) = gamma'(lambda) g(lambda); nonnegative on (1, m)."""
    _check_base(base)
    lam = check_lambda(lam, m)
    m = int(m)
    arr = np.asarray(lam)
    if np.any(arr <= 1.0) or np.any(arr >= m):
        raise DomainError("r_first requires 1 < lambda < m")
    rp = gamma_first(lam, m) * g_value(lam, m)
    rp = convert_base(rp, base)
    return rp if np.ndim(rp) else float(rp)


def r_second(lam, m):
    """R''(lambda) = gamma''(lambda) g(lambda) - 1/(L(m-L)), natural log.

    Multiply by log2(e) for the base-2 convention.
    """
    lam = check_lambda(lam, m)
    m = int(m)
    arr = np.asarray(lam)
    if np.any(arr <= 1.0) or np.any(arr >= m):
        raise DomainError("r_second requires 1 < lambda < m")
    rpp = gamma_second(lam, m) * g_value(lam, m) - 1.0 / (lam * (m - lam))
    return rpp if np.ndim(rpp) else float(rpp)


def f_value(lam, m):
    """f(lambda) = -2 sqrt(L(m-L)/(m-1)); convex, f(1) = f(m-1) = -2."""
    lam = check_lambda(lam, m)
    m = int(m)
    f = -2.0 * np.sqrt(lam * (m - lam) / (m - 1.0))
    return f if np.ndim(f) else float(f)


def c_value(delta, m):
    """C(delta) = 1 / (sqrt(m-1+delta) + sqrt((m-1)(1-delta)))."""
    delta = check_delta(delta, m)
    m = int(m)
    c = 1.0 / (np.sqrt(m - 1.0 + delta) + np.sqrt((m - 1.0) * (1.0 - delta)))
    return c if np.ndim(c) else float(c)


def a_value(delta, m):
    """A(delta) = ((m C(delta))^2 - 1)/(m-1); equals e^g at lambda = m-1+delta."""
    c = np.asarray(c_value(delta, m))
    m = int(m)
    a = ((m * c) ** 2 - 1.0) / (m - 1.0)
    if np.any(a <= 0.0):
        raise ArithmeticError("A(delta) must be positive")
    return a if a.ndim else float(a)


def b_value(delta, m):
    """B(delta) = sqrt((m-1)/((m-1+delta)(1-delta))); B(0) = 1, increasing."""
    delta = check_delta(delta, m)
    m = int(m)
    b = np.sqrt((m - 1.0) / ((m - 1.0 + delta) * (1.0 - delta)))
    return b if np.ndim(b) else float(b)


def big_f_value(delta, m):
    """F(delta) = (1/2) B(delta) log A(delta), natural log.

    F(0) = log((m-2)/(2(m-1))).  For m >= 5, F stays strictly above -1 on
    [0, 1), tending to -1 from above as delta -> 1; this is what rules out
    a zero of R'' right of m-1.  F is not monotone in delta.
    """
    f = 0.5 * np.asarray(b_value(delta, m)) * np.log(a_value(delta, m))
    return f if f.ndim else float(f)
