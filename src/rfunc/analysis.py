"""Inflection point, proof certification and convex envelope of the R-curve.

The R-curve is convex on [1, lambda0] and concave on [lambda0, m], so its
convex envelope coincides with R up to a tangent abscissa lambda* and is the
straight line through (m, log m) afterwards.  ``certify_proof`` re-checks
every inequality that this structure rests on, on dense grids, and returns a
machine-readable report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    TOL,
    big_f_value,
    a_value,
    b_value,
    check_dimension,
    check_lambda,
    convert_base,
    f_value,
    g_value,
    gamma_value,
    r_second,
    r_value,
)

__all__ = [
    "InflectionResult",
    "HullDescription",
    "CertificateCheck",
    "CertificateReport",
    "find_inflection",
    "certify_unique_inflection",
    "certify_no_root_right",
    "certify_proof",
    "find_tangent",
    "hull_value",
    "hull_oracle",
    "PiecewiseLinear",
]


@dataclass(frozen=True)
class InflectionResult:
    """Location of the zero of R'' (absent when R'' keeps one sign)."""

    lambda0: float | None
    bracket: tuple[float, float]
    iterations: int


@dataclass(frozen=True)
class HullDescription:
    """Two-piece description of co(R): R itself up to lambda*, then linear.

    ``slope`` and ``value_at_star`` are in the convention requested from
    ``find_tangent`` (base-2 by default).  ``degenerate`` is true when
    lambda* = m, i.e. co(R) = R on all of [1, m] (the m = 2 case).
    """

    lambda_star: float
    slope: float
    value_at_star: float
    degenerate: bool


@dataclass(frozen=True)
class CertificateCheck:
    name: str
    claim: str
    measured: float
    threshold: float
    passed: bool


@dataclass
class CertificateReport:
    """Pass/fail record of every proof inequality checked for one m."""

    m: int
    checks: list[CertificateCheck] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, claim, measured, threshold, passed):
        self.checks.append(CertificateCheck(name, claim, float(measured),
                                            float(threshold), bool(passed)))

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "checks": [
                {"name": c.name, "claim": c.claim, "measured": float(c.measured),
                 "threshold": float(c.threshold), "pass": bool(c.passed)}
                for c in self.checks
            ],
            "overall": self.overall,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def _bisect(func, lo, hi, tol):
    """Plain bisection on a sign change; returns (root, iterations)."""
    flo = func(lo)
    fhi = func(hi)
    if flo == 0.0:
        return lo, 0
    if fhi == 0.0:
        return hi, 0
    if np.sign(flo) == np.sign(fhi):
        raise ValueError("bisection bracket does not straddle a sign change")
    it = 0
    while hi - lo > tol and it < 200:
        mid = 0.5 * (lo + hi)
        fm = func(mid)
        if fm == 0.0:
            return mid, it
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
        it += 1
    return 0.5 * (lo + hi), it


def _sign_changes(values) -> int:
    s = np.sign(values)
    s = s[s != 0]
    return int(np.count_nonzero(np.diff(s)))


def _interior_grid(m, n):
    return np.linspace(1.0 + TOL.grid_left_offset, m - TOL.grid_right_offset, n)


def find_inflection(m, tol: float = 1e-12) -> InflectionResult:
    """Locate the unique zero lambda0 of R'' in (1, m).

    For m >= 5 the zero is the solution of g = f in (1, m-1), bracketed by
    the known signs at the edges (g -> -inf at 1, g(m-1) > -2 = f(m-1)).
    For m in {3, 4} the zero can sit above m-1, so a grid scan of R''
    isolates the sign change first.  For m = 2 there is no zero and the
    result carries ``lambda0 = None``.
    """
    m = check_dimension(m)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if m >= 5:
        lo, hi = 1.0 + 1e-9, float(m - 1)
        root, it = _bisect(lambda lam: g_value(lam, m) - f_value(lam, m),
                           lo, hi, tol)
        return InflectionResult(root, (lo, hi), it)

    grid = _interior_grid(m, 10_000)
    vals = r_second(grid, m)
    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if idx.size == 0:
        if m == 2:
            return InflectionResult(None, (float(grid[0]), float(grid[-1])), 0)
        raise ArithmeticError(f"no sign change of R'' found for m={m}")
    lo, hi = float(grid[idx[0]]), float(grid[idx[0] + 1])
    root, it = _bisect(lambda lam: r_second(lam, m), lo, hi, tol)
    return InflectionResult(root, (lo, hi), it)


def certify_unique_inflection(m, grid_size: int = 10_000):
    """Count sign changes of R'' on an interior grid; expect 1 (0 for m=2)."""
    m = check_dimension(m)
    if grid_size < 1000:
        raise ValueError("grid_size must be at least 1000")
    count = _sign_changes(r_second(_interior_grid(m, grid_size), m))
    expected = 0 if m == 2 else 1
    return count, count == expected


def certify_no_root_right(m, grid_size: int = 10_000) -> list[CertificateCheck]:
    """Checks ruling out a zero of R'' on (m-1, m): F(delta) stays above -1.

    Verifies the closed form of F(0), the bound F(0) >= log(3/8), strict
    monotonicity of A and B in delta, and F > -1 across the grid.  F itself
    is not monotone in delta (it tends to -1 from above as delta -> 1), so
    the grid bound on F is the check that actually excludes a zero of R''.
    Only meaningful for m >= 5.
    """
    m = check_dimension(m)
    if m < 5:
        raise ValueError("certify_no_root_right requires m >= 5")
    deltas = np.linspace(0.0, 1.0 - 1e-6, grid_size)
    f0 = big_f_value(0.0, m)
    closed = float(np.log((m - 2.0) / (2.0 * (m - 1.0))))
    fvals = big_f_value(deltas, m)
    avals = a_value(deltas, m)
    bvals = b_value(deltas, m)
    checks = [
        CertificateCheck(
            "big_f_at_zero_closed_form",
            "F(0) = log((m-2)/(2(m-1)))",
            abs(f0 - closed), 1e-12, abs(f0 - closed) <= 1e-12),
        CertificateCheck(
            "big_f_at_zero_lower_bound",
            "F(0) >= log(3/8) > -1",
            f0, float(np.log(3.0 / 8.0)),
            f0 >= np.log(3.0 / 8.0) - 1e-12),
        CertificateCheck(
            "big_f_above_minus_one",
            "F(delta) > -1 on [0, 1)",
            float(np.min(fvals)), -1.0,
            bool(np.all(fvals > -1.0))),
        CertificateCheck(
            "a_increasing",
            "A(delta) strictly increasing on [0, 1)",
            float(np.min(np.diff(avals))), 0.0,
            bool(np.all(np.diff(avals) > 0.0))),
        CertificateCheck(
            "b_increasing",
            "B(delta) strictly increasing on [0, 1)",
            float(np.min(np.diff(bvals))), 0.0,
            bool(np.all(np.diff(bvals) > 0.0))),
    ]
    return checks


def certify_proof(m, grid_size: int = 10_000) -> CertificateReport:
    """Run every endpoint identity and grid inequality for one dimension m."""
    m = check_dimension(m)
    rep = CertificateReport(m)
    grid = _interior_grid(m, grid_size)

    rep.add("gamma_at_one", "gamma(1) = 1",
            abs(gamma_value(1.0, m) - 1.0), 1e-12,
            abs(gamma_value(1.0, m) - 1.0) <= 1e-12)
    rep.add("gamma_at_m", "gamma(m) = 1/m",
            abs(gamma_value(float(m), m) - 1.0 / m), 1e-12,
            abs(gamma_value(float(m), m) - 1.0 / m) <= 1e-12)
    rep.add("r_at_one", "R(1) = 0",
            abs(r_value(1.0, m)), 1e-12, abs(r_value(1.0, m)) <= 1e-12)
    err_m = abs(r_value(float(m), m) - np.log2(m))
    rep.add("r_at_m", "R(m) = log2(m)", err_m, 1e-12, err_m <= 1e-12)

    gam = gamma_value(grid, m)
    rep.add("gamma_nonincreasing", "gamma is nonincreasing on [1, m]",
            float(np.max(np.diff(gam))), 0.0, bool(np.all(np.diff(gam) <= 0.0)))
    rv = r_value(grid, m)
    rep.add("r_nondecreasing", "R is nondecreasing on [1, m]",
            float(np.min(np.diff(rv))), 0.0, bool(np.all(np.diff(rv) >= 0.0)))

    # R'' is positive just right of 1 (the divergence there is logarithmic,
    # so "large" cannot mean more than a few tens in double precision).
    edge = r_second(1.0 + 1e-6, m)
    rep.add("r_second_positive_left_edge", "R''(1 + 1e-6) > 0",
            edge, 0.0, edge > 0.0)

    fe = max(abs(f_value(1.0, m) + 2.0), abs(f_value(float(m - 1), m) + 2.0))
    rep.add("f_endpoints", "f(1) = f(m-1) = -2", fe, 1e-12, fe <= 1e-12)
    fv = f_value(grid, m)
    d2f = np.diff(fv, 2)
    rep.add("f_convex", "second differences of f are nonnegative",
            float(np.min(d2f)), -1e-10, bool(np.all(d2f >= -1e-10)))

    if m >= 3:
        ggrid = np.linspace(1.0 + TOL.grid_left_offset, float(m - 1), grid_size)
        gv = g_value(ggrid, m)
        rep.add("g_increasing", "g strictly increasing on (1, m-1]",
                float(np.min(np.diff(gv))), 0.0,
                bool(np.all(np.diff(gv) > 0.0)))
        gm1 = g_value(float(m - 1), m)
        closed_g = 2.0 * np.log((m - 2.0) / (2.0 * (m - 1.0)))
        rep.add("g_at_m_minus_one_closed_form",
                "g(m-1) = 2 log((m-2)/(2(m-1)))",
                abs(gm1 - closed_g), 1e-12, abs(gm1 - closed_g) <= 1e-12)
        rpp_m1 = r_second(float(m - 1), m)
        closed_rpp = -(np.log((m - 2.0) / (2.0 * (m - 1.0))) + 1.0) / (m - 1.0)
        rep.add("r_second_at_m_minus_one_closed_form",
                "R''(m-1) = -(1/(m-1))(log((m-2)/(2(m-1))) + 1)",
                abs(rpp_m1 - closed_rpp), 1e-12,
                abs(rpp_m1 - closed_rpp) <= 1e-12)

    if m >= 5:
        rep.add("g_at_m_minus_one_above_minus_two", "g(m-1) > -2",
                g_value(float(m - 1), m), -2.0,
                g_value(float(m - 1), m) > -2.0)
        rep.add("r_second_negative_at_m_minus_one", "R''(m-1) < 0",
                r_second(float(m - 1), m), 0.0,
                r_second(float(m - 1), m) < 0.0)

    count, ok = certify_unique_inflection(m, grid_size)
    expected = 0 if m == 2 else 1
    rep.add("unique_inflection",
            f"exactly {expected} sign change(s) of R'' on (1, m)",
            count, expected, ok)

    if m >= 5:
        res = find_inflection(m)
        resid = abs(g_value(res.lambda0, m) - f_value(res.lambda0, m))
        rep.add("inflection_residual", "|g(lambda0) - f(lambda0)| < 1e-10",
                resid, TOL.inflection_residual,
                resid < TOL.inflection_residual)
        rep.add("inflection_in_open_interval", "lambda0 in (1, m-1)",
                res.lambda0, float(m - 1),
                1.0 < res.lambda0 < m - 1.0)
        rep.checks.extend(certify_no_root_right(m, grid_size))

    return rep


def _tangent_natural(m: int) -> tuple[float, float, float, bool]:
    """(lambda*, slope, R(lambda*), degenerate) in the natural-log convention.

    Closed form (Terhal-Vollbrecht): gamma(lambda*) = (m-1)/m, so
    lambda* = 4(m-1)/m and the line from there to (m, log m) has slope
    log(m-1)/(m-2).  R(lambda*) = log m - ((m-2)/m) log(m-1) is written as
    log1p(1/(m-1)) + 2 log(m-1)/m, which does not cancel at large m.  At
    m = 2, lambda* = m, co(R) = R, and the slope is the limit 1 = R'(2-).
    """
    log_m1 = math.log(m - 1)
    slope = log_m1 / (m - 2) if m > 2 else 1.0
    value = math.log1p(1.0 / (m - 1)) + 2.0 * log_m1 / m
    return 4.0 * (m - 1) / m, slope, value, m == 2


def find_tangent(m, base: str = "two") -> HullDescription:
    """Tangent abscissa lambda* and linear piece of the convex envelope."""
    lam_star, slope, val, degenerate = _tangent_natural(check_dimension(m))
    return HullDescription(lam_star, convert_base(slope, base),
                           convert_base(val, base), degenerate)


def hull_value(lam, m, base: str = "two"):
    """Convex envelope co(R): R up to lambda*, then the tangent line to (m, log m)."""
    lam = check_lambda(lam, m)
    m = int(m)
    lam_star, slope, val, _ = _tangent_natural(m)
    arr = np.asarray(lam, dtype=float)
    out = np.empty_like(arr)
    on_curve = arr <= lam_star
    if np.any(on_curve):
        out[on_curve] = r_value(arr[on_curve], m, base="natural")
    if np.any(~on_curve):
        out[~on_curve] = val + slope * (arr[~on_curve] - lam_star)
    out = convert_base(out, base)
    return out if np.ndim(lam) else float(out)


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
