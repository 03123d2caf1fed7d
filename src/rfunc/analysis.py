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

from .core import _MATH, _a, _args, _b, _big_f, _f, _g, _r, _rpp, _wx
from .core import (
    TOL,
    DomainError,
    big_f_value,
    check_dimension,
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
    "certify_proof",
    "find_tangent",
    "hull_value",
]


@dataclass(frozen=True)
class InflectionResult:
    """Location of the zero of R'' (absent when R'' keeps one sign)."""

    lambda0: float | None
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
                {"name": c.name, "claim": c.claim, "measured": c.measured,
                 "threshold": c.threshold, "pass": c.passed}
                for c in self.checks
            ],
            "overall": self.overall,
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


def _sign_changes(values) -> int:
    s = np.sign(values)
    s = s[s != 0]
    return int(np.count_nonzero(np.diff(s)))


def find_inflection(m) -> InflectionResult:
    """Locate the unique zero lambda0 of R'' in (1, m).

    R'' = gamma'' (g - f) with gamma'' < 0, so lambda0 is the root of g = f,
    found by bisection on a bracket where g - f goes from negative to
    positive.  For m >= 5 the bracket is (1, m-1): g -> -inf at 1 and
    g(m-1) > -2 = f(m-1).  For m in {3, 4} the root lies above m-1 (g - f is
    -0.77 and -0.20 there) and below m - TOL.grid_right_offset (g - f is
    about +5e-5 and +7e-5).  For m = 2, g < f on all of (1, 2) and the result
    carries ``lambda0 = None``.
    """
    m = check_dimension(m)
    if m == 2:
        return InflectionResult(None, 0)
    # the right end of the m in {3, 4} bracket is _lambda_grid's: moving one moves the other
    lo, hi = ((1.0 + 1e-9, float(m - 1)) if m >= 5
              else (float(m - 1), m - TOL.grid_right_offset))
    it = 0
    while hi - lo > 1e-12 and it < 200:
        mid = 0.5 * (lo + hi)
        diff = _g(mid, m, _MATH, *_wx(mid, m, _MATH)) - _f(mid, m, _MATH)
        if diff == 0.0:
            return InflectionResult(mid, it)
        if diff < 0.0:
            lo = mid
        else:
            hi = mid
        it += 1
    return InflectionResult(0.5 * (lo + hi), it)


def _lambda_grid(m: int, n: int) -> np.ndarray:
    """The n-point lambda grid of the certifier and of ``rfunc table``, inside (1, m)."""
    return np.linspace(1.0 + TOL.grid_left_offset, m - TOL.grid_right_offset, n)


def _grid_values(m: int, grid_size: int) -> dict:
    """The arrays ``certify_proof`` checks, each grid evaluated once on the kernels."""
    # the grids lie inside the domain by construction: no checks needed
    grid = _lambda_grid(m, grid_size)
    w, x = _wx(grid, m, np)
    g = _g(grid, m, np, w, x)
    vals = {"grid": grid, "gamma": 1.0 - x, "r": convert_base(_r(x, m, np), "two"),
            "g": g, "r_second": _rpp(grid, m, np, g), "f": _f(grid, m, np)}
    if m >= 3:
        ggrid = np.linspace(1.0 + TOL.grid_left_offset, float(m - 1), grid_size)
        vals.update(ggrid=ggrid, g_ggrid=_g(ggrid, m, np, *_wx(ggrid, m, np)))
    if m >= 5:
        deltas = np.linspace(0.0, 1.0 - 1e-6, grid_size)
        a, b = _a(deltas, m), _b(deltas, m)
        vals.update(deltas=deltas, a=a, b=b, big_f=_big_f(a, b))
    return vals


# Past 2**40 the grids' right end m - TOL.grid_right_offset rounds to m, where R'' is singular
_CERTIFY_M_MAX = 2**40


def _certify_m(m) -> int:
    m = check_dimension(m)
    if m > _CERTIFY_M_MAX:
        raise DomainError(f"the certifier needs m <= {_CERTIFY_M_MAX}, got {m}")
    return m


def certify_proof(m, grid_size: int = 10_000) -> CertificateReport:
    """Run every endpoint identity and grid inequality for one m <= 2**40 = 1,099,511,627,776.

    For m >= 5 the report ends with the delta route, which rules out a zero
    of R'' on (m-1, m): F(delta) = (1/2) B log A at lambda = m-1+delta stays
    above -1 on [0, 1).  F is not monotone (it tends to -1 from above as
    delta -> 1), so the grid bound on F is the check that excludes the zero.
    """
    m = _certify_m(m)
    if grid_size < 1000:
        raise ValueError("grid_size must be at least 1000")
    rep = CertificateReport(m)
    vals = _grid_values(m, grid_size)

    def identity(name, claim, err):
        rep.add(name, claim, err, 1e-12, err <= 1e-12)

    def increasing(name, claim, values):
        steps = np.diff(values)
        rep.add(name, claim, np.min(steps), 0.0, np.all(steps > 0.0))

    identity("gamma_at_one", "gamma(1) = 1", abs(gamma_value(1.0, m) - 1.0))
    identity("gamma_at_m", "gamma(m) = 1/m", abs(gamma_value(float(m), m) - 1.0 / m))
    identity("r_at_one", "R(1) = 0", abs(r_value(1.0, m)))
    identity("r_at_m", "R(m) = log2(m)", abs(r_value(float(m), m) - np.log2(m)))

    steps = np.diff(vals["gamma"])
    rep.add("gamma_nonincreasing", "gamma is nonincreasing on [1, m]",
            np.max(steps), 0.0, np.all(steps <= 0.0))
    steps = np.diff(vals["r"])
    rep.add("r_nondecreasing", "R is nondecreasing on [1, m]",
            np.min(steps), 0.0, np.all(steps >= 0.0))

    # R'' is positive just right of 1 (the divergence there is logarithmic,
    # so "large" cannot mean more than a few tens in double precision).
    edge = r_second(1.0 + 1e-6, m)
    rep.add("r_second_positive_left_edge", "R''(1 + 1e-6) > 0",
            edge, 0.0, edge > 0.0)

    identity("f_endpoints", "f(1) = f(m-1) = -2",
             max(abs(f_value(1.0, m) + 2.0), abs(f_value(float(m - 1), m) + 2.0)))
    d2f = np.diff(vals["f"], 2)
    rep.add("f_convex", "second differences of f are nonnegative",
            np.min(d2f), -1e-10, np.all(d2f >= -1e-10))

    if m >= 3:
        increasing("g_increasing", "g strictly increasing on (1, m-1]",
                   vals["g_ggrid"])
        log_ratio = np.log((m - 2.0) / (2.0 * (m - 1.0)))
        gm1 = g_value(float(m - 1), m)
        identity("g_at_m_minus_one_closed_form", "g(m-1) = 2 log((m-2)/(2(m-1)))",
                 abs(gm1 - 2.0 * log_ratio))
        rpp_m1 = r_second(float(m - 1), m)
        closed_rpp = -(log_ratio + 1.0) / (m - 1.0)
        identity("r_second_at_m_minus_one_closed_form",
                 "R''(m-1) = -(1/(m-1))(log((m-2)/(2(m-1))) + 1)",
                 abs(rpp_m1 - closed_rpp))
        if m >= 5:
            rep.add("g_at_m_minus_one_above_minus_two", "g(m-1) > -2",
                    gm1, -2.0, gm1 > -2.0)
            rep.add("r_second_negative_at_m_minus_one", "R''(m-1) < 0",
                    rpp_m1, 0.0, rpp_m1 < 0.0)

    expected = 0 if m == 2 else 1
    count = _sign_changes(vals["r_second"])
    rep.add("unique_inflection",
            f"exactly {expected} sign change(s) of R'' on (1, m)",
            count, expected, count == expected)

    if m >= 5:
        res = find_inflection(m)
        resid = abs(g_value(res.lambda0, m) - f_value(res.lambda0, m))
        rep.add("inflection_residual", "|g(lambda0) - f(lambda0)| < 1e-10",
                resid, TOL.inflection_residual,
                resid < TOL.inflection_residual)
        rep.add("inflection_in_open_interval", "lambda0 in (1, m-1)",
                res.lambda0, float(m - 1),
                1.0 < res.lambda0 < m - 1.0)

        f0 = big_f_value(0.0, m)
        identity("big_f_at_zero_closed_form", "F(0) = log((m-2)/(2(m-1)))",
                 abs(f0 - log_ratio))
        log_3_8 = np.log(3.0 / 8.0)
        rep.add("big_f_at_zero_lower_bound", "F(0) >= log(3/8) > -1",
                f0, log_3_8, f0 >= log_3_8 - 1e-12)
        fvals = vals["big_f"]
        rep.add("big_f_above_minus_one", "F(delta) > -1 on [0, 1)",
                np.min(fvals), -1.0, np.all(fvals > -1.0))
        increasing("a_increasing", "A(delta) strictly increasing on [0, 1)",
                   vals["a"])
        increasing("b_increasing", "B(delta) strictly increasing on [0, 1)",
                   vals["b"])

    return rep


def _lam_star(m: int) -> float:
    # the tangent abscissa of co(R), where gamma = (m-1)/m; the branch point of hull_value
    return 4.0 * (m - 1) / m


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
    return _lam_star(m), slope, value, m == 2


def find_tangent(m, base: str = "two") -> HullDescription:
    """Tangent abscissa lambda* and linear piece of the convex envelope."""
    lam_star, slope, val, degenerate = _tangent_natural(check_dimension(m))
    return HullDescription(lam_star, convert_base(slope, base),
                           convert_base(val, base), degenerate)


def hull_value(lam, m, base: str = "two"):
    """Convex envelope co(R): R up to lambda*, then the tangent line to (m, log m)."""
    lam, m, xp = _args(lam, m)
    if xp is _MATH and lam <= _lam_star(m):  # on the curve: no line to build
        return convert_base(_r(_wx(lam, m, xp)[1], m, xp), base)
    lam_star, slope, val, _ = _tangent_natural(m)
    out = val + slope * (lam - lam_star)  # the line; R replaces it up to lambda*
    if xp is np:
        on_curve = lam <= lam_star
        out[on_curve] = _r(_wx(lam[on_curve], m, np)[1], m, np)
    return convert_base(out, base)
