"""Inflection point, proof certification and convex envelope of the R-curve.

The R-curve is convex on [1, lambda0] and concave on [lambda0, m], so its
convex envelope coincides with R up to a tangent abscissa lambda* and is the
straight line through (m, log m) afterwards.  ``certify_proof`` re-checks
every inequality that this structure rests on and returns a machine-readable
report.  The endpoint values are checked against their closed forms.  Every
other claim (gamma decreasing, R and g increasing, f convex, one sign change
of R'', the tangent point left of it, and the delta route's A, B and F) is
checked by a closed form taken at its analytic worst point; the lemma behind
each point is in README.  No claim is sampled.  The rows read ``core``'s
kernels at points checked once, each with the arithmetic of the public
function it stands for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import _MATH, _a, _args, _b, _big_f, _f, _f_second, _g, _g_first, _gp, _r, _rpp, _wx
from .core import LOG2E, DomainError, check_dimension, convert_base

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

_SET = object.__setattr__  # bound once: CertificateCheck stores its fields in one __dict__ write


@dataclass(frozen=True)
class InflectionResult:
    """Location of the zero of R'' (absent when R'' keeps one sign)."""

    lambda0: float | None
    iterations: int  # evaluations of g - f
    residual: float | None = None  # |g - f| at lambda0


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

    def __init__(self, name: str, claim: str, measured: float, threshold: float, passed: bool):
        _SET(self, "__dict__", {"name": name, "claim": claim, "measured": measured,
                                "threshold": threshold, "passed": passed})


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


def find_inflection(m) -> InflectionResult:
    """Locate the unique zero lambda0 of R'' in (1, m); ``None`` at m = 2, where g < f.

    R'' = gamma'' (g - f) with gamma'' < 0, so lambda0 is the root of g = f.  Newton
    steps on g - f, with the closed-form slope g' - f' = -gamma'/(gamma x) +
    (m - 2L)/sqrt((m-1)L(m-L)) (x = 1 - gamma), start at lambda* = 4(m-1)/m, where
    g - f = -2(log(m-1) - 2 + 4/m) < 0.  g - f is concave (README, "The lemma"),
    so its tangent at a lambda < lambda0 lies above it: each step lands in
    (lambda, lambda0].  It stops at g - f >= 0 or at a step outside (lambda, m),
    which only convergence or a g - f without a root (a faulty kernel) gives, and
    returns the last lambda it evaluated, the evaluations and |g - f| there.
    """
    m = check_dimension(m)
    if m == 2:
        return InflectionResult(None, 0)
    lam, it = _lam_star(m), 0
    while True:
        w, x = _wx(lam, m, _MATH)
        diff = _g(lam, m, _MATH, w, x) - _f(lam, m, _MATH)
        it += 1
        if diff >= 0.0:
            break
        # sqrt(m-1) apart: (m-1) L (m-L) overflows past m ~ 1.34e154
        slope = (_g_first(lam, m, _MATH, w, x)
                 + (m - 2.0 * lam) / (math.sqrt(m - 1.0) * math.sqrt(lam * (m - lam))))
        step = lam - diff / slope
        if not lam < step < m:  # NaN too
            break
        lam = step
    return InflectionResult(lam, it, abs(diff))


# past 2**53, m and m - 1 are not both doubles: the m - 1 rows would read another lambda
_CERTIFY_M_MAX = 2**53


def _certify_m(m) -> int:
    m = check_dimension(m)
    if m > _CERTIFY_M_MAX:
        raise DomainError(f"the certifier needs m and m - 1 exact in doubles, "
                          f"m <= {_CERTIFY_M_MAX}, got {m}")
    return m


_LOG_3_8 = float(np.log(3.0 / 8.0))  # F(0) at m = 5, the least m whose F(0) > -1
_INFLECTION_RESIDUAL = 1e-10  # |g - f| at lambda0 that the certificate accepts


def _at(lam, m):
    # the kernels' arguments at a float lambda in [1, m]: (lambda, m, xp, w, x), one _wx
    return (lam, m, _MATH, *_wx(lam, m, _MATH))


def certify_proof(m) -> CertificateReport:
    """Run every endpoint identity and closed-form check for one m <= 2**53.

    m is checked once, by ``_certify_m`` (``find_inflection``, for m >= 5,
    repeats only its one comparison).  Each row then reads ``core``'s kernels
    at its point, whose (w, x) is taken once, with the arithmetic of the
    public function it stands for (``gamma_value``, ``r_value``, ``r_first``,
    ``g_value``, ``big_f_value``, ...), so its value is that function's, bit
    for bit.

    Each inequality is checked at its analytic worst point (README, "The
    lemma").  Uniqueness of the inflection rests on (g - f)'' < 0 on (1, m):
    R'' = gamma'' (g - f) with gamma'' < 0, and g - f runs from -inf at 1 to 0
    at m.  For m >= 3 two rows certify the envelope's tangent point
    lambda* = 4(m-1)/m: g - f < 0 there, so lambda* < lambda0 and co(R) = R up
    to lambda* lies in R's convex part; and R'(lambda*) is the slope
    log(m-1)/(m-2) of the line to (m, log m).  For m >= 5 the report ends with
    the delta route, which rules out a zero of R'' on (m-1, m):
    F(delta) = (1/2) B log A at lambda = m-1+delta stays above -1 on [0, 1).
    F is not monotone (it tends to -1 from above as delta -> 1), but
    F + 1 = (1/2) B (g - f), and the concavity of g - f gives
    F(delta) + 1 >= (1 - delta) B(delta) (F(0) + 1): F > -1 exactly when
    F(0) > -1.
    """
    m = _certify_m(m)
    rep = CertificateReport(m)

    def identity(name, claim, err):
        rep.add(name, claim, err, 1e-12, err <= 1e-12)

    # gamma = 1 - x, and R in bits is R * LOG2E, as convert_base takes it
    x_one, x_m = _wx(1.0, m, _MATH)[1], _wx(float(m), m, _MATH)[1]
    identity("gamma_at_one", "gamma(1) = 1", abs(1.0 - x_one - 1.0))
    identity("gamma_at_m", "gamma(m) = 1/m", abs(1.0 - x_m - 1.0 / m))
    identity("r_at_one", "R(1) = 0", abs(_r(x_one, m, _MATH) * LOG2E))
    identity("r_at_m", "R(m) = log2(m)", abs(_r(x_m, m, _MATH) * LOG2E - np.log2(float(m))))

    # gamma' = -sqrt(gamma)(lambda-1)/(w sqrt(lambda(m-lambda))) has the sign of 1 - lambda,
    # and g <= 0 on [1, m] is gamma >= 1/m = gamma(m) (that row and gamma_at_m), so
    # R' = gamma' g >= 0: both are read at the edge point of R'' below.  A NaN fails both
    at_edge = _at(1.0 + 1e-6, m)
    gp_edge, g_edge = _gp(*at_edge), _g(*at_edge)
    rep.add("gamma_nonincreasing", "gamma' <= 0 on [1, m]", gp_edge, 0.0, gp_edge <= 0.0)
    low = gp_edge * g_edge
    rep.add("r_nondecreasing", "R' = gamma' g >= 0 on [1, m]", low, 0.0, low >= 0.0)

    # R'' is positive just right of 1 (the divergence there is logarithmic,
    # so "large" cannot mean more than a few tens in double precision).
    edge = _rpp(*at_edge[:3], g_edge)
    rep.add("r_second_positive_left_edge", "R''(1 + 1e-6) > 0",
            edge, 0.0, edge > 0.0)

    identity("f_endpoints", "f(1) = f(m-1) = -2",
             max(abs(_f(1.0, m, _MATH) + 2.0), abs(_f(float(m - 1), m, _MATH) + 2.0)))
    # f'' is least where L(m-L) is largest, at m/2: 4/(m sqrt(m-1))
    curv = _f_second(0.5 * m, m, _MATH)
    rep.add("f_convex", "f'' = m^2 (L(m-L))^(-3/2) / (2 sqrt(m-1)) > 0",
            curv, 0.0, curv > 0.0)

    if m >= 3:
        low = _g_first(*_at(0.5 * (m + math.sqrt(m)), m))  # g' is least there: 4/(m-1)
        rep.add("g_increasing", "g' >= g'((m + sqrt(m))/2) = 4/(m-1) > 0 on (1, m)",
                low, 0.0, low > 0.0)
        log_ratio = float(np.log((m - 2.0) / (2.0 * (m - 1.0))))
        at_m1 = _at(float(m - 1), m)
        gm1 = _g(*at_m1)
        identity("g_at_m_minus_one_closed_form", "g(m-1) = 2 log((m-2)/(2(m-1)))",
                 abs(gm1 - 2.0 * log_ratio))
        rpp_m1 = _rpp(*at_m1[:3], gm1)
        closed_rpp = -(log_ratio + 1.0) / (m - 1.0)
        identity("r_second_at_m_minus_one_closed_form",
                 "R''(m-1) = -(1/(m-1))(log((m-2)/(2(m-1))) + 1)",
                 abs(rpp_m1 - closed_rpp))
        if m >= 5:
            rep.add("g_at_m_minus_one_above_minus_two", "g(m-1) > -2",
                    gm1, -2.0, gm1 > -2.0)
            rep.add("r_second_negative_at_m_minus_one", "R''(m-1) < 0",
                    rpp_m1, 0.0, rpp_m1 < 0.0)

    # the supremum of (g - f)'' on (1, m); with g - f -> -inf at 1 and -> 0 at m
    # (slope -(m-2)/(m-1) there), concavity leaves one root for m >= 3, none at 2
    expected = 0 if m == 2 else 1
    top = -4.0 / (m * math.sqrt(m - 1.0))
    rep.add("unique_inflection",
            f"exactly {expected} sign change(s) of R'' on (1, m): "
            "(g - f)'' <= -4/(m sqrt(m-1)) < 0",
            top, 0.0, top < 0.0)

    if m >= 3:
        # the envelope's tangent point lies in R's convex part: gamma = (m-1)/m
        # there, so g - f = -2 log(m-1) + 4(m-2)/m, negative for m >= 3, and the
        # one root of the concave g - f lies right of it (README, "The lemma")
        lam_s, slope, _, _ = _tangent_natural(m)
        at_s = _at(lam_s, m)
        g_s = _g(*at_s)
        gap = g_s - _f(lam_s, m, _MATH)
        rep.add("tangent_left_of_inflection",
                "(g - f)(lambda*) = -2(log(m-1) - 2 + 4/m) < 0, so lambda* < lambda0",
                gap, 0.0, gap < 0.0)
        identity("tangent_slope", "R'(lambda*) = log(m-1)/(m-2)",
                 abs(_gp(*at_s) * g_s - slope))

    if m >= 5:
        res = find_inflection(m)
        rep.add("inflection_residual", "|g(lambda0) - f(lambda0)| < 1e-10",
                res.residual, _INFLECTION_RESIDUAL, res.residual < _INFLECTION_RESIDUAL)
        rep.add("inflection_in_open_interval", "lambda0 in (1, m-1)",
                res.lambda0, float(m - 1),
                1.0 < res.lambda0 < m - 1.0)

        a0 = _a(0.0, m, _MATH)
        f0 = _big_f(a0, _b(0.0, m, _MATH))
        identity("big_f_at_zero_closed_form", "F(0) = log((m-2)/(2(m-1)))",
                 abs(f0 - log_ratio))
        rep.add("big_f_at_zero_lower_bound", "F(0) >= log(3/8) > -1",
                f0, _LOG_3_8, f0 >= _LOG_3_8 - 1e-12)
        rep.add("big_f_above_minus_one",
                "F(delta) > -1 on [0, 1): F(delta) + 1 >= (1-delta) B(delta) (F(0) + 1)",
                f0, -1.0, f0 > -1.0)
        # A' = A g' and B'/B = (m-2+2 delta)/(2(m-1+delta)(1-delta)) increase on
        # [0, 1) (g is convex right of (m + sqrt(m))/2 < m-1), so both are least at 0
        slope_a = a0 * _g_first(*at_m1)
        rep.add("a_increasing", "A' = A g' >= A'(0) > 0 on [0, 1)",
                slope_a, 0.0, slope_a > 0.0)
        slope_b = (m - 2.0) / (2.0 * (m - 1.0))
        rep.add("b_increasing", "B' >= B'(0) = (m-2)/(2(m-1)) > 0 on [0, 1)",
                slope_b, 0.0, slope_b > 0.0)

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
