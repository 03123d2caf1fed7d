"""Scalar functions underlying the R-curve analysis.

Everything here is a pure function of (lambda, m) or (delta, m).  Internally
all logarithms are natural; public entry points that return entropies accept a
``base`` argument ("two" or "natural") and convert once, by the factor
log2(e).  All functions accept numpy arrays for their real argument and
broadcast elementwise; a scalar argument gives a Python float.

Each public function validates its arguments once and then calls the private
kernels below (``_wx``, ``_g``, ...), which take a lambda (or delta) that is
already checked and clipped and an int m, and do no checking of their own.
The lambda kernels run over a namespace ``xp``, picked once by ``_args``:
``_MATH`` (the ``math`` module) for a float, ``np`` for an array.  Kernels
that need w or x = 1 - gamma take them from one ``_wx`` call per public call.
"""

from __future__ import annotations

import math
from itertools import chain
from types import SimpleNamespace

import numpy as np

__all__ = [
    "BASES",
    "DomainError",
    "LOG2E",
    "check_dimension",
    "check_lambda",
    "check_delta",
    "convert_base",
    "binary_entropy",
    "gamma_value",
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
_M_FAST = 2**1000  # a plain int m in [2, _M_FAST) needs no float range check
_ENDPOINT_SLACK = 1e-12  # lambda and binary_entropy's argument may pass their ends by this


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the function."""


def _out(x):
    # public functions return a float for a scalar argument
    return x if np.ndim(x) else float(x)


def check_dimension(m) -> int:
    """Validate the local dimension m (integer, at least 2, within the float range)."""
    if type(m) is int and 2 <= m < _M_FAST:  # a plain int: one comparison
        return m
    x = _real(m, "dimension m")  # int(m), not int(x), below: x rounds an int past 2**53
    if not (type(x) is float and x.is_integer() and x >= 2.0):
        raise DomainError(f"dimension m must be an integer >= 2, got {m!r}")
    return int(m)


def _real(x, name: str, _scalars=(int, float, np.integer, np.floating)):  # bound once
    # the one rule for a real argument: a real scalar (np.float64 is a float, a bool is
    # not a number) or a 0-d array gives a Python float, an int or float list or array
    # a float array, and the rest a DomainError; a ragged list raises numpy's ValueError
    if isinstance(x, _scalars) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:  # an int beyond the float range; its repr may be huge
            raise DomainError(f"{name} lies beyond the float range") from None
    a = np.asarray(None if isinstance(x, bytearray) else x)  # not a bytearray's byte values
    _require(a.dtype.kind in "iuf" and not _holds_bool(x),
             "{} must be real, got {}", name, type(x).__name__)
    return _out(np.asarray(a, dtype=float))


def _holds_bool(x, _seqs=(list, tuple)) -> bool:
    # whether a list or tuple holds a bool, np.bool_ or bool array (0 or 1 to numpy)
    # at any depth
    level, types = [x], {type(x)}
    while any(issubclass(t, _seqs) for t in types):
        level = list(chain.from_iterable(s for s in level if isinstance(s, _seqs)))
        types = set(map(type, level))
        if bool in types or np.bool_ in types:
            return True
        if any(issubclass(t, np.ndarray) for t in types) and any(
                isinstance(s, np.ndarray) and s.dtype == bool for s in level):
            return True
    return False


def check_lambda(lam, m):
    """Validate a real lambda (see ``_real``) in [1, m], within _ENDPOINT_SLACK; clip it."""
    return _clip(lam, check_dimension(m))


def _clip(lam, m):
    # check_lambda on a checked m; NaN fails the first test, as it should
    if type(lam) is float and 1.0 <= lam <= m:
        return lam
    lam = _real(lam, "lambda")
    _require((1.0 - _ENDPOINT_SLACK <= lam) & (lam <= m + _ENDPOINT_SLACK),  # NaN fails
             "lambda outside domain [1, {}]", m)
    if type(lam) is float:  # a scalar stays off numpy
        return min(max(lam, 1.0), float(m))
    return np.clip(lam, 1.0, float(m))


def check_delta(delta, m):
    """Validate a real delta (see ``_real``) in [0, 1); parametrizes lambda = m - 1 + delta."""
    check_dimension(m)
    delta = _real(delta, "delta")
    _require((0.0 <= delta) & (delta < 1.0), "delta outside domain [0, 1)")  # NaN fails too
    return delta


def convert_base(value, base: str):
    """Convert a natural-log quantity to the requested base."""
    if base not in BASES:
        raise ValueError(f"log base must be one of {BASES}, got {base!r}")
    return value * LOG2E if base == "two" else value


def _require(ok, message: str, *args) -> None:
    if not (ok is True or np.all(ok)):
        raise DomainError(message.format(*args))  # formatted only on failure


def _log1p(v, _np_log1p=np.log1p):  # numpy's log1p, bound once, on a float
    return float(_np_log1p(v))


# The kernels' namespace for a float: math, scalar np.minimum and np.where, and
# numpy's log1p (math.log1p is up to 0.64 ulp off; it moved g(m-1) at m = 21, 27)
_MATH = SimpleNamespace(sqrt=math.sqrt, log=math.log, log1p=_log1p,
                        minimum=min, where=lambda ok, a, b: a if ok else b)


def _h2(p, xp):
    # natural-log H2 through the symmetry H2(p) = H2(1-p): the log1p branch
    # always gets the argument closest to 1, which keeps precision at 0 and 1.
    # At small = 0 the expression is -0 log 1 - 1 log1p(-0) = -0 - (-0) = +0
    small = xp.minimum(p, 1.0 - p)
    return -small * xp.log(xp.where(small > 0.0, small, 1.0)) - (1.0 - small) * xp.log1p(-small)


def binary_entropy(x, base: str = "two"):
    """Binary entropy -x log x - (1-x) log(1-x) of a real x (see ``_real``); 0 log 0 := 0."""
    x = _real(x, "binary_entropy argument")
    _require((-_ENDPOINT_SLACK <= x) & (x <= 1.0 + _ENDPOINT_SLACK),  # NaN fails too
             "binary_entropy argument outside [0, 1]")
    return _out(convert_base(_h2(np.clip(x, 0.0, 1.0), np), base))


# Kernels on (lambda, m, xp): lambda already checked and clipped, m an int.

def _args(lam, m):
    # the checked lambda, m as an int, and the namespace the kernels run on
    m = check_dimension(m)
    lam = _clip(lam, m)
    return lam, m, (_MATH if type(lam) is float else np)


def _wx(lam, m, xp):
    # w = sqrt((m-1)L) + sqrt(m-L), and x = 1 - gamma = (sqrt((m-1)L) -
    # sqrt(m-L))^2 / m^2 = ((L-1)/w)^2, since the difference of the two roots
    # is m(L-1)/w: exact in (L - 1), so no cancellation near lambda = 1
    w = xp.sqrt((m - 1.0) * lam) + xp.sqrt(m - lam)
    return w, ((lam - 1.0) / w) ** 2


def _sqrt_gamma(lam, m, xp):
    # sqrt(gamma) as a sum of two roots, which does not cancel: sqrt(1 - x) turns
    # x's absolute error u into u/gamma near lambda = m, where gamma -> 1/m.  The
    # root of (m-1)(m-L) is split, since that product overflows past m ~ 1.34e154
    return (xp.sqrt(lam) + xp.sqrt(m - 1.0) * xp.sqrt(m - lam)) / m


def _gp(lam, m, xp, w, x):
    # (1/sqrt(L) - sqrt((m-1)/(m-L))) = (v - u)/sqrt(L(m-L)) with
    # v - u = -m(L-1)/w; combined with the sqrt(gamma) prefactor.
    return -_sqrt_gamma(lam, m, xp) * (lam - 1.0) / (w * xp.sqrt(lam * (m - lam)))


def _gpp(lam, m, xp):
    return -0.5 * xp.sqrt(m - 1.0) * (lam * (m - lam)) ** -1.5


def _g(lam, m, xp, w, x):
    # log(1-gamma) expanded through the stable form to keep precision near 1.
    return 2.0 * (xp.log(lam - 1.0) - xp.log(w)) - xp.log(m - 1.0) - xp.log1p(-x)


def _g_first(lam, m, xp, w, x):
    # g' = -gamma'/(gamma x), from g = log x - log(m-1) - log gamma and x' = -gamma';
    # positive wherever gamma' < 0.  gamma from _sqrt_gamma, not 1 - x, taken once:
    # -gamma' is _gp's expression with its sign dropped.  The caller keeps 0 < x < 1
    s = _sqrt_gamma(lam, m, xp)
    return s * (lam - 1.0) / (w * xp.sqrt(lam * (m - lam))) / (s * s * x)


def _rpp(lam, m, xp, g):
    # R'' = gamma'' g - 1/(L(m-L)), from a g already computed
    return _gpp(lam, m, xp) * g - 1.0 / (lam * (m - lam))


def _f(lam, m, xp):
    return -2.0 * xp.sqrt(lam * (m - lam) / (m - 1.0))


def _f_second(lam, m, xp):
    # f'' = m^2 (L(m-L))^(-3/2) / (2 sqrt(m-1)) > 0: with u = L(m-L), f'' is
    # (u'^2/2 - u u'') u^(-3/2) / sqrt(m-1), and (m-2L)^2/2 + 2L(m-L) = m^2/2
    return 0.5 * m * m / xp.sqrt(m - 1.0) * (lam * (m - lam)) ** -1.5


def _r(x, m, xp):
    # natural-log R from x = 1 - gamma
    return _h2(1.0 - x, xp) + x * xp.log(m - 1.0)


def gamma_value(lam, m):
    """gamma(lambda) = (sqrt(L) + sqrt((m-1)(m-L)))^2 / m^2, in [1/m, 1]."""
    lam, m, xp = _args(lam, m)
    return 1.0 - _wx(lam, m, xp)[1]


def gamma_first(lam, m):
    """d gamma / d lambda; zero at lambda = 1, negative on (1, m)."""
    lam, m, xp = _args(lam, m)
    _require(lam < m, "gamma_first is singular at lambda = m")
    return _gp(lam, m, xp, *_wx(lam, m, xp))


def gamma_second(lam, m):
    """Second derivative of gamma: -(sqrt(m-1)/2) (L(m-L))^(-3/2)."""
    lam, m, xp = _args(lam, m)
    _require(lam < m, "gamma_second is singular at lambda = m")
    return _gpp(lam, m, xp)


def r_value(lam, m, base: str = "two"):
    """R(lambda) = H2(gamma) + (1 - gamma) log(m-1); R(1)=0, R(m)=log m."""
    lam, m, xp = _args(lam, m)
    return convert_base(_r(_wx(lam, m, xp)[1], m, xp), base)


def g_value(lam, m):
    """g(lambda) = log[(1-gamma)/((m-1) gamma)], natural log.

    Strictly increasing; diverges to -infinity as lambda -> 1.
    """
    lam, m, xp = _args(lam, m)
    _require(lam > 1.0, "g_value is singular at lambda = 1")
    return _g(lam, m, xp, *_wx(lam, m, xp))


def r_first(lam, m, base: str = "two"):
    """R'(lambda) = gamma'(lambda) g(lambda); nonnegative on (1, m)."""
    lam, m, xp = _args(lam, m)
    _require((lam > 1.0) & (lam < m), "r_first requires 1 < lambda < m")
    w, x = _wx(lam, m, xp)
    return convert_base(_gp(lam, m, xp, w, x) * _g(lam, m, xp, w, x), base)


def r_second(lam, m):
    """R''(lambda) = gamma''(lambda) g(lambda) - 1/(L(m-L)), natural log.

    Equivalently gamma''(lambda) (g - f), since gamma'' f = 1/(L(m-L)).
    Multiply by log2(e) for the base-2 convention.
    """
    lam, m, xp = _args(lam, m)
    _require((lam > 1.0) & (lam < m), "r_second requires 1 < lambda < m")
    return _rpp(lam, m, xp, _g(lam, m, xp, *_wx(lam, m, xp)))


def f_value(lam, m):
    """f(lambda) = -2 sqrt(L(m-L)/(m-1)); convex, f(1) = f(m-1) = -2."""
    lam, m, xp = _args(lam, m)
    return _f(lam, m, xp)


# Kernels on (delta, m): delta already checked, m an int.

def _c(delta, m):
    return 1.0 / (np.sqrt(m - 1.0 + delta) + np.sqrt((m - 1.0) * (1.0 - delta)))


def _a(delta, m):
    # (1-gamma)/((m-1) gamma) at L = m-1+delta, from 1-gamma = ((L-1)/w)^2, 1/gamma =
    # (m C)^2 and w/(m C) = sqrt(m-1) + sqrt(L(1-delta)): no cancellation at m = 2
    den = np.sqrt(m - 1.0) + np.sqrt((m - 1.0 + delta) * (1.0 - delta))
    return ((m - 2.0 + delta) / den) ** 2 / (m - 1.0)


def _b(delta, m):
    return np.sqrt((m - 1.0) / ((m - 1.0 + delta) * (1.0 - delta)))


def _big_f(a, b):
    with np.errstate(divide="ignore"):  # log A(0) = log 0 at m = 2
        return 0.5 * b * np.log(a)


def c_value(delta, m):
    """C(delta) = 1 / (sqrt(m-1+delta) + sqrt((m-1)(1-delta)))."""
    delta, m = check_delta(delta, m), int(m)
    return _out(_c(delta, m))


def a_value(delta, m):
    """A(delta) = ((m C(delta))^2 - 1)/(m-1); equals e^g at lambda = m-1+delta."""
    delta, m = check_delta(delta, m), int(m)
    return _out(_a(delta, m))


def b_value(delta, m):
    """B(delta) = sqrt((m-1)/((m-1+delta)(1-delta))); B(0) = 1, increasing."""
    delta, m = check_delta(delta, m), int(m)
    return _out(_b(delta, m))


def big_f_value(delta, m):
    """F(delta) = (1/2) B(delta) log A(delta), natural log.

    F(0) = log((m-2)/(2(m-1))), which is -inf at m = 2.  For m >= 5, F stays
    strictly above -1 on [0, 1), tending to -1 from above as delta -> 1; this
    is what rules out a zero of R'' right of m-1.  F is not monotone in delta.
    """
    delta, m = check_delta(delta, m), int(m)
    return _out(_big_f(_a(delta, m), _b(delta, m)))
