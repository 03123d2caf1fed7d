"""The tests' reference for the R-curve: mpmath at DPS digits, from the definitions.

The one place in the tests where R, gamma and their relatives are written in
mpmath.  It imports only mpmath and the standard library: not rfunc, pytest or
numpy.  ``mp`` is mpmath's context, for callers that need its other tools;
``close`` and ``g_minus_f`` are the helpers the tests share.
"""
from types import SimpleNamespace

from mpmath import mp

DPS = 50


def at(lam, m):
    """rfunc's functions of lambda at (lam, m), as attributes of the same names.

    Units are rfunc's: R, R' and co(R) in bits, the rest in nats.  ``a_value``,
    ``b_value`` and ``big_f_value`` are A, B and F of the delta route at
    delta = lam - (m - 1): B = sqrt((m-1)/(lam (m - lam))) and F = (1/2) B log A.
    1 - gamma is x = ((lam-1)/w)^2 with w = sqrt((m-1) lam) + sqrt(m - lam), an
    exact identity that keeps its digits near lam = 1 at large m.  A function
    singular at lam is None.  The work runs at DPS digits, or at the caller's
    precision if higher (mp.diff raises it).  lam may be complex, as
    mp.findroot makes it past lam = m: the singular points are found by
    equality, and co(R) reads the real part.
    """
    with mp.workdps(max(mp.dps, DPS)):
        lam, m = mp.mpmathify(lam), mp.mpf(m)
        x = ((lam - 1) / (mp.sqrt((m - 1) * lam) + mp.sqrt(m - lam))) ** 2
        gam = 1 - x
        a = x / ((m - 1) * gam)
        g = mp.log(a) if x else None   # dR/dgamma
        r = (-gam * mp.log(gam) + (x * mp.log((m - 1) / x) if x else 0)) / mp.ln2
        g1 = g2 = r1 = r2 = b = big_f = None
        if lam != m:
            b = mp.sqrt((m - 1) / (lam * (m - lam)))
            big_f = b * g / 2 if x else None
            # gamma = S^2 / m^2 with S = sqrt(lam) + sqrt((m-1)(m-lam)) = m sqrt(gamma)
            g1 = mp.sqrt(gam) / m * (1 / mp.sqrt(lam) - mp.sqrt((m - 1) / (m - lam)))
            g2 = -mp.sqrt(m - 1) / 2 * (lam * (m - lam)) ** -1.5
            if x:  # the chain rule, with d2R/dgamma2 = -1/(gamma x)
                r1, r2 = g1 * g / mp.ln2, g2 * g - g1 ** 2 / (gam * x)
        # co(R), Terhal-Vollbrecht: R up to 4(m-1)/m, then the line to (m, log m)
        hull = r if m * mp.re(lam) <= 4 * (m - 1) else (
            mp.log(m) + (lam - m) * mp.log(m - 1) / (m - 2)) / mp.ln2
        return SimpleNamespace(
            gamma_value=gam, gamma_first=g1, gamma_second=g2, r_value=r, r_first=r1,
            r_second=r2, g_value=g, f_value=-2 * mp.sqrt(lam * (m - lam) / (m - 1)),
            hull_value=hull, a_value=a, b_value=b, big_f_value=big_f)


def g_minus_f(lam, m):
    """g - f at (lam, m), whose root in (1, m) is the inflection lambda0."""
    ref = at(lam, m)
    return ref.g_value - ref.f_value


def close(got, want, digits):
    """Whether got agrees with want to ``digits`` significant digits."""
    return abs(got - want) <= mp.mpf(10) ** -digits * abs(want)
