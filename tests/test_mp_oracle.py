"""The 50-digit oracle against closed forms and against mpmath's own derivatives.

The accuracy tests of rfunc all take their reference from ``mp_oracle``; these
tests hold the oracle itself to values that do not come from its formulas.
"""
import subprocess
import sys
from pathlib import Path

import pytest

mo = pytest.importorskip("mp_oracle")
mp = mo.mp

M_VALUES = [2, 3, 5, 64, 10 ** 3, 10 ** 6]


def close(got, want, digits):
    return abs(got - want) <= mp.mpf(10) ** -digits * abs(want)


@pytest.mark.parametrize("m", M_VALUES)
def test_closed_forms(m):
    # to 40 digits: gamma = 1 - x gives up log10(m) of the 50 near lambda = m
    with mp.workdps(mo.DPS):
        at_one, at_m = mo.at(1, m), mo.at(m, m)
        assert at_one.gamma_value == 1 and at_one.r_value == 0
        assert close(at_m.gamma_value, mp.mpf(1) / m, 40)
        assert close(at_m.r_value, mp.log(m, 2), 40)
        assert close(at_m.hull_value, mp.log(m, 2), 40)
        lam_star = mp.mpf(4) * (m - 1) / m
        star = mo.at(lam_star, m)
        assert close(star.r_value * mp.ln2, mp.log(m) - (m - 2) * mp.log(m - 1) / m, 40)
        assert star.hull_value == star.r_value
        if m > 2:
            # co(R) is the chord from (lambda*, R(lambda*)) to (m, log2 m)
            mid = mo.at((lam_star + m) / 2, m)
            assert close(mid.hull_value, (star.r_value + mp.log(m, 2)) / 2, 40)
            assert mid.hull_value < mid.r_value
            g = mo.at(m - 1, m).g_value
            assert close(g, 2 * mp.log(mp.mpf(m - 2) / (2 * (m - 1))), 40)


@pytest.mark.parametrize("m", M_VALUES)
def test_a_is_exp_g(m):
    with mp.workdps(mo.DPS):
        for delta in [0, mp.mpf("1e-9"), mp.mpf("0.5")]:
            ref = mo.at(m - 1 + delta, m)
            if ref.g_value is None:   # m = 2, delta = 0: lambda = 1
                assert (m, delta, ref.a_value) == (2, 0, 0)
            else:
                assert close(ref.a_value, mp.exp(ref.g_value), 40)


@pytest.mark.parametrize("m", M_VALUES)
def test_chain_rule_derivatives_match_mpmath_diff(m):
    # R' (bits) and R'' (nats) by the chain rule through gamma, against
    # mpmath's finite differences of the oracle's R, which mp.diff takes at
    # more than DPS digits; the points near 1 are those of the R'' test in
    # test_core
    with mp.workdps(mo.DPS):
        lams = ([1 + mp.mpf(10) ** -k for k in range(2, 15, 2)]
                + [(1 + mp.mpf(m)) / 2, m - mp.mpf("1e-3")])
        for lam in lams:
            ref = mo.at(lam, m)
            r_first = mp.diff(lambda x: mo.at(x, m).r_value, lam, 1)
            r_second = mp.diff(lambda x: mo.at(x, m).r_value, lam, 2) * mp.ln2
            assert close(ref.r_first, r_first, 30), (lam, ref.r_first, r_first)
            assert close(ref.r_second, r_second, 30), (lam, ref.r_second, r_second)


def test_singular_points_are_none():
    with mp.workdps(mo.DPS):
        at_one, at_m = mo.at(1, 5), mo.at(5, 5)
    assert (at_one.g_value, at_one.r_first, at_one.r_second) == (None, None, None)
    assert at_one.gamma_first == 0
    assert (at_m.gamma_first, at_m.gamma_second, at_m.r_first, at_m.r_second) == (None,) * 4


def test_g_minus_f_continues_past_m():
    # mp.findroot steps past lambda = m on its way to the root at m = 3
    with mp.workdps(mo.DPS):
        for lam in [mp.mpf("3.25"), mp.mpc("2.8", "1e-12")]:
            ref = mo.at(lam, 3)
            assert mp.isfinite(ref.g_value - ref.f_value)


def test_imports_neither_rfunc_nor_pytest_nor_numpy():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import mp_oracle; "
            "print(sorted({'rfunc', 'pytest', 'numpy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
