"""The lemma behind certify_proof's closed-form checks, at 50 digits.

With cos(alpha) = 1/sqrt(m), lambda = m cos^2(phi) and theta = alpha - phi in
(0, alpha): gamma = cos^2(theta), g = 2 log(tan(theta)/tan(alpha)),
f = -m sin(2 phi)/tan(alpha) and d lambda/d theta = m sin(2 phi).  Then

    g'        = 1/sqrt(gamma (1-gamma) lambda (m-lambda)) >= 4/(m-1),
    (g - f)'' = -1/(2 gamma (1-gamma) sqrt((m-1) lambda (m-lambda)))
              <= -4/(m sqrt(m-1)) < 0,

so g - f, which runs from -inf at lambda = 1 to 0 at m (with slope
-(m-2)/(m-1) there), has one root for m >= 3 and none at m = 2.  README
derives each step; these tests hold each to the oracle of ``mp_oracle``.
"""
import pytest

mo = pytest.importorskip("mp_oracle")
mp, close, g_minus_f = mo.mp, mo.close, mo.g_minus_f

M_VALUES = [2, 3, 4, 5, 10, 64, 10 ** 3, 10 ** 6]


def lambdas(m, n):
    # n points of (1, m), denser towards both ends: lambda - 1 and m - lambda
    # geometric from 1e-12 (m - 1) to (m - 1)/2
    t = [mp.mpf(10) ** (-12 + mp.mpf(12) * k / n) / 2 for k in range(n)]
    return [1 + (m - 1) * u for u in t] + [m - (m - 1) * u for u in reversed(t)]


def deltas():
    # delta in [0, 1), up to 1 - 1e-12
    return ([mp.mpf(d) for d in ("0", "1e-9", "0.1", "0.5", "0.9")]
            + [1 - mp.mpf(10) ** -k for k in (3, 6, 9, 12)])


@pytest.mark.parametrize("m", M_VALUES)
def test_theta_substitution(m):
    with mp.workdps(mo.DPS):
        alpha = mp.acos(1 / mp.sqrt(m))
        for lam in lambdas(m, 6):
            ref = mo.at(lam, m)
            phi = mp.acos(mp.sqrt(lam / m))
            theta = alpha - phi
            assert close(ref.gamma_value, mp.cos(theta) ** 2, 30)
            assert close(ref.g_value, 2 * mp.log(mp.tan(theta) / mp.tan(alpha)), 30)
            assert close(ref.f_value, -m * mp.sin(2 * phi) / mp.tan(alpha), 30)
            dlam = mp.diff(lambda th: m * mp.cos(alpha - th) ** 2, theta)
            assert close(dlam, m * mp.sin(2 * phi), 30)


@pytest.mark.parametrize("m", M_VALUES)
def test_g_minus_f_is_concave_with_the_closed_form_bound(m):
    # (g - f)'' against mpmath's second difference, in both forms, and below its
    # supremum -4/(m sqrt(m-1)) = -f''(m/2)
    with mp.workdps(mo.DPS):
        alpha = mp.acos(1 / mp.sqrt(m))
        top = -4 / (m * mp.sqrt(m - 1))
        middle = [mp.mpf(m) / 2] if m > 2 else []  # lambda = 1 at m = 2
        for lam in lambdas(m, 8) + middle + [(m + mp.sqrt(m)) / 2]:
            ref = mo.at(lam, m)
            gam = ref.gamma_value
            want = -1 / (2 * gam * (1 - gam) * mp.sqrt((m - 1) * lam * (m - lam)))
            theta = alpha - mp.acos(mp.sqrt(lam / m))
            phi = alpha - theta
            by_theta = -8 / (m ** 2 * mp.sin(2 * theta) ** 2 * mp.sin(2 * alpha)
                             * mp.sin(2 * phi))
            assert close(mp.diff(lambda v: g_minus_f(v, m), lam, 2), want, 25), lam
            assert close(by_theta, want, 25), lam
            assert want < top < 0


@pytest.mark.parametrize("m", M_VALUES)
def test_g_minus_f_at_the_ends(m):
    # -inf at 1; at m, 0 with slope -(m-2)/(m-1), the next term O((m-lambda)^(3/2))
    with mp.workdps(mo.DPS):
        assert g_minus_f(1 + mp.mpf(10) ** -40, m) < -50
        s = mp.mpf(10) ** -24
        ratio = g_minus_f(m - s, m) / s
        assert abs(ratio - mp.mpf(m - 2) / (m - 1)) <= mp.mpf(10) ** -10


@pytest.mark.parametrize("m", M_VALUES)
def test_g_first_is_least_at_lambda_g(m):
    # g' = 1/sqrt(gamma (1-gamma) lambda (m-lambda)) >= 4/(m-1), with equality at
    # lambda_g = (m + sqrt m)/2; g is concave before lambda_g and convex after
    with mp.workdps(mo.DPS):
        lam_g = (m + mp.sqrt(m)) / 2
        least = mp.mpf(4) / (m - 1)
        assert close(mp.diff(lambda v: mo.at(v, m).g_value, lam_g), least, 30)
        assert abs(mp.diff(lambda v: mo.at(v, m).g_value, lam_g, 2)) <= mp.mpf(10) ** -25 * least
        for lam in lambdas(m, 8):
            ref = mo.at(lam, m)
            gam = ref.gamma_value
            g1 = mp.diff(lambda v: mo.at(v, m).g_value, lam)
            assert close(g1, 1 / mp.sqrt(gam * (1 - gam) * lam * (m - lam)), 25), lam
            assert g1 > least
            g2 = mp.diff(lambda v: mo.at(v, m).g_value, lam, 2)
            assert (g2 < 0) == (lam < lam_g), lam


@pytest.mark.parametrize("m", M_VALUES)
def test_f_second_at_the_middle(m):
    with mp.workdps(mo.DPS):
        f2 = mp.diff(lambda v: mo.at(v, m).f_value, mp.mpf(m) / 2, 2)
        assert close(f2, 4 / (m * mp.sqrt(m - 1)), 30)


@pytest.mark.parametrize("m", [m for m in M_VALUES if m >= 3])
def test_chord_bound_on_big_f(m):
    # F + 1 = (1/2) B (g - f) at lambda = m-1+delta, and the chord of the concave
    # g - f from m-1 to m gives F(delta) + 1 >= (1-delta) B(delta) (F(0) + 1): F > -1
    # on [0, 1) exactly when F(0) > -1, that is, when m >= 5
    with mp.workdps(mo.DPS):
        f0 = mo.at(m - 1, m).big_f_value
        assert (f0 > -1) == (m >= 5)
        for delta in deltas():
            ref = mo.at(m - 1 + delta, m)
            assert close(ref.big_f_value + 1, ref.b_value * (ref.g_value - ref.f_value) / 2, 25)
            assert ref.big_f_value + 1 >= (1 - delta) * ref.b_value * (f0 + 1), delta
            assert ref.big_f_value > -1 or m < 5, delta


@pytest.mark.parametrize("m", [m for m in M_VALUES if m >= 5])
def test_a_and_b_slopes_are_least_at_zero(m):
    # A' = A g' and B' increase on [0, 1) for m >= 5, from
    # A'(0) = m^2 (m-2)/(8 (m-1)^3) and B'(0) = (m-2)/(2(m-1))
    with mp.workdps(mo.DPS):
        a0 = mp.mpf(m) ** 2 * (m - 2) / (8 * mp.mpf(m - 1) ** 3)
        b0 = mp.mpf(m - 2) / (2 * (m - 1))
        slopes = [(mp.diff(lambda v: mo.at(v, m).a_value, m - 1 + d),
                   mp.diff(lambda v: mo.at(v, m).b_value, m - 1 + d)) for d in deltas()]
        assert close(slopes[0][0], a0, 30) and close(slopes[0][1], b0, 30)
        for a1, b1 in slopes[1:]:
            assert a1 > a0 and b1 > b0


@pytest.mark.parametrize("m", M_VALUES)
def test_r_second_changes_sign_once(m):
    # on a dense 50-digit sweep of (1, m): once for m >= 3, never at m = 2
    with mp.workdps(mo.DPS):
        signs = [mp.sign(mo.at(lam, m).r_second) for lam in lambdas(m, 400)]
    assert 0 not in signs
    changes = sum(a != b for a, b in zip(signs, signs[1:]))
    assert changes == (0 if m == 2 else 1)


def h(m):
    return mp.log(m - 1) - 2 + mp.mpf(4) / m


@pytest.mark.parametrize("m", [3, 4, 5, 10 ** 6])
def test_tangent_point_left_of_the_inflection(m):
    # (g - f)(lambda*) = -2 h(m) at lambda* = 4(m-1)/m, with h(3) = log 2 - 2/3 > 0
    # and h' = (m-2)^2/((m-1) m^2) >= 0: g - f < 0 at lambda*, so lambda* < lambda0
    # for every m >= 3, by the concavity above
    with mp.workdps(mo.DPS):
        star = g_minus_f(mp.mpf(4) * (m - 1) / m, m)
        assert close(star, -2 * h(m), 40)
        assert star < 0
        assert h(3) > 0
        for mm in (mp.mpf(m), mp.mpf(m) + mp.mpf("0.5")):
            assert close(mp.diff(h, mm), (mm - 2) ** 2 / ((mm - 1) * mm ** 2), 30)
