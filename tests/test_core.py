import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import central_diff, fd_step, interior_grid

from rfunc import (
    LOG2E,
    DomainError,
    a_value,
    b_value,
    big_f_value,
    binary_entropy,
    c_value,
    check_dimension,
    check_lambda,
    f_value,
    g_value,
    gamma_first,
    gamma_second,
    gamma_value,
    hull_value,
    isotropic_eof,
    r_first,
    r_second,
    r_value,
)
from rfunc.analysis import _tangent_natural
from rfunc.core import _MATH, _args, _g, _gp, _r, _rpp, _wx, check_delta


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_quarter(self):
        # high-precision value of -x log2 x - (1-x) log2(1-x) at x = 1/4
        assert binary_entropy(0.25) == pytest.approx(
            0.8112781244591328, abs=1e-15)

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            binary_entropy(1.5)
        with pytest.raises(DomainError):
            binary_entropy(-0.1)
        with pytest.raises(DomainError):
            binary_entropy(np.nan)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x),
                                                  abs=1e-12)

    @given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
    def test_natural_vs_base2(self, x):
        assert binary_entropy(x, base="two") == pytest.approx(
            binary_entropy(x, base="natural") * LOG2E, rel=1e-14)


class TestGamma:
    def test_endpoint_left(self):
        assert gamma_value(1.0, 5) == 1.0

    def test_endpoint_right(self):
        assert gamma_value(5.0, 5) == pytest.approx(0.2, abs=1e-15)

    def test_interior_value(self):
        assert gamma_value(2.0, 4) == pytest.approx(0.9330127018922193,
                                                    abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 17])
    def test_nonincreasing(self, m):
        grid = np.linspace(1.0, m, 2000)
        vals = gamma_value(grid, m)
        assert np.all(np.diff(vals) <= 0.0)
        assert abs(vals[0] - 1.0) < 1e-12
        assert abs(vals[-1] - 1.0 / m) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_value(0.5, 5)
        with pytest.raises(DomainError):
            gamma_value(5.1, 5)
        with pytest.raises(DomainError):
            gamma_value(2.0, 1)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, [2.0, np.nan]])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(DomainError):
            check_lambda(lam, 5)


class TestGammaDerivatives:
    def test_first_zero_at_one(self):
        assert gamma_first(1.0, 3) == 0.0

    def test_first_negative_interior(self):
        grid = interior_grid(6)
        assert np.all(gamma_first(grid, 6) < 0.0)

    def test_second_at_m_minus_one(self):
        # (lam (m - lam))^(3/2) = (m-1)^(3/2) at lam = m-1
        assert gamma_second(4.0, 5) == pytest.approx(-0.125, abs=1e-15)

    def test_second_closed_value(self):
        assert gamma_second(2.0, 4) == pytest.approx(
            -np.sqrt(3.0) / 2.0 * 4.0 ** -1.5, abs=1e-15)

    def test_singular_at_m(self):
        with pytest.raises(DomainError):
            gamma_first(4.0, 4)
        with pytest.raises(DomainError):
            gamma_second(4.0, 4)

    @pytest.mark.parametrize("m", range(2, 17))
    def test_first_matches_finite_difference(self, m):
        grid = interior_grid(m)
        h = fd_step(grid, m)
        fd = central_diff(lambda x: gamma_value(x, m), grid, h)
        exact = gamma_first(grid, m)
        assert np.all(np.abs(fd - exact) <= 1e-6 * np.maximum(np.abs(exact), 1e-2))

    @pytest.mark.parametrize("m", range(2, 17))
    def test_second_matches_finite_difference(self, m):
        grid = interior_grid(m)
        h = fd_step(grid, m)
        fd = central_diff(lambda x: gamma_first(x, m), grid, h)
        exact = gamma_second(grid, m)
        assert np.all(np.abs(fd - exact) <= 1e-6 * np.maximum(np.abs(exact), 1e-2))


class TestR:
    def test_zero_at_one(self):
        assert r_value(1.0, 7) == 0.0

    def test_log_m_at_m(self):
        assert r_value(8.0, 8) == pytest.approx(3.0, abs=1e-12)

    def test_qubit_value(self):
        assert r_value(2.0, 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 4, 9, 33])
    def test_nondecreasing(self, m):
        vals = r_value(np.linspace(1.0, m, 2000), m)
        assert np.all(np.diff(vals) >= 0.0)

    @pytest.mark.parametrize("m", [2, 5, 12])
    def test_base_conversion(self, m):
        grid = interior_grid(m, 100)
        assert np.allclose(r_value(grid, m, base="two"),
                           r_value(grid, m, base="natural") * LOG2E,
                           rtol=0, atol=1e-12)

    def test_first_near_one_is_small(self):
        assert 0.0 <= r_first(1.0 + 1e-9, 5, base="natural") < 1e-6

    @pytest.mark.parametrize("m", range(2, 17))
    def test_first_matches_finite_difference(self, m):
        grid = interior_grid(m)
        h = fd_step(grid, m)
        fd = central_diff(lambda x: r_value(x, m, base="natural"), grid, h)
        exact = r_first(grid, m, base="natural")
        assert np.all(np.abs(fd - exact) <= 1e-6 * np.maximum(np.abs(exact), 1e-2))

    @pytest.mark.parametrize("m", range(2, 17))
    def test_second_matches_finite_difference(self, m):
        grid = interior_grid(m)
        h = fd_step(grid, m)
        fd = central_diff(lambda x: r_first(x, m, base="natural"), grid, h)
        exact = r_second(grid, m)
        assert np.all(np.abs(fd - exact) <= 1e-6 * np.maximum(np.abs(exact), 1e-2))

    def test_second_closed_form_at_m_minus_one(self):
        assert r_second(4.0, 5) == pytest.approx(
            -(np.log(3.0 / 8.0) + 1.0) / 4.0, abs=1e-15)

    def test_second_positive_at_m_minus_one_for_m_3(self):
        # sign flips below m = 5: R''(2) = (ln 4 - 1)/2 > 0 at m = 3
        assert r_second(2.0, 3) == pytest.approx((np.log(4.0) - 1.0) / 2.0,
                                                 abs=1e-15)
        assert r_second(2.0, 3) > 0.0

    def test_second_large_positive_near_one(self):
        # the divergence at 1 is logarithmic: positive but only O(10)
        val = r_second(1.0 + 1e-6, 5)
        assert val > 1.0

    def test_second_matches_mpmath_near_one(self):
        # Independent reference: R'' by the chain rule in the 50-digit oracle,
        # which test_mp_oracle holds to mpmath's own finite differences of R.
        mo = pytest.importorskip("mp_oracle")
        errors = []
        for m in (2, 3, 5, 16, 64):
            for k in range(2, 15, 2):
                lam = 1.0 + 10.0 ** -k
                ref = mo.at(lam, m).r_second
                errors.append(float(abs(r_second(lam, m) - ref) / abs(ref)))
        worst = float(np.max(errors))   # nan if any R'' was nan
        assert worst <= 1e-14, f"worst relative error {worst:.3e}"

    def test_endpoints_rejected(self):
        for fn in (r_first, r_second):
            with pytest.raises(DomainError):
                fn(1.0, 5)
            with pytest.raises(DomainError):
                fn(5.0, 5)


class TestGAndF:
    def test_g_closed_form_m5(self):
        assert g_value(4.0, 5) == pytest.approx(2.0 * np.log(3.0 / 8.0),
                                                abs=1e-14)

    def test_g_closed_form_m10(self):
        assert g_value(9.0, 10) == pytest.approx(2.0 * np.log(8.0 / 18.0),
                                                 abs=1e-14)

    def test_g_diverges_near_one(self):
        assert g_value(1.0 + 1e-8, 5) < -15.0

    def test_g_singular_at_one(self):
        with pytest.raises(DomainError):
            g_value(1.0, 5)

    @pytest.mark.parametrize("m", [3, 5, 20, 64])
    def test_g_strictly_increasing(self, m):
        grid = np.linspace(1.0 + 1e-6, m - 1.0, 5000)
        assert np.all(np.diff(g_value(grid, m)) > 0.0)

    def test_f_endpoints(self):
        assert f_value(1.0, 9) == pytest.approx(-2.0, abs=1e-15)
        assert f_value(8.0, 9) == pytest.approx(-2.0, abs=1e-15)

    def test_f_midpoint(self):
        assert f_value(3.0, 6) == pytest.approx(-2.0 * np.sqrt(9.0 / 5.0),
                                                abs=1e-14)

    @pytest.mark.parametrize("m", [2, 5, 40])
    def test_f_convex(self, m):
        vals = f_value(np.linspace(1.0, m, 3000), m)
        assert np.all(np.diff(vals, 2) >= -1e-10)


class TestRightIntervalFunctions:
    def test_c_at_zero(self):
        assert c_value(0.0, 5) == pytest.approx(0.25, abs=1e-15)
        assert c_value(0.0, 10) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_c_interior(self):
        assert c_value(0.5, 5) == pytest.approx(
            1.0 / (np.sqrt(4.5) + np.sqrt(2.0)), abs=1e-15)

    def test_a_at_zero(self):
        assert a_value(0.0, 5) == pytest.approx(0.140625, abs=1e-15)
        assert a_value(0.0, 10) == pytest.approx((8.0 / 18.0) ** 2, abs=1e-15)

    @pytest.mark.parametrize("m", [2, 3, 1000])
    def test_a_matches_mpmath_near_zero(self, m):
        # A = (1-gamma)/((m-1) gamma) at lambda = m-1+delta, from the 50-digit
        # oracle; at m = 2 it vanishes at delta = 0
        mo = pytest.importorskip("mp_oracle")
        deltas = [0.0, 1e-9, 1e-8, 1e-4, 0.5]
        got = a_value(np.array(deltas), m)
        with mo.mp.workdps(mo.DPS):
            for delta, a in zip(deltas, got):
                ref = mo.at(m - 1 + mo.mp.mpf(delta), m).a_value
                assert abs(a - ref) <= 1e-15 * ref, f"delta={delta}: {a!r} vs {ref}"
        assert a_value(0.0, 2) == 0.0
        assert big_f_value(0.0, 2) == -np.inf

    def test_b_at_zero_and_divergence(self):
        for m in (2, 5, 30):
            assert b_value(0.0, m) == pytest.approx(1.0, abs=1e-15)
        assert b_value(0.5, 5) == pytest.approx(np.sqrt(4.0 / 2.25), abs=1e-14)
        assert b_value(1.0 - 1e-12, 5) > 1e5

    def test_big_f_at_zero(self):
        assert big_f_value(0.0, 5) == pytest.approx(np.log(3.0 / 8.0),
                                                    abs=1e-14)
        assert big_f_value(0.0, 6) == pytest.approx(np.log(4.0 / 10.0),
                                                    abs=1e-14)

    def test_big_f_above_f0_at_09_for_m5(self):
        assert big_f_value(0.9, 5) > big_f_value(0.0, 5)

    @pytest.mark.parametrize("m", [5, 12, 40, 64])
    def test_big_f_above_minus_one(self, m):
        deltas = np.linspace(0.0, 1.0 - 1e-6, 5000)
        assert np.all(big_f_value(deltas, m) > -1.0)

    def test_delta_domain(self):
        with pytest.raises(DomainError):
            b_value(1.0, 5)
        with pytest.raises(DomainError):
            c_value(-0.1, 5)
        with pytest.raises(DomainError):
            check_delta(np.nan, 6)
        with pytest.raises(DomainError):
            big_f_value(np.nan, 6)


class TestProofIdentity:
    @pytest.mark.parametrize("m", [5, 9, 17, 32])
    def test_r_second_reformulation(self, m):
        # Multiplying R'' by lam (m - lam) at lam = m-1+delta and shifting by 1
        # gives exactly -F(delta); R'' = 0 would therefore force F = -1.
        deltas = np.linspace(1e-4, 1.0 - 1e-4, 1000)
        lam = m - 1.0 + deltas
        lhs = r_second(lam, m) * lam * (m - lam) + 1.0
        rhs = -big_f_value(deltas, m)
        assert np.all(np.abs(lhs - rhs) <= 1e-9 * np.maximum(1.0, np.abs(rhs)))

    @pytest.mark.parametrize("m", [5, 9, 17, 32])
    def test_sign_agreement(self, m):
        deltas = np.linspace(1e-4, 1.0 - 1e-4, 1000)
        lam = m - 1.0 + deltas
        assert np.all(np.sign(r_second(lam, m))
                      == np.sign(-(big_f_value(deltas, m) + 1.0)))


class TestCheckDimension:
    @pytest.mark.parametrize("m", [5, 5.0, np.int64(5), np.float64(5.0)])
    def test_integers_accepted(self, m):
        assert check_dimension(m) == 5 and type(check_dimension(m)) is int

    @pytest.mark.parametrize("m", ["5", b"5", True, 2.5, np.nan, np.inf, 1,
                                   pytest.param(2**1024 - 1, id="2**1024-1"),
                                   pytest.param(bytearray(b"5"), id="bytearray")])
    def test_invalid_rejected(self, m):
        with pytest.raises(DomainError):
            check_dimension(m)

    def test_int_beyond_float_range_names_the_range(self):
        # float(m) raises OverflowError, which is not a ValueError
        with pytest.raises(DomainError, match="beyond the float range"):
            check_dimension(10**400)
        assert check_dimension(2**1023) == 2**1023

    def test_string_m_rejected_by_public_functions(self):
        with pytest.raises(DomainError):
            r_value(2.5, "5")


class TestCheckFastPath:
    """A plain int m and a float lambda in [1, m] pass on a comparison alone.

    Every other input takes the full checks; either way the value, its type
    and the exception class are those of the full checks.
    """

    @pytest.mark.parametrize("m", [2, 2**999, 2**1000, 2**1023],
                             ids=["2", "2**999", "2**1000", "2**1023"])
    def test_check_dimension_either_side_of_the_fast_path(self, m):
        # 5, np.int64(5), 5.0, True and 2**1024 - 1: TestCheckDimension
        got = check_dimension(m)
        assert type(got) is int and got == m

    @pytest.mark.parametrize("lam, want", [
        (1.0, 1.0), (5, 5.0), (5.0, 5.0), (1.0 - 1e-13, 1.0), (5.0 + 1e-13, 5.0),
        (np.float64(2.5), 2.5), (3, 3.0), (np.nan, DomainError),
        (np.inf, DomainError), (-np.inf, DomainError), (-0.0, DomainError)],
        ids=["1.0", "int-m", "m", "below-1", "above-m", "float64", "int", "nan",
             "inf", "-inf", "-0.0"])
    @pytest.mark.parametrize("m", [5, np.int64(5), 5.0], ids=["int", "int64", "float"])
    def test_check_lambda_table(self, lam, want, m):
        # _args checks m once and lambda once: it must agree with check_lambda
        if want is DomainError:
            for check in (check_lambda, lambda lam, m: _args(lam, m)[0]):
                with pytest.raises(DomainError):
                    check(lam, m)
        else:
            for got in (check_lambda(lam, m), _args(lam, m)[0]):
                assert type(got) is float and got == want
                assert np.signbit(got) == np.signbit(want)

    def test_huge_m_compares_exactly(self):
        # the comparisons with an int m are exact: 2**999 lies inside
        # [1, 2**999 + 1], and the float 2**1000 + 2**948 lies above 2**1000
        # by far more than TOL.endpoint
        assert check_lambda(float(2**999), 2**999 + 1) == float(2**999)
        assert check_lambda(2.0, 2**1023) == 2.0
        with pytest.raises(DomainError):
            check_lambda(float(2**1000 + 2**948), 2**1000)

    @given(st.integers(-5, 2**62))
    def test_int_m_as_the_full_checks(self, m):
        # np.int64 is not a plain int, so it always takes the full checks
        try:
            want = check_dimension(np.int64(m))
        except DomainError:
            with pytest.raises(DomainError):
                check_dimension(m)
        else:
            assert check_dimension(m) == want

    @given(st.floats(allow_nan=True, allow_infinity=True),
           st.sampled_from([2, 3, 5, 64, 10**3, 10**5, 2**60]))
    def test_float_lambda_as_the_full_checks(self, lam, m):
        # np.float64 is a float subclass, so it always takes the full checks
        try:
            want = check_lambda(np.float64(lam), m)
        except DomainError:
            with pytest.raises(DomainError):
                check_lambda(lam, m)
        else:
            got = check_lambda(lam, m)
            assert type(got) is float and got == want


LAMBDA_FUNCTIONS = [gamma_value, gamma_first, gamma_second, r_value, r_first,
                    r_second, g_value, f_value, hull_value]


class TestScalarPath:
    """A scalar lambda runs the kernels on math, an array on numpy."""

    @pytest.mark.parametrize("lam", [2.5, np.float64(2.5), np.asarray(2.5)])
    def test_r_value_returns_python_float(self, lam):
        assert type(r_value(lam, 5)) is float

    @pytest.mark.parametrize("fn", LAMBDA_FUNCTIONS)
    def test_every_function_returns_python_float(self, fn):
        assert type(fn(np.float64(2.5), 5)) is float

    def test_isotropic_eof_returns_python_float(self):
        assert type(isotropic_eof(5, np.float64(0.5))) is float

    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 2)])
    def test_array_keeps_its_shape(self, shape):
        for fn in LAMBDA_FUNCTIONS:
            out = fn(np.full(shape, 2.5), 5)
            assert isinstance(out, np.ndarray) and out.shape == shape

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, np.float64(np.nan),
                                     0.5, 5.1, np.asarray(np.nan)])
    def test_bad_scalars_rejected(self, lam):
        with pytest.raises(DomainError):
            r_value(lam, 5)

    @pytest.mark.parametrize("m", [2, 3, 5, 64, 10 ** 3, 10 ** 6])
    def test_public_functions_are_their_kernels(self, m):
        # A float runs the kernels on math and returns a float; a one-element
        # array runs them on numpy.  Either way each public function must be
        # its kernels on one shared (w, x), bit for bit.  The two namespaces
        # themselves may differ in the last bits (math.log against numpy's
        # SIMD log, C pow against x * x); the mpmath test below bounds that.
        # co(R) is R up to lambda* and the line after it: lambda* and its two
        # float neighbours pin the branch point, for isotropic_eof too (at
        # m = 2, lambda* = m, where gamma_first is singular: only the one below).
        lam_star, slope, val, _ = _tangent_natural(m)

        def hull(arg, xp):
            line = val + slope * (arg - lam_star)
            return xp.where(arg <= lam_star, _r(_wx(arg, m, xp)[1], m, xp), line) * LOG2E

        rng = np.random.default_rng(m)
        stars = [np.nextafter(lam_star, 0.0), lam_star, np.nextafter(lam_star, np.inf)]
        for lam in [*rng.uniform(1.0, m, 50), *(s for s in stars if s < m)]:
            for arg, xp in ((float(lam), _MATH), (np.array([lam]), np)):
                w, x = _wx(arg, m, xp)
                g, gp = _g(arg, m, xp, w, x), _gp(arg, m, xp, w, x)
                want = {gamma_value: 1.0 - x, gamma_first: gp, g_value: g,
                        r_value: _r(x, m, xp) * LOG2E, r_first: gp * g * LOG2E,
                        r_second: _rpp(arg, m, xp, g), hull_value: hull(arg, xp)}
                for fn, expected in want.items():
                    got = fn(arg, m)
                    assert type(got) is type(expected), fn.__name__
                    assert np.array_equal(got, expected), (fn.__name__, lam)
            fidelity = float(lam) / m
            got = isotropic_eof(m, fidelity)
            assert type(got) is float
            assert got == (0.0 if fidelity <= 1.0 / m else hull(m * fidelity, _MATH)), lam

    def test_scalar_path_no_less_accurate_than_array_path(self):
        # Each function at float lambda (math kernels) and at a 1-element
        # array (numpy kernels), against the 50-digit oracle.  The sample
        # reaches 1e-14 from both endpoints, where known cancellations
        # dominate; those hit both paths alike.
        mo = pytest.importorskip("mp_oracle")
        worst = {}

        def record(name, got, ref):
            err = float(abs(got - ref) / abs(ref) if abs(ref) > 1e-30 else abs(got))
            worst[name] = max(worst.get(name, 0.0), err)

        with mo.mp.workdps(mo.DPS):
            for m in (2, 3, 5, 64, 10 ** 3, 10 ** 6):
                rng = np.random.default_rng(m)
                ts = [10.0 ** -k for k in range(1, 15)]
                lams = ([1.0 + t for t in ts] + [m - t for t in ts]
                        + [1.0, float(m), m - 1.0, 4.0 * (m - 1) / m]
                        + [float(x) for x in rng.uniform(1.0, m, 40)])
                for lam in lams:
                    refs = mo.at(lam, m)
                    for fn in LAMBDA_FUNCTIONS:
                        ref = getattr(refs, fn.__name__)
                        if ref is None:   # singular endpoint of this function
                            continue
                        record(("scalar", fn.__name__), fn(lam, m), ref)
                        record(("array", fn.__name__), fn(np.array([lam]), m)[0], ref)
                    fid = lam / m
                    if fid > 1.0 / m:
                        ref = mo.at(m * fid, m).hull_value
                        record(("scalar", "isotropic_eof"), isotropic_eof(m, fid), ref)
                        record(("array", "isotropic_eof"),
                               hull_value(np.array([m * fid]), m)[0], ref)
        names = [fn.__name__ for fn in LAMBDA_FUNCTIONS] + ["isotropic_eof"]
        worse = {n: (worst["scalar", n], worst["array", n]) for n in names
                 if not worst["scalar", n] <= worst["array", n]}   # nan fails too
        assert not worse, f"scalar path less accurate (scalar, array): {worse}"
