import json

import numpy as np
import pytest

from conftest import hull_oracle

from rfunc import (
    a_value,
    b_value,
    big_f_value,
    certify_proof,
    f_value,
    find_inflection,
    find_tangent,
    g_value,
    gamma_value,
    hull_value,
    r_first,
    r_value,
    r_second,
)
from rfunc.analysis import _grid_values


class TestFindInflection:
    @pytest.mark.parametrize("m", [5, 8, 20, 64])
    def test_solves_g_equals_f(self, m):
        res = find_inflection(m)
        assert res.lambda0 is not None
        assert 1.0 < res.lambda0 < m - 1.0
        assert abs(g_value(res.lambda0, m) - f_value(res.lambda0, m)) < 1e-10

    def test_m3_above_m_minus_one(self):
        res = find_inflection(3)
        assert 2.0 < res.lambda0 < 3.0
        assert abs(r_second(res.lambda0, 3)) < 1e-9

    def test_m4(self):
        res = find_inflection(4)
        assert 1.0 < res.lambda0 < 4.0
        assert abs(r_second(res.lambda0, 4)) < 1e-9

    def test_m2_absent(self):
        assert find_inflection(2).lambda0 is None

    @pytest.mark.parametrize("m", [3, 4, 5, 64, 1000])
    def test_lambda0_matches_mpmath(self, m):
        # the root of g = f in the 50-digit oracle; for m in {3, 4} it lies
        # above m-1, for m >= 5 below
        mo = pytest.importorskip("mp_oracle")
        lam0 = find_inflection(m).lambda0
        with mo.mp.workdps(mo.DPS):
            def g_minus_f(lam):
                ref = mo.at(lam, m)
                return ref.g_value - ref.f_value
            err = abs(lam0 - mo.mp.findroot(g_minus_f, mo.mp.mpf(lam0)))
        assert err <= 1e-12, f"error {float(err):.3e}"

    @pytest.mark.parametrize("m", [5, 11, 40])
    def test_r_second_changes_sign_at_lambda0(self, m):
        lam0 = find_inflection(m).lambda0
        assert r_second(lam0 - 1e-4, m) > 0.0
        assert r_second(lam0 + 1e-4, m) < 0.0


def check_named(report, name):
    return next(c for c in report.checks if c.name == name)


class TestUniqueness:
    @pytest.mark.parametrize("m", [3, 4, 5, 40, 64])
    def test_exactly_one_sign_change(self, m):
        check = check_named(certify_proof(m), "unique_inflection")
        assert check.measured == 1.0 and check.passed

    def test_m2_no_sign_change(self):
        check = check_named(certify_proof(2), "unique_inflection")
        assert check.measured == 0.0 and check.passed

    def test_grid_size_validated(self):
        with pytest.raises(ValueError):
            certify_proof(5, grid_size=10)


DELTA_CHECKS = ["big_f_at_zero_closed_form", "big_f_at_zero_lower_bound",
                "big_f_above_minus_one", "a_increasing", "b_increasing"]


class TestNoRootRight:
    @pytest.mark.parametrize("m", [5, 100])
    def test_all_checks_pass(self, m):
        rep = certify_proof(m)
        checks = [check_named(rep, name) for name in DELTA_CHECKS]
        assert all(c.passed for c in checks)
        f0 = check_named(rep, "big_f_at_zero_lower_bound")
        assert f0.measured == pytest.approx(
            np.log((m - 2.0) / (2.0 * (m - 1.0))), abs=1e-12)
        assert f0.measured >= np.log(3.0 / 8.0) - 1e-12

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_absent_below_5(self, m):
        names = {c.name for c in certify_proof(m).checks}
        assert names.isdisjoint(DELTA_CHECKS)


BASE_CHECKS = ["gamma_at_one", "gamma_at_m", "r_at_one", "r_at_m",
               "gamma_nonincreasing", "r_nondecreasing",
               "r_second_positive_left_edge", "f_endpoints", "f_convex"]
G_CHECKS = ["g_increasing", "g_at_m_minus_one_closed_form",
            "r_second_at_m_minus_one_closed_form"]


class TestCertifyProof:
    @pytest.mark.parametrize("m", range(5, 65))
    def test_overall_pass_m5_to_64(self, m):
        assert certify_proof(m).overall

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_small_m_pass(self, m):
        rep = certify_proof(m)
        assert rep.overall
        names = [c.name for c in rep.checks]
        # negativity of R''(m-1) only applies from m = 5 up
        assert "r_second_negative_at_m_minus_one" not in names

    @pytest.mark.parametrize("m, names", [
        (2, BASE_CHECKS + ["unique_inflection"]),
        (3, BASE_CHECKS + G_CHECKS + ["unique_inflection"]),
        (5, BASE_CHECKS + G_CHECKS + ["g_at_m_minus_one_above_minus_two",
                                      "r_second_negative_at_m_minus_one",
                                      "unique_inflection", "inflection_residual",
                                      "inflection_in_open_interval"] + DELTA_CHECKS),
    ])
    def test_check_names_and_order(self, m, names):
        # the order is the order of the checks printed by `rfunc certify`
        assert [c.name for c in certify_proof(m).checks] == names

    def test_json_schema(self):
        doc = json.loads(certify_proof(5).to_json())
        assert set(doc) == {"m", "checks", "overall"}
        assert doc["m"] == 5
        assert doc["overall"] is True
        for check in doc["checks"]:
            assert set(check) == {"name", "claim", "measured", "threshold", "pass"}
            assert isinstance(check["pass"], bool)
            assert isinstance(check["measured"], float)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 64, 10 ** 3, 10 ** 6])
    def test_grid_values_equal_public_functions(self, m):
        # certify_proof runs the kernels on its grids unchecked; every array
        # must equal the checked public function on the same grid, bit for bit
        vals = _grid_values(m, 10_000)
        grid = vals["grid"]
        want = {"gamma": gamma_value(grid, m), "r": r_value(grid, m),
                "g": g_value(grid, m), "r_second": r_second(grid, m),
                "f": f_value(grid, m)}
        if m >= 3:
            want["g_ggrid"] = g_value(vals["ggrid"], m)
        if m >= 5:
            deltas = vals["deltas"]
            want.update(a=a_value(deltas, m), b=b_value(deltas, m),
                        big_f=big_f_value(deltas, m))
        assert set(vals) - {"grid", "ggrid", "deltas"} == set(want)
        for name, expected in want.items():
            assert np.array_equal(vals[name], expected), name


class TestTangent:
    @pytest.mark.parametrize("m", range(2, 41))
    def test_matches_conjectured_closed_form(self, m):
        # lambda* = 4(m-1)/m is computed in closed form; the tangency
        # equation and the brute-force hull_oracle check it independently
        assert find_tangent(m).lambda_star == pytest.approx(
            4.0 * (m - 1.0) / m, abs=1e-8)

    def test_m2_degenerate(self):
        desc = find_tangent(2)
        assert desc.degenerate
        assert desc.lambda_star == 2.0
        # the slope is the limit R'(2-) = 1 nat, i.e. log2(e) bits
        assert desc.slope == pytest.approx(np.log2(np.e), rel=1e-6)

    @pytest.mark.parametrize("m", [3, 5, 9, 24, 1000, 10**5])
    def test_tangency_equation(self, m):
        desc = find_tangent(m)
        assert not desc.degenerate
        resid = (r_first(desc.lambda_star, m) * (m - desc.lambda_star)
                 - (np.log2(m) - r_value(desc.lambda_star, m)))
        assert abs(resid) < 1e-9
        assert desc.slope == pytest.approx(
            (np.log2(m) - desc.value_at_star) / (m - desc.lambda_star), rel=1e-9)

    @pytest.mark.parametrize("m", range(3, 41))
    def test_tangent_left_of_inflection(self, m):
        lam0 = find_inflection(m).lambda0
        assert find_tangent(m).lambda_star <= lam0 + 1e-9

    @pytest.mark.parametrize("m", [3, 5, 64, 10**3, 10**5, 10**6])
    def test_value_at_star_matches_mpmath(self, m):
        # R(4(m-1)/m) in bits, from the 50-digit oracle
        mo = pytest.importorskip("mp_oracle")
        with mo.mp.workdps(mo.DPS):
            ref = mo.at(mo.mp.mpf(4) * (m - 1) / m, m).r_value
            err = abs(find_tangent(m).value_at_star - ref) / ref
        assert err <= 1e-14, f"relative error {float(err):.3e}"


class TestHullValue:
    def test_endpoints(self):
        assert hull_value(1.0, 4) == 0.0
        assert hull_value(4.0, 4) == pytest.approx(2.0, abs=1e-12)

    def test_strictly_below_r_on_linear_piece(self):
        assert hull_value(2.9, 3) < r_value(2.9, 3)

    @pytest.mark.parametrize("m", range(2, 41))
    def test_below_r_everywhere(self, m):
        grid = np.linspace(1.0, m, 10_000)
        assert np.all(hull_value(grid, m) <= r_value(grid, m) + 1e-12)

    @pytest.mark.parametrize("m", [2, 3, 7, 25, 40])
    def test_convex(self, m):
        vals = hull_value(np.linspace(1.0, m, 10_000), m)
        assert np.all(np.diff(vals, 2) >= -1e-9)

    @pytest.mark.parametrize("m", [3, 6, 12])
    def test_slope_continuity_at_tangent(self, m):
        lam_star = find_tangent(m).lambda_star
        eps = 1e-7
        left = (hull_value(lam_star, m) - hull_value(lam_star - eps, m)) / eps
        right = (hull_value(lam_star + eps, m) - hull_value(lam_star, m)) / eps
        assert abs(left - right) < 1e-6

    def test_degenerate_equals_r(self):
        grid = np.linspace(1.0, 2.0, 5000)
        assert np.allclose(hull_value(grid, 2), r_value(grid, 2),
                           rtol=0, atol=1e-12)

    def test_domain(self):
        import rfunc
        with pytest.raises(rfunc.DomainError):
            hull_value(0.9, 4)


class TestHullOracle:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_sup_distance(self, m):
        oracle = hull_oracle(m, 100_000)
        xs = np.linspace(1.0, m, 50_000)
        assert np.max(np.abs(oracle(xs) - hull_value(xs, m))) < 1e-6

    def test_kink_near_tangent_point(self):
        oracle = hull_oracle(3, 100_000)
        # vertices are dense on the curve piece, sparse on the linear piece;
        # the last dense vertex sits at the tangent abscissa
        gaps = np.diff(oracle.xs)
        kink = oracle.xs[np.argmax(gaps)]
        assert abs(kink - 8.0 / 3.0) < 1e-3

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            hull_oracle(5, samples=10)
