import copy
import dataclasses
import inspect
import json
import os
import pickle
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from conftest import hull_oracle

from rfunc import (
    DomainError,
    a_value,
    big_f_value,
    certify_proof,
    f_value,
    find_inflection,
    find_tangent,
    g_value,
    gamma_first,
    gamma_value,
    hull_value,
    r_first,
    r_value,
    r_second,
)
from rfunc import CertificateCheck, InflectionResult, analysis
from rfunc.core import _MATH, _f_second, _g_first, _wx


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

    @pytest.mark.parametrize("m", [3, 4, 5, 64, 1000, 10**6, 10**9, 2**40])
    def test_lambda0_matches_mpmath(self, m):
        # the root of g = f in the 50-digit oracle, right of lambda* for every
        # m >= 3, above m-1 for m in {3, 4} and below for m >= 5
        mo = pytest.importorskip("mp_oracle")
        lam0 = find_inflection(m).lambda0
        with mo.mp.workdps(mo.DPS):
            err = abs(lam0 - mo.mp.findroot(lambda lam: mo.g_minus_f(lam, m), mo.mp.mpf(lam0)))
        assert err <= 1e-12, f"error {float(err):.3e}"

    @pytest.mark.parametrize("m", [10**20, 10**48, 10**100, 10**155, 10**200, 10**250,
                                   10**300, 2**1000 - 1])
    def test_root_past_a_1e_12_bracket(self, m):
        # from m ~ 1e48 on, lambda0 > 1e4, where adjacent doubles lie more than
        # 1e-12 apart: the steps must stop there, at a root, not at a cap.  Past
        # m ~ 1.34e154, (m-1)(m-L) overflows: the Newton slope and sqrt(gamma)
        # must split its root, or the first slope is NaN and the steps stop at
        # lambda*.  x = 1 - gamma is 1/m at lambda* and only grows, so it never
        # underflows, up to the largest m the fast path takes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = find_inflection(m)
        assert 1.0 < res.lambda0 < m - 1.0
        resid = abs(g_value(res.lambda0, m) - f_value(res.lambda0, m))
        assert resid <= analysis._INFLECTION_RESIDUAL

    @pytest.mark.parametrize("m, most", [(m, 20) for m in (3, 4, 5, 10, 64, 10**3, 10**5, 10**6)]
                             + [(2**40, 10), (10**100, 20), (10**300, 70)])
    def test_evaluation_count(self, m, most):
        # Newton steps from lambda*, which rise to lambda0 (the concavity of
        # g - f), against 41 to 80 halvings of (1, m) by bisection.  ``most`` is
        # the bound of the bracketed search these steps replaced (it names the
        # cases); they are held to 12 at every m
        res = find_inflection(m)
        assert 0 < res.iterations <= min(most, 12)
        assert find_inflection(m) == res

    @pytest.mark.parametrize("m", [3, 4, 5, 64, 10**6, 2**40, 10**300])
    def test_residual_is_that_of_lambda0(self, m):
        # lambda0 is the last point evaluated, so its residual is exact, bit for bit
        res = find_inflection(m)
        assert res.residual == abs(g_value(res.lambda0, m) - f_value(res.lambda0, m))

    def test_m2_has_no_residual(self):
        assert find_inflection(2) == InflectionResult(None, 0)
        assert InflectionResult(None, 0).residual is None

    @pytest.mark.parametrize("m", [5, 11, 40])
    def test_r_second_changes_sign_at_lambda0(self, m):
        lam0 = find_inflection(m).lambda0
        assert r_second(lam0 - 1e-4, m) > 0.0
        assert r_second(lam0 + 1e-4, m) < 0.0


def check_named(report, name):
    return next(c for c in report.checks if c.name == name)


class TestUniqueness:
    # the check reports the supremum of (g - f)'', whose sign proves the count
    # (README, "The lemma"); tests/test_lemma.py counts the sign changes of R''
    # at 50 digits
    @pytest.mark.parametrize("m", [3, 4, 5, 40, 64])
    def test_exactly_one_sign_change(self, m):
        check = check_named(certify_proof(m), "unique_inflection")
        assert check.claim.startswith("exactly 1 sign change(s) of R''") and check.passed
        assert check.measured == -4.0 / (m * np.sqrt(m - 1.0)) and check.threshold == 0.0

    def test_m2_no_sign_change(self):
        check = check_named(certify_proof(2), "unique_inflection")
        assert check.claim.startswith("exactly 0 sign change(s) of R''") and check.passed
        assert check.measured == -2.0 and check.threshold == 0.0


DELTA_CHECKS = ["big_f_at_zero_closed_form", "big_f_at_zero_lower_bound",
                "big_f_above_minus_one", "a_increasing", "b_increasing"]


class TestInflectionInterval:
    def test_fails_when_the_root_lies_right_of_m_minus_one(self, monkeypatch):
        # at m = 5, g < f + 1/2 on all of (1, m): with no root the Newton steps
        # rise past m-1 before one leaves (lambda, m), and the check of lambda0
        # in (1, m-1) must fail
        f = analysis._f
        monkeypatch.setattr(analysis, "_f", lambda lam, m, xp: f(lam, m, xp) + 0.5)
        check = check_named(certify_proof(5), "inflection_in_open_interval")
        assert 4.0 < check.measured < 5.0
        assert not check.passed


class TestTangentRows:
    # lambda* = 4(m-1)/m, where (g - f)(lambda*) = -2h(m), h(m) = log(m-1) - 2 + 4/m:
    # negative for m >= 3, so lambda* < lambda0; find_inflection starts there
    @pytest.mark.parametrize("m", [3, 4, 5, 64, 10**6, 10**12, 2**40])
    def test_rows_measure_the_closed_forms(self, m):
        rep = certify_proof(m)
        left = check_named(rep, "tangent_left_of_inflection")
        h = np.log(m - 1.0) - 2.0 + 4.0 / m
        assert left.passed and left.threshold == 0.0
        assert left.measured == pytest.approx(-2.0 * h, rel=1e-13)
        slope = check_named(rep, "tangent_slope")
        assert slope.passed and slope.measured <= 1e-15

    def test_a_tangent_point_moved_right_fails(self, monkeypatch):
        monkeypatch.setattr(analysis, "_lam_star", lambda m: 4.0 * (m - 1) / m + 0.2)
        assert not check_named(certify_proof(3), "tangent_left_of_inflection").passed

    def test_a_start_past_lambda0_fails_the_residual(self, monkeypatch):
        # at m = 5, lambda0 ~ 3.88: started right of it, the first g - f >= 0
        # ends the steps there, far from the root
        monkeypatch.setattr(analysis, "_lam_star", lambda m: 4.2)
        rep = certify_proof(5)
        for name in ("tangent_left_of_inflection", "inflection_residual"):
            assert not check_named(rep, name).passed, name

    @pytest.mark.parametrize("m", [3, 5, 64])
    def test_a_wrong_slope_fails(self, monkeypatch, m):
        right = analysis._tangent_natural

        def skewed(m):
            lam_star, slope, value, degenerate = right(m)
            return lam_star, slope * (1.0 + 1e-9), value, degenerate

        monkeypatch.setattr(analysis, "_tangent_natural", skewed)
        assert not check_named(certify_proof(m), "tangent_slope").passed

    @pytest.mark.parametrize("m", [5, 64, 10**6])
    def test_no_root_stops_without_raising(self, monkeypatch, m):
        # g - f < 0 on all of (1, m) once f is raised: a step leaves (lambda, m)
        # and the steps stop there, with a residual the certifier fails
        f = analysis._f
        monkeypatch.setattr(analysis, "_f",
                            lambda lam, m, xp: f(lam, m, xp) + m / np.sqrt(m - 1.0) + 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = find_inflection(m)
        assert 4.0 * (m - 1) / m <= res.lambda0 < m
        assert res.residual > analysis._INFLECTION_RESIDUAL


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
TANGENT_CHECKS = ["tangent_left_of_inflection", "tangent_slope"]


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
        (3, BASE_CHECKS + G_CHECKS + ["unique_inflection"] + TANGENT_CHECKS),
        (5, BASE_CHECKS + G_CHECKS + ["g_at_m_minus_one_above_minus_two",
                                      "r_second_negative_at_m_minus_one",
                                      "unique_inflection"]
         + TANGENT_CHECKS + ["inflection_residual", "inflection_in_open_interval"]
         + DELTA_CHECKS),
    ])
    def test_check_names_and_order(self, m, names):
        # the order is the order of the checks printed by `rfunc certify`
        assert [c.name for c in certify_proof(m).checks] == names

    @pytest.mark.parametrize("m", [2**k for k in range(38, 54)]
                             + [2**53 - 1, 2**53 + 1, 10**17 + 1])
    def test_large_m_rejected_or_without_warnings(self, m):
        # up to 2**53 every row runs without a warning, and only the g(m-1)
        # identity may fail (it loses about m eps).  Past 2**53, m and m - 1
        # are not both doubles, so such an m is refused before any work.  No
        # float holds 2**53 + 1 or 10**17 + 1: the bound is compared as an int
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if m > 2**53:
                with pytest.raises(DomainError, match=f"m <= {2**53}, got {m}$"):
                    certify_proof(m)
            else:
                rep = certify_proof(m)
                assert rep.m == m
                assert {c.name for c in rep.checks if not c.passed} <= {
                    "g_at_m_minus_one_closed_form"}

    def test_json_schema(self):
        doc = json.loads(json.dumps(certify_proof(5).to_dict()))
        assert set(doc) == {"m", "checks", "overall"}
        assert doc["m"] == 5
        assert doc["overall"] is True
        for check in doc["checks"]:
            assert set(check) == {"name", "claim", "measured", "threshold", "pass"}
            assert isinstance(check["pass"], bool)
            assert isinstance(check["measured"], float)

    @pytest.mark.parametrize("m", [2, 3, 5, 64, 10 ** 6, 10 ** 12, 2**40, 2**53])
    def test_monotone_checks_measure_the_closed_forms(self, m):
        # each closed-form check reads its kernel at the analytic worst point
        # (README, "The lemma"), bit for bit, and that value is the formula of
        # the lemma's table; the two sign rows read the edge point of R''
        edge = 1.0 + 1e-6
        lam_g = 0.5 * (m + np.sqrt(m))
        got = {c.name: c.measured for c in certify_proof(m).checks}
        assert got["gamma_nonincreasing"] == gamma_first(edge, m)
        assert got["r_nondecreasing"] == r_first(edge, m, base="natural")
        assert got["f_convex"] == _f_second(m / 2, m, _MATH)
        formulas = {"f_convex": 4.0 / (m * np.sqrt(m - 1.0)),
                    "unique_inflection": -4.0 / (m * np.sqrt(m - 1.0))}
        if m >= 3:
            assert got["g_increasing"] == _g_first(lam_g, m, _MATH, *_wx(lam_g, m, _MATH))
            formulas["g_increasing"] = 4.0 / (m - 1.0)
        if m >= 5:
            g1 = _g_first(m - 1.0, m, _MATH, *_wx(m - 1.0, m, _MATH))
            assert got["a_increasing"] == a_value(0.0, m) * g1
            assert got["big_f_above_minus_one"] == big_f_value(0.0, m)
            formulas.update(a_increasing=m * m * (m - 2.0) / (8.0 * (m - 1.0) ** 3),
                            b_increasing=(m - 2.0) / (2.0 * (m - 1.0)),
                            big_f_above_minus_one=np.log((m - 2.0) / (2.0 * (m - 1.0))))
        for name, want in formulas.items():
            assert got[name] == pytest.approx(want, rel=1e-13), name


class TestCertificateCheck:
    # a row is a frozen dataclass whose own __init__ stores the five fields in one
    # __dict__ write; it keeps every behaviour of the generated one
    FIELDS = ["name", "claim", "measured", "threshold", "passed"]

    @pytest.fixture
    def row(self):
        return certify_proof(5).checks[0]

    def test_fields_are_frozen(self, row):
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.passed = False
        with pytest.raises(dataclasses.FrozenInstanceError):
            del row.measured
        assert dataclasses.asdict(row) == dict(zip(self.FIELDS, (
            row.name, row.claim, row.measured, row.threshold, row.passed)))

    def test_replace_copies_and_changes_only_its_field(self, row):
        same = dataclasses.replace(row)
        assert same is not row and same == row and hash(same) == hash(row)
        flipped = dataclasses.replace(row, passed=False)
        assert row.passed and flipped != row
        assert dataclasses.asdict(flipped) == {**dataclasses.asdict(row), "passed": False}

    def test_pickle_and_deepcopy_round_trip(self, row):
        for twin in (pickle.loads(pickle.dumps(row)), copy.deepcopy(row)):
            assert type(twin) is CertificateCheck
            assert twin == row and hash(twin) == hash(row) and vars(twin) == vars(row)

    def test_keyword_construction_and_repr(self, row):
        values = dataclasses.astuple(row)
        built = CertificateCheck(**dict(zip(self.FIELDS, values)))
        assert built == row == CertificateCheck(*values)
        assert repr(built) == "CertificateCheck({})".format(
            ", ".join(f"{k}={v!r}" for k, v in zip(self.FIELDS, values)))

    def test_signature_lists_the_five_fields(self):
        assert list(inspect.signature(CertificateCheck).parameters) == self.FIELDS
        assert [f.name for f in dataclasses.fields(CertificateCheck)] == self.FIELDS

    def test_report_checks_stay_an_assignable_list(self):
        rep = certify_proof(5)
        assert type(rep.checks) is list
        rep.checks = rep.checks[:1]
        assert rep.to_dict()["checks"] == certify_proof(5).to_dict()["checks"][:1]


class TestRowsAreThePublicFunctions:
    # certify_proof reads core's kernels, not the public functions, so each row
    # is held to the public functions at its point, bit for bit: what it
    # certifies is what users call
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 64, 10**3, 10**6, 10**12, 2**40, 2**53])
    def test_rows_equal_the_public_functions(self, m):
        rep = certify_proof(m)
        got = {c.name: c.measured for c in rep.checks}
        want = {"gamma_at_one": abs(gamma_value(1.0, m) - 1.0),
                "gamma_at_m": abs(gamma_value(float(m), m) - 1.0 / m),
                "r_at_one": abs(r_value(1.0, m)),
                "r_at_m": abs(r_value(float(m), m) - np.log2(m)),
                "r_second_positive_left_edge": r_second(1.0 + 1e-6, m),
                "f_endpoints": max(abs(f_value(1.0, m) + 2.0),
                                   abs(f_value(m - 1.0, m) + 2.0))}
        if m >= 3:
            log_ratio = np.log((m - 2.0) / (2.0 * (m - 1.0)))
            gm1, rpp_m1 = g_value(m - 1.0, m), r_second(m - 1.0, m)
            tangent = find_tangent(m, base="natural")
            want.update(
                g_at_m_minus_one_closed_form=abs(gm1 - 2.0 * log_ratio),
                r_second_at_m_minus_one_closed_form=abs(
                    rpp_m1 + (log_ratio + 1.0) / (m - 1.0)),
                tangent_slope=abs(r_first(tangent.lambda_star, m, base="natural")
                                  - tangent.slope))
        if m >= 5:
            f0, res = big_f_value(0.0, m), find_inflection(m)
            want.update(g_at_m_minus_one_above_minus_two=gm1,
                        r_second_negative_at_m_minus_one=rpp_m1,
                        big_f_at_zero_closed_form=abs(f0 - log_ratio),
                        big_f_at_zero_lower_bound=f0, big_f_above_minus_one=f0,
                        inflection_residual=res.residual,
                        inflection_in_open_interval=res.lambda0)
        for name, value in want.items():
            assert got[name] == value, name
        for c in rep.checks:
            assert type(c.passed) is bool and type(c.measured) is float, c.name


# each kernel certify_proof reads for a sign or identity check, the checks that
# read it, and a value on the wrong side of their threshold: a derivative's or
# g's sign flipped, R shifted by 1e-9, f stretched tenfold, A set to 0 (log A =
# -inf), B doubled and F mirrored through -1.  find_inflection reads _g, _f and
# _g_first too; with a wrong g - f or a wrong slope the steps stop at lambda*,
# far from the root, which lies in (1, m-1) too: inflection_in_open_interval
# moves but still passes.  A wrong g moves g(m-1) and R''(m-1) without taking
# them past -2 and 0 (MOVED)
F_CHECKS = ("big_f_at_zero_closed_form", "big_f_at_zero_lower_bound", "big_f_above_minus_one")
WRONG = {"_gp": (("gamma_nonincreasing", "r_nondecreasing", "tangent_slope"), np.negative),
         "_g": (("r_nondecreasing", "r_second_positive_left_edge",
                 "g_at_m_minus_one_closed_form", "r_second_at_m_minus_one_closed_form",
                 "tangent_left_of_inflection", "tangent_slope", "inflection_residual"),
                np.negative),
         "_r": (("r_at_one", "r_at_m"), lambda r: r + 1e-9),
         "_rpp": (("r_second_positive_left_edge", "r_second_at_m_minus_one_closed_form",
                   "r_second_negative_at_m_minus_one"), np.negative),
         "_f": (("f_endpoints", "tangent_left_of_inflection", "inflection_residual"),
                lambda f: 10.0 * f),
         "_f_second": (("f_convex",), np.negative),
         "_g_first": (("g_increasing", "inflection_residual", "a_increasing"), np.negative),
         "_a": ((*F_CHECKS, "a_increasing"), lambda a: 0.0 * a),
         "_b": (F_CHECKS, lambda b: 2.0 * b),
         "_big_f": (F_CHECKS, lambda f: -2.0 - f)}
MOVED = {"_g": ("g_at_m_minus_one_above_minus_two", "r_second_negative_at_m_minus_one",
                "inflection_in_open_interval"),
         "_f": ("inflection_in_open_interval",),
         "_g_first": ("inflection_in_open_interval",)}
# at m = 10**6 the clean report already fails g_at_m_minus_one_closed_form (g(m-1)
# loses about m eps), so a wrong _g cannot fail it there: _g is held at 2, 3 and 5
CORRUPTED = [(m, name) for m in (2, 3, 5, 10**6) for name in WRONG
             if (m, name) != (10**6, "_g")]


class TestCorruptedRows:
    @pytest.mark.parametrize("m, name", CORRUPTED)
    def test_only_the_checks_that_read_it_fail(self, monkeypatch, m, name):
        readers, wrong = WRONG[name]
        clean = certify_proof(m).checks
        right = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda *args, **kw: wrong(right(*args, **kw)))
        got = certify_proof(m).checks
        assert [c.name for c in got] == [c.name for c in clean]
        for bad, good in zip(got, clean):
            if bad.name in readers:
                assert good.passed and not bad.passed, bad.name
            elif bad.name in MOVED.get(name, ()):
                assert bad.passed, bad.name
            else:
                assert bad == good, bad.name

    # at large m every corrupted kernel still fails a row the clean report
    # passes, though not always each of its readers: an absolute 1e-12 bound on
    # R''(m-1) ~ 0.31/m passes a negated _rpp from 10**12 up.  The clean report
    # passes at 2**40 and 2**53; at 10**12 it fails the g(m-1) identity alone
    @pytest.mark.parametrize("m", [10**12, 2**40, 2**53])
    @pytest.mark.parametrize("name", WRONG)
    def test_large_m_reports_keep_their_teeth(self, monkeypatch, m, name):
        wrong, clean = WRONG[name][1], certify_proof(m)
        assert clean.overall == (m != 10**12)
        right = getattr(analysis, name)
        monkeypatch.setattr(analysis, name, lambda *args, **kw: wrong(right(*args, **kw)))
        got = certify_proof(m)
        assert not got.overall
        assert any(good.passed and not bad.passed for bad, good in zip(got.checks, clean.checks))


class TestCallIndependence:
    # the report does not depend on what ran before it, in this thread or
    # another, and a warm call faults no page

    def test_interleaved_calls_match_first_calls(self):
        ms = [2, 3, 5, 64, 10**6, 10**12, 2**40]
        first = {m: certify_proof(m).to_dict() for m in ms}
        for m in ms[::2] + ms[::-1] + ms[1::2]:
            assert certify_proof(m).to_dict() == first[m], m

    def test_concurrent_threads_match_serial_runs(self):
        ms = {0: [5, 64, 1000, 7, 2**40], 1: [3, 10**6, 40, 2, 11]}
        serial = {k: [certify_proof(m).to_dict() for m in v] for k, v in ms.items()}
        got = {0: [], 1: []}
        start = threading.Barrier(2, timeout=60)

        def work(k):
            start.wait()
            for _ in range(3):
                got[k].extend(certify_proof(m).to_dict() for m in ms[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in ms]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in ms:
            assert got[k] == serial[k] * 3

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="minor page faults are counted as on Linux")
    def test_warm_calls_fault_no_pages(self):
        # a warm call allocates no memory that the heap must fault back in: a
        # certificate is a few scalar kernel calls and a list of rows.  A fresh
        # interpreter, since one whose heap other tests have grown hides that;
        # the dimensions are the benchmark's certify_sweep, after a warm-up pass
        script = ("import resource\n"
                  "from rfunc import certify_proof\n"
                  "dims = list(range(2, 65)) + [10**3, 10**4, 10**5, 10**6]\n"
                  "for m in dims:\n"
                  "    certify_proof(m)\n"
                  "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                  "for m in dims:\n"
                  "    certify_proof(m)\n"
                  "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
                  "print(faults / len(dims))\n")
        src = os.path.dirname(os.path.dirname(analysis.__file__))
        done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        per_call = float(done.stdout)
        assert per_call < 20, f"{per_call:.1f} minor page faults per call"


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
