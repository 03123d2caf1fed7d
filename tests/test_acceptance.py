"""Acceptance suite: one test per certification criterion.

Each test prints a single pass/fail line (run pytest with -s to see them all)
and asserts the criterion at its stated tolerance.

Criterion 3 checks that R'' diverges to +infinity at lambda = 1, at its true
rate.  Near the endpoint R''(1+t) = A_m(t) + O(t log(1/t)) with
A_m(t) = [log(1/t) + log(2(m-1)) - 1]/(m-1), so the growth is logarithmic.
An earlier form of the check demanded R''(1 + 1e-6) > 1e3; the exact value
there is 13.5 for m = 2 and 0.28 for m = 64, and R'' = 1e3 would need
lambda - 1 of about 1e-434 at m = 2, so that threshold was never a property
of R.
"""

import numpy as np
import pytest

from conftest import (central_diff, fd_step, hull_oracle, random_product_pure,
                      random_unitary)

import rfunc as rf


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_endpoint_identities():
    worst = 0.0
    for m in range(2, 65):
        worst = max(worst,
                    abs(rf.r_value(1.0, m)),
                    abs(rf.r_value(float(m), m) - np.log2(m)),
                    abs(rf.gamma_value(1.0, m) - 1.0),
                    abs(rf.gamma_value(float(m), m) - 1.0 / m))
    ok = worst <= 1e-12
    report(1, ok, f"worst endpoint error {worst:.3e}")
    assert ok


def test_criterion_2_closed_forms():
    worst = 0.0
    signs_ok = True
    for m in range(5, 65):
        log_ratio = np.log((m - 2.0) / (2.0 * (m - 1.0)))
        rpp = rf.r_second(float(m - 1), m)
        g = rf.g_value(float(m - 1), m)
        f0 = rf.big_f_value(0.0, m)
        worst = max(worst,
                    abs(rpp + (log_ratio + 1.0) / (m - 1.0)),
                    abs(g - 2.0 * log_ratio),
                    abs(rf.f_value(1.0, m) + 2.0),
                    abs(rf.f_value(float(m - 1), m) + 2.0),
                    abs(f0 - log_ratio))
        signs_ok &= (rpp < 0.0 and g > -2.0
                     and f0 >= np.log(3.0 / 8.0) - 1e-12 and f0 > -1.0)
    ok = worst <= 1e-12 and signs_ok
    report(2, ok, f"worst closed-form error {worst:.3e}, inequalities {signs_ok}")
    assert ok


def test_criterion_3_divergence_threshold():
    # R'' diverges at 1 like log(1/(lambda-1))/(m-1): gamma''(1) = -1/(2(m-1))
    # and g(1+t) = 2 log t - log(4(m-1)^2) + O(t) give
    # R''(1+t) = A_m(t) + O(t log(1/t)).  A_m grows without bound, so matching
    # it as t shrinks asserts the divergence itself.
    eps = np.finfo(float).eps
    ts = (1.0 + 10.0 ** -np.arange(2, 15)) - 1.0   # exact offsets of doubles
    ok = True
    ratios = []
    at_1e6 = []
    for m in range(2, 65):
        values = rf.r_second(1.0 + ts, m)
        asym = (np.log(1.0 / ts) + np.log(2.0 * (m - 1.0)) - 1.0) / (m - 1.0)
        bound = np.maximum(ts * (1.0 + np.log(1.0 / ts)),
                           4.0 * eps * np.abs(values))
        ok &= bool(np.all(values > 0.0) and np.all(np.diff(values) > 0.0))
        ratios.append(np.abs(values - asym) / bound)
        at_1e6.append(rf.r_second(1.0 + 1e-6, m))
    ok &= bool(np.all(np.concatenate(ratios) <= 1.0))
    worst = float(np.max(ratios))   # nan if any R'' was nan
    report(3, ok, f"R''(1+1e-6) in [{min(at_1e6):.4f}, {max(at_1e6):.4f}] "
                  f"over m in 2..64; worst |R'' - A_m| / bound {worst:.3f}")
    assert ok, (f"R'' is not positive and increasing towards 1, or departs "
                f"from its asymptote: worst error / bound {worst:.3f}")


def test_criterion_4_uniqueness_and_inflection():
    ok = True
    for m in range(2, 65):
        # (g - f)'' < 0 on (1, m) leaves one sign change of R'' (none at m = 2)
        unique = next(c for c in rf.certify_proof(m).checks
                      if c.name == "unique_inflection")
        count = 0 if m == 2 else 1
        ok &= (unique.passed and unique.claim.startswith(f"exactly {count} sign change(s)")
               and unique.measured == -4.0 / (m * np.sqrt(m - 1.0)))
    for m in range(5, 65):
        res = rf.find_inflection(m)
        resid = abs(rf.g_value(res.lambda0, m) - rf.f_value(res.lambda0, m))
        ok &= resid < 1e-10 and 1.0 < res.lambda0 < m - 1.0
    report(4, ok, "(g - f)'' bounds and g=f residuals over m in 2..64")
    assert ok


def test_criterion_5_derivative_consistency():
    pairs = [
        (lambda x, m: rf.gamma_value(x, m), lambda x, m: rf.gamma_first(x, m)),
        (lambda x, m: rf.gamma_first(x, m), lambda x, m: rf.gamma_second(x, m)),
        (lambda x, m: rf.r_value(x, m, base="natural"),
         lambda x, m: rf.r_first(x, m, base="natural")),
        (lambda x, m: rf.r_first(x, m, base="natural"),
         lambda x, m: rf.r_second(x, m)),
    ]
    worst = 0.0
    for m in range(2, 17):
        grid = np.linspace(1.0 + 1e-4, m - 1e-4, 1000)
        h = fd_step(grid, m)
        for fn, dfn in pairs:
            fd = central_diff(lambda x: fn(x, m), grid, h)
            exact = dfn(grid, m)
            err = np.max(np.abs(fd - exact) / np.maximum(np.abs(exact), 1e-2))
            worst = max(worst, float(err))
    ok = worst < 1e-6
    report(5, ok, f"worst relative finite-difference error {worst:.3e}")
    assert ok


def test_criterion_6_hull_correctness():
    ok = True
    for m in range(2, 41):
        grid = np.linspace(1.0, m, 10_000)
        hv = rf.hull_value(grid, m)
        ok &= bool(np.all(hv <= rf.r_value(grid, m) + 1e-12))
        ok &= bool(np.all(np.diff(hv, 2) >= -1e-9))
        ok &= abs(rf.find_tangent(m).lambda_star - 4.0 * (m - 1.0) / m) < 1e-8
    sup = 0.0
    for m in range(2, 13):
        oracle = hull_oracle(m, 100_000)
        xs = np.linspace(1.0, m, 50_000)
        sup = max(sup, float(np.max(np.abs(oracle(xs) - rf.hull_value(xs, m)))))
    ok &= sup < 1e-6
    report(6, ok, f"oracle sup-distance {sup:.3e}; tangent/convexity checks")
    assert ok


def test_criterion_7_isotropic_spot_values():
    worst = abs(rf.isotropic_eof(2, 1.0) - 1.0)
    for d in range(2, 9):
        worst = max(worst,
                    abs(rf.isotropic_eof(d, 1.0 / d)),
                    abs(rf.isotropic_eof(d, 1.0) - np.log2(d)))
    ok = worst <= 1e-9
    report(7, ok, f"worst spot-value error {worst:.3e}")
    assert ok


def test_criterion_8_lower_bound_consistency():
    ok = True
    for m in (2, 3, 4):
        bound = rf.eof_lower_bound(rf.max_entangled_state(m))
        ok &= abs(bound - np.log2(m)) <= 1e-9
    rng = np.random.default_rng(42)
    for _ in range(50):
        rho = rf.validate_state(random_product_pure(rng, 2, 3), (2, 3))
        est = rf.lambda_of_state(rho)
        ok &= abs(est.ppt_norm - 1.0) <= 1e-9 and abs(est.ccnr_norm - 1.0) <= 1e-9
    worst_lu = 0.0
    for m, n in ((2, 2), (3, 3)):
        for _ in range(50):
            g = rng.normal(size=(m * n, m * n)) + 1j * rng.normal(size=(m * n, m * n))
            rho = rf.validate_state((g @ g.conj().T) / np.trace(g @ g.conj().T).real,
                                    (m, n))
            w = np.kron(random_unitary(rng, m), random_unitary(rng, n))
            rotated = rf.validate_state(w @ rho.matrix @ w.conj().T, (m, n))
            worst_lu = max(worst_lu, abs(rf.eof_lower_bound(rotated)
                                         - rf.eof_lower_bound(rho)))
    ok &= worst_lu <= 1e-8
    report(8, ok, f"worst local-unitary deviation {worst_lu:.3e}")
    assert ok


def test_criterion_9_proof_identity():
    # R''(m-1+delta) * (m-1+delta)(1-delta) + 1 = -F(delta): the exact
    # reformulation behind "R'' has no zero right of m-1 unless F = -1".
    worst = 0.0
    signs_ok = True
    for m in range(5, 33):
        deltas = np.linspace(1e-3, 1.0 - 1e-3, 1000)
        lam = m - 1.0 + deltas
        lhs = rf.r_second(lam, m) * lam * (m - lam) + 1.0
        big_f = rf.big_f_value(deltas, m)
        rel = np.abs(lhs + big_f) / np.maximum(1.0, np.abs(big_f))
        worst = max(worst, float(np.max(rel)))
        signs_ok &= bool(np.all(np.sign(rf.r_second(lam, m))
                                == np.sign(-(big_f + 1.0))))
    ok = worst <= 1e-9 and signs_ok
    report(9, ok, f"worst identity relative error {worst:.3e}, signs {signs_ok}")
    assert ok
