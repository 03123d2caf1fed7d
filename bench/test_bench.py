"""Tests of the benchmark itself: its checkers reject wrong values, its inputs repeat.

    python3 -m pytest -q bench
"""

import dataclasses
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import rfunc  # noqa: E402
import rfunc.cli  # noqa: E402
import reference as ref  # noqa: E402
import states  # noqa: E402
import workloads as wls  # noqa: E402

SMALL_MIX = [("isotropic", 3, 3), ("pure", 2, 4), ("product", 3, 2), ("mixed", 4, 3)]


def small_files(seed, directory, api=rfunc):
    states.write("state_files", seed, directory, mix=SMALL_MIX)
    return wls.StateFiles(directory, api)


def small_matrices(seed, directory, api=rfunc):
    states.write("state_matrices", seed, directory, mix=SMALL_MIX)
    return wls.StateMatrices(directory, api)


def perturbed(value, rel=1e-7):
    return value * (1 + rel) if value else 1e-9


# ----- inputs repeat for a seed -----

def test_eof_inputs_repeat_for_a_seed():
    a, b, c = wls.EofPoints(3), wls.EofPoints(3), wls.EofPoints(4)
    first = [a.prepare() for _ in range(3)]
    assert first == [b.prepare() for _ in range(3)]
    assert first != [c.prepare() for _ in range(3)]


def test_eof_dimensions_never_repeat_and_composition_is_fixed():
    wl = wls.EofPoints(5)
    batches = [wl.prepare() for _ in range(200)]
    dims = [batch[0][1][0] for batch in batches]
    assert len(set(dims)) == len(dims) and min(dims) >= 3
    for batch in batches:
        assert len(batch) == wl.ops_per_batch
        d = batch[0][1][0]
        star = 4.0 * (d - 1) / d
        hull = [args[0] for fn, args in batch if fn == "hull_value"]
        assert sum(lam <= star for lam in hull) == wls.EOF_PER_FUNCTION // 2
        fids = [args[1] for fn, args in batch if fn == "isotropic_eof"]
        assert sum(f <= 1.0 / d for f in fids) == wls.EOF_SEPARABLE_FIDELITIES


def test_certify_inputs_repeat_for_a_seed():
    a, b = wls.CertifySweep(9), wls.CertifySweep(9)
    assert [a.prepare() for _ in range(3)] == [b.prepare() for _ in range(3)]
    assert sorted(a.prepare()) == sorted(wls.CERT_DIMS + [10 ** 6])


def test_state_inputs_repeat_for_a_seed(tmp_path):
    for d in "abcde":
        (tmp_path / d).mkdir()
    a, b, c = (small_matrices(seed, tmp_path / d) for seed, d in ((2, "a"), (2, "b"), (3, "c")))
    assert all(np.array_equal(x, y) for x, y in zip(a.matrices, b.matrices))
    assert not all(np.array_equal(x, y) for x, y in zip(a.matrices, c.matrices))
    fa, fb = small_files(2, tmp_path / "d"), small_files(2, tmp_path / "e")
    assert [Path(p).read_text() for p in fa.paths] == [Path(p).read_text() for p in fb.paths]


def test_state_workloads_are_made_in_a_separate_process(tmp_path):
    wl = wls.make("state_matrices", 4, rfunc, tmp_path)
    assert wl.ops_per_batch == len(states.MIXES["state_matrices"])
    assert max(x.shape[0] for x in wl.matrices) == 576


# ----- references -----

def test_own_norms_match_closed_forms():
    rng = np.random.default_rng(0)
    for kind, m, n in [("isotropic", 4, 4), ("pure", 3, 5), ("product", 2, 3)]:
        for _ in range(5):
            _, rec = states.record(rng, kind, m, n)
            assert rec["closed_ok"], (kind, m, n)


def test_index_code_agrees_with_a_reshape():
    rng = np.random.default_rng(1)
    m, n = 2, 3
    mat = rng.normal(size=(m * n, m * n)) + 1j * rng.normal(size=(m * n, m * n))
    pt = mat.reshape(m, n, m, n).transpose(0, 3, 2, 1).reshape(m * n, m * n)
    re = mat.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)
    assert np.array_equal(ref.partial_transpose_ref(mat, m, n), pt)
    assert np.array_equal(ref.realign_ref(mat, m, n), re)


def test_hull_reference_is_continuous_at_the_tangent():
    for m in (3, 7, 1000):
        star = 4.0 * (m - 1) / m
        assert ref.hull_ref(star * (1 - 1e-12), m) == pytest.approx(ref.hull_ref(star, m), rel=1e-10)


# ----- each checker rejects a perturbed value -----

def test_eof_checker_passes_rfunc_and_rejects_each_perturbed_kind():
    wl = wls.EofPoints(11)
    batch = wl.prepare()
    outputs = wl.run(rfunc, batch)
    failed, errors = wl.check(batch, outputs)
    assert (failed, errors) == (len(wls.EOF_PROBES), [])
    seen = set()
    for i, (fn, args) in enumerate(batch):
        key = (fn, "probe" if (fn, args) in wls.EOF_PROBES else "")
        if key in seen:
            continue
        seen.add(key)
        bad = list(outputs)
        if fn == "find_tangent":
            bad[i] = dataclasses.replace(outputs[i], lambda_star=outputs[i].lambda_star * (1 + 1e-7))
        elif key[1]:
            bad[i] = ref.r_ref(*args)   # the exact value is accepted: a fix clears the failure
            assert wl.check(batch, bad)[0] == failed - 1
            continue
        else:
            bad[i] = perturbed(outputs[i])
        n_failed, errs = wl.check(batch, bad)
        assert n_failed == failed + 1 and len(errs) == 1, (fn, args)
    assert {k[0] for k in seen} == {"find_tangent", "r_value", "r_first", "r_second",
                                    "hull_value", "isotropic_eof"}


def test_eof_checker_counts_a_raised_error():
    wl = wls.EofPoints(12)
    batch = wl.prepare()
    outputs = wl.run(rfunc, batch)
    outputs[5] = ValueError("boom")
    failed, errors = wl.check(batch, outputs)
    assert failed == len(wls.EOF_PROBES) + 1 and len(errors) == 1


def _report(m):
    return rfunc.certify_proof(m)


def test_certify_checker_rejects_a_moved_lambda0_and_a_new_failure():
    wl = wls.CertifySweep(1)
    reps = [_report(5), _report(2), _report(10 ** 6)]
    assert wl.check([5, 2, 10 ** 6], reps) == (1, [])
    moved = _report(5)
    moved.checks = [dataclasses.replace(c, measured=c.measured * 1.001)
                    if c.name == "inflection_in_open_interval" else c for c in moved.checks]
    failed, errors = wl.check([5], [moved])
    assert failed == 1 and "keeps its sign" in errors[0]
    broken = _report(7)
    broken.checks[0] = dataclasses.replace(broken.checks[0], passed=False)
    failed, errors = wl.check([7], [broken])
    assert failed == 1 and "failed checks" in errors[0]


def test_certify_checker_rejects_another_failure_at_the_known_dimension():
    wl = wls.CertifySweep(1)
    rep = _report(10 ** 6)
    rep.checks[0] = dataclasses.replace(rep.checks[0], passed=False)
    failed, errors = wl.check([10 ** 6], [rep])
    assert failed == 1 and len(errors) == 1


def test_state_matrix_checker_rejects_a_perturbed_bound(tmp_path):
    wl = small_matrices(5, tmp_path)
    batch = wl.prepare()
    outputs = wl.run(rfunc, batch)
    assert wl.check(batch, outputs) == (0, [])
    for i in range(len(batch)):
        bad = list(outputs)
        bad[i] = outputs[i] + 1e-9
        failed, errors = wl.check(batch, bad)
        assert failed == 1 and len(errors) == 1


def test_state_matrix_checker_rejects_perturbed_norms(tmp_path):
    def skewed(rho):
        est = rfunc.lambda_of_state(rho)
        return dataclasses.replace(est, ccnr_norm=est.ccnr_norm * (1 + 1e-8))

    api = types.SimpleNamespace(**vars(rfunc))
    api.lambda_of_state = skewed
    wl = small_matrices(5, tmp_path, api)
    batch = wl.prepare()
    failed, errors = wl.check(batch, wl.run(rfunc, batch))
    assert failed == len(batch) and all("norms" in e for e in errors)


def test_state_file_checker_rejects_a_perturbed_printout(tmp_path):
    wl = small_files(6, tmp_path)
    batch = wl.prepare()
    outputs = wl.run(rfunc, batch)
    assert all(code == 0 for code, _ in outputs)
    assert wl.check(batch, outputs) == (0, [])
    code, text = outputs[0]
    bad = [(code, repr(perturbed(float(text), 1e-6)))] + outputs[1:]
    assert wl.check(batch, bad)[0] == 1
    bad = [(2, "")] + outputs[1:]
    assert wl.check(batch, bad)[0] == 1


# ----- the metrics match BENCHMARK.json -----

def test_traced_metrics_are_the_per_layer_list():
    import run
    import tracing

    spec = __import__("json").loads((HERE.parent / "BENCHMARK.json").read_text())
    wl = wls.EofPoints(1)
    tracer = tracing.Tracer(rfunc, run.MAX_SPANS)
    untraced, traced, attempted, failed, errors = run.measure(wl, rfunc, 0.0, tracer)
    assert errors == [] and failed * wl.ops_per_batch == attempted * len(wls.EOF_PROBES)
    assert all(getattr(ns, attr) is orig for ns, attr, orig, _ in tracer.bindings)
    names = set(tracer.metrics(traced, wl.ops_per_batch, untraced)) | {
        "setup.import_numpy_s", "setup.import_rfunc_s"}
    assert names == {m["name"] for m in spec["per_layer"]}
