import io
import json

import numpy as np
import pytest

from conftest import random_density, random_product_pure, random_unitary

from rfunc import (
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    NotHermitianError,
    NotPositiveError,
    StateValidationError,
    TraceError,
    dump_state,
    eof_lower_bound,
    hull_value,
    isotropic_eof,
    isotropic_state,
    lambda_of_state,
    load_state,
    max_entangled_state,
    partial_transpose,
    realign,
    trace_norm,
    validate_state,
)


class TestValidateState:
    def test_maximally_mixed_ok(self):
        rho = validate_state(np.eye(4) / 4.0, (2, 2))
        assert rho.dims == (2, 2)
        assert rho.m == 2

    def test_trace_error(self):
        with pytest.raises(TraceError):
            validate_state(np.eye(4) / 8.0, (2, 2))

    def test_positivity_error(self):
        with pytest.raises(NotPositiveError):
            validate_state(np.diag([1.0, -0.1, 0.05, 0.05]), (2, 2))

    def test_hermiticity_error(self):
        mat = np.eye(4, dtype=complex) / 4.0
        mat[0, 1] = 0.5j
        with pytest.raises(NotHermitianError):
            validate_state(mat, (2, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            validate_state(np.eye(4) / 4.0, (2, 3))

    def test_nonfinite_rejected(self):
        mat = np.eye(4, dtype=complex) / 4.0
        mat[2, 2] = np.nan
        with pytest.raises(StateValidationError):
            validate_state(mat, (2, 2))

    def test_tiny_negative_eigenvalue_tolerated(self):
        mat = np.diag([0.5, 0.5 + 1e-12, -1e-12, 0.0])
        assert validate_state(mat, (2, 2)).m == 2

    @pytest.mark.parametrize("dims", [
        (2.7, 2), [2, 2.5], ("2", "2"), (b"2", 2), (True, 2), (2, np.bool_(True)),
        (np.nan, 2), (1, 4), (2, 2, 1), (2,), 4, None, (10**400, 2), (10**5000, 2),
        (2, 2, 10**5000), b"\x02\x02", bytearray(b"\x02\x03"), "22"])
    def test_bad_dims_rejected(self, dims):
        # an int past 4300 digits cannot be printed: the message must not try
        with pytest.raises(DimensionMismatchError, match="two integers >= 2"):
            validate_state(np.eye(4) / 4.0, dims)

    @pytest.mark.parametrize("dims", [(2.0, 2), (np.int64(2), 2), np.array([2, 2])])
    def test_integral_dims_accepted(self, dims):
        rho = validate_state(np.eye(4) / 4.0, dims)
        assert rho.dims == (2, 2)
        assert all(type(d) is int for d in rho.dims)


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(7)
        rho = validate_state(random_density(rng, 2, 3), (2, 3))
        pt = DensityMatrix((2, 3), partial_transpose(rho))
        assert np.array_equal(partial_transpose(pt), rho.matrix)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(8)
        rho = validate_state(random_density(rng, 3, 3), (3, 3))
        pt = partial_transpose(rho)
        assert abs(np.trace(pt).real - 1.0) < 1e-12
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12

    def test_product_state(self):
        rng = np.random.default_rng(9)
        a = random_density(rng, 1, 2)
        b = random_density(rng, 1, 3)
        rho = validate_state(np.kron(a, b), (2, 3))
        assert np.allclose(partial_transpose(rho), np.kron(a, b.T), atol=1e-14)

    def test_max_entangled_eigenvalues(self):
        evals = np.linalg.eigvalsh(partial_transpose(max_entangled_state(2)))
        assert np.allclose(np.sort(evals), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


class TestRealign:
    def test_shape(self):
        rng = np.random.default_rng(10)
        rho = validate_state(random_density(rng, 2, 3), (2, 3))
        assert realign(rho).shape == (4, 9)

    def test_maximally_mixed(self):
        rho = validate_state(np.eye(4) / 4.0, (2, 2))
        svals = np.linalg.svd(realign(rho), compute_uv=False)
        assert np.allclose(np.sort(svals), [0.0, 0.0, 0.0, 0.5], atol=1e-12)
        assert trace_norm(realign(rho)) == pytest.approx(0.5, abs=1e-12)

    def test_max_entangled(self):
        assert trace_norm(realign(max_entangled_state(2))) == pytest.approx(
            2.0, abs=1e-12)

    def test_product_pure_states_have_unit_norms(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rho = validate_state(random_product_pure(rng, 2, 3), (2, 3))
            assert trace_norm(realign(rho)) == pytest.approx(1.0, abs=1e-9)
            assert trace_norm(partial_transpose(rho)) == pytest.approx(
                1.0, abs=1e-9)


class TestTraceNorm:
    def test_identity(self):
        assert trace_norm(np.eye(5)) == pytest.approx(5.0, abs=1e-12)

    def test_sign_indefinite_diagonal(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-14)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            u = random_unitary(rng, 6)
            assert trace_norm(u @ mat) == pytest.approx(trace_norm(mat),
                                                        abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            b = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9

    def test_nonfinite_rejected(self):
        # a NaN imaginary part must raise, not be dropped by the real-part test
        for bad in (np.inf, complex(0.0, np.nan)):
            with pytest.raises(ValueError):
                trace_norm(np.array([[bad, 0.0], [0.0, 1.0]]))


class TestLambdaOfState:
    def test_max_entangled(self):
        for d in (2, 3, 4):
            est = lambda_of_state(max_entangled_state(d))
            assert est.ppt_norm == pytest.approx(d, abs=1e-9)
            assert est.ccnr_norm == pytest.approx(d, abs=1e-9)
            assert est.lam == pytest.approx(d, abs=1e-9)

    def test_product_pure(self):
        rng = np.random.default_rng(14)
        rho = validate_state(random_product_pure(rng, 3, 3), (3, 3))
        assert lambda_of_state(rho).lam == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed_clamped(self):
        rho = validate_state(np.eye(4) / 4.0, (2, 2))
        est = lambda_of_state(rho)
        assert est.ccnr_norm < 1.0
        assert est.lam == 1.0

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 3), (5, 5)])
    @pytest.mark.parametrize("kind", ["mixed", "pure", "product"])
    def test_ppt_norm_equals_singular_value_sum(self, kind, dims):
        # the partial-transpose norm comes from eigvalsh of the Hermitian
        # rho^T_B; it must agree with the sum of its singular values
        m, n = dims
        rng = np.random.default_rng(m * 10 + n)
        if kind == "mixed":
            mat = random_density(rng, m, n)
        elif kind == "pure":
            psi = rng.normal(size=m * n) + 1j * rng.normal(size=m * n)
            psi /= np.linalg.norm(psi)
            mat = np.outer(psi, psi.conj())
        else:
            mat = random_product_pure(rng, m, n)
        rho = validate_state(mat, dims)
        svd_sum = np.linalg.svd(partial_transpose(rho), compute_uv=False).sum()
        assert abs(lambda_of_state(rho).ppt_norm - svd_sum) <= 1e-13 * svd_sum


def _real_states():
    """Real-valued states: isotropic for d = 2..24, and seeded mixed and pure."""
    rng = np.random.default_rng(18)
    for d in range(2, 25):
        yield isotropic_state(d, rng.uniform(0.0, 1.0))
    for m, n in ((2, 2), (2, 3), (3, 3), (4, 3), (5, 5)):
        g = rng.normal(size=(m * n, 2))
        yield validate_state(g @ g.T / np.sum(g * g), (m, n))
        psi = rng.normal(size=m * n)
        yield validate_state(np.outer(psi, psi) / (psi @ psi), (m, n))


class TestRealDrivers:
    """States with zero imaginary parts go to LAPACK's real drivers."""

    @pytest.mark.parametrize("imag, dtype", [(0.0, np.float64), (1e-3, np.complex128)])
    def test_driver_follows_imaginary_part(self, monkeypatch, imag, dtype):
        seen = []
        for name in ("eigvalsh", "norm"):
            fn = getattr(np.linalg, name)

            def spy(a, *args, _fn=fn):
                seen.append(a.dtype)
                return _fn(a, *args)
            monkeypatch.setattr(np.linalg, name, spy)
        mat = isotropic_state(3, 0.8).matrix.copy()
        mat[0, 1] += 1j * imag
        mat[1, 0] -= 1j * imag
        rho = validate_state(mat, (3, 3))
        eof_lower_bound(rho)
        trace_norm(mat)
        assert rho.matrix.dtype == np.complex128
        assert seen == [dtype] * 4

    def test_isotropic_ppt_norm_closed_form(self):
        # the real path stays within the complex path's worst error of the
        # closed form ||rho^T_B||_1 = max(1, dF)
        rng = np.random.default_rng(19)
        real_err, complex_err = [], []
        for d in range(2, 25):
            for fid in rng.uniform(0.0, 1.0, size=2):
                rho = isotropic_state(d, fid)
                exact = max(1.0, d * fid)
                pt = partial_transpose(rho)
                assert pt.dtype == np.complex128
                complex_norm = np.abs(np.linalg.eigvalsh(pt)).sum()
                complex_err.append(abs(complex_norm - exact))
                real_err.append(abs(lambda_of_state(rho).ppt_norm - exact))
        assert max(real_err) <= max(complex_err)

    def test_agrees_with_complex_drivers(self):
        for rho in _real_states():
            assert not rho.matrix.imag.any()
            ppt = np.abs(np.linalg.eigvalsh(partial_transpose(rho))).sum()
            ccnr = np.linalg.norm(realign(rho), "nuc")
            bound = hull_value(min(float(rho.m), max(1.0, ppt, ccnr)), rho.m)
            est = lambda_of_state(rho)
            assert abs(est.ccnr_norm - ccnr) <= 1e-14 * ccnr
            assert abs(eof_lower_bound(rho) - bound) <= 1e-14 * bound

    def test_real_asymmetric_rejected(self):
        mat = np.eye(4) / 4.0
        mat[0, 1] = 0.1
        with pytest.raises(NotHermitianError):
            validate_state(mat, (2, 2))

    @pytest.mark.parametrize("spectrum", [[0.4, 0.3, 0.2, 0.1], [1.0, -0.1, 0.05, 0.05]])
    def test_float_and_zero_imaginary_inputs_agree(self, spectrum):
        q, _ = np.linalg.qr(np.random.default_rng(21).normal(size=(4, 4)))
        mat = q @ np.diag(spectrum) @ q.T
        mat = 0.5 * (mat + mat.T)

        def outcome(raw):
            try:
                return eof_lower_bound(validate_state(raw, (2, 2)))
            except NotPositiveError as exc:
                return str(exc)
        assert outcome(mat) == outcome(mat.astype(complex))
        if min(spectrum) < 0:
            assert "minimum eigenvalue" in outcome(mat)


def _oriented_states():
    """Seeded complex and real mixed states and product states, wide and tall."""
    for m, n in ((2, 3), (3, 5), (4, 9), (9, 4), (5, 3)):
        rng = np.random.default_rng(100 * m + n)
        g = rng.normal(size=(m * n, 3))
        yield validate_state(random_density(rng, m, n), (m, n))
        yield validate_state(g @ g.T / np.sum(g * g), (m, n))
        yield validate_state(random_product_pure(rng, m, n), (m, n))


class TestTallOrientation:
    """A wide matrix's SVD is taken on its transpose, which has the same singular values."""

    def test_lapack_sees_tall_matrices(self, monkeypatch):
        states = list(_oriented_states())
        shapes = []
        norm = np.linalg.norm

        def spy(a, *args):
            shapes.append(a.shape)
            return norm(a, *args)
        monkeypatch.setattr(np.linalg, "norm", spy)
        for rho in states:
            lambda_of_state(rho)
            trace_norm(realign(rho))
        assert len(shapes) == 30
        assert all(rows >= cols for rows, cols in shapes)

    def test_norms_match_singular_value_sum(self):
        for rho in _oriented_states():
            m, n = rho.dims
            a = realign(rho)
            assert a.shape == (m * m, n * n)
            svd_sum = np.linalg.svd(a, compute_uv=False).sum()
            assert abs(lambda_of_state(rho).ccnr_norm - svd_sum) <= 1e-14 * svd_sum
            assert abs(trace_norm(a) - svd_sum) <= 1e-14 * svd_sum

    def test_transpose_and_adjoint_agree(self):
        for rho in _oriented_states():
            a = realign(rho)
            norm = trace_norm(a)
            for b in (a.T, a.conj().T):
                assert abs(trace_norm(b) - norm) <= 1e-14 * norm


class TestIsotropicEof:
    def test_qubit_maximal(self):
        assert isotropic_eof(2, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_separability_boundary(self):
        assert isotropic_eof(3, 1.0 / 3.0) == 0.0

    def test_below_boundary(self):
        assert isotropic_eof(3, 0.2) == 0.0

    def test_d3_on_linear_piece(self):
        # 3 * 0.95 = 2.85 > lambda* = 8/3, so the value sits on the line
        from rfunc import find_tangent
        desc = find_tangent(3)
        lam = 3 * 0.95
        expected = desc.value_at_star + desc.slope * (lam - desc.lambda_star)
        assert isotropic_eof(3, 0.95) == pytest.approx(expected, abs=1e-12)

    # float() takes a str, bytes or boolean F, but none of them is a fidelity
    @pytest.mark.parametrize("fn", [isotropic_eof, isotropic_state], ids=["eof", "state"])
    @pytest.mark.parametrize("fidelity", [
        1.2, "0.9", "0.5", b"0.5", bytearray(b"0.5"), True, False, np.True_, np.False_,
    ], ids=["1.2", "str_0.9", "str_0.5", "bytes", "bytearray", "True", "False",
            "np.True_", "np.False_"])
    def test_fidelity_domain(self, fn, fidelity):
        with pytest.raises(DomainError):
            fn(3, fidelity)

    @pytest.mark.parametrize("fidelity", [np.float64(0.9), np.float32(0.5), 1, np.int64(0)])
    def test_numeric_fidelity_is_taken_as_float(self, fidelity):
        assert isotropic_eof(3, fidelity) == isotropic_eof(3, float(fidelity))
        np.testing.assert_array_equal(isotropic_state(3, fidelity).matrix,
                                      isotropic_state(3, float(fidelity)).matrix)


class TestEofLowerBound:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_max_entangled(self, d):
        assert eof_lower_bound(max_entangled_state(d)) == pytest.approx(
            np.log2(d), abs=1e-9)

    def test_separable_mixtures_give_zero(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            parts = [random_product_pure(rng, 2, 2) for _ in range(4)]
            weights = rng.dirichlet(np.ones(4))
            rho = validate_state(sum(w * p for w, p in zip(weights, parts)),
                                 (2, 2))
            assert eof_lower_bound(rho) <= 1e-9

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(16)
        for m, n in ((2, 2), (3, 3)):
            for _ in range(50):
                rho = validate_state(random_density(rng, m, n), (m, n))
                u, v = random_unitary(rng, m), random_unitary(rng, n)
                w = np.kron(u, v)
                rotated = validate_state(w @ rho.matrix @ w.conj().T, (m, n))
                assert eof_lower_bound(rotated) == pytest.approx(
                    eof_lower_bound(rho), abs=1e-8)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("fid", [0.4, 0.6, 0.8, 1.0])
    def test_tight_on_isotropic_states(self, d, fid):
        assert eof_lower_bound(isotropic_state(d, fid)) == pytest.approx(
            isotropic_eof(d, fid), abs=1e-8)

    def test_never_exceeds_exact_isotropic_value(self):
        for fid in np.linspace(0.0, 1.0, 21):
            bound = eof_lower_bound(isotropic_state(2, fid))
            assert bound <= isotropic_eof(2, fid) + 1e-9


class TestStateFileFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(17)
        rho = validate_state(random_density(rng, 2, 3), (2, 3))
        buf = io.StringIO()
        dump_state(rho, buf)
        buf.seek(0)
        loaded = load_state(buf)
        assert loaded.dims == (2, 3)
        assert np.allclose(loaded.matrix, rho.matrix, atol=1e-15)

    def _load(self, doc):
        return load_state(io.StringIO(json.dumps(doc)))

    def test_missing_keys(self):
        with pytest.raises(StateValidationError):
            self._load({"dims": [2, 2]})

    def test_bad_dims(self):
        for dims in ([2.5, 2], [True, 2]):
            with pytest.raises(DimensionMismatchError, match="pair of integers"):
                self._load({"dims": dims, "matrix": []})

    def test_ragged_rows(self):
        rows = [[[0.25, 0.0]] * 4 for _ in range(4)]
        rows[2] = rows[2][:3]
        with pytest.raises(DimensionMismatchError):
            self._load({"dims": [2, 2], "matrix": rows})

    def test_nonfinite_entry(self):
        rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)]
                for i in range(4)]
        rows[0][0] = [float("inf"), 0.0]  # serialized as Infinity
        doc = json.dumps({"dims": [2, 2], "matrix": rows})
        with pytest.raises(StateValidationError):
            load_state(io.StringIO(doc))

    def test_entry_not_a_pair(self):
        rows = [[[0.25, 0.0]] * 4 for _ in range(4)]
        rows[1][1] = [0.25]
        with pytest.raises(StateValidationError):
            self._load({"dims": [2, 2], "matrix": rows})

    @pytest.mark.parametrize("entry", [["0.25", "0"], [None, 0.0], [0.25, 0.0, 0.0]])
    def test_entry_not_a_pair_of_numbers(self, entry):
        rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)]
                for i in range(4)]
        rows[1][2] = entry
        with pytest.raises(StateValidationError):
            self._load({"dims": [2, 2], "matrix": rows})

    @pytest.mark.parametrize("dims", ["1" + "0" * 5000 + ", 2", "1" + "0" * 4299 + ", 10"],
                             ids=["5001_digits", "product_of_4301_digits"])
    def test_integer_too_long_to_read(self, dims):
        # int() refuses JSON integers past 4300 digits, and str() products
        # past them, with a plain ValueError
        with pytest.raises(StateValidationError, match="integer of"):
            load_state(io.StringIO('{"dims": [' + dims + '], "matrix": []}'))

    def test_malformed_json_raises_json_error(self):
        with pytest.raises(json.JSONDecodeError):
            load_state(io.StringIO('{"dims": [2, 2], "matrix": [}'))

    @pytest.mark.parametrize("zero", [0.0, False])
    def test_boolean_entries(self, zero):
        # read as numbers, these rows are the valid pure state |00><00|
        rows = [[[zero, zero] for _ in range(4)] for _ in range(4)]
        rows[0][0] = [True, zero]
        with pytest.raises(StateValidationError, match="must be numbers"):
            self._load({"dims": [2, 2], "matrix": rows})
