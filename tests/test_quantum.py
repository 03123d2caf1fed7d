import io
import json
from fractions import Fraction

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
        (2, 2, 10**5000), b"\x02\x02", bytearray(b"\x02\x03"), "22",
        {2, 3}, frozenset({2, 3}), {2: 0, 3: 0}, (d for d in (2, 2))])
    def test_bad_dims_rejected(self, dims):
        # an int past 4300 digits cannot be printed: the message must not try
        with pytest.raises(DimensionMismatchError, match="two integers >= 2"):
            validate_state(np.eye(4) / 4.0, dims)

    def test_unordered_dims_rejected(self):
        # a set of dims has no order: {3, 2} iterates as (2, 3), which reads a
        # 3 x 2 pure state as 2 x 3, with Lambda 1.8003 and a bound of 0.7224
        rng = np.random.default_rng(3)
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        with pytest.raises(DimensionMismatchError, match="two integers >= 2"):
            validate_state(rho, {3, 2})
        state = validate_state(rho, (3, 2))
        assert state.dims == (3, 2)
        assert lambda_of_state(state).lam == pytest.approx(1.6841, abs=1e-4)
        assert eof_lower_bound(state) == pytest.approx(0.5718, abs=1e-4)

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
            with pytest.raises(StateValidationError, match="non-finite"):
                trace_norm(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("raw", [1.0, [1.0, 2.0], np.ones((2, 2, 2))],
                             ids=["0-d", "1-d", "3-d"])
    def test_not_2d_rejected(self, raw):
        with pytest.raises(StateValidationError, match="matrix must be 2-d"):
            trace_norm(raw)


# |00><00| and a mixed 2 x 2 state whose entries float32 holds exactly
PURE = [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
MIXED = [[0.5, 0.125j, 0, 0], [-0.125j, 0.25, 0, 0], [0, 0, 0.125, 0], [0, 0, 0, 0.125]]

# id -> a matrix whose entries are not all numbers; numpy casts each of them
NON_NUMBER_MATRICES = {
    "str": [[str(v) for v in row] for row in PURE],
    "bytes": [[str(v).encode() for v in row] for row in PURE],
    "bool_list": [[bool(v) for v in row] for row in PURE],
    "bool_among_numbers": [[True, 0.0, 0.0, 0.0]] + PURE[1:],
    "np.bool_among_numbers": [row[:3] + [np.False_] for row in PURE],
    "np.bool_array": np.array(PURE, dtype=bool),
    "bool_array_among_rows": [np.array(PURE[0], dtype=bool)] + PURE[1:],
    "Fraction_object_array": np.array([[Fraction(v) for v in row] for row in PURE]),
    "str_among_numbers": [["1", 0, 0, 0]] + PURE[1:],
}

# id -> a matrix of numbers
NUMBER_MATRICES = {
    "int_list": PURE,
    "int_array": np.array(PURE),
    "float32": np.array(MIXED, dtype=complex).real.astype(np.float32),
    "complex64": np.array(MIXED, dtype=np.complex64),
    "complex_list": MIXED,
}


# validate_state and trace_norm, which take a matrix by the same rule
each_intake = pytest.mark.parametrize(
    "fn", [lambda raw: validate_state(raw, (2, 2)), trace_norm], ids=["validate_state", "trace_norm"])


class TestMatrixEntries:
    @pytest.mark.parametrize("raw", NON_NUMBER_MATRICES.values(),
                             ids=NON_NUMBER_MATRICES.keys())
    @each_intake
    def test_non_number_rejected(self, fn, raw):
        with pytest.raises(StateValidationError, match="matrix entries must be numbers"):
            fn(raw)

    @each_intake
    def test_ragged_rejected(self, fn):
        # numpy's own ValueError ("inhomogeneous shape") must not escape
        with pytest.raises(StateValidationError, match="matrix is ragged"):
            fn(PURE[:3] + [PURE[3][:3]])

    @pytest.mark.parametrize("raw", NUMBER_MATRICES.values(), ids=NUMBER_MATRICES.keys())
    def test_number_taken_as_complex(self, raw):
        mat = validate_state(raw, (2, 2)).matrix
        want = np.asarray(raw, dtype=complex)
        assert mat.dtype == want.dtype and mat.tobytes() == want.tobytes()
        assert trace_norm(raw) == trace_norm(want)

    def test_complex_array_not_copied(self):
        mat = np.array(MIXED, dtype=complex)
        assert validate_state(mat, (2, 2)).matrix is mat


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


# Three references for the EOF that do not go through the R-curve: Wootters'
# formula on two qubits (PRL 80, 2245 (1998)); on a pure state, the entropy of
# entanglement; and on any state, the EOF's bound from above by the mean entropy
# of entanglement of its eigenvectors.  co(R)(Lambda) is a lower bound, so it may
# not exceed any of them.
SIGMA_YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]]).real


def _entropy_bits(p):
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def _wootters_cases():
    """Seeded two-qubit states of rank 1 to 4, as (rho, Psi) with rho = Psi Psi^dagger."""
    rng = np.random.default_rng(44)
    for rank in (1, 2, 3, 4):
        for _ in range(100):
            psi = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            psi /= np.linalg.norm(psi)
            yield validate_state(psi @ psi.conj().T, (2, 2)), psi


def _wootters_eof(psi):
    # the lambda_i of the concurrence are the singular values of Psi^T (sy x sy) Psi:
    # sqrt(eig(rho rho~)) loses sqrt(eps) on a rank-deficient rho
    lam = np.linalg.svd(psi.T @ SIGMA_YY @ psi, compute_uv=False)
    c = min(1.0, max(0.0, lam[0] - lam[1:].sum()))
    small = c * c / (2.0 * (1.0 + np.sqrt(1.0 - c * c)))  # (1 - sqrt(1 - C^2))/2
    return _entropy_bits(np.array([small, 1.0 - small]))


def _pure_cases():
    """Seeded pure states of 2 x 2 to 4 x 6, as (rho, Psi) with Psi the m x n amplitudes."""
    rng = np.random.default_rng(45)
    for m in (2, 3, 4):
        for n in range(m, 7):
            for _ in range(30):
                psi = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
                psi /= np.linalg.norm(psi)
                vec = psi.reshape(m * n)
                yield validate_state(np.outer(vec, vec.conj()), (m, n)), psi


def _entanglement_entropy(psi):
    return _entropy_bits(np.linalg.svd(psi, compute_uv=False) ** 2)


def _spectral_cases():
    """Seeded states of 2 x 2 to 4 x 4 and of every rank, as (rho, rho)."""
    rng = np.random.default_rng(46)
    for m in (2, 3, 4):
        for n in range(m, 5):
            for rank in range(1, m * n + 1):
                for _ in range(30):
                    g = rng.normal(size=(m * n, rank)) + 1j * rng.normal(size=(m * n, rank))
                    mat = g @ g.conj().T
                    rho = validate_state(mat / np.trace(mat).real, (m, n))
                    yield rho, rho


def _spectral_eof(rho):
    # rho = sum_i p_i |v_i><v_i|, one decomposition among those the EOF minimizes over
    m, n = rho.dims
    p, vecs = np.linalg.eigh(rho.matrix)
    return sum(pi * _entanglement_entropy(v.reshape(m, n)) for pi, v in zip(p, vecs.T) if pi > 0)


REFERENCES = {"wootters": (_wootters_cases, _wootters_eof),
              "pure": (_pure_cases, _entanglement_entropy),
              "spectral": (_spectral_cases, _spectral_eof)}


def _violations(bound, reference):
    # (dims, excess) of every case whose bound exceeds the reference by over 1e-12
    cases, exact = REFERENCES[reference]
    out = []
    for rho, psi in cases():
        excess = bound(rho) - exact(psi)
        if excess > 1e-12:
            out.append((rho.dims, excess))
    return out


class TestIndependentReferences:
    @pytest.mark.parametrize("reference", sorted(REFERENCES))
    def test_bound_at_most_the_reference(self, reference):
        assert _violations(eof_lower_bound, reference) == []

    @pytest.mark.parametrize("reference", sorted(REFERENCES))
    def test_catches_a_shifted_lambda(self, reference):
        # co(R) at Lambda + 1e-3 is no lower bound: the same check must see it
        def shifted(rho):
            lam = min(lambda_of_state(rho).lam + 1e-3, float(rho.m))
            return hull_value(lam, rho.m)

        assert _violations(shifted, reference)


class TestStateFileFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(17)
        # a -0.0 real or imaginary part is written as -0.0 and read back as one
        z = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        z[0, 3], z[3, 0] = complex(0.0, -0.0), complex(-0.0, 0.0)
        z[1, 2], z[2, 1] = complex(-0.0, -0.0), complex(-0.0, 0.0)
        for rho in (validate_state(random_density(rng, 2, 3), (2, 3)),
                    validate_state(z, (2, 2))):
            buf = io.StringIO()
            dump_state(rho, buf)
            # the text is that of the [re, im] pairs taken one entry at a time
            pairs = [[[float(v.real), float(v.imag)] for v in row] for row in rho.matrix]
            assert buf.getvalue() == json.dumps({"dims": list(rho.dims), "matrix": pairs})
            buf.seek(0)
            loaded = load_state(buf)
            assert loaded.dims == rho.dims
            assert np.array_equal(loaded.matrix, rho.matrix)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(loaded.matrix)),
                                      np.signbit(part(rho.matrix)))

    def _load(self, doc):
        return load_state(io.StringIO(json.dumps(doc)))

    def test_bytes_stream(self):
        text = json.dumps({"dims": [2, 2], "matrix": [[[0.25 if i == j else 0.0, 0.0]
                                                       for j in range(4)] for i in range(4)]})
        got = load_state(io.BytesIO(text.encode()))
        want = load_state(io.StringIO(text))
        assert got.dims == want.dims and np.array_equal(got.matrix, want.matrix)

    def test_bytes_stream_not_utf8(self):
        with pytest.raises(StateValidationError, match="not UTF-8 text"):
            load_state(io.BytesIO(b'\xff{"dims": [2, 2], "matrix": []}'))

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
