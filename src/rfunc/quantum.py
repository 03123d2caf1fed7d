"""Bipartite density-matrix machinery and the two consumers of the envelope.

``isotropic_eof`` evaluates the exact entanglement of formation of an
isotropic state through the convex envelope, and ``eof_lower_bound`` turns
the two computable entanglement norms (partial transpose and realignment)
into a lower bound on the entanglement of formation of an arbitrary state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .analysis import hull_value
from .core import _holds_bool, _real, _require, check_dimension

__all__ = [
    "StateValidationError",
    "DimensionMismatchError",
    "NotHermitianError",
    "TraceError",
    "NotPositiveError",
    "DensityMatrix",
    "LambdaEstimate",
    "validate_state",
    "partial_transpose",
    "realign",
    "trace_norm",
    "lambda_of_state",
    "isotropic_eof",
    "eof_lower_bound",
    "isotropic_state",
    "max_entangled_state",
    "load_state",
    "dump_state",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = -1e-10


class StateValidationError(ValueError):
    """A raw matrix failed one of the density-matrix checks."""


class DimensionMismatchError(StateValidationError):
    pass


class NotHermitianError(StateValidationError):
    pass


class TraceError(StateValidationError):
    pass


class NotPositiveError(StateValidationError):
    pass


@dataclass(frozen=True)
class DensityMatrix:
    """Validated bipartite state: (m*n) x (m*n), Hermitian, unit trace, PSD."""

    dims: tuple[int, int]
    matrix: np.ndarray

    @property
    def m(self) -> int:
        """Smaller local dimension (the R-curve lives on [1, m])."""
        return min(self.dims)


@dataclass(frozen=True)
class LambdaEstimate:
    """Entanglement norms of a state and the resulting R-curve abscissa."""

    ppt_norm: float
    ccnr_norm: float
    lam: float


def _lapack_operand(mat: np.ndarray) -> np.ndarray:
    """A contiguous copy of ``mat.real`` when every imaginary part is zero, else ``mat``.

    A real matrix has the same eigenvalues and singular values either way,
    and LAPACK's real drivers take about 1/4 (``eigvalsh``) to 3/5 (SVD) of
    the time of the complex ones on it at 576 x 576.  The copy, rather than
    the strided view, keeps the benchmark's peak resident set 1.5 % above
    the all-complex path instead of 3.6 %.
    """
    return mat if mat.imag.any() else np.ascontiguousarray(mat.real)


def _nuclear_norm(a: np.ndarray) -> float:
    """Sum of the singular values of ``a``, taken on its tall orientation.

    A wide matrix goes to LAPACK as the view ``a.T``, which has the same
    singular values: ``gesdd`` then takes its QR path instead of its LQ path,
    about twice as fast on a 256 x 1296 complex matrix (numpy 2.4, 2-thread
    OpenBLAS).  The view of a C-contiguous ``a`` is Fortran-contiguous, and
    it was also faster than a C-contiguous tall copy.
    """
    return float(np.linalg.norm(a.T if a.shape[0] < a.shape[1] else a, "nuc"))


def _complex_matrix(raw) -> np.ndarray:
    try:
        a = np.asarray(raw)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise StateValidationError("matrix is ragged: its rows differ in length") from None
    if a.dtype.kind not in "iufc" or _holds_bool(raw):
        raise StateValidationError("matrix entries must be numbers")
    mat = np.asarray(a, dtype=complex)
    if not np.isfinite(mat).all():
        raise StateValidationError("matrix contains non-finite entries")
    return mat


def validate_state(raw, dims) -> DensityMatrix:
    """Check the shape, Hermiticity, unit trace and positivity of a raw matrix.

    ``dims`` is the ordered pair (m, n) of integers >= 2, as a tuple, a list or a 1-d array:
    a float must be integral, and a set, dict, str, bytes or iterator is rejected.  The matrix
    must be (m*n) x (m*n), not ragged, its entries finite int, float or complex numbers, never
    str, bytes, bool or objects.
    A matrix whose imaginary parts are all zero is checked, and its eigenvalues
    taken, on LAPACK's real drivers; the returned ``matrix`` is complex either way.
    """
    try:
        if not (isinstance(dims, (tuple, list)) or isinstance(dims, np.ndarray) and dims.ndim == 1):
            raise TypeError(f"got a {type(dims).__name__}")
        m, n = map(check_dimension, dims)
    except (TypeError, ValueError) as exc:  # DomainError is a ValueError
        # exc, not dims: the repr of an int past 4300 digits raises ValueError
        raise DimensionMismatchError(
            f"local dimensions must be two integers >= 2: {exc}") from None
    mat = _complex_matrix(raw)
    if mat.shape != (m * n, m * n):
        raise DimensionMismatchError(
            f"matrix shape {mat.shape} does not match dims {m}x{n} "
            f"(expected {(m * n, m * n)})")
    op = _lapack_operand(mat)
    if np.max(np.abs(op - op.conj().T)) > HERMITICITY_TOL:
        raise NotHermitianError("matrix is not Hermitian")
    tr = np.trace(mat).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceError(f"trace is {tr}, expected 1")
    evals = np.linalg.eigvalsh(op)
    if evals[0] < POSITIVITY_TOL:
        raise NotPositiveError(f"minimum eigenvalue {evals[0]} is negative")
    return DensityMatrix((m, n), mat)


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transpose the second-subsystem indices: ((i,j),(k,l)) -> ((i,l),(k,j))."""
    m, n = rho.dims
    t = rho.matrix.reshape(m, n, m, n).transpose(0, 3, 2, 1)
    return t.reshape(m * n, m * n)


def realign(rho: DensityMatrix) -> np.ndarray:
    """Reshuffle ((i,j),(k,l)) -> row (i,k), column (j,l); shape m^2 x n^2."""
    m, n = rho.dims
    t = rho.matrix.reshape(m, n, m, n).transpose(0, 2, 1, 3)
    return t.reshape(m * m, n * n)


def trace_norm(matrix) -> float:
    """Sum of singular values of a rectangular matrix; entries by validate_state's rule.

    A matrix that is not 2-d raises ``StateValidationError``.  A matrix whose
    imaginary parts are all zero takes LAPACK's real SVD, and a wide matrix
    (fewer rows than columns) is handed to LAPACK transposed.
    """
    mat = _complex_matrix(matrix)
    if mat.ndim != 2:
        raise StateValidationError(f"matrix must be 2-d, got {mat.ndim}-d")
    return _nuclear_norm(_lapack_operand(mat))


def lambda_of_state(rho: DensityMatrix) -> LambdaEstimate:
    """Max of the two entanglement norms, clamped to the R-curve domain [1, m].

    When every imaginary part of ``rho.matrix`` is zero, its partial transpose
    and realignment are real too, and both norms take LAPACK's real drivers.
    The realignment of an m x n state with m < n is m^2 x n^2, which is wide;
    its SVD is handed to LAPACK transposed.
    """
    rho = DensityMatrix(rho.dims, _lapack_operand(rho.matrix))
    # rho^T_B is Hermitian: summing |eigenvalues| costs 1/2 to 2/3 of an SVD
    ppt = float(np.abs(np.linalg.eigvalsh(partial_transpose(rho))).sum())
    ccnr = _nuclear_norm(realign(rho))
    lam = min(float(rho.m), max(1.0, ppt, ccnr))
    return LambdaEstimate(ppt, ccnr, lam)


def _check_fidelity(fidelity) -> float:
    """Validate F in [0, 1]; core's rule for a real argument decides what is a number."""
    if type(fidelity) is float and 0.0 <= fidelity <= 1.0:  # a plain float: one comparison
        return fidelity
    fidelity = _real(fidelity, "fidelity")
    _require(type(fidelity) is float and 0.0 <= fidelity <= 1.0,
             "fidelity must be a number in [0, 1], got {}", fidelity)
    return fidelity


def isotropic_eof(d, fidelity, base: str = "two") -> float:
    """Entanglement of formation of the d x d isotropic state with fidelity F.

    Zero for F <= 1/d (the separable regime); co(R) at lambda = d*F above.
    """
    d = check_dimension(d)
    fidelity = _check_fidelity(fidelity)
    if fidelity <= 1.0 / d:
        return 0.0
    return hull_value(d * fidelity, d, base=base)


def eof_lower_bound(rho: DensityMatrix, base: str = "two") -> float:
    """Lower bound on the entanglement of formation: co(R)(Lambda(rho))."""
    return hull_value(lambda_of_state(rho).lam, rho.m, base=base)


def max_entangled_state(d) -> DensityMatrix:
    """Projector onto the canonical maximally entangled d x d pure state."""
    d = check_dimension(d)
    psi = np.eye(d, dtype=complex).reshape(d * d) / np.sqrt(d)
    return DensityMatrix((d, d), np.outer(psi, psi.conj()))


def isotropic_state(d, fidelity) -> DensityMatrix:
    """Isotropic state: F on the maximally entangled projector, rest uniform."""
    d = check_dimension(d)
    fidelity = _check_fidelity(fidelity)
    proj = max_entangled_state(d).matrix
    rest = (np.eye(d * d, dtype=complex) - proj) / (d * d - 1.0)
    return DensityMatrix((d, d), fidelity * proj + (1.0 - fidelity) * rest)


def _json_int(digits: str) -> int:
    if len(digits) > 400:  # a valid file needs far fewer; int() fails past 4300
        raise StateValidationError(f"state file holds an integer of {len(digits)} digits")
    return int(digits)


def load_state(source) -> DensityMatrix:
    """Read a state from the JSON format {"dims": [m, n], "matrix": [[[re, im], ...], ...]}.

    ``source`` is a path or a file object holding UTF-8 JSON.  Text that is not UTF-8, nests
    too deeply or holds an integer of over 400 digits raises StateValidationError; malformed
    JSON raises json.JSONDecodeError.  Checked here is only what JSON alone tells (integer
    dims, rows of [re, im] pairs of numbers); validate_state checks the rest.
    """
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        doc = json.loads(text, parse_int=_json_int)
    except UnicodeDecodeError as exc:
        raise StateValidationError(
            f"state file is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except RecursionError:
        raise StateValidationError("state file nests too deeply to decode") from None
    if not isinstance(doc, dict) or "dims" not in doc or "matrix" not in doc:
        raise StateValidationError('state file must contain "dims" and "matrix"')
    dims = doc["dims"]
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):  # true is a bool
        raise DimensionMismatchError('"dims" must be a pair of integers')
    rows = doc["matrix"]
    try:
        a = np.array(rows)
    except ValueError:  # ragged rows or entries: fail the shape check
        a = np.empty(0)
    if a.ndim != 3 or a.shape[-1] != 2:
        raise DimensionMismatchError("matrix must be rows of [re, im] pairs")
    # the dtype catches strings, None and all-boolean rows; np.array reads a true among
    # numbers as 1.0, so the rows are scanned for booleans when the text holds one at all
    if a.dtype.kind not in "iuf" or (("true" in text or "false" in text)
                                     and _holds_bool(rows)):
        raise StateValidationError("matrix entries must be numbers")
    mat = np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]
    return validate_state(mat, dims)


def dump_state(rho: DensityMatrix, target) -> None:
    """Write a state in the JSON interchange format accepted by load_state."""
    pairs = np.stack((rho.matrix.real, rho.matrix.imag), axis=-1, dtype=float).tolist()
    # one json.dumps: json.dump would stream through the pure-Python encoder
    text = json.dumps({"dims": [int(rho.dims[0]), int(rho.dims[1])], "matrix": pairs})
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w") as fh:
            fh.write(text)
