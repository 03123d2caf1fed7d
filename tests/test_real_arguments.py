"""One table of argument spellings against every public entry point that takes a real number.

Each entry point is paired with a value v inside its domain.  A non-real
spelling of v (a string, bytes, a bool, a complex, an object or bool array,
a list or tuple holding a bool or a bool array, a Decimal or a Fraction) must raise
DomainError, and so must an int past the float range.  A real spelling of v
(an int, a numpy integer or floating scalar, a 0-d array) must give the same
result, bit for bit, as float(x).
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import rfunc
from rfunc import DomainError

LAMBDA_FUNCTIONS = ["gamma_value", "gamma_first", "gamma_second", "r_value", "r_first",
                    "r_second", "g_value", "f_value", "hull_value", "check_lambda"]
DELTA_FUNCTIONS = ["c_value", "a_value", "b_value", "big_f_value", "check_delta"]


def _at_m(name, m):
    fn = getattr(rfunc, name)
    return lambda x: fn(x, m)


# id -> (the call on one argument x, a value of x inside its domain)
ENTRY_POINTS = {
    **{name: (_at_m(name, 5), 2.5) for name in LAMBDA_FUNCTIONS},
    **{name: (_at_m(name, 5), 0.5) for name in DELTA_FUNCTIONS},
    "binary_entropy": (rfunc.binary_entropy, 0.25),
    "isotropic_eof": (lambda x: rfunc.isotropic_eof(3, x), 0.9),
    "isotropic_state": (lambda x: rfunc.isotropic_state(3, x).matrix, 0.9),
    "check_dimension": (rfunc.check_dimension, 5),
}

# id -> a spelling of v that is not a real number; float() takes several of them
NON_REAL = {
    "str": str,
    "bytes": lambda v: str(v).encode(),
    "bytearray": lambda v: bytearray(str(v).encode()),
    "True": lambda v: True,
    "False": lambda v: False,
    "np.True_": lambda v: np.True_,
    "np.False_": lambda v: np.False_,
    "complex_zero_imag": np.complex128,
    "complex": lambda v: np.complex128(v + 0.5j),
    "str_list": lambda v: [str(v)],
    "bool_in_list": lambda v: [True, v],
    "np.bool_in_tuple": lambda v: (v, np.False_),
    "bool_in_nested_list": lambda v: [[v], [True]],
    "bool_in_tuple_in_list": lambda v: [(v, True)],
    "0-d_bool_array_in_list": lambda v: [np.asarray(True), v],  # numpy reads it as a scalar
    "bool_array": lambda v: np.array([True, False]),
    "bool_array_in_list": lambda v: [np.array([v]), np.array([v >= 1])],  # 0 or 1, in domain
    "object_array": lambda v: np.array([v], dtype=object),
    "Decimal": lambda v: Decimal(str(v)),
    "Fraction": lambda v: Fraction(str(v)),
    "10**400": lambda v: 10**400,
    "10**5000": lambda v: 10**5000,  # its repr raises ValueError: a message must not hold it
}

# id -> a real spelling of v, or of an int near it
REAL = {
    "int": int,
    "np.int64": lambda v: np.int64(int(v)),
    "np.float32": np.float32,
    "np.float64": np.float64,
    "0-d_array": np.array,
}


def _bits(result):
    # the exact bits of a result: repr is exact for a Python float or int
    if isinstance(result, np.ndarray):
        return result.dtype, result.shape, result.tobytes()
    return type(result), repr(result)


@pytest.mark.parametrize("spell", NON_REAL.values(), ids=NON_REAL.keys())
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_non_real_argument_rejected(entry, spell):
    fn, v = entry
    with pytest.raises(DomainError):
        fn(spell(v))


@pytest.mark.parametrize("spell", REAL.values(), ids=REAL.keys())
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_real_argument_taken_as_float(entry, spell):
    fn, v = entry
    x = spell(v)
    assert _bits(fn(x)) == _bits(fn(float(x)))
