"""Element-or-index arguments: every public entry point reads them through
Field.index (or its array counterpart FieldTables.index_array), so bad
input raises and a numpy integer works wherever a Python int does.
Integer arguments (exponents, sample sizes) are read with operator.index."""

import numpy as np
import pytest

from zdspec import closedform, equations, spectra
from zdspec.gf import Field

CHAR2, ODD = (2, 5), (3, 3)


def _lists(arrays):
    return tuple(a.tolist() for a in arrays)


#: entry point -> (field (p, n), call taking the field and one value)
ENTRIES = {
    "Field.index": (CHAR2, lambda f, v: f.index(v)),
    "Field.element": (CHAR2, lambda f, v: f.element(v)),
    "Field.frobenius": (CHAR2, lambda f, v: f.frobenius(v)),
    "Field.trace": (CHAR2, lambda f, v: f.trace(v)),
    "Field.quadratic_character": (ODD, lambda f, v: f.quadratic_character(v)),
    "SubfieldMap.contains": (CHAR2, lambda f, v: f.subfield(1).contains(v)),
    "PowerFunction.__call__": (CHAR2, lambda f, v: spectra.PowerFunction(f, 7)(v)),
    "LookupFunction": (CHAR2, lambda f, v: spectra.LookupFunction(
        f, [v] * f.order).values().tolist()),
    "LookupFunction.__call__": (CHAR2, lambda f, v: spectra.LookupFunction(
        f, range(f.order))(v)),
    "ddt_entry": (CHAR2, lambda f, v: spectra.ddt_entry(spectra.PowerFunction(f, 7), v, 1)),
    "sozd_entry": (ODD, lambda f, v: spectra.sozd_entry(spectra.PowerFunction(f, 5), 1, v)),
    "fbct_entry": (CHAR2, lambda f, v: spectra.fbct_entry(spectra.PowerFunction(f, 7), v, 1)),
    "brute_roots": (CHAR2, lambda f, v: equations.brute_roots(f, [v, 1])),
    "brute_factor_shape": (CHAR2, lambda f, v: equations.brute_factor_shape(
        f, [v, 1, 0, 0, 1])),
    "quadratic_batch-a": (CHAR2, lambda f, v: _lists(equations.quadratic_batch(f, v, 5, [7]))),
    "quadratic_batch-b": (CHAR2, lambda f, v: _lists(equations.quadratic_batch(f, 1, v, [7]))),
    "quadratic_batch-c": (CHAR2, lambda f, v: _lists(equations.quadratic_batch(f, 1, 5, [v]))),
    "TrinomialEq": (CHAR2, lambda f, v: equations.solve_trinomial_linear(
        equations.TrinomialEq(f, 1, v))),
    "predict_x7_char2": (CHAR2, lambda f, v: closedform.predict_x7_char2(f, v, 1)),
    "predict_x2m1p3": (CHAR2, lambda f, v: closedform.predict_x2m1p3(f, 1, v)),
    "predict_x5_oddp": (ODD, lambda f, v: closedform.predict_x5_oddp(f, v, 1)),
    "predict_x7_p3": (ODD, lambda f, v: closedform.predict_x7_p3(f, 1, v)),
}

BAD = {
    "out-of-range": lambda f: f.order,
    "negative": lambda f: -1,
    "float": lambda f: 1.5,
    "other-field": lambda f: Field(f.p, f.n + 1).element(3),
}


@pytest.mark.parametrize("case", [*BAD, "numpy-int"])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_element_or_index_argument(entry, case):
    (p, n), call = ENTRIES[entry]
    f = Field(p, n)
    if case == "numpy-int":
        assert call(f, np.int64(3)) == call(f, 3)
        return
    with pytest.raises((ValueError, TypeError)):
        call(f, BAD[case](f))


@pytest.mark.parametrize("call", [
    lambda f: f.scalar(1.5),
    lambda f: f.element([1.7, 0.2]),
    lambda f: f.element((1, 0.5)),
])
def test_scalar_and_coefficients_reject_floats(call):
    with pytest.raises(TypeError):
        call(Field(*CHAR2))


def test_scalar_and_coefficients_take_numpy_integers():
    f = Field(*ODD)
    assert f.scalar(np.int64(5)) == f.scalar(5)
    assert f.element([np.int64(2), np.uint8(4)]) == f.element([2, 4])


#: entry point -> call taking a GF(2^4) and one integer argument
INTEGER_ARGS = {
    "PowerFunction": lambda f, v: spectra.PowerFunction(f, v).values().tolist(),
    "FieldTables.pow_map": lambda f, v: f.tables.pow_map(v).tolist(),
    "verify_theorem-sample": lambda f, v: closedform.verify_theorem(
        "3.1", f, sample=v, seed=1).to_json(),
    "verify_theorem-seed": lambda f, v: closedform.verify_theorem(
        "3.1", f, sample=5, seed=v).to_json(),
}


@pytest.mark.parametrize("entry", list(INTEGER_ARGS))
def test_integer_argument(entry):
    call = INTEGER_ARGS[entry]
    f = Field(2, 4)
    assert call(f, np.int64(3)) == call(f, 3)
    with pytest.raises(TypeError):
        call(f, 3.0)


def test_trinomial_k_is_read_at_construction():
    f = Field(2, 4)
    with pytest.raises(TypeError):
        equations.TrinomialEq(f, 1.5, f.one)
    eq = equations.TrinomialEq(f, np.int64(2), f.one)
    assert type(eq.k) is int and eq.k == 2
    assert eq == equations.TrinomialEq(f, 2, f.one)
    assert equations.solve_trinomial(eq) == equations.solve_trinomial_linear(eq)


def test_verify_sample_true_reads_as_one():
    report = closedform.verify_theorem("3.1", Field(2, 4), sample=True)
    assert type(report.pairs_checked) is int
    assert '"pairs_checked": 1,' in report.to_json()


def test_verify_seed_true_reads_as_one():
    report = closedform.verify_theorem("3.1", Field(2, 4), sample=5, seed=True)
    assert type(report.seed) is int
    assert '"seed": 1,' in report.to_json()
