"""One rule for a caller's matrix and one for a caller's vector.

A monodromy matrix fixes its own space: it must be square of even size 2h
and symplectic for the J of dimension 2h (`symplectic._space_of`).  For each
entry point that takes one, the table passes a matrix that is not square,
one of odd size and one that is not symplectic, and checks the
`InputError` that names the argument; `is_symplectic` says False to each.
The pairs also refuse two sizes, and a size past the fiber ceiling is the
range rule's refusal, as for `SymplecticSpace`.  A vector is read through
`ratlinalg.as_vector`'s rule: a str or a non-iterable is an `InputError`,
never a bare `TypeError` or one entry per character.  A caller's container
of vectors follows the same rule, as do `MonodromyWord`'s container of cycles
(each item a `VanishingCycle`, or the refusal names its index) and both
arguments of `SymplecticSpace.pairing`, whose entries are read by
`ratlinalg.as_rational`'s exact-entry rule.  A count that no sequence can hold
(past `sys.maxsize`) is the range rule's refusal, not a bare
`OverflowError`.  A record's repr names a value past the int-to-str digit
limit by its size instead of raising that limit's `ValueError`.
"""

import json
import re
import sys

import pytest

from lefsig import (
    Lagrangian,
    Matrix,
    MonodromyWord,
    Surface,
    SymplecticSpace,
    VanishingCycle,
    cover_signature,
    fiber_sum_defect,
    generate,
    is_symplectic,
    meyer_cocycle,
    signature_zero_certificate,
    symplectic,
    transvection,
    word,
)
from lefsig.cli import main
from lefsig.cover import correction_terms
from lefsig.errors import InputError

from .fixtures import BLOCK_ACTION

I0, I2, I4 = Matrix.identity(0), Matrix.identity(2), Matrix.identity(4)
NOT_SYMPLECTIC = [Matrix.zeros(2, 4), Matrix.zeros(4, 2), Matrix.identity(3),
                  Matrix.from_rows([[2, 0], [0, 2]])]

MATRIX_ARGUMENTS = [  # (the argument the refusal names, call of the matrix)
    pytest.param("phi_minus", lambda m: fiber_sum_defect(m, I2), id="fiber_sum_defect.phi_minus"),
    pytest.param("phi_plus", lambda m: fiber_sum_defect(I2, m), id="fiber_sum_defect.phi_plus"),
    pytest.param("phi_minus", lambda m: meyer_cocycle(m, I2), id="meyer_cocycle.m1"),
    pytest.param("phi_plus", lambda m: meyer_cocycle(I2, m), id="meyer_cocycle.m2"),
    pytest.param("phi", lambda m: correction_terms(m, 3), id="correction_terms"),
    pytest.param("phi", lambda m: cover_signature(0, m, 3), id="cover_signature"),
]


@pytest.mark.parametrize("name, call", MATRIX_ARGUMENTS)
def test_a_matrix_that_is_not_symplectic_is_refused_by_name(name, call):
    for m in NOT_SYMPLECTIC:
        assert is_symplectic(m) is False
        with pytest.raises(InputError) as exc:
            call(m)
        assert str(exc.value) == f"{name} ({m.rows}x{m.cols}) is not symplectic"


@pytest.mark.parametrize("call", [fiber_sum_defect, meyer_cocycle])
def test_a_pair_of_two_sizes_is_refused(call):
    for a, b in ((I2, I4), (I4, I2), (I0, I2)):
        with pytest.raises(InputError) as exc:
            call(a, b)
        assert str(exc.value) == f"sizes differ: phi_minus {a.rows}, phi_plus {b.rows}"


def test_a_cycle_of_odd_length_has_no_transvection():
    for v in ((1,), (0, 1, 0)):
        with pytest.raises(InputError) as exc:
            transvection(VanishingCycle(v))
        assert str(exc.value) == f"cycle has odd length {len(v)}"


def test_the_zero_by_zero_matrix_is_symplectic():
    assert is_symplectic(I0)
    assert transvection(VanishingCycle(())) == I0
    assert fiber_sum_defect(I0, I0) == meyer_cocycle(I0, I0) == 0
    assert [t.sigma for t in correction_terms(I0, 4)] == [0, 0, 0]
    assert cover_signature(3, I0, 5) == 15


def test_a_size_past_the_fiber_ceiling_follows_the_range_rule(monkeypatch):
    monkeypatch.setattr(symplectic, "MAX_DIMENSION", 4)
    i6 = Matrix.identity(6)
    calls = [is_symplectic, lambda m: fiber_sum_defect(m, m), lambda m: correction_terms(m, 2),
             lambda m: cover_signature(0, m, 2),
             lambda m: transvection(VanishingCycle((1,) + (0,) * (m.rows - 1)))]
    for call in calls:
        with pytest.raises(InputError) as exc:
            call(i6)
        assert str(exc.value) == "half_dim 3 out of range 0..2"


VECTOR_ARGUMENTS = [  # (the refused vector, call); each died with a bare TypeError or misread it
    pytest.param("1", lambda: Lagrangian(SymplecticSpace(2), (1, 0, 0, 0)), id="Lagrangian.flat"),
    pytest.param("1", lambda: Matrix((1, 2), 2), id="Matrix"),
    pytest.param("5", lambda: word(Surface(1, 0), [5]), id="word.int"),
    pytest.param("5", lambda: VanishingCycle(5), id="VanishingCycle"),
    pytest.param("'10'", lambda: Lagrangian(SymplecticSpace(1), ["10"]), id="Lagrangian.str"),
    pytest.param("'12'", lambda: Matrix.from_rows(["12", "34"]), id="from_rows"),
    pytest.param("'12'", lambda: word(Surface(1, 0), ["12"]), id="word.str"),
]


@pytest.mark.parametrize("shown, call", VECTOR_ARGUMENTS)
def test_a_vector_that_is_a_str_or_no_iterable_is_refused(shown, call):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == f"expected a vector, got {shown}"


NO_DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                    reason="no int-to-str digit limit")
HUGE_COLS = "ragged matrix: row of length {}, expected <16610-bit integer>"

BARE_ERRORS = [  # (call, the refusal as a regular expression); each died with a bare error
    pytest.param(lambda: Matrix.from_rows(5), "expected a vector, got 5", id="from_rows"),
    pytest.param(lambda: Matrix(5, 2), "expected a vector, got 5", id="Matrix"),
    pytest.param(lambda: Lagrangian(SymplecticSpace(1), 5), "expected a vector, got 5",
                 id="Lagrangian"),
    pytest.param(lambda: word(Surface(1, 0), 5), "expected a vector, got 5", id="word.vectors"),
    pytest.param(lambda: word(Surface(1, 0), [[1, 0]], 5), "expected a vector, got 5",
                 id="word.chiralities"),
    pytest.param(lambda: SymplecticSpace(1).pairing(5, [1, 0]), "expected a vector, got 5",
                 id="pairing.x"),
    pytest.param(lambda: SymplecticSpace(1).pairing([1, 0], "10"), "expected a vector, got '10'",
                 id="pairing.y"),
    pytest.param(lambda: MonodromyWord(Surface(1, 0), 5), "expected a vector, got 5",
                 id="MonodromyWord.cycles"),
    pytest.param(lambda: MonodromyWord(Surface(1, 0), [VanishingCycle((1, 0)), 5]),
                 "cycle 2: expected a VanishingCycle, got 5", id="MonodromyWord.cycle"),
    pytest.param(lambda: signature_zero_certificate(BLOCK_ACTION, 10**5000),
                 rf"n .+ out of range 1\.\.{sys.maxsize}", id="signature_zero_certificate"),
    pytest.param(lambda: word(Surface(1, 0), [[1, 0]]).repeated(10**30),
                 rf"n {10**30} out of range 1\.\.{sys.maxsize}", id="repeated"),
    pytest.param(lambda: generate(1, 0, 10**30), rf"n {10**30} out of range 1\.\.{sys.maxsize}",
                 id="generate"),
    pytest.param(lambda: Matrix.identity(10**30), rf"n {10**30} out of range 0\.\.{sys.maxsize}",
                 id="identity"),
    pytest.param(lambda: Matrix.zeros(10**30, 0),
                 rf"rows {10**30} out of range 0\.\.{sys.maxsize}", id="zeros"),
    pytest.param(lambda: Matrix(((1, 0), (0, 1)), 10**5000), HUGE_COLS.format(2),
                 id="Matrix.cols", marks=NO_DIGIT_LIMIT),
    pytest.param(lambda: Matrix.from_rows([[1]], 10**5000), HUGE_COLS.format(1),
                 id="from_rows.cols", marks=NO_DIGIT_LIMIT),
]


@pytest.mark.parametrize("call, refusal", BARE_ERRORS)
def test_a_container_or_count_is_refused_not_a_bare_error(call, refusal):
    with pytest.raises(InputError) as exc:
        call()
    assert re.fullmatch(refusal, str(exc.value)), str(exc.value)


# (the refusal, call); each returned a float or an int, or died with a bare TypeError
PAIRING_ENTRIES = [
    pytest.param("not an exact rational: 0.5",
                 lambda: SymplecticSpace(1).pairing([0.5, 0], [0, 1]), id="pairing.float"),
    pytest.param("not an exact rational: True",
                 lambda: SymplecticSpace(1).pairing([True, 0], [0, 1]), id="pairing.bool"),
    pytest.param("not a rational literal: 'x'",
                 lambda: SymplecticSpace(1).pairing(["x", 0], [0, 1]), id="pairing.str"),
    pytest.param("not an exact rational: 0.5",
                 lambda: SymplecticSpace(1).pairing([1, 0], [0, 0.5]), id="pairing.y"),
]


@pytest.mark.parametrize("refusal, call", PAIRING_ENTRIES)
def test_a_pairing_entry_follows_the_exact_entry_rule(refusal, call):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == refusal


@NO_DIGIT_LIMIT
def test_a_record_repr_names_a_value_past_the_digit_limit_by_its_size():
    # a 0-row matrix takes any column count, and messages and tracebacks print records
    assert repr(Matrix((), 10**5000)) == "Matrix(entries=(), cols=<16610-bit integer>)"
    assert repr(VanishingCycle((10**5000, 0))) == (
        "VanishingCycle(homology_class=<tuple past the digit limit>, chirality=1)")
    assert repr(VanishingCycle((10**4000, -1), -1)) == (
        f"VanishingCycle(homology_class=({10**4000}, -1), chirality=-1)")


@NO_DIGIT_LIMIT
def test_a_literal_past_the_digit_limit_is_named_not_echoed(tmp_path, capsys):
    doc = tmp_path / "pair.json"
    doc.write_text(json.dumps({"dimension": 2, "matrices": [[["1" * 5000, 0], [0, 1]], [
        [1, 0], [0, 1]]]}))
    assert main(["meyer", str(doc)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: matrix 1: ") and len(err) < 200
    assert "5000 characters, past the int-to-str digit limit" in err
