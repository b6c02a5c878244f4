"""One rule for a caller's matrix and one for a caller's vector.

A monodromy matrix fixes its own space: it must be square of even size 2h
and symplectic for the J of dimension 2h (`symplectic._space_of`).  For each
entry point that takes one, the table passes a matrix that is not square,
one of odd size and one that is not symplectic, and checks the
`InputError` that names the argument; `is_symplectic` says False to each.
The pairs also refuse two sizes, and a size past the fiber ceiling is the
range rule's refusal, as for `SymplecticSpace`.  A vector is read through
`ratlinalg.as_vector`'s rule: a str or a non-iterable is an `InputError`,
never a bare `TypeError` or one entry per character.
"""

import json
import sys

import pytest

from lefsig import (
    Lagrangian,
    Matrix,
    SymplecticSpace,
    VanishingCycle,
    cover_signature,
    fiber_sum_defect,
    is_symplectic,
    meyer_cocycle,
    symplectic,
    transvection,
)
from lefsig.cli import main
from lefsig.cover import correction_terms
from lefsig.errors import InputError

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
    pytest.param("5", lambda: I2.apply(5), id="apply.int"),
    pytest.param("5", lambda: VanishingCycle(5), id="VanishingCycle"),
    pytest.param("'10'", lambda: Lagrangian(SymplecticSpace(1), ["10"]), id="Lagrangian.str"),
    pytest.param("'12'", lambda: Matrix.from_rows(["12", "34"]), id="from_rows"),
    pytest.param("'12'", lambda: I2.apply("12"), id="apply.str"),
]


@pytest.mark.parametrize("shown, call", VECTOR_ARGUMENTS)
def test_a_vector_that_is_a_str_or_no_iterable_is_refused(shown, call):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == f"expected a vector, got {shown}"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_a_literal_past_the_digit_limit_is_named_not_echoed(tmp_path, capsys):
    doc = tmp_path / "pair.json"
    doc.write_text(json.dumps({"dimension": 2, "matrices": [[["1" * 5000, 0], [0, 1]], [
        [1, 0], [0, 1]]]}))
    assert main(["meyer", str(doc)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: matrix 1: ") and len(err) < 200
    assert "5000 characters, past the int-to-str digit limit" in err
