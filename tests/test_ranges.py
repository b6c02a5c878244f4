"""One range rule for every count, index and size (`errors._require_range`).

Each argument below is an exact `int` in low..high, or at least low when it
has no upper bound.  For each one the table checks that the lowest and the
highest accepted values pass, that one below (and one above, when bounded)
raise `InputError` with the message that names the field and its value, and
that `True` and `1.0` are refused by the int rule.  A count that sizes a
sequence is bounded by `sys.maxsize`, which no call can allocate, so only its
lowest value is called.  Through the CLI a
refusal is exit 2 with the message on stderr and nothing on stdout.  The
fiber-dimension ceiling is patched to 4 so the top of every range under it
is cheap to reach.
"""

import io
import json
import re
import sys
from argparse import Namespace
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from lefsig import (
    Matrix,
    Surface,
    SymplecticSpace,
    VanishingCycle,
    cover_signature,
    generate,
    local_sigma,
    local_sigma_via_maslov,
    shortcut_dual_preserved,
    signature_zero_certificate,
    word_action,
)
from lefsig import cli, symplectic
from lefsig.cover import correction_terms
from lefsig.errors import InputError

from .fixtures import BLOCK_ACTION, DATA_DIR, MATSUMOTO_PHI, positive_word

CEILING = 4
MATSUMOTO = str(DATA_DIR / "matsumoto.json")
W = positive_word()  # three cycles in genus 1


@pytest.fixture(autouse=True)
def small_ceiling(monkeypatch):
    monkeypatch.setattr(symplectic, "MAX_DIMENSION", CEILING)
    monkeypatch.setattr(cli, "MAX_DIMENSION", CEILING)


def _cli(*argv):
    """Run `lefsig` in process: exit 0 passes, exit 2 comes back as the
    `InputError` whose message it printed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    if code == 2:
        assert out.getvalue() == ""
        raise InputError(err.getvalue().removeprefix("error: ").removesuffix("\n"))
    assert (code, err.getvalue()) == (0, "")


def _power(n):
    if type(n) is int:
        _cli("power", MATSUMOTO, "--n", str(n))
    else:  # argparse's int() refuses these before the command runs
        cli.cmd_power(Namespace(file=MATSUMOTO, n=n, json=False))


def _meyer(dim, tmp_path):
    eye = [[int(i == j) for j in range(dim)] for i in range(dim)] if type(dim) is int else []
    doc = tmp_path / "pair.json"
    doc.write_text(json.dumps({"dimension": dim, "matrices": [eye, eye]}))
    _cli("meyer", str(doc))


RANGES = [  # (field, low, high or None, call of the value and a scratch directory)
    pytest.param("cols", 0, None, lambda v, _: Matrix((), v), id="Matrix"),
    pytest.param("n", 0, sys.maxsize, lambda v, _: Matrix.identity(v), id="identity"),
    pytest.param("rows", 0, sys.maxsize, lambda v, _: Matrix.zeros(v, 2), id="zeros.rows"),
    pytest.param("cols", 0, sys.maxsize, lambda v, _: Matrix.zeros(2, v), id="zeros.cols"),
    pytest.param("half_dim", 0, CEILING // 2, lambda v, _: SymplecticSpace(v),
                 id="SymplecticSpace"),
    pytest.param("genus", 0, None, lambda v, _: Surface(v, 0), id="Surface.genus"),
    pytest.param("boundary", 0, None, lambda v, _: Surface(1, v), id="Surface.boundary"),
    pytest.param("n", 1, sys.maxsize, lambda v, _: W.repeated(v), id="repeated"),
    pytest.param("upto", 0, 3, lambda v, _: word_action(W, v), id="word_action"),
    pytest.param("k", 1, 3, lambda v, _: local_sigma(W, v), id="local_sigma"),
    pytest.param("k", 1, 3, lambda v, _: local_sigma_via_maslov(W, v),
                 id="local_sigma_via_maslov"),
    pytest.param("k", 1, 3, lambda v, _: shortcut_dual_preserved(W, v),
                 id="shortcut_dual_preserved"),
    pytest.param("n", 1, None,
                 lambda v, _: list(correction_terms(MATSUMOTO_PHI, v)),
                 id="correction_terms"),
    pytest.param("n", 1, None, lambda v, _: cover_signature(0, MATSUMOTO_PHI, v),
                 id="cover_signature"),
    pytest.param("n", 1, sys.maxsize, lambda v, _: signature_zero_certificate(BLOCK_ACTION, v),
                 id="signature_zero_certificate"),
    pytest.param("genus", 1, None, lambda v, _: generate(v, 0, 1), id="generate.genus"),
    pytest.param("boundary", 0, None, lambda v, _: generate(1, v, 1), id="generate.boundary"),
    pytest.param("repetitions", 1, None, lambda v, _: generate(1, 0, v),
                 id="generate.repetitions"),
    pytest.param("--n", 1, None, lambda v, _: _power(v), id="power--n"),
    pytest.param("dimension", 0, CEILING, _meyer, id="document.dimension"),
]


@pytest.mark.parametrize("field, low, high, call", RANGES)
def test_counts_indices_and_sizes_follow_one_range_rule(field, low, high, call, tmp_path):
    for value in (low, high) if high not in (None, sys.maxsize) else (low,):
        call(value, tmp_path)
    refused = [(low - 1, f"{field} must be >= {low}, got {low - 1}")]
    if high is not None:
        refused = [(v, f"{field} {v} out of range {low}..{high}") for v in (low - 1, high + 1)]
    # a list, not a dict: True, 1 and 1.0 are one key
    refused += [(v, f"{field} must be an integer, got {v!r}") for v in (True, 1.0)]
    for value, message in refused:
        with pytest.raises(InputError) as exc:
            call(value, tmp_path)
        assert str(exc.value) == message, value


def test_power_n_that_is_no_int_is_refused_by_the_parser(capsys):
    for bad in ("1.0", "True"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["power", MATSUMOTO, "--n", bad])
        assert exc.value.code == 2
        assert "--n: invalid int value" in capsys.readouterr().err


def test_oversized_document_is_refused_before_its_matrices(monkeypatch, tmp_path, capsys):
    monkeypatch.undo()  # the real ceiling of 1000
    doc = tmp_path / "pair.json"
    doc.write_text('{"dimension": 1002, "matrices": [[], []]}')
    assert cli.main(["meyer", str(doc)]) == 2
    assert capsys.readouterr() == ("", "error: dimension 1002 out of range 0..1000\n")


def test_a_value_past_the_digit_limit_is_still_an_input_error():
    for value in (10**5000, -(10**5000)):
        with pytest.raises(InputError, match=r"^half_dim (-?\d+|<\d+-bit integer>) out of range"):
            SymplecticSpace(value)
    with pytest.raises(InputError, match=r"^n (-?\d+|<\d+-bit integer>) out of range 1\.\."):
        W.repeated(-(10**5000))


HUGE = 10**5000  # past CPython's int-to-str digit limit (4300 digits by default)

PAST_THE_DIGIT_LIMIT = [  # (message up to the refused value, call)
    pytest.param("genus must be an integer, got ", lambda: Surface(Fraction(HUGE), 0),
                 id="Surface.genus"),
    pytest.param("genus must be an integer, got ",
                 lambda: generate(Fraction(HUGE), 0, 1), id="generate.genus"),
    pytest.param("base_sigma must be an integer, got ",
                 lambda: cover_signature(Fraction(HUGE), Matrix.identity(2), 2),
                 id="cover_signature.base_sigma"),
    pytest.param("chirality must be +1 or -1, got ", lambda: VanishingCycle((1, 0), HUGE),
                 id="VanishingCycle.chirality"),
    pytest.param("vector entries must be integers, got ",
                 lambda: VanishingCycle((Fraction(HUGE), 0)), id="VanishingCycle.entry"),
]


@pytest.mark.parametrize("message, call", PAST_THE_DIGIT_LIMIT)
def test_a_refused_value_past_the_digit_limit_is_an_input_error(message, call):
    """The refusal names its field and shows the value, or when printing it
    would pass the digit limit, its type: never the limit's `ValueError`."""
    with pytest.raises(InputError, match="^" + re.escape(message)):
        call()


def _triple(dim):
    """a_i, b_i and a_i + b_i: a transverse Lagrangian triple in dimension `dim`."""
    h = dim // 2
    unit = [[int(j == i) for j in range(dim)] for i in range(dim)]
    return {"dimension": dim, "matrices": [
        unit[0::2], unit[1::2], [[a + b for a, b in zip(unit[2 * i], unit[2 * i + 1])]
                                 for i in range(h)]]}


def test_check_axioms_refuses_a_dimension_it_cannot_double(tmp_path, capsys):
    """Additivity sums each Lagrangian with itself, in twice the dimension:
    above half the ceiling `--check-axioms` is refused before any output,
    where it used to print the index and two axioms, then fail on a size the
    user never gave."""
    doc = tmp_path / "triple.json"
    doc.write_text(json.dumps(_triple(CEILING)))
    assert cli.main(["maslov", str(doc)]) == 0
    assert capsys.readouterr() == ("maslov index: 2\n", "")
    assert cli.main(["maslov", str(doc), "--check-axioms"]) == 2
    assert capsys.readouterr() == (
        "", f"error: --check-axioms dimension {CEILING} out of range 0..{CEILING // 2}\n")
    doc.write_text(json.dumps(_triple(CEILING // 2)))
    assert cli.main(["maslov", str(doc), "--check-axioms"]) == 0
    assert capsys.readouterr().out.count(": pass\n") == 3
    assert cli.main(["maslov", str(DATA_DIR / "maslov_normalization.json"),
                     "--check-axioms"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "axiom antisymmetry: pass", "axiom symplectic invariance: pass",
        "axiom direct-sum additivity: pass"]
