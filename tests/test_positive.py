"""Positive-signature family and its signature-zero cone certificate."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefsig import (
    BLOCK_VECTORS,
    InputError,
    Matrix,
    generate,
    signature,
    signature_zero_certificate,
    word_action,
)
from lefsig.cover import correction_terms

from .fixtures import BLOCK_ACTION, CERTIFICATE_N1, POSITIVE_VECTORS


def test_block_vectors_are_the_published_ones():
    assert BLOCK_VECTORS == POSITIVE_VECTORS


def test_generate_genus_one():
    w = generate(1, 1, 1)
    assert len(w) == 3
    assert [c.homology_class for c in w.cycles] == list(POSITIVE_VECTORS)
    assert word_action(w) == BLOCK_ACTION
    assert signature(w).total == 1


def test_padded_block_matches_genus_one():
    # Id - Phi_k at genus 40 is Id - Phi_k at genus 1 beside a zero block
    small = signature(generate(1, 0, 4))
    padded = signature(generate(40, 0, 4))
    assert padded.total == small.total == 4
    assert [s.sigma for s in padded.steps] == [s.sigma for s in small.steps]
    assert [s.witness for s in padded.steps] == [
        None if s.witness is None else s.witness + (0,) * 78 for s in small.steps
    ]


def test_generate_pads_to_higher_genus():
    w = generate(3, 0, 2)
    assert len(w) == 6
    assert all(len(c.homology_class) == 6 for c in w.cycles)
    assert all(c.homology_class[2:] == (0, 0, 0, 0) for c in w.cycles)
    assert signature(w).total == 2


def test_generate_signature_is_repetition_count():
    for n in (1, 2, 4, 7):
        assert signature(generate(1, 1, n)).total == n
    assert signature(generate(2, 3, 3)).total == 3


def test_family_spec_validation():
    with pytest.raises(InputError, match="genus"):
        generate(0, 1, 1)
    with pytest.raises(InputError, match="^boundary must be >= 0, got -1$"):
        generate(1, -1, 1)
    with pytest.raises(InputError, match="repetition"):
        generate(1, 1, 0)


def test_certificate_n1_value():
    total, member = signature_zero_certificate(BLOCK_ACTION, 1)
    assert total == CERTIFICATE_N1
    assert member


def test_certificate_holds_through_n19():
    for n in range(1, 20):
        total, member = signature_zero_certificate(BLOCK_ACTION, n)
        assert member
        assert total.at(0, 0) * total.at(1, 1) - total.at(0, 1) ** 2 < 0


def test_certificate_matrix_is_the_correction_matrix():
    terms = list(correction_terms(BLOCK_ACTION, 10))
    for n in (1, 2, 5, 9):
        total, _ = signature_zero_certificate(BLOCK_ACTION, n)
        term = terms[n - 1]
        assert term.power == n and total == term.matrix
        assert term.sigma == 0


def test_certificate_input_validation():
    with pytest.raises(InputError, match="2x2"):
        signature_zero_certificate(Matrix.identity(4), 1)
    with pytest.raises(InputError, match="positive"):
        signature_zero_certificate(Matrix.from_rows([[1, -2], [3, 4]]), 1)
    with pytest.raises(InputError, match=rf"^n 0 out of range 1\.\.{sys.maxsize}$"):
        signature_zero_certificate(BLOCK_ACTION, 0)
    # the count is an int: 2.0 died in `islice` with a bare ValueError, and
    # True was certified as n = 1
    for n in (2.0, True, Fraction(2), "2"):
        with pytest.raises(InputError, match=r"^n must be an integer, got "):
            signature_zero_certificate(BLOCK_ACTION, n)


@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.integers(1, 9),
       st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_entrywise_positive_matrices_always_certify(a, b, c, d, n):
    total, member = signature_zero_certificate(
        Matrix.from_rows([[a, b], [c, d]]), n)
    assert member
    # cone membership really does pin the signature at zero
    det = total.at(0, 0) * total.at(1, 1) - total.at(0, 1) ** 2
    assert det < 0
