"""Per-cycle signature algorithm: golden words, invariants, cross-checks."""

from fractions import Fraction
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lefsig import (
    InputError,
    Matrix,
    MonodromyWord,
    Surface,
    VanishingCycle,
    fiber_sum_defect,
    local_sigma,
    local_sigma_via_maslov,
    shortcut_dual_preserved,
    signature,
    word,
    word_action,
)

from .fixtures import (
    FIXTURE_WORDS,
    chain_word,
    delta_pair_word,
    matsumoto_word,
    positive_word,
    random_word,
)


def mirror(w: MonodromyWord) -> MonodromyWord:
    """Reverse the word and flip every chirality."""
    return MonodromyWord(w.surface, tuple(
        VanishingCycle(c.homology_class, -c.chirality) for c in reversed(w.cycles)))


def test_positive_block_word():
    trace = signature(positive_word())
    assert trace.total == 1
    assert tuple(s.sigma for s in trace.steps) == (0, 0, -1)
    assert trace.null_homologous_count == 0


def test_positive_word_repeats_linearly():
    for n in (1, 2, 3, 5):
        assert signature(positive_word(n)).total == n


def test_separating_pair_word():
    trace = signature(delta_pair_word())
    assert trace.total == -1
    assert tuple(s.sigma for s in trace.steps) == (0, 1)
    # second step: (Id - Phi_2) x = delta pins x = (0, 0, 0, -1/2)
    assert trace.steps[1].witness == (0, 0, 0, Fraction(-1, 2))


def test_matsumoto_word_ladder():
    assert signature(matsumoto_word()).total == 0
    assert signature(matsumoto_word(2)).total == -4
    assert signature(matsumoto_word(3)).total == -8
    assert signature(matsumoto_word(5)).total == -12
    assert signature(matsumoto_word(10)).total == -24


def test_chain_word_ladder():
    assert signature(chain_word()).total == 0
    assert signature(chain_word(2)).total == -3
    assert signature(chain_word(4)).total == -7


def test_single_cycle_base_cases():
    for g in (1, 2, 3):
        surf = Surface(g, 0)
        dim = 2 * g
        nonsep = [0] * dim
        nonsep[0] = 1
        assert signature(word(surf, [nonsep])).total == 0
        assert signature(word(surf, [[0] * dim])).total == -1
        assert signature(word(surf, [[0] * dim], [-1])).total == 1


def test_null_homologous_steps_in_trace():
    trace = signature(word(Surface(1, 0), [[0, 0], [1, 0], [0, 0]], [1, 1, -1]))
    assert trace.null_homologous_count == 2
    nulls = [trace.steps[0], trace.steps[2]]
    for s in nulls:
        assert s.solvable and s.sigma == 0 and s.witness is None
    assert trace.total == -1 + 1  # right null costs -1, left null +1


def test_mirror_involution_negates_totals():
    for factory in FIXTURE_WORDS.values():
        w = factory()
        assert signature(mirror(w)).total == -signature(w).total
    rng = random.Random(61)
    for _ in range(15):
        w = random_word(rng, rng.choice([1, 2]), 6, chiral_only=False)
        assert signature(mirror(w)).total == -signature(w).total


def test_trace_internal_consistency():
    rng = random.Random(62)
    words = [factory() for factory in FIXTURE_WORDS.values()]
    words += [random_word(rng, 2, 6, chiral_only=False) for _ in range(5)]
    for w in words:
        trace = signature(w)
        assert len(trace.steps) == len(w)
        recomputed = -sum(s.cycle.chirality * s.sigma for s in trace.steps)
        recomputed -= sum(c.chirality for c in w.cycles if c.is_null_homologous)
        assert trace.total == recomputed
        for k, s in enumerate(trace.steps, start=1):
            assert s.index == k
            assert s.cumulative_action == word_action(w, k)
            if s.witness is not None:
                lhs = (Matrix.identity(w.space.dim) - s.cumulative_action).apply(s.witness)
                assert lhs == s.cycle.vector()


def test_maslov_route_agrees_on_fixtures():
    for factory in FIXTURE_WORDS.values():
        w = factory()
        for k in range(1, len(w) + 1):
            assert local_sigma(w, k).sigma == local_sigma_via_maslov(w, k)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_maslov_route_agrees_on_random_words(seed):
    rng = random.Random(seed)
    w = random_word(rng, rng.choice([1, 2]), 5, chiral_only=False)
    k = rng.randint(1, len(w))
    assert local_sigma(w, k).sigma == local_sigma_via_maslov(w, k)


def test_sigma_independent_of_solution_choice():
    from lefsig.ratlinalg import kernel_basis, sign, vec_add, vec_scale

    rng = random.Random(63)
    checked = 0
    for factory in FIXTURE_WORDS.values():
        w = factory()
        space = w.space
        for k in range(1, len(w) + 1):
            s = local_sigma(w, k)
            if s.witness is None:
                continue
            system = Matrix.identity(space.dim) - s.cumulative_action
            for vec in kernel_basis(system):
                for _ in range(3):
                    shifted = vec_add(s.witness,
                                      vec_scale(Fraction(rng.randint(-5, 5)), vec))
                    q = space.pairing(s.cycle.vector(), shifted)
                    assert sign(1 + s.cycle.chirality * q) == s.sigma
                    checked += 1
    assert checked > 0


def test_dual_preservation_shortcut():
    for factory in (matsumoto_word, chain_word):
        w = factory()
        for k in range(1, len(w) + 1):
            assert shortcut_dual_preserved(w, k)
    w = positive_word()
    assert shortcut_dual_preserved(w, 1)
    assert shortcut_dual_preserved(w, 2)
    assert not shortcut_dual_preserved(w, 3)


def test_shortcut_forces_zero_sigma():
    rng = random.Random(64)
    hits = 0
    for _ in range(30):
        w = random_word(rng, rng.choice([1, 2]), 5, chiral_only=False)
        for k in range(1, len(w) + 1):
            if w.cycles[k - 1].is_null_homologous:
                continue
            if shortcut_dual_preserved(w, k):
                assert local_sigma(w, k).sigma == 0
                hits += 1
    assert hits > 5


def test_shortcut_rejects_null_cycle():
    w = word(Surface(1, 0), [[0, 0]])
    with pytest.raises(InputError, match="non-null"):
        shortcut_dual_preserved(w, 1)


def test_split_check_and_additivity():
    # a word acting trivially on homology is additive across every split
    w = matsumoto_word(10)
    assert word_action(w) == Matrix.identity(4)
    total = signature(w).total
    for split in (0, 4, 11, 20, 40):
        prefix = w.subword(0, split)
        suffix = w.subword(split, len(w))
        assert signature(prefix).total + signature(suffix).total == total


def test_split_defect_formula():
    # signature(w) = signature(prefix) + signature(suffix)
    #                - defect(action(suffix), action(prefix))  at every split
    rng = random.Random(65)
    for _ in range(10):
        w = random_word(rng, rng.choice([1, 2]), 7, chiral_only=False)
        full = signature(w).total
        for split in range(len(w) + 1):
            prefix = w.subword(0, split)
            suffix = w.subword(split, len(w))
            defect = fiber_sum_defect(
                w.space, word_action(suffix), word_action(prefix))
            assert full == signature(prefix).total + signature(suffix).total - defect


def test_cold_local_sigma_on_ten_thousand_cycles():
    # phi has order 10, so Phi_9999 = phi^9 * T_3 T_2 T_1 equals Phi_39 of matsumoto x10
    step = local_sigma(matsumoto_word(2500), 10_000)
    short = local_sigma(matsumoto_word(10), 40)
    assert (step.sigma, step.witness, step.cumulative_action) == (
        short.sigma, short.witness, short.cumulative_action)


def test_step_index_validation():
    w = positive_word()
    for k in (0, 4, -1):
        with pytest.raises(InputError, match="out of range"):
            local_sigma(w, k)
        with pytest.raises(InputError, match="out of range"):
            local_sigma_via_maslov(w, k)


def test_empty_word_has_zero_signature():
    trace = signature(word(Surface(2, 0), []))
    assert trace.total == 0
    assert trace.steps == ()
