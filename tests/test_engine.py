"""Per-cycle signature algorithm: golden words, invariants, cross-checks."""

from fractions import Fraction
from math import gcd
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
    transvection,
    word,
    word_action,
)
from lefsig.engine import _readouts, _record
from lefsig.ratlinalg import vec_dot

from .fixtures import (
    FIXTURE_WORDS,
    chain_word,
    delta_pair_word,
    matsumoto_word,
    positive_word,
    random_word,
    stream_word,
)
from .oracles import fraction_solve, reference_shortcut_dual_preserved


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
                fixed = Matrix.identity(w.space.dim) - s.cumulative_action
                lhs = tuple(vec_dot(row, s.witness) for row in fixed.entries)
                assert lhs == s.cycle.homology_class


def test_stream_trace_and_random_access_agree():
    """`signature` makes one `_record` per readout of the step stream, without
    building the word's one kept sweep; `local_sigma` builds it on demand,
    n + 1 pairs (Phi_k, I_k), and gives the same records."""
    rng = random.Random(28)
    words = [word(Surface(2, 1), [])] + [stream_word(rng) for _ in range(60)]
    seen = {"null": 0, "repeated": 0, "non-primitive": 0, "left": 0}
    for w in words:
        streamed = tuple(_record(*step) for step in _readouts(w))
        trace = signature(w)
        assert "_sweep" not in w.__dict__
        assert streamed == trace.steps
        # signature = - sum_k c_k sigma_k - sum over null-homologous k of c_k
        assert trace.total == (-sum(s.cycle.chirality * s.sigma for s in streamed)
                               - sum(s.cycle.chirality for s in streamed
                                     if s.cycle.is_null_homologous))
        assert trace.steps == tuple(local_sigma(w, k) for k in range(1, len(w) + 1))
        if len(w):
            assert len(w.__dict__["_sweep"]) == len(w) + 1
        vectors = [c.homology_class for c in w.cycles]
        seen["null"] += any(not any(v) for v in vectors)
        seen["repeated"] += len(set(vectors)) < len(vectors)
        seen["non-primitive"] += any(any(v) and gcd(*v) > 1 for v in vectors)
        seen["left"] += any(c.chirality == -1 for c in w.cycles)
    assert all(n >= 10 for n in seen.values()), seen


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
    from lefsig.ratlinalg import sign

    from .oracles import kernel_basis

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
                    c = Fraction(rng.randint(-5, 5))
                    shifted = tuple(a + c * b for a, b in zip(s.witness, vec))
                    q = space.pairing(s.cycle.homology_class, shifted)
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


def test_shortcut_matches_stacked_reference():
    """The int elimination of the shortcut against the stacked Fraction
    one, on every non-null step of random genus 1-4 words of both chiralities
    with repeated and cancelling cycles."""
    rng = random.Random(1907)
    outcomes = {True: 0, False: 0}
    for _ in range(60):
        genus = rng.randint(1, 4)
        cycles: list[tuple[list[int], int]] = []
        for _ in range(rng.randint(1, 8)):
            roll = rng.random()
            if roll < 0.2 and cycles:
                cycles.append(rng.choice(cycles))  # repeated
            elif roll < 0.35 and cycles:
                g, c = cycles[-1]
                cycles.append((g, -c))  # cancelling
            else:
                g = [rng.randint(-2, 2) for _ in range(2 * genus)]
                cycles.append((g, rng.choice((1, -1))))
        w = word(Surface(genus, 0), [g for g, _ in cycles], [c for _, c in cycles])
        for k in range(1, len(w) + 1):
            if w.cycles[k - 1].is_null_homologous:
                continue
            got = shortcut_dual_preserved(w, k)
            assert got == reference_shortcut_dual_preserved(w, k), (cycles, k)
            outcomes[got] += 1
    assert all(outcomes.values()), outcomes


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
        prefix = MonodromyWord(w.surface, w.cycles[:split])
        suffix = MonodromyWord(w.surface, w.cycles[split:])
        assert signature(prefix).total + signature(suffix).total == total


def test_split_defect_formula():
    # signature(w) = signature(prefix) + signature(suffix)
    #                - defect(action(suffix), action(prefix))  at every split
    rng = random.Random(65)
    for _ in range(10):
        w = random_word(rng, rng.choice([1, 2]), 7, chiral_only=False)
        full = signature(w).total
        for split in range(len(w) + 1):
            prefix = MonodromyWord(w.surface, w.cycles[:split])
            suffix = MonodromyWord(w.surface, w.cycles[split:])
            defect = fiber_sum_defect(word_action(suffix), word_action(prefix))
            assert full == signature(prefix).total + signature(suffix).total - defect


def test_partial_fiber_sum_trees_give_the_signature():
    # the paper's decomposition, bracketed at random: a leaf twist contributes
    # -c when its cycle is null-homologous and 0 otherwise, and a node w = u v
    # (u first) glues its halves, sigma(u) + sigma(v) - defect(Phi_v, Phi_u),
    # with total action Phi_v Phi_u; the per-step route is the left comb
    rng = random.Random(66)

    def tree(w, lo, hi):
        if hi - lo == 1:
            cycle = w.cycles[lo]
            leaf = -cycle.chirality if cycle.is_null_homologous else 0
            return leaf, transvection(cycle)
        cut = rng.randint(lo + 1, hi - 1)
        (sigma_u, phi_u), (sigma_v, phi_v) = tree(w, lo, cut), tree(w, cut, hi)
        return sigma_u + sigma_v - fiber_sum_defect(phi_v, phi_u), phi_v @ phi_u

    nulls = 0
    for trial in range(150):
        genus = 1 + trial % 3
        vectors = [[rng.randint(-3, 3) for _ in range(2 * genus)]
                   for _ in range(rng.randint(1, 13))]
        if trial % 2:  # few-handle: each cycle on one handle
            for v in vectors:
                keep = rng.randrange(genus)
                v[:] = [x if i // 2 == keep else 0 for i, x in enumerate(v)]
        if trial % 3 == 0:
            vectors.insert(rng.randint(0, len(vectors)), [0] * (2 * genus))
        w = word(Surface(genus, 0), vectors, [rng.choice([1, -1]) for _ in vectors])
        nulls += any(c.is_null_homologous for c in w.cycles)
        assert tree(w, 0, len(w))[0] == signature(w).total, w
    assert nulls >= 50


def test_cold_local_sigma_on_ten_thousand_cycles():
    # phi has order 10, so Phi_9999 = phi^9 * T_3 T_2 T_1 equals Phi_39 of matsumoto x10
    step = local_sigma(matsumoto_word(2500), 10_000)
    short = local_sigma(matsumoto_word(10), 40)
    assert (step.sigma, step.witness, step.cumulative_action) == (
        short.sigma, short.witness, short.cumulative_action)


def _low_span_cycles(rng: random.Random, dim: int) -> list[tuple[list[int], int]]:
    """Dense cycles, each a combination of a few random vectors, so the word
    spans a subspace of dimension at most 4; null, repeated, cancelling and
    dependent (a combination of earlier cycles) cycles of both chiralities."""
    basis = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(1, 4))]
    cycles: list[tuple[list[int], int]] = []
    for _ in range(rng.randint(2, 8)):
        roll = rng.random()
        if roll < 0.1:
            g = [0] * dim
        elif roll < 0.2 and cycles:
            g = rng.choice(cycles)[0]
        elif roll < 0.35 and cycles:
            g, c = cycles[-1]
            cycles.append((g, -c))
            continue
        elif roll < 0.5 and len(cycles) > 1:
            (u, _), (v, _) = rng.sample(cycles, 2)
            a, b = rng.choice((1, -1, 2)), rng.choice((1, -1))
            g = [a * x + b * y for x, y in zip(u, v)]
        else:
            coeffs = [rng.randint(-2, 2) for _ in basis]
            g = [sum(t * v[i] for t, v in zip(coeffs, basis)) for i in range(dim)]
        cycles.append((g, rng.choice((1, -1))))
    return cycles


def test_step_on_spanned_rows_matches_full_dimension_solve():
    """Each step eliminates only the rows I_k of [Id - Phi_k | gamma_k], the
    pivot coordinates of gamma_1 .. gamma_k; the Fraction solve of all d rows
    must give the same solvability, sigma and witness on low-span words."""
    rng = random.Random(2022)
    kinds = {"unsolvable": 0, "null": 0, "left": 0, "restricted": 0}
    for _ in range(24):
        genus = rng.choice((8, 8, 12, 20, 40))
        dim = 2 * genus
        cycles = _low_span_cycles(rng, dim)
        w = word(Surface(genus, 0), [g for g, _ in cycles], [c for _, c in cycles])
        for step, (g, c) in zip(signature(w).steps, cycles, strict=True):
            if not any(g):
                assert (step.solvable, step.sigma, step.witness) == (True, 0, None)
                kinds["null"] += 1
                continue
            phi = step.cumulative_action.entries
            rows = [[Fraction(int(i == j) - phi[i][j]) for j in range(dim)] + [Fraction(g[i])]
                    for i in range(dim)]
            x = fraction_solve(rows, dim)
            if x is None:
                want = (False, 0, None)
            else:
                value = 1 + c * w.space.pairing(g, x)
                want = (True, (value > 0) - (value < 0), x)
            assert (step.solvable, step.sigma, step.witness) == want, (cycles, step.index)
            kinds["unsolvable"] += x is None
            kinds["left"] += c == -1
            kinds["restricted"] += len(w._sweep[step.index][1]) < dim
    assert all(kinds.values()), kinds


def test_genus_one_word_padded_to_genus_500():
    """30 cycles on one handle of a genus-500 fiber step exactly as on the
    torus: the same sigmas, and the witnesses padded with zeros."""
    rng = random.Random(500)
    vectors = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(30)]
    chiralities = [rng.choice((1, -1)) for _ in vectors]
    torus = signature(word(Surface(1, 0), vectors, chiralities))
    left, right = (0,) * 500, (0,) * 498
    wide = signature(word(Surface(500, 0), [left + v + right for v in vectors], chiralities))
    assert [s.sigma for s in wide.steps] == [s.sigma for s in torus.steps]
    assert [s.solvable for s in wide.steps] == [s.solvable for s in torus.steps]
    assert [s.witness for s in wide.steps] == [
        None if s.witness is None else left + s.witness + right for s in torus.steps]
    assert wide.total == torus.total


def test_step_index_validation():
    w = positive_word()
    for k in (0, 4, -1):
        with pytest.raises(InputError, match="out of range"):
            local_sigma(w, k)
        with pytest.raises(InputError, match="out of range"):
            local_sigma_via_maslov(w, k)


@pytest.mark.parametrize("bad", [1.0, 2.0, True, "2"])
def test_step_index_is_an_int(bad):
    w = positive_word()
    for step in (local_sigma, local_sigma_via_maslov, shortcut_dual_preserved):
        with pytest.raises(InputError, match="^k must be an integer, got "):
            step(w, bad)


def test_empty_word_has_zero_signature():
    trace = signature(word(Surface(2, 0), []))
    assert trace.total == 0
    assert trace.steps == ()
