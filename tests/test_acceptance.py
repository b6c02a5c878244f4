"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Run `pytest -v -s tests/test_acceptance.py` to see the lines; without -s
pytest shows them only for failing checks.  Randomized batteries use fixed
seeds, so every run tests the same inputs.
"""

import itertools
import random
from fractions import Fraction

from lefsig import (
    Matrix,
    Surface,
    SymplecticSpace,
    cover_signature,
    generate,
    local_sigma,
    local_sigma_via_maslov,
    map_lagrangian,
    maslov_index,
    signature,
    signature_symmetric,
    signature_zero_certificate,
    word,
    word_action,
)
from lefsig.cover import correction_terms
from lefsig.ratlinalg import sign
from lefsig.symplectic import Lagrangian, direct_sum_lagrangian

from .fixtures import (
    BLOCK_ACTION,
    DELTA_STAR,
    FIXTURE_WORDS,
    MATSUMOTO_PHI,
    chain_word,
    delta_pair_word,
    positive_word,
    random_lagrangian,
    random_symplectic,
    random_word,
)
from .oracles import kernel_basis, signature_via_charpoly


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_positive_block_signature():
    trace = signature(positive_word())
    ok = trace.total == 1
    _report(1, ok, f"three-twist genus-one word: signature {trace.total}, expected +1")


def test_criterion_02_positive_family_with_certificates():
    totals_ok = all(
        signature(generate(1, 1, n)).total == n
        for n in range(1, 21)
    )
    corrections_ok = True
    for term in correction_terms(BLOCK_ACTION, 20):
        total, member = signature_zero_certificate(BLOCK_ACTION, term.power)
        if term.sigma != 0 or not member or total != term.matrix:
            corrections_ok = False
    ok = totals_ok and corrections_ok
    _report(2, ok, "family signature n for n=1..20; corrections m<=19 zero by "
                   "diagonalization and by cone certificate")


def test_criterion_03_matsumoto_cover_ladder():
    got = {n: cover_signature(0, MATSUMOTO_PHI, n) for n in (2, 4, 5, 10)}
    want = {2: -4, 4: -8, 5: -12, 10: -24}
    _report(3, got == want, f"cover signatures from the order-ten matrix: {got}")


def test_criterion_04_separating_twists_vs_chain():
    corr = next(correction_terms(DELTA_STAR, 2)).sigma
    pair = signature(delta_pair_word()).total
    chain4 = signature(chain_word(4)).total
    ok = corr == 1 and pair == -1 and chain4 == -7 and chain4 - pair == -6
    _report(4, ok, f"separating-twist correction {corr} (want 1), twist-pair word "
                   f"{pair} (want -1), chain fourth power {chain4} (want -7), "
                   f"difference {chain4 - pair} (want -6)")


def test_criterion_05_single_cycle_base_cases():
    ok = True
    for g in (1, 2, 3):
        surf = Surface(g, 0)
        dim = 2 * g
        nonsep = [0] * dim
        nonsep[0] = 1
        if signature(word(surf, [nonsep])).total != 0:
            ok = False
        if signature(word(surf, [[0] * dim])).total != -1:
            ok = False
    _report(5, ok, "single non-null cycle gives 0 and single null cycle gives -1 "
                   "in dimensions 2, 4, 6")


def test_criterion_06_two_route_step_equivalence():
    rng = random.Random(1106)
    mismatches = 0
    steps = 0
    words = [factory() for factory in FIXTURE_WORDS.values()]
    words += [random_word(rng, rng.choice([1, 2, 3]), 10, spread=2,
                          chiral_only=False) for _ in range(200)]
    for w in words:
        for k in range(1, len(w) + 1):
            steps += 1
            if local_sigma(w, k).sigma != local_sigma_via_maslov(w, k):
                mismatches += 1
    _report(6, mismatches == 0,
            f"direct solve vs Lagrangian-triple route: {mismatches} mismatches "
            f"over {steps} steps (4 fixture words + 200 random words)")


def test_criterion_07_repeat_vs_cover_consistency():
    mismatches = 0
    for factory in FIXTURE_WORDS.values():
        w = factory()
        base = signature(w).total
        phi = word_action(w)
        for n in range(1, 6):
            if signature(w.repeated(n)).total != cover_signature(base, phi, n):
                mismatches += 1
    _report(7, mismatches == 0,
            f"word repetition vs branched-cover formula: {mismatches} mismatches "
            f"over 4 words x n=1..5")


def test_criterion_08_maslov_axioms():
    plane = SymplecticSpace(1)
    norm = maslov_index(Lagrangian(plane, [(1, 0)]),
                        Lagrangian(plane, [(1, 1)]),
                        Lagrangian(plane, [(0, 1)]))
    failures = 0 if norm == -1 else 1
    rng = random.Random(1108)
    even = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    triples = 0
    for half in (1, 2):
        space = SymplecticSpace(half)
        for _ in range(100):
            lags = [random_lagrangian(rng, space) for _ in range(3)]
            tau = maslov_index(*lags)
            triples += 1
            for perm in itertools.permutations(range(3)):
                expected = tau if perm in even else -tau
                if maslov_index(*(lags[i] for i in perm)) != expected:
                    failures += 1
            m = random_symplectic(rng, space)
            if maslov_index(*(map_lagrangian(m, l) for l in lags)) != tau:
                failures += 1
            doubled = [direct_sum_lagrangian(l, l) for l in lags]
            if maslov_index(*doubled) != 2 * tau:
                failures += 1
    _report(8, failures == 0,
            f"normalization -1, antisymmetry, invariance, additivity: "
            f"{failures} failures over {triples} random triples")


def test_criterion_09_witness_choice_independence():
    rng = random.Random(1109)
    disagreements = 0
    checked_steps = 0
    for factory in FIXTURE_WORDS.values():
        for n in (1, 2):
            w = factory().repeated(n)
            space = w.space
            for k in range(1, len(w) + 1):
                step = local_sigma(w, k)
                if step.witness is None:
                    continue
                checked_steps += 1
                system = Matrix.identity(space.dim) - step.cumulative_action
                kernel = kernel_basis(system)
                gamma = step.cycle.homology_class
                for _ in range(10):
                    x = step.witness
                    for v in kernel:
                        c = Fraction(rng.randint(-9, 9))
                        x = tuple(a + c * b for a, b in zip(x, v))
                    q = space.pairing(gamma, x)
                    if sign(1 + step.cycle.chirality * q) != step.sigma:
                        disagreements += 1
    _report(9, disagreements == 0 and checked_steps > 0,
            f"sigma stable under kernel perturbations of the step solution: "
            f"{disagreements} disagreements over {checked_steps} solvable steps "
            f"x 10 perturbations")


def _random_invertible(rng: random.Random, n: int) -> Matrix:
    lower = [[Fraction(0)] * n for _ in range(n)]
    upper = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        lower[i][i] = Fraction(rng.choice([1, -1]))
        upper[i][i] = Fraction(rng.choice([1, -1]))
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-3, 3))
            upper[j][i] = Fraction(rng.randint(-3, 3))
    return Matrix.from_rows(lower) @ Matrix.from_rows(upper)


def test_criterion_10_signature_congruence_invariance():
    rng = random.Random(1110)
    failures = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            entries[i][i] = rng.randint(-9, 9)
            for j in range(i):
                entries[i][j] = entries[j][i] = rng.randint(-9, 9)
        m = Matrix.from_rows(entries)
        sig = signature_symmetric(m)
        p = _random_invertible(rng, n)
        if signature_symmetric(p.transpose() @ m @ p) != sig:
            failures += 1
        if signature_via_charpoly(m) != sig:
            failures += 1
    _report(10, failures == 0,
            f"congruence invariance and characteristic-polynomial agreement on "
            f"200 random symmetric matrices up to 8x8: {failures} failures")
