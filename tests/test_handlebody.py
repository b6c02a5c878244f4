"""The signature from the handlebody, a route that shares no code with lefsig.

`oracles.handle_signature` reads only the word's cycles and chiralities and
takes the signature of the bordered intersection form of the fibration's
handlebody over D^2 by its own Fraction congruence.  It never builds a prefix
action, solves a step or forms Meyer's form, so a fault in the prefix sweep,
the step's sign or the null-cycle count shows against it.

On a bordered fiber the word lives in H_1 of the closed surface of genus
g + b - 1 that capping the boundary gives.  That map is injective on H_1 and
keeps intersection numbers, so ker Gamma and the form on it are unchanged:
the capped signature is the bordered one.
"""

import random
from math import gcd

from lefsig import MonodromyWord, Surface, VanishingCycle, signature
from lefsig.cli import parse_fibration_document

from .fixtures import DATA_DIR
from .oracles import handle_signature

DOCUMENTS = ("chain_relation", "matsumoto", "parallel_twist_pair", "positive_g1")


def _random_word(rng: random.Random) -> MonodromyWord:
    """Dense cycles on genus 1-3 with 0-2 boundary components, some null, some
    twice a class, about a third of them left-handed."""
    surface = Surface(rng.randint(1, 3), rng.randint(0, 2))
    dim = 2 * surface.half_dim
    cycles = []
    for _ in range(rng.randint(3, 10)):
        roll = rng.random()
        if roll < 0.08:
            vector = (0,) * dim
        else:
            vector = tuple(rng.choice((0, 0, 1, 1, -1, 2)) for _ in range(dim))
            if roll > 0.9:
                vector = tuple(2 * x for x in vector)
        cycles.append(VanishingCycle(vector, rng.choice((1, 1, -1))))
    return MonodromyWord(surface, cycles)


def _one_handle_word(rng: random.Random, genus: int, handles: int, length: int) -> MonodromyWord:
    """`length` cycles at high genus, each on a single handle among `handles`."""
    chosen = rng.sample(range(genus), handles)
    cycles = []
    for _ in range(length):
        h = rng.choice(chosen)
        pair = (rng.choice((1, 2, -1)), rng.choice((0, 1, -1, 3)))
        vector = [0] * (2 * genus)
        vector[2 * h:2 * h + 2] = pair
        cycles.append(VanishingCycle(tuple(vector), rng.choice((1, 1, -1))))
    return MonodromyWord(Surface(genus, 0), cycles)


def test_signature_matches_the_handlebody():
    rng = random.Random(1)
    words = [_random_word(rng) for _ in range(70)]
    high_genus = _one_handle_word(rng, 40, 4, 16)
    documents = [parse_fibration_document((DATA_DIR / f"{name}.json").read_text()).word
                 for name in DOCUMENTS]
    words += [high_genus, *documents]
    totals = []
    for w in words:
        total = signature(w).total
        assert handle_signature(w) == total, w
        totals.append(total)
    # the families the test must reach, so that no sign or count goes unseen
    assert any(w.surface.boundary for w in words)
    cycles = [c for w in words for c in w.cycles]
    assert any(c.is_null_homologous for c in cycles)
    assert any(c.chirality == -1 for c in cycles)
    assert any(gcd(*c.homology_class) > 1 for c in cycles)  # non-primitive classes
    assert sum(map(bool, totals)) > len(totals) // 2
    assert signature(high_genus).total != 0
