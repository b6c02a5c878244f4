"""The plain total by partial fiber sums: the word split over its final handle
components, each component's restricted word glued from its period.

`engine._total_and_action` is what plain `signature`, `power`'s base and
`generate`'s self-check read; the step stream and `signature(w)` stay the
reference here.  Its (total, Phi_n) must be `signature(w).total` and
`word_action(w)` on words with several final components, untouched handles,
null cycles and both chiralities, on powers u^m, on non-powers, on words
with a proper border (a period that does not divide the length), and on
non-powers whose restricted words are powers.
"""

import random
import time

from lefsig import MonodromyWord, Surface, VanishingCycle, generate, signature, word, word_action
from lefsig.engine import _period, _total_and_action


def _cycle_on(rng: random.Random, genus: int, handles: list[int]) -> tuple[int, ...]:
    """A random class supported on some of `handles`, or the null class."""
    v = [0] * (2 * genus)
    if rng.random() < 0.12:
        return tuple(v)
    for t in rng.sample(handles, rng.randint(1, len(handles))):
        while not (v[2 * t] or v[2 * t + 1]):
            v[2 * t], v[2 * t + 1] = rng.randint(-2, 2), rng.randint(-2, 2)
    return tuple(v)


def _component_word(rng: random.Random, seen: set[str]):
    """Disjoint blocks of one or two handles, some left untouched; each block
    gets a base word repeated 1-4 times, sometimes with a proper prefix of the
    base after it, and the blocks' cycles are interleaved with their order kept."""
    genus = rng.randint(1, 6)
    handles = rng.sample(range(genus), genus)
    blocks = []
    while handles:
        blocks.append(sorted(handles[:rng.randint(1, 2)]))
        del handles[:len(blocks[-1])]
    if len(blocks) > 1 and rng.random() < 0.5:
        blocks.pop(rng.randrange(len(blocks)))  # its handles stay untouched
        seen.add("untouched handles")
    streams = []
    for block in blocks:
        base = [(_cycle_on(rng, genus, block), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 4))]
        stream = base * rng.randint(1, 4)
        if rng.random() < 0.3:
            stream += base[:rng.randint(1, len(base))]
        streams.append(stream)
    if sum(any(any(v) for v, _ in stream) for stream in streams) > 1:
        seen.add("several components")
    cycles = []
    while any(streams):
        stream = rng.choice([s for s in streams if s])
        cycles.append(stream.pop(0))
    w = word(Surface(genus, 0), [v for v, _ in cycles], [c for _, c in cycles])
    live = [c for c in w.cycles if any(c.homology_class)]
    if len(live) < len(w):
        seen.add("null cycles")
    if {c.chirality for c in w.cycles} == {1, -1}:
        seen.add("both chiralities")
    if len({i >> 1 for c in live for i, x in enumerate(c.homology_class) if x}) < genus:
        seen.add("untouched handles")
    return w


def test_the_route_gives_the_step_total_and_the_word_action():
    rng, seen = random.Random(41), set()
    for _ in range(300):
        w = _component_word(rng, seen)
        keys = [(c.homology_class, c.chirality) for c in w.cycles]
        if keys and _period(keys) < len(keys):
            seen.add("a power")
        elif keys:
            seen.add("not a power")
        assert _total_and_action(w) == (signature(w).total, word_action(w)), w
    assert seen == {"several components", "untouched handles", "null cycles", "both chiralities",
                    "a power", "not a power"}


def test_powers_up_to_seventy_and_words_with_a_border():
    rng = random.Random(42)
    for m in range(1, 71):
        # two components, each a power on its own, a null cycle and both chiralities
        u = word(Surface(3, 0), [(1, 2, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (0, 0, 1, -1, 0, 1),
                                 (-1, 1, 0, 0, 0, 0), (0, 0, 2, 1, 1, 0)], (1, -1, -1, 1, -1))
        bordered = MonodromyWord(u.surface, u.cycles * m + u.cycles[:2])
        for w in (u.repeated(m), bordered) if m % 7 == 1 else (u.repeated(m),):
            assert _total_and_action(w) == (signature(w).total, word_action(w)), (m, len(w))
    for _ in range(40):  # the restricted words are powers, the whole word is not
        a = [VanishingCycle((rng.randint(-2, 2), rng.randint(1, 2), 0, 0), rng.choice((1, -1)))
             for _ in range(rng.randint(1, 3))]
        b = [VanishingCycle((0, 0, rng.randint(1, 2), rng.randint(-2, 2)), rng.choice((1, -1)))
             for _ in range(rng.randint(1, 3))]
        streams, cycles = [a * rng.randint(2, 6), b * rng.randint(2, 6)], []
        while any(streams):
            cycles.append(rng.choice([s for s in streams if s]).pop(0))
        w = MonodromyWord(Surface(2, 0), cycles)
        assert _total_and_action(w) == (signature(w).total, word_action(w))


def test_period_is_the_smallest_one_that_divides_the_length():
    assert [_period(s) for s in ("a", "aa", "ab", "abab", "ababa", "abcabc", "aabaab", "abaaba",
                                 "abcab", "aaaab")] == [1, 1, 2, 2, 5, 3, 3, 3, 5, 5]


def test_a_one_handle_word_at_genus_500():
    rng = random.Random(43)
    genus, vectors, chis = 500, [], []
    for _ in range(1500):
        v, t = [0] * (2 * genus), rng.randrange(genus)
        v[2 * t], v[2 * t + 1] = rng.randint(-3, 3), rng.randint(-3, 3)
        vectors.append(v)
        chis.append(rng.choice((1, -1)))
    w = word(Surface(genus, 0), vectors, chis)
    start = time.perf_counter()
    total, _ = _total_and_action(w)
    assert time.perf_counter() - start < 2
    by_handle: dict[int, list[VanishingCycle]] = {}
    nulls = 0
    for c in w.cycles:
        if not any(c.homology_class):
            nulls += c.chirality
            continue
        t = next(i for i, x in enumerate(c.homology_class) if x) // 2
        restricted = VanishingCycle(c.homology_class[2 * t:2 * t + 2], c.chirality)
        by_handle.setdefault(t, []).append(restricted)
    assert nulls != 0 and len(by_handle) > 400
    restricted = sum(signature(MonodromyWord(Surface(1, 0), cs)).total
                     for cs in by_handle.values())
    assert total == restricted - nulls


def test_the_generated_family_at_genus_200():
    w = generate(200, 0, 100)
    assert _total_and_action(w) == (100, word_action(w))
