"""Derive the three-chain vanishing-cycle vectors shipped in the fixtures.

A chain of three curves a, b, c on a genus-one fiber with two boundary
components (closed up: genus two) satisfies |Q(a,b)| = |Q(b,c)| = 1 and
Q(a,c) = 0, and the fourth power of its twist product equals the product
of the two boundary twists.  On homology both boundary curves become the
same separating class delta = (0,0,1,0), so the target matrix is the
square of the delta transvection.

Search: all integer vectors with entries in [-radius, radius], filtered
by the chain intersection pattern, then by (T_c T_b T_a)^4 = target.
Neither the pattern nor a transvection (T_v = T_-v) changes when a vector
flips sign, so the search runs over one sign-normalized vector per line
(first nonzero entry positive) and every chain it finds is already
normalized.  Chains are filtered to those where every prefix action
preserves a dual of the next vector, and the lexicographically first
survivor is the frozen fixture.

Usage: python scripts/derive_chain_vectors.py [--radius 1]
"""

import argparse
import itertools
import sys

from lefsig import (
    Surface,
    SymplecticSpace,
    VanishingCycle,
    cover_signature,
    shortcut_dual_preserved,
    signature,
    transvection,
    word,
    word_action,
)

SURFACE = Surface(1, 2)
SPACE = SymplecticSpace(SURFACE.half_dim)
DELTA = (0, 0, 1, 0)
_T_DELTA = transvection(VanishingCycle(DELTA))
TARGET = _T_DELTA @ _T_DELTA


def search(radius):
    entries = range(-radius, radius + 1)
    vecs = [v for v in itertools.product(entries, repeat=SPACE.dim) if any(v)]
    print(f"radius {radius}: {len(vecs)} candidate vectors")
    lines = [v for v in vecs if next(x for x in v if x) > 0]
    tvs = {v: transvection(VanishingCycle(v)) for v in lines}
    q = SPACE.pairing

    found = set()
    for a in lines:
        for b in lines:
            if abs(q(a, b)) != 1:
                continue
            t_ba = tvs[b] @ tvs[a]
            for c in lines:
                if q(a, c) != 0 or abs(q(b, c)) != 1:
                    continue
                m = tvs[c] @ t_ba
                m2 = m @ m
                if m2 @ m2 == TARGET:
                    found.add((a, b, c))
    print(f"chains with fourth power equal to the boundary action: {len(found)}")

    survivors = []
    for cand in sorted(found):
        w = word(SURFACE, cand)
        if all(shortcut_dual_preserved(w, k) for k in range(1, len(w) + 1)):
            survivors.append(cand)
    print(f"with a preserved dual at every step: {len(survivors)}")
    return survivors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--radius", type=int, default=1)
    args = parser.parse_args()

    survivors = search(args.radius)
    if not survivors:
        print("no solutions at this radius")
        return
    frozen = survivors[0]
    print(f"frozen (lex-first): {frozen}")

    w = word(SURFACE, frozen)
    base = signature(w).total
    action = word_action(w)
    print(f"exact check: word signature {base}, per-step sigmas "
          f"{[s.sigma for s in signature(w).steps]}")
    for n in (2, 4):
        via_word = signature(w.repeated(n)).total
        via_cover = cover_signature(base, action, n)
        print(f"  n={n}: repeated word {via_word}, cover formula {via_cover}")
        if via_word != via_cover:
            sys.exit(f"n={n}: repeated word {via_word} != cover formula {via_cover}")
    pair = signature(word(SURFACE, [DELTA, DELTA])).total
    print(f"two separating boundary twists: {pair}; "
          f"chain fourth power minus that: {signature(w.repeated(4)).total - pair}")


if __name__ == "__main__":
    main()
