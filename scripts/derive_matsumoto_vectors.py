"""Derive the genus-2 vanishing-cycle vectors shipped in the fixtures.

The order-ten matrix phi (the homology action behind the matsumoto word)
is the target; the search looks for four integer vectors whose transvection
product T4 T3 T2 T1 equals it.  Meet-in-the-middle over all vectors with
entries in [-radius, radius]: hash T4 T3 products, scan T2 T1 pairs.

A transvection only sees the line through its vector (T_v = T_-v), so the
search runs over one sign-normalized vector per line (first nonzero entry
positive): half the candidates, and every tuple it finds is already
normalized.  Tuples are filtered down to those where every prefix action
preserves a dual of the next vector (which pins every per-step sigma at
zero, as for the actual vanishing cycles of this fibration), and the
lexicographically first survivor is the frozen fixture.  Rerunning this
script reproduces it bit for bit.

Usage: python scripts/derive_matsumoto_vectors.py [--radius 1]
"""

import argparse
import itertools
import sys

from lefsig import (
    Matrix,
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

SURFACE = Surface(2, 0)
SPACE = SymplecticSpace(SURFACE.half_dim)
PHI = Matrix.from_rows([[0, 1, 0, -1], [-1, 0, 0, 0], [1, 0, 1, 1], [-1, 0, -1, 0]])


def search(radius):
    entries = range(-radius, radius + 1)
    vecs = [v for v in itertools.product(entries, repeat=SPACE.dim) if any(v)]
    print(f"radius {radius}: {len(vecs)} candidate vectors")
    lines = [v for v in vecs if next(x for x in v if x) > 0]
    tvs = [transvection(VanishingCycle(v)) for v in lines]
    # (T2 T1)^-1 = T1^-1 T2^-1, each factor the left-handed twist
    inverses = [transvection(VanishingCycle(v, -1)) for v in lines]

    right = {}
    for i3, t3 in enumerate(tvs):
        for i4, t4 in enumerate(tvs):
            right.setdefault(t4 @ t3, []).append((i3, i4))

    found = set()
    for i1, inv1 in enumerate(inverses):
        phi_inv1 = PHI @ inv1
        for i2, inv2 in enumerate(inverses):
            for i3, i4 in right.get(phi_inv1 @ inv2, []):
                found.add(tuple(lines[i] for i in (i1, i2, i3, i4)))
    print(f"tuples with transvection product equal to phi: {len(found)}")

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
    action = word_action(w)
    if action != PHI:
        sys.exit("the frozen word's action is not the Matsumoto monodromy PHI")
    base = signature(w).total
    print(f"exact check: word signature {base}, per-step sigmas "
          f"{[s.sigma for s in signature(w).steps]}")
    for n in (2, 4, 5, 10):
        via_word = signature(w.repeated(n)).total
        via_cover = cover_signature(base, action, n)
        print(f"  n={n:>2}: repeated word {via_word}, cover formula {via_cover}")
        if via_word != via_cover:
            sys.exit(f"n={n}: repeated word {via_word} != cover formula {via_cover}")


if __name__ == "__main__":
    main()
