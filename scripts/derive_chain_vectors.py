"""Derive the three-chain vanishing-cycle vectors shipped in the fixtures.

A chain of three curves a, b, c on a genus-one fiber with two boundary
components (closed up: genus two) satisfies |Q(a,b)| = |Q(b,c)| = 1 and
Q(a,c) = 0, and the fourth power of its twist product equals the product
of the two boundary twists.  On homology both boundary curves become the
same separating class delta = (0,0,1,0), so the target matrix is the
square of the delta transvection.

Search: all integer vectors with entries in [-radius, radius], filtered
by the chain intersection pattern, then by (T_c T_b T_a)^4 = target.
Tuples are sign-normalized, filtered to those where every prefix action
preserves a dual of the next vector, and the lexicographically first
survivor is the frozen fixture.

Usage: python scripts/derive_chain_vectors.py [--radius 1]
"""

import argparse
import itertools

import numpy as np

from lefsig import Surface, cover_signature, signature, word, word_action
from lefsig.ratlinalg import particular_solution

N = 4
J = np.zeros((N, N), dtype=np.int64)
for i in range(N // 2):
    J[2 * i, 2 * i + 1] = 1
    J[2 * i + 1, 2 * i] = -1

# square of the transvection along (0, 0, 1, 0)
TARGET = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]],
                  dtype=np.int64)


def transvection(g):
    return np.eye(N, dtype=np.int64) - np.outer(g, J @ g)


def qpair(a, b):
    return int(a @ (J @ b))


def normalize(v):
    first = next(x for x in v if x != 0)
    return tuple(int(x) for x in (v if first > 0 else -v))


def dual_preserved(gamma, phi_prev):
    rows = [[int(x) for x in row] + [0] for row in (phi_prev - np.eye(N, dtype=np.int64))]
    rows.append([int(x) for x in (J @ gamma)] + [1])
    return particular_solution(rows, N) is not None


def search(radius):
    entries = range(-radius, radius + 1)
    vecs = [np.array(v, dtype=np.int64)
            for v in itertools.product(entries, repeat=N)]
    vecs = [v for v in vecs if v.any()]
    print(f"radius {radius}: {len(vecs)} candidate vectors")

    found = set()
    for a in vecs:
        for b in vecs:
            if abs(qpair(a, b)) != 1:
                continue
            t_ba = transvection(b) @ transvection(a)
            for c in vecs:
                if qpair(a, c) != 0 or abs(qpair(b, c)) != 1:
                    continue
                m = transvection(c) @ t_ba
                if (np.linalg.matrix_power(m, 4) == TARGET).all():
                    found.add((normalize(a), normalize(b), normalize(c)))
    print(f"chains with fourth power equal to the boundary action: {len(found)}")

    survivors = []
    for cand in sorted(found):
        phi_prev = np.eye(N, dtype=np.int64)
        ok = True
        for v in cand:
            arr = np.array(v, dtype=np.int64)
            if not dual_preserved(arr, phi_prev):
                ok = False
                break
            phi_prev = transvection(arr) @ phi_prev
        if ok:
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

    w = word(Surface(1, 2), [list(v) for v in frozen])
    base = signature(w).total
    action = word_action(w)
    print(f"exact check: word signature {base}, per-step sigmas "
          f"{[s.sigma for s in signature(w).steps]}")
    for n in (2, 4):
        via_word = signature(w.repeated(n)).total
        via_cover = cover_signature(base, action, n)
        print(f"  n={n}: repeated word {via_word}, cover formula {via_cover}")
        assert via_word == via_cover
    pair = signature(word(Surface(1, 2), [[0, 0, 1, 0], [0, 0, 1, 0]])).total
    print(f"two separating boundary twists: {pair}; "
          f"chain fourth power minus that: {signature(w.repeated(4)).total - pair}")


if __name__ == "__main__":
    main()
