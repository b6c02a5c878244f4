"""Sweep the positive-signature family and watch the two computation routes agree.

For each repetition count n the engine runs the full word; the cover route
instead takes the n-fold branched cover of the single block, whose correction
terms all carry a signature-zero cone certificate.  Both must report n.

Usage: python scripts/positive_family_sweep.py [--max-n 20] [--genus 1]
"""

import argparse
import sys

from lefsig import cover_signature, generate, signature, signature_zero_certificate, word_action
from lefsig.cover import correction_terms


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=20)
    parser.add_argument("--genus", type=int, default=1)
    args = parser.parse_args()

    block = generate(args.genus, 1, 1)
    base = signature(block).total
    phi = word_action(block)
    print(f"block of {len(block)} cycles on genus {args.genus}, signature {base}")
    print(f"{'n':>3} {'engine':>7} {'cover':>6}  certificate")
    certified = True  # every m < n so far; each m is certified once, at n = m + 1
    sigs = []  # sigma(S_m) for every m < n so far, off one pass of the ladder
    terms = correction_terms(phi, args.max_n)
    for n in range(1, args.max_n + 1):
        engine_total = signature(generate(args.genus, 1, n)).total
        cover_total = cover_signature(base, phi, n)
        if n == 1:
            cert = "(no corrections)"
        elif args.genus == 1:
            # cone certificate is a 2x2 statement; higher genus falls back
            # to the diagonalization route alone
            certified &= signature_zero_certificate(phi, n - 1)[1]
            cert = "all corrections certified zero" if certified else "NOT CERTIFIED"
        else:
            sigs.append(next(terms).sigma)
            cert = ("corrections zero by diagonalization" if not any(sigs)
                    else f"nonzero corrections {sigs}")
        print(f"{n:>3} {engine_total:>7} {cover_total:>6}  {cert}")
        if not engine_total == cover_total == n:
            sys.exit(f"n={n}: engine {engine_total} and cover {cover_total} must both be {n}")


if __name__ == "__main__":
    main()
