"""Command line front end.

Subcommands:

    lefsig signature <file> [--trace] [--json]   signature of a fibration document
    lefsig power <file> --n N [--json]           branched-cover signatures
    lefsig maslov <file> [--check-axioms]        index of a Lagrangian triple
    lefsig meyer <file>                          Meyer cocycle of two matrices
    lefsig generate --genus G --boundary B --n N [--out F]
                                                 emit a positive-signature word

Fibration documents are JSON objects {"genus": g, "boundary": b, "cycles":
[{"vector": [..ints..], "chirality": +-1?}, ...], "name"?}; matrix documents
are {"dimension": d, "matrices": [[[...]], ...]} with integer or "p/q" string
entries.  Exit codes: 0 success, 2 bad input, 3 internal consistency failure.

`signature`, `power` and `generate` read the engine's stream of integer step
readouts and keep only what they print, with no record made and no witness
divided out.  `signature --json` and `power --json` write their JSON
directly, one f-string per step or correction term, byte for byte as the
standard JSON encoder lays it out at indent 2 (the golden transcript and
tests/oracles.py pin it): every value is an int, a bool, null or a witness
string of `-0-9/`, which `_quotients` writes as `str(Fraction)` would.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import permutations
from math import gcd

from ._record import _Record, _setattr
from .cover import correction_terms
from .engine import _readouts, _term
from .errors import InputError, InternalConsistencyError, _require_range
from .maslov import maslov_index, meyer_cocycle
from .positive import generate
from .ratlinalg import Matrix
from .symplectic import (
    MAX_DIMENSION,
    Lagrangian,
    MonodromyWord,
    Surface,
    SymplecticSpace,
    VanishingCycle,
    direct_sum_lagrangian,
    map_lagrangian,
    prefix_sweep,
)


class FibrationDocument(_Record):
    """A parsed fibration description: the word plus an optional label."""

    _fields = ("word", "name")

    def __init__(self, word: MonodromyWord, name: str | None = None) -> None:
        _setattr(self, "word", word)
        _setattr(self, "name", name)


def _require_keys(obj: dict, allowed: set[str], required: tuple[str, ...], what: str) -> None:
    for key in required:
        if key not in obj:
            raise InputError(f"{what}: missing field {key!r}")
    for key in obj:
        if key not in allowed:
            raise InputError(f"{what}: unknown field {key!r}")


def _load_object(text: str) -> dict:
    try:
        obj = json.loads(text)
    # JSONDecodeError, an int past the digit limit, or nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("document must be a JSON object")
    return obj


def parse_fibration_document(text: str) -> FibrationDocument:
    obj = _load_object(text)
    _require_keys(obj, {"name", "genus", "boundary", "cycles"},
                  ("genus", "boundary", "cycles"), "document")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError("document: name must be a string")
    surface = Surface(obj["genus"], obj["boundary"])
    if not isinstance(obj["cycles"], list):
        raise InputError("document: cycles must be a list")
    cycles = []
    for i, entry in enumerate(obj["cycles"], start=1):
        if not isinstance(entry, dict):
            raise InputError(f"cycle {i}: expected an object")
        _require_keys(entry, {"vector", "chirality"}, ("vector",), f"cycle {i}")
        if not isinstance(entry["vector"], list):
            raise InputError(f"cycle {i}: vector must be a list")
        try:
            cycles.append(VanishingCycle(entry["vector"], entry.get("chirality", 1)))
        except InputError as exc:
            raise InputError(f"cycle {i}: {exc}") from exc
    return FibrationDocument(MonodromyWord(surface, cycles), name)  # checks the lengths


def serialize_fibration_document(doc: FibrationDocument) -> str:
    """Canonical serialization: fixed key order, one cycle per line, chirality
    emitted only when -1.  parse(serialize(doc)) == doc and serialize is the
    identity on its own output, so documents have one normal form."""
    surface, chi = doc.word.surface, {1: "", -1: ', "chirality": -1'}
    name = "" if doc.name is None else f'  "name": {json.dumps(doc.name)},\n'
    cycles = ",".join(f'\n    {{"vector": {_bracket(c.homology_class)}{chi[c.chirality]}}}'
                      for c in doc.word.cycles)  # each on its own line, in `_json_list`'s layout
    return (f'{{\n{name}  "genus": {surface.genus},\n  "boundary": {surface.boundary},\n'
            f'  "cycles": [{cycles}\n  ]\n}}\n')


def parse_matrix_document(text: str, expect: int | None = None) -> tuple[int, list[Matrix]]:
    """Parse {"dimension": d, "matrices": [...]}; any number of rows (none only
    if d = 0), entries integers or "p/q" strings; `expect` pins the matrix count."""
    obj = _load_object(text)
    _require_keys(obj, {"dimension", "matrices"}, ("dimension", "matrices"), "document")
    dim = obj["dimension"]
    _require_range("dimension", dim, 0, MAX_DIMENSION)
    if dim % 2 != 0:
        raise InputError(f"dimension must be even, got {dim}")
    raw = obj["matrices"]
    if not isinstance(raw, list):
        raise InputError("matrices must be a list")
    if expect is not None and len(raw) != expect:
        raise InputError(f"expected {expect} matrices, got {len(raw)}")
    out = []
    for idx, rows in enumerate(raw, start=1):
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise InputError(f"matrix {idx}: expected a list of rows")
        if not rows and dim > 0:
            raise InputError(f"matrix {idx}: no rows")
        try:
            out.append(Matrix.from_rows(rows, dim))
        except InputError as exc:
            raise InputError(f"matrix {idx}: {exc}") from exc
    return dim, out


def _bracket(items: Iterable[object]) -> str:
    """Items as `[a, b, c]`: a document's vector, a trace's cycle or witness."""
    return "[" + ", ".join(map(str, items)) + "]"


def _read(path: str) -> str:
    if not os.path.isfile(path):
        raise InputError(f"no such file: {path}")
    try:  # RFC 8259 JSON is UTF-8, whatever the locale; a BOM stays an error
        with open(path, "rb") as f:
            return f.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc


def _json_list(items: Sequence[str], pad: str) -> str:
    """Formatted JSON values as a list in the encoder's indent-2 layout, when the
    line holding its opening bracket is indented by `pad`."""
    sep = ",\n" + pad + "  "
    return "[" + sep[1:] + sep.join(items) + "\n" + pad + "]" if items else "[]"


def _quotients(solved: tuple[int, list[int]]) -> list[str]:
    """The witness n / D entry by entry, as `str(Fraction(x, D))` writes it:
    with g = gcd(x, D), `x//D` when g == D, else `x//g/D//g`."""
    d, n = solved
    return [str(x // d) if (g := gcd(x, d)) == d else f"{x // g}/{d // g}" for x in n]


def _step_json(k: int, cycle: VanishingCycle, solvable: bool, sigma: int,
               witness: list[str] | None) -> str:
    p = " " * 6
    witness = "null" if witness is None else _json_list([f'"{x}"' for x in witness], p)
    return (f'{{\n{p}"index": {k},\n'
            f'{p}"vector": {_json_list(list(map(str, cycle.homology_class)), p)},\n'
            f'{p}"chirality": {cycle.chirality},\n'
            f'{p}"solvable": {"true" if solvable else "false"},\n'
            f'{p}"sigma": {sigma},\n{p}"witness": {witness}\n    }}')


def cmd_signature(args: argparse.Namespace) -> int:
    """Each form keeps only what it prints from the stream of readouts: the
    total; the total and one row at a time; or, since the JSON layout puts the
    total first, the total, the null count and each step's text."""
    doc = parse_fibration_document(_read(args.file))
    if not (args.json or args.trace):
        print(f"signature: {sum(_term(c, r[1]) for _, c, _, r in _readouts(doc.word))}")
        return 0
    total, nulls, texts = 0, 0, []
    # witnesses may pass CPython's int-to-str digit limit (4300 by default, none
    # before 3.10.7): lift it while they are written, never while input is parsed
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if not args.json:
            print(f"{'k':>3}  {'cycle':<24} {'chi':>3}  {'solvable':<8} {'sigma':>5}  witness")
        for k, cycle, _, (solvable, sigma, solved) in _readouts(doc.word):
            total += _term(cycle, sigma)
            nulls += cycle.is_null_homologous
            witness = None if solved is None else _quotients(solved)
            if args.json:
                texts.append(_step_json(k, cycle, solvable, sigma, witness))
                continue
            vec = _bracket(cycle.homology_class)
            print(f"{k:>3}  {vec:<24} {cycle.chirality:>+3}  {'yes' if solvable else 'no':<8} "
                  f"{sigma:>5}  {'-' if witness is None else _bracket(witness)}")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    if not args.json:
        print(f"signature: {total}")
        return 0
    write = sys.stdout.write  # `_json_list`'s layout, one step text at a time
    write(f'{{\n  "signature": {total},\n  "null_homologous_count": {nulls},\n  "steps": [')
    for i, text in enumerate(texts):
        write(",\n    " if i else "\n    ")
        write(text)
    write("\n  ]\n}\n" if texts else "]\n}\n")
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    doc = parse_fibration_document(_read(args.file))
    _require_range("--n", args.n, 1)
    base = 0
    phi = Matrix.identity(doc.word.space.dim)  # the action of the empty word
    for _, cycle, phi, readout in _readouts(doc.word):  # Phi_n is the last step's
        base += _term(cycle, readout[1])
    sigmas = [t.sigma for t in correction_terms(phi, args.n)]
    total = args.n * base - sum(sigmas)
    if args.json:
        terms = [f'{{\n      "power": {m},\n      "sigma": {s}\n    }}'
                 for m, s in enumerate(sigmas, start=1)]
        print(f'{{\n  "base_signature": {base},\n  "fold": {args.n},\n'
              f'  "corrections": {_json_list(terms, "  ")},\n  "signature": {total}\n}}')
        return 0
    print(f"base signature: {base}")
    for m, s in enumerate(sigmas, start=1):
        print(f"correction m={m}: {s}")
    print(f"signature: {total}")
    return 0


def _triple_from_file(path: str) -> tuple[SymplecticSpace, Lagrangian, Lagrangian, Lagrangian]:
    dim, mats = parse_matrix_document(_read(path), expect=3)
    space = SymplecticSpace(dim // 2)
    lags = []
    for idx, m in enumerate(mats, start=1):
        try:
            lags.append(Lagrangian(space, m.entries))
        except InputError as exc:
            raise InputError(f"matrix {idx}: {exc}") from exc
    return space, lags[0], lags[1], lags[2]


def _axiom_checks(space: SymplecticSpace, lags: tuple[Lagrangian, ...],
                  tau: int) -> Iterator[tuple[str, str, bool]]:
    """Yield (label, failure name, ok) for each axiom, checking one at a time."""
    perm_ok = True
    for order in list(permutations(range(3)))[1:]:  # the identity order is tau itself
        inversions = sum(1 for i in range(3) for j in range(i + 1, 3) if order[i] > order[j])
        expected = tau if inversions % 2 == 0 else -tau
        if maslov_index(*(lags[i] for i in order)) != expected:
            perm_ok = False
    yield "antisymmetry", "antisymmetry", perm_ok

    import random  # here, not at the top: no other command needs it at start-up

    rng = random.Random(2024)
    inv_ok = True
    for _ in range(5):
        cycles = []  # a random product of transvections, the identity in dimension 0
        for _ in range(rng.randint(1, 4) if space.dim else 0):
            vec = [rng.randint(-2, 2) for _ in range(space.dim)]
            if all(x == 0 for x in vec):
                vec[0] = 1
            cycles.append(VanishingCycle(tuple(vec), rng.choice([1, -1])))
        *_, (m, _) = prefix_sweep(space, cycles)
        if maslov_index(*(map_lagrangian(m, lag) for lag in lags)) != tau:
            inv_ok = False
    yield "symplectic invariance", "symplectic invariance", inv_ok

    summed = (direct_sum_lagrangian(lag, lag) for lag in lags)
    yield "direct-sum additivity", "additivity", maslov_index(*summed) == 2 * tau


def cmd_maslov(args: argparse.Namespace) -> int:
    space, a, b, c = _triple_from_file(args.file)
    if args.check_axioms:  # additivity sums each Lagrangian with itself, in twice the dimension
        _require_range("--check-axioms dimension", space.dim, 0, MAX_DIMENSION // 2)
    tau = maslov_index(a, b, c)
    print(f"maslov index: {tau}")
    if not args.check_axioms:
        return 0
    failures = []
    for label, name, ok in _axiom_checks(space, (a, b, c), tau):
        print(f"axiom {label}: {'pass' if ok else 'FAIL'}")
        if not ok:
            failures.append(name)
    if failures:
        raise InternalConsistencyError(f"axiom check failed: {', '.join(failures)}")
    return 0


def cmd_meyer(args: argparse.Namespace) -> int:
    dim, mats = parse_matrix_document(_read(args.file), expect=2)
    for idx, m in enumerate(mats, start=1):
        if m.rows != dim:
            raise InputError(f"matrix {idx}: expected {dim} rows, got {m.rows}")
    print(f"meyer cocycle: {meyer_cocycle(mats[0], mats[1])}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    word = generate(args.genus, args.boundary, args.n)
    text = serialize_fibration_document(FibrationDocument(word, f"positive block x{args.n}"))
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    # round-trip through the parser before certifying, as a self-check
    reparsed = parse_fibration_document(text)
    print(f"signature: {sum(_term(c, r[1]) for _, c, _, r in _readouts(reparsed.word))}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `lefsig` argument parser, built on the first call and reused.

    It holds only the fixed subcommand table, nothing derived from input, and
    never grows, so in-process callers of `main` stop rebuilding it (about
    1 ms, against 0.05 ms for `parse_args`).  Nothing builds it at import.
    """
    parser = argparse.ArgumentParser(
        prog="lefsig",
        description="Exact signatures of Lefschetz fibrations over the disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("signature", help="signature of a fibration document")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true", help="print the per-cycle table")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_signature)

    p = sub.add_parser("power", help="signatures of cyclic branched covers")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True, help="fold count")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("maslov", help="Maslov index of a Lagrangian triple")
    p.add_argument("file")
    p.add_argument("--check-axioms", action="store_true")
    p.set_defaults(func=cmd_maslov)

    p = sub.add_parser("meyer", help="Meyer cocycle of two symplectic matrices")
    p.add_argument("file")
    p.set_defaults(func=cmd_meyer)

    p = sub.add_parser("generate", help="emit a positive-signature word")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--boundary", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="block repetitions")
    p.add_argument("--out", help="write the document here instead of stdout")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
