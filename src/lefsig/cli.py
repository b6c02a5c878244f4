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
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from .cover import correction_terms
from .engine import signature
from .errors import InputError, InternalConsistencyError
from .maslov import maslov_index, meyer_cocycle
from .positive import PositiveFamilySpec, generate
from .ratlinalg import Matrix, Vector, as_rational
from .symplectic import (
    Lagrangian,
    MonodromyWord,
    Surface,
    SymplecticSpace,
    VanishingCycle,
    direct_sum_lagrangian,
    effective_dimension,
    map_lagrangian,
    transvection,
    word_action,
)


@dataclass(frozen=True)
class FibrationDocument:
    """A parsed fibration description: the word plus an optional label."""

    word: MonodromyWord
    name: str | None = None


def _require_keys(obj: dict, allowed: set[str], required: tuple[str, ...], what: str) -> None:
    for key in required:
        if key not in obj:
            raise InputError(f"{what}: missing field {key!r}")
    for key in obj:
        if key not in allowed:
            raise InputError(f"{what}: unknown field {key!r}")


def _as_int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{what}: expected an integer, got {value!r}")
    return value


def parse_fibration_document(text: str) -> FibrationDocument:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("document must be a JSON object")
    _require_keys(obj, {"name", "genus", "boundary", "cycles"},
                  ("genus", "boundary", "cycles"), "document")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError("document: name must be a string")
    genus = _as_int(obj["genus"], "genus")
    boundary = _as_int(obj["boundary"], "boundary")
    surface = Surface(genus, boundary)
    dim = effective_dimension(surface)
    if not isinstance(obj["cycles"], list):
        raise InputError("document: cycles must be a list")
    cycles = []
    for i, entry in enumerate(obj["cycles"], start=1):
        if not isinstance(entry, dict):
            raise InputError(f"cycle {i}: expected an object")
        _require_keys(entry, {"vector", "chirality"}, ("vector",), f"cycle {i}")
        vec = entry["vector"]
        if not isinstance(vec, list):
            raise InputError(f"cycle {i}: vector must be a list")
        if len(vec) != dim:
            raise InputError(
                f"cycle {i}: vector has length {len(vec)}, expected {dim} "
                f"(genus {genus}, boundary {boundary})"
            )
        ints = [_as_int(x, f"cycle {i}: vector entry") for x in vec]
        chi = entry.get("chirality", 1)
        chi = _as_int(chi, f"cycle {i}: chirality")
        if chi not in (1, -1):
            raise InputError(f"cycle {i}: chirality must be +1 or -1, got {chi}")
        cycles.append(VanishingCycle(tuple(ints), chi))
    return FibrationDocument(MonodromyWord(surface, tuple(cycles)), name)


def serialize_fibration_document(doc: FibrationDocument) -> str:
    """Canonical serialization: fixed key order, one cycle per line, chirality
    emitted only when -1.  parse(serialize(doc)) == doc and serialize is the
    identity on its own output, so documents have one normal form."""
    lines = ["{"]
    if doc.name is not None:
        lines.append(f'  "name": {json.dumps(doc.name)},')
    lines.append(f'  "genus": {doc.word.surface.genus},')
    lines.append(f'  "boundary": {doc.word.surface.boundary},')
    lines.append('  "cycles": [')
    for i, c in enumerate(doc.word.cycles):
        vec = "[" + ", ".join(str(x) for x in c.homology_class) + "]"
        chi = ', "chirality": -1' if c.chirality == -1 else ""
        comma = "," if i + 1 < len(doc.word.cycles) else ""
        lines.append(f'    {{"vector": {vec}{chi}}}{comma}')
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_matrix_document(text: str, expect: int | None = None) -> tuple[int, list[Matrix]]:
    """Parse {"dimension": d, "matrices": [...]}; rows may be any count, entries
    are integers or "p/q" strings.  `expect` pins the number of matrices."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("document must be a JSON object")
    _require_keys(obj, {"dimension", "matrices"}, ("dimension", "matrices"), "document")
    dim = _as_int(obj["dimension"], "dimension")
    if dim < 0 or dim % 2 != 0:
        raise InputError(f"dimension must be even and nonnegative, got {dim}")
    raw = obj["matrices"]
    if not isinstance(raw, list):
        raise InputError("matrices must be a list")
    if expect is not None and len(raw) != expect:
        raise InputError(f"expected {expect} matrices, got {len(raw)}")
    out = []
    for idx, rows in enumerate(raw, start=1):
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise InputError(f"matrix {idx}: expected a list of rows")
        parsed = []
        for r in rows:
            if len(r) != dim:
                raise InputError(
                    f"matrix {idx}: row has length {len(r)}, expected {dim}"
                )
            parsed.append([_entry(x, idx) for x in r])
        if not parsed:
            raise InputError(f"matrix {idx}: no rows")
        out.append(Matrix.from_rows(parsed, cols=dim))
    return dim, out


def _entry(x: Any, idx: int) -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise InputError(f"matrix {idx}: entries must be integers or 'p/q' strings")
    if isinstance(x, (int, str)):
        try:
            return as_rational(x)
        except InputError:
            pass
    raise InputError(f"matrix {idx}: bad entry {x!r}")


def format_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _format_witness(w: Vector | None) -> str:
    if w is None:
        return "-"
    return "[" + ", ".join(format_rational(x) for x in w) + "]"


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"no such file: {path}")
    return p.read_text()


def cmd_signature(args: argparse.Namespace) -> int:
    doc = parse_fibration_document(_read(args.file))
    trace = signature(doc.word)
    if args.json:
        payload: dict[str, Any] = {
            "signature": trace.total,
            "null_homologous_count": trace.null_homologous_count,
            "steps": [
                {
                    "index": s.index,
                    "vector": list(s.cycle.homology_class),
                    "chirality": s.cycle.chirality,
                    "solvable": s.solvable,
                    "sigma": s.sigma,
                    "witness": None if s.witness is None
                    else [format_rational(x) for x in s.witness],
                }
                for s in trace.steps
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    if args.trace:
        header = f"{'k':>3}  {'cycle':<24} {'chi':>3}  {'solvable':<8} {'sigma':>5}  witness"
        print(header)
        for s in trace.steps:
            vec = "[" + ", ".join(str(x) for x in s.cycle.homology_class) + "]"
            chi = "+1" if s.cycle.chirality == 1 else "-1"
            print(
                f"{s.index:>3}  {vec:<24} {chi:>3}  "
                f"{'yes' if s.solvable else 'no':<8} {s.sigma:>5}  {_format_witness(s.witness)}"
            )
    print(f"signature: {trace.total}")
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    doc = parse_fibration_document(_read(args.file))
    if args.n < 1:
        raise InputError("--n must be >= 1")
    base = signature(doc.word).total
    terms = correction_terms(doc.word.space, word_action(doc.word), args.n)
    total = args.n * base - sum(t.sigma for t in terms)
    if args.json:
        payload = {
            "base_signature": base,
            "fold": args.n,
            "corrections": [{"power": t.power, "sigma": t.sigma} for t in terms],
            "signature": total,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"base signature: {base}")
    for t in terms:
        print(f"correction m={t.power}: {t.sigma}")
    print(f"signature: {total}")
    return 0


def _triple_from_file(path: str) -> tuple[SymplecticSpace, Lagrangian, Lagrangian, Lagrangian]:
    dim, mats = parse_matrix_document(_read(path), expect=3)
    space = SymplecticSpace.standard(dim // 2)
    lags = [Lagrangian.span(space, list(m.entries)) for m in mats]
    return space, lags[0], lags[1], lags[2]


def _random_symplectic(space: SymplecticSpace, rng: random.Random) -> Matrix:
    m = Matrix.identity(space.dim)
    for _ in range(rng.randint(1, 4)):
        vec = [rng.randint(-2, 2) for _ in range(space.dim)]
        if all(x == 0 for x in vec):
            vec[0] = 1
        m = transvection(space, VanishingCycle(tuple(vec), rng.choice([1, -1]))) @ m
    return m


def cmd_maslov(args: argparse.Namespace) -> int:
    space, a, b, c = _triple_from_file(args.file)
    tau = maslov_index(a, b, c)
    print(f"maslov index: {tau}")
    if not args.check_axioms:
        return 0
    failures = []

    from itertools import permutations

    perm_ok = True
    for perm in permutations([(0, a), (1, b), (2, c)]):
        order = [p[0] for p in perm]
        inversions = sum(
            1 for i in range(3) for j in range(i + 1, 3) if order[i] > order[j]
        )
        expected = tau if inversions % 2 == 0 else -tau
        if maslov_index(perm[0][1], perm[1][1], perm[2][1]) != expected:
            perm_ok = False
    print(f"axiom antisymmetry: {'pass' if perm_ok else 'FAIL'}")
    if not perm_ok:
        failures.append("antisymmetry")

    rng = random.Random(2024)
    inv_ok = True
    for _ in range(5):
        m = _random_symplectic(space, rng)
        moved = [map_lagrangian(m, lag) for lag in (a, b, c)]
        if maslov_index(*moved) != tau:
            inv_ok = False
    print(f"axiom symplectic invariance: {'pass' if inv_ok else 'FAIL'}")
    if not inv_ok:
        failures.append("symplectic invariance")

    sum_ok = (
        maslov_index(
            direct_sum_lagrangian(a, a),
            direct_sum_lagrangian(b, b),
            direct_sum_lagrangian(c, c),
        )
        == 2 * tau
    )
    print(f"axiom direct-sum additivity: {'pass' if sum_ok else 'FAIL'}")
    if not sum_ok:
        failures.append("additivity")

    if failures:
        raise InternalConsistencyError(f"axiom check failed: {', '.join(failures)}")
    return 0


def cmd_meyer(args: argparse.Namespace) -> int:
    dim, mats = parse_matrix_document(_read(args.file), expect=2)
    space = SymplecticSpace.standard(dim // 2)
    value = meyer_cocycle(space, mats[0], mats[1])
    print(f"meyer cocycle: {value}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    spec = PositiveFamilySpec(args.genus, args.boundary, args.n)
    word = generate(spec)
    doc = FibrationDocument(word, name=f"positive block x{args.n}")
    text = serialize_fibration_document(doc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    # round-trip through the parser before certifying, as a self-check
    reparsed = parse_fibration_document(text)
    print(f"signature: {signature(reparsed.word).total}")
    return 0


def build_parser() -> argparse.ArgumentParser:
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
