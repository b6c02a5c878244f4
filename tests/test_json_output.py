"""`signature --json` and `power --json` against the encoder they replace.

The CLI writes its JSON directly.  Here every output must equal, byte for
byte, `json.dumps(payload, indent=2) + "\\n"` of the payload the CLI once
built (`oracles.signature_payload`, `oracles.power_payload`).  The seeded
words cover genus 0 (every vector `[]`), empty words, null cycles,
inconsistent steps, left twists, negative entries and Fraction witnesses;
a hyperbolic word brings witnesses of thousands of bits.

Witnesses can also pass CPython's 4300-digit int-to-str limit, which
`signature --json` and `--trace` lift while they write and restore after.
"""

import json
import random
import sys
from fractions import Fraction

import pytest

from lefsig import Surface, VanishingCycle, signature, word, word_action
from lefsig.cli import (
    FibrationDocument,
    main,
    parse_fibration_document,
    serialize_fibration_document,
)
from lefsig.cover import correction_terms
from lefsig.symplectic import MonodromyWord

from .fixtures import DATA_DIR
from .oracles import power_payload, signature_payload


def _write(tmp_path, w: MonodromyWord) -> str:
    path = tmp_path / "word.json"
    path.write_text(serialize_fibration_document(FibrationDocument(w)))
    return str(path)


def _stdout(capsys, *argv) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, ""), argv
    return captured.out


def _random_word(rng: random.Random) -> MonodromyWord:
    """Small cycles of both chiralities, with null cycles, repeats and a
    cycle followed by its inverse twist (an inconsistent next step)."""
    surface = Surface(rng.randint(0, 3), rng.randint(0, 2))
    dim = 2 * surface.half_dim
    cycles: list[VanishingCycle] = []
    for _ in range(rng.randint(0, 8)):
        roll = rng.random()
        if roll < 0.15 or dim == 0:
            cycles.append(VanishingCycle((0,) * dim, rng.choice((1, -1))))
        elif roll < 0.3 and cycles:
            last = cycles[-1]
            cycles.append(VanishingCycle(last.homology_class, -last.chirality))
        else:
            vec = tuple(rng.randint(-3, 3) for _ in range(dim))
            cycles.append(VanishingCycle(vec, rng.choice((1, -1))))
    return MonodromyWord(surface, tuple(cycles))


def test_signature_json_matches_the_encoder(capsys, tmp_path):
    rng = random.Random(16)
    seen = set()
    for _ in range(150):
        w = _random_word(rng)
        trace = signature(w)
        expected = json.dumps(signature_payload(trace), indent=2) + "\n"
        assert _stdout(capsys, "signature", _write(tmp_path, w), "--json") == expected
        seen.add("genus 0" if w.surface.genus == 0 else "genus > 0")
        seen.add("empty" if not w.cycles else "nonempty")
        for s in trace.steps:
            seen.add("left" if s.cycle.chirality == -1 else "right")
            if s.cycle.is_null_homologous:
                seen.add("null")
            elif not s.solvable:
                seen.add("inconsistent")
            if any(x < 0 for x in s.cycle.homology_class):
                seen.add("negative entry")
            if s.witness is not None and any(type(x) is Fraction for x in s.witness):
                seen.add("Fraction witness")
    assert seen == {"genus 0", "genus > 0", "empty", "nonempty", "left", "right", "null",
                    "inconsistent", "negative entry", "Fraction witness"}


def test_signature_json_on_witnesses_of_thousands_of_bits(capsys, tmp_path):
    # T_a and a left twist on -10^70 b: the product is hyperbolic, entries grow fast
    cycles = [((1, 0), 1), ((0, -10**70), -1)] * 12
    w = word(Surface(1, 0), [v for v, _ in cycles], [c for _, c in cycles])
    trace = signature(w)
    bits = max(abs(Fraction(x).numerator).bit_length()
               for s in trace.steps if s.witness for x in s.witness)
    assert 2000 < bits < 14000  # thousands of bits, yet under the 4300-digit limit
    expected = json.dumps(signature_payload(trace), indent=2) + "\n"
    assert _stdout(capsys, "signature", _write(tmp_path, w), "--json") == expected


@pytest.mark.parametrize("name", ["matsumoto.json", "positive_g1.json", "chain_relation.json"])
def test_power_json_matches_the_encoder(capsys, name):
    path = str(DATA_DIR / name)
    w = parse_fibration_document((DATA_DIR / name).read_text()).word
    base = signature(w).total
    for n in range(1, 61):  # n = 1 has no correction terms: "corrections": []
        sigmas = [t.sigma for t in correction_terms(word_action(w), n)]
        expected = json.dumps(power_payload(base, n, sigmas), indent=2) + "\n"
        assert _stdout(capsys, "power", path, "--n", str(n), "--json") == expected, n


def test_power_json_on_random_words(capsys, tmp_path):
    rng = random.Random(61)
    for _ in range(30):
        w = _random_word(rng)
        n = rng.randint(1, 12)
        sigmas = [t.sigma for t in correction_terms(word_action(w), n)]
        expected = json.dumps(power_payload(signature(w).total, n, sigmas), indent=2) + "\n"
        assert _stdout(capsys, "power", _write(tmp_path, w), "--n", str(n), "--json") == expected


@pytest.fixture
def no_digit_limit():
    """Lift the int-to-str digit limit inside one test, to read huge witnesses."""
    limit = sys.get_int_max_str_digits()
    yield lambda: sys.set_int_max_str_digits(0)
    sys.set_int_max_str_digits(limit)


def test_witnesses_past_the_digit_limit_are_written(capsys, tmp_path, no_digit_limit):
    w = word(Surface(1, 0), [(1, 0), (0, 10**1000)] * 6)
    path = _write(tmp_path, w)
    limit = sys.get_int_max_str_digits()
    json_out = _stdout(capsys, "signature", path, "--json")
    trace_out = _stdout(capsys, "signature", path, "--trace")
    assert sys.get_int_max_str_digits() == limit  # restored after writing
    no_digit_limit()
    trace = signature(w)
    assert max(len(str(abs(Fraction(x).numerator))) for s in trace.steps for x in s.witness) > limit
    printed = [s["witness"] for s in json.loads(json_out)["steps"]]
    assert printed == [list(map(str, s.witness)) for s in trace.steps]
    rows = trace_out.splitlines()[1:-1]
    assert [row.rsplit("  ", 1)[1] for row in rows] == [
        "[" + ", ".join(map(str, s.witness)) + "]" for s in trace.steps]
    assert trace_out.endswith(f"signature: {trace.total}\n")
