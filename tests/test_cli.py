"""Command line interface: documents, outputs, exit codes."""

import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from lefsig import Surface, generate, signature, word, word_action
from lefsig.cli import (
    FibrationDocument,
    build_parser,
    main,
    parse_fibration_document,
    parse_matrix_document,
    serialize_fibration_document,
)
from lefsig.errors import InternalConsistencyError

from .fixtures import DATA_DIR

FIBRATION_FILES = {
    "positive_g1.json": 1,
    "matsumoto.json": 0,
    "chain_relation.json": 0,
    "parallel_twist_pair.json": -1,
}


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


DEEP_ARRAY = "[" * 200_000 + "]" * 200_000


def subprocess_env(**extra):
    """The caller's environment with this checkout's `src` first on PYTHONPATH,
    so `python -m lefsig.cli` runs the code under test without an install."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath, **extra}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_signature_on_shipped_documents(capsys):
    for name, expected in FIBRATION_FILES.items():
        code, out, err = run(capsys, "signature", str(DATA_DIR / name))
        assert code == 0 and err == ""
        assert out.strip().splitlines()[-1] == f"signature: {expected}"


def test_shipped_documents_are_canonical():
    for name in FIBRATION_FILES:
        text = (DATA_DIR / name).read_text()
        doc = parse_fibration_document(text)
        assert serialize_fibration_document(doc) == text


def test_serializer_idempotent_and_parse_inverse():
    text = (DATA_DIR / "matsumoto.json").read_text()
    doc = parse_fibration_document(text)
    once = serialize_fibration_document(doc)
    assert parse_fibration_document(once) == doc
    assert serialize_fibration_document(parse_fibration_document(once)) == once


def test_trace_table_shows_witnesses(capsys):
    code, out, _ = run(capsys, "signature", str(DATA_DIR / "parallel_twist_pair.json"),
                       "--trace")
    assert code == 0
    assert "witness" in out
    assert "-1/2" in out  # second step solves to (0, 0, 0, -1/2)
    assert out.strip().endswith("signature: -1")


def test_json_output_is_deterministic(capsys):
    path = str(DATA_DIR / "positive_g1.json")
    _, first, _ = run(capsys, "signature", path, "--json")
    _, second, _ = run(capsys, "signature", path, "--json")
    assert first == second
    payload = json.loads(first)
    assert payload["signature"] == 1
    assert [s["sigma"] for s in payload["steps"]] == [0, 0, -1]
    assert [s["witness"] for s in payload["steps"]] == [
        ["0", "-1"], ["1/5", "0"], ["1/5", "-1/2"]]


def test_power_command(capsys):
    path = str(DATA_DIR / "matsumoto.json")
    code, out, _ = run(capsys, "power", path, "--n", "2")
    assert code == 0
    assert "base signature: 0" in out
    assert "correction m=1: 4" in out
    assert out.strip().endswith("signature: -4")

    code, out, _ = run(capsys, "power", path, "--n", "10", "--json")
    payload = json.loads(out)
    assert payload["signature"] == -24
    assert [c["sigma"] for c in payload["corrections"]] == [4, 4, 0, 4, 4, 0, 4, 4, 0]


def test_power_streams_its_correction_terms(capsys):
    # S_m's entries grow with m; holding all 999 of them peaks above 3 MB,
    # holding one at a time stays near the size of the JSON output
    tracemalloc.start()
    try:
        code = main(["power", str(DATA_DIR / "positive_g1.json"), "--n", "1000", "--json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(json.loads(capsys.readouterr().out)["corrections"]) == 999
    assert peak < 2_000_000


class _CountingSink(io.TextIOBase):
    """A text stream that keeps only the number of characters written to it."""

    def __init__(self) -> None:
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_signature_command_streams_its_steps(tmp_path):
    # 900 cycles: the library's trace keeps every record and Phi_k; plain
    # `signature` keeps a running total, and --json the text of each step
    doc = FibrationDocument(generate(1, 1, 300))
    path = tmp_path / "p300.json"
    path.write_text(serialize_fibration_document(doc))
    sink = _CountingSink()
    with redirect_stdout(sink):
        assert main(["signature", str(path)]) == 0  # warm-up: parser, imports
        library = _traced_peak(lambda: signature(doc.word))
        plain = _traced_peak(lambda: main(["signature", str(path)]))
        sink.chars = 0
        as_json = _traced_peak(lambda: main(["signature", str(path), "--json"]))
    assert plain < library / 2, (plain, library)
    assert as_json < 2 * sink.chars, (as_json, sink.chars)


def test_power_rejects_bad_fold(capsys):
    code, _, err = run(capsys, "power", str(DATA_DIR / "matsumoto.json"), "--n", "0")
    assert code == 2
    assert "--n" in err


def test_maslov_command_with_axiom_check(capsys):
    path = str(DATA_DIR / "maslov_normalization.json")
    code, out, _ = run(capsys, "maslov", path)
    assert code == 0
    assert out.strip() == "maslov index: -1"

    code, out, _ = run(capsys, "maslov", path, "--check-axioms")
    assert code == 0
    assert "axiom antisymmetry: pass" in out
    assert "axiom symplectic invariance: pass" in out
    assert "axiom direct-sum additivity: pass" in out


def test_maslov_axioms_in_dimension_zero(capsys, tmp_path):
    doc = tmp_path / "point.json"
    doc.write_text('{"dimension": 0, "matrices": [[[]], [[]], [[]]]}')
    code, out, _ = run(capsys, "maslov", str(doc), "--check-axioms")
    assert code == 0
    assert out.splitlines() == [
        "maslov index: 0",
        "axiom antisymmetry: pass",
        "axiom symplectic invariance: pass",
        "axiom direct-sum additivity: pass",
    ]


def test_maslov_axioms_on_a_graph_triple_in_dimension_eight(capsys, tmp_path):
    """graph(phi_later), the diagonal and the conjugate graph of phi_earlier for
    two genus-2 words, moved to the standard form on V + V by swapping a_i and
    b_i in the second copy: the index is minus the gluing defect
    signature(u v) - signature(u) - signature(v)."""
    surface = Surface(2, 0)
    earlier = [[1, 1, -2, 0], [2, 1, 1, 0], [1, 0, 2, -1]]
    later = [[2, -1, 0, -1], [-2, 2, 0, 2], [2, -1, 0, -2]]
    defect = (signature(word(surface, earlier + later)).total
              - signature(word(surface, earlier)).total - signature(word(surface, later)).total)
    assert defect != 0
    n = 4
    unit = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap(y):
        return [y[i ^ 1] for i in range(n)]

    cols_later, cols_earlier = ([list(c) for c in word_action(word(surface, w)).transpose().entries]
                                for w in (later, earlier))
    triple = [[unit[i] + swap(cols_later[i]) for i in range(n)],
              [unit[i] + swap(unit[i]) for i in range(n)],
              [cols_earlier[i] + swap(unit[i]) for i in range(n)]]
    doc = tmp_path / "graph_triple.json"
    doc.write_text(json.dumps({"dimension": 2 * n, "matrices": triple}))
    code, out, _ = run(capsys, "maslov", str(doc), "--check-axioms")
    assert code == 0
    assert out.splitlines() == [
        f"maslov index: {-defect}",
        "axiom antisymmetry: pass",
        "axiom symplectic invariance: pass",
        "axiom direct-sum additivity: pass",
    ]


def test_failed_axiom_checks_exit_3(capsys, monkeypatch):
    import lefsig.cli as cli_mod

    # a constant index is invariant, but neither antisymmetric nor additive
    monkeypatch.setattr(cli_mod, "maslov_index", lambda *lags: 1)
    code, out, err = run(capsys, "maslov", str(DATA_DIR / "maslov_normalization.json"),
                         "--check-axioms")
    assert code == 3
    assert out.splitlines() == [
        "maslov index: 1",
        "axiom antisymmetry: FAIL",
        "axiom symplectic invariance: pass",
        "axiom direct-sum additivity: FAIL",
    ]
    assert err == "internal consistency error: axiom check failed: antisymmetry, additivity\n"


def test_meyer_command(capsys):
    code, out, _ = run(capsys, "meyer", str(DATA_DIR / "meyer_pair.json"))
    assert code == 0
    assert out.strip() == "meyer cocycle: -1"


def test_matrix_documents_in_dimension_zero(capsys, tmp_path):
    doc = tmp_path / "point.json"
    doc.write_text('{"dimension": 0, "matrices": [[], []]}')
    assert run(capsys, "meyer", str(doc)) == (0, "meyer cocycle: 0\n", "")
    doc.write_text('{"dimension": 0, "matrices": [[], [], []]}')
    assert run(capsys, "maslov", str(doc)) == (0, "maslov index: 0\n", "")
    doc.write_text('{"dimension": 2, "matrices": [[], [[1, 0], [0, 1]]]}')
    code, _, err = run(capsys, "meyer", str(doc))
    assert code == 2 and "matrix 1: no rows" in err


def test_meyer_requires_square_matrices(capsys, tmp_path):
    doc = tmp_path / "pair.json"
    doc.write_text('{"dimension": 2, "matrices": [[[1, 0], [0, 1], [1, 1]], [[1, 0], [0, 1]]]}')
    code, out, err = run(capsys, "meyer", str(doc))
    assert (code, out) == (2, "")
    assert err == "error: matrix 1: expected 2 rows, got 3\n"
    doc.write_text('{"dimension": 0, "matrices": [[[]], [[]]]}')
    code, _, err = run(capsys, "meyer", str(doc))
    assert code == 2 and err == "error: matrix 1: expected 0 rows, got 1\n"


def test_generate_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "family.json"
    code, out, _ = run(capsys, "generate", "--genus", "2", "--boundary", "1",
                       "--n", "3", "--out", str(out_file))
    assert code == 0
    assert out.strip() == "signature: 3"
    text = out_file.read_text()
    doc = parse_fibration_document(text)
    assert len(doc.word) == 9
    assert serialize_fibration_document(doc) == text

    code, out, _ = run(capsys, "generate", "--genus", "1", "--boundary", "1",
                       "--n", "1")
    assert code == 0
    assert '"vector": [2, 5]' in out
    assert out.strip().endswith("signature: 1")


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "signature", "no-such-file.json")
    assert code == 2
    assert "No such file or directory" in err and "no-such-file.json" in err
    code, _, err = run(capsys, "signature", str(tmp_path))
    assert code == 2
    assert "Is a directory" in err
    code, out, err = run(capsys, "generate", "--genus", "1", "--boundary", "0", "--n", "1",
                         "--out", str(tmp_path / "missing" / "g.json"))
    assert (code, out) == (2, "")
    assert "No such file or directory" in err and "g.json" in err


def _cycles(items: str) -> str:
    return '{"genus": 1, "boundary": 0, "cycles": [' + items + "]}"


def test_malformed_documents_exit_2(capsys, tmp_path):
    cases = [
        ("not json at all", "invalid JSON"),
        ('{"genus": 1, "boundary": 0}', "missing field 'cycles'"),
        ('{"genus": 1, "boundary": 0, "cycles": [], "extra": 1}', "unknown field"),
        ('{"genus": 1, "boundary": 0, "cycles": [{"vector": [1, 0, 0]}]}',
         "length 3, expected 2"),
        ('{"genus": 1, "boundary": 0, "cycles": [{"vector": [1, 0], "chirality": 2}]}',
         "chirality"),
        ('{"genus": true, "boundary": 0, "cycles": []}', "genus must be an integer"),
        # past Python's 4300-digit int limit json.loads raises a plain ValueError
        ('{"genus": 1, "boundary": 0, "cycles": [{"vector": [' + "7" * 5000 + ', 0]}]}',
         "invalid JSON"),
        # nesting past the interpreter's recursion limit raises RecursionError
        (DEEP_ARRAY, "invalid JSON"),
        # a 4300-digit genus: its dimension must not be formatted
        ('{"genus": ' + "9" * 4300 + ', "boundary": 0, "cycles": [{"vector": [1, 0]}]}',
         "genus and boundary give a fiber dimension above 1000"),
        # documents are UTF-8: a stray byte or a byte order mark is not JSON
        (b'{"name": "\xff", "genus": 1, "boundary": 0, "cycles": []}', "invalid JSON"),
        (b'\xef\xbb\xbf{"genus": 1, "boundary": 0, "cycles": []}', "invalid JSON"),
        # each field is checked by the record that stores it, under the cycle's index
        (_cycles('{"vector": [1, 0]}, {"vector": ["1", 0]}'),
         "cycle 2: vector entries must be integers, got '1'"),
        (_cycles('{"vector": [1, 0.0]}'), "cycle 1: vector entries must be integers, got 0.0"),
        (_cycles('{"vector": [true, 0]}'), "cycle 1: vector entries must be integers, got True"),
        (_cycles('{"vector": [1, 0], "chirality": true}'),
         "cycle 1: chirality must be +1 or -1, got True"),
        (_cycles('{"vector": [1, 0]}, {"vector": [0, 1], "chirality": 0}'),
         "cycle 2: chirality must be +1 or -1, got 0"),
        (_cycles('{"vector": {"a": 1}}'), "cycle 1: vector must be a list"),
        ('{"genus": 1, "boundary": -1, "cycles": []}',
         "boundary must be >= 0, got -1"),
    ]
    for text, needle in cases:
        f = tmp_path / "doc.json"
        f.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, _, err = run(capsys, "signature", str(f))
        assert code == 2, text[:80]
        assert needle in err, (text[:80], err)


def test_malformed_matrix_documents_exit_2(capsys, tmp_path):
    cases = [
        ("not json at all", "invalid JSON"),
        ("[[1, 0], [0, 1]]", "document must be a JSON object"),
        ('{"dimension": 2}', "missing field 'matrices'"),
        (DEEP_ARRAY, "invalid JSON"),
        ('{"dimension": 2, "matrices": ' + DEEP_ARRAY + "}", "invalid JSON"),
        (b'{"dimension": 0, "matrices": [[], [], []], "\xff": 0}', "invalid JSON"),
        ('{"dimension": true, "matrices": []}', "dimension must be an integer, got True"),
    ]
    for text, needle in cases:
        f = tmp_path / "doc.json"
        f.write_bytes(text if isinstance(text, bytes) else text.encode())
        for command in ("meyer", "maslov"):
            code, _, err = run(capsys, command, str(f))
            assert code == 2, (command, text[:80])
            assert needle in err, (command, text[:80], err)
    f.write_text('{"dimension": 2, "matrices": [[[1, 0], [0, 1]], [[1, 0], [0, true]]]}')
    code, _, err = run(capsys, "meyer", str(f))
    assert code == 2 and "matrix 2: not an exact rational: True" in err, err


def test_maslov_names_the_matrix_that_spans_no_lagrangian(capsys, tmp_path):
    good = [[1, 0, 0, 0], [0, 0, 1, 0]]
    bad = {"spanning set has rank 1, a Lagrangian needs 2": [[1, 0, 0, 0], [2, 0, 0, 0]],
           "spanning set is not isotropic": [[1, 0, 0, 0], [0, 1, 0, 0]]}
    f = tmp_path / "triple.json"
    for message, rows in bad.items():
        for idx in (1, 2, 3):
            mats = [rows if i == idx else good for i in (1, 2, 3)]
            f.write_text(json.dumps({"dimension": 4, "matrices": mats}))
            assert run(capsys, "maslov", str(f)) == (2, "", f"error: matrix {idx}: {message}\n")
    f.write_text('{"dimension": 2, "matrices": [[[1, 0]], [[0, 1]], [[1, 0], [0, 1]]]}')
    assert run(capsys, "maslov", str(f)) == (
        2, "", "error: matrix 3: spanning set has rank 2, a Lagrangian needs 1\n")


def test_genus_above_the_ceiling_exits_2(capsys, tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_text('{"genus": 100000000000000000000, "boundary": 0, "cycles": []}')
    for argv in (("power", str(huge), "--n", "2"),
                 ("generate", "--genus", str(10**20), "--boundary", "0", "--n", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err == "error: genus and boundary give a fiber dimension above 1000\n"


def test_a_repetition_count_no_word_can_hold_exits_2(capsys):
    n = "1" + "0" * 30  # 31 digits: used to die with a bare OverflowError
    assert run(capsys, "generate", "--genus", "1", "--boundary", "0", "--n", n) == (
        2, "", f"error: n {n} out of range 1..{sys.maxsize}\n")


def test_missing_field_error_is_independent_of_hash_seed(tmp_path):
    f = tmp_path / "empty.json"
    f.write_text("{}")
    errors = set()
    for seed in range(1, 6):
        proc = subprocess.run(
            [sys.executable, "-m", "lefsig.cli", "signature", str(f)],
            capture_output=True, text=True, env=subprocess_env(PYTHONHASHSEED=str(seed)))
        assert proc.returncode == 2
        errors.add(proc.stderr)
    assert errors == {"error: document: missing field 'genus'\n"}


def test_matrix_document_parsing():
    dim, mats = parse_matrix_document(
        '{"dimension": 2, "matrices": [[["1/2", 0], [3, "-2/3"]]]}', expect=1)
    assert dim == 2
    assert str(mats[0].at(0, 0)) == "1/2"
    with pytest.raises(Exception, match="matrix 1: not an exact rational: 0.5"):
        parse_matrix_document('{"dimension": 2, "matrices": [[[0.5, 0]]]}', expect=1)
    with pytest.raises(Exception, match="expected 3 matrices"):
        parse_matrix_document('{"dimension": 2, "matrices": []}', expect=3)
    with pytest.raises(Exception, match="even"):
        parse_matrix_document('{"dimension": 3, "matrices": []}', expect=0)


def test_internal_failure_exits_3(capsys, monkeypatch, tmp_path):
    # each form of `signature` consumes a stream of step readouts: --trace and
    # --json the word's, plain `signature` its components' periods through the
    # engine's partial fiber sums; a failure after the first step exits 3 with
    # no total, though --trace has printed that step
    import lefsig.cli as cli_mod
    import lefsig.engine as engine_mod

    readouts = engine_mod._readouts

    def boom(word):
        yield next(readouts(word))
        raise InternalConsistencyError("forced")

    monkeypatch.setattr(cli_mod, "_readouts", boom)
    monkeypatch.setattr(engine_mod, "_readouts", boom)
    path = str(DATA_DIR / "positive_g1.json")
    for flags, printed in (((), 0), (("--trace",), 2), (("--json",), 0)):
        code, out, err = run(capsys, "signature", path, *flags)
        assert code == 3, flags
        assert "internal consistency error: forced" in err
        assert len(out.splitlines()) == printed, (flags, out)


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_reused_parser_matches_fresh_processes(capsys, monkeypatch, tmp_path):
    """One process runs a usage error, --help, an input error and a JSON
    signature in turn through the one parser; each prints what it prints
    alone in a fresh `python -m lefsig.cli`."""
    for name, value in (("COLUMNS", "80"), ("NO_COLOR", "1")):  # same help layout in both
        monkeypatch.setenv(name, value)
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    matsumoto = str(DATA_DIR / "matsumoto.json")
    commands = (
        (["power", matsumoto], 2, "usage: lefsig power"),
        (["--help"], 0, ""),
        (["signature", str(empty)], 2, "error: document: missing field 'genus'"),
        (["signature", matsumoto, "--json"], 0, ""),
    )
    for argv, want_code, want_err in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "lefsig.cli", *argv],
                              capture_output=True, text=True, env=subprocess_env())
        assert (code, captured.out, captured.err) == (
            proc.returncode, proc.stdout, proc.stderr), argv
        assert code == want_code and captured.err.startswith(want_err), argv
    assert build_parser() is build_parser()


def test_module_execution():
    proc = subprocess.run(
        [sys.executable, "-m", "lefsig.cli", "signature",
         str(DATA_DIR / "positive_g1.json")],
        capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0
    assert proc.stdout.strip() == "signature: 1"
