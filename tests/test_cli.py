"""Command line interface: documents, outputs, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from lefsig.cli import (
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


def test_meyer_command(capsys):
    code, out, _ = run(capsys, "meyer", str(DATA_DIR / "meyer_pair.json"))
    assert code == 0
    assert out.strip() == "meyer cocycle: -1"


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


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "signature", "no-such-file.json")
    assert code == 2
    assert "no such file" in err


def test_malformed_documents_exit_2(capsys, tmp_path):
    cases = [
        ("not json at all", "invalid JSON"),
        ('{"genus": 1, "boundary": 0}', "missing field 'cycles'"),
        ('{"genus": 1, "boundary": 0, "cycles": [], "extra": 1}', "unknown field"),
        ('{"genus": 1, "boundary": 0, "cycles": [{"vector": [1, 0, 0]}]}',
         "length 3, expected 2"),
        ('{"genus": 1, "boundary": 0, "cycles": [{"vector": [1, 0], "chirality": 2}]}',
         "chirality"),
        ('{"genus": true, "boundary": 0, "cycles": []}', "expected an integer"),
        # past Python's 4300-digit int limit json.loads raises a plain ValueError
        ('{"genus": 1, "boundary": 0, "cycles": [{"vector": [' + "7" * 5000 + ', 0]}]}',
         "invalid JSON"),
    ]
    for text, needle in cases:
        f = tmp_path / "doc.json"
        f.write_text(text)
        code, _, err = run(capsys, "signature", str(f))
        assert code == 2, text
        assert needle in err, (text, err)


def test_missing_field_error_is_independent_of_hash_seed(tmp_path):
    f = tmp_path / "empty.json"
    f.write_text("{}")
    errors = set()
    for seed in range(1, 6):
        proc = subprocess.run(
            [sys.executable, "-m", "lefsig.cli", "signature", str(f)],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": str(seed)})
        assert proc.returncode == 2
        errors.add(proc.stderr)
    assert errors == {"error: document: missing field 'genus'\n"}


def test_matrix_document_parsing():
    dim, mats = parse_matrix_document(
        '{"dimension": 2, "matrices": [[["1/2", 0], [3, "-2/3"]]]}')
    assert dim == 2
    assert str(mats[0].at(0, 0)) == "1/2"
    with pytest.raises(Exception, match="integers or"):
        parse_matrix_document('{"dimension": 2, "matrices": [[[0.5, 0]]]}')
    with pytest.raises(Exception, match="expected 3 matrices"):
        parse_matrix_document('{"dimension": 2, "matrices": []}', expect=3)
    with pytest.raises(Exception, match="even"):
        parse_matrix_document('{"dimension": 3, "matrices": []}')


def test_internal_failure_exits_3(capsys, monkeypatch, tmp_path):
    import lefsig.cli as cli_mod

    def boom(word):
        raise InternalConsistencyError("forced")

    monkeypatch.setattr(cli_mod, "signature", boom)
    code, _, err = run(capsys, "signature", str(DATA_DIR / "positive_g1.json"))
    assert code == 3
    assert "internal consistency error" in err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_module_execution():
    proc = subprocess.run(
        [sys.executable, "-m", "lefsig.cli", "signature",
         str(DATA_DIR / "positive_g1.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "signature: 1"
