"""The CLI reads the step's integers.

`signature`, `power` and `generate` consume `engine._readouts`, the stream of
(solvable, sigma, (D, n)) per step, and never build a `StepRecord` or divide
a witness out into Fractions.  `--json` and `--trace` write each witness
entry straight from D and n; the text must be `str()` of the library's
witness entry, `local_sigma(w, k).witness`, which `engine._record` divides
out on the word's kept sweep.
"""

import json
import random
import sys
from fractions import Fraction

import pytest

import lefsig.engine
from lefsig import Surface, local_sigma, word
from lefsig.cli import FibrationDocument, main, serialize_fibration_document

from .fixtures import DATA_DIR, stream_word


def _run(capsys, *argv) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, ""), argv
    return captured.out


def _write(tmp_path, w) -> str:
    path = tmp_path / "word.json"
    path.write_text(serialize_fibration_document(FibrationDocument(w)))
    return str(path)


def _words():
    rng = random.Random(37)
    words = [stream_word(rng) for _ in range(60)]
    # a hyperbolic word: its witnesses pass the 4300-digit int-to-str limit
    words.append(word(Surface(1, 0), [(1, 0), (0, 10**1000)] * 6))
    return words


def test_json_and_trace_witnesses_are_str_of_the_library_witness(capsys, tmp_path):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    seen = set()
    for w in _words():
        path = _write(tmp_path, w)
        as_json = json.loads(_run(capsys, "signature", path, "--json"))["steps"]
        rows = _run(capsys, "signature", path, "--trace").splitlines()[1:-1]
        assert len(as_json) == len(rows) == len(w)
        if limit:
            sys.set_int_max_str_digits(0)  # only to print the oracle's entries
        try:
            want = [local_sigma(w, k).witness for k in range(1, len(w) + 1)]
            texts = [None if v is None else list(map(str, v)) for v in want]
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert [s["witness"] for s in as_json] == texts
        assert [row.rsplit("  ", 1)[1] for row in rows] == [
            "-" if t is None else "[" + ", ".join(t) + "]" for t in texts]
        for x in (x for v in want if v is not None for x in v):
            seen.add("negative" if x < 0 else "zero" if x == 0 else "positive")
            seen.add("integral" if type(x) is int else "non-integral")
            if limit and max(abs(Fraction(x).numerator), Fraction(x).denominator) >= 10**limit:
                seen.add("past the digit limit")
    assert seen == {"negative", "zero", "positive", "integral", "non-integral",
                    "past the digit limit"} - ({"past the digit limit"} if not limit else set())


def _jobs(tmp_path):
    """Plain `signature` and `power --n 3` (plain and `--json`) on every
    fibration document in data/ and on seeded words, and three `generate`s."""
    rng = random.Random(38)
    paths = [p for p in sorted(DATA_DIR.glob("*.json")) if "cycles" in json.loads(p.read_text())]
    for i in range(20):
        paths.append(tmp_path / f"word{i}.json")
        paths[-1].write_text(serialize_fibration_document(FibrationDocument(stream_word(rng))))
    for path in map(str, paths):
        yield ["signature", path]
        yield ["power", path, "--n", "3"]
        yield ["power", path, "--n", "3", "--json"]
    for genus in (1, 5, 200):
        yield ["generate", "--genus", str(genus), "--boundary", "0", "--n", "4"]


class _Refused(Exception):
    pass


def test_the_cli_divides_out_no_witness_and_makes_no_record(capsys, tmp_path, monkeypatch):
    jobs = list(_jobs(tmp_path))
    want = [_run(capsys, *argv) for argv in jobs]

    def refuse(*args, **kwargs):
        raise _Refused

    monkeypatch.setattr(lefsig.engine, "_divide", refuse)
    with pytest.raises(_Refused):  # the library's records do divide
        local_sigma(word(Surface(1, 0), [(1, 0)]), 1)
    monkeypatch.setattr(lefsig.engine, "StepRecord", refuse)
    assert [_run(capsys, *argv) for argv in jobs] == want
