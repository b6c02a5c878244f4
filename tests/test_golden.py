"""Byte-for-byte CLI transcript: stdout, stderr and exit code of a fixed set
of commands, compared against tests/golden/cli_transcript.txt.

Regenerate the transcript only when an output change is intended:

    PYTHONHASHSEED=0 PYTHONPATH=src python -m tests.test_golden
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from lefsig.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_transcript.txt"
DATA_FILES = sorted(p.name for p in (ROOT / "data").glob("*.json"))
FIBRATIONS = ("chain_relation.json", "matsumoto.json", "parallel_twist_pair.json",
              "positive_g1.json")

COMMANDS = (
    *(("signature", f"data/{name}", flag)
      for name in DATA_FILES for flag in ("--json", "--trace")),
    *(("power", f"data/{name}", "--n", "25", "--json") for name in FIBRATIONS),
    ("maslov", "data/maslov_normalization.json", "--check-axioms"),
    ("meyer", "data/meyer_pair.json"),
    ("generate", "--genus", "2", "--boundary", "1", "--n", "6"),
)


def transcript() -> str:
    """Run every command in-process; paths are relative to the repository root."""
    blocks = []
    for argv in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        stderr = "".join(f"! {line}\n" for line in err.getvalue().splitlines())
        blocks.append(f"$ lefsig {' '.join(argv)}\n{out.getvalue()}{stderr}exit {code}\n")
    return "\n".join(blocks)


def test_cli_transcript_is_unchanged(monkeypatch):
    monkeypatch.chdir(ROOT)
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.write_text(transcript())
