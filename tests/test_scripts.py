"""The scripts in scripts/ run against the current package, reproduce the
frozen fixture vectors and their search counts, and end on their ladder lines."""

import subprocess
import sys
from pathlib import Path

import pytest

from .fixtures import CHAIN_CYCLES, MATSUMOTO_CYCLES
from .test_cli import subprocess_env

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS_DIR / name), *args],
        capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("genus, verdict", [
    ("1", "all corrections certified zero"),  # the 2x2 cone certificate
    ("2", "corrections zero by diagonalization"),  # the correction signatures
], ids=["genus-1", "genus-2"])
def test_positive_family_sweep(genus, verdict):
    lines = run_script("positive_family_sweep.py", "--max-n", "6", "--genus", genus)
    assert lines[-1].split() == ["6", "6", "6", *verdict.split()]


def test_derive_matsumoto_vectors():
    lines = run_script("derive_matsumoto_vectors.py")
    assert lines[:3] == ["radius 1: 80 candidate vectors",
                         "tuples with transvection product equal to phi: 125",
                         "with a preserved dual at every step: 125"]
    assert f"frozen (lex-first): {MATSUMOTO_CYCLES}" in lines
    assert lines[-1] == "  n=10: repeated word -24, cover formula -24"


def test_derive_chain_vectors():
    lines = run_script("derive_chain_vectors.py")
    assert lines[:3] == ["radius 1: 80 candidate vectors",
                         "chains with fourth power equal to the boundary action: 120",
                         "with a preserved dual at every step: 120"]
    assert f"frozen (lex-first): {CHAIN_CYCLES}" in lines
    assert lines[-2] == "  n=4: repeated word -7, cover formula -7"
    assert lines[-1] == "two separating boundary twists: -1; chain fourth power minus that: -6"
