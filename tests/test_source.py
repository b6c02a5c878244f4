"""Source checks: the package core does no floating-point arithmetic, the
scripts run on the standard library and `lefsig` alone, and the public API is
exactly the pinned list.

Every entry in `lefsig` is an int or a Fraction.  A true division of two ints,
a float literal or a `float(...)` call would bring a float in and lose
exactness silently, so none may appear in `src/lefsig/*.py`; exact quotients
are written `Fraction(a, b)`.

No `assert` statement sits in the package or the scripts: `python -O`
strips them, so a self-check written as one would vanish.  Each is an
explicit check that raises or exits non-zero with a message.

The scripts in `scripts/` are the package's own callers; an import of a
third-party module there would make a dependency the package does not declare.

`lefsig.__all__` is pinned so that a name deleted from a module cannot linger
as a stale export, and a new public name is a deliberate edit here.  So are
the public names `lefsig.ratlinalg` defines and the public attributes of
`Matrix`, `MonodromyWord` and `Lagrangian`, operator methods included: an entry
point that nothing outside the tests calls is gone, and it cannot come back
unnoticed.

Every annotation in the package resolves: with postponed evaluation an
annotation naming a module that is imported only inside a function reads fine
and fails only when `typing.get_type_hints` evaluates it.
"""

import ast
import importlib
import inspect
import sys
import typing
from pathlib import Path

import lefsig
from lefsig import Lagrangian, Matrix, MonodromyWord

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "lefsig").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _float_sites(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division"
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, "float literal"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            yield node.lineno, "float() call"


def test_no_floats_in_the_core():
    assert len(SOURCES) > 5
    found = [f"{p.name}:{line}: {what}" for p in SOURCES for line, what in _float_sites(p)]
    assert found == []


def test_float_sites_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("a = 1 / 2\nb = 3\nb /= 4\nc = 0.5\nd = float('1')\ne = 7 // 2\n")
    assert [what for _, what in _float_sites(probe)] == [
        "true division", "true division", "float literal", "float() call"]


def _assert_sites(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_asserts_in_the_package_or_the_scripts():
    found = [f"{p.relative_to(ROOT)}:{line}" for p in (*SOURCES, *SCRIPTS)
             for line in _assert_sites(p)]
    assert found == []


def test_assert_sites_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("assert True\nx = 'assert'\ndef f():\n    assert x, 'message'\n"
                     "if not x:\n    raise SystemExit('message')\n")
    assert _assert_sites(probe) == [1, 4]


def _foreign_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for top in (m.partition(".")[0] for m in modules):
            if top != "lefsig" and top not in sys.stdlib_module_names:
                yield node.lineno, top


def test_scripts_import_only_the_standard_library_and_lefsig():
    assert len(SCRIPTS) >= 3
    found = [f"{p.name}:{line}: {top}" for p in SCRIPTS for line, top in _foreign_imports(p)]
    assert found == []


def test_foreign_imports_are_found(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy\nfrom numpy import x\nimport os, numpy.linalg as la\n"
                     "from itertools import chain\nimport lefsig.cover\nfrom lefsig import word\n")
    assert list(_foreign_imports(probe)) == [(1, "numpy"), (2, "numpy"), (3, "numpy")]


PUBLIC_API = [
    "BLOCK_VECTORS", "CorrectionTerm", "InputError", "InternalConsistencyError",
    "Lagrangian", "LefsigError", "Matrix", "MonodromyWord", "PositiveFamilySpec",
    "SignatureTrace", "StepRecord", "Surface", "SymplecticSpace", "VanishingCycle",
    "cover_signature", "direct_sum_lagrangian", "fiber_sum_defect", "generate",
    "is_symplectic", "local_sigma",
    "local_sigma_via_maslov", "map_lagrangian", "maslov_index", "meyer_cocycle",
    "shortcut_dual_preserved", "signature", "signature_symmetric",
    "signature_zero_certificate", "transvection", "word", "word_action",
]


def test_public_api_is_pinned_and_resolves():
    assert sorted(lefsig.__all__) == PUBLIC_API
    assert [name for name in PUBLIC_API if not hasattr(lefsig, name)] == []


RATLINALG_API = [
    "Matrix", "Rational", "Scalar", "Vector", "as_rational", "as_vector", "clear_denominators",
    "sign", "signature_symmetric", "vec_dot",
]
CLASS_API = {
    Matrix: ["__add__", "__init__", "__matmul__", "__sub__", "at", "from_rows", "identity",
             "is_square", "rows", "transpose", "zeros"],
    MonodromyWord: ["__init__", "__len__", "repeated", "space"],
    Lagrangian: ["__init__"],
}


def _defined_names(path: Path) -> list[str]:
    """The names a module's top level defines or assigns, not those it imports."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return names


def test_ratlinalg_names_and_class_attributes_are_pinned():
    module = ROOT / "src" / "lefsig" / "ratlinalg.py"
    public = [n for n in _defined_names(module) if not n.startswith("_")]
    assert [n for n in public if not hasattr(lefsig.ratlinalg, n)] == []
    found = {f"ratlinalg.{n}" for n in public}
    pinned = {f"ratlinalg.{n}" for n in RATLINALG_API}
    for cls, names in CLASS_API.items():
        found |= {f"{cls.__name__}.{n}" for n, v in vars(cls).items()
                  if n[0] != "_" or n.endswith("__") and inspect.isfunction(v)}
        pinned |= {f"{cls.__name__}.{n}" for n in names}
    assert (sorted(found - pinned), sorted(pinned - found)) == ([], [])


def _annotated_functions():
    """(qualified name, function) for every function and method defined in `src/lefsig`."""
    for path in SOURCES:
        name = "lefsig" if path.stem == "__init__" else f"lefsig.{path.stem}"
        module = importlib.import_module(name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != name:
                continue
            if inspect.isfunction(obj):
                yield f"{name}.{obj.__qualname__}", obj
            elif inspect.isclass(obj):
                for member in vars(obj).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        yield f"{name}.{member.__qualname__}", member


def test_every_annotation_resolves():
    functions = dict(_annotated_functions())
    assert "lefsig.cover.cover_signature" in functions
    assert "lefsig.ratlinalg.Matrix.transpose" in functions
    unresolved = []
    for qualname, func in functions.items():
        try:
            typing.get_type_hints(func)
        except NameError as exc:
            unresolved.append(f"{qualname}: {exc}")
    assert unresolved == []
