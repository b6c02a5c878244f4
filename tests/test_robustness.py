"""Mutated shipped documents never end in a traceback.

Every `data/*.json` is loaded and mutated at random: fields dropped,
emptied, retyped or nested, size fields set to a negative value, to one above the
fiber-dimension ceiling or to a huge integer, and integer leaves replaced by
oversized ones.  Each command runs in-process and must exit 0 or 2.  Sizes
are drawn only from 0..3 or from above the ceiling, so no example builds a
large matrix.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lefsig.cli import main
from lefsig.symplectic import MAX_DIMENSION

from .fixtures import DATA_DIR

DOCUMENTS = {p.name: json.loads(p.read_text()) for p in sorted(DATA_DIR.glob("*.json"))}
SIZE_FIELDS = ("genus", "boundary", "dimension")
SIZES = st.one_of(
    st.integers(0, 3),
    st.sampled_from([-1, MAX_DIMENSION // 2 + 1, MAX_DIMENSION + 2, 10**6, 10**20]),
)
OVERSIZED = st.sampled_from([2**63, -(2**63), 10**100, -(10**300)])
RETYPED = st.sampled_from(["x", "1/2", 1.5, None, True, [], {}])
COMMANDS = (("signature",), ("power", "--n", "2"), ("maslov",), ("meyer",))


def _paths(node, prefix=()):
    """Every key/index path below the root, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(DOCUMENTS[draw(st.sampled_from(sorted(DOCUMENTS)))])
    for _ in range(draw(st.integers(1, 4))):
        # half the mutations hit a top-level field, where the sizes live
        top = draw(st.booleans())
        paths = [p for p in _paths(doc) if len(p) == 1 or not top]
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        parent = doc
        for p in parents:
            parent = parent[p]
        kind = draw(st.sampled_from(["drop", "empty", "retype", "nest", "size", "oversize"]))
        if kind == "drop":
            del parent[key]
        elif kind == "empty":
            parent[key] = [] if isinstance(parent[key], list) else {}
        elif kind == "retype":
            parent[key] = draw(RETYPED)
        elif kind == "nest":
            parent[key] = [parent[key]] if draw(st.booleans()) else {"value": parent[key]}
        elif kind == "size" or key in SIZE_FIELDS:
            parent[key] = draw(SIZES)
        else:
            parent[key] = draw(OVERSIZED)
    return doc


@given(mutated_documents())
@example({"genus": 10**20, "boundary": 0, "cycles": []})
@example({"genus": int("9" * 4300), "boundary": 0, "cycles": [{"vector": [1, 0]}]})
@settings(max_examples=150, deadline=None)
def test_mutated_documents_exit_0_or_2(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("mutated") / "doc.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([command[0], str(path), *command[1:]])
        assert code in (0, 2), (command, doc, err.getvalue())
