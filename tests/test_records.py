"""Value records: frozen-data-class semantics without `dataclasses`, and the
modules a bare `import lefsig.cli` loads.

Every lefsig record is compared with a twin made by
`dataclasses.make_dataclass(..., frozen=True)` on the same fields and
defaults: the two must agree on repr, hash, the constructor's signature and
the read-only attributes, and the record must keep `==` within its class and
survive pickling and copying.
"""

import copy
import dataclasses
import inspect
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from lefsig import (
    CorrectionTerm,
    InputError,
    Lagrangian,
    Matrix,
    MonodromyWord,
    SignatureTrace,
    StepRecord,
    Surface,
    SymplecticSpace,
    VanishingCycle,
    signature,
)
from lefsig.cli import FibrationDocument

from .test_cli import subprocess_env


def _samples():
    """(class, field names, args, other args) for every record, the two
    argument lists making instances that differ."""
    std = SymplecticSpace(1)
    cycle = VanishingCycle((1, 0))
    w = MonodromyWord(Surface(1, 0), (cycle, VanishingCycle((0, 1), -1)))
    w2 = MonodromyWord(Surface(1, 0), (cycle,))
    trace = signature(w)
    step = ("index", "cycle", "solvable", "sigma", "witness", "cumulative_action")
    m = Matrix([[1, Fraction(1, 2)], [0, -3]], 2)
    return [
        (Matrix, ("entries", "cols"), (m.entries, 2), ((), 2)),
        (SymplecticSpace, ("half_dim",), (1,), (2,)),
        (Surface, ("genus", "boundary"), (2, 1), (1, 2)),
        (VanishingCycle, ("homology_class", "chirality"), ((1, 0, 2, 0), -1), ((1, 0, 2, 0),)),
        (MonodromyWord, ("surface", "cycles"), (w.surface, w.cycles), (w2.surface, w2.cycles)),
        (Lagrangian, ("space", "basis"), (std, ((1, 0),)), (std, ((0, 1),))),
        (StepRecord, step, tuple(getattr(trace.steps[1], f) for f in step),
         (2, cycle, False, 0, None, Matrix.identity(2))),
        (SignatureTrace, ("word", "steps", "null_homologous_count", "total"),
         (w, trace.steps, 0, trace.total), (w, (), 0, trace.total)),
        (CorrectionTerm, ("power", "matrix", "sigma"), (2, m, 0), (2, m, 1)),
        (FibrationDocument, ("word", "name"), (w, "two twists"), (w,)),
    ]


DEFAULTS = {VanishingCycle: {"chirality": 1}, FibrationDocument: {"name": None}}


def _twin(cls, names):
    defaults = DEFAULTS.get(cls, {})
    fields = [(f, object, dataclasses.field(default=defaults[f])) if f in defaults else (f, object)
              for f in names]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _params(cls):
    return [(p.name, p.default, p.kind) for p in inspect.signature(cls).parameters.values()]


def test_every_record_is_sampled():
    from lefsig._record import _Record

    def subclasses(cls):
        return {c for sub in cls.__subclasses__() for c in (sub, *subclasses(sub))}
    assert subclasses(_Record) == {sample[0] for sample in _samples()}
    assert len(_samples()) == 10


@pytest.mark.parametrize("cls, names, args, other", _samples(),
                         ids=[sample[0].__name__ for sample in _samples()])
def test_record_matches_its_frozen_data_class_twin(cls, names, args, other):
    twin_cls = _twin(cls, names)
    rec, same, different = cls(*args), cls(*args), cls(*other)
    twin = twin_cls(*args)
    assert _params(cls) == _params(twin_cls)
    assert repr(rec) == repr(twin)
    assert hash(rec) == hash(twin) == hash(same)
    assert rec == same and not rec != same
    assert rec != different and not rec == different
    assert repr(different) == repr(twin_cls(*other))
    # another type, even the twin with equal fields, is never equal
    assert rec.__eq__(twin) is NotImplemented and rec != twin and twin != rec
    assert rec != args and rec != object()
    keywords = dict(zip(names, args))
    assert cls(**keywords) == rec
    defaults = DEFAULTS.get(cls, {})
    for name, value in defaults.items():
        assert getattr(different, name) == value == getattr(twin_cls(*other), name)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        with pytest.raises(AttributeError):
            setattr(twin, name, 0)
    assert tuple(getattr(rec, f) for f in names) == args
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is cls and back == rec and hash(back) == hash(rec)
        assert repr(back) == repr(rec)
    for back in (copy.copy(rec), copy.deepcopy(rec)):
        assert type(back) is cls and back == rec


def test_cached_properties_live_beside_the_fields():
    w = MonodromyWord(Surface(1, 0), (VanishingCycle((1, 0)),))
    space = w.space
    assert w.space is space and space.form is space.form
    fresh = MonodromyWord(w.surface, w.cycles)
    assert fresh == w and hash(fresh) == hash(w)  # cached values are not fields
    back = pickle.loads(pickle.dumps(w))
    assert back == w and back.space == space


def test_cli_import_loads_no_unneeded_modules():
    """A bare `import lefsig.cli` (no `site`) leaves out what no job needs at
    start-up: `dataclasses` and the `inspect` it imports, `pathlib`,
    `random`, which only `maslov --check-axioms` imports, and `typing`."""
    unwanted = ("dataclasses", "inspect", "random", "pathlib", "typing")
    code = f"import sys, lefsig.cli; print(*[m for m in {unwanted!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_vanishing_cycle_reads_an_iterator_once():
    assert VanishingCycle(x for x in (1, 0)) == VanishingCycle((1, 0))
    with pytest.raises(InputError, match="integers, got 0.5"):
        VanishingCycle(x for x in (1, 0.5))


def test_monodromy_word_keeps_its_cycles_as_a_tuple():
    surface, cycles = Surface(1, 0), (VanishingCycle((1, 0)), VanishingCycle((0, 1), -1))
    w = MonodromyWord(surface, cycles)
    for given in (list(cycles), iter(cycles)):
        other = MonodromyWord(surface, given)
        assert other.cycles == cycles and other == w and hash(other) == hash(w)
        assert len(other) == 2
    with pytest.raises(InputError, match="cycle 2: vector has length 3"):
        MonodromyWord(surface, (c for c in (cycles[0], VanishingCycle((1, 0, 0)))))
