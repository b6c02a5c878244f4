"""Immutable value records, the base of every lefsig data class.

A record's `__init__` checks its arguments and assigns each field once
through `_setattr`; `_fields` names the fields in order.  As with a frozen
standard-library data class, `==` compares the tuple of field values within
one class only, `hash` hashes it, the repr is `Name(field=value, ...)`, each
value shown by `errors._show`, and assignment or deletion raises
`AttributeError`.  `cached_property` values live in the instance `__dict__`,
outside that tuple.  Records are written out by hand, not generated, because
every CLI call is a fresh process: the data-class module imports `inspect`,
and its decorator `exec`s new methods at each start.  That tuple is a
record's identity, `Matrix` included: one `operator.attrgetter` over
`_fields`, built once per class, reads it in C, where a `getattr` loop would
be several times slower.
"""

from operator import attrgetter

from .errors import _show

_setattr = object.__setattr__  # a record's own writes, past the read-only __setattr__


class _Record:
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls._fields)
        # over one name attrgetter returns the bare value; the key is a 1-tuple
        # then, so that every hash equals the frozen data class's
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda rec: (get(rec),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_show(getattr(self, name))}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
