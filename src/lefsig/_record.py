"""Immutable value records, the base of every lefsig data class.

A record's `__init__` checks its arguments and assigns each field once
through `_setattr`; `_fields` names the fields in order and `_key()` returns
them as a tuple.  As with a frozen standard-library data class, `==` compares
`_key()` within one class only, `hash` hashes it, the repr is
`Name(field=value, ...)`, and assignment or deletion raises `AttributeError`.
`cached_property` values live in the instance `__dict__`, outside `_key()`.
Records are written out by hand, not generated, because every CLI call is a
fresh process: the data-class module imports `inspect`, and its decorator
`exec`s new methods at each start.  `_key` is spelled out per class because a
`getattr` loop over `_fields` makes `==` and `hash` several times slower;
`Matrix`, compared inside the algorithms, writes `==` and `hash` out itself.
"""

_setattr = object.__setattr__  # a record's own writes, past the read-only __setattr__


class _Record:
    _fields: tuple[str, ...]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
