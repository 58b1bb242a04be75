"""The base of the package's small value records.

A record lists its constructor arguments, in order, in ``__slots__`` and
writes its own ``__init__``, which sets each one with
``object.__setattr__``; ``_fields``, the slots that make up its value,
drive ``==``, ``hash`` and ``repr``.  Any later assignment raises
``AttributeError``.  ``__reduce__`` rebuilds a record from its slots
through the constructor, so pickle and ``copy`` check them again.
"""

from __future__ import annotations


class _Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, s) for s in self.__slots__])
