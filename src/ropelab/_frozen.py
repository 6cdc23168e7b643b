"""The immutable base of ropelab's value types.

It gives a class the behaviour of ``@dataclass(frozen=True)`` without
:mod:`dataclasses`, whose decorator compiles each class's methods with
``exec`` when its module is imported: 4.6 ms of every CLI start for
ropelab's 13 value types (Python 3.11, 2-CPU host).
A subclass lists its fields, in order, in ``__match_args__`` and stores
them from its own ``__init__`` through ``self.__dict__``. From those fields
the base derives:

* ``==`` on the tuple of fields, ``NotImplemented`` for any other class;
* ``hash`` of the same tuple (a subclass that defines ``__eq__`` is
  unhashable, as Python makes it);
* the dataclass ``repr``, e.g. ``VideoGrid(width=2, height=3, frames=4)``;
* ``AttributeError`` on setting or deleting any attribute.

Instances keep a ``__dict__``, so ``functools.cached_property``,
:mod:`copy` and :mod:`pickle` work on them unchanged.
"""

from __future__ import annotations


class Frozen:
    """Base of an immutable value type whose fields are named by ``__match_args__``."""

    __match_args__: tuple[str, ...] = ()

    def _key(self) -> tuple:
        """The values that ``==`` and ``hash`` compare: every field, in order."""
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
