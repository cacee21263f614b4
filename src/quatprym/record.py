"""Value records: equality, hash and repr read off the fields.

A subclass of ``Record`` names its fields in ``__slots__`` (a ``__dict__``
slot, which holds cached tables, is not a field) and writes its own
constructor.  Two records are equal when they are of the same class and
their fields are equal; a record hashes as the tuple of its fields, so its
hash, and the order of any set or dict it keys, is that of the tuple; and
it prints as ``Name(field=value, ...)``.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        fields = tuple(n for n in cls.__slots__ if n != "__dict__")
        cls._fields = fields
        # attrgetter reads the fields in C, but returns a tuple only for two
        # or more; the records hashed in the inner loops all have two or more
        if len(fields) > 1:
            cls._values = property(attrgetter(*fields))
        else:
            cls._values = property(lambda self: tuple(getattr(self, n) for n in fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        args = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values))
        return f"{type(self).__name__}({args})"
