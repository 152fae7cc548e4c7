"""The shared base of the package's immutable records.

A record class names its fields in ``__slots__`` and sets them in its own
``__init__`` through ``object.__setattr__``.  :class:`Record` reads the
fields from ``__slots__`` and gives every record the behaviour of a frozen
dataclass: equality only with an instance of the same class, the hash of
the field tuple, a ``Name(field=value, ...)`` repr, and an
``AttributeError`` on assigning or deleting an attribute.  It runs no
generated code and imports only :mod:`operator`, which ``re`` has
loaded already, so defining a record costs a process next to nothing.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__
        cls._values = attrgetter(*cls.__slots__)
        # attrgetter gives the one field of a one-field record bare
        cls._bare = len(cls.__slots__) == 1

    @classmethod
    def _of(cls, *values):
        """The record with field ``values`` that are already valid, without
        running ``__init__``."""
        record = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(record, name, value)
        return record

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        values = self._values(self)
        return hash((values,) if self._bare else values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which checks the fields again
        values = self._values(self)
        return type(self), (values,) if self._bare else values
