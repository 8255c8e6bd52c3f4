"""The immutable record base of lenspp's value classes.

A record is a slotted class whose fields are its __slots__, in order, set
once by its own __init__ through object.__setattr__.  Record gives it the
value semantics of a frozen dataclass without generating code: the repr
Name(field=value!r, ...), equality only between records of one class, the
hash of the field tuple, and AttributeError on assignment and deletion.
Equality and hashing read the fields through one attrgetter per class,
built when the class is defined.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # attrgetter of a single name returns the bare value, not a 1-tuple
        if len(cls.__slots__) < 2:
            raise TypeError(f"{cls.__qualname__} needs at least two fields")
        cls._values = attrgetter(*cls.__slots__)

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self))
        )
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__: the default slot-state
        # restore would go through the refusing __setattr__
        return (type(self), self._values(self))
