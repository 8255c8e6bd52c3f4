"""The immutable record base of lenspp's value classes.

A record is a slotted class whose fields are its __slots__, in order; the
slots are its only field list.  Record gives it the value semantics of a
frozen dataclass without generating code.  Its one constructor takes the
fields by position or keyword, raises TypeError naming the class for a
missing, extra, unknown or twice-given field, sets the slots, and then
calls self.__post_init__() if the class defines one (a validator, which
may normalise a field through object.__setattr__).  It also gives the repr
Name(field=value!r, ...), equality only between records of one class, the
hash of the field tuple, and AttributeError on assignment and deletion.
The slot setters and the field getter are built once per class, when the
class is defined.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    # a validating record overrides this with a method; it is looked up on
    # the instance at each construction, so a patched validator sees them all
    __post_init__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # attrgetter of a single name returns the bare value, not a 1-tuple
        if len(cls.__slots__) < 2:
            raise TypeError(f"{cls.__qualname__} needs at least two fields")
        cls._values = attrgetter(*cls.__slots__)
        # each slot's descriptor setter: it bypasses the refusing __setattr__,
        # and is cheaper than object.__setattr__ with the slot's name
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._setters):
            args = self._bind(args, kwargs)
        for put, value in zip(self._setters, args):
            put(self, value)
        post_init = self.__post_init__
        if post_init is not None:
            post_init()

    def _bind(self, args, kwargs):
        """The field values in slot order of a call with keywords or a
        wrong number of positional arguments."""
        name, fields = type(self).__qualname__, self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        for field in kwargs:
            if field not in fields:
                raise TypeError(f"{name}() got an unknown field {field!r}")
            if fields.index(field) < len(args):
                raise TypeError(f"{name}() got field {field!r} twice")
        missing = [field for field in fields[len(args):] if field not in kwargs]
        if missing:
            raise TypeError(f"{name}() missing {', '.join(map(repr, missing))}")
        return (*args, *(kwargs[field] for field in fields[len(args):]))

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
