"""The immutable base of the package's value types."""

from operator import attrgetter


class Record:
    """A value whose fields are its class's ``__slots__``, each set once by
    the class's own ``__init__`` through ``object.__setattr__``.

    Fields can be neither set nor deleted afterwards.  Equality, hash and
    repr follow the fields in slot order; ``replace`` reruns the constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self):  # for pickle and copy, which bypass __init__
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def replace(self, **changes):
        """A copy with the named fields changed, built and checked by the
        constructor, whose parameters are the fields it takes."""
        code = type(self).__init__.__code__
        for name in code.co_varnames[1 : code.co_argcount]:
            changes.setdefault(name, getattr(self, name))
        return type(self)(**changes)
