"""The immutable base of the package's value types."""

from operator import attrgetter


def _store_init(cls, defaults: dict):
    """An ``__init__(self, <slots in order>)`` that stores each argument,
    straight-line, with ``defaults`` for a trailing run of slots."""
    names = cls.__slots__
    if tuple(defaults) != names[len(names) - len(defaults) :]:
        raise TypeError(f"{cls.__qualname__}: defaults must name its last slots, in order")
    lines = [f"def __init__(self, {', '.join(names)}):"]
    lines += [f"    object.__setattr__(self, {name!r}, {name})" for name in names]
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults.values()) or None
    init.__module__ = cls.__module__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    """A value whose fields are its class's ``__slots__``, each set once by
    the class's own ``__init__`` through ``object.__setattr__``.

    A subclass that defines no ``__init__`` gets one that only stores its
    arguments, one per slot in order; trailing defaults come from the class
    keyword, as in ``class Check(Record, defaults={"witness": None})``.
    Fields can be neither set nor deleted afterwards.  Equality, hash and
    repr follow the fields in slot order; ``replace`` reruns the constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls, defaults=None):
        cls._fields = attrgetter(*cls.__slots__)
        if "__init__" not in cls.__dict__:
            cls.__init__ = _store_init(cls, defaults or {})
        elif defaults is not None:
            raise TypeError(f"{cls.__qualname__}: defaults are for a generated __init__")

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
