"""The one record class.  A record's fields are the names in its
``__slots__``, in that order: the one constructor binds them by position or
by name, every field required (a missing, extra or unknown one raises a
``TypeError`` that names the class), and ``__reduce__`` pickles by the same
order.  Records compare, hash and print by their fields and refuse
assignment; the classification report holds dicts, so its hash raises
``TypeError``.  Four records keep an ``__init__`` that works on the fields
and ends in the one constructor: ``MarkedInstance`` (S and T frozensets),
``LPolynomial`` (its checks), ``QSqrtValue`` (b*sqrt(q) folded into a for
square q) and ``ClosedPoint`` (``pi`` and ``y_rep`` default to None)."""


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            try:
                args += tuple(map(kwargs.pop, names[len(args):]))
            except KeyError as exc:
                raise TypeError(f"{self.__class__.__name__} is missing the field {exc}") from None
            if kwargs:
                raise TypeError(f"{self.__class__.__name__} got an unknown or repeated "
                                f"field {next(iter(kwargs))!r}")
        if len(args) != len(names):
            raise TypeError(f"{self.__class__.__name__} takes the fields "
                            f"{', '.join(names)}, got {len(args)} values")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()
