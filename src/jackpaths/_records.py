"""Record bases in place of ``dataclasses``, whose import loads ``inspect``.
A subclass lists its fields as class annotations, in order; the
constructor takes them by position or keyword."""


class Record:
    """Mutable: equal to a record of its class with equal fields, so it has
    no hash; its repr names the fields."""

    _fields = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        if values.keys() != set(self._fields) or len(args) + len(kwargs) > len(values):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        self.__dict__.update(values)

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """Immutable and hashable: setting or deleting a field raises AttributeError."""

    def __hash__(self):
        return hash(frozenset(vars(self).items()))

    def __setattr__(self, name, *_):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__
