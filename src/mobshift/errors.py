"""Exception types shared across the package, ``value_type``, the class
decorator of its immutable value types, and ``DefectReport``, the report of every
certificate, which every command loads from here.

Every refusal an input can reach is one of two families, and its message tells one
kind of refusal from another: ``NumericsError`` covers computations that could not be completed to the
required accuracy (the CLI maps these to exit code 3), and ``ParameterError``
covers inputs outside an operation's domain (exit code 2).  Beside them stay
``solve``'s ``SingularMatrixError`` and ``WindowMismatchError``, which no
command line reaches.  ``value_type`` gives every class it decorates the same few
methods, which ``dataclasses`` would compile anew for each class at import.
"""

import math


def value_type(cls=None, *, eq: bool = True, hide: tuple = ()):
    """Make ``cls`` a frozen value type over its annotated fields, in order.

    ``__init__`` takes the fields by position or keyword, a class attribute of
    a field's name being its default (one object, shared by every instance
    that takes it), and then calls ``__post_init__`` if the class has one,
    which sets a field through ``object.__setattr__``.  Assigning or deleting
    an attribute raises ``AttributeError``.  ``repr`` reads
    ``Name(field=value, ...)`` without the fields named in ``hide``.  With
    ``eq``, instances of one class compare and hash as the tuples of their
    fields; without it, by identity.  A method the class defines is kept.
    """
    if cls is None:
        return lambda cls: value_type(cls, eq=eq, hide=hide)
    cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
    cls._shown = tuple(name for name in cls._fields if name not in hide)
    methods = {"__init__": _init, "__setattr__": _frozen, "__delattr__": _frozen, "__repr__": _repr}
    if eq:
        methods.update(__eq__=_eq, __hash__=_hash)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def _init(self, *args, **kwargs):
    cls = type(self)
    if len(args) > len(cls._fields) or not kwargs.keys() <= set(cls._fields[len(args):]):
        raise TypeError(f"{cls.__name__}() takes the fields {cls._fields}, got {len(args)} by position and {sorted(kwargs)}")
    values = dict(zip(cls._fields, args), **kwargs)
    for name in cls._fields:
        if name not in values and not hasattr(cls, name):
            raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        object.__setattr__(self, name, values[name] if name in values else getattr(cls, name))
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _frozen(self, name, value=None):
    raise AttributeError(f"{type(self).__name__} is immutable: cannot assign or delete {name!r}")


def _repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
    return f"{type(self).__qualname__}({fields})"


def _key(self) -> tuple:
    return tuple(getattr(self, name) for name in self._fields)


def _eq(self, other):
    return _key(self) == _key(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self):
    return hash(_key(self))


@value_type
class DefectReport:
    """Named residual with its tolerance, verdict, and reproducing context."""

    name: str
    value: float
    tolerance: float
    passed: bool
    context: dict = {}

    @classmethod
    def build(cls, name: str, value: float, tolerance: float, context: dict | None = None) -> "DefectReport":
        value = float(value)
        tolerance = float(tolerance)
        if not value >= 0.0:
            raise ParameterError(f"defect value must be non-negative, got {value}")
        if not 0.0 < tolerance < math.inf:  # an infinite one passes everything and is not JSON
            raise ParameterError(f"tolerance must be positive and finite, got {tolerance}")
        return cls(name, value, tolerance, value <= tolerance, dict(context or {}))

    def to_json(self) -> str:
        import json  # loaded where JSON is printed: a sweep's CSV never pays it

        payload = {
            "name": self.name,
            "value": self.value,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "context": self.context,
        }
        return json.dumps(payload, sort_keys=True)


class NumericsError(Exception):
    """A computation could not be completed to the required accuracy: a generator that is
    not skew-Hermitian in its basis, a circle grid that cannot resolve the action, or a
    value that overflows double precision from finite inputs."""


class SingularMatrixError(NumericsError):
    """Linear solve refused: condition estimate beyond the trust threshold."""

    def __init__(self, estimate: float, message: str | None = None):
        self.estimate = estimate
        if message is None:
            message = f"condition estimate {estimate:.3e} exceeds the trusted range"
        super().__init__(message)


class ParameterError(ValueError):
    """Inputs outside the domain an operation supports: parameters of no supported family,
    outside the unitary range or at a pole, or a padding that leaves no interior."""


class WindowMismatchError(ValueError):
    """Operands on incompatible index windows or bases: raised only at ``numkernel``'s two doors and shape checks."""

