"""Diagnosis-ranking toolkit: sequence models over longitudinal diagnosis
records, model-guided evidence extraction, prompt composition for an LLM
re-ranker, and ranking evaluation."""

import math
from functools import cache
from typing import Sequence, get_args, get_origin, get_type_hints

__version__ = "0.1.0"


class InputError(ValueError):
    """Base of every error caused by a config, flag or input file that the
    pipeline cannot use; the command line reports it and exits 2."""


def json_value(hint: type, value, where: str):
    """`value` if it has the JSON type `hint` (int, float, str, list or
    dict), else an InputError: a bool is not a number, a float is not an
    int, an int is a valid float, and NaN and ±Infinity are not numbers
    (RFC 8259 §6)."""
    allowed = (int, float) if hint is float else hint
    if (not isinstance(value, allowed) or isinstance(value, bool)
            or isinstance(value, float) and not math.isfinite(value)):
        raise InputError(f"{where} must be {hint.__name__}, got {value!r}")
    return value


def mean(values: Sequence[float]) -> float:
    """Plain left-to-right mean of a non-empty sequence. Not `sum`, which
    compensates its rounding from Python 3.12 on, so the bits would differ
    between versions."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


# ---------------------------------------------------------------------------
# Records: the part of the standard library's data classes that dxrank uses.
# Importing the stdlib module loads `inspect`, and its decorator compiles six
# methods per frozen class; together they cost each command process 15-30 ms.
# A record compiles only its `__init__`, with the body the stdlib writes, and
# shares plain functions for the other methods. There are no ClassVar,
# InitVar, slots, keyword-only or per-field repr/compare options.
# ---------------------------------------------------------------------------

MISSING = object()


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting a field of a frozen record."""


class Field:
    """One field of a record: its name, type hint, default or default factory,
    and whether `__init__` takes it. Its options are given as `field(...)`,
    the class attribute of the field's annotation."""

    def __init__(self, *, default=MISSING, default_factory=MISSING, init: bool = True):
        if default is not MISSING and default_factory is not MISSING:
            raise ValueError("cannot specify both default and default_factory")
        self.name = self.type = None
        self.default, self.default_factory, self.init = default, default_factory, init


field = Field


def record(cls=None, /, *, frozen: bool = False):
    """Class decorator: the stdlib's `dataclass(cls, frozen=frozen)` for the
    options above. Fields are the annotations of `cls` after those of its
    record bases, a redeclared one keeping its place; `__eq__` and `__hash__`
    compare the tuple of field values, and an unfrozen record is unhashable."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    specs: dict[str, Field] = {}
    for base in cls.__mro__[-1:0:-1]:
        specs.update(getattr(base, "__record_fields__", {}))
    for name, hint in cls.__dict__.get("__annotations__", {}).items():
        f = cls.__dict__.get(name, MISSING)
        if isinstance(f, Field):
            if f.default is MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, f.default)
        else:
            f = Field(default=f)
        f.name, f.type = name, hint
        specs[name] = f
    cls.__record_fields__ = specs
    cls.__init__ = _init_fn(cls, specs.values(), frozen)
    methods = {"__repr__": _repr, "__eq__": _eq, "__hash__": _hash if frozen else None}
    if frozen:
        methods.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def _init_fn(cls, specs, frozen: bool):
    """Compile `cls.__init__`: parameters with their defaults, then one
    assignment per field that `__init__` or a factory sets, then
    `__post_init__`."""
    env = {"MISSING": MISSING, "__object_setattr": object.__setattr__}
    params, body = ["self"], []
    for f in specs:
        dflt = f"__dflt_{f.name}"
        if f.init:
            if f.default is not MISSING:
                env[dflt] = f.default
                params.append(f"{f.name}={dflt}")
            elif f.default_factory is not MISSING:
                params.append(f"{f.name}=MISSING")
            elif "=" in params[-1]:
                raise TypeError(f"non-default argument {f.name!r} follows default argument")
            else:
                params.append(f.name)
        if f.default_factory is not MISSING:
            env[dflt] = f.default_factory
            value = f"{dflt}() if {f.name} is MISSING else {f.name}" if f.init else f"{dflt}()"
        elif f.init:
            value = f.name
        else:
            continue  # an init=False default stays a class attribute
        body.append(f"__object_setattr(self, {f.name!r}, {value})" if frozen
                    else f"self.{f.name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = f"def __init__({', '.join(params)}):\n " + "\n ".join(body or ["pass"])
    exec(source, env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self.__record_fields__])


def _repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__record_fields__)
    return f"{self.__class__.__qualname__}({shown})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _frozen_setattr(self, name: str, value) -> None:
    # A plain subclass of a frozen record may set attributes that are not fields.
    if "__record_fields__" in type(self).__dict__ or name in self.__record_fields__:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")
    object.__setattr__(self, name, value)


def _frozen_delattr(self, name: str) -> None:
    if "__record_fields__" in type(self).__dict__ or name in self.__record_fields__:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
    object.__delattr__(self, name)


def is_record(obj) -> bool:
    """Whether `obj` is a record class or an instance of one."""
    return hasattr(obj if isinstance(obj, type) else type(obj), "__record_fields__")


def fields(class_or_instance) -> tuple[Field, ...]:
    """The fields of a record class or instance, in `__init__` order."""
    if not is_record(class_or_instance):
        raise TypeError("must be called with a record type or instance")
    return tuple(class_or_instance.__record_fields__.values())


def asdict(obj) -> dict:
    """A record instance as a dict of its fields, recursing into records,
    lists, tuples and dicts, and deep-copying any other value."""
    if not hasattr(type(obj), "__record_fields__"):
        raise TypeError("asdict() should be called on record instances")
    return _asdict(obj)


_ATOMIC = frozenset({type(None), bool, int, float, complex, str, bytes})


def _asdict(obj):
    if type(obj) in _ATOMIC:
        return obj
    if hasattr(type(obj), "__record_fields__"):
        return {name: _asdict(getattr(obj, name)) for name in obj.__record_fields__}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(_asdict, obj))
    if isinstance(obj, dict):
        return type(obj)((_asdict(k), _asdict(v)) for k, v in obj.items())
    import copy  # here only: records of config values never reach it

    return copy.deepcopy(obj)


def replace(obj, /, **changes):
    """A new record like `obj` with `changes` to fields that `__init__` takes."""
    if not hasattr(type(obj), "__record_fields__"):
        raise TypeError("replace() should be called on record instances")
    for f in fields(obj):
        if not f.init:
            if f.name in changes:
                raise ValueError(f"field {f.name} is declared with init=False, "
                                 "it cannot be specified with replace()")
        elif f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return obj.__class__(**changes)


@cache
def _schema(cls) -> tuple[dict, frozenset]:
    """The type hints of record `cls`, and its fields without a default."""
    return get_type_hints(cls), frozenset(
        f.name for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING)


def from_json(cls, doc, where: str, root: bool = False, **given):
    """Build record `cls` from the JSON object `doc` by the class's type
    hints: arrays become tuples and objects records or dicts. Unknown
    keys, missing required fields and values of the wrong JSON type raise an
    InputError naming the key. `where` names `doc` in messages; its fields
    are `where.key`, or bare keys when `doc` is the `root` of its document.
    `given` holds fields the caller supplies, which `doc` may not hold. An
    error of the class's own checks keeps its type, prefixed with `where`
    below the root."""
    if not isinstance(doc, dict):
        raise InputError(f"{where} must be an object, got {doc!r}")
    hints, required = _schema(cls)
    unknown = doc.keys() - (hints.keys() - given.keys())
    if unknown:
        raise InputError(f"unknown {where} keys: {sorted(unknown)}")
    missing = required - doc.keys() - given.keys()
    if missing:
        raise InputError(f"{where} is missing {sorted(missing)}")
    prefix = "" if root else f"{where}."
    values = {k: _value(hints[k], v, prefix + k) for k, v in doc.items()}
    try:
        return cls(**values, **given)
    except InputError as exc:
        if root:
            raise
        raise type(exc)(f"{where}: {exc}") from None


def _value(hint, value, where: str):
    """Check one JSON value against a type hint. Integers are valid floats
    and keep their JSON spelling, so fingerprints follow the document."""
    if is_record(hint):
        return from_json(hint, value, where)
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise InputError(f"{where} must be an array, got {value!r}")
        if args[-1] is Ellipsis:
            # One pass over an array of strings; the item path only on failure.
            if args[0] is str and set(map(type, value)) <= {str}:
                return tuple(value)
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise InputError(f"{where} must have {len(args)} items, got {len(value)}")
        return tuple(_value(a, v, f"{where}[{i}]")
                     for i, (a, v) in enumerate(zip(args, value)))
    if origin is dict:
        if not isinstance(value, dict):
            raise InputError(f"{where} must be an object, got {value!r}")
        return {k: _value(args[1], v, f"{where}.{k}") for k, v in value.items()}
    return json_value(hint, value, where)
