"""Diagnosis-ranking toolkit: sequence models over longitudinal diagnosis
records, model-guided evidence extraction, prompt composition for an LLM
re-ranker, and ranking evaluation."""

import math
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from typing import get_args, get_origin, get_type_hints

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


@cache
def _schema(cls) -> tuple[dict, frozenset]:
    """The type hints of dataclass `cls`, and its fields without a default."""
    return get_type_hints(cls), frozenset(
        f.name for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING)


def from_json(cls, doc, where: str, root: bool = False, **given):
    """Build dataclass `cls` from the JSON object `doc` by the class's type
    hints: arrays become tuples and objects dataclasses or dicts. Unknown
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
    if is_dataclass(hint):
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
