"""Diagnosis-ranking toolkit: sequence models over longitudinal diagnosis
records, model-guided evidence extraction, prompt composition for an LLM
re-ranker, and ranking evaluation."""

__version__ = "0.1.0"


class InputError(ValueError):
    """Base of every error caused by a config, flag or input file that the
    pipeline cannot use; the command line reports it and exits 2."""


def json_value(hint: type, value, where: str):
    """`value` if it has the JSON type `hint` (int, float, str or list),
    else an InputError: a bool is not a number, a float is not an int, and an
    int is a valid float."""
    allowed = (int, float) if hint is float else hint
    if not isinstance(value, allowed) or isinstance(value, bool):
        raise InputError(f"{where} must be {hint.__name__}, got {value!r}")
    return value
