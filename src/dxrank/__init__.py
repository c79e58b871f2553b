"""Diagnosis-ranking toolkit: sequence models over longitudinal diagnosis
records, model-guided evidence extraction, prompt composition for an LLM
re-ranker, and ranking evaluation."""

__version__ = "0.1.0"


class InputError(ValueError):
    """Base of every error caused by a config, flag or input file that the
    pipeline cannot use; the command line reports it and exits 2."""
