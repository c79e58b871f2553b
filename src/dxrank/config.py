"""The run configuration: one JSON document drives every subcommand.

`RunConfig` and its nested sections are the whole schema; `config_from_dict`
reads it off their type hints. The names each field is checked against
live here too, so reading a config loads the standard library alone and
each command imports only the modules it runs. The modules these names
came from import them back, so `dxrank.ehr.TASKS` is `dxrank.config.TASKS`.
"""
from __future__ import annotations

import hashlib
import json
import math
from urllib.parse import urlsplit

from . import InputError, asdict, field, from_json, record

# The two prediction tasks: every next-visit code, or only codes absent from
# the history. Candidate selection uses the same names for its modes.
TASKS = ("overall", "novel")
# How the LLM is asked; the stage alone decides what evidence the prompt carries.
STRATEGIES = ("evidence", "cot", "sc")
# Each stage adds one evidence mechanism to the one before it.
ABLATION_STAGES = ("base", "candidate", "prioritization", "relational")
DEFAULT_MAX_PROMPT_CHARS = 16000
# The scorer kinds of `backends.BACKENDS`.
BACKEND_KINDS = ("box", "retain")
# The remote client and the offline backends of `llm.MOCKS`.
LLM_BACKENDS = ("remote", "mock_echo", "mock_evidence")

DEFAULT_K = 50
DEFAULT_KS: dict[str, tuple[int, ...]] = {"overall": (10, 20), "novel": (5, 10)}


class ConfigError(InputError):
    """Raised for malformed configs, and for unusable input files with their path."""


class BackendError(InputError):
    """Raised for shape mismatches, unknown codes, or bad backend kinds."""


class SplitError(InputError):
    """Raised when a requested patient split cannot be honored."""


class SyntheticConfigError(InputError):
    """Raised for invalid synthetic-generation configs."""


def check_split_ratios(ratios: tuple[float, float, float]) -> None:
    """Raise SplitError unless the ratios are non-negative and sum to 1."""
    if any(r < 0 for r in ratios):
        raise SplitError(f"negative ratio in split_ratios {ratios}")
    if not math.isclose(sum(ratios), 1.0, abs_tol=1e-9):
        raise SplitError(f"split_ratios {ratios} do not sum to 1")


def _check_seed(seed: int, error: type[InputError]) -> None:
    """A seed of a `default_rng` stream, which takes none below 0."""
    if seed < 0:
        raise error(f"seed must be non-negative, got {seed}")


@record(frozen=True)
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 1e-2
    batch_size: int = 16
    seed: int = 0
    d: int = 16

    def __post_init__(self):
        if self.epochs < 0:
            raise BackendError("epochs must be non-negative")
        if self.learning_rate < 0:
            raise BackendError("learning_rate must be non-negative")
        if self.batch_size < 1 or self.d < 1:
            raise BackendError("batch_size and d must be positive")
        _check_seed(self.seed, BackendError)


@record(frozen=True)
class LlmConfig:
    backend: str = "mock_echo"
    endpoint_url: str = ""
    model_name: str = ""
    temperature: float = 0.0
    max_tokens: int = 512
    timeout_ms: int = 30000
    max_retries: int = 2
    max_in_flight: int = 4
    # Only hashed into per-prompt seeds, so any integer will do.
    seed: int = 0
    api_key_env: str = ""

    def __post_init__(self):
        if self.backend not in LLM_BACKENDS:
            raise InputError(f"unknown llm backend {self.backend!r}")
        if self.temperature < 0:
            raise InputError("temperature must be non-negative")
        if self.max_in_flight < 1:
            raise InputError("max_in_flight must be at least 1")
        if self.max_retries < 0:
            raise InputError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.timeout_ms <= 0:
            raise InputError(f"timeout_ms must be positive, got {self.timeout_ms}")
        if self.max_tokens < 1:
            raise InputError(f"max_tokens must be at least 1, got {self.max_tokens}")
        if self.backend == "remote":
            _check_endpoint(self.endpoint_url)


def _check_endpoint(url: str) -> None:
    if not url:
        raise InputError("remote backend requires endpoint_url")
    parts = urlsplit(url)
    try:
        parts.port
    except ValueError:
        raise InputError(f"endpoint_url {url!r} has a bad port") from None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise InputError(f"endpoint_url {url!r} is not an http:// or https:// "
                         "URL with a host")
    # A query or fragment would swallow the request path appended to the URL.
    if "?" in url or "#" in url:
        raise InputError(f"endpoint_url {url!r} has a query or fragment")


@record(frozen=True)
class ComorbidityRule:
    """If `trigger` is present in a visit, `onset` joins the next visit
    with probability `q` (independently per visit transition)."""

    trigger: str
    onset: str
    q: float


@record(frozen=True)
class SyntheticConfig:
    n_patients: int = 500
    n_ccs: int = 60
    icd_per_ccs: int = 3
    chronic_rate: float = 0.7
    rules: tuple[ComorbidityRule, ...] = ()
    visits_range: tuple[int, int] = (2, 5)
    codes_per_visit_range: tuple[int, int] = (2, 4)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        self.validate()

    def validate(self) -> None:
        if self.n_patients < 0:
            raise SyntheticConfigError("n_patients must be non-negative")
        if self.n_ccs < 1 or self.icd_per_ccs < 1:
            raise SyntheticConfigError("n_ccs and icd_per_ccs must be positive")
        if not 0.0 <= self.chronic_rate <= 1.0:
            raise SyntheticConfigError("chronic_rate must be in [0, 1]")
        for lo, hi, name in (
            (*self.visits_range, "visits_range"),
            (*self.codes_per_visit_range, "codes_per_visit_range"),
        ):
            if lo < 1 or hi < lo:
                raise SyntheticConfigError(f"{name} ({lo}, {hi}) is empty or invalid")
        if self.codes_per_visit_range[1] > self.n_ccs:
            raise SyntheticConfigError(
                "codes_per_visit_range exceeds the CCS vocabulary size"
            )
        vocab = set(ccs_vocabulary(self.n_ccs))
        for rule in self.rules:
            if not 0.0 <= rule.q <= 1.0:
                raise SyntheticConfigError(f"rule probability {rule.q} not in [0, 1]")
            if rule.trigger == rule.onset:
                raise SyntheticConfigError(
                    f"rule trigger and onset coincide ({rule.trigger})"
                )
            for code in (rule.trigger, rule.onset):
                if code not in vocab:
                    raise SyntheticConfigError(
                        f"rule references unknown CCS code {code!r} "
                        f"(vocabulary has {self.n_ccs} codes)"
                    )
        _check_seed(self.seed, SyntheticConfigError)


def ccs_vocabulary(n_ccs: int) -> list[str]:
    """Generated CCS ids, zero-padded so lexicographic order is numeric."""
    width = max(3, len(str(n_ccs)))
    return [f"CCS-{k:0{width}d}" for k in range(1, n_ccs + 1)]


@record(frozen=True)
class RunConfig:
    """One config drives every subcommand; unused sections are ignored.
    The fields, and those of the nested records, are the whole JSON
    schema: `config_from_dict` reads it off their type hints."""

    seed: int = 0
    split_ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)
    backend: str = "box"
    beta: float = 0.1
    k_candidates: int = DEFAULT_K
    task: str = "novel"
    strategy: str = "evidence"
    stage: str = "relational"
    max_prompt_chars: int = DEFAULT_MAX_PROMPT_CHARS
    template_path: str = ""
    synth: SyntheticConfig = field(default_factory=SyntheticConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    llm: LlmConfig = field(default_factory=LlmConfig)
    eval_ks: dict[str, tuple[int, ...]] = field(
        default_factory=lambda: {t: tuple(v) for t, v in DEFAULT_KS.items()}
    )

    def __post_init__(self):
        _check_seed(self.seed, ConfigError)
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.stage not in ABLATION_STAGES:
            raise ConfigError(f"unknown ablation stage {self.stage!r}")
        if self.backend not in BACKEND_KINDS:
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.beta <= 0:
            raise ConfigError("beta must be positive")
        if self.k_candidates < 1:
            raise ConfigError("k_candidates must be at least 1")
        if self.max_prompt_chars < 1:
            raise ConfigError("max_prompt_chars must be at least 1")
        check_split_ratios(self.split_ratios)
        if set(self.eval_ks) - set(TASKS):
            raise ConfigError(
                f"unknown eval_ks tasks: {sorted(set(self.eval_ks) - set(TASKS))}")
        for task, ks in self.eval_ks.items():
            if min(ks, default=1) < 1 or len(set(ks)) != len(ks):
                raise ConfigError(f"eval_ks.{task} must hold distinct integers >= 1, "
                                  f"got {list(ks)}")

    to_dict = asdict


def config_from_dict(doc: dict) -> RunConfig:
    try:
        return from_json(RunConfig, doc, "config", root=True)
    except InputError as exc:
        raise ConfigError(str(exc)) from None


def fingerprint_config(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
