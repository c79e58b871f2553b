"""Prompt composition and answer parsing for the LLM re-ranker.

A prompt fills the template's slots with titled sections (recent visit,
history, relational links, candidates) and an optional reasoning line.
It renders the evidence it is given: what a stage does not compute is
passed as None and leaves its section out. Answers are parsed leniently
back into a full permutation of the candidate codes.
"""
from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import InputError, record
from .config import ABLATION_STAGES, DEFAULT_MAX_PROMPT_CHARS, STRATEGIES, TASKS
from .ehr import Ontology, PredictionInstance
from .evidence import UNMAPPED_GROUP, CandidateSet, HistoryGroup, RelationalEvidence

SC_SAMPLES = 3
SC_TEMPERATURE = 0.7

HISTORY_TITLE_PRIORITIZED = "Patient Historical Diagnoses (Prioritized)"
HISTORY_TITLE_RAW = "Patient Historical Diagnoses"
RELATIONS_TITLE = "Relational Evidence Support"
CANDIDATES_TITLE_NOVEL = "Candidate CCS Codes (Novel Only)"
CANDIDATES_TITLE_OVERALL = "Candidate CCS Codes"
COT_LINE = "- Think step by step before the Answer line."

# Containment matching ignores fragments shorter than this.
MIN_CONTAINMENT_LEN = 4


class PromptError(InputError):
    """Raised for inconsistent prompt inputs or bad templates."""


@record(frozen=True)
class AblationFlags:
    """Which evidence an ablation stage computes: the scorer's top-K
    candidates (else every eligible code), prioritized history and
    relational links. `cli.predict_record` alone applies them."""

    candidates: bool = True
    prioritization: bool = True
    relations: bool = True

    @classmethod
    def for_stage(cls, stage: str) -> AblationFlags:
        try:
            level = ABLATION_STAGES.index(stage)
        except ValueError:
            raise PromptError(f"unknown ablation stage {stage!r}") from None
        return cls(
            candidates=level >= 1, prioritization=level >= 2, relations=level >= 3
        )


@record(frozen=True)
class PromptOptions:
    """How to prompt in every run of a command. `strategy` says only how the
    LLM is asked; what the prompt carries is the evidence it is given."""

    task: str = "overall"
    strategy: str = "evidence"
    template_text: str | None = None
    max_chars: int = DEFAULT_MAX_PROMPT_CHARS

    def __post_init__(self):
        if self.task not in TASKS:
            raise PromptError(f"unknown task {self.task!r}")
        if self.strategy not in STRATEGIES:
            raise PromptError(f"unknown strategy {self.strategy!r}")
        if self.max_chars < 1:
            raise PromptError("max_chars must be positive")


@record(frozen=True)
class ParsedPrediction:
    ranked: tuple[str, ...]
    matched_count: int
    raw_text: str

    def __post_init__(self):
        object.__setattr__(self, "ranked", tuple(self.ranked))
        if len(set(self.ranked)) != len(self.ranked):
            raise PromptError("duplicate codes in parsed ranking")


def load_template(path: str | Path | None = None) -> str:
    """Read a prompt template, stripping '#' comment lines. With no path the
    packaged default is used."""
    if path is None:
        path = Path(__file__).with_name("prompt_template.txt")
    text = Path(path).read_text(encoding="utf-8")
    kept = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return "\n".join(kept)


def _quote_join(names: Iterable[str]) -> str:
    return ", ".join(f'"{n}"' for n in names)


def _render_group(icd_names: Sequence[str], ccs_name: str) -> str:
    inner = ", ".join(f'"{n}"' for n in icd_names)
    return f'[{{{inner}}} BELONG TO "{ccs_name}"]'


def _section(title: str, body: str) -> str:
    return f"{title}:\n{body}\n\n"


def _render(template: str, values: Mapping[str, str]) -> str:
    try:
        return template.format(**values)
    except (AttributeError, KeyError, IndexError, ValueError) as exc:
        raise PromptError(f"bad template: {exc}") from None


def compose_prompt(
    instance: PredictionInstance,
    groups: Sequence[HistoryGroup] | None,
    relations: RelationalEvidence | None,
    candidates: CandidateSet,
    ontology: Ontology,
    options: PromptOptions = PromptOptions(),
) -> str:
    """Render the full prompt text from the evidence given.

    The novel task requires novel-mode candidates (and vice versa). `groups`
    render as prioritized history, None as raw history in code order, and
    `relations` only when not None. Groups are dropped from the tail until
    the prompt fits options.max_chars (the history section is the only
    unbounded part); a raw history is not truncated.
    """
    if candidates.mode != options.task:
        raise PromptError(
            f"task {options.task!r} given {candidates.mode!r}-mode candidates"
        )
    novel = options.task == "novel"
    links = None if relations is None else "\n".join(
        f'"{ontology.ccs_name(link.history_ccs)}" ⇒ "{ontology.ccs_name(link.candidate_ccs)}"'
        for link in relations.links
    )
    last_visit = _section(
        f"Last Diagnostic Visit ({instance.days_to_target} days ago)",
        _quote_join(ontology.icd_name(i) for i in instance.input_visits[-1].icd),
    )
    values = {
        "last_visit_section": last_visit if novel else "",
        "relations_section": "" if links is None else _section(RELATIONS_TITLE, links or "None"),
        "candidates_section": _section(
            CANDIDATES_TITLE_NOVEL if novel else CANDIDATES_TITLE_OVERALL,
            _quote_join(ontology.ccs_name(c) for c in candidates.codes),
        ),
        "cot_line": f"\n{COT_LINE}" if options.strategy == "cot" else "",
    }
    template = (
        options.template_text if options.template_text is not None else load_template()
    )
    if groups is None:
        names = (ontology.ccs_name(c) for c in sorted(instance.history_ccs))
        values["history_section"] = _section(HISTORY_TITLE_RAW, _quote_join(names))
        return _render(template, values)
    rendered = [
        _render_group(
            [ontology.icd_name(i) for i in g.icds],
            g.ccs if g.ccs == UNMAPPED_GROUP else ontology.ccs_name(g.ccs),
        )
        for g in groups
    ]
    # The longest prefix of the groups that fits, or none.
    for n in range(len(rendered), -1, -1):
        values["history_section"] = _section(HISTORY_TITLE_PRIORITIZED, ", ".join(rendered[:n]))
        text = _render(template, values)
        if len(text) <= options.max_chars:
            break
    return text


# ---------------------------------------------------------------------------
# Answer parsing
# ---------------------------------------------------------------------------


def _normalize(token: str) -> str:
    return token.strip().strip("\"'").strip().rstrip(".").casefold()


def _match_token(norm: str, folded: Sequence[str]) -> int | None:
    """Resolve one answer token that names no candidate exactly to a
    candidate index by containment, or None."""
    if not norm:
        return None
    # Name contained in the token: prefer the longest (most specific) name.
    best: int | None = None
    for i, f in enumerate(folded):
        if len(f) >= MIN_CONTAINMENT_LEN and f in norm:
            if best is None or len(f) > len(folded[best]):
                best = i
    if best is not None:
        return best
    # Token contained in a name: prefer the shortest enclosing name.
    if len(norm) >= MIN_CONTAINMENT_LEN:
        enclosing = [i for i, f in enumerate(folded) if norm in f]
        if enclosing:
            return min(enclosing, key=lambda i: (len(folded[i]), i))
    return None


def parse_answer(
    text: str,
    candidates: CandidateSet,
    ccs_names: Mapping[str, str] | None = None,
) -> ParsedPrediction:
    """Parse a model reply into a full ranking of the candidate codes.

    The last line starting with "answer:" (any case) wins; its comma-split
    tokens are matched to candidate names exactly, then by containment.
    Without an answer line, candidate names are collected from the whole
    text in order of first mention. Unmentioned candidates are backfilled
    in candidate (logit) order.
    """
    if not candidates.codes:
        raise PromptError("cannot parse against an empty candidate set")
    codes = candidates.codes
    names = [ccs_names.get(c, c) if ccs_names else c for c in codes]
    folded = [n.casefold() for n in names]
    # Each non-empty folded name's first index; an empty token matches none.
    exact: dict[str, int] = {}
    for i, f in enumerate(folded):
        if f:
            exact.setdefault(f, i)

    answer_body: str | None = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.casefold().startswith("answer:"):
            answer_body = stripped[len("answer:"):]

    matched: list[int] = []
    if answer_body is not None:
        seen: set[int] = set()
        for norm in [_normalize(token) for token in answer_body.split(",")]:
            idx = exact.get(norm)
            if idx is None:
                idx = _match_token(norm, folded)
            if idx is not None and idx not in seen:
                seen.add(idx)
                matched.append(idx)
    else:
        hay = text.casefold()
        hits = []
        for i, f in enumerate(folded):
            pos = hay.find(f)
            if pos >= 0:
                hits.append((pos, -len(f), i))
        matched = [i for _, _, i in sorted(hits)]

    ranked = [codes[i] for i in matched]
    listed = set(ranked)
    for c in codes:
        if c not in listed:
            listed.add(c)
            ranked.append(c)
    return ParsedPrediction(
        ranked=tuple(ranked), matched_count=len(matched), raw_text=text
    )


def sc_aggregate(rankings: Sequence[ParsedPrediction]) -> ParsedPrediction:
    """Borda fusion of several rankings over one candidate set, ties broken by
    code id. Each ranking orders the same K codes, so a code's Borda score is
    n·K minus its position sum, and that sum alone gives the order."""
    if not rankings:
        raise PromptError("no rankings to aggregate")
    if len(rankings) == 1:  # a vote of one is its own ranking
        return rankings[0]
    base = set(rankings[0].ranked)
    for r in rankings[1:]:
        if set(r.ranked) != base:
            raise PromptError("rankings cover different candidate sets")
    position_sum = dict.fromkeys(base, 0)
    for r in rankings:
        for pos, c in enumerate(r.ranked):
            position_sum[c] += pos
    fused = sorted(position_sum, key=lambda c: (position_sum[c], c))
    mean_matched = sum(r.matched_count for r in rankings) / len(rankings)
    return ParsedPrediction(
        ranked=tuple(fused),
        matched_count=int(round(mean_matched)),
        raw_text="\n---\n".join(r.raw_text for r in rankings),
    )
