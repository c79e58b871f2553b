"""Property tests of prompt composition and answer parsing (Hypothesis:
MacIver et al., JOSS 2019): truncation keeps the longest prefix of history
groups that fits, and any reply parses to a full ranking of the candidates."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from dxrank.ehr import TASKS, Dataset, Ontology, build_instances
from dxrank.evidence import (
    UNMAPPED_GROUP,
    CandidateSet,
    HistoryGroup,
    RelationalEvidence,
    RelationLink,
)
from dxrank.prompting import PromptOptions, compose_prompt, parse_answer

from .conftest import CCS_NAMES, ICD_NAMES, ICD_TO_CCS, make_patient

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

ONTOLOGY = Ontology(icd_to_ccs=ICD_TO_CCS, icd_names=ICD_NAMES, ccs_names=CCS_NAMES)
INSTANCE = build_instances(Dataset(patients=(
    make_patient("pA", [(0, ["I01a"]), (7, ["I01b", "I02a"]), (12, ["I03a"])]),
)))[0]
RELATIONS = RelationalEvidence(links=(RelationLink("C01", "C03", 2),))
CANDIDATES = {mode: CandidateSet(codes=("C03", "C04", "C05"), mode=mode) for mode in TASKS}
NO_LIMIT = 10**9

groups = st.lists(
    st.builds(HistoryGroup,
              ccs=st.sampled_from(sorted(CCS_NAMES) + [UNMAPPED_GROUP]),
              icds=st.lists(st.sampled_from(sorted(ICD_NAMES)), min_size=1, max_size=4,
                            unique=True).map(tuple)),
    max_size=8)


def _compose(prefix, max_chars: int, task: str, strategy: str) -> str:
    return compose_prompt(INSTANCE, tuple(prefix), RELATIONS,
                          CANDIDATES[task], ONTOLOGY,
                          PromptOptions(task=task, strategy=strategy, max_chars=max_chars))


@PROPERTY
@given(groups=groups, max_chars=st.integers(250, 1500), task=st.sampled_from(TASKS),
       strategy=st.sampled_from(("evidence", "cot")))
def test_truncation_keeps_longest_fitting_prefix(groups, max_chars, task, strategy):
    renders = [_compose(groups[:n], NO_LIMIT, task, strategy)
               for n in range(len(groups) + 1)]
    fitting = [text for text in renders if len(text) <= max_chars]
    want = fitting[-1] if fitting else renders[0]
    assert _compose(groups, max_chars, task, strategy) == want


names = st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=6)


@st.composite
def replies(draw, candidate_names):
    """Free text, or an answer line of candidate names, their fragments and
    noise in any order and case."""
    tokens = draw(st.lists(st.one_of(
        st.sampled_from(candidate_names),
        st.sampled_from(candidate_names).map(lambda n: n[: len(n) // 2 + 1].upper()),
        st.text(max_size=10)), max_size=8))
    body = ", ".join(tokens)
    prefix = draw(st.sampled_from(("", "Answer: ", "answer:", "Reasoning.\nANSWER: ")))
    return draw(st.one_of(st.just(prefix + body), st.text()))


@PROPERTY
@given(data=st.data(), candidate_names=names)
def test_any_reply_parses_to_a_permutation(data, candidate_names):
    codes = [f"C{i:02d}" for i in range(len(candidate_names))]
    cands = CandidateSet(codes=tuple(codes), mode="overall")
    text = data.draw(replies(candidate_names))
    got = parse_answer(text, cands, dict(zip(codes, candidate_names)))
    assert sorted(got.ranked) == codes
    assert 0 <= got.matched_count <= len(codes)
    assert got.raw_text == text
