from __future__ import annotations

import itertools
import random

import pytest

from dxrank import prompting
from dxrank.ehr import build_instances
from dxrank.evidence import (
    CandidateSet,
    HistoryGroup,
    RelationalEvidence,
    RelationLink,
)
from dxrank.prompting import (
    ABLATION_STAGES,
    CANDIDATES_TITLE_NOVEL,
    CANDIDATES_TITLE_OVERALL,
    COT_LINE,
    HISTORY_TITLE_PRIORITIZED,
    HISTORY_TITLE_RAW,
    RELATIONS_TITLE,
    STRATEGIES,
    AblationFlags,
    ParsedPrediction,
    PromptError,
    PromptOptions,
    compose_prompt,
    load_template,
    parse_answer,
    sc_aggregate,
)

from .conftest import CCS_NAMES


@pytest.fixture
def instance(dataset):
    by_id = {i.patient_id: i for i in build_instances(dataset)}
    return by_id["pA"]


@pytest.fixture
def prioritized() -> tuple[HistoryGroup, ...]:
    return (
        HistoryGroup(ccs="C01", icds=("I01a", "I01b")),
        HistoryGroup(ccs="C02", icds=("I02a",)),
    )


@pytest.fixture
def relations() -> RelationalEvidence:
    return RelationalEvidence(
        links=(RelationLink(history_ccs="C01", candidate_ccs="C03", count=2),)
    )


@pytest.fixture
def novel_candidates() -> CandidateSet:
    return CandidateSet(codes=("C03", "C04", "C05"), mode="novel")


@pytest.fixture
def overall_candidates() -> CandidateSet:
    return CandidateSet(codes=("C01", "C03", "C02"), mode="overall")


def compose(instance, prioritized, relations, candidates, ontology,
            flags=AblationFlags(), **kw):
    """compose_prompt given the evidence a stage with `flags` computes: what
    it does not compute is None, as `cli.predict_record` passes it."""
    return compose_prompt(
        instance, prioritized if flags.prioritization else None,
        relations if flags.relations else None, candidates, ontology,
        PromptOptions(**kw),
    )


class TestComposition:
    def test_novel_sections_once_in_order(
        self, instance, prioritized, relations, novel_candidates, ontology
    ):
        text = compose(
            instance, prioritized, relations, novel_candidates, ontology,
            task="novel",
        )
        lines = text.splitlines()
        titles = [
            "Last Diagnostic Visit (5 days ago):",
            f"{HISTORY_TITLE_PRIORITIZED}:",
            f"{RELATIONS_TITLE}:",
            f"{CANDIDATES_TITLE_NOVEL}:",
            "Instruction:",
        ]
        positions = []
        for title in titles:
            assert lines.count(title) == 1, title
            positions.append(lines.index(title))
        assert positions == sorted(positions)

    def test_overall_omits_last_visit(
        self, instance, prioritized, relations, overall_candidates, ontology
    ):
        text = compose(
            instance, prioritized, relations, overall_candidates, ontology,
            task="overall",
        )
        assert "Last Diagnostic Visit" not in text
        assert f"{CANDIDATES_TITLE_OVERALL}:" in text.splitlines()
        assert "(Novel Only)" not in text

    def test_last_visit_names_and_days(
        self, instance, prioritized, relations, novel_candidates, ontology
    ):
        text = compose(
            instance, prioritized, relations, novel_candidates, ontology,
            task="novel",
        )
        lines = text.splitlines()
        body = lines[lines.index("Last Diagnostic Visit (5 days ago):") + 1]
        assert body == '"Hypertensive Heart Disease", "Type 2 Diabetes"'

    def test_group_rendering_exact(
        self, instance, prioritized, relations, novel_candidates, ontology
    ):
        text = compose(
            instance, prioritized, relations, novel_candidates, ontology,
            task="novel",
        )
        lines = text.splitlines()
        body = lines[lines.index(f"{HISTORY_TITLE_PRIORITIZED}:") + 1]
        assert body == (
            '[{"Essential Hypertension", "Hypertensive Heart Disease"}'
            ' BELONG TO "Hypertension"],'
            ' [{"Type 2 Diabetes"} BELONG TO "Diabetes"]'
        )

    def test_raw_history_when_prioritization_off(
        self, instance, prioritized, relations, novel_candidates, ontology
    ):
        text = compose(
            instance, prioritized, relations, novel_candidates, ontology,
            task="novel", flags=AblationFlags.for_stage("candidate"),
        )
        lines = text.splitlines()
        assert f"{HISTORY_TITLE_RAW}:" in lines
        assert "(Prioritized)" not in text
        assert RELATIONS_TITLE not in text
        body = lines[lines.index(f"{HISTORY_TITLE_RAW}:") + 1]
        # History codes sorted by id: C01 then C02.
        assert body == '"Hypertension", "Diabetes"'

    def test_no_groups_render_raw_history(
        self, instance, relations, novel_candidates, ontology
    ):
        text = compose_prompt(instance, None, relations, novel_candidates, ontology,
                              PromptOptions(task="novel"))
        lines = text.splitlines()
        assert lines[lines.index(f"{HISTORY_TITLE_RAW}:") + 1] == '"Hypertension", "Diabetes"'
        assert HISTORY_TITLE_PRIORITIZED not in text and "BELONG TO" not in text
        assert '"Hypertension" ⇒ "Anemia"' in lines

    def test_no_relations_render_no_section(
        self, instance, prioritized, novel_candidates, ontology
    ):
        assert novel_candidates.codes
        text = compose_prompt(instance, prioritized, None, novel_candidates, ontology,
                              PromptOptions(task="novel"))
        assert RELATIONS_TITLE not in text and "⇒" not in text
        assert f"{HISTORY_TITLE_PRIORITIZED}:" in text.splitlines()

    def test_options_carry_no_flags(self):
        # The stage's flags are applied where evidence is computed, not here.
        with pytest.raises(TypeError):
            PromptOptions(flags=AblationFlags())

    def test_empty_relations_render_none(
        self, instance, prioritized, novel_candidates, ontology
    ):
        text = compose(
            instance, prioritized, RelationalEvidence(links=()),
            novel_candidates, ontology, task="novel",
        )
        lines = text.splitlines()
        assert lines[lines.index(f"{RELATIONS_TITLE}:") + 1] == "None"

    def test_relation_line_format(
        self, instance, prioritized, relations, novel_candidates, ontology
    ):
        text = compose(
            instance, prioritized, relations, novel_candidates, ontology,
            task="novel",
        )
        assert '"Hypertension" ⇒ "Anemia"' in text.splitlines()

    def test_candidate_body_in_logit_order(
        self, instance, prioritized, relations, novel_candidates, ontology
    ):
        text = compose(
            instance, prioritized, relations, novel_candidates, ontology,
            task="novel",
        )
        lines = text.splitlines()
        body = lines[lines.index(f"{CANDIDATES_TITLE_NOVEL}:") + 1]
        assert body == '"Anemia", "Cardiac Dysrhythmias", "Conduction Disorders"'

    def test_instruction_lines_verbatim(
        self, instance, prioritized, relations, novel_candidates, ontology
    ):
        text = compose(
            instance, prioritized, relations, novel_candidates, ontology,
            task="novel",
        )
        lines = text.splitlines()
        assert lines[-2] == (
            "- Re-rank the candidate CCS categories from most to least likely."
        )
        assert lines[-1] == "- Output format: Answer: <CCS 1>, <CCS 2>, ..."
        assert COT_LINE not in lines

    def test_cot_strategy_appends_line(
        self, instance, prioritized, relations, novel_candidates, ontology
    ):
        text = compose(
            instance, prioritized, relations, novel_candidates, ontology,
            task="novel", strategy="cot",
        )
        assert text.splitlines()[-1] == COT_LINE

    def test_strategy_never_changes_the_evidence(
        self, instance, prioritized, relations, novel_candidates, ontology
    ):
        # The stage alone decides the sections; a strategy adds at most the
        # step-by-step line.
        args = (instance, prioritized, relations, novel_candidates, ontology)
        for stage, strategy in itertools.product(ABLATION_STAGES, STRATEGIES):
            flags = AblationFlags.for_stage(stage)
            text = compose(*args, task="novel", flags=flags, strategy=strategy)
            expected = compose(*args, task="novel", flags=flags)
            assert text.replace(f"\n{COT_LINE}", "") == expected, (stage, strategy)

    def test_stage_section_matrix(
        self, instance, prioritized, relations, novel_candidates, ontology
    ):
        for stage in ABLATION_STAGES:
            text = compose(
                instance, prioritized, relations, novel_candidates, ontology,
                task="novel", flags=AblationFlags.for_stage(stage),
            )
            has_prio = stage in ("prioritization", "relational")
            assert ("(Prioritized)" in text) == has_prio
            assert (RELATIONS_TITLE in text) == (stage == "relational")

    def test_mode_mismatch_raises(
        self, instance, prioritized, relations, novel_candidates,
        overall_candidates, ontology,
    ):
        with pytest.raises(PromptError, match="novel"):
            compose(
                instance, prioritized, relations, overall_candidates,
                ontology, task="novel",
            )
        with pytest.raises(PromptError, match="overall"):
            compose(
                instance, prioritized, relations, novel_candidates,
                ontology, task="overall",
            )

    def test_compose_deterministic(
        self, instance, prioritized, relations, novel_candidates, ontology
    ):
        a = compose(
            instance, prioritized, relations, novel_candidates, ontology,
            task="novel",
        )
        b = compose(
            instance, prioritized, relations, novel_candidates, ontology,
            task="novel",
        )
        assert a == b

    def test_truncation_drops_history_tail_first(
        self, instance, prioritized, relations, novel_candidates, ontology
    ):
        full = compose(
            instance, prioritized, relations, novel_candidates, ontology,
            task="novel",
        )
        cut = compose(
            instance, prioritized, relations, novel_candidates, ontology,
            task="novel", max_chars=len(full) - 1,
        )
        assert len(cut) <= len(full) - 1
        lines = cut.splitlines()
        body = lines[lines.index(f"{HISTORY_TITLE_PRIORITIZED}:") + 1]
        assert body == (
            '[{"Essential Hypertension", "Hypertensive Heart Disease"}'
            ' BELONG TO "Hypertension"]'
        )

    def test_truncation_keeps_fixed_sections(
        self, instance, prioritized, relations, novel_candidates, ontology
    ):
        cut = compose(
            instance, prioritized, relations, novel_candidates, ontology,
            task="novel", max_chars=1,
        )
        # History groups exhaust; everything else stays.
        assert "Essential Hypertension" not in cut
        assert f"{CANDIDATES_TITLE_NOVEL}:" in cut.splitlines()
        assert "Instruction:" in cut.splitlines()

    def test_raw_history_is_not_truncated(
        self, instance, prioritized, relations, novel_candidates, ontology,
        monkeypatch,
    ):
        # Dropping groups cannot shorten a raw history, so an over-long
        # raw-history prompt is rendered once and returned as it is.
        builds = []
        render = prompting._render

        def counted(*args):
            builds.append(args)
            return render(*args)

        kw = dict(task="novel", flags=AblationFlags.for_stage("candidate"))
        full = compose(instance, prioritized, relations, novel_candidates,
                       ontology, **kw)
        monkeypatch.setattr(prompting, "_render", counted)
        cut = compose(instance, prioritized, relations, novel_candidates,
                      ontology, max_chars=1, **kw)
        assert cut == full
        assert len(builds) == 1

    def test_bad_options_rejected(self):
        with pytest.raises(PromptError, match="task"):
            PromptOptions(task="weekly")
        with pytest.raises(PromptError, match="strategy"):
            PromptOptions(strategy="vote")
        with pytest.raises(PromptError, match="max_chars"):
            PromptOptions(max_chars=0)

    def test_unknown_stage_rejected(self):
        with pytest.raises(PromptError, match="stage"):
            AblationFlags.for_stage("full")

    def test_stage_ladder(self):
        assert AblationFlags.for_stage("base") == AblationFlags(False, False, False)
        assert AblationFlags.for_stage("candidate") == AblationFlags(
            True, False, False
        )
        assert AblationFlags.for_stage("prioritization") == AblationFlags(
            True, True, False
        )
        assert AblationFlags.for_stage("relational") == AblationFlags(
            True, True, True
        )


class TestTemplates:
    def test_default_template_placeholders(self):
        text = load_template()
        assert not any(ln.startswith("#") for ln in text.splitlines())
        for name in (
            "{last_visit_section}", "{history_section}",
            "{relations_section}", "{candidates_section}", "{cot_line}",
        ):
            assert name in text

    def test_comment_lines_stripped(self, tmp_path):
        path = tmp_path / "tpl.txt"
        path.write_text(
            "# a comment\n{candidates_section}Instruction:\n- go{cot_line}\n",
            encoding="utf-8",
        )
        assert "# a comment" not in load_template(path)

    def test_custom_template_used(
        self, instance, prioritized, relations, novel_candidates, ontology
    ):
        tpl = "{candidates_section}Instruction:\n- pick one{cot_line}"
        text = compose(
            instance, prioritized, relations, novel_candidates, ontology,
            task="novel", template_text=tpl,
        )
        assert text.splitlines()[-1] == "- pick one"
        assert "(Prioritized)" not in text

    def test_unknown_placeholder_rejected(
        self, instance, prioritized, relations, novel_candidates, ontology
    ):
        with pytest.raises(PromptError, match="template"):
            compose(
                instance, prioritized, relations, novel_candidates, ontology,
                task="novel", template_text="{mystery_section}",
            )

    def test_stray_brace_rejected(
        self, instance, prioritized, relations, novel_candidates, ontology
    ):
        with pytest.raises(PromptError, match="template"):
            compose(
                instance, prioritized, relations, novel_candidates, ontology,
                task="novel", template_text="{candidates_section} {",
            )


# Candidate set used for the parsing fixtures: Anemia ranked above
# Hypertension above Diabetes.
PARSE_CANDIDATES = CandidateSet(codes=("C03", "C01", "C02"), mode="overall")


def parse(text: str) -> ParsedPrediction:
    return parse_answer(text, PARSE_CANDIDATES, CCS_NAMES)


class TestParseAnswer:
    def test_answer_line_partial(self):
        got = parse("Answer: Hypertension, Diabetes")
        assert got.ranked == ("C01", "C02", "C03")
        assert got.matched_count == 2

    def test_answer_line_lowercase_single(self):
        got = parse("answer: diabetes")
        assert got.ranked == ("C02", "C03", "C01")
        assert got.matched_count == 1

    def test_free_text_order_of_mention(self):
        got = parse(
            "The record suggests Diabetes progression is most likely, "
            "with Anemia a plausible second."
        )
        assert got.ranked == ("C02", "C03", "C01")
        assert got.matched_count == 2

    def test_last_answer_line_wins(self):
        got = parse("Answer: Anemia\nOn reflection:\nAnswer: Diabetes, Anemia")
        assert got.ranked == ("C02", "C03", "C01")
        assert got.matched_count == 2

    def test_duplicate_tokens_collapse(self):
        got = parse("Answer: Anemia, Anemia, Diabetes")
        assert got.ranked == ("C03", "C02", "C01")
        assert got.matched_count == 2

    def test_quotes_and_punctuation_stripped(self):
        got = parse('Answer: "Anemia", Diabetes.')
        assert got.ranked == ("C03", "C02", "C01")
        assert got.matched_count == 2

    def test_name_inside_token(self):
        got = parse("Answer: severe anemia, early diabetes")
        assert got.ranked == ("C03", "C02", "C01")
        assert got.matched_count == 2

    def test_longest_contained_name_wins(self):
        cands = CandidateSet(codes=("CARD", "CARDIO"), mode="overall")
        got = parse_answer("Answer: cardiovascular", cands, None)
        assert got.ranked == ("CARDIO", "CARD")
        assert got.matched_count == 1

    def test_token_inside_name_prefers_shortest(self):
        names = {"C01": "Hypertension", "C02": "Hypertensive Heart Disease"}
        cands = CandidateSet(codes=("C02", "C01"), mode="overall")
        got = parse_answer("Answer: Hyperten", cands, names)
        assert got.ranked == ("C01", "C02")
        assert got.matched_count == 1

    def test_short_fragments_ignored(self):
        got = parse("Answer: ane, hyp, dia")
        assert got.matched_count == 0
        assert got.ranked == ("C03", "C01", "C02")

    def test_no_mention_backfills_candidate_order(self):
        got = parse("No clear leading diagnosis.")
        assert got.matched_count == 0
        assert got.ranked == ("C03", "C01", "C02")

    def test_empty_candidates_raise(self):
        empty = CandidateSet(codes=(), mode="overall")
        with pytest.raises(PromptError, match="empty"):
            parse_answer("Answer: Anemia", empty, None)

    def test_raw_text_preserved(self):
        got = parse("Answer: Anemia")
        assert got.raw_text == "Answer: Anemia"

    def test_round_trip_all_permutations(self):
        codes = PARSE_CANDIDATES.codes
        for perm in itertools.permutations(codes):
            text = "Answer: " + ", ".join(CCS_NAMES[c] for c in perm)
            got = parse(text)
            assert got.ranked == perm
            assert got.matched_count == 3

    def test_fuzz_always_full_permutation(self):
        rng = random.Random(0)
        names = [CCS_NAMES[c] for c in PARSE_CANDIDATES.codes]
        noise = ["likely", "then", "finally", "##", "n/a", "see above", ""]
        for _ in range(1000):
            mentioned = rng.sample(names, k=rng.randint(0, len(names)))
            tokens = mentioned + rng.sample(noise, k=rng.randint(0, 3))
            rng.shuffle(tokens)
            body = ", ".join(tokens)
            if rng.random() < 0.5:
                text = f"Some preamble.\nAnswer: {body}"
            else:
                text = f"Discussion mentions {body} without a final line."
            got = parse(text)
            assert sorted(got.ranked) == sorted(PARSE_CANDIDATES.codes)
            assert len(set(got.ranked)) == 3
            assert 0 <= got.matched_count <= 3

    def test_parsed_prediction_rejects_duplicates(self):
        with pytest.raises(PromptError, match="duplicate"):
            ParsedPrediction(
                ranked=("C01", "C01"), matched_count=1, raw_text=""
            )

    def test_duplicate_folded_names_first_index_wins(self):
        names = {"C01": "Anemia", "C02": "ANEMIA", "C03": "Diabetes"}
        cands = CandidateSet(codes=("C01", "C02", "C03"), mode="overall")
        got = parse_answer("Answer: anemia, Diabetes, ANEMIA", cands, names)
        assert got.ranked == ("C01", "C03", "C02")
        assert got.matched_count == 2

    def test_repeated_tokens_keep_first_position(self):
        got = parse("Answer: Diabetes, diabetes., Anemia, DIABETES, Anemia")
        assert got.ranked == ("C02", "C03", "C01")
        assert got.matched_count == 2

    def test_matches_quadratic_reference(self):
        """The indexed parser ranks exactly like a direct scan over the
        candidates, including duplicate folded names and repeated tokens."""
        rng = random.Random(1)
        pool = ["Anemia", "ANEMIA", "Diabetes", "Heart Disease", "Heart",
                "Hypertensive Heart Disease", "Gout", "Iron Deficiency Anemia"]
        extras = ["", "n/a", "heart", "anemia.", "Disease", "iron deficiency"]
        for _ in range(2000):
            size = rng.randint(1, 6)
            codes = [f"C{i:02d}" for i in range(size)]
            names = {c: rng.choice(pool) for c in codes}
            cands = CandidateSet(codes=tuple(codes), mode="overall")
            tokens = [rng.choice(pool + extras) for _ in range(rng.randint(0, 8))]
            body = ", ".join(t.upper() if rng.random() < 0.3 else t for t in tokens)
            text = f"Answer: {body}" if rng.random() < 0.7 else f"I think {body}"
            got = parse_answer(text, cands, names)
            assert (got.ranked, got.matched_count) == _reference_parse(
                text, codes, [names[c] for c in codes]
            ), text


def _reference_parse(text, codes, names):
    """The answer parser as a direct O(candidates) scan per token."""
    folded = [n.casefold() for n in names]

    def match(norm):
        if not norm:
            return None
        for i, f in enumerate(folded):
            if norm == f:
                return i
        best = None
        for i, f in enumerate(folded):
            if len(f) >= 4 and f in norm:
                if best is None or len(f) > len(folded[best]):
                    best = i
        if best is not None:
            return best
        if len(norm) >= 4:
            enclosing = [i for i, f in enumerate(folded) if norm in f]
            if enclosing:
                return min(enclosing, key=lambda i: (len(folded[i]), i))
        return None

    body = None
    for line in text.splitlines():
        if line.strip().casefold().startswith("answer:"):
            body = line.strip()[len("answer:"):]
    matched = []
    if body is not None:
        for token in body.split(","):
            idx = match(token.strip().strip("\"'").strip().rstrip(".").casefold())
            if idx is not None and idx not in matched:
                matched.append(idx)
    else:
        hay = text.casefold()
        hits = sorted((hay.find(f), -len(f), i)
                      for i, f in enumerate(folded) if hay.find(f) >= 0)
        matched = [i for _, _, i in hits]
    ranked = [codes[i] for i in matched]
    ranked += [c for c in codes if c not in ranked]
    return tuple(ranked), len(matched)


def ranking(*codes: str, matched: int | None = None) -> ParsedPrediction:
    return ParsedPrediction(
        ranked=codes,
        matched_count=len(codes) if matched is None else matched,
        raw_text=", ".join(codes),
    )


class TestScAggregate:
    def test_single_ranking_identity(self):
        got = sc_aggregate([ranking("C02", "C01", "C03")])
        assert got.ranked == ("C02", "C01", "C03")

    def test_reversed_pair_ties_break_by_code(self):
        got = sc_aggregate([ranking("C02", "C01"), ranking("C01", "C02")])
        assert got.ranked == ("C01", "C02")

    def test_borda_hand_values(self):
        a, b, c, d = "C01", "C02", "C03", "C04"
        got = sc_aggregate(
            [ranking(a, b, c, d), ranking(b, a, d, c), ranking(a, c, b, d)]
        )
        # Borda scores: a=11, b=9, c=6, d=4.
        assert got.ranked == (a, b, c, d)

    def test_majority_beats_minority(self):
        got = sc_aggregate(
            [
                ranking("C03", "C01", "C02"),
                ranking("C03", "C02", "C01"),
                ranking("C01", "C03", "C02"),
            ]
        )
        assert got.ranked[0] == "C03"

    def test_matched_count_rounds_mean(self):
        got = sc_aggregate(
            [
                ranking("C01", "C02", matched=2),
                ranking("C01", "C02", matched=1),
                ranking("C01", "C02", matched=0),
            ]
        )
        assert got.matched_count == 1

    def test_raw_texts_joined(self):
        got = sc_aggregate([ranking("C01"), ranking("C01")])
        assert got.raw_text == "C01\n---\nC01"

    def test_mismatched_sets_rejected(self):
        with pytest.raises(PromptError, match="candidate sets"):
            sc_aggregate([ranking("C01", "C02"), ranking("C01", "C03")])

    def test_empty_rejected(self):
        with pytest.raises(PromptError, match="no rankings"):
            sc_aggregate([])
