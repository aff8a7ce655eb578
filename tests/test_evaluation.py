"""Judging, metric arithmetic and the evaluation harness."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqa.backend import shipped_fixtures
from tqa.corpus import GoldQuestion, Testbed, shipped_testbed
from tqa.decomposition import decompose
from tqa.errors import EmptyPopulation, SchemaViolation
from tqa.evaluation import (
    APPLICABILITY,
    Aspect,
    AspectJudgment,
    Counts,
    Verdict,
    _subquestion_matches,
    gold_tags,
    judge_answer,
    judge_decomposition,
    metrics,
    render_text,
    render_xml,
    run_evaluation,
)
from tqa.packs import LanguagePack, get_pack
from tqa.time_model import TimeValue

from conftest import REF


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_formulas():
    row = metrics(Counts(pos=100, act=93, corr=80))
    assert round(100 * row.prec, 1) == 86.0
    assert round(100 * row.rec, 1) == 80.0
    assert round(100 * row.f, 1) == 82.9


def test_metrics_low_precision_row():
    row = metrics(Counts(pos=50, act=8, corr=1))
    assert round(100 * row.prec, 2) == 12.50
    assert round(100 * row.rec, 2) == 2.00
    assert round(100 * row.f, 2) == 3.45


def test_metrics_zero_act():
    row = metrics(Counts(pos=10, act=0, corr=0))
    assert (row.prec, row.rec, row.f) == (0.0, 0.0, 0.0)


def test_metrics_mrr():
    row = metrics(Counts(pos=2, act=2, corr=1), ranks=[2, None])
    assert row.mrr == 0.25
    assert metrics(Counts(pos=1, act=1, corr=1), ranks=[2]).mrr == 0.5


def test_metrics_empty_population():
    with pytest.raises(EmptyPopulation):
        metrics(Counts(pos=0, act=0, corr=0))


@given(st.integers(1, 500), st.integers(0, 500), st.integers(0, 500))
def test_f_between_precision_and_recall(pos, act, corr):
    corr = min(corr, act)
    row = metrics(Counts(pos=pos, act=act, corr=corr))
    assert min(row.prec, row.rec) - 1e-12 <= row.f <= max(row.prec, row.rec) + 1e-12


def test_counts_invariants():
    with pytest.raises(ValueError):
        Counts(pos=5, act=2, corr=3)
    with pytest.raises(ValueError):
        Counts(pos=5, act=2, corr=1, ine=3)
    # acting on more items than the population is possible (spurious hits)
    Counts(pos=5, act=7, corr=4)


# ---------------------------------------------------------------------------
# answer judging
# ---------------------------------------------------------------------------

def test_judge_answer_exact():
    assert judge_answer(["Anna Magnani"], "Anna Magnani") == (Verdict.CORR, 1)


def test_judge_answer_rank():
    verdict, rank = judge_answer(["Julia Roberts", "Anna Magnani"],
                                 "Anna Magnani")
    assert (verdict, rank) == (Verdict.CORR, 2)


def test_judge_answer_inexact_containment():
    verdict, rank = judge_answer(["the actress Anna Magnani"], "Anna Magnani")
    assert (verdict, rank) == (Verdict.INE, None)


def test_judge_answer_token_bounded():
    # substring without token boundaries is not containment
    verdict, _ = judge_answer(["Annalise Magnanimous"], "Anna Magnani")
    assert verdict is Verdict.WRONG


def test_judge_answer_noact():
    assert judge_answer([], "Anna Magnani") == (Verdict.NOACT, None)


def test_judge_answer_verdicts_exclusive():
    cases = [([], "x"), (["x"], "x"), (["the x y"], "x"), (["z"], "x")]
    seen = set()
    for answers, gold in cases:
        verdict, _ = judge_answer(answers, gold)
        seen.add(verdict)
    assert seen == {Verdict.NOACT, Verdict.CORR, Verdict.INE, Verdict.WRONG}


# ---------------------------------------------------------------------------
# decomposition judging
# ---------------------------------------------------------------------------

def _judged(question, gold, pack, ref=REF):
    system = decompose(question, pack, ref)
    return {j.aspect: j for j in judge_decomposition(system, gold, pack)}


def test_judge_correct_decomposition(en_pack, testbed_en):
    gold = next(q for q in testbed_en.questions if q.id == 107)
    judged = _judged(gold.question, gold, en_pack)
    for aspect in (Aspect.TE, Aspect.TYPE, Aspect.SIGNAL, Aspect.SPLIT,
                   Aspect.DECOMP):
        assert judged[aspect].correct, aspect


def test_applicability_matrix(en_pack, testbed_en):
    for gold in testbed_en.questions:
        system = decompose(gold.question, en_pack, testbed_en.ref)
        for judgment in judge_decomposition(system, gold, en_pack):
            expected = judgment.aspect in APPLICABILITY[gold.qtype]
            assert judgment.applicable == expected


def test_decomp_correct_implies_every_aspect(en_pack, es_pack, testbed_en,
                                             testbed_es):
    for pack, testbed in ((en_pack, testbed_en), (es_pack, testbed_es)):
        for gold in testbed.questions:
            system = decompose(gold.question, pack, testbed.ref)
            judged = {j.aspect: j for j in
                      judge_decomposition(system, gold, pack)}
            if judged[Aspect.DECOMP].correct:
                assert all(j.correct for j in judged.values() if j.applicable)


def test_partial_signal_surface_judged_incorrect(en_pack):
    """A bare-base signal does not match an offset-carrying gold signal."""
    gold = GoldQuestion(
        id=101, qtype=3,
        question="Who was the Prime Minister of Spain four years after Jose "
                 "Maria Aznar presided Spain between 2000 and 2004?",
        tes=(("between 2000 and 2004", TimeValue("2000-2004")),),
        signal="four years after",
        q_focus="Who was the Prime Minister of Spain?",
        q_rest="When did Jose Maria Aznar preside Spain between 2000 and "
               "2004?")
    judged = _judged(gold.question, gold, en_pack)
    assert judged[Aspect.SIGNAL].correct  # system captures the modifier
    shorter = GoldQuestion(
        id=101, qtype=3, question=gold.question, tes=gold.tes,
        signal="after", q_focus=gold.q_focus, q_rest=gold.q_rest)
    judged = _judged(gold.question, shorter, en_pack)
    assert judged[Aspect.SIGNAL].acted and not judged[Aspect.SIGNAL].correct


def test_untensed_restriction_verb_fails_split(en_pack):
    """The main verb must appear in the gold form: 'did ... patented ...
    happen' is judged wrong against 'did ... patent ...'."""
    gold = GoldQuestion(
        id=192, qtype=4,
        question="Which language was invented by Zamenhof when Berliner "
                 "patented the Gramophone?",
        signal="when",
        q_focus="Which language was invented by Zamenhof?",
        q_rest="When did Berliner patent the Gramophone?")
    system = decompose(gold.question, en_pack, REF)
    assert system.q_restriction == gold.q_rest  # our splitter is fine
    # judge a simulated bad output instead
    broken = dataclasses.replace(
        system, q_restriction="When did Berliner patented the Gramophone "
                              "happen?")
    judged = {j.aspect: j for j in judge_decomposition(broken, gold, en_pack)}
    assert judged[Aspect.SPLIT].acted and not judged[Aspect.SPLIT].correct
    assert not judged[Aspect.DECOMP].correct


@pytest.mark.parametrize("lang, qid, broken", [
    ("en", 192, "Did Berliner patent the Gramophone?"),
    ("es", 110, "¿Se produjo el primer vuelo del Columbia en los años 80?"),
], ids=["en", "es"])
def test_restriction_without_its_interrogative_fails_split(lang, qid,
                                                           broken):
    """The sub-question must open with the gold's interrogative.  "When"
    and "cuándo" are stopwords, so the keyword check alone would pass a
    restriction that lost it."""
    pack, testbed = PACKS[lang], shipped_testbed(lang)
    gold = next(q for q in testbed.questions if q.id == qid)
    system = decompose(gold.question, pack, testbed.ref)
    assert system.q_restriction == gold.q_rest
    judged = {j.aspect: j for j in judge_decomposition(
        dataclasses.replace(system, q_restriction=broken), gold, pack)}
    assert judged[Aspect.SPLIT].acted and not judged[Aspect.SPLIT].correct


def test_dropped_subject_token_fails_split(es_pack):
    """Keyword conservation: dropping 'James' from the restriction fails."""
    gold = GoldQuestion(
        id=133, qtype=3,
        question="¿Qué persona ganó el premio Nobel de Literatura cuando "
                 "James Dean nació en el año 31?",
        tes=(("el año 31", TimeValue("1931")),),
        signal="cuando",
        q_focus="¿Qué persona ganó el premio Nobel de Literatura?",
        q_rest="¿Cuándo nació James Dean en el año 31?")
    system = decompose(gold.question, es_pack, REF)
    broken = dataclasses.replace(
        system, q_restriction="¿Cuándo nació Dean en el año 31?")
    judged = {j.aspect: j for j in judge_decomposition(broken, gold, es_pack)}
    assert not judged[Aspect.SPLIT].correct


def test_duplicated_clitic_fails_split(es_pack):
    gold = GoldQuestion(
        id=110, qtype=3,
        question="¿Quién fue el Presidente de España justo después de que "
                 "se produjera el primer vuelo del Columbia en los años 80?",
        tes=(("los años 80", TimeValue("198")),),
        signal="después de que",
        q_focus="¿Quién fue el Presidente de España?",
        q_rest="¿Cuándo se produjo el primer vuelo del Columbia en los "
               "años 80?")
    system = decompose(gold.question, es_pack, REF)
    broken = dataclasses.replace(
        system, q_restriction="¿Cuándo se produjo se el primer vuelo del "
                              "Columbia en los años 80?")
    judged = {j.aspect: j for j in judge_decomposition(broken, gold, es_pack)}
    assert not judged[Aspect.SPLIT].correct


def test_expression_rewrite_equivalence_passes_split(en_pack, testbed_en):
    """Gold writes 'the 1950s' where the system keeps 'the 50s'."""
    gold = next(q for q in testbed_en.questions if q.id == 107)
    judged = _judged(gold.question, gold, en_pack)
    assert judged[Aspect.SPLIT].correct


PACKS = {lang: get_pack(lang) for lang in ("en", "es")}


def _judge_words(pack) -> list[str]:
    """Every word the split criteria look up: the lexicon's keys, its
    ``form`` lemmas and the words its ``equivalent`` keys are judged as."""
    words = {word for table in pack.lexicon.values() for word in table}
    return sorted(words | {*pack.lexicon["form"].values(),
                           *pack.lexicon["equivalent"].values()})


WORDS = {lang: _judge_words(pack) for lang, pack in PACKS.items()}


@pytest.mark.parametrize("lang", ["en", "es"])
@given(data=st.data())
def test_identical_subquestions_pass_the_split_criteria(lang, data):
    """The law behind judging an identical pair by identity: the three
    criteria never reject a sub-question compared with itself."""
    pack = PACKS[lang]
    token = st.sampled_from(WORDS[lang])
    words = data.draw(st.lists(token | token.map(str.capitalize), max_size=10))
    text = (data.draw(st.sampled_from(("", "¿"))) + " ".join(words)
            + data.draw(st.sampled_from(("", "?", " ?"))))
    canon = pack.lexicon["equivalent"]
    skip = {word for kind in ("wh", "aux", "clitic", "stopword")
            for word in pack.lexicon[kind]}
    assert _subquestion_matches(text, text, pack, canon, skip)


@pytest.mark.parametrize("lang,qid", [("en", 3), ("es", 105)])
def test_identical_split_is_judged_without_the_criteria(monkeypatch, lang,
                                                        qid):
    pack = PACKS[lang]
    testbed = shipped_testbed(lang)
    gold = next(q for q in testbed.questions if q.id == qid)
    system = decompose(gold.question, pack, testbed.ref)
    assert (system.q_focus, system.q_restriction) == (gold.q_focus,
                                                       gold.q_rest)
    calls = []

    def counting(self, token):
        calls.append(token)
        return is_verbish(self, token)

    is_verbish = LanguagePack.is_verbish
    monkeypatch.setattr(LanguagePack, "is_verbish", counting)
    judged = {j.aspect: j for j in judge_decomposition(system, gold, pack)}
    assert judged[Aspect.SPLIT].correct and judged[Aspect.DECOMP].correct
    assert calls == []


def test_bracket_normalized_te_judging(es_pack, testbed_es):
    gold = next(q for q in testbed_es.questions if q.id == 145)
    judged = _judged(gold.question, gold, es_pack)
    assert judged[Aspect.TE].correct


def test_wrong_te_value_judged_incorrect(en_pack):
    gold = GoldQuestion(id=81, qtype=2,
                        question="Who won the Nobel Peace Prize in '91?",
                        # deliberately different
                        tes=(("'91", TimeValue("1891")),))
    judged = _judged(gold.question, gold, en_pack)
    assert judged[Aspect.TE].acted and not judged[Aspect.TE].correct


def test_gold_tag_span_is_found_in_the_question_itself():
    # casefolding "Straße" lengthens it, which would shift every offset
    question = "Who built the Straße in The Eighties?"
    gold = GoldQuestion(id=1, qtype=2, question=question,
                        tes=(("the eighties", TimeValue("198")),))
    (tag,) = gold_tags(gold, question)
    assert (tag.surface, tag.begin, tag.end) == ("The Eighties", 24, 36)
    assert question[tag.begin:tag.end] == tag.surface


def test_gold_tags_come_in_question_order():
    gold = GoldQuestion(id=4, qtype=2,
                        question="What happened in 1990 and in 1980?",
                        tes=(("1980", TimeValue("1980")),
                             ("1990", TimeValue("1990"))))
    tags = gold_tags(gold, gold.question)
    assert [(t.surface, t.begin, t.value.canonical) for t in tags] == [
        ("1990", 17, "1990"), ("1980", 29, "1980")]


def test_gold_tags_place_a_repeated_surface_past_the_first():
    gold = GoldQuestion(id=5, qtype=2,
                        question="Who won in 1990 and lost in 1990?",
                        tes=(("1990", TimeValue("1990")),
                             ("in 1990", TimeValue("1990"))))
    tags = gold_tags(gold, gold.question)
    assert [(t.surface, t.begin) for t in tags] == [("1990", 11),
                                                    ("in 1990", 25)]


@pytest.mark.parametrize("tes", [
    (("1980", TimeValue("1980")),),
    (("1990", TimeValue("1990")), ("1990", TimeValue("1990"))),
], ids=["absent", "taken"])
def test_gold_tags_raise_for_a_surface_not_in_the_question(en_pack, tes):
    gold = GoldQuestion(id=6, qtype=2, question="What happened in 1990?",
                        tes=tes)
    with pytest.raises(SchemaViolation, match=r"^Q6: TE '19[89]0' "):
        gold_tags(gold, gold.question)
    testbed = Testbed(language="en", ref=REF, questions=(gold,))
    with pytest.raises(SchemaViolation, match="^Q6: "):
        run_evaluation(testbed, en_pack, gold_te_injection=True)


def test_judgment_correct_implies_acted():
    with pytest.raises(ValueError):
        AspectJudgment(Aspect.TE, True, False, True)


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def test_run_evaluation_english_all_correct(en_pack, testbed_en):
    report = run_evaluation(testbed_en, en_pack)
    decomp = {row.label: row for row in report.aspect_rows}
    assert decomp["DECOMP"].counts.corr == decomp["DECOMP"].counts.pos
    assert decomp["TE"].metrics.f == 1.0


def test_run_evaluation_spanish_known_gap(es_pack, testbed_es):
    """One gold signal is annotated shorter than the detected surface."""
    report = run_evaluation(testbed_es, es_pack)
    rows = {row.label: row for row in report.aspect_rows}
    assert rows["SIGNAL"].counts.corr == rows["SIGNAL"].counts.pos - 1
    assert rows["SPLIT"].counts.corr == rows["SPLIT"].counts.pos
    failed = [r for r in report.results
              if not r.judgment(Aspect.SIGNAL).correct
              and r.judgment(Aspect.SIGNAL).applicable]
    assert [r.qid for r in failed] == [129]


def test_empty_testbed_raises(en_pack):
    with pytest.raises(EmptyPopulation):
        run_evaluation(Testbed(language="en", ref=REF, questions=()),
                       en_pack)


def test_unsplittable_question_counts_as_not_acted(en_pack):
    gold = GoldQuestion(
        id=902, qtype=4, question="What happened just before?",
        signal="before", q_focus="What happened?",
        q_rest="When did it happen?")
    testbed = Testbed(language="en", ref=REF, questions=(gold,))
    report = run_evaluation(testbed, en_pack)
    result = report.results[0]
    assert result.judgment(Aspect.TYPE).acted
    assert result.judgment(Aspect.TYPE).correct
    assert not result.judgment(Aspect.SPLIT).acted
    assert not result.judgment(Aspect.DECOMP).acted


def test_gold_te_injection_flips_type_judgment(en_pack):
    """A question whose expression the tagger misses is judged the wrong
    type; injecting the gold annotation flips TYPE to correct."""
    gold = GoldQuestion(
        id=900, qtype=3,
        question="Who was secretary of state when the hostages returned "
                 "in the Reagan era?",
        tes=(("the Reagan era", TimeValue("1981-1989")),),
        signal="when",
        q_focus="Who was secretary of state?",
        q_rest="When did the hostages return in the Reagan era?")
    testbed = Testbed(language="en", ref=REF, questions=(gold,))
    base = run_evaluation(testbed, en_pack)
    assert not base.results[0].judgment(Aspect.TYPE).correct
    injected = run_evaluation(testbed, en_pack, gold_te_injection=True)
    assert injected.results[0].judgment(Aspect.TYPE).correct
    assert injected.results[0].judgment(Aspect.TE).correct


def test_gold_tags_materialization(en_pack):
    gold = GoldQuestion(
        id=901, qtype=2, question="What happened in the Reagan era?",
        tes=(("the Reagan era", TimeValue("1981-1989")),))
    (tag,) = gold_tags(gold, gold.question)
    assert tag.surface == "the Reagan era"
    assert gold.question[tag.begin:tag.end] == tag.surface
    assert tag.value.canonical == "1981-1989"
    assert tag.interval is not None


def test_qa_rows_present_with_fixtures(en_pack, testbed_en, fixtures_en):
    report = run_evaluation(testbed_en, en_pack, store=fixtures_en)
    labels = [row.label for row in report.qa_rows]
    assert labels[-1] == "GLOBAL"
    answered = [r for r in report.results if r.verdict is Verdict.CORR]
    assert {r.qid for r in answered} >= {5, 107}
    global_row = report.qa_rows[-1]
    assert global_row.counts.corr == len(answered)


def test_rows_appear_only_for_a_population(en_pack, fixtures_en):
    """A lone type-1 question without ANSWER: only its applicable aspects
    and its own type get rows, and no QA row has anyone to count."""
    gold = GoldQuestion(id=903, qtype=1,
                        question="Who won the best actress Oscar award?")
    testbed = Testbed(language="en", ref=REF, questions=(gold,))
    report = run_evaluation(testbed, en_pack, store=fixtures_en)
    assert [row.label for row in report.aspect_rows] == ["TYPE", "DECOMP"]
    assert [row.label for row in report.type_rows] == ["Type 1", "GLOBAL"]
    assert report.qa_rows == ()


def test_render_text_layout(en_pack, testbed_en, fixtures_en):
    report = run_evaluation(testbed_en, en_pack, store=fixtures_en)
    text = render_text(report)
    assert "POS" in text and "PREC" in text and "MRR" in text
    assert "DECOMP" in text and "GLOBAL" in text


def test_render_xml_parses(en_pack, testbed_en):
    from xml.etree import ElementTree as ET
    report = run_evaluation(testbed_en, en_pack)
    root = ET.fromstring(render_xml(report))
    assert root.tag == "REPORT"
    rows = root.findall("DECOMPOSITION/ROW")
    assert {r.get("label") for r in rows} == {"TE", "TYPE", "SIGNAL",
                                              "SPLIT", "DECOMP"}


_GROUPS = ("Type 1", "Type 2", "Type 3", "Type 4", "GLOBAL")


def _members(results, label):
    return [r for r in results if label == "GLOBAL"
            or label == f"Type {r.qtype}"]


@pytest.mark.parametrize("lang", ["en", "es"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rows_equal_a_recount_of_the_results(lang, data):
    """Any subsequence of a shipped testbed, in any order: every row is the
    count of its population in report.results, and an empty one is
    omitted."""
    testbed, pack = shipped_testbed(lang), get_pack(lang)
    picks = data.draw(st.lists(st.sampled_from(testbed.questions),
                               min_size=1, unique_by=lambda q: q.id))
    report = run_evaluation(dataclasses.replace(testbed,
                                                questions=tuple(picks)),
                            pack, store=shipped_fixtures(lang))
    results = report.results
    assert [r.qid for r in results] == [q.id for q in picks]

    def judged(label, aspect, population):
        js = [j for j in (r.judgment(aspect) for r in population)
              if j.applicable]
        counts = Counts(pos=len(js), act=sum(j.acted for j in js),
                        corr=sum(j.correct for j in js))
        return (label, counts, metrics(counts)) if js else None

    aspect_rows = [judged(a.value, a, results) for a in Aspect]
    type_rows = [judged(label, Aspect.DECOMP, _members(results, label))
                 for label in _GROUPS]
    qa_rows = []
    for label in _GROUPS:
        answered = [r for r in _members(results, label)
                    if r.verdict is not None]
        if not answered:
            continue
        verdicts = [r.verdict for r in answered]
        counts = Counts(pos=len(answered),
                        act=sum(v is not Verdict.NOACT for v in verdicts),
                        corr=verdicts.count(Verdict.CORR),
                        ine=verdicts.count(Verdict.INE))
        ranks = [r.rank for r in answered]
        row = metrics(counts, ranks=ranks)
        assert row.mrr == pytest.approx(
            sum(1 / rank for rank in ranks if rank) / len(ranks))
        qa_rows.append((label, counts, row))

    def shown(rows):
        return [(r.label, r.counts, r.metrics) for r in rows]
    assert shown(report.aspect_rows) == [row for row in aspect_rows if row]
    assert shown(report.type_rows) == [row for row in type_rows if row]
    assert shown(report.qa_rows) == qa_rows
