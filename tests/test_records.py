"""System output records and decomposition output conventions."""

from __future__ import annotations

from tqa.backend import answer_complex_question
from tqa.corpus import format_q_block, load_testbed, system_record_element
from tqa.decomposition import decompose

from conftest import REF


def test_system_record_layout(en_pack, fixtures_en):
    question = "Where did Bill Clinton study before going to Oxford University?"
    analysis = decompose(question, en_pack, REF)
    outcome = answer_complex_question(question, en_pack, REF, fixtures_en)
    record = system_record_element(analysis, outcome.answers, qid=5)
    assert record.find("ANSWER") is None
    ranked = [(a.get("rank"), a.text)
              for a in record.findall("SYS-ANSWERS/SYS-A")]
    assert ranked == [("1", "Georgetown University")]
    # the decomposition part still loads as a question block
    text = format_q_block(record)
    (loaded,) = load_testbed(text.encode("utf-8")).questions
    assert loaded.q_focus == "Where did Bill Clinton study?"


def test_focus_ends_with_question_mark(en_pack, es_pack, testbed_en,
                                       testbed_es):
    for pack, testbed in ((en_pack, testbed_en), (es_pack, testbed_es)):
        for gold in testbed.questions:
            analysis = decompose(gold.question, pack, testbed.ref)
            if analysis.qtype in (3, 4):
                assert analysis.q_focus.endswith("?")
                assert not analysis.q_focus.endswith("??")
            else:
                assert analysis.q_focus is None
                assert analysis.q_restriction is None
                assert analysis.signal is None


def test_restriction_starts_with_when_word(en_pack, es_pack, testbed_en,
                                           testbed_es):
    when_words = {"en": "when", "es": "cuándo"}
    for pack, testbed in ((en_pack, testbed_en), (es_pack, testbed_es)):
        for gold in testbed.questions:
            analysis = decompose(gold.question, pack, testbed.ref)
            if analysis.qtype in (3, 4):
                first = analysis.q_restriction.lstrip("¿").split()[0]
                assert first.casefold() == when_words[pack.code]
