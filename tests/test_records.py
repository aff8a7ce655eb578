"""Decomposition output conventions."""

from __future__ import annotations

from tqa.decomposition import decompose


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
