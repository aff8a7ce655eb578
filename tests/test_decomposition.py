"""Signal detection, type identification and question splitting."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqa.decomposition import (
    decompose,
    detect_signal,
    identify_type,
    split,
)
from tqa.errors import Diagnostic, UnsplittableQuestion
from tqa.tagger import tag
from tqa.textnorm import tokenize
from tqa.time_model import Relation

from conftest import REF


def test_type_decision_tree_is_total(en_pack):
    """All four expression/signal combinations map to exactly one type."""
    questions = {
        (False, False): "When did Jordan close the port of Aqaba to Kuwait?",
        (True, False): "Who won the 1988 New Hampshire Republican primary?",
        (True, True): "What did George Bush do after the U.N. Security "
                      "Council ordered a global embargo on trade with Iraq "
                      "in August 90?",
        (False, True): "Who was the president of US when the AARP was founded?",
    }
    expected = {(False, False): 1, (True, False): 2, (True, True): 3,
                (False, True): 4}
    for (has_te, has_signal), question in questions.items():
        tes = tag(question, en_pack, REF)
        signal = detect_signal(question, tes, en_pack)
        assert bool(tes) == has_te
        assert (signal is not None) == has_signal
        assert identify_type(tes, signal) == expected[(has_te, has_signal)]
    # and directly over the four combinations
    dummy_tes = [object()]
    dummy_signal = object()
    assert identify_type([], None) == 1
    assert identify_type(dummy_tes, None) == 2
    assert identify_type(dummy_tes, dummy_signal) == 3
    assert identify_type([], dummy_signal) == 4


def test_gold_types_both_testbeds(en_pack, es_pack, testbed_en, testbed_es):
    for pack, testbed in ((en_pack, testbed_en), (es_pack, testbed_es)):
        for gold in testbed.questions:
            analysis = decompose(gold.question, pack, testbed.ref)
            assert analysis.qtype == gold.qtype, f"{pack.code} Q{gold.id}"


def test_clinton_split(en_pack):
    q = "Where did Bill Clinton study before going to Oxford University?"
    analysis = decompose(q, en_pack, REF)
    assert analysis.qtype == 4
    assert analysis.signal.base == "before"
    assert analysis.signal.key is Relation.BEFORE
    assert analysis.q_focus == "Where did Bill Clinton study?"
    assert analysis.q_restriction == "When did Bill Clinton go to Oxford University?"


def test_modifier_signal_captured_but_flagged(en_pack):
    q = ("Who was the Prime Minister of Spain four years after Jose Maria "
         "Aznar presided Spain between 2000 and 2004?")
    analysis = decompose(q, en_pack, REF)
    assert analysis.signal.surface == "four years after"
    assert analysis.signal.modifier == "four years"
    assert analysis.signal.base == "after"
    assert Diagnostic.OFFSET_SIGNAL_UNSUPPORTED in analysis.diagnostics
    assert analysis.q_focus == "Who was the Prime Minister of Spain?"


@pytest.mark.parametrize("lang,question,focus", [
    ("en", "Who ruled Russia years after the revolution?",
     "Who ruled Russia years?"),
    ("en", "Who won the award often years after the war?",
     "Who won the award often years?"),
    ("es", "¿Quién pisó la Luna años después de que Gagarin volara al "
     "espacio?", "¿Quién pisó la Luna años?"),
])
def test_offset_number_is_a_whole_word(en_pack, es_pack, lang, question,
                                       focus):
    pack = {"en": en_pack, "es": es_pack}[lang]
    analysis = decompose(question, pack, REF)
    assert analysis.signal.modifier is None
    assert analysis.diagnostics == ()
    assert analysis.q_focus == focus


#: Gaps that both ``\s`` and ``str.split`` read as whitespace.
SPACES = (" ", "  ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c")


def _heads(pack):
    """Text before a signal: tokens glued from the pack's number and unit
    words, digits, hyphens and apostrophes, each after a whitespace gap,
    and a gap before the signal."""
    pieces = sorted({*pack.lexicon["number"], *pack.lexicon["unit"],
                     "7", "1968", "-", "'", "\u2019", "x"})
    token = st.lists(st.sampled_from(pieces), min_size=1,
                     max_size=3).map("".join)
    gap = st.sampled_from(SPACES)
    return st.tuples(st.lists(st.tuples(gap, token), max_size=6), gap).map(
        lambda t: "".join(g + w for g, w in t[0]) + t[1])


@pytest.mark.parametrize("lang,signal", [("en", "after"), ("es", "tras")])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_modifier_search_in_the_last_two_tokens_equals_full_search(
        en_pack, es_pack, lang, signal, data):
    pack = {"en": en_pack, "es": es_pack}[lang]
    head = "Who won" + data.draw(_heads(pack))
    found = detect_signal(f"{head}{signal} the war ended?", [], pack)
    assert found.end == len(head) + len(signal)
    full = pack.compiled.modifier.search(head)
    assert found.modifier == (full["mod"] if full else None)
    assert found.begin == (full.start("mod") if full else len(head))


def test_trailing_connective_trimmed_from_focus(en_pack):
    q = ("Who was the Prime Minister of Spain just after the Columbia first "
         "flight in the 1980s?")
    analysis = decompose(q, en_pack, REF)
    assert analysis.signal.surface == "after"
    assert analysis.q_focus == "Who was the Prime Minister of Spain?"


def test_lemmatized_restriction_verb(en_pack):
    q = "Who was the king of Spain after Charles IV reigned Spain?"
    analysis = decompose(q, en_pack, REF)
    assert analysis.q_restriction == "When did Charles IV reign Spain?"


def test_passive_restriction(en_pack):
    q = "Who was the president of US when the AARP was founded?"
    analysis = decompose(q, en_pack, REF)
    assert analysis.q_restriction == "When was the AARP founded?"


def test_noun_phrase_fallback(en_pack):
    q = ("Who was the spokesman of the Soviet Embassy in Baghdad during "
         "the invasion of Kuwait?")
    analysis = decompose(q, en_pack, REF)
    assert analysis.q_restriction == "When did the invasion of Kuwait happen?"


def test_type2_passes_through_unsplit(en_pack):
    analysis = decompose("Who won the 1988 New Hampshire Republican primary?",
                         en_pack, REF)
    assert analysis.qtype == 2
    assert analysis.q_focus is None
    assert analysis.q_restriction is None
    assert analysis.signal is None


def test_initial_interrogative_is_not_a_signal(en_pack, es_pack):
    tes = []
    assert detect_signal("When did Bob Marley die?", tes, en_pack) is None
    assert detect_signal(
        "¿Durante qué década fue inventado el test del polígrafo?",
        tes, es_pack) is None


def test_signal_inside_expression_is_ignored(en_pack):
    q = "Which meetings were held from 1939 to 1945?"
    tes = tag(q, en_pack, REF)
    assert [t.value.canonical for t in tes] == ["1939-1945"]
    assert detect_signal(q, tes, en_pack) is None
    assert decompose(q, en_pack, REF).qtype == 2


def test_signal_introducing_an_expression_is_ignored(en_pack):
    # "during" right before an expression constrains answers, it does not
    # link two events
    q = "Which car was popular during the 50s?"
    analysis = decompose(q, en_pack, REF)
    assert analysis.qtype == 2
    assert analysis.signal is None


def test_locative_in_is_never_a_signal(en_pack):
    analysis = decompose("Who won the U.S. Open in 1999?", en_pack, REF)
    assert analysis.qtype == 2


@pytest.mark.parametrize("lang, question", [
    ("en", "Where did Bill Clinton live in Arkansas?"),
    ("es", "¿Dónde vivió Bill Clinton en Arkansas?"),
])
def test_locative_in_splits_no_simple_question(en_pack, es_pack, lang,
                                               question):
    pack = {"en": en_pack, "es": es_pack}[lang]
    analysis = decompose(question, pack, REF)
    assert analysis.qtype == 1
    assert analysis.signal is None


def test_leftmost_signal_wins(en_pack):
    q = ("Who was the king of Spain after Charles IV reigned Spain during "
         "the eighteenth century?")
    analysis = decompose(q, en_pack, REF)
    assert analysis.signal.surface == "after"


def test_on_before_expression_yields_other_signal(en_pack):
    q = "Where was the Woodstock Festival held on August 15 when Unix was developed?"
    analysis = decompose(q, en_pack, REF)
    assert analysis.signal.surface == "when"
    assert analysis.q_focus == "Where was the Woodstock Festival held on August 15?"


def test_unsplittable_question(en_pack):
    analysis = decompose("What happened before?", en_pack, REF)
    assert analysis.qtype == 4
    assert analysis.signal.base == "before"
    assert analysis.q_focus is None and analysis.q_restriction is None
    assert analysis.diagnostics == (Diagnostic.UNSPLITTABLE,)


def test_unsplittable_offset_signal_is_only_unsplittable(en_pack):
    analysis = decompose("What happened two years before?", en_pack, REF)
    assert analysis.signal.modifier == "two years"
    assert analysis.diagnostics == (Diagnostic.UNSPLITTABLE,)


def test_gold_splits_match_testbeds(en_pack, es_pack, testbed_en, testbed_es):
    """Every shipped complex question splits into its gold sub-questions,
    up to the documented equivalent rewrites (gold writes out "the 1950s"
    where the question says "the 50s", and "occur" for "happen")."""
    rewrites = (("the 50s", "the 1950s"), ("happen", "occur"))
    for pack, testbed in ((en_pack, testbed_en), (es_pack, testbed_es)):
        for gold in testbed.questions:
            if gold.qtype not in (3, 4):
                continue
            analysis = decompose(gold.question, pack, testbed.ref)
            assert analysis.q_focus == gold.q_focus, f"{pack.code} Q{gold.id}"
            candidates = {analysis.q_restriction}
            candidates.update(analysis.q_restriction.replace(old, new)
                              for old, new in rewrites)
            assert gold.q_rest in candidates, \
                f"{pack.code} Q{gold.id}: {analysis.q_restriction!r}"


def test_subquestions_are_simple(en_pack, es_pack, testbed_en, testbed_es):
    """Decomposing any produced sub-question yields a simple type (1 or 2)."""
    for pack, testbed in ((en_pack, testbed_en), (es_pack, testbed_es)):
        for gold in testbed.questions:
            if gold.qtype not in (3, 4):
                continue
            analysis = decompose(gold.question, pack, testbed.ref)
            for subq in (analysis.q_focus, analysis.q_restriction):
                assert decompose(subq, pack, testbed.ref).qtype in (1, 2), \
                    f"{pack.code} Q{gold.id}: {subq!r}"


def _keyword_set(text, pack):
    out = set()
    for token in tokenize(text):
        if token in pack.lexicon["stopword"] \
                or token in pack.lexicon["filler"]:
            continue
        if pack.is_verbish(token):
            token = pack.rewrite_verb(token)
        out.add(token)
    return out


def test_keyword_conservation(en_pack, es_pack, testbed_en, testbed_es):
    """Sub-questions keep the original keywords: nothing is lost besides the
    signal, nothing appears that the original question does not contain."""
    for pack, testbed in ((en_pack, testbed_en), (es_pack, testbed_es)):
        for gold in testbed.questions:
            if gold.qtype not in (3, 4):
                continue
            analysis = decompose(gold.question, pack, testbed.ref)
            original = _keyword_set(gold.question, pack)
            signal_tokens = _keyword_set(analysis.signal.surface, pack)
            trimmed = {t for t in tokenize(gold.question)
                       if t in pack.lexicon["trim"]}
            produced = _keyword_set(analysis.q_focus, pack) \
                | _keyword_set(analysis.q_restriction, pack)
            missing = original - signal_tokens - trimmed - produced
            invented = produced - original
            assert not missing, f"{pack.code} Q{gold.id} lost {missing}"
            assert not invented, f"{pack.code} Q{gold.id} invented {invented}"


def test_split_requires_text_on_both_sides(en_pack):
    # only a trim word before the signal leaves no focus
    question = "Just before going home?"
    signal = detect_signal(question, [], en_pack)
    assert signal is not None
    with pytest.raises(UnsplittableQuestion):
        split(question, signal, [], en_pack)
