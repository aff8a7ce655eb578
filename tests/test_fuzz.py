"""Generated questions: the pipeline raises nothing on arbitrary input but
the documented ValueError for a blank question, and is deterministic."""

from __future__ import annotations

import re
from datetime import date

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tqa.backend import answer_complex_question, shipped_fixtures
from tqa.decomposition import decompose
from tqa.packs import get_pack
from tqa.tagger import tag

LANGS = ("en", "es")


#: Prepositions that open a temporal expression or a place ("in 1990", "en
#: Arkansas") but split no question; generated questions keep them.
MARKERS = {"en": ("about", "from", "in", "on", "to"),
           "es": ("alrededor", "desde", "en", "hasta")}


def pack_words(pack) -> list[str]:
    """Signal, wh-, number and month words of a pack (plus its ordinal,
    decade and unit words and the ``MARKERS``), the vocabulary the tagger
    and splitter key on."""
    signal_words = {word for entry in pack.signals
                    for word in re.findall(r"[^\W\d_]{2,}", entry.pattern)}
    return sorted(signal_words | set(MARKERS[pack.code]) | set(pack.wh_words)
                  | set(pack.number_words) | set(pack.months)
                  | set(pack.ordinal_words) | set(pack.decade_words)
                  | set(pack.unit_words))


PACKS = {lang: get_pack(lang) for lang in LANGS}
STORES = {lang: shipped_fixtures(lang) for lang in LANGS}
WORDS = {lang: pack_words(PACKS[lang]) for lang in LANGS}

refs = st.dates(min_value=date(1, 1, 1), max_value=date(9999, 12, 31))


@st.composite
def questions(draw):
    lang = draw(st.sampled_from(LANGS))
    token = st.one_of(
        st.sampled_from(WORDS[lang]),
        st.sampled_from(WORDS[lang]).map(str.capitalize),
        st.integers(0, 99999).map(str),
        st.text(max_size=6),
    )
    words = draw(st.lists(token, max_size=12))
    question = " ".join(words) + draw(st.sampled_from(("", "?", " ?")))
    return lang, question


def run_all(lang, question, ref):
    pack = PACKS[lang]
    tags = tag(question, pack, ref)
    try:
        analysis = decompose(question, pack, ref)
        answer = answer_complex_question(question, pack, ref, STORES[lang])
    except ValueError as exc:
        assert not question.strip()
        assert str(exc) == "question is empty"
        analysis = answer = None
    return tags, analysis, answer


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(questions(), refs)
def test_pipeline_raises_only_on_blank_and_is_deterministic(lq, ref):
    lang, question = lq
    assert run_all(lang, question, ref) == run_all(lang, question, ref)


@pytest.mark.parametrize("lang", LANGS)
@pytest.mark.parametrize("question", ["", "   ", "\t\n"])
def test_blank_question_raises_value_error(lang, question):
    pack = PACKS[lang]
    assert tag(question, pack, date(2008, 1, 1)) == []
    with pytest.raises(ValueError, match="question is empty"):
        decompose(question, pack, date(2008, 1, 1))
