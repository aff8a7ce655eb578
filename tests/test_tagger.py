"""Temporal expression tagging and normalization against gold annotations."""

from __future__ import annotations

from datetime import date

import pytest

from tqa.errors import OutOfCalendar
from tqa.tagger import resolve_relative, tag

from conftest import REF


@pytest.mark.parametrize("question,surface,value", [
    ("Who won the Nobel Peace Prize in '91?", "'91", "1991"),
    ("How many planes crashed into Twin Towers in '01?", "'01", "2001"),
    ("How many members had the European Union when Gladiator was released "
     "in '00?", "'00", "2000"),
    ("Who won the best actress Oscar award when James Dean died in the 50s?",
     "the 50s", "195"),
    ("What was the largest city in Italy in the 17th century?",
     "the 17th century", "16"),
    ("Who died on a plane crash when Vietnam war was started in late 1960s?",
     "late 1960s", "1965-1969"),
    ("Where was the Woodstock Festival held on August 15 when Unix was "
     "developed?", "August 15", "XXXX-08-15"),
    ("Who was the president of the US when the AARP was founded five "
     "decades ago?", "five decades ago", "195"),
    ("Where were the Olympics held 16 years ago?", "16 years ago", "1992"),
    ("What city was the capital of Nicaragua in eighteen fifty-five?",
     "eighteen fifty-five", "1855"),
    ("Which language was forbidden in Spain during Franco's Dictatorship "
     "period 1939-1975?", "1939-1975", "1939-1975"),
    ("Which U.S. ship was attacked by Israeli forces during the Six Day war "
     "in the sixties?", "the sixties", "196"),
    ("What did George Bush do after the U.N. Security Council ordered a "
     "global embargo on trade with Iraq in August 90?", "August 90", "1990-08"),
    # an impossible day drops the month-day reading; the year still tags
    ("What happened on February 30, 1990?", "1990", "1990"),
])
def test_english_gold_values(en_pack, question, surface, value):
    tags = tag(question, en_pack, REF)
    assert [(t.surface, t.value.canonical) for t in tags] == [(surface, value)]


@pytest.mark.parametrize("question,surface,value", [
    ("¿Quién ganó el Nobel de la Paz en el 91?", "el 91", "1991"),
    ("¿Dónde se celebró Eurovisión en el año 68?", "el año 68", "1968"),
    ("¿Qué jugador de tenis ganó Wimbledon mujeres individuales en el año "
     "del segundo milenio?", "en el año del segundo milenio", "2000"),
    ("¿Cuál fue la ciudad más grande de Italia en el siglo XVII?",
     "el siglo XVII", "16"),
    ("¿Qué ciudad fue la capital de Nicaragua en mil ochocientos cincuenta "
     "y cinco?", "mil ochocientos cincuenta y cinco", "1855"),
    ("¿Quién fue el presidente de los Estados Unidos cuando se fundó AARP "
     "hace cinco décadas?", "hace cinco décadas", "195"),
    ("¿Quién ganó Wimbledon femenino individuales antes de que Rafa Nadal "
     "ganara Wimbledon este año?", "este año", "2008"),
    ("¿Cuándo ganó Gary Becker el premio Nobel de Economía antes de que "
     "Zapatero fuera elegido Presidente de España en los últimos años?",
     "los últimos años", "2003-2008"),
    ("¿Dónde se celebró el Festival de Woodstock el 15 de agosto cuando el "
     "Unix fue desarrollado?", "el 15 de agosto", "XXXX-08-15"),
    ("¿Qué lengua fue inventada por Zamenhof cuando Berliner patentó el "
     "disco de vinilo en la década de 1880?", "la década de 1880", "188"),
])
def test_spanish_gold_values(es_pack, question, surface, value):
    tags = tag(question, es_pack, REF)
    assert [(t.surface, t.value.canonical) for t in tags] == [(surface, value)]


def test_full_testbed_coverage(en_pack, es_pack, testbed_en, testbed_es):
    """Both packs reproduce every gold expression in the shipped testbeds."""
    for pack, testbed in ((en_pack, testbed_en), (es_pack, testbed_es)):
        for gold in testbed.questions:
            tags = tag(gold.question, pack, testbed.ref)
            got = [(t.surface, t.value.canonical) for t in tags]
            want = [(s, v.strip("[]")) for s, v in gold.tes]
            assert got == want, f"{pack.code} Q{gold.id}"


def test_no_temporal_language_yields_no_tags(en_pack):
    assert tag("What is the capital of Brazil?", en_pack, REF) == []
    assert tag("What happened on February 30?", en_pack, REF) == []


def test_span_integrity_and_order(en_pack, es_pack, testbed_en, testbed_es):
    for pack, testbed in ((en_pack, testbed_en), (es_pack, testbed_es)):
        for gold in testbed.questions:
            tags = tag(gold.question, pack, testbed.ref)
            last_end = 0
            for t in tags:
                assert gold.question[t.begin:t.end] == t.surface
                assert t.begin >= last_end
                last_end = t.end


def test_determinism(en_pack):
    q = "Who was the president of the US when the AARP was founded five decades ago?"
    assert tag(q, en_pack, REF) == tag(q, en_pack, REF)


def test_anchoring(en_pack, testbed_en):
    for gold in testbed_en.questions:
        for t in tag(gold.question, en_pack, testbed_en.ref):
            if t.value.canonical.startswith("XXXX-"):
                assert t.interval is None
            else:
                assert t.interval is not None


def test_apostrophe_year_pivot(en_pack):
    # two-digit years at most the reference's own resolve to its century
    for text, value in [("'08", "2008"), ("'09", "1909"), ("'00", "2000")]:
        tags = tag(f"What happened in {text}?", en_pack, REF)
        assert [t.value.canonical for t in tags] == [value]


def test_deictic_now(en_pack):
    tags = tag("Is Bill Clinton currently the President of the United States?",
               en_pack, REF)
    assert [(t.surface, t.value.canonical) for t in tags] == \
        [("currently", "2008-01-01")]


@pytest.mark.parametrize("quantity,unit,expected", [
    (5, "decade", "195"),
    (16, "year", "1992"),
    (0, "year", "2008"),
    (13, "year", "1995"),
    (2, "century", "18"),
    (1, "month", "2007-12"),
    (1, "day", "2007-12-31"),
])
def test_resolve_relative_past(quantity, unit, expected):
    assert resolve_relative(quantity, unit, "past", REF).canonical == expected


def test_resolve_relative_future():
    assert resolve_relative(4, "year", "future", REF).canonical == "2012"


def test_resolve_relative_out_of_calendar():
    with pytest.raises(OutOfCalendar):
        resolve_relative(30, "century", "past", REF)


@pytest.mark.parametrize("quantity,unit,ref", [
    (3, "month", date(9999, 10, 1)),
    (5, "year", date(9998, 1, 1)),
    (1, "decade", date(9998, 1, 1)),
    (1, "century", date(9998, 1, 1)),
])
def test_resolve_relative_future_past_year_9999(quantity, unit, ref):
    with pytest.raises(OutOfCalendar):
        resolve_relative(quantity, unit, "future", ref)


@pytest.mark.parametrize("quantity,unit,ref,expected", [
    (2, "month", date(9999, 10, 1), "9999-12"),
    (1, "year", date(9998, 1, 1), "9999"),
    (1, "decade", date(9989, 1, 1), "999"),
    (1, "century", date(9899, 1, 1), "99"),
])
def test_resolve_relative_future_up_to_year_9999(quantity, unit, ref,
                                                 expected):
    value = resolve_relative(quantity, unit, "future", ref)
    assert value.canonical == expected
    assert value.interval.end == date(9999, 12, 31)


@pytest.mark.parametrize("number,values", [
    ("99", ["1999-04"]), ("100", []), ("150", []), ("500", []), ("999", []),
    ("1000", ["1000-04"]),
])
def test_month_number_year_is_two_or_four_digits(en_pack, number, values):
    tags = tag(f"What happened in April {number}?", en_pack, REF)
    assert [t.value.canonical for t in tags] == values


@pytest.mark.parametrize("lang,question,ref", [
    ("en", "What happened in April 32?", date(31, 1, 1)),  # pivots to -68
    ("en", "What happened in April 500?", date(50, 1, 1)),  # pivots to 0
    ("es", "¿Qué pasó en los últimos años?", date(3, 1, 1)),
])
def test_expression_before_year_one_is_no_tag(en_pack, es_pack, lang,
                                              question, ref):
    pack = {"en": en_pack, "es": es_pack}[lang]
    assert tag(question, pack, ref) == []


def test_gold_injection_materializes_reference_example(en_pack):
    # the reference-date inference: "five decades ago" against 2008 lands in
    # the same decade as the gold annotation
    tags = tag("the AARP was founded five decades ago", en_pack,
               date(2008, 1, 1))
    assert tags[0].value.canonical == "195"
