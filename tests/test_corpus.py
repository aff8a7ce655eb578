"""Testbed XML reading, writing and schema validation."""

from __future__ import annotations

import random
from datetime import date

import pytest

from tqa.corpus import (
    GoldQuestion,
    Testbed,
    format_q_block,
    load_testbed,
    write_testbed,
)
from tqa.decomposition import decompose
from tqa.errors import SchemaViolation
from tqa.time_model import TimeValue

from conftest import REF

MINIMAL = b"""<?xml version='1.0' encoding='utf-8'?>
<TESTBED lang="en" ref="2008-01-01">
  <Q id="107">
    <QUESTION>Who won the best actress Oscar award when James Dean died in the 50s?</QUESTION>
    <TE value="195">the 50s</TE>
    <TYPE>3</TYPE>
    <SIGNAL>when</SIGNAL>
    <Q-FOCUS>Who won the best actress Oscar award?</Q-FOCUS>
    <Q-REST>When did James Dean die in the 1950s?</Q-REST>
    <ANSWER>Anna Magnani</ANSWER>
  </Q>
</TESTBED>
"""


def test_load_annotated_block():
    testbed = load_testbed(MINIMAL)
    (q,) = testbed.questions
    assert q.id == 107
    assert q.tes == (("the 50s", TimeValue("195")),)
    assert q.qtype == 3
    assert q.signal == "when"
    assert q.q_focus == "Who won the best actress Oscar award?"
    assert q.answer == "Anna Magnani"


def test_load_minimal_simple_block():
    doc = (b'<TESTBED lang="en" ref="2008-01-01"><Q id="1">'
           b"<QUESTION>When did Bob Marley die?</QUESTION>"
           b"<TYPE>1</TYPE><ANSWER>1981</ANSWER></Q></TESTBED>")
    (q,) = load_testbed(doc).questions
    assert (q.tes, q.signal, q.q_focus, q.q_rest) == ((), None, None, None)


def test_round_trip_shipped(testbed_en, testbed_es):
    for testbed in (testbed_en, testbed_es):
        assert load_testbed(write_testbed(testbed)) == testbed


def test_type3_without_signal_is_schema_violation():
    doc = (b'<TESTBED lang="en" ref="2008-01-01"><Q id="9">'
           b"<QUESTION>q?</QUESTION><TE value=\"1990\">1990</TE>"
           b"<TYPE>3</TYPE><Q-FOCUS>f?</Q-FOCUS><Q-REST>r?</Q-REST>"
           b"</Q></TESTBED>")
    with pytest.raises(SchemaViolation, match="^Q9: "):
        load_testbed(doc)


def test_type2_without_te_is_schema_violation():
    doc = (b'<TESTBED lang="en" ref="2008-01-01"><Q id="3">'
           b"<QUESTION>q?</QUESTION><TYPE>2</TYPE></Q></TESTBED>")
    with pytest.raises(SchemaViolation):
        load_testbed(doc)


def test_bad_te_value_is_schema_violation():
    doc = (b'<TESTBED lang="en" ref="2008-01-01"><Q id="5">'
           b'<QUESTION>q?</QUESTION><TE value="wat">x</TE>'
           b"<TYPE>2</TYPE></Q></TESTBED>")
    with pytest.raises(SchemaViolation):
        load_testbed(doc)


def test_bracketed_te_value_is_tolerated():
    doc = (b'<TESTBED lang="es" ref="2008-01-01"><Q id="145">'
           b'<QUESTION>q?</QUESTION><TE value="[2003-2008]">x</TE>'
           b"<TYPE>2</TYPE></Q></TESTBED>")
    (q,) = load_testbed(doc).questions
    assert q.tes == (("x", TimeValue("2003-2008")),)


def test_duplicate_ids_rejected():
    q = GoldQuestion(id=1, question="q?", qtype=1)
    with pytest.raises(SchemaViolation):
        Testbed(language="en", ref=REF, questions=(q, q))


def test_unknown_type_rejected():
    with pytest.raises(SchemaViolation):
        GoldQuestion(id=1, question="q?", qtype=5)


@pytest.mark.parametrize("answer", ["—", "?", " ' "])
def test_answer_without_a_word_is_schema_violation(answer):
    """Such an ANSWER would match every answer that has no word either."""
    with pytest.raises(SchemaViolation, match="^Q7: ANSWER has no word$"):
        GoldQuestion(id=7, question="q?", qtype=1, answer=answer)
    doc = ('<TESTBED lang="en" ref="2008-01-01"><Q id="7">'
           f"<QUESTION>q?</QUESTION><TYPE>1</TYPE><ANSWER>{answer}</ANSWER>"
           "</Q></TESTBED>").encode()
    with pytest.raises(SchemaViolation, match="^Q7: ANSWER has no word$"):
        load_testbed(doc)


def _random_gold(rng: random.Random, qid: int) -> GoldQuestion:
    qtype = rng.choice([1, 2, 3, 4])
    words = ["what", "city", "award", "won", "during", "event", "la", "paz"]
    text = " ".join(rng.choices(words, k=rng.randint(3, 8))) + "?"
    tes = ()
    if qtype in (2, 3):
        value = rng.choice(["1969", "195", "16", "1990-08", "XXXX-08-15",
                            "1939-1975", "[2003-2008]"])
        tes = ((f"expr{qid}", TimeValue(value)),)
    kwargs = {}
    if qtype in (3, 4):
        kwargs = {"signal": rng.choice(["when", "before", "after"]),
                  "q_focus": "focus " + text, "q_rest": "when " + text}
    answer = rng.choice([None, "Anna Magnani", "42"])
    return GoldQuestion(id=qid, question=text, qtype=qtype, tes=tes,
                        answer=answer, **kwargs)


def test_empty_testbed_round_trips():
    empty = Testbed(language="en", ref=date(2008, 1, 1), questions=())
    loaded = load_testbed(write_testbed(empty))
    assert loaded == empty
    assert loaded.questions == ()


def test_round_trip_randomized():
    rng = random.Random(1939)
    questions = tuple(_random_gold(rng, qid) for qid in range(1, 101))
    testbed = Testbed(language="en", ref=date(2008, 1, 1),
                      questions=questions)
    assert load_testbed(write_testbed(testbed)) == testbed


def test_cli_block_is_loadable(en_pack):
    analysis = decompose("Where did Bill Clinton study before going to "
                         "Oxford University?", en_pack, REF)
    block = format_q_block(analysis)
    doc = f'<TESTBED lang="en" ref="2008-01-01">{block}</TESTBED>'
    (q,) = load_testbed(doc.encode("utf-8")).questions
    assert q.qtype == 4
    assert q.q_focus == "Where did Bill Clinton study?"
    assert q.answer is None


def test_bare_q_block_is_schema_violation(en_pack):
    analysis = decompose("Who won the prize 3 years ago when Dean died?",
                         en_pack, date(1990, 1, 1))
    block = format_q_block(analysis)
    with pytest.raises(SchemaViolation,
                       match="root element 'Q', expected TESTBED"):
        load_testbed(block.encode("utf-8"))


def test_unsplit_decomposition_is_no_block(en_pack):
    analysis = decompose("What happened just before?", en_pack, REF)
    assert analysis.qtype == 4 and analysis.q_focus is None
    with pytest.raises(SchemaViolation):
        format_q_block(analysis)
