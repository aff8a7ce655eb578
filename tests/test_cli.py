"""Command line surface: outputs, formats and exit codes."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest

from tqa.backend import write_fixtures
from tqa.cli import main
from tqa.corpus import load_testbed, write_testbed
from tqa.packs import DATA_DIR, serialize_pack


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_worked_example(capsys):
    code, out, _ = run(capsys, "decompose", "--lang", "en", "--ref",
                       "2008-01-01", "Where did Bill Clinton study before "
                       "going to Oxford University?")
    assert code == 0
    assert "<Q-FOCUS>Where did Bill Clinton study?</Q-FOCUS>" in out
    doc = f'<TESTBED lang="en" ref="2008-01-01">{out}</TESTBED>'
    (q,) = load_testbed(doc.encode("utf-8")).questions
    assert q.qtype == 4


def test_decompose_type1_has_no_split(capsys):
    code, out, _ = run(capsys, "decompose", "When did Bob Marley die?")
    assert code == 0
    assert "<TYPE>1</TYPE>" in out
    assert "Q-FOCUS" not in out


def test_decompose_spanish_gold_restriction(capsys):
    code, out, _ = run(capsys, "decompose", "--lang", "es",
                       "¿Quién fue el Presidente de España justo después de "
                       "que se produjera el primer vuelo del Columbia en los "
                       "años 80?")
    assert code == 0
    assert ("<Q-REST>¿Cuándo se produjo el primer vuelo del Columbia en los "
            "años 80?</Q-REST>") in out


def test_decompose_unsplittable_exit_code(capsys):
    code, out, err = run(capsys, "decompose", "What happened before?")
    assert code == 1
    assert out == ""
    assert err == "UNSPLITTABLE\n"


def test_classify_unsplittable_question(capsys):
    code, out, err = run(capsys, "classify", "What happened before?")
    assert (code, out, err) == (0, "4\n", "")


def test_answer_unsplittable_question(capsys):
    code, out, err = run(capsys, "answer", "What happened before?")
    assert (code, out, err) == (0, "", "UNSPLITTABLE\nNOACT\n")


def test_tag_output(capsys):
    code, out, _ = run(capsys, "tag", "--ref", "2008-01-01",
                       "Where were the Olympics held 16 years ago?")
    assert code == 0
    assert out.strip() == '<TE value="1992">16 years ago</TE>'


def test_classify(capsys):
    code, out, _ = run(capsys, "classify",
                       "Who won the 1988 New Hampshire Republican primary?")
    assert (code, out.strip()) == (0, "2")


def test_answer_worked_example(capsys):
    code, out, _ = run(capsys, "answer", "Where did Bill Clinton study "
                       "before going to Oxford University?")
    assert code == 0
    assert out.splitlines() == ["Georgetown University"]


def test_answer_unknown_question_empty_but_ok(capsys):
    code, out, err = run(capsys, "answer", "Who painted the Mona Lisa?")
    assert code == 0
    assert out == ""
    assert "NOACT" in err


def test_answer_type2_fixture(capsys):
    code, out, _ = run(capsys, "answer", "--lang", "en",
                       "Where were the Olympics held 16 years ago?")
    assert (code, out.splitlines()) == (0, ["Barcelona"])


def test_answer_unreadable_fixtures(capsys):
    code, _, err = run(capsys, "answer", "--fixtures", "/no/such/file.xml",
                       "Any question?")
    assert code == 2
    assert "error" in err


def test_eval_text_report(capsys):
    code, out, _ = run(capsys, "eval", "--lang", "en")
    assert code == 0
    assert "Decomposition unit, by aspect" in out
    assert "Question answering" not in out  # no fixtures given


def test_eval_with_fixtures_and_gold_te(capsys, tmp_path, fixtures_en):
    path = tmp_path / "fx.xml"
    path.write_bytes(write_fixtures(fixtures_en))
    code, out, _ = run(capsys, "eval", "--lang", "en", "--fixtures",
                       str(path), "--gold-te")
    assert code == 0
    assert "Question answering" in out
    assert "injection delta" in out


def test_eval_xml_format(capsys):
    code, out, _ = run(capsys, "eval", "--lang", "es", "--format", "xml")
    assert code == 0
    root = ET.fromstring(out)
    assert root.tag == "REPORT"


def test_eval_schema_violation_names_question(capsys, tmp_path):
    doc = (b'<TESTBED lang="en" ref="2008-01-01"><Q id="33">'
           b"<QUESTION>q?</QUESTION><TE value=\"1990\">1990</TE>"
           b"<TYPE>3</TYPE><Q-FOCUS>f?</Q-FOCUS><Q-REST>r?</Q-REST>"
           b"</Q></TESTBED>")
    path = tmp_path / "bad.xml"
    path.write_bytes(doc)
    code, _, err = run(capsys, "eval", "--testbed", str(path))
    assert code == 2
    assert "Q33" in err


def test_pack_validate_builtin(capsys):
    code, out, _ = run(capsys, "pack-validate", "--lang", "es")
    assert code == 0
    assert out.startswith("OK es:")


def test_pack_validate_custom_dir(capsys, tmp_path, en_pack):
    (tmp_path / "en.xml").write_bytes(serialize_pack(en_pack))
    code, out, _ = run(capsys, "pack-validate", "--lang", "en", "--pack",
                       str(tmp_path))
    assert code == 0


def test_pack_validate_missing(capsys, tmp_path):
    code, _, err = run(capsys, "pack-validate", "--lang", "fr", "--pack",
                       str(tmp_path))
    assert code == 2


def test_custom_testbed_round_trips_through_eval(capsys, tmp_path, testbed_es):
    path = tmp_path / "tb.xml"
    path.write_bytes(write_testbed(testbed_es))
    code, out, _ = run(capsys, "eval", "--lang", "es", "--testbed", str(path))
    assert code == 0
    assert "GLOBAL" in out


def test_bad_ref_flag(capsys):
    code, _, err = run(capsys, "tag", "--ref", "not-a-date", "in 1990?")
    assert code == 2


def test_eval_takes_no_ref_option(capsys):
    # eval reads each testbed's own reference date
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--ref", "not-a-date"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ref" in capsys.readouterr().err


def _truncated(path, source):
    data = source.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    return str(path)


def assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ")


def test_eval_truncated_testbed(capsys, tmp_path):
    path = _truncated(tmp_path / "tb.xml", DATA_DIR / "testbed_en.xml")
    assert_one_error_line(*run(capsys, "eval", "--testbed", path))


def test_answer_truncated_fixtures(capsys, tmp_path):
    path = _truncated(tmp_path / "fx.xml", DATA_DIR / "fixtures_en.xml")
    assert_one_error_line(*run(capsys, "answer", "--fixtures", path,
                               "Where did Bill Clinton study?"))


def test_pack_validate_truncated_pack(capsys, tmp_path):
    _truncated(tmp_path / "en.xml", DATA_DIR / "en.xml")
    assert_one_error_line(*run(capsys, "pack-validate", "--lang", "en",
                               "--pack", str(tmp_path)))


def test_pack_validate_unknown_relation(capsys, tmp_path, en_pack):
    doc = serialize_pack(en_pack).replace(b'relation="AFTER"',
                                          b'relation="LATER"', 1)
    (tmp_path / "en.xml").write_bytes(doc)
    code, out, err = run(capsys, "pack-validate", "--lang", "en", "--pack",
                         str(tmp_path))
    assert_one_error_line(code, out, err)
    assert "LATER" in err


def _edited_pack(directory, old, new, lang="en"):
    doc = (DATA_DIR / f"{lang}.xml").read_bytes()
    assert doc.count(old) == 1
    (directory / f"{lang}.xml").write_bytes(doc.replace(old, new))
    return str(directory)


def _uncompilable_this_year_pack(directory):
    return _edited_pack(directory, b"<PATTERN>this year</PATTERN>",
                        b"<PATTERN>this (year</PATTERN>")


def test_pack_validate_uncompilable_pattern(capsys, tmp_path):
    pack_dir = _uncompilable_this_year_pack(tmp_path)
    code, out, err = run(capsys, "pack-validate", "--lang", "en", "--pack",
                         pack_dir)
    assert_one_error_line(code, out, err)
    assert "this-year" in err


def test_tag_uncompilable_pattern(capsys, tmp_path):
    pack_dir = _uncompilable_this_year_pack(tmp_path)
    code, out, err = run(capsys, "tag", "--lang", "en", "--pack", pack_dir,
                         "in 1990?")
    assert_one_error_line(code, out, err)
    assert "this-year" in err


def _broken_plain_year_pack(directory, old, new):
    doc = (DATA_DIR / "en.xml").read_bytes()
    start = doc.index(b'<RULE name="plain-year"')
    end = doc.index(b"</RULE>", start)
    rule = doc[start:end]
    assert rule.count(old) == 1
    (directory / "en.xml").write_bytes(
        doc[:start] + rule.replace(old, new) + doc[end:])
    return str(directory)


@pytest.mark.parametrize("old,new,message", [
    (b'op="year"', b'op="yeer"', "unknown op 'yeer'"),
    (b"?P&lt;y&gt;", b"?P&lt;yy&gt;", "group(s) y"),
], ids=["unknown-op", "missing-group"])
@pytest.mark.parametrize("command,question", [
    ("pack-validate", ()), ("tag", ("in 1990?",)),
], ids=["pack-validate", "tag"])
def test_bad_rule_op(capsys, tmp_path, command, question, old, new, message):
    pack_dir = _broken_plain_year_pack(tmp_path, old, new)
    code, out, err = run(capsys, command, "--lang", "en", "--pack", pack_dir,
                         *question)
    assert_one_error_line(code, out, err)
    assert "plain-year" in err and message in err


@pytest.mark.parametrize("command,question", [
    ("pack-validate", ()), ("tag", ("Who won in 1990?",)),
    ("answer", ("Where did Bill Clinton study before going to Oxford "
                "University?",)),
], ids=["pack-validate", "tag", "answer"])
def test_empty_pattern_is_invalid(capsys, tmp_path, command, question):
    pack_dir = _edited_pack(tmp_path, b"<PATTERN>this year</PATTERN>",
                            b"<PATTERN></PATTERN>")
    code, out, err = run(capsys, command, "--lang", "en", "--pack", pack_dir,
                         *question)
    assert_one_error_line(code, out, err)
    assert "this-year" in err and "empty string" in err


_TYPE2 = "Where were the Olympics held 16 years ago?"
_TYPE4 = "Where did Bill Clinton study before going to Oxford University?"


@pytest.mark.parametrize("old,new,name", [
    (b"<PATTERN>this year</PATTERN>", b"<PATTERN>this (year</PATTERN>",
     "rule 'this-year'"),
    (b'relation="AFTER">after</SIGNAL>', b'relation="AFTER">after (</SIGNAL>',
     "signal 'after'"),
    (b"(?P&lt;aux&gt;was", b"(?P&lt;aux&gt;(was", "aux clause template"),
], ids=["rule", "signal", "aux-template"])
def test_broken_pack_fails_every_command_alike(capsys, tmp_path, old, new,
                                               name):
    # the first use of a pack compiles all of it, whatever the question
    pack_dir = _edited_pack(tmp_path, old, new)
    errors = set()
    for argv in (("tag", "Who won in 1990?"), ("answer", _TYPE2),
                 ("answer", _TYPE4), ("pack-validate",)):
        code, out, err = run(capsys, *argv, "--pack", pack_dir)
        assert_one_error_line(code, out, err)
        errors.add(err)
    (err,) = errors
    assert name in err and "does not compile" in err


@pytest.mark.parametrize("lang,old,new,named", [
    ("en", b"When did {subj} {verb:rw} {rest}?",
     b"When did {subj} {verb:lemma} {rest}?",
     "tensed clause template: OUTPUT {verb:lemma} has transform 'lemma'"),
    ("en", b"When did {subj} {verb:rw} {rest}?",
     b"When did {subject} {verb:rw} {rest}?",
     "tensed clause template: OUTPUT {subject} names no piece"),
    ("en", b"When {aux} {subj} {rest}?", b"When {aux} {part} {subj} {rest}?",
     "aux clause template: OUTPUT {part} names no piece"),
    ("es", "¿Cuándo {verb:rw} {rest}?".encode(),
     "¿Cuándo {verbo:rw} {rest}?".encode(),
     "verb_first clause template: OUTPUT {verbo:rw} names no piece"),
], ids=["transform", "tensed-piece", "aux-group", "verb-first-piece"])
def test_clause_template_output_is_checked(capsys, tmp_path, lang, old, new,
                                           named):
    # else "When did the Berlin Wall fell?" or a dropped piece, silently
    pack_dir = _edited_pack(tmp_path, old, new, lang)
    for argv in (("pack-validate",), ("decompose", _TYPE4)):
        code, out, err = run(capsys, *argv, "--lang", lang, "--pack", pack_dir)
        assert_one_error_line(code, out, err)
        assert named in err


def test_empty_signal_is_invalid(capsys, tmp_path):
    pack_dir = _edited_pack(tmp_path, b'relation="AFTER">after</SIGNAL>',
                            b'relation="AFTER"></SIGNAL>')
    code, out, err = run(capsys, "pack-validate", "--lang", "en", "--pack",
                         pack_dir)
    assert_one_error_line(code, out, err)
    assert "signal 'after'" in err


#: Pack edits that put a rule ARG or a lexicon value outside its domain:
#: (id, lang, old, new, a question for tag and answer, the rule or entry
#: the error names).  The first, a literal rule without its value, has no
#: id of its own.
_OUT_OF_DOMAIN = [
    ("", "en", b'<ARG key="value">2000</ARG>', b"",
     "Who won in the second millennium year?", "millennium-year"),
    ("direction-word", "en", b'<ARG key="direction">past</ARG>',
     b'<ARG key="direction">pasado</ARG>', "Who won 3 years ago?",
     "relative-ago"),
    ("years-word", "es", b'<ARG key="years">5</ARG>',
     b'<ARG key="years">cinco</ARG>', "¿Quién ganó en los últimos años?",
     "últimos-años"),
    ("years-negative", "es", b'<ARG key="years">5</ARG>',
     b'<ARG key="years">-3</ARG>', "¿Quién ganó en los últimos años?",
     "últimos-años"),
    ("unit-week", "en", b'key="years" value="year"',
     b'key="years" value="week"', "Who won the prize 16 years ago?",
     "unit 'years'"),
    ("number-negative", "en", b'key="five" value="5"',
     b'key="five" value="-5"', "Who won five years ago?", "number 'five'"),
    ("decade-not-tens", "en", b'key="eighties" value="1980"',
     b'key="eighties" value="1985"', "Who won in the eighties?",
     "decade 'eighties'"),
    ("month-13", "en", b'key="august" value="8"', b'key="august" value="13"',
     "What happened on august 15?", "month 'august'"),
    ("ordinal-negative", "en", b'key="fifth" value="5"',
     b'key="fifth" value="-5"', "Who reigned in the fifth century?",
     "ordinal 'fifth'"),
    # a key is pattern text once a {kind} names its table
    ("key-not-word", "en", b'key="two" value="2"', b'key="two (" value="2"',
     "Who won two years ago?", "number 'two ('"),
]


@pytest.mark.parametrize("lang,old,new,question,name,command", [
    (*edit[1:], command) for edit in _OUT_OF_DOMAIN
    for command in ("pack-validate", "tag", "answer")
], ids=[f"{edit[0]}-{command}" if edit[0] else command
        for edit in _OUT_OF_DOMAIN
        for command in ("pack-validate", "tag", "answer")])
def test_literal_rule_without_value_is_invalid(capsys, tmp_path, lang, old,
                                               new, question, name, command):
    # and every other rule ARG or lexicon value outside its domain
    pack_dir = _edited_pack(tmp_path, old, new, lang)
    question = () if command == "pack-validate" else (question,)
    code, out, err = run(capsys, command, "--lang", lang, "--pack", pack_dir,
                         *question)
    assert_one_error_line(code, out, err)
    assert name in err


@pytest.mark.parametrize("old,new,question,tags", [
    # with twenty read as 20000, "twenty twenty one" would be year 40001
    (b'key="twenty" value="20"', b'key="twenty" value="20000"',
     "Who won the race in twenty twenty one?", ""),
    # with five digits after a month name, "august 12345" would be a month
    (rb"(?P&lt;n&gt;\d{1,4})", rb"(?P&lt;n&gt;\d{1,5})",
     "What happened in august 12345?", ""),
    # with five-digit bounds, "between 1990 and 12345" would be a range
    (rb"between\s+(?P&lt;a&gt;[12]\d{3})\s+and\s+(?P&lt;b&gt;[12]\d{3})",
     rb"between\s+(?P&lt;a&gt;\d{4,5})\s+and\s+(?P&lt;b&gt;\d{4,5})",
     "Who won between 1990 and 12345?", '<TE value="1990">1990</TE>\n'),
    # with eighties read as 19980, "the eighties" would be decade prefix 1998
    (b'key="eighties" value="1980"', b'key="eighties" value="19980"',
     "Who won in the eighties?", ""),
], ids=["spoken-year", "month-year", "year-range", "decade-word"])
def test_year_past_9999_gets_no_tag(capsys, tmp_path, old, new, question,
                                    tags):
    pack_dir = _edited_pack(tmp_path, old, new)
    assert run(capsys, "tag", "--pack", pack_dir, question) == (0, tags, "")
    assert run(capsys, "answer", "--pack", pack_dir, question) == (
        0, "", "NOACT\n")


@pytest.mark.parametrize("old,new,question,tags", [
    # number words after a month name read as the day
    (rb"(?P&lt;n&gt;\d{1,4})", rb"(?P&lt;n&gt;\w{1,4})",
     "What happened in august four?",
     '<TE value="XXXX-08-04">august four</TE>\n'),
    # a year-pair bound that reads as no year leaves the plain year
    (rb"<PATTERN>(?P&lt;a&gt;[12]\d{3})\s*",
     rb"<PATTERN>(?P&lt;a&gt;\w{4})\s*",
     "Who won in abcd-1975?", '<TE value="1975">1975</TE>\n'),
    # a superscript digit is a digit but not a decimal one
    (rb"<PATTERN>(?:the\s+)?'?(?P&lt;d&gt;\d{3}0|\d0)s</PATTERN>",
     rb"<PATTERN>(?:the\s+)?'?(?P&lt;d&gt;\w0)s</PATTERN>",
     "Who won in the \u00b20s?", ""),
], ids=["month-number-word", "year-range-letters", "decade-superscript"])
def test_group_capturing_non_digits_is_read_or_untagged(capsys, tmp_path, old,
                                                        new, question, tags):
    pack_dir = _edited_pack(tmp_path, old, new)
    assert run(capsys, "tag", "--pack", pack_dir, question) == (0, tags, "")
    assert run(capsys, "answer", "--pack", pack_dir, question) == (
        0, "", "NOACT\n")


@pytest.mark.parametrize("ref,question", [
    ("0005-06-01", "Who won 0 centuries ago?"),
    ("0005-06-01", "Who won 0 decades ago?"),
    ("9999-12-31", "Who won 99 centuries ago?"),
])
def test_relative_value_outside_the_grammar_gets_no_tag(capsys, ref,
                                                        question):
    # years 1-9 have no decade value and years 1-99 no century value
    assert run(capsys, "tag", "--ref", ref, question) == (0, "", "")
    assert run(capsys, "answer", "--ref", ref, question) == (
        0, "", "NOACT\n")


@pytest.mark.parametrize("command,question", [
    ("answer", ""), ("classify", "   "), ("decompose", ""), ("tag", ""),
])
def test_blank_question_is_a_usage_error(capsys, command, question):
    code, out, err = run(capsys, command, question)
    assert_one_error_line(code, out, err)
    assert err == "error: question is empty\n"  # no traceback


#: A one-question testbed for the testbed boundary cases below.
_TESTBED = (b'<TESTBED lang="en" ref="2008-01-01"><Q id="1">'
            b"<QUESTION>Who won in 1990?</QUESTION>"
            b'<TE value="1990">1990</TE><TYPE>2</TYPE></Q></TESTBED>')

#: Input files broken at one boundary: (id, file, pattern, replacement,
#: the fault the error names).  The pattern is replaced once in the
#: one-question testbed, the shipped English pack, the shipped English
#: fixtures or a command line written one argument a line.
_BROKEN_INPUTS = [
    ("bad-q-id", "testbed", rb'id="1"', b'id="one"', "bad Q id 'one'"),
    ("no-question", "testbed", rb"<QUESTION>.*</QUESTION>", b"",
     "Q1: missing QUESTION"),
    ("no-type", "testbed", rb"<TYPE>2</TYPE>", b"", "Q1: missing TYPE"),
    ("bad-type", "testbed", rb"<TYPE>2", b"<TYPE>two",
     "Q1: bad TYPE 'two'"),
    ("empty-signal", "testbed", rb"</TYPE>", b"</TYPE><SIGNAL> </SIGNAL>",
     "Q1: empty SIGNAL element"),
    ("empty-te", "testbed", rb">1990</TE>", b"></TE>", "Q1: empty TE element"),
    ("bad-ref", "testbed", rb'ref="2008-01-01"', b'ref="2008-13-01"',
     "bad testbed reference date '2008-13-01'"),
    ("empty-ref", "testbed", rb'ref="2008-01-01"', b'ref=""',
     "bad testbed reference date ''"),
    ("basic-format-ref", "testbed", rb'ref="2008-01-01"', b'ref="20080101"',
     "bad testbed reference date '20080101'"),
    ("week-date-ref", "testbed", rb'ref="2008-01-01"', b'ref="2008-W01-1"',
     "bad testbed reference date '2008-W01-1'"),
    ("root-not-testbed", "testbed", rb"<TESTBED (.*)</TESTBED>",
     rb"<TB \1</TB>", "root element 'TB', expected TESTBED"),
    ("root-before-ref", "testbed",
     rb'<TESTBED (.*)ref="2008-01-01"(.*)</TESTBED>', rb'<TB \1ref="x"\2</TB>',
     "root element 'TB', expected TESTBED"),
    ("type1-signal", "testbed", rb"<TE .*</TYPE>",
     b"<TYPE>1</TYPE><SIGNAL>when</SIGNAL>",
     "Q1: type 1 takes no signal or split"),
    ("type1-te", "testbed", rb"<TYPE>2", b"<TYPE>1", "Q1: type 1 takes no TE"),
    ("empty-code", "pack", rb'code="en"', b'code=""', "pack code is empty"),
    ("no-rule", "pack", rb"<TERULES>.*</TERULES>", b"<TERULES />",
     "no temporal expression rules"),
    ("unknown-template", "pack", rb'kind="fallback"', b'kind="other"',
     "unknown clause template kind 'other'"),
    ("empty-stopwords", "pack", rb'(?:\s*<ENTRY kind="stopword"[^>]*>)+',
     b"", "stopword list is empty"),
    ("root-not-pack", "pack", rb"<PACK (.*)</PACK>",
     rb"<LANGPACK \1</LANGPACK>", "root element 'LANGPACK', expected PACK"),
    ("old-verbs-section", "pack", rb"</TERULES>",
     b"</TERULES><VERBS><AUX>did do</AUX></VERBS>", "unknown element PACK/VERBS"),
    ("old-whwords-section", "pack", rb"<SIGNALS>",
     b"<WHWORDS>who what</WHWORDS><SIGNALS>", "unknown element PACK/WHWORDS"),
    ("misspelt-pattern", "pack", rb"<PATTERN>this year</PATTERN>",
     b"<PATERN>this year</PATERN>",
     "unknown element PACK/TERULES/RULE/PATERN"),
    ("empty-suffix-from", "pack", rb"<SUFFIX ",
     b'<SUFFIX from="" to="ed" checked="0" /><SUFFIX ',
     "suffix '' (to 'ed'): from is empty"),
    # the verb is casefolded first, so "studied" would become "studi"
    ("suffix-from-not-casefolded", "pack", rb'from="ied"', b'from="IED"',
     "suffix 'IED' (to 'y'): from is not casefolded ('ied')"),
    ("suffix-to-not-casefolded", "pack", rb'to="y"', b'to="Y"',
     "suffix 'ied' (to 'Y'): to is not casefolded ('y')"),
    ("suffix-from-not-a-word", "pack", rb'from="ed"', b'from="e d"',
     "suffix 'e d' (to ''): from is not a word or hyphenated words"),
    ("old-equiv-row", "pack", rb"<LEXICON>",
     b'<EQUIV a="50s" b="1950s" /><LEXICON>', "unknown element PACK/EQUIV"),
    ("equivalent-key-not-casefolded", "pack", rb'key="1950s"',
     b'key="1950S"', "equivalent '1950S': key is not casefolded ('1950s')"),
    # the judge compares the value with casefolded tokens
    ("equivalent-value-not-casefolded", "pack", rb'value="50s"',
     b'value="50S"', "equivalent '1950s': value '50S' is not a casefolded "
     "word or hyphenated words"),
    ("unknown-lexicon", "pack", rb'kind="conjunction"', b'kind="conj"',
     "unknown lexicon kind 'conj'"),
    ("misspelt-attribute", "pack", rb'from="d" to="" checked',
     b'from="d" to="" chekced', "unknown attribute PACK/SUFFIX@chekced"),
    ("old-event-attribute", "pack", rb'relation="AFTER">',
     b'relation="AFTER" event="1">',
     "unknown attribute PACK/SIGNALS/SIGNAL@event"),
    ("missing-checked", "pack", rb' checked="1"', b"",
     "missing attribute PACK/SUFFIX@checked"),
    ("no-during-signal", "pack", rb'<SIGNAL base="during"[^>]*>during</SIGNAL>',
     b"", "signal lexicon misses core bases: ['during']"),
    ("repeated-rule-name", "pack", rb'name="quote-year"', b'name="plain-year"',
     "temporal expression rule names are not unique"),
    ("misspelt-arg-key", "pack", rb'key="direction"', b'key="direciton"',
     "rule 'relative-ago': op 'relative' reads no ARG direciton"),
    ("aux-without-pattern", "pack", rb"<PATTERN>\^.*?</PATTERN>", b"",
     "aux clause template has no PATTERN"),
    ("pattern-on-fallback", "pack", rb'<TEMPLATE kind="fallback">',
     b'<TEMPLATE kind="fallback"><PATTERN>x</PATTERN>',
     "fallback clause template takes no PATTERN"),
    ("no-fallback", "pack", rb'<TEMPLATE kind="fallback">.*?</TEMPLATE>', b"",
     "clause templates lack a fallback entry"),
    ("blank-output", "pack", rb"<OUTPUT>When did \{clause\} happen\?</OUTPUT>",
     b"<OUTPUT> </OUTPUT>", "fallback clause template: OUTPUT is blank"),
    ("fq-without-key", "fixtures", rb'<FQ key="[^"]*"', b"<FQ",
     "fixture entry without key"),
    ("bad-rank", "fixtures", rb'rank="1"', b'rank="x"', "bad rank 'x'"),
    ("zero-rank", "fixtures", rb'rank="1"', b'rank="0"', "bad rank '0'"),
    ("negative-rank", "fixtures", rb'rank="1"', b'rank="-1"',
     "bad rank '-1'"),
    ("bad-value", "fixtures", rb'value="1964-1968"', b'value="1990-13-45"',
     "fixture 'where did bill clinton study': value '1990-13-45': month "
     "must be in 1..12"),
    ("empty-answer", "fixtures", rb">Georgetown University<", b">  <",
     "fixture 'where did bill clinton study': answer at rank 1 has no text"),
    ("fixture-bad-ref", "fixtures", rb'ref="2008-01-01"', b'ref="2008-02-30"',
     "bad fixture reference date '2008-02-30'"),
    ("fixture-empty-ref", "fixtures", rb'ref="2008-01-01"', b'ref=""',
     "bad fixture reference date ''"),
    ("fixture-basic-format-ref", "fixtures", rb'ref="2008-01-01"',
     b'ref="20080101"', "bad fixture reference date '20080101'"),
    ("fixture-week-date-ref", "fixtures", rb'ref="2008-01-01"',
     b'ref="2008-W01-1"', "bad fixture reference date '2008-W01-1'"),
    ("root-not-fixtures", "fixtures", rb"<FIXTURES (.*)</FIXTURES>",
     rb"<FQ \1</FQ>", "root element 'FQ', expected FIXTURES"),
    ("ref-bad", "answer-command", rb"2008-01-01", b"not-a-date",
     "bad reference date 'not-a-date'"),
    ("ref-empty", "answer-command", rb"2008-01-01", b"",
     "bad reference date ''"),
    ("ref-basic-format", "answer-command", rb"2008-01-01", b"20080101",
     "bad reference date '20080101'"),
    ("ref-week-date", "answer-command", rb"2008-01-01", b"2008-W01-1",
     "bad reference date '2008-W01-1'"),
    ("answer-fixtures-empty", "answer-command", rb"--fixtures\n[^\n]*",
     b"--fixtures\n", "No such file or directory: ''"),
    ("eval-testbed-empty", "eval-command", rb"--testbed\n[^\n]*",
     b"--testbed\n", "No such file or directory: ''"),
    ("eval-fixtures-empty", "eval-command", rb"--fixtures\n[^\n]*",
     b"--fixtures\n", "No such file or directory: ''"),
    ("pack-empty", "tag-command", rb"--pack\n[^\n]*", b"--pack\n",
     "pack directory is empty"),
    # the parser raises LookupError or ValueError for an encoding it cannot
    # read, not a parse error
    ("unknown-encoding", "fixtures", rb"encoding='utf-8'", b"encoding='utf-x'",
     "malformed XML: unknown encoding: utf-x"),
    ("multi-byte-encoding", "fixtures", rb"encoding='utf-8'",
     b"encoding='utf-7'", "malformed XML: multi-byte encodings are not "
     "supported"),
    ("not-a-text-encoding", "testbed", rb"<TESTBED ",
     b"<?xml version='1.0' encoding='rot13'?><TESTBED ",
     "malformed XML: 'rot13' is not a text encoding"),
    ("idna-encoding", "pack", rb"encoding='utf-8'", b"encoding='idna'",
     "malformed XML: decoding with 'idna' codec failed"),
    ("punycode-encoding", "pack", rb"encoding='utf-8'", b"encoding='punycode'",
     "malformed XML: "),
]

def _argv_lines(path):
    return path.read_text(encoding="utf-8").split("\n")


#: Per file: its name, its unbroken text and the command that reads it; a
#: command-line file is itself the command.
_INPUT_FILES = {
    "answer-command": ("argv.txt", "\n".join([
        "answer", "--fixtures", str(DATA_DIR / "fixtures_en.xml"), "--ref",
        "2008-01-01", "Who won 16 years ago?"]).encode(), _argv_lines),
    "eval-command": ("argv.txt", "\n".join([
        "eval", "--testbed", str(DATA_DIR / "testbed_en.xml"), "--fixtures",
        str(DATA_DIR / "fixtures_en.xml")]).encode(), _argv_lines),
    "tag-command": ("argv.txt", "\n".join([
        "tag", "--pack", str(DATA_DIR), "Who won in 1990?"]).encode(),
        _argv_lines),
    "testbed": ("tb.xml", _TESTBED, lambda path: ["eval", "--testbed", str(path)]),
    "pack": ("en.xml", (DATA_DIR / "en.xml").read_bytes(),
             lambda path: ["pack-validate", "--pack", str(path.parent)]),
    "fixtures": ("fx.xml", (DATA_DIR / "fixtures_en.xml").read_bytes(),
                 lambda path: ["answer", "--fixtures", str(path), _TYPE4]),
}


@pytest.mark.parametrize("kind,old,new,fault",
                         [case[1:] for case in _BROKEN_INPUTS],
                         ids=[case[0] for case in _BROKEN_INPUTS])
def test_broken_input_is_one_error_line(capsys, monkeypatch, tmp_path, kind,
                                        old, new, fault):
    # run where en.xml lies, so that an empty --pack read as the working
    # directory would load a pack and pass
    monkeypatch.chdir(DATA_DIR)
    name, doc, argv = _INPUT_FILES[kind]
    doc, edits = re.subn(old, new, doc, count=1, flags=re.DOTALL)
    assert edits == 1
    path = tmp_path / name
    path.write_bytes(doc)
    code, out, err = run(capsys, *argv(path))
    assert_one_error_line(code, out, err)
    assert fault in err


def test_rule_with_a_numbered_group_reference_tags(capsys, tmp_path):
    # each pattern compiles alone, so \1 is its own group 1
    doc = (DATA_DIR / "en.xml").read_bytes()
    old = b"<PATTERN>this year</PATTERN>"
    assert doc.count(old) == 1
    (tmp_path / "en.xml").write_bytes(
        doc.replace(old, rb"<PATTERN>this (year)\1?</PATTERN>"))
    code, out, err = run(capsys, "pack-validate", "--pack", str(tmp_path))
    assert (code, out, err) == (
        0, "OK en: 8 signals, 16 expression rules, 4 clause templates\n", "")
    assert run(capsys, "tag", "--pack", str(tmp_path),
               "Who won this yearyear?") == (
        0, '<TE value="2008">this yearyear</TE>\n', "")


@pytest.mark.parametrize("command", ["answer", "decompose"])
def test_blank_restriction_template_is_a_pack_error(capsys, tmp_path,
                                                    command):
    # rendered, the blank fallback would be a blank backend question or an
    # empty Q-REST
    doc = (DATA_DIR / "en.xml").read_bytes()
    old = b"<OUTPUT>When did {clause} happen?</OUTPUT>"
    assert doc.count(old) == 1
    (tmp_path / "en.xml").write_bytes(doc.replace(old, b"<OUTPUT />"))
    code, out, err = run(capsys, command, "--pack", str(tmp_path),
                         "Who won the race after the war?")
    assert_one_error_line(code, out, err)
    assert "fallback clause template: OUTPUT is blank" in err


def test_eval_on_a_testbed_with_no_question(capsys, tmp_path):
    path = tmp_path / "tb.xml"
    path.write_bytes(b'<TESTBED lang="en" ref="2008-01-01" />')
    assert run(capsys, "eval", "--testbed", str(path)) == (
        1, "", "error: empty testbed\n")


@pytest.mark.parametrize("argv,fault", [
    (["eval", "--lang", "es", "--testbed", str(DATA_DIR / "testbed_en.xml")],
     "testbed language 'en' does not match pack 'es'"),
    (["eval", "--lang", "es", "--fixtures", str(DATA_DIR / "fixtures_en.xml")],
     "fixture language 'en' does not match pack 'es'"),
    (["answer", "--lang", "es", "--fixtures",
      str(DATA_DIR / "fixtures_en.xml"), _TYPE4],
     "fixture language 'en' does not match pack 'es'"),
], ids=["eval-testbed", "eval-fixtures", "answer-fixtures"])
def test_file_in_another_language_than_the_pack(capsys, argv, fault):
    code, out, err = run(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert fault in err


#: The console checks that no in-process row above makes: (id, argv, a
#: (pattern, replacement) edit of every match in the shipped English
#: fixtures, read through --fixtures, or None, exit code, stdout).
_CONSOLE_CHECKS = [
    ("pack-validate-en", ["pack-validate", "--lang", "en"], None, 0,
     "OK en: 8 signals, 16 expression rules, 4 clause templates\n"),
    ("tag-two-decades-ago", ["tag", "Who won the prize two decades ago?"],
     None, 0, '<TE value="198">two decades ago</TE>\n'),
    ("tag-hace-dos-decadas", ["tag", "--lang", "es",
                              "¿Quién ganó el premio hace dos décadas?"],
     None, 0, '<TE value="198">hace dos décadas</TE>\n'),
    ("tag-the-early-1990s", ["tag", "Who won in the early 1990s?"], None, 0,
     '<TE value="1990-1994">the early 1990s</TE>\n'),
    ("answer-es-karlfeldt", ["answer", "--lang", "es",
                             "¿Qué persona ganó el premio Nobel de "
                             "Literatura cuando James Dean nació en el año "
                             "31?"], None, 0, "Erik Axel Karlfeldt\n"),
    ("answer-fixtures-rank-0", ["answer", _TYPE4],
     (b'rank="1"', b'rank="0"'), 2, ""),
    ("answer-fixtures-blank-text", ["answer", _TYPE4],
     (b">Georgetown University<", b">  <"), 2, ""),
]


@pytest.mark.parametrize("argv,edit,code,out",
                         [case[1:] for case in _CONSOLE_CHECKS],
                         ids=[case[0] for case in _CONSOLE_CHECKS])
def test_console_check(tmp_path, argv, edit, code, out):
    # what the tqa console script runs, in a fresh interpreter
    if edit is not None:
        doc = (DATA_DIR / "fixtures_en.xml").read_bytes()
        assert edit[0] in doc
        path = tmp_path / "fx.xml"
        path.write_bytes(doc.replace(*edit))
        argv = [argv[0], "--fixtures", str(path), *argv[1:]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONIOENCODING="utf-8", PYTHONPATH=os.pathsep
               .join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "tqa.cli", *argv], env=env,
                          capture_output=True, encoding="utf-8", timeout=60)
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
    assert code == 0 or proc.stderr.startswith("error: "), proc.stderr
