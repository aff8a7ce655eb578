"""Command line surface: outputs, formats and exit codes."""

from __future__ import annotations

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
    (q,) = load_testbed(out.encode("utf-8")).questions
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


def _edited_pack(directory, old, new):
    doc = (DATA_DIR / "en.xml").read_bytes()
    assert doc.count(old) == 1
    (directory / "en.xml").write_bytes(doc.replace(old, new))
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


def test_empty_signal_is_invalid(capsys, tmp_path):
    pack_dir = _edited_pack(tmp_path, b'relation="AFTER">after</SIGNAL>',
                            b'relation="AFTER"></SIGNAL>')
    code, out, err = run(capsys, "pack-validate", "--lang", "en", "--pack",
                         pack_dir)
    assert_one_error_line(code, out, err)
    assert "signal 'after'" in err


@pytest.mark.parametrize("command,question", [
    ("pack-validate", ()), ("tag", ("Who won in the second millennium year?",)),
    ("answer", ("Who won in the second millennium year?",)),
], ids=["pack-validate", "tag", "answer"])
def test_literal_rule_without_value_is_invalid(capsys, tmp_path, command,
                                               question):
    pack_dir = _edited_pack(tmp_path, b'<ARG key="value">2000</ARG>', b"")
    code, out, err = run(capsys, command, "--lang", "en", "--pack", pack_dir,
                         *question)
    assert_one_error_line(code, out, err)
    assert "millennium-year" in err


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
], ids=["spoken-year", "month-year", "year-range"])
def test_year_past_9999_gets_no_tag(capsys, tmp_path, old, new, question,
                                    tags):
    pack_dir = _edited_pack(tmp_path, old, new)
    assert run(capsys, "tag", "--pack", pack_dir, question) == (0, tags, "")
    assert run(capsys, "answer", "--pack", pack_dir, question) == (
        0, "", "NOACT\n")


@pytest.mark.parametrize("command,question", [
    ("answer", ""), ("classify", "   "), ("decompose", ""), ("tag", ""),
])
def test_blank_question_is_a_usage_error(capsys, command, question):
    code, out, err = run(capsys, command, question)
    assert_one_error_line(code, out, err)
    assert err == "error: question is empty\n"  # no traceback
