"""Testbed XML: gold question records, and a system decomposition as a Q
block.

A testbed is a TESTBED element (attributes ``lang`` and ``ref``) holding Q
blocks:

    <Q id="107">
      <QUESTION>Who won the best actress Oscar award when ...?</QUESTION>
      <TE value="195">the 50s</TE>
      <TYPE>3</TYPE>
      <SIGNAL>when</SIGNAL>
      <Q-FOCUS>Who won the best actress Oscar award?</Q-FOCUS>
      <Q-REST>When did James Dean die in the 1950s?</Q-REST>
      <ANSWER>Anna Magnani</ANSWER>
    </Q>

A system decomposition renders as the same layout minus ANSWER.  TE
values are read into ``TimeValue``s and written in canonical form, so
``[A-B]`` is read as ``A-B``.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from xml.etree import ElementTree as ET

from .decomposition import DecomposedQuestion
from .errors import (MalformedValue, SchemaViolation, read_day, read_xml,
                     write_xml)
from .packs import DATA_DIR
from .textnorm import tokenize
from .time_model import TimeValue


@dataclass(frozen=True)
class GoldQuestion:
    """One annotated question; optional fields follow type applicability."""

    id: int
    question: str
    qtype: int
    tes: tuple[tuple[str, TimeValue], ...] = ()
    signal: str | None = None
    q_focus: str | None = None
    q_rest: str | None = None
    answer: str | None = None

    def __post_init__(self):
        if self.qtype not in (1, 2, 3, 4):
            raise SchemaViolation(f"Q{self.id}: type {self.qtype} not in 1..4")
        if self.qtype in (3, 4):
            for name, value in (("SIGNAL", self.signal),
                                ("Q-FOCUS", self.q_focus),
                                ("Q-REST", self.q_rest)):
                if not value:
                    raise SchemaViolation(
                        f"Q{self.id}: type {self.qtype} requires {name}")
        else:
            if self.signal or self.q_focus or self.q_rest:
                raise SchemaViolation(
                    f"Q{self.id}: type {self.qtype} takes no signal or split")
        if self.qtype in (2, 3):
            if not self.tes:
                raise SchemaViolation(
                    f"Q{self.id}: type {self.qtype} requires a TE")
        elif self.tes:
            raise SchemaViolation(f"Q{self.id}: type {self.qtype} takes no TE")
        if self.answer is not None and not tokenize(self.answer):
            raise SchemaViolation(f"Q{self.id}: ANSWER has no word")


@dataclass(frozen=True)
class Testbed:
    __test__ = False  # keep pytest from collecting this as a test class

    language: str
    ref: date
    questions: tuple[GoldQuestion, ...]

    def __post_init__(self):
        ids = [q.id for q in self.questions]
        if len(ids) != len(set(ids)):
            raise SchemaViolation("duplicate question ids in testbed")


def _text(child: ET.Element | None, qid) -> str | None:
    if child is None:
        return None
    value = (child.text or "").strip()
    if not value:
        raise SchemaViolation(f"Q{qid}: empty {child.tag} element")
    return value


def _parse_q(el: ET.Element) -> GoldQuestion:
    try:
        qid = int(el.get("id", ""))
    except ValueError:
        raise SchemaViolation(f"bad Q id {el.get('id')!r}")
    question = _text(el.find("QUESTION"), qid)
    if question is None:
        raise SchemaViolation(f"Q{qid}: missing QUESTION")
    type_text = _text(el.find("TYPE"), qid)
    if type_text is None:
        raise SchemaViolation(f"Q{qid}: missing TYPE")
    try:
        qtype = int(type_text)
    except ValueError:
        raise SchemaViolation(f"Q{qid}: bad TYPE {type_text!r}")
    tes = []
    for te in el.findall("TE"):
        surface = _text(te, qid)
        try:
            tes.append((surface, TimeValue(te.get("value", ""))))
        except MalformedValue as exc:
            raise SchemaViolation(f"Q{qid}: TE {surface!r}: {exc}")
    return GoldQuestion(
        id=qid, question=question, qtype=qtype, tes=tuple(tes),
        signal=_text(el.find("SIGNAL"), qid),
        q_focus=_text(el.find("Q-FOCUS"), qid),
        q_rest=_text(el.find("Q-REST"), qid),
        answer=_text(el.find("ANSWER"), qid))


def load_testbed(source) -> Testbed:
    """Parse a testbed document; invariants are enforced per question."""
    root = read_xml(source, "TESTBED", SchemaViolation)
    ref = read_day(root.get("ref", ""), "testbed reference date")
    questions = tuple(_parse_q(el) for el in root.findall("Q"))
    return Testbed(language=root.get("lang", "en"), ref=ref,
                   questions=questions)


def _q_element(q: GoldQuestion) -> ET.Element:
    el = ET.Element("Q", id=str(q.id))
    ET.SubElement(el, "QUESTION").text = q.question
    for surface, value in q.tes:
        te = ET.SubElement(el, "TE", value=value.canonical)
        te.text = surface
    ET.SubElement(el, "TYPE").text = str(q.qtype)
    if q.signal is not None:
        ET.SubElement(el, "SIGNAL").text = q.signal
    if q.q_focus is not None:
        ET.SubElement(el, "Q-FOCUS").text = q.q_focus
    if q.q_rest is not None:
        ET.SubElement(el, "Q-REST").text = q.q_rest
    if q.answer is not None:
        ET.SubElement(el, "ANSWER").text = q.answer
    return el


def write_testbed(testbed: Testbed) -> bytes:
    root = ET.Element("TESTBED", lang=testbed.language,
                      ref=testbed.ref.isoformat())
    for q in testbed.questions:
        root.append(_q_element(q))
    return write_xml(root)


def format_q_block(analysis: DecomposedQuestion) -> str:
    """Render a system decomposition as Q block 1 (loadable as a testbed).

    A complex question left unsplit has no sub-questions to write and
    raises SchemaViolation."""
    element = _q_element(GoldQuestion(
        id=1, question=analysis.original, qtype=analysis.qtype,
        tes=tuple((t.surface, t.value) for t in analysis.tes),
        signal=analysis.signal.surface if analysis.signal else None,
        q_focus=analysis.q_focus, q_rest=analysis.q_restriction))
    ET.indent(element, space="  ")
    return ET.tostring(element, encoding="unicode")


def shipped_testbed(language: str) -> Testbed:
    """Testbed bundled with the package for the given language."""
    path = DATA_DIR / f"testbed_{language}.xml"
    if not path.is_file():
        raise SchemaViolation(f"no shipped testbed for language {language!r}")
    return load_testbed(path)
