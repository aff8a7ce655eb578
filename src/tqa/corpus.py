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
values are validated against the canonical grammar (brackets
tolerated) but stored verbatim, so loading and writing round-trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from xml.etree import ElementTree as ET

from .decomposition import DecomposedQuestion
from .errors import MalformedValue, SchemaViolation, read_xml
from .packs import DATA_DIR
from .time_model import parse_value


@dataclass(frozen=True)
class GoldQuestion:
    """One annotated question; optional fields follow type applicability."""

    id: int
    question: str
    qtype: int
    tes: tuple[tuple[str, str], ...] = ()
    signal: str | None = None
    q_focus: str | None = None
    q_rest: str | None = None
    answer: str | None = None

    def __post_init__(self):
        if self.qtype not in (1, 2, 3, 4):
            raise SchemaViolation(f"Q{self.id}: type {self.qtype} not in 1..4",
                                  qid=self.id)
        if self.qtype in (3, 4):
            for name, value in (("SIGNAL", self.signal),
                                ("Q-FOCUS", self.q_focus),
                                ("Q-REST", self.q_rest)):
                if not value:
                    raise SchemaViolation(
                        f"Q{self.id}: type {self.qtype} requires {name}",
                        qid=self.id)
        else:
            if self.signal or self.q_focus or self.q_rest:
                raise SchemaViolation(
                    f"Q{self.id}: type {self.qtype} takes no signal or split",
                    qid=self.id)
        if self.qtype in (2, 3):
            if not self.tes:
                raise SchemaViolation(
                    f"Q{self.id}: type {self.qtype} requires a TE", qid=self.id)
        elif self.tes:
            raise SchemaViolation(
                f"Q{self.id}: type {self.qtype} takes no TE", qid=self.id)
        for surface, value in self.tes:
            try:
                parse_value(value)
            except MalformedValue as exc:
                raise SchemaViolation(f"Q{self.id}: TE {surface!r}: {exc}",
                                      qid=self.id)


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


def _text(el, tag, qid) -> str | None:
    child = el.find(tag)
    if child is None:
        return None
    value = (child.text or "").strip()
    if not value:
        raise SchemaViolation(f"Q{qid}: empty {tag} element", qid=qid)
    return value


def _parse_q(el: ET.Element) -> GoldQuestion:
    try:
        qid = int(el.get("id", ""))
    except ValueError:
        raise SchemaViolation(f"bad Q id {el.get('id')!r}")
    question = _text(el, "QUESTION", qid)
    if question is None:
        raise SchemaViolation(f"Q{qid}: missing QUESTION", qid=qid)
    type_text = _text(el, "TYPE", qid)
    if type_text is None:
        raise SchemaViolation(f"Q{qid}: missing TYPE", qid=qid)
    try:
        qtype = int(type_text)
    except ValueError:
        raise SchemaViolation(f"Q{qid}: bad TYPE {type_text!r}", qid=qid)
    tes = tuple(((te.text or "").strip(), te.get("value", ""))
                for te in el.findall("TE"))
    return GoldQuestion(
        id=qid, question=question, qtype=qtype, tes=tes,
        signal=_text(el, "SIGNAL", qid),
        q_focus=_text(el, "Q-FOCUS", qid),
        q_rest=_text(el, "Q-REST", qid),
        answer=_text(el, "ANSWER", qid))


def load_testbed(source) -> Testbed:
    """Parse a testbed document; invariants are enforced per question."""
    root = read_xml(source, SchemaViolation)
    if root.tag == "Q":  # a bare block, as printed by the CLI
        return Testbed(language=root.get("lang", "en"),
                       ref=date(2008, 1, 1), questions=(_parse_q(root),))
    if root.tag != "TESTBED":
        raise SchemaViolation(f"root element {root.tag!r}, expected TESTBED")
    ref_text = root.get("ref", "")
    try:
        ref = date.fromisoformat(ref_text)
    except ValueError:
        raise SchemaViolation(f"bad testbed reference date {ref_text!r}")
    questions = tuple(_parse_q(el) for el in root.findall("Q"))
    return Testbed(language=root.get("lang", "en"), ref=ref,
                   questions=questions)


def _q_element(q: GoldQuestion) -> ET.Element:
    el = ET.Element("Q", id=str(q.id))
    ET.SubElement(el, "QUESTION").text = q.question
    for surface, value in q.tes:
        te = ET.SubElement(el, "TE", value=value)
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
    tree = ET.ElementTree(root)
    ET.indent(tree, space="  ")
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def decomposition_to_element(analysis: DecomposedQuestion,
                             qid: int = 1) -> ET.Element:
    """Render a system decomposition as a Q block (loadable as a testbed)."""
    el = ET.Element("Q", id=str(qid))
    ET.SubElement(el, "QUESTION").text = analysis.original
    for t in analysis.tes:
        te = ET.SubElement(el, "TE", value=t.value.canonical)
        te.text = t.surface
    ET.SubElement(el, "TYPE").text = str(analysis.qtype)
    if analysis.qtype in (3, 4):
        ET.SubElement(el, "SIGNAL").text = analysis.signal.surface
        ET.SubElement(el, "Q-FOCUS").text = analysis.q_focus
        ET.SubElement(el, "Q-REST").text = analysis.q_restriction
    return el


def format_q_block(element: ET.Element) -> str:
    ET.indent(element, space="  ")
    return ET.tostring(element, encoding="unicode")


def shipped_testbed(language: str) -> Testbed:
    """Testbed bundled with the package for the given language."""
    path = DATA_DIR / f"testbed_{language}.xml"
    if not path.is_file():
        raise SchemaViolation(f"no shipped testbed for language {language!r}")
    return load_testbed(path)
