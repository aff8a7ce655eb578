"""Pluggable QA backend capability, fixture implementation and orchestrator.

Sub-questions produced by decomposition are answered by any backend that
maps a question to ranked, optionally dated answers.  The shipped backend
is a deterministic fixture store loaded from XML, standing in for a live
QA service so that end-to-end behavior is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Protocol
from xml.etree import ElementTree as ET

from .decomposition import DecomposedQuestion, decompose
from .errors import (Diagnostic, MalformedValue, SchemaViolation, TqaError,
                     iter_xml, write_xml)
from .packs import DATA_DIR, LanguagePack
from .recomposition import ComplexAnswer, DatedAnswer, recompose
from .textnorm import normalize_key
from .time_model import TimeValue


@dataclass(frozen=True)
class BackendQuery:
    question: str
    language: str

    def __post_init__(self):
        if not self.question.strip():
            raise ValueError("query question is empty")


class QABackend(Protocol):
    """Capability: ranked, optionally dated answers for a simple question."""

    def answer(self, query: BackendQuery) -> list[DatedAnswer]:
        ...


@dataclass
class FixtureStore:
    """Deterministic backend: normalized question key -> ranked answers."""

    entries: dict[str, tuple[DatedAnswer, ...]]
    ref: date
    language: str = "en"

    def __post_init__(self):
        for key, answers in self.entries.items():
            ranks = [a.rank for a in answers]
            if ranks != list(range(1, len(ranks) + 1)):
                raise SchemaViolation(
                    f"fixture {key!r}: ranks {ranks} not contiguous from 1")
            if key != normalize_key(key):
                raise SchemaViolation(f"fixture key {key!r} not normalized")

    def answer(self, query: BackendQuery) -> list[DatedAnswer]:
        return list(self.entries.get(normalize_key(query.question), ()))


def _parse_answer(el: ET.Element, key: str,
                  values: dict[str, TimeValue]) -> DatedAnswer:
    """One A row; ``values`` maps value strings already parsed to their
    TimeValue, so that equal strings share one value and its interval."""
    try:
        rank = int(el.get("rank", ""))
    except ValueError:
        rank = 0
    if rank < 1:
        raise SchemaViolation(f"fixture {key!r}: bad rank {el.get('rank')!r}")
    value_text = el.get("value")
    value = None
    if value_text:
        value = values.get(value_text)
        if value is None:
            try:
                value = values[value_text] = TimeValue(value_text)
            except MalformedValue as exc:
                raise SchemaViolation(f"fixture {key!r}: value {exc}")
    text = (el.text or "").strip()
    if not text:
        raise SchemaViolation(
            f"fixture {key!r}: answer at rank {rank} has no text")
    return DatedAnswer(text=text, rank=rank, value=value)


def _parse_entry(fq: ET.Element, values: dict[str, TimeValue],
                 ) -> tuple[str, tuple[DatedAnswer, ...]]:
    """One FQ element: its key and its A rows in rank order."""
    key = fq.get("key", "")
    if not key:
        raise SchemaViolation("fixture entry without key")
    return key, tuple(sorted((_parse_answer(a, key, values)
                              for a in fq.findall("A")),
                             key=lambda a: a.rank))


def load_fixtures(source) -> FixtureStore:
    """Load a fixture file: FIXTURES[@ref,@lang] containing FQ[@key]/A rows.

    The file is streamed: each FQ is parsed when its end tag is read and is
    then cleared, so the whole document is never held at once.  An FQ's
    fault is raised only after the root and its reference date pass, and
    only if the FQ is a child of the root, so the fault reported is the
    first in document order, the root's before any entry's."""
    parsed, values = {}, {}
    for element in iter_xml(source, SchemaViolation):
        if element.tag == "FQ":
            try:
                parsed[element] = _parse_entry(element, values)
            except TqaError as exc:
                parsed[element] = exc
            element.clear()
    root = element
    if root.tag != "FIXTURES":
        raise SchemaViolation(f"root element {root.tag!r}, expected FIXTURES")
    ref_text = root.get("ref", "")
    try:
        ref = date.fromisoformat(ref_text)
    except ValueError:
        raise SchemaViolation(f"bad fixture reference date {ref_text!r}")
    entries = {}
    for fq in root.findall("FQ"):
        entry = parsed[fq]
        if isinstance(entry, TqaError):
            raise entry
        key, answers = entry
        entries[key] = answers
    return FixtureStore(entries=entries, ref=ref,
                        language=root.get("lang", "en"))


def write_fixtures(store: FixtureStore) -> bytes:
    root = ET.Element("FIXTURES", ref=store.ref.isoformat(),
                      lang=store.language)
    for key in store.entries:
        fq = ET.SubElement(root, "FQ", key=key)
        for answer in store.entries[key]:
            attrs = {"rank": str(answer.rank)}
            if answer.value is not None:
                attrs["value"] = answer.value.canonical
            el = ET.SubElement(fq, "A", attrs)
            el.text = answer.text
    return write_xml(root)


def check_language(what: str, language: str, pack: LanguagePack) -> None:
    """SchemaViolation unless a file's ``language`` is the pack's code."""
    if language != pack.code:
        raise SchemaViolation(f"{what} language {language!r} does not match "
                              f"pack {pack.code!r}")


def shipped_fixtures(language: str) -> FixtureStore:
    """Fixture store bundled with the package for the given language."""
    path = DATA_DIR / f"fixtures_{language}.xml"
    if not path.is_file():
        raise SchemaViolation(f"no shipped fixtures for language {language!r}")
    return load_fixtures(path)


def answer_complex_question(question: str, pack: LanguagePack,
                            ref: date, backend: QABackend,
                            ) -> ComplexAnswer:
    """Decompose, query the backend, recompose.  Never raises for content
    problems: failures surface as diagnostics with an empty answer list."""
    return answer_decomposed(decompose(question, pack, ref), pack.code,
                             backend)


def answer_decomposed(analysis: DecomposedQuestion, language: str,
                      backend: QABackend) -> ComplexAnswer:
    """Query the backend with a decomposed question's sub-questions (or the
    question itself, for types 1 and 2) and recompose the answers.  An
    unsplittable question asks nothing and answers nothing."""
    if Diagnostic.UNSPLITTABLE in analysis.diagnostics:
        return ComplexAnswer((), None, None, analysis.diagnostics)
    constraints = [t.interval for t in analysis.tes if t.interval is not None]
    if analysis.signal is None:
        focus = backend.answer(BackendQuery(analysis.original, language))
        result = recompose(focus, [], None, constraints)
    else:
        focus = backend.answer(BackendQuery(analysis.q_focus, language))
        restriction = backend.answer(
            BackendQuery(analysis.q_restriction, language))
        result = recompose(focus, restriction, analysis.signal.key,
                           constraints)
    if not analysis.diagnostics:
        return result
    return ComplexAnswer(result.answers, result.restriction_answer,
                         result.applied_key,
                         analysis.diagnostics + result.diagnostics)
