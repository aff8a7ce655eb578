"""Pluggable QA backend capability, fixture implementation and orchestrator.

Sub-questions produced by decomposition are answered by any backend that
maps a question to ranked, optionally dated answers.  The shipped backend
is a deterministic fixture store loaded from XML, standing in for a live
QA service so that end-to-end behavior is reproducible.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from datetime import date
from operator import attrgetter
from typing import Protocol
from xml.etree import ElementTree as ET

from .decomposition import DecomposedQuestion, decompose
from .errors import (Diagnostic, MalformedValue, SchemaViolation, TqaError,
                     iter_xml, read_day, write_xml)
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


def _parse_entry(fq: ET.Element, values: dict[str, TimeValue],
                 ) -> tuple[str, tuple[DatedAnswer, ...]]:
    """One FQ element: its key and its A rows in rank order (sorted only if
    out of it); its first faulty row in document order raises.  ``values``
    maps value strings parsed so far to their TimeValue, shared by rows."""
    key = fq.get("key", "")
    if not key:
        raise SchemaViolation("fixture entry without key")
    answers, last, ordered = [], 0, True
    for el in fq.findall("A"):
        try:
            rank = int(el.get("rank", ""))
        except ValueError:
            rank = 0
        if rank < 1:
            raise SchemaViolation(
                f"fixture {key!r}: bad rank {el.get('rank')!r}")
        value_text = el.get("value")
        value = values.get(value_text) if value_text else None
        if value is None and value_text:
            try:
                value = values[value_text] = TimeValue(value_text)
            except MalformedValue as exc:
                raise SchemaViolation(f"fixture {key!r}: value {exc}")
        text = (el.text or "").strip()
        if not text:
            raise SchemaViolation(
                f"fixture {key!r}: answer at rank {rank} has no text")
        answers.append(DatedAnswer(text, rank, value))
        ordered = ordered and last <= rank
        last = rank
    if not ordered:
        answers.sort(key=attrgetter("rank"))
    return key, tuple(answers)


def load_fixtures(source) -> FixtureStore:
    """Load a fixture file: FIXTURES[@ref,@lang] containing FQ[@key]/A rows.

    The file is streamed: each FQ is parsed when its end tag is read and is
    then cleared, so the whole document is never held at once.  An FQ's
    fault is raised only after the root and its reference date pass, and
    only if the FQ is a child of the root, so the fault reported is the
    first in document order, the root's before any entry's.  The answers
    form no reference cycle, so the cyclic collector, which would only
    rescan those built so far, is paused for the load and then restored."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        parsed, values = {}, {}
        for element in iter_xml(source, "FIXTURES", SchemaViolation):
            if element.tag == "FQ":
                try:
                    parsed[element] = _parse_entry(element, values)
                except TqaError as exc:
                    parsed[element] = exc
                element.clear()
        root = element
        ref = read_day(root.get("ref", ""), "fixture reference date")
        entries = [parsed[fq] for fq in root.findall("FQ")]
        for entry in entries:
            if isinstance(entry, TqaError):
                raise entry
        return FixtureStore(entries=dict(entries), ref=ref,
                            language=root.get("lang", "en"))
    finally:
        if enabled:
            gc.enable()


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
