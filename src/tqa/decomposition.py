"""Question decomposition: signal detection, type identification, splitting.

A complex question is split at its temporal signal into the Q-Focus (the
information need, kept verbatim plus a question mark) and the Q-Restriction
(the post-signal clause recast as a "When" question through the pack's
clause templates).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date

from .errors import Diagnostic, UnsplittableQuestion
from .packs import LanguagePack
from .tagger import TemporalExpressionTag, tag
from .time_model import Relation


@dataclass(frozen=True)
class SignalMatch:
    """A temporal signal found in a question, possibly with a quantity
    modifier ("four years after"); the modifier is captured, not computed."""

    surface: str
    begin: int
    end: int
    base: str
    key: Relation
    modifier: str | None = None


@dataclass(frozen=True)
class DecomposedQuestion:
    original: str
    qtype: int
    tes: tuple[TemporalExpressionTag, ...]
    signal: SignalMatch | None
    q_focus: str | None
    q_restriction: str | None
    diagnostics: tuple[Diagnostic, ...] = ()


def _first_word_start(question: str) -> int:
    for i, ch in enumerate(question):
        if ch.isalnum():
            return i
    return 0


_WORD = re.compile(r"\w+")


def _gap_is_determiners(gap: str, pack: LanguagePack) -> bool:
    determiners = pack.lexicon["determiner"]
    return all(t in determiners for t in _WORD.findall(gap.casefold()))


def _tail_start(text: str, end: int) -> int:
    """Start of the second-to-last whitespace-separated token of
    ``text[:end]`` (0 when it has fewer tokens).  A modifier phrase before a
    signal is a number and a unit, neither holding whitespace, so a match
    can only start there or later."""
    for _ in range(2):
        head = text[:end].rstrip()
        end = len(head) - len(head.rsplit(None, 1)[-1]) if head else 0
    return end


def detect_signal(question: str, tes: list[TemporalExpressionTag],
                  pack: LanguagePack) -> SignalMatch | None:
    """Leftmost signal; longest surface wins a shared start.

    A match is discarded when it sits inside a temporal expression, when it
    opens the question (that is the interrogative, not a signal), or when
    only determiners separate it from a following temporal expression (the
    signal then merely introduces the expression, it links no second event).
    """
    first_word = _first_word_start(question)
    candidates = []
    for start, end, order, _ in pack.compiled.signal_scanner.matches(
            question):
        if start == first_word:
            continue
        if any(t.begin <= start and end <= t.end for t in tes):
            continue
        following = [t for t in tes if t.begin >= end]
        if following:
            nearest = min(following, key=lambda t: t.begin)
            if _gap_is_determiners(question[end:nearest.begin], pack):
                continue
        candidates.append((start, -end, order))
    if not candidates:
        return None
    start, neg_end, order = min(candidates)
    end = -neg_end
    entry = pack.signals[order]
    modifier = None
    mod_match = pack.compiled.modifier.search(
        question, _tail_start(question, start), start)
    if mod_match:
        modifier = mod_match.group("mod")
        begin = mod_match.start("mod")
    else:
        begin = start
    return SignalMatch(surface=question[begin:end], begin=begin, end=end,
                       base=entry.base, key=entry.relation, modifier=modifier)


def identify_type(tes, signal) -> int:
    """Question taxonomy: single/multiple events x absent/present expression."""
    if signal is None:
        return 2 if tes else 1
    return 3 if tes else 4


def _strip_question_mark(text: str) -> str:
    return text.rstrip().rstrip("?¿ \t").rstrip()


def _squeeze(text: str) -> str:
    """``text`` with each whitespace run one space, and none at either end
    or before ``?``, ``,`` or ``.``."""
    text = " ".join(text.split())
    return text.replace(" ?", "?").replace(" ,", ",").replace(" .", ".")


def _render(runs, groups: dict[str, str], pack: LanguagePack) -> str:
    """A template OUTPUT, split into runs by the pack, with each piece
    filled from ``groups`` ("" when missing) and rewritten where marked."""
    parts = []
    for literal, name, rewrite in runs:
        parts.append(literal)
        if name is not None:
            value = groups.get(name, "")
            parts.append(pack.rewrite_verb(value) if rewrite and value
                         else value)
    return _squeeze("".join(parts))


def _focus_subject(focus: str, pack: LanguagePack) -> str | None:
    """Subject of the focus clause: the tokens between the auxiliary and the
    main verb ("Where did Bill Clinton study?" -> "Bill Clinton")."""
    tokens = _strip_question_mark(focus).split()
    aux_at = next((i for i, t in enumerate(tokens)
                   if t.casefold() in pack.lexicon["aux"]), None)
    if aux_at is None:
        return None
    rest = tokens[aux_at + 1:]
    for i, token in enumerate(rest):
        if pack.is_verbish(token):
            rest = rest[:i]
            break
    return " ".join(rest) or None


def synthesize_when_question(clause: str, pack: LanguagePack,
                             focus: str) -> str:
    """Recast a clause as a "When" question using the pack's templates."""
    clause = _squeeze(_strip_question_mark(clause))
    tokens = clause.split()
    for kind, regex, runs in pack.compiled.templates:
        if kind == "gerund":
            if tokens and pack.is_gerund(tokens[0]):
                subject = _focus_subject(focus, pack)
                if subject:
                    return _render(runs, {
                        "subject": subject, "verb": tokens[0],
                        "rest": " ".join(tokens[1:]), "clause": clause}, pack)
        elif kind == "clitic":
            if len(tokens) >= 2 \
                    and tokens[0].casefold() in pack.lexicon["clitic"] \
                    and pack.is_tensed(tokens[1]):
                return _render(runs, {
                    "clitic": tokens[0].casefold(), "verb": tokens[1],
                    "rest": " ".join(tokens[2:]), "clause": clause}, pack)
        elif kind == "verb_first":
            if tokens and pack.is_tensed(tokens[0]):
                return _render(runs, {
                    "verb": tokens[0], "rest": " ".join(tokens[1:]),
                    "clause": clause}, pack)
        elif kind == "aux":
            m = regex.match(clause)
            if m:
                groups = {k: v or "" for k, v in m.groupdict().items()}
                groups["clause"] = clause
                return _render(runs, groups, pack)
        elif kind == "tensed":
            hit = next((i for i, t in enumerate(tokens)
                        if i >= 1 and pack.is_tensed(t)), None)
            if hit is not None:
                return _render(runs, {
                    "subj": " ".join(tokens[:hit]), "verb": tokens[hit],
                    "rest": " ".join(tokens[hit + 1:]), "clause": clause}, pack)
        else:  # fallback
            return _render(runs, {"clause": clause}, pack)


def _trim_focus(text: str, pack: LanguagePack) -> str:
    text = text.rstrip(" \t,;:")
    tokens = text.split()
    while tokens and tokens[-1].casefold() in pack.lexicon["trim"]:
        tokens.pop()
    return " ".join(tokens)


def split(question: str, signal: SignalMatch,
          tes: list[TemporalExpressionTag],
          pack: LanguagePack) -> tuple[str, str]:
    """Split a complex question at its signal into focus and restriction."""
    clause = _strip_question_mark(question[signal.end:])
    if not clause.strip():
        raise UnsplittableQuestion(f"no text after signal {signal.surface!r}")
    focus = _trim_focus(question[:signal.begin], pack)
    if not focus:
        raise UnsplittableQuestion(f"no text before signal {signal.surface!r}")
    q_focus = _squeeze(focus) + "?"
    q_restriction = synthesize_when_question(clause, pack, focus=q_focus)
    if not q_restriction:
        raise UnsplittableQuestion(f"no restriction from clause {clause!r}")
    return q_focus, q_restriction


def decompose(question: str, pack: LanguagePack, ref: date,
              tes: list[TemporalExpressionTag] | None = None) -> DecomposedQuestion:
    """Full decomposition pipeline: tag, detect signal, drop the tags that
    overlap the signal, classify, split.

    ``tes`` overrides the tagger's output (used to inject gold annotations
    during evaluation).  Types 1 and 2 pass through unsplit.  A complex
    question that cannot be split keeps its expressions, signal and type,
    with no sub-questions and the UNSPLITTABLE diagnostic.
    """
    if not question.strip():
        raise ValueError("question is empty")
    if tes is None:
        tes = tag(question, pack, ref)
    signal = detect_signal(question, tes, pack)
    if signal is not None:
        # a tag inside the signal is its offset's quantity ("1000 years
        # after"), not a date of the question
        tes = [t for t in tes
               if t.end <= signal.begin or signal.end <= t.begin]
    qtype = identify_type(tes, signal)
    diagnostics = []
    q_focus = q_restriction = None
    if signal is not None:
        try:
            q_focus, q_restriction = split(question, signal, tes, pack)
        except UnsplittableQuestion:
            diagnostics.append(Diagnostic.UNSPLITTABLE)
        else:
            if signal.modifier:
                diagnostics.append(Diagnostic.OFFSET_SIGNAL_UNSUPPORTED)
    return DecomposedQuestion(
        original=question, qtype=qtype, tes=tuple(tes), signal=signal,
        q_focus=q_focus, q_restriction=q_restriction,
        diagnostics=tuple(diagnostics))
