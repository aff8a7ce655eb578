"""Evaluation harness: aspect judging, answer judging, count metrics.

Decomposition output is judged per aspect (expressions, type, signal,
splitting, and the unit as a whole) against gold annotations under
type-dependent applicability; answers are judged correct/inexact/wrong.
Aggregated counts produce precision, recall, F and mean reciprocal rank.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from xml.etree import ElementTree as ET

from .backend import FixtureStore, answer_decomposed, check_language
from .corpus import GoldQuestion, Testbed
from .decomposition import DecomposedQuestion, decompose
from .errors import EmptyPopulation, SchemaViolation, write_xml
from .packs import LanguagePack
from .tagger import TemporalExpressionTag
from .textnorm import normalize_key, tokenize


class Aspect(enum.Enum):
    TE = "TE"
    TYPE = "TYPE"
    SIGNAL = "SIGNAL"
    SPLIT = "SPLIT"
    DECOMP = "DECOMP"


#: Aspects judged for each gold question type.
APPLICABILITY = {
    1: (Aspect.TYPE, Aspect.DECOMP),
    2: (Aspect.TE, Aspect.TYPE, Aspect.DECOMP),
    3: (Aspect.TE, Aspect.TYPE, Aspect.SIGNAL, Aspect.SPLIT, Aspect.DECOMP),
    4: (Aspect.TYPE, Aspect.SIGNAL, Aspect.SPLIT, Aspect.DECOMP),
}


class Verdict(enum.Enum):
    CORR = "CORR"
    INE = "INE"
    WRONG = "WRONG"
    NOACT = "NOACT"


@dataclass(frozen=True)
class AspectJudgment:
    aspect: Aspect
    applicable: bool
    acted: bool
    correct: bool

    def __post_init__(self):
        if self.correct and not self.acted:
            raise ValueError("correct implies acted")


@dataclass(frozen=True)
class Counts:
    pos: int
    act: int
    corr: int
    ine: int = 0

    def __post_init__(self):
        if self.corr > self.act:
            raise ValueError("corr cannot exceed act")
        if self.ine > self.act:
            raise ValueError("ine cannot exceed act")


@dataclass(frozen=True)
class MetricsRow:
    prec: float
    rec: float
    f: float
    mrr: float | None = None


#: Every valid judgment, built once: ``_JUDGED[i][state]`` judges the i-th
#: aspect in Aspect order; state 0 is not applicable, any other state is
#: 1 + acted + correct.
_JUDGED = tuple(tuple(AspectJudgment(aspect, state > 0, state > 1, state > 2)
                      for state in range(4)) for aspect in Aspect)
#: Per question type, whether each aspect in Aspect order is judged.
_APPLICABLE = {qtype: tuple(aspect in aspects for aspect in Aspect)
               for qtype, aspects in APPLICABILITY.items()}


def metrics(c: Counts, ranks=None) -> MetricsRow:
    """Precision corr/act, recall corr/pos, balanced F, optional MRR."""
    if c.pos == 0:
        raise EmptyPopulation("no items to evaluate")
    prec = c.corr / c.act if c.act else 0.0
    rec = c.corr / c.pos
    f = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    mrr = None if ranks is None else (
        sum(1.0 / r for r in ranks if r) / len(ranks) if ranks else 0.0)
    return MetricsRow(prec=prec, rec=rec, f=f, mrr=mrr)


# ---------------------------------------------------------------------------
# Decomposition judging
# ---------------------------------------------------------------------------

def _words(text: str) -> list[str]:
    return text.replace("?", " ").replace("¿", " ").split()


def _keywords(tokens: list[str], pack: LanguagePack,
              canon: dict[str, str]) -> list[str]:
    """Non-stopword tokens, filler-free, verb forms normalized, sorted."""
    stopwords, fillers = pack.lexicon["stopword"], pack.lexicon["filler"]
    out = []
    for token in tokens:
        if token in stopwords or token in fillers:
            continue
        token = canon.get(token, token)
        if pack.is_verbish(token):
            token = pack.rewrite_verb(token)
        out.append(canon.get(token, token))
    return sorted(out)


def _subquestion_matches(system: str, gold: str, pack: LanguagePack,
                         canon: dict[str, str], skip: set[str]) -> bool:
    """The three splitter criteria: interrogative particle, main verb in
    the gold form, keyword multiset equality modulo stopwords."""
    system_tokens, gold_tokens = tokenize(system), tokenize(gold)
    if system_tokens[:1] != gold_tokens[:1]:
        return False
    gold_verb = next((token.casefold() for token in _words(gold)
                      if token.casefold() not in skip
                      and pack.is_verbish(token)), None)
    if gold_verb is not None and gold_verb not in pack.lexicon["filler"] \
            and gold_verb not in {t.casefold() for t in _words(system)}:
        return False
    return (_keywords(system_tokens, pack, canon)
            == _keywords(gold_tokens, pack, canon))


def _split_matches(pairs, pack: LanguagePack) -> bool:
    """Whether every (system, gold) sub-question pair matches.  A pair of
    identical strings passes all three criteria, so it is accepted without
    running them; the skip set is built only when some pair differs."""
    pairs = [(got, want) for got, want in pairs if got != want]
    if not pairs:
        return True
    canon = pack.lexicon["equivalent"]
    skip = {word for kind in ("wh", "aux", "clitic", "stopword")
            for word in pack.lexicon[kind]}
    return all(_subquestion_matches(got, want, pack, canon, skip)
               for got, want in pairs)


def judge_decomposition(system: DecomposedQuestion, gold: GoldQuestion,
                        pack: LanguagePack) -> list[AspectJudgment]:
    """Judge every aspect applicable for the gold question's type.  The
    judgments come in Aspect order, DECOMP last, picked from ``_JUDGED``."""
    te, qtype, signal, split, _ = _APPLICABLE[gold.qtype]
    states = [0, 0, 0, 0]
    if te:
        acted = bool(system.tes)
        states[0] = 1 + acted + (acted and sorted(
            (t.surface, t.value.canonical) for t in system.tes)
            == sorted((s, v.canonical) for s, v in gold.tes))
    if qtype:
        states[1] = 2 + (system.qtype == gold.qtype)
    if signal:
        acted = system.signal is not None
        states[2] = 1 + acted + (acted
                                 and system.signal.surface == gold.signal)
    if split:
        acted = None not in (system.q_focus, system.q_restriction)
        states[3] = 1 + acted + (acted and _split_matches(
            ((system.q_focus, gold.q_focus),
             (system.q_restriction, gold.q_rest)), pack))
    # DECOMP acted if every applicable aspect did, correct if every one was
    states.append(min(state for state in states if state))
    return [judged[state] for judged, state in zip(_JUDGED, states)]


# ---------------------------------------------------------------------------
# Answer judging
# ---------------------------------------------------------------------------

def _contains_tokens(haystack: list[str], needle: list[str]) -> bool:
    if not needle or len(needle) > len(haystack):
        return False
    return any(haystack[i:i + len(needle)] == needle
               for i in range(len(haystack) - len(needle) + 1))


def judge_answer(system_answers, gold: str) -> tuple[Verdict, int | None]:
    """Judge a ranked answer list: exact match is correct at its rank,
    token-bounded containment is inexact, otherwise wrong; an empty list
    means the system did not act."""
    answers = list(system_answers)
    if not answers:
        return Verdict.NOACT, None
    gold_norm = normalize_key(gold)
    for position, text in enumerate(answers, start=1):
        if normalize_key(text) == gold_norm:
            return Verdict.CORR, position
    gold_tokens = tokenize(gold)
    for text in answers:
        if _contains_tokens(tokenize(text), gold_tokens):
            return Verdict.INE, None
    return Verdict.WRONG, None


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuestionResult:
    qid: int
    qtype: int
    judgments: tuple[AspectJudgment, ...]
    verdict: Verdict | None = None
    rank: int | None = None
    answers: tuple[str, ...] = ()

    def judgment(self, aspect: Aspect) -> AspectJudgment:
        return next(j for j in self.judgments if j.aspect is aspect)


@dataclass(frozen=True)
class EvalRow:
    label: str
    counts: Counts
    metrics: MetricsRow


@dataclass(frozen=True)
class EvalReport:
    language: str
    ref: str
    gold_te_injection: bool
    aspect_rows: tuple[EvalRow, ...]
    type_rows: tuple[EvalRow, ...]
    qa_rows: tuple[EvalRow, ...]
    results: tuple[QuestionResult, ...]
    extension_matches: int = 0


def gold_tags(gold: GoldQuestion, question: str) -> list[TemporalExpressionTag]:
    """Materialize gold TE annotations as tagger output for injection, in
    question order.  Each surface is placed at its first case-insensitive
    occurrence that overlaps none placed before it; a surface with no such
    occurrence raises SchemaViolation."""
    tags = []
    for surface, value in gold.tes:
        # searched in the question itself, not in its casefold, whose
        # length may differ ("ß" -> "ss")
        pattern = re.compile(re.escape(surface), re.IGNORECASE)
        m = pattern.search(question)
        while m is not None and any(m.start() < t.end and t.begin < m.end()
                                    for t in tags):
            m = pattern.search(question, m.start() + 1)
        if m is None:
            raise SchemaViolation(f"Q{gold.id}: TE {surface!r} does not "
                                  "occur in the question apart from the "
                                  "other TEs")
        tags.append(TemporalExpressionTag(
            surface=m.group(), begin=m.start(), end=m.end(), value=value))
    return sorted(tags, key=lambda tag: tag.begin)


_ASPECT_LABELS = tuple(aspect.value for aspect in Aspect)
_GROUPS = ("Type 1", "Type 2", "Type 3", "Type 4", "GLOBAL")


def _count_rows(results) -> tuple[tuple[EvalRow, ...], ...]:
    """The aspect, type and QA rows from one pass over the results.  A
    judgment's position gives its aspect and its state (applicable + acted
    + correct) its column; a question counts in its type's group and in
    GLOBAL, and in QA only when answered.  Rows keep the tables' order and
    are built only for a non-empty population."""
    aspects = [[0] * 4 for _ in _ASPECT_LABELS]
    types = [[0] * 4 for _ in _GROUPS]
    verdicts = [[] for _ in _GROUPS]
    ranks = [[] for _ in _GROUPS]
    for result in results:
        for tally, j in zip(aspects, result.judgments):
            tally[j.applicable + j.acted + j.correct] += 1
        decomp = result.judgments[-1]
        for group in (result.qtype - 1, -1):
            types[group][1 + decomp.acted + decomp.correct] += 1
            if result.verdict is not None:
                verdicts[group].append(result.verdict)
                ranks[group].append(result.rank)
    judged = [(n[1] + n[2] + n[3], n[2] + n[3], n[3])
              for n in aspects + types]
    answered = [(len(v), len(v) - v.count(Verdict.NOACT),
                 v.count(Verdict.CORR), v.count(Verdict.INE))
                for v in verdicts]

    def rows(labels, tallies, rank_lists=(None,) * 5):
        kept = [(label, Counts(*tally), r) for label, tally, r
                in zip(labels, tallies, rank_lists) if tally[0]]
        return tuple(EvalRow(label, c, metrics(c, ranks=r))
                     for label, c, r in kept)
    return (rows(_ASPECT_LABELS, judged[:5]), rows(_GROUPS, judged[5:]),
            rows(_GROUPS, answered, ranks))


def run_evaluation(testbed: Testbed, pack: LanguagePack,
                   store: FixtureStore | None = None,
                   gold_te_injection: bool = False) -> EvalReport:
    """Decompose (and answer, when fixtures are given) every gold question
    and aggregate counts per aspect and per question type.  A testbed or
    store in another language than the pack's raises SchemaViolation."""
    check_language("testbed", testbed.language, pack)
    if store is not None:
        check_language("fixture", store.language, pack)
    if not testbed.questions:
        raise EmptyPopulation("empty testbed")
    extension_rules = pack.compiled.extension_rules
    extension_matches = 0
    results = []
    for gold in testbed.questions:
        tes = gold_tags(gold, gold.question) if gold_te_injection else None
        analysis = decompose(gold.question, pack, testbed.ref, tes=tes)
        extension_matches += sum(t.rule in extension_rules
                                 for t in analysis.tes)
        judgments = tuple(judge_decomposition(analysis, gold, pack))
        verdict = rank = None
        answers = ()
        if store is not None and gold.answer is not None:
            outcome = answer_decomposed(analysis, pack.code, store)
            answers = tuple(a.text for a in outcome.answers)
            verdict, rank = judge_answer(answers, gold.answer)
        results.append(QuestionResult(
            qid=gold.id, qtype=gold.qtype, judgments=judgments,
            verdict=verdict, rank=rank, answers=answers))

    aspect_rows, type_rows, qa_rows = _count_rows(results)
    return EvalReport(
        language=testbed.language, ref=testbed.ref.isoformat(),
        gold_te_injection=gold_te_injection,
        aspect_rows=aspect_rows, type_rows=type_rows, qa_rows=qa_rows,
        results=tuple(results), extension_matches=extension_matches)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _tables(report: EvalReport):
    """Each non-empty table as (XML element, text heading, rows)."""
    tables = (
        ("DECOMPOSITION", "Decomposition unit, by aspect", report.aspect_rows),
        ("BYTYPE", "Decomposition unit, by question type", report.type_rows),
        ("QA", "Question answering, by question type", report.qa_rows))
    return [table for table in tables if table[2]]


def _figures(row: EvalRow) -> dict[str, str]:
    """A row's counts and percentages, keyed by XML attribute name."""
    c, m = row.counts, row.metrics
    figures = {"pos": str(c.pos), "act": str(c.act), "corr": str(c.corr),
               "prec": f"{100 * m.prec:.2f}", "rec": f"{100 * m.rec:.2f}",
               "f": f"{100 * m.f:.2f}"}
    if m.mrr is not None:  # a question answering row
        figures["ine"] = str(c.ine)
        figures["mrr"] = f"{100 * m.mrr:.2f}"
    return figures


#: Text columns in order; the percentages print with a trailing "%".
_TEXT_COLUMNS = ("pos", "act", "corr", "ine", "prec", "rec", "f", "mrr")
_PERCENT = frozenset({"prec", "rec", "f", "mrr"})


def _render_rows(rows) -> list[str]:
    figures = [_figures(row) for row in rows]
    columns = [c for c in _TEXT_COLUMNS if c in figures[0]]
    table = [[""] + [c.upper() for c in columns]] + [
        [row.label] + [f[c] + "%" * (c in _PERCENT) for c in columns]
        for row, f in zip(rows, figures)]
    widths = [max(len(line[i]) for line in table)
              for i in range(len(table[0]))]
    return ["  ".join(cell.ljust(widths[i]) if i == 0
                      else cell.rjust(widths[i])
                      for i, cell in enumerate(line)).rstrip()
            for line in table]


def render_text(report: EvalReport) -> str:
    title = f"Evaluation ({report.language}, ref {report.ref}"
    if report.gold_te_injection:
        title += ", gold temporal expressions injected"
    title += ")"
    lines = [title]
    for _, heading, rows in _tables(report):
        lines += ["", heading] + _render_rows(rows)
    if report.extension_matches:
        lines += ["", f"note: {report.extension_matches} expression(s) "
                      "matched by capability-extension rules (word-spelled "
                      "years), beyond the base rule inventory"]
    return "\n".join(lines) + "\n"


def render_xml(report: EvalReport) -> bytes:
    root = ET.Element("REPORT", lang=report.language, ref=report.ref,
                      goldte="1" if report.gold_te_injection else "0",
                      extensions=str(report.extension_matches))
    for name, _, rows in _tables(report):
        section = ET.SubElement(root, name)
        for row in rows:
            ET.SubElement(section, "ROW",
                          {"label": row.label, **_figures(row)})
    return write_xml(root)
