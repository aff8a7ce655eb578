"""Evaluation harness: aspect judging, answer judging, count metrics.

Decomposition output is judged per aspect (expressions, type, signal,
splitting, and the unit as a whole) against gold annotations under
type-dependent applicability; answers are judged correct/inexact/wrong.
Aggregated counts produce precision, recall, F and mean reciprocal rank.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from xml.etree import ElementTree as ET

from .backend import FixtureStore, answer_decomposed
from .corpus import GoldQuestion, Testbed
from .decomposition import DecomposedQuestion, decompose
from .errors import EmptyPopulation
from .packs import LanguagePack
from .tagger import TemporalExpressionTag
from .textnorm import normalize_key, tokenize
from .time_model import parse_value


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


def metrics(c: Counts, ranks=None) -> MetricsRow:
    """Precision corr/act, recall corr/pos, balanced F, optional MRR."""
    if c.pos == 0:
        raise EmptyPopulation("no items to evaluate")
    prec = c.corr / c.act if c.act else 0.0
    rec = c.corr / c.pos
    f = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    mrr = None
    if ranks is not None:
        mrr = sum(1.0 / r for r in ranks if r) / len(ranks) if ranks else 0.0
    return MetricsRow(prec=prec, rec=rec, f=f, mrr=mrr)


# ---------------------------------------------------------------------------
# Decomposition judging
# ---------------------------------------------------------------------------

def _canonical_value(text: str) -> str:
    return parse_value(text).canonical


def _te_pairs(tags) -> list[tuple[str, str]]:
    return sorted((t.surface, t.value.canonical) for t in tags)


def _gold_te_pairs(gold: GoldQuestion) -> list[tuple[str, str]]:
    return sorted((surface, _canonical_value(value))
                  for surface, value in gold.tes)


def _equivalence_map(pack: LanguagePack) -> dict[str, str]:
    canon = {}
    for a, b in pack.equivalences:
        canon[a] = a
        canon[b] = a
    return canon


def _keywords(tokens: list[str], pack: LanguagePack) -> list[str]:
    """Non-stopword tokens, filler-free, verb forms normalized, sorted."""
    canon = _equivalence_map(pack)
    out = []
    for token in tokens:
        if token in pack.stopwords or token in pack.fillers:
            continue
        token = canon.get(token, token)
        if pack.is_verbish(token):
            token = pack.rewrite_verb(token)
        out.append(canon.get(token, token))
    return sorted(out)


def _main_verb(text: str, pack: LanguagePack) -> str | None:
    skip = {w.casefold() for w in pack.wh_words} \
        | {w.casefold() for w in pack.aux_words} \
        | set(pack.clitics) | pack.stopwords
    for token in text.replace("?", " ").replace("¿", " ").split():
        if token.casefold() in skip:
            continue
        if pack.is_verbish(token):
            return token.casefold()
    return None


def _subquestion_matches(system: str, gold: str, pack: LanguagePack) -> bool:
    """The three splitter criteria: interrogative particle, main verb in
    the gold form, keyword multiset equality modulo stopwords."""
    system_tokens, gold_tokens = tokenize(system), tokenize(gold)
    if system_tokens[:1] != gold_tokens[:1]:
        return False
    gold_verb = _main_verb(gold, pack)
    if gold_verb is not None and gold_verb not in pack.fillers:
        if gold_verb not in {t.casefold() for t in
                             system.replace("?", " ").replace("¿", " ").split()}:
            return False
    return _keywords(system_tokens, pack) == _keywords(gold_tokens, pack)


def judge_decomposition(system: DecomposedQuestion, gold: GoldQuestion,
                        pack: LanguagePack) -> list[AspectJudgment]:
    """Judge every aspect applicable for the gold question's type."""
    applicable = APPLICABILITY[gold.qtype]
    tes, signal, qtype = system.tes, system.signal, system.qtype
    q_focus, q_restriction = system.q_focus, system.q_restriction

    judgments = []
    decomp_acted, decomp_correct = True, True
    for aspect in (Aspect.TE, Aspect.TYPE, Aspect.SIGNAL, Aspect.SPLIT):
        if aspect not in applicable:
            judgments.append(AspectJudgment(aspect, False, False, False))
            continue
        if aspect is Aspect.TE:
            acted = bool(tes)
            correct = acted and _te_pairs(tes) == _gold_te_pairs(gold)
        elif aspect is Aspect.TYPE:
            acted = True
            correct = qtype == gold.qtype
        elif aspect is Aspect.SIGNAL:
            acted = signal is not None
            correct = acted and signal.surface == gold.signal
        else:
            acted = q_focus is not None and q_restriction is not None
            correct = acted \
                and _subquestion_matches(q_focus, gold.q_focus, pack) \
                and _subquestion_matches(q_restriction, gold.q_rest, pack)
        judgments.append(AspectJudgment(aspect, True, acted, correct))
        decomp_acted = decomp_acted and acted
        decomp_correct = decomp_correct and correct
    judgments.append(AspectJudgment(Aspect.DECOMP, True, decomp_acted,
                                    decomp_correct and decomp_acted))
    return judgments


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
    gold_tokens = tokenize(gold)
    for position, text in enumerate(answers, start=1):
        if normalize_key(text) == gold_norm:
            return Verdict.CORR, position
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
    """Materialize gold TE annotations as tagger output for injection."""
    tags, cursor = [], 0
    for surface, value_text in gold.tes:
        begin = question.find(surface, cursor)
        if begin < 0:
            begin = question.casefold().find(surface.casefold(), cursor)
        if begin < 0:
            continue
        tags.append(TemporalExpressionTag(
            surface=question[begin:begin + len(surface)], begin=begin,
            end=begin + len(surface), value=parse_value(value_text)))
        cursor = begin + len(surface)
    return tags


def _aspect_counts(results, aspect: Aspect, qtype=None) -> Counts:
    pos = act = corr = 0
    for result in results:
        if qtype is not None and result.qtype != qtype:
            continue
        judgment = result.judgment(aspect)
        if not judgment.applicable:
            continue
        pos += 1
        act += judgment.acted
        corr += judgment.correct
    return Counts(pos=pos, act=act, corr=corr)


def _qa_row(results, label, qtype=None) -> EvalRow | None:
    rows = [r for r in results
            if r.verdict is not None and (qtype is None or r.qtype == qtype)]
    if not rows:
        return None
    counts = Counts(
        pos=len(rows),
        act=sum(r.verdict is not Verdict.NOACT for r in rows),
        corr=sum(r.verdict is Verdict.CORR for r in rows),
        ine=sum(r.verdict is Verdict.INE for r in rows))
    ranks = [r.rank for r in rows]
    return EvalRow(label, counts, metrics(counts, ranks=ranks))


def run_evaluation(testbed: Testbed, pack: LanguagePack,
                   store: FixtureStore | None = None,
                   gold_te_injection: bool = False) -> EvalReport:
    """Decompose (and answer, when fixtures are given) every gold question
    and aggregate counts per aspect and per question type."""
    if not testbed.questions:
        raise EmptyPopulation("empty testbed")
    extension_rules = {rule.name for rule in pack.te_rules
                       if rule.arg("extension")}
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

    aspect_rows = []
    for aspect in Aspect:
        counts = _aspect_counts(results, aspect)
        if counts.pos:
            aspect_rows.append(EvalRow(aspect.value, counts, metrics(counts)))

    type_rows = []
    for qtype in (1, 2, 3, 4):
        counts = _aspect_counts(results, Aspect.DECOMP, qtype=qtype)
        if counts.pos:
            type_rows.append(EvalRow(f"Type {qtype}", counts, metrics(counts)))
    global_counts = _aspect_counts(results, Aspect.DECOMP)
    type_rows.append(EvalRow("GLOBAL", global_counts, metrics(global_counts)))

    qa_rows = []
    if store is not None:
        for qtype in (1, 2, 3, 4):
            row = _qa_row(results, f"Type {qtype}", qtype=qtype)
            if row:
                qa_rows.append(row)
        global_row = _qa_row(results, "GLOBAL")
        if global_row:
            qa_rows.append(global_row)

    return EvalReport(
        language=testbed.language, ref=testbed.ref.isoformat(),
        gold_te_injection=gold_te_injection,
        aspect_rows=tuple(aspect_rows), type_rows=tuple(type_rows),
        qa_rows=tuple(qa_rows), results=tuple(results),
        extension_matches=extension_matches)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _pct(x: float) -> str:
    return f"{100 * x:.2f}%"


def _render_rows(rows, with_qa: bool) -> list[str]:
    header = ["", "POS", "ACT", "CORR"]
    if with_qa:
        header.append("INE")
    header += ["PREC", "REC", "F"]
    if with_qa:
        header.append("MRR")
    table = [header]
    for row in rows:
        cells = [row.label, str(row.counts.pos), str(row.counts.act),
                 str(row.counts.corr)]
        if with_qa:
            cells.append(str(row.counts.ine))
        cells += [_pct(row.metrics.prec), _pct(row.metrics.rec),
                  _pct(row.metrics.f)]
        if with_qa:
            cells.append(_pct(row.metrics.mrr) if row.metrics.mrr is not None
                         else "-")
        table.append(cells)
    widths = [max(len(line[i]) for line in table)
              for i in range(len(header))]
    out = []
    for line in table:
        out.append("  ".join(cell.ljust(widths[i]) if i == 0
                             else cell.rjust(widths[i])
                             for i, cell in enumerate(line)).rstrip())
    return out


def render_text(report: EvalReport) -> str:
    title = f"Evaluation ({report.language}, ref {report.ref}"
    if report.gold_te_injection:
        title += ", gold temporal expressions injected"
    title += ")"
    lines = [title, "", "Decomposition unit, by aspect"]
    lines += _render_rows(report.aspect_rows, with_qa=False)
    lines += ["", "Decomposition unit, by question type"]
    lines += _render_rows(report.type_rows, with_qa=False)
    if report.qa_rows:
        lines += ["", "Question answering, by question type"]
        lines += _render_rows(report.qa_rows, with_qa=True)
    if report.extension_matches:
        lines += ["", f"note: {report.extension_matches} expression(s) "
                      "matched by capability-extension rules (word-spelled "
                      "years), beyond the base rule inventory"]
    return "\n".join(lines) + "\n"


def render_xml(report: EvalReport) -> bytes:
    root = ET.Element("REPORT", lang=report.language, ref=report.ref,
                      goldte="1" if report.gold_te_injection else "0",
                      extensions=str(report.extension_matches))
    sections = [("DECOMPOSITION", report.aspect_rows, False),
                ("BYTYPE", report.type_rows, False)]
    if report.qa_rows:
        sections.append(("QA", report.qa_rows, True))
    for name, rows, with_qa in sections:
        section = ET.SubElement(root, name)
        for row in rows:
            attrs = {
                "label": row.label, "pos": str(row.counts.pos),
                "act": str(row.counts.act), "corr": str(row.counts.corr),
                "prec": f"{100 * row.metrics.prec:.2f}",
                "rec": f"{100 * row.metrics.rec:.2f}",
                "f": f"{100 * row.metrics.f:.2f}",
            }
            if with_qa:
                attrs["ine"] = str(row.counts.ine)
                if row.metrics.mrr is not None:
                    attrs["mrr"] = f"{100 * row.metrics.mrr:.2f}"
            ET.SubElement(section, "ROW", attrs)
    tree = ET.ElementTree(root)
    ET.indent(tree, space="  ")
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)
