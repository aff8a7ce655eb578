"""Generated questions: the pipeline raises nothing on arbitrary input but
the documented ValueError for a blank question, and is deterministic.
Generated packs: a shipped pack with lexicon values and rule ARGs
rewritten is either rejected with PackInvalid before it tags anything,
or runs every generated question without raising.
One scan: ``tag`` and ``detect_signal``, which scan a question once for
all rules and once for all signals, equal the same functions written with
one ``finditer`` per rule and per signal, each op gets the groups its
rule's own regex gives, and each pattern's guard admits the first
character of each of its matches."""

from __future__ import annotations

import dataclasses
import re
from datetime import date
from xml.etree import ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tqa.backend import answer_complex_question, shipped_fixtures
from tqa.corpus import shipped_testbed
from tqa.decomposition import (SignalMatch, _first_word_start,
                               _gap_is_determiners, decompose, detect_signal)
from tqa.errors import MalformedValue, OutOfCalendar, PackInvalid
from tqa.packs import DATA_DIR, TagRule, _compile, get_pack, load_pack
from tqa.tagger import TemporalExpressionTag, tag

LANGS = ("en", "es")


#: Prepositions that open a temporal expression or a place ("in 1990", "en
#: Arkansas") but split no question; generated questions keep them.
MARKERS = {"en": ("about", "from", "in", "on", "to"),
           "es": ("alrededor", "desde", "en", "hasta")}

#: The interrogative that opens each question built around a rule's text.
WH = {"en": "who", "es": "quién"}


def pack_words(pack) -> list[str]:
    """Signal, wh-, number and month words of a pack (plus its ordinal,
    decade and unit words and the ``MARKERS``), the vocabulary the tagger
    and splitter key on."""
    signal_words = {word for entry in pack.signals
                    for word in re.findall(r"[^\W\d_]{2,}",
                                           pack.expand(entry.pattern))}
    lexicon_words = {word for kind in ("number", "month", "ordinal",
                                       "decade", "unit")
                     for word in pack.lexicon[kind]}
    return sorted(signal_words | set(MARKERS[pack.code])
                  | set(pack.lexicon["wh"]) | lexicon_words)


PACKS = {lang: get_pack(lang) for lang in LANGS}
STORES = {lang: shipped_fixtures(lang) for lang in LANGS}
WORDS = {lang: pack_words(PACKS[lang]) for lang in LANGS}

refs = st.dates(min_value=date(1, 1, 1), max_value=date(9999, 12, 31))


@st.composite
def texts(draw, lang):
    token = st.one_of(
        st.sampled_from(WORDS[lang]),
        st.sampled_from(WORDS[lang]).map(str.capitalize),
        st.integers(0, 99999).map(str),
        st.text(max_size=6),
    )
    words = draw(st.lists(token, max_size=12))
    return " ".join(words) + draw(st.sampled_from(("", "?", " ?")))


@st.composite
def questions(draw):
    lang = draw(st.sampled_from(LANGS))
    return lang, draw(texts(lang))


def run_all(pack, question, ref):
    tags = tag(question, pack, ref)
    try:
        analysis = decompose(question, pack, ref)
        answer = answer_complex_question(question, pack, ref,
                                         STORES[pack.code])
    except ValueError as exc:
        assert not question.strip()
        assert str(exc) == "question is empty"
        analysis = answer = None
    return tags, analysis, answer


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(questions(), refs)
def test_pipeline_raises_only_on_blank_and_is_deterministic(lq, ref):
    lang, question = lq
    pack = PACKS[lang]
    assert run_all(pack, question, ref) == run_all(pack, question, ref)


def rule_texts(pack):
    """For each rule of the pack, questions holding a text the rule's
    pattern matches, so that its op runs."""
    return {rule.name: st.from_regex(re.compile(pack.expand(rule.pattern),
                                                re.IGNORECASE),
                                     fullmatch=True).map(
                lambda text: f"{WH[pack.code]} won {text}?")
            for rule in pack.te_rules}


RULE_TEXTS = {lang: rule_texts(PACKS[lang]) for lang in LANGS}
RULE_WORDS = {lang: {rule.name: set(re.findall(
    r"[^\W\d_]+", PACKS[lang].expand(rule.pattern)))
    for rule in PACKS[lang].te_rules} for lang in LANGS}


def test_rule_words_reach_the_lexicon_words_of_a_placeholder():
    # the mutation test finds the rules a mutated kind's words reach
    assert {"two", "years"} <= RULE_WORDS["en"]["relative-ago"]
    assert {"dos", "años"} <= RULE_WORDS["es"]["hace-relative"]


_INTEGERS = st.one_of(st.integers(-20, 20), st.integers(-10**6, 10**6))
_NON_WORDS = st.sampled_from(("", "week", "cinco", "pasado", "-0", "1e3",
                              "٣", " 5 "))

#: What the mutation test rewrites: the value of every lexicon entry of
#: one of these kinds, or the text of every rule ARG with one of these
#: keys, each drawn from wide integers, in-domain values and non-words.
MUTATIONS = {
    "number": _INTEGERS.map(str) | _NON_WORDS,
    "ordinal": _INTEGERS.map(str) | _NON_WORDS,
    "decade": st.integers(-100, 1100).map(lambda n: str(10 * n))
    | _INTEGERS.map(str) | _NON_WORDS,
    "month": st.integers(-2, 14).map(str) | _NON_WORDS,
    "unit": st.sampled_from(("day", "month", "year", "decade", "century",
                             "week", "Year", "years")) | _NON_WORDS,
    "years": _INTEGERS.map(str) | _NON_WORDS,
    "direction": st.sampled_from(("past", "future", "Past", "pasado")),
}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_pack_is_invalid_or_raises_nothing(data):
    lang = data.draw(st.sampled_from(LANGS))
    root = ET.fromstring((DATA_DIR / f"{lang}.xml").read_bytes())
    kinds = data.draw(st.sets(st.sampled_from(sorted(MUTATIONS)),
                              min_size=1, max_size=2))
    rules = set()
    for kind in sorted(kinds):
        # one value for all of a kind's entries, and the rules whose
        # pattern holds one of their words or that carry the ARG
        value = data.draw(MUTATIONS[kind], label=kind)
        words = set()
        for el in root.iter("ENTRY"):
            if el.get("kind") == kind:
                el.set("value", value)
                words.add(el.get("key"))
        rules |= {name for name, pattern_words in RULE_WORDS[lang].items()
                  if pattern_words & words}
        for rule in root.iter("RULE"):
            for el in rule.iter("ARG"):
                if el.get("key") == kind:
                    el.text = value
                    rules.add(rule.get("name"))
    focused = st.one_of([RULE_TEXTS[lang][name] for name in sorted(rules)]
                        or list(RULE_TEXTS[lang].values()))
    cases = data.draw(st.lists(st.tuples(focused | texts(lang), refs),
                               min_size=1, max_size=4))
    try:
        pack = load_pack(ET.tostring(root, encoding="utf-8"))
        tag(cases[0][0], pack, cases[0][1])  # binds every rule
    except PackInvalid:
        return  # rejected before it tagged anything
    for question, ref in cases:
        run_all(pack, question, ref)


@pytest.mark.parametrize("lang", LANGS)
@pytest.mark.parametrize("question", ["", "   ", "\t\n"])
def test_blank_question_raises_value_error(lang, question):
    pack = PACKS[lang]
    assert tag(question, pack, date(2008, 1, 1)) == []
    with pytest.raises(ValueError, match="question is empty"):
        decompose(question, pack, date(2008, 1, 1))


# -- one scan equals a finditer per pattern ----------------------------------

def bounded(pattern):
    """A pattern's own regex, bounded by word edges as the scanner bounds
    it."""
    return re.compile(rf"(?<!\w)(?:{pattern})(?!\w)", re.IGNORECASE)


def rule_regexes(pack):
    return [bounded(pack.expand(rule.pattern)) for rule in pack.te_rules]


def signal_regexes(pack):
    return [bounded(pack.expand(entry.pattern)) for entry in pack.signals]


def finditer_tag(question, pack, ref):
    """``tag`` with each rule's own regex run over the question by
    ``finditer``."""
    candidates = []
    for index, (regex, (op, arg), rule) in enumerate(zip(
            rule_regexes(pack), pack.compiled.rules, pack.te_rules)):
        for m in regex.finditer(question):
            try:
                value = op(m.groupdict(), arg, pack, ref)
            except (MalformedValue, OutOfCalendar):
                continue
            if value is not None:
                candidates.append((m.start(), m.start() - m.end(), index,
                                   m.end(), value, rule.name))
    candidates.sort(key=lambda c: c[:3])
    tags, cursor = [], 0
    for start, _, _, end, value, name in candidates:
        if start >= cursor:
            tags.append(TemporalExpressionTag(question[start:end], start, end,
                                              value, name))
            cursor = end
    return tags


def finditer_signal(question, tes, pack):
    """``detect_signal`` with each signal's own regex run over the question
    by ``finditer``."""
    first_word = _first_word_start(question)
    candidates = []
    for order, regex in enumerate(signal_regexes(pack)):
        for m in regex.finditer(question):
            if m.start() == first_word:
                continue
            if any(t.begin <= m.start() and m.end() <= t.end for t in tes):
                continue
            following = [t for t in tes if t.begin >= m.end()]
            if following:
                nearest = min(following, key=lambda t: t.begin)
                if _gap_is_determiners(question[m.end():nearest.begin], pack):
                    continue
            candidates.append((m.start(), -m.end(), order))
    if not candidates:
        return None
    start, neg_end, order = min(candidates)
    entry = pack.signals[order]
    modifier = pack.compiled.modifier.search(question, 0, start)
    begin = modifier.start("mod") if modifier else start
    return SignalMatch(question[begin:-neg_end], begin, -neg_end, entry.base,
                       entry.relation, modifier and modifier.group("mod"))


def assert_ops_get_their_rules_groups(pack, question, ref):
    """Each op ``tag`` runs, in scan order, gets the named groups that its
    rule's own regex gives at the hit's start."""
    compiled, given = pack.compiled, []
    spy = dataclasses.replace(pack)  # each op only records what it gets
    vars(spy)["compiled"] = compiled._replace(rules=tuple(
        (lambda got, *_, index=index: given.append((index, got)), arg)
        for index, (_, arg) in enumerate(compiled.rules)))
    tag(question, spy, ref)
    regexes = rule_regexes(pack)
    assert given == [(index, regexes[index].match(question, start).groupdict())
                     for start, _, index, _ in
                     compiled.rule_scanner.matches(question)]


def assert_one_scan_equals_finditer(pack, question, ref):
    compiled = pack.compiled
    for scanner, regexes in ((compiled.rule_scanner, rule_regexes(pack)),
                             (compiled.signal_scanner, signal_regexes(pack))):
        matches = [(m.start(), m.end(), index)
                   for index, regex in enumerate(regexes)
                   for m in regex.finditer(question)]
        assert [hit[:3] for hit in scanner.matches(question)] == sorted(
            matches, key=lambda m: (m[0], m[2]))
    assert_ops_get_their_rules_groups(pack, question, ref)
    tes = tag(question, pack, ref)
    assert tes == finditer_tag(question, pack, ref)
    assert detect_signal(question, tes, pack) == \
        finditer_signal(question, tes, pack)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(questions(), refs)
def test_one_scan_equals_finditer_per_pattern(lq, ref):
    lang, question = lq
    assert_one_scan_equals_finditer(PACKS[lang], question, ref)


@pytest.mark.parametrize("lang", LANGS)
def test_one_scan_equals_finditer_per_pattern_on_the_testbed(lang):
    testbed = shipped_testbed(lang)
    for q in testbed.questions:
        assert_one_scan_equals_finditer(PACKS[lang], q.question, testbed.ref)


#: The English pack with a first rule that refers to its groups by name: a
#: year in a pair of like quotes, or bare.
QUOTED = dataclasses.replace(PACKS["en"], te_rules=(TagRule(
    "quoted-year", "year", r"""(?P<q>["'])?(?P<y>[12]\d{3})(?(q)(?P=q))"""),
    *PACKS["en"].te_rules))
QUOTED_YEARS = ("'1990'", '"1991"', "'1992\"", "\"1993'", "1994", "'95")


def test_rule_refers_to_its_groups_by_name_in_the_scanner():
    tags = tag("""Who won in '1990', "1991" or '1992"?""", QUOTED,
               date(2008, 1, 1))
    assert [(t.surface, t.rule, t.value.canonical) for t in tags] == [
        ("'1990'", "quoted-year", "1990"), ('"1991"', "quoted-year", "1991"),
        ("1992", "quoted-year", "1992")]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(texts("en") | st.sampled_from(QUOTED_YEARS), max_size=4)
       .map(" ".join), refs)
def test_one_scan_equals_finditer_with_named_references(question, ref):
    assert_one_scan_equals_finditer(QUOTED, question, ref)


#: The English pack with a first rule whose optional group sets ``part``
#: on a branch that then fails, so its match holds no ``part``.
FAILED_PART = dataclasses.replace(PACKS["en"], te_rules=(TagRule(
    "failed-part", "decade",
    r"(?:(?P<part>early)\s+x)?(?:early\s+)?(?P<d>\d{4})s"),
    *PACKS["en"].te_rules))


def test_no_group_leaks_from_a_failed_branch():
    question, ref = "Who won in early 1990s?", date(2008, 1, 1)
    assert_one_scan_equals_finditer(FAILED_PART, question, ref)
    # "early" read as set would give the years 1990-1994
    assert [(t.surface, t.rule, t.value.canonical)
            for t in tag(question, FAILED_PART, ref)] == [
        ("early 1990s", "failed-part", "199")]


# -- a guard admits every match --------------------------------------------

#: Characters that fold to an ASCII letter under ``re.IGNORECASE`` (long s,
#: Kelvin sign, dotless and dotted i), Unicode digits (Arabic-Indic three,
#: Devanagari five) and a no-break space, each by the ASCII characters it
#: may stand for.
ODD = {"s": "\u017f", "S": "\u017f", "k": "\u212a", "K": "\u212a",
       "i": "\u0131", "I": "\u0130", "3": "\u0663", "5": "\u096b",
       " ": "\xa0"}


@st.composite
def odd_texts(draw, lang):
    """A generated question or rule text with some of its characters
    swapped for the ``ODD`` ones they may stand for, then ``ODD`` text."""
    text = draw(texts(lang) | st.one_of(list(RULE_TEXTS[lang].values())))
    swaps = draw(st.lists(st.booleans(), min_size=len(text),
                          max_size=len(text)))
    odd = draw(st.text("".join(ODD.values()) + "s k3"))
    return "".join(ODD.get(ch, ch) if swap else ch
                   for ch, swap in zip(text, swaps)) + " " + odd


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_guard_admits_the_first_character_of_every_match(data):
    lang = data.draw(st.sampled_from(LANGS))
    text = data.draw(odd_texts(lang))
    compiled = PACKS[lang].compiled
    for scanner, regexes in (
            (compiled.rule_scanner, rule_regexes(PACKS[lang])),
            (compiled.signal_scanner, signal_regexes(PACKS[lang]))):
        for guard, regex in zip(scanner.guards, regexes):
            admits = _compile(guard, "guard")
            # the text as drawn, and with every character swapped
            for variant in (text, text.translate(str.maketrans(ODD))):
                assert all(admits.match(variant, m.start())
                           for m in regex.finditer(variant)), guard


@pytest.mark.parametrize("lang", LANGS)
def test_every_shipped_pattern_has_a_guard(lang):
    # a change to re's private parser that drops the guards fails here
    compiled = PACKS[lang].compiled
    for scanner in (compiled.rule_scanner, compiled.signal_scanner):
        assert "" not in scanner.guards
