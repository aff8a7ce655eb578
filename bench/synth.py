"""Seeded synthetic corpus for the benchmark.

Questions are built from templates drawn from the English and Spanish
testbed Q blocks.  Each template varies entity names, years, decades,
centuries, relative expressions ("N years ago", resolved against the corpus
reference date) and the signal, and carries its gold annotations through
every substitution: TE surface and value, type, signal, Q-FOCUS, Q-REST and
ANSWER.  Gold sub-questions are written in the form the layer's splitter
yields, so the backend, keyed by them, hits only when the split is right.

The backend data and every question's expected answer list are made here
from the dates the generator assigns, read on intervals by ``reference``.
``tqa`` receives only the files this module writes.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from xml.etree import ElementTree as ET

from reference import expected_answers, holds, interval, unsettled

#: Reference date of every generated file; relative expressions resolve
#: against it, as in the shipped testbeds.
REF = date(2008, 1, 1)

#: Questions of type 1, 2, 3 and 4 in the shipped testbeds (36 English,
#: 26 Spanish); the generated corpus keeps this language split and mix.
TESTBED_MIX = {"en": (2, 11, 18, 5), "es": (5, 7, 13, 1)}

#: Generated questions per corpus, before the fault slice is added.
CORPUS_SIZE = 400
TINY_SIZE = 24

#: Candidates per focus sub-question for each width.
WIDTHS = {"narrow": (1, 5), "wide": (100, 300)}

#: Forms of a candidate's value, weighted as the dated answers of the
#: shipped fixtures (src/tqa/data/fixtures_*.xml) are: 21 years and 3
#: periods, which last 2-4 years.  Those fixtures have no undated answer.
VALUE_FORMS = ("year", "period")
VALUE_WEIGHTS = (21, 3)
PERIOD_YEARS = (2, 4)

FIRST = ("Marta Harald Nora Elias Ines Tomas Greta Oskar Lena Pavel Ada Bruno "
         "Clara Dmitri Edith Felix Hanna Igor Jonas Karin Lucas Mirela Nils "
         "Olga Rafael Selma Teodor Ulla Viktor Wanda").split()
LAST = ("Lindqvist Berg Quill Moreau Castell Novak Brandt Okafor Tanaka Rossi "
        "Varga Holm Keller Duarte Sato Nilsen Ferreira Kowalski Ibsen Marlowe "
        "Dorsey Falk Grimaldi Haugen Jansen Kuric Lorca Mendel Petrak "
        "Sorel").split()
PLACES = ("Norland Estavia Valdoria Kestria Orlanda Marovia Belmira Dunmore "
          "Carvania Lisandra Tarvos Helvik Sorrena Brastov Quessa Vantor "
          "Ilmara Zerbia Montrel Gaskony").split()
DEVICES = ("gramophone telegraph phonograph typewriter camera turbine dynamo "
           "barometer").split()

NUMBER_EN = ("", "one", "two", "three", "four", "five", "six", "seven",
             "eight", "nine")
NUMBER_ES = ("", "uno", "dos", "tres", "cuatro", "cinco", "seis", "siete",
             "ocho", "nueve")
DECADE_EN = {192: "twenties", 193: "thirties", 194: "forties", 195: "fifties",
             196: "sixties", 197: "seventies", 198: "eighties",
             199: "nineties"}
ROMAN = {13: "XIII", 14: "XIV", 15: "XV", 16: "XVI", 17: "XVII", 18: "XVIII",
         19: "XIX"}


def _slots(rng: random.Random, lang: str) -> dict[str, str]:
    """One draw of every entity slot a template may use."""
    person = lambda: f"{rng.choice(FIRST)} {rng.choice(LAST)}"  # noqa: E731
    place = rng.choice(PLACES)
    if lang == "en":
        return {
            "person": person(), "person2": person(), "place": place,
            "place2": rng.choice(PLACES),
            "title": rng.choice(("king", "queen", "president", "prime minister",
                                 "chancellor", "governor", "mayor")),
            "award": f"{rng.choice(LAST)} "
                     f"{rng.choice(('Prize', 'Medal', 'Cup', 'Trophy'))}",
            "org": f"the {rng.choice(LAST)} "
                   f"{rng.choice(('Society', 'Foundation', 'Academy', 'Guild'))}",
            "device": rng.choice(DEVICES),
            "volcano": f"Mount {rng.choice(LAST)}",
        }
    return {
        "person": person(), "person2": person(), "place": place,
        "place2": rng.choice(PLACES),
        "title": rng.choice(("presidente", "rey", "alcalde", "gobernador")),
        "award": f"premio {rng.choice(LAST)} de {rng.choice(PLACES)}",
        "award2": f"trofeo {rng.choice(LAST)}",
        "org": f"la {rng.choice(('Fundación', 'Academia', 'Sociedad'))} "
               f"{rng.choice(LAST)}",
        "name": rng.choice(LAST),
        "event": f"el Festival de {place}",
    }


# --- temporal expressions ---------------------------------------------------
# Each kind returns (surface, canonical value).  AFTER and BEFORE templates
# use only kinds that span several years, so the restriction date can sit
# inside the expression with room on the signal's side.

def _te(kind: str, rng: random.Random) -> tuple[str, str]:
    if kind == "year":
        y = rng.randint(1900, 2006)
        return str(y), str(y)
    if kind == "quote":
        y = rng.randint(1930, 1999)
        return f"'{y % 100:02d}", str(y)
    if kind == "decade_digits":
        d = rng.randint(192, 199)
        return rng.choice((f"the {d}0s", f"the {d % 10}0s")), str(d)
    if kind == "decade_word":
        d = rng.randint(192, 199)
        return f"the {DECADE_EN[d]}", str(d)
    if kind == "years_ago":
        n = rng.randint(2, 90)
        return f"{n} years ago", str(REF.year - n)
    if kind == "decades_ago":
        n = rng.randint(2, 9)
        return f"{NUMBER_EN[n]} decades ago", str((REF.year - 10 * n) // 10)
    if kind == "century":
        n = rng.randint(14, 19)
        return f"the {n}th century", str(n - 1)
    if kind == "between":
        a = rng.randint(1900, 1995)
        b = a + rng.randint(2, 12)
        return f"between {a} and {b}", f"{a}-{b}"
    if kind == "early_late":
        d = rng.randint(192, 199) * 10
        if rng.random() < 0.5:
            return f"the early {d}s", f"{d}-{d + 4}"
        return f"the late {d}s", f"{d + 5}-{d + 9}"
    if kind == "el_ano":
        y = rng.randint(1930, 1999)
        return f"el año {y % 100:02d}", str(y)
    if kind == "el_n":
        y = rng.randint(1930, 1999)
        return f"el {y % 100:02d}", str(y)
    if kind == "hace_anos":
        n = rng.randint(2, 90)
        return f"hace {n} años", str(REF.year - n)
    if kind == "hace_decadas":
        n = rng.randint(2, 9)
        return f"hace {NUMBER_ES[n]} décadas", str((REF.year - 10 * n) // 10)
    if kind == "los_anos":
        d = rng.randint(2, 9)
        return f"los años {d}0", str(190 + d)
    if kind == "decada_de":
        d = rng.randint(185, 199)
        return f"la década de {d}0", str(d)
    if kind == "siglo":
        n = rng.randint(14, 19)
        return f"el siglo {ROMAN[n]}", str(n - 1)
    raise ValueError(kind)


@dataclass(frozen=True)
class Template:
    lang: str
    qtype: int
    relation: str | None
    text: str
    focus: str | None = None
    rest: str | None = None
    signal: str | None = None
    dated_answer: bool = False      # answers are dates ("When did ...?")
    te_kinds: tuple[str, ...] = ()


T = Template
TEMPLATES = (
    # English, after testbed Q1, Q10 (type 1)
    T("en", 1, None, "When did {person} die?", dated_answer=True),
    T("en", 1, None, "Where was {person} born?"),
    T("en", 1, None, "When did {place} close the port of {place2} to {org}?",
      dated_answer=True),
    # after Q2, Q7, Q8, Q11, Q81, Q98 (type 2)
    T("en", 2, None, "Who was the {title} of {place} in {te}?",
      te_kinds=("year", "quote", "decade_digits", "decade_word", "century",
                "early_late")),
    T("en", 2, None, "Where were the {place} Games held {te}?",
      te_kinds=("years_ago",)),
    T("en", 2, None, "What was the largest city in {place} in {te}?",
      te_kinds=("century",)),
    T("en", 2, None, "Who won the {award} {te}?",
      te_kinds=("between", "years_ago")),
    # after Q107, Q133, Q108/Q135, Q102, Q117, Q6, Q142 (type 3)
    T("en", 3, "SIMULTANEOUS", "Who won the {award} when {person} died in {te}?",
      "Who won the {award}?", "When did {person} die in {te}?", "when",
      te_kinds=("year", "quote", "decade_digits", "decade_word")),
    T("en", 3, "SIMULTANEOUS",
      "What person won the {award} when {person} was born in {te}?",
      "What person won the {award}?", "When was {person} born in {te}?",
      "when", te_kinds=("year", "quote")),
    T("en", 3, "SIMULTANEOUS",
      "Who was the {title} of {place} when {org} was founded {te}?",
      "Who was the {title} of {place}?", "When was {org} founded {te}?",
      "when", te_kinds=("decades_ago", "years_ago")),
    T("en", 3, "AFTER",
      "Who was the {title} of {place} after {person} died in {te}?",
      "Who was the {title} of {place}?", "When did {person} die in {te}?",
      "after", te_kinds=("decade_digits", "decade_word", "century",
                         "early_late")),
    T("en", 3, "BEFORE",
      "When did {volcano} erupt before {person} won the {award} in {te}?",
      "When did {volcano} erupt?", "When did {person} win the {award} in {te}?",
      "before", dated_answer=True,
      te_kinds=("decade_digits", "century", "early_late")),
    T("en", 3, "WITHIN",
      "Which ship was attacked by {org} during the {place} war in {te}?",
      "Which ship was attacked by {org}?",
      "When did the {place} war in {te} happen?", "during",
      te_kinds=("year", "decade_word", "decade_digits")),
    T("en", 3, "SIMULTANEOUS",
      "Which language was invented by {person} when {person2} patented "
      "the {device} in {te}?",
      "Which language was invented by {person}?",
      "When did {person2} patent the {device} in {te}?", "when",
      te_kinds=("decade_digits", "year")),
    # after Q5, Q192, Q179, Q9, Q4 (type 4)
    T("en", 4, "BEFORE",
      "Where did {person} study before going to {place} University?",
      "Where did {person} study?", "When did {person} go to {place} University?",
      "before"),
    T("en", 4, "SIMULTANEOUS",
      "Which language was invented by {person} when {person2} patented "
      "the {device}?",
      "Which language was invented by {person}?",
      "When did {person2} patent the {device}?", "when"),
    T("en", 4, "AFTER",
      "Who was the {title} of {place} after {person} reigned {place2}?",
      "Who was the {title} of {place}?", "When did {person} reign {place2}?",
      "after"),
    T("en", 4, "WITHIN",
      "Who was the spokesman of {org} during the invasion of {place}?",
      "Who was the spokesman of {org}?",
      "When did the invasion of {place} happen?", "during"),
    # Spanish, after Q6, Q31 (type 1)
    T("es", 1, None, "¿En qué año fue lanzado el submarino {name}?",
      dated_answer=True),
    T("es", 1, None, "¿Dónde nació {person}?"),
    T("es", 1, None, "¿Quién fundó {org}?"),
    # after Q81, Q89, Q98, Q99 (type 2)
    T("es", 2, None, "¿Dónde se celebró {event} en {te}?",
      te_kinds=("el_ano", "year")),
    T("es", 2, None, "¿Quién ganó el {award} en {te}?",
      te_kinds=("el_n", "year", "los_anos")),
    T("es", 2, None, "¿Cuál fue la ciudad más grande de {place} en {te}?",
      te_kinds=("siglo",)),
    T("es", 2, None, "¿Quién ganó el {award} {te}?", te_kinds=("hace_anos",)),
    # after Q133, Q105, Q108, Q110, Q130, Q142 (type 3)
    T("es", 3, "SIMULTANEOUS",
      "¿Qué persona ganó el {award} cuando {person} nació en {te}?",
      "¿Qué persona ganó el {award}?", "¿Cuándo nació {person} en {te}?",
      "cuando", te_kinds=("el_ano", "year")),
    T("es", 3, "SIMULTANEOUS",
      "¿Quién ganó el {award} cuando el cometa {name} fue descubierto {te}?",
      "¿Quién ganó el {award}?",
      "¿Cuándo fue descubierto el cometa {name} {te}?", "cuando",
      te_kinds=("hace_anos",)),
    T("es", 3, "SIMULTANEOUS",
      "¿Quién fue el {title} de {place} cuando se fundó {org} {te}?",
      "¿Quién fue el {title} de {place}?", "¿Cuándo se fundó {org} {te}?",
      "cuando", te_kinds=("hace_decadas",)),
    T("es", 3, "AFTER",
      "¿Quién fue el {title} de {place} después de que {person} ganara "
      "el {award2} en {te}?",
      "¿Quién fue el {title} de {place}?",
      "¿Cuándo ganó {person} el {award2} en {te}?", "después de que",
      te_kinds=("los_anos", "decada_de", "siglo")),
    T("es", 3, "BEFORE",
      "¿Quién ganó el {award} antes de que {person} ganara el {award2} "
      "en {te}?",
      "¿Quién ganó el {award}?", "¿Cuándo ganó {person} el {award2} en {te}?",
      "antes de que", te_kinds=("decada_de", "los_anos")),
    T("es", 3, "WITHIN",
      "¿Qué barco fue atacado por {org} durante la guerra de {place} en {te}?",
      "¿Qué barco fue atacado por {org}?",
      "¿Cuándo ocurrió la guerra de {place} en {te}?", "durante",
      te_kinds=("los_anos", "decada_de")),
    # after Q155 (type 4)
    T("es", 4, "SIMULTANEOUS",
      "¿Quién ganó el {award} cuando el cometa {name} fue descubierto?",
      "¿Quién ganó el {award}?", "¿Cuándo fue descubierto el cometa {name}?",
      "cuando"),
    T("es", 4, "SIMULTANEOUS",
      "¿Quién fue el {title} de {place} cuando se fundó {org}?",
      "¿Quién fue el {title} de {place}?", "¿Cuándo se fundó {org}?",
      "cuando"),
    T("es", 4, "AFTER",
      "¿Quién fue el {title} de {place} después de que {person} reinara "
      "{place2}?",
      "¿Quién fue el {title} de {place}?", "¿Cuándo reinó {person} {place2}?",
      "después de que"),
)


@dataclass(frozen=True)
class Question:
    qid: int
    lang: str
    text: str
    qtype: int
    tes: tuple[tuple[str, str], ...]
    signal: str | None
    q_focus: str | None
    q_rest: str | None
    answer: str
    expected: tuple[str, ...]
    fault: str | None = None


# --- the labelled fault slice ------------------------------------------------
# Fixed questions and backend data, the same for every seed, that the layer
# answers wrongly today.  Each names the fault that makes it fail.

SIMULTANEOUS_START_EQUALITY = "SIMULTANEOUS_START_EQUALITY"
OFFSET_SIGNAL_UNSUPPORTED = "OFFSET_SIGNAL_UNSUPPORTED"

_PRESIDENTS = [("Harry S. Truman", "1945-1953"),
               ("Dwight D. Eisenhower", "1953-1961"),
               ("John F. Kennedy", "1961-1963")]
_PEACE_EN = [("UN Peacekeeping Forces", "1988"), ("Tenzin Gyatso", "1989"),
             ("Mikhail Gorbachev", "1990"), ("Aung San Suu Kyi", "1991"),
             ("Rigoberta Menchu", "1992")]
_PEACE_ES = [("UNICEF", "1965"), ("René Cassin", "1968"),
             ("Organización Internacional del Trabajo", "1969"),
             ("Norman Borlaug", "1970")]

#: (lang, fault, question, q_focus, q_rest, signal, relation, offset years,
#:  focus candidates, restriction candidates, gold answer)
FAULT_SLICE = (
    ("en", SIMULTANEOUS_START_EQUALITY,
     "Who was the president of US when the AARP was founded?",
     "Who was the president of US?", "When was the AARP founded?", "when",
     "SIMULTANEOUS", 0, _PRESIDENTS, [("1958", "1958")],
     "Dwight D. Eisenhower"),
    ("es", SIMULTANEOUS_START_EQUALITY,
     "¿Quién fue el presidente de los Estados Unidos cuando se fundó AARP?",
     "¿Quién fue el presidente de los Estados Unidos?",
     "¿Cuándo se fundó AARP?", "cuando", "SIMULTANEOUS", 0, _PRESIDENTS,
     [("1958", "1958")], "Dwight D. Eisenhower"),
    ("en", OFFSET_SIGNAL_UNSUPPORTED,
     "Who won the Nobel Peace Prize two years after the Berlin Wall fell?",
     "Who won the Nobel Peace Prize?", "When did the Berlin Wall fall?",
     "two years after", "AFTER", 2, _PEACE_EN, [("1989", "1989")],
     "Aung San Suu Kyi"),
    ("es", OFFSET_SIGNAL_UNSUPPORTED,
     "¿Quién ganó el Nobel de la Paz un año antes de que naciera Mariah Carey?",
     "¿Quién ganó el Nobel de la Paz?", "¿Cuándo nació Mariah Carey?",
     "un año antes de que", "BEFORE", -1, _PEACE_ES, [("1969", "1969")],
     "René Cassin"),
)


def fixture_key(text: str) -> str:
    """Fixture files key questions by casefolded word tokens (see the
    fixture XML schema in the repository README)."""
    tokens = (t.strip("'") for t in re.split(r"[^\w']+", text.casefold()))
    return " ".join(t for t in tokens if t)


# --- candidate answers -------------------------------------------------------

def _value(rng: random.Random, lo: int, hi: int) -> str:
    """A year or a period of years, in the shipped fixtures' mix."""
    y = rng.randint(lo, hi)
    if rng.choices(VALUE_FORMS, VALUE_WEIGHTS)[0] == "year":
        return f"{y:04d}"
    return f"{y:04d}-{y + rng.randint(*PERIOD_YEARS):04d}"


def _settled(value, relation, ref_iv) -> bool:
    return relation is None or not unsettled(relation, interval(value), ref_iv)


def _focus_candidates(rng, n, dated_answer, relation, ref_iv, te_ivs,
                      centre):
    """``n`` ranked candidates with one gold answer the reference keeps.

    Values are spread over 45 years either side of ``centre``, so many fall
    outside the question's expression interval and on both sides of the
    restriction date.
    """
    def kept(value):
        iv = interval(value)
        if any(iv[1] < c[0] or c[1] < iv[0] for c in te_ivs):
            return False
        return relation is None or holds(relation, iv, ref_iv)

    while True:
        gold = _value(rng, centre - 15, centre + 15)
        if _settled(gold, relation, ref_iv) and kept(gold):
            break
    values, seen = [gold], {gold}
    while len(values) < n:
        v = _value(rng, centre - 45, centre + 45)
        if _settled(v, relation, ref_iv) and not (dated_answer and v in seen):
            values.append(v)
            seen.add(v)
    rng.shuffle(values)
    if dated_answer:
        return [(v, v) for v in values], gold
    names = rng.sample(range(len(FIRST) * len(LAST)), n)
    candidates = [(f"{FIRST[i // len(LAST)]} {LAST[i % len(LAST)]}", v)
                  for i, v in zip(names, values)]
    gold_text = next(text for text, v in candidates if v == gold)
    return candidates, gold_text


def _restriction(rng, qtype, relation, te_ivs):
    """Restriction candidates: years, the true date first among those the
    expression keeps; earlier ranks fall outside the expression."""
    if qtype == 4:
        true = rng.randint(1850, 2005)
        extra = [str(rng.randint(1850, 2005)) for _ in range(rng.randint(0, 2))]
        return [str(true)] + extra, (date(true, 1, 1), date(true, 12, 31))
    c = te_ivs[0]
    lo, hi = c[0].year, min(c[1].year, REF.year - 1)
    if relation == "AFTER":
        hi -= 1
    elif relation == "BEFORE":
        lo += 1
    true = rng.randint(lo, hi)
    if relation == "WITHIN" and hi - true >= 1 and rng.random() < 0.5:
        end = rng.randint(true + 1, min(hi, true + 6))
        true_value = f"{true}-{end}"
    else:
        true_value = str(true)
    before = []
    for _ in range(rng.randint(0, 2)):
        y = rng.choice((rng.randint(c[0].year - 50, c[0].year - 1),
                        rng.randint(c[1].year + 1, c[1].year + 50)))
        before.append(str(y))
    after = [str(rng.randint(lo, hi)) for _ in range(rng.randint(0, 1))]
    return before + [true_value] + after, interval(true_value)


@dataclass
class Corpus:
    seed: int
    questions: list[Question]
    entries: dict[str, dict[str, list[tuple[str, str | None]]]]


def _stratified(total: int) -> list[tuple[str, int]]:
    """(lang, type) slots in the testbeds' language split and type mix."""
    weights = {(lang, t + 1): n for lang, mix in TESTBED_MIX.items()
               for t, n in enumerate(mix)}
    whole = sum(weights.values())
    counts = {k: total * w // whole for k, w in weights.items()}
    rest = sorted(weights, key=lambda k: -(total * weights[k] % whole))
    for k in rest[:total - sum(counts.values())]:
        counts[k] += 1
    return [k for k in sorted(counts) for _ in range(counts[k])]


def generate(seed: int, width: str, size: int = CORPUS_SIZE) -> Corpus:
    """The corpus for ``seed``.  The question stream depends on the seed
    alone; ``width`` sets how many candidates each focus list holds."""
    qrng = random.Random(seed)
    crng = random.Random(f"{seed}/{width}")
    entries = {"en": {}, "es": {}}
    used = set()
    questions = []
    # Each (language, type) stratum gets candidate counts spread evenly over
    # the width's range, dealt out in the order its templates are taken, so
    # every seed's corpus pairs each template with the same counts.  The
    # cost of a question depends on both, so its slowest questions are the
    # same kind whatever the seed.
    lo_n, hi_n = WIDTHS[width]
    slots = _stratified(size)
    counts = {}
    for stratum in dict.fromkeys(slots):
        m = slots.count(stratum)
        counts[stratum] = [lo_n + (hi_n - lo_n) * i // max(m - 1, 1)
                           for i in range(m)]
    seen = {}
    for qid, (lang, qtype) in enumerate(slots, start=1):
        # Templates, and each template's expression kinds, are taken in
        # turn, so the template mix is the same for every seed; names,
        # dates and candidate lists vary with it.
        pool = [t for t in TEMPLATES if t.lang == lang and t.qtype == qtype]
        n = seen[(lang, qtype)] = seen.get((lang, qtype), -1) + 1
        template = pool[n % len(pool)]
        k = seen[template] = seen.get(template, -1) + 1
        while True:
            slots = _slots(qrng, lang)
            tes = ()
            if template.te_kinds:
                kind = template.te_kinds[k % len(template.te_kinds)]
                surface, value = _te(kind, qrng)
                slots["te"] = surface
                tes = ((surface, value),)
            text = template.text.format(**slots)
            focus = template.focus.format(**slots) if template.focus else None
            rest = template.rest.format(**slots) if template.rest else None
            keys = [fixture_key(q) for q in (focus, rest) if q] \
                or [fixture_key(text)]
            if not used.intersection(keys) and len(set(keys)) == len(keys):
                used.update(keys)
                break
        te_ivs = [interval(v) for _, v in tes]
        if qtype in (3, 4):
            rest_values, ref_iv = _restriction(crng, qtype, template.relation,
                                               te_ivs)
            centre = ref_iv[0].year
        else:
            rest_values, ref_iv = [], None
            centre = (te_ivs[0][0].year + te_ivs[0][1].year) // 2 if te_ivs \
                else crng.randint(1850, 2000)
        focus_list, gold = _focus_candidates(
            crng, counts[(lang, qtype)].pop(), template.dated_answer,
            template.relation, ref_iv, te_ivs, centre)
        rest_list = [(v, v) for v in rest_values]
        entries[lang][keys[0]] = focus_list
        if rest:
            entries[lang][keys[1]] = rest_list
        questions.append(Question(
            qid=qid, lang=lang, text=text, qtype=qtype, tes=tes,
            signal=template.signal, q_focus=focus, q_rest=rest, answer=gold,
            expected=expected_answers([v for _, v in tes], template.relation,
                                      0, focus_list, rest_list)))
    for n, (lang, fault, text, focus, rest, signal, relation, offset,
            focus_list, rest_list, gold) in enumerate(FAULT_SLICE):
        entries[lang][fixture_key(focus)] = list(focus_list)
        entries[lang][fixture_key(rest)] = list(rest_list)
        questions.append(Question(
            qid=9001 + n, lang=lang, text=text, qtype=4, tes=(), signal=signal,
            q_focus=focus, q_rest=rest, answer=gold, fault=fault,
            expected=expected_answers((), relation, offset, focus_list,
                                      rest_list)))
    qrng.shuffle(questions)
    return Corpus(seed, questions, entries)


# --- files -------------------------------------------------------------------

def _xml(root: ET.Element) -> bytes:
    ET.indent(root, space="  ")
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def fixtures_xml(corpus: Corpus, lang: str) -> bytes:
    root = ET.Element("FIXTURES", ref=REF.isoformat(), lang=lang)
    for key, answers in corpus.entries[lang].items():
        fq = ET.SubElement(root, "FQ", key=key)
        for rank, (text, value) in enumerate(answers, start=1):
            attrs = {"rank": str(rank)}
            if value is not None:
                attrs["value"] = value
            ET.SubElement(fq, "A", attrs).text = text
    return _xml(root)


def testbed_xml(corpus: Corpus, lang: str) -> bytes:
    root = ET.Element("TESTBED", lang=lang, ref=REF.isoformat())
    for q in sorted(corpus.questions, key=lambda q: q.qid):
        if q.lang != lang:
            continue
        el = ET.SubElement(root, "Q", id=str(q.qid))
        ET.SubElement(el, "QUESTION").text = q.text
        for surface, value in q.tes:
            ET.SubElement(el, "TE", value=value).text = surface
        ET.SubElement(el, "TYPE").text = str(q.qtype)
        for tag, text in (("SIGNAL", q.signal), ("Q-FOCUS", q.q_focus),
                          ("Q-REST", q.q_rest), ("ANSWER", q.answer)):
            if text is not None:
                ET.SubElement(el, tag).text = text
    return _xml(root)


def write_files(corpus: Corpus, directory: Path) -> dict[str, Path]:
    """Write fixtures_<lang>.xml and testbed_<lang>.xml; return their paths.
    Also write the question stream as questions.json, for the set-up child."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "questions.json").write_text(json.dumps(
        [(q.lang, q.text) for q in corpus.questions]))
    paths = {}
    for lang in ("en", "es"):
        for name, render in (("fixtures", fixtures_xml), ("testbed", testbed_xml)):
            path = directory / f"{name}_{lang}.xml"
            path.write_bytes(render(corpus, lang))
            paths[f"{name}_{lang}"] = path
    return paths
