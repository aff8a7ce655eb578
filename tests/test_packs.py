"""Language pack invariants, serialization and portability."""

from __future__ import annotations

import dataclasses
import random
import re
from pathlib import Path
from xml.etree import ElementTree as ET

import pytest

from tqa.cli import main
from tqa.decomposition import decompose
from tqa.tagger import _OPS, tag
from tqa.errors import PackInvalid
from tqa.packs import (
    _ELEMENTS,
    _LEXICON,
    _MEMO_SIZE,
    CORE_SIGNAL_BASES,
    DATA_DIR,
    TEMPLATE_KINDS,
    Scanner,
    SignalEntry,
    _lookahead,
    _start_items,
    get_pack,
    load_pack,
    serialize_pack,
)
from tqa.time_model import Relation

from conftest import REF


def test_builtins_validate(en_pack, es_pack):
    assert en_pack.compiled and es_pack.compiled


def test_extension_rules_are_named_once_per_pack(en_pack, es_pack):
    assert en_pack.compiled.extension_rules == {"spoken-year"}
    assert es_pack.compiled.extension_rules == {"año-en-palabras"}
    plain = tuple(dataclasses.replace(rule, args=tuple(
        (k, v) for k, v in rule.args if k != "extension"))
        for rule in en_pack.te_rules)
    pruned = dataclasses.replace(en_pack, te_rules=plain)
    assert pruned.compiled.extension_rules == frozenset()


def test_signal_lexicon_covers_core_bases(en_pack, es_pack):
    for pack in (en_pack, es_pack):
        assert CORE_SIGNAL_BASES <= {s.base for s in pack.signals}


def test_english_at_the_time_of_is_simultaneous(en_pack):
    entries = [s for s in en_pack.signals if s.base == "at_the_time_of"]
    assert entries and entries[0].relation is Relation.SIMULTANEOUS


def test_spanish_after_maps_to_translated_surface(es_pack):
    entries = [s for s in es_pack.signals if s.base == "after"]
    assert any("después" in s.pattern for s in entries)
    assert all(s.relation is Relation.AFTER for s in entries)


def test_round_trip_both_builtins(en_pack, es_pack):
    for pack in (en_pack, es_pack):
        assert load_pack(serialize_pack(pack)) == pack


@pytest.mark.parametrize("code", ["en", "es"])
def test_shipped_packs_are_canonical(code):
    # the built-in pack files stay in the form serialize_pack writes
    assert serialize_pack(get_pack(code)) == \
        (DATA_DIR / f"{code}.xml").read_bytes()


def test_pack_format_doc_names_what_a_pack_holds():
    # a third language is written from the doc alone: the doc names all a
    # pack may hold, and documents no element or attribute load_pack refuses
    doc = (Path(__file__).parents[1] / "docs" / "pack-format.md").read_text(
        encoding="utf-8")
    attributes = {attr for attrs in _ELEMENTS.values() for attr in attrs}
    names = {*_LEXICON, *_OPS, *TEMPLATE_KINDS, *attributes,
             *(path.rsplit("/", 1)[-1] for path in _ELEMENTS)}
    assert sorted(name for name in names if f"`{name}`" not in doc) == []
    tree = re.search(r"^```\n(PACK\n.*?)^```", doc, re.M | re.S).group(1)
    # each line names paths below PACK, and each path its parents
    paths = {"/".join(["PACK", *parts[:i]])
             for line in tree.splitlines()[1:]
             for path in line.strip().split(", ")
             for parts in [path.split("/")] for i in range(len(parts) + 1)}
    assert paths == set(_ELEMENTS)
    tables = re.findall(r"^\| attribute +\|.*\n((?:\|.*\n)+)", doc, re.M)
    documented = {name for table in tables
                  for name in re.findall(r"^\| `(\w+)`", table, re.M)}
    assert len(tables) == 2 and documented and documented <= attributes


@pytest.mark.parametrize("code", ["en", "es"])
def test_loading_compiles_nothing_and_first_tag_compiles_all(monkeypatch,
                                                             code):
    patterns = []
    compile_ = re.compile
    monkeypatch.setattr(re, "compile",
                        lambda *args: patterns.append(args[0])
                        or compile_(*args))
    pack = get_pack(code)
    assert patterns == [] and "compiled" not in vars(pack)
    aux = [t for t in pack.clause_templates if t.kind == "aux"]
    # each rule and signal pattern and its guard, the position scan of the
    # rule and of the signal scanner, each aux template, the modifier
    every = 2 * (len(pack.te_rules) + len(pack.signals)) + 2 + len(aux) + 1
    tag("in 1990?", pack, REF)
    assert "compiled" in vars(pack) and len(patterns) == every
    decompose("Who won after the war in 1990?", pack, REF)
    assert len(patterns) == every


def test_replaced_pack_compiles_its_own_modifier_regex(en_pack):
    question = ("Who won the Nobel Peace Prize two years after the Berlin "
                "Wall fell?")
    assert decompose(question, en_pack, REF).signal.modifier == "two years"
    lexicon = dict(en_pack.lexicon)
    lexicon["number"] = {k: v for k, v in lexicon["number"].items()
                         if k != "two"}
    edited = dataclasses.replace(en_pack, lexicon=lexicon)
    fresh = load_pack(serialize_pack(edited))
    assert decompose(question, fresh, REF).signal.modifier is None
    assert decompose(question, edited, REF).signal.modifier is None


def test_non_integer_lexicon_value_is_invalid(en_pack):
    doc = serialize_pack(en_pack)
    entry = b'kind="number" key="two" value="2"'
    assert entry in doc
    with pytest.raises(PackInvalid):
        load_pack(doc.replace(entry, b'kind="number" key="two" value="II"'))


@pytest.mark.parametrize("old, new, named", [
    (b"<PATTERN>this year</PATTERN>", b"<PATTERN>this (year</PATTERN>",
     "rule 'this-year'"),
    # the offset is the pattern's own, not the scanner's
    (b"<PATTERN>this year</PATTERN>", b"<PATTERN>this year(?#x</PATTERN>",
     "rule 'this-year': pattern does not compile: missing ), unterminated "
     "comment at position 9"),
    (b'relation="AFTER">after</SIGNAL>', b'relation="AFTER">after (</SIGNAL>',
     "signal 'after'"),
    (b"(?P&lt;aux&gt;was", b"(?P&lt;aux&gt;(was", "aux clause template"),
    # re raises these as ValueError and OverflowError, not re.error
    (b'relation="AFTER">after</SIGNAL>',
     b'relation="AFTER">(?a)after</SIGNAL>',
     "signal 'after': pattern does not compile: ASCII and UNICODE flags are "
     "incompatible"),
    (b"<PATTERN>^(?P&lt;subj", b"<PATTERN>(?a)^(?P&lt;subj",
     "aux clause template: pattern does not compile: ASCII and UNICODE "
     "flags are incompatible"),
    (b"<PATTERN>this year</PATTERN>", b"<PATTERN>this year{9999999999}"
     b"</PATTERN>", "rule 'this-year': pattern does not compile: the "
     "repetition number is too large"),
    (b"(?P&lt;aux&gt;was", b"(?P&lt;aux&gt;w{9999999999}as",
     "aux clause template: pattern does not compile: the repetition number "
     "is too large"),
    # parsed, it fails only in re's compile stage
    (b'relation="AFTER">after</SIGNAL>',
     b'relation="AFTER">(?&lt;=a|bc)after</SIGNAL>',
     "signal 'after': pattern does not compile: look-behind requires "
     "fixed-width pattern"),
])
def test_pattern_that_does_not_compile_is_invalid(en_pack, old, new, named):
    doc = serialize_pack(en_pack)
    assert doc.count(old) == 1
    pack = load_pack(doc.replace(old, new))  # loading compiles no pattern
    with pytest.raises(PackInvalid, match=re.escape(named)):
        pack.compiled


_THIS_YEAR = b"<PATTERN>this year</PATTERN>"
_AFTER = b'relation="AFTER">after</SIGNAL>'


@pytest.mark.parametrize("old, new, fault", [
    (_AFTER, b'relation="AFTER">(?x)after</SIGNAL>',
     "signal 'after': pattern sets global flags; scope them as "
     "(?flags:...)"),
    # flags every pack pattern has already are refused all the same
    (_THIS_YEAR, b"<PATTERN>(?i)this year</PATTERN>",
     "rule 'this-year': pattern sets global flags; scope them as "
     "(?flags:...)"),
    (_THIS_YEAR, b"<PATTERN>(?u)this year</PATTERN>",
     "rule 'this-year': pattern sets global flags; scope them as "
     "(?flags:...)"),
    (_AFTER, b'relation="AFTER">after)|(?:afterwards</SIGNAL>',
     "signal 'after': pattern does not compile: unbalanced parenthesis at "
     "position 5"),
    # wrapped in (?:...) it would compile, as (?:a)|(?:b)
    (_THIS_YEAR, b"<PATTERN>a)|(?:b</PATTERN>",
     "rule 'this-year': pattern does not compile: unbalanced parenthesis at "
     "position 1"),
    # re reads a class's leading ] as a member: this class never closes
    (_AFTER, b'relation="AFTER">after[]x</SIGNAL>',
     "signal 'after': pattern does not compile: unterminated character set "
     "at position 5"),
    (_AFTER, b'relation="AFTER">after\\</SIGNAL>',
     "signal 'after': pattern does not compile: bad escape (end of pattern) "
     "at position 5"),
], ids=["global-flags", "ignorecase-flag", "unicode-flag", "closes-group",
        "rule-closes-group", "unclosed-class", "trailing-backslash"])
def test_pattern_that_cannot_join_a_scanner_is_invalid(en_pack, old, new,
                                                       fault):
    # the scanner compiles each pattern inside its guard and bounds, where
    # global flags would not stand at the start and a parenthesis the
    # pattern does not open would close one of them
    doc = serialize_pack(en_pack)
    assert doc.count(old) == 1
    pack = load_pack(doc.replace(old, new))
    with pytest.raises(PackInvalid, match=re.escape(fault)):
        pack.compiled


@pytest.mark.parametrize("old, new, question, found", [
    (_THIS_YEAR, rb"<PATTERN>this (year)\1?</PATTERN>",
     "Who won this yearyear?", "this yearyear"),
    (_THIS_YEAR, b"<PATTERN>(this )?year(?(1)|s)</PATTERN>",
     "Who won this year?", "this year"),
    (_AFTER, rb'relation="AFTER">(af)ter\1?</SIGNAL>',
     "Who won the race afteraf the war?", "afteraf"),
    (_AFTER, b'relation="AFTER">(a)?fter(?(1)|x)</SIGNAL>',
     "Who won the race after the war?", "after"),
    (_AFTER, rb'relation="AFTER">(a)(f)(t)(e)(r)()()()()()\10</SIGNAL>',
     "Who won the race after the war?", "after"),
], ids=["rule-backref", "rule-conditional", "signal-backref",
        "signal-conditional", "two-digits"])
def test_pattern_refers_to_its_groups_by_number(capsys, tmp_path, en_pack, old,
                                               new, question, found):
    # each pattern compiles alone, so its group numbers are its own
    doc = serialize_pack(en_pack)
    assert doc.count(old) == 1
    (tmp_path / "en.xml").write_bytes(doc.replace(old, new))
    assert main(["pack-validate", "--lang", "en", "--pack", str(tmp_path)]
                ) == 0
    assert capsys.readouterr().err == ""
    pack = get_pack("en", tmp_path)
    if old == _THIS_YEAR:
        tags = tag(question, pack, REF)
        assert [(t.surface, t.rule, t.value.canonical) for t in tags] == [
            (found, "this-year", "2008")]
    else:
        assert decompose(question, pack, REF).signal.surface == found


@pytest.mark.parametrize("pattern, guard", [
    ("after", "(?=[a])"),
    (r"(?:the\s+)?'?(?P<d>\d0)s", r"(?=[t'\d])"),
    (r"(?<!\d)(?=y)\by|[a-c]z|\s*q", r"(?=[ya-c\sq])"),
    (r"-x|\]|\^", r"(?=[\-\]\^])"),
    ("(?:x|)?y|z+", "(?=[xyz])"),
    # tried everywhere: the walk cannot read these starts
    (".x", ""), ("[^a]x", ""), (r"(?P<q>a)?(?P=q)b", ""), ("(?-i:a)", ""),
    # tried everywhere: these match the empty string
    ("a?", ""), ("(?:a|)", ""), ("(?=a)", ""),
])
def test_guard_admits_each_start_or_is_empty(pattern, guard):
    assert _lookahead(_start_items(pattern)) == guard


@pytest.mark.parametrize("pattern, error", [
    ("a(", re.error), ("a{9999999999}", OverflowError),
    # global flags, which a 3.10 parser takes anywhere with only a warning
    ("(?x)a", ValueError), ("(?u)a", ValueError), ("(?i)a", ValueError),
])
def test_start_items_raises_on_a_pattern_that_does_not_parse(pattern, error):
    # the scanner reports it as the pattern's own fault
    with pytest.raises(error):
        _start_items(pattern)


@pytest.mark.parametrize("patterns, union, hits", [
    (["after", r"\d{4}"], r"(?=[a\d])", [(3, 8, 0), (9, 13, 1)]),
    # one pattern tried everywhere: no position can be passed over
    (["after", ".x"], "", [(0, 2, 1), (3, 8, 0)]),
])
def test_scanner_union_guard_needs_every_pattern_guarded(patterns, union,
                                                         hits):
    scanner = Scanner(patterns, patterns)
    assert scanner.positions.pattern == rf"(?<!\w){union}(?s:.?)"
    assert [hit[:3] for hit in scanner.matches("ax after 1990")] == hits


def test_scanner_keeps_the_patterns_of_a_bounded_number_of_characters():
    # with an unguarded pattern every character reaches the scan
    scanner = Scanner(["after", ".x"], ["after", ".x"])
    text = " ".join(map(chr, range(0x4e00, 0x4e00 + 3 * _MEMO_SIZE))) + " ax"
    assert [hit[:3] for hit in scanner.matches(text)] == [
        (len(text) - 2, len(text), 1)]
    assert len(scanner._tried) == _MEMO_SIZE
    # a character past the bound is still tried, and its patterns not kept
    assert [hit[:3] for hit in scanner.matches("\u9fa0x after")] == [
        (0, 2, 1), (3, 8, 0)]
    assert "\u9fa0" not in scanner._tried and len(scanner._tried) == _MEMO_SIZE


@pytest.mark.parametrize("pattern", [rb"after(?:\\1)?", rb"after[\1]?",
                                     rb"af\164er"],
                         ids=["escaped-backslash", "class", "octal"])
def test_group_reference_lookalike_is_valid(en_pack, pattern):
    doc = serialize_pack(en_pack).replace(_AFTER,
                                          b'relation="AFTER">%s</SIGNAL>'
                                          % pattern)
    pack = load_pack(doc)
    q = "Who won the race after the war?"
    assert decompose(q, pack, REF).signal.surface == "after"


@pytest.mark.parametrize("old, new, named", [
    (b"<PATTERN>this year</PATTERN>", b"<PATTERN>this {yaer}</PATTERN>",
     "rule 'this-year': {yaer} names no lexicon kind"),
    (b'relation="AFTER">after</SIGNAL>',
     b'relation="AFTER">after {Month}</SIGNAL>',
     "signal 'after': {Month} names no lexicon kind"),
    (b"(?P&lt;aux&gt;was", b"(?P&lt;aux&gt;{auxiliary}|was",
     "aux clause template: {auxiliary} names no lexicon kind"),
])
def test_placeholder_that_names_no_kind_is_invalid(en_pack, old, new, named):
    doc = serialize_pack(en_pack)
    assert doc.count(old) == 1
    pack = load_pack(doc.replace(old, new))
    with pytest.raises(PackInvalid, match=re.escape(named)):
        pack.compiled


def test_placeholder_that_names_an_empty_kind_is_invalid(es_pack):
    # the Spanish pack spells no decade as a word
    assert es_pack.lexicon["decade"] == {}
    doc = serialize_pack(es_pack)
    old = b"la d\xc3\xa9cada de (?P&lt;d&gt;[12]\\d{2}0)"
    assert doc.count(old) == 1
    pack = load_pack(doc.replace(old, old[:-1] + b"|{decade})"))
    named = "rule 'd\xe9cada-de': {decade} names no lexicon kind with entries"
    with pytest.raises(PackInvalid, match=re.escape(named)):
        pack.compiled


def test_placeholder_is_the_alternation_of_its_kind(en_pack):
    assert en_pack.expand(r"(?P<u>{unit})\d{1,4}") == (
        r"(?P<u>(?:centuries|century|decades|decade|months|month|years|"
        r"days|year|day))\d{1,4}")


@pytest.mark.parametrize("key", ["two (", "", "two years", "-two", "a|b"])
def test_lexicon_key_that_is_not_a_word_is_invalid(en_pack, key):
    doc = serialize_pack(en_pack)
    entry = b'kind="number" key="two" value="2"'
    with pytest.raises(PackInvalid, match=re.escape(f"number {key!r}: key")):
        load_pack(doc.replace(entry, f'kind="number" key="{key}" '
                                     f'value="2"'.encode()))


@pytest.mark.parametrize("old, extra, named", [
    (b'<ENTRY kind="number" key="two" value="2" />',
     b'<ENTRY kind="number" key="two" value="3" />', "number 'two'"),
    (b'<ENTRY kind="form" key="died" value="die" />',
     b'<ENTRY kind="form" key="died" value="dead" />', "form 'died'"),
], ids=["number", "form"])
def test_lexicon_key_given_twice_is_invalid(en_pack, old, extra, named):
    # the last entry would win: "two years ago" read as 2005, "died"
    # rewritten to "dead"
    doc = serialize_pack(en_pack)
    assert doc.count(old) == 1
    with pytest.raises(PackInvalid,
                       match=re.escape(f"{named}: key is given twice")):
        load_pack(doc.replace(old, old + extra))


@pytest.mark.parametrize("code, old, new, named", [
    ("en", b'key="august"', b'key="August"', "month 'August'"),
    ("en", b'key="two"', b'key="Two"', "number 'Two'"),
    ("es", b'kind="conjunction" key="y"', b'kind="conjunction" key="Y"',
     "conjunction 'Y'"),
], ids=["month", "number", "conjunction"])
def test_lexicon_key_that_is_not_casefolded_is_invalid(code, old, new, named):
    # {kind} matches such a key, but every lookup casefolds its text first
    # and never meets it: "on August 15, 1990" would tag only 1990
    doc = serialize_pack(get_pack(code))
    assert doc.count(old) == 1
    with pytest.raises(PackInvalid,
                       match=re.escape(f"{named}: key is not casefolded")):
        load_pack(doc.replace(old, new))


@pytest.mark.parametrize("old, new, named", [
    (b'kind="stopword" key="the" />', b'kind="stopword" key="the" value="" />',
     "stopword 'the': value '' on a kind that takes none"),
    (b'kind="form" key="died" value="die" />', b'kind="form" key="died" />',
     "form 'died': value '' is not a word"),
], ids=["value-on-plain-kind", "form-without-value"])
def test_entry_value_follows_its_kind(en_pack, old, new, named):
    doc = serialize_pack(en_pack)
    assert doc.count(old) == 1
    with pytest.raises(PackInvalid, match=re.escape(named)):
        load_pack(doc.replace(old, new))


@pytest.mark.parametrize("code", ["en", "es"])
def test_no_shipped_pattern_restates_a_lexicon_table(code):
    pack = get_pack(code)
    patterns = [r.pattern for r in pack.te_rules] + \
        [s.pattern for s in pack.signals] + \
        [t.pattern for t in pack.clause_templates if t.pattern]
    # the words of each innermost group's alternatives
    alternations = [
        {word for word in body.split("|")
         if re.fullmatch(r"\w+(?:-\w+)*", word)}
        for pattern in patterns
        for body in re.findall(r"\((?:\?P<\w+>|\?:)?([^()]*)\)", pattern)]
    for kind, table in pack.lexicon.items():
        assert not table or not any(words >= set(table)
                                    for words in alternations), kind


@pytest.mark.parametrize("old, new, named", [
    (b"<PATTERN>this year</PATTERN>", b"<PATTERN></PATTERN>",
     "rule 'this-year'"),
    (b'relation="AFTER">after</SIGNAL>', b'relation="AFTER"></SIGNAL>',
     "signal 'after'"),
    (b"<PATTERN>this year</PATTERN>", b"<PATTERN>(?:this year)?</PATTERN>",
     "rule 'this-year'"),
    (_AFTER, b'relation="AFTER">(?:after)?</SIGNAL>', "signal 'after'"),
    # on "" it matches empty, on " " it matches the space
    (_AFTER, rb'relation="AFTER">after|\s?</SIGNAL>', "signal 'after'"),
])
def test_pattern_that_matches_the_empty_string_is_invalid(en_pack, old, new,
                                                          named):
    doc = serialize_pack(en_pack)
    assert doc.count(old) == 1
    pack = load_pack(doc.replace(old, new))
    with pytest.raises(PackInvalid, match=re.escape(named) + ".*empty string"):
        pack.compiled


def test_span_relation_is_invalid(en_pack):
    doc = serialize_pack(en_pack).replace(
        b'<SIGNAL base="since" relation="AFTER">',
        b'<SIGNAL base="since" relation="SPAN">')
    with pytest.raises(PackInvalid, match="signal 'since'.*'SPAN'"):
        load_pack(doc)


@pytest.mark.parametrize("old, new, named", [
    (b'<PACK code="en" name="English">',
     b'<PACK code="en" name="English" when="when">', "PACK@when"),
    (b'relation="AFTER">after</SIGNAL>',
     b'relation="AFTER" event="0">after</SIGNAL>',
     "PACK/SIGNALS/SIGNAL@event"),
    (b'relation="AFTER">after</SIGNAL>',
     b'relation="AFTER" event="1">after</SIGNAL>',
     "PACK/SIGNALS/SIGNAL@event"),
    (b'relation="AFTER">after</SIGNAL>',
     b'relation="AFTER" verified="0">after</SIGNAL>',
     "PACK/SIGNALS/SIGNAL@verified"),
    (b'<SUFFIX from="d" to="" checked="1" />',
     b'<SUFFIX from="d" to="" chekced="1" />', "PACK/SUFFIX@chekced"),
], ids=["pack-when", "signal-event-0", "signal-event-1", "signal-verified",
        "suffix-chekced"])
def test_old_or_misspelt_attribute_is_invalid(en_pack, old, new, named):
    # read as nothing, "chekced" would leave its row unchecked and rewrite
    # "played" to "playe"
    doc = serialize_pack(en_pack)
    assert doc.count(old) == 1
    with pytest.raises(PackInvalid,
                       match=re.escape(f"unknown attribute {named}")):
        load_pack(doc.replace(old, new))


@pytest.mark.parametrize("path", sorted(_ELEMENTS))
def test_attribute_its_element_does_not_take_is_invalid(en_pack, path):
    # the English pack holds every path; the attribute is one another
    # element takes, so the check goes by path
    attr = next(attr for attrs in _ELEMENTS.values() for attr in attrs
                if attr not in _ELEMENTS[path])
    root = ET.fromstring(serialize_pack(en_pack))
    el = root if path == "PACK" else root.find(path.removeprefix("PACK/"))
    el.set(attr, "1")
    with pytest.raises(PackInvalid,
                       match=re.escape(f"unknown attribute {path}@{attr}")):
        load_pack(ET.tostring(root))


@pytest.mark.parametrize("path, attr", [
    (path, attr) for path, attrs in _ELEMENTS.items() for attr in attrs
    if (path, attr) != ("PACK/LEXICON/ENTRY", "value")])
def test_missing_attribute_is_invalid(path, attr):
    # read as "" or "0", a SUFFIX row without checked would load unchecked
    # and rewrite "played" to "playe"; only an ENTRY's kind decides whether
    # it takes a value
    root = ET.fromstring((DATA_DIR / "en.xml").read_bytes())
    el = root if path == "PACK" else root.find(path.removeprefix("PACK/"))
    del el.attrib[attr]
    with pytest.raises(PackInvalid,
                       match=re.escape(f"missing attribute {path}@{attr}")):
        load_pack(ET.tostring(root))


@pytest.mark.parametrize("value", ["yes", "", "2", "True", "true",
                                   "false"])
def test_boolean_attribute_is_strict(en_pack, value):
    doc = serialize_pack(en_pack)
    old = b'<SUFFIX from="ied" to="y" checked="1" />'
    assert doc.count(old) == 1
    new = old.replace(b'"1"', f'"{value}"'.encode())
    with pytest.raises(PackInvalid, match="suffix 'ied'.*checked"):
        load_pack(doc.replace(old, new))


def test_round_trip_randomized(en_pack):
    rng = random.Random(42)
    for _ in range(100):
        signals = list(en_pack.signals)
        rng.shuffle(signals)
        extra = SignalEntry(base=f"syn{rng.randrange(999)}",
                            pattern=rng.choice(["as soon as", "once", "upon"]),
                            relation=rng.choice(list(Relation)))
        mutated = dataclasses.replace(
            en_pack,
            signals=tuple(signals) + (extra,),
            lexicon={**en_pack.lexicon, "stopword": {
                **en_pack.lexicon["stopword"], f"w{rng.randrange(999)}": None},
                "equivalent": {**en_pack.lexicon["equivalent"],
                               "x": f"y{rng.randrange(999)}"}},
        )
        assert load_pack(serialize_pack(mutated)) == mutated


def test_pack_dir_loading(tmp_path, es_pack):
    (tmp_path / "es.xml").write_bytes(serialize_pack(es_pack))
    assert get_pack("es", tmp_path) == es_pack
    with pytest.raises(PackInvalid, match="no pack file"):
        get_pack("fr", tmp_path)


def test_missing_core_signal_is_invalid(en_pack):
    pruned = tuple(s for s in en_pack.signals if s.base != "during")
    with pytest.raises(PackInvalid) as err:
        dataclasses.replace(en_pack, signals=pruned).compiled
    assert "during" in str(err.value)


def test_missing_fallback_template_is_invalid(en_pack):
    pruned = tuple(t for t in en_pack.clause_templates
                   if t.kind != "fallback")
    with pytest.raises(PackInvalid):
        dataclasses.replace(en_pack, clause_templates=pruned).compiled


@pytest.mark.parametrize("pattern", [None, ""], ids=["missing", "empty"])
def test_aux_template_without_pattern_is_invalid(en_pack, pattern):
    templates = tuple(dataclasses.replace(t, pattern=pattern)
                      if t.kind == "aux" else t
                      for t in en_pack.clause_templates)
    with pytest.raises(PackInvalid, match="aux clause template has no"):
        dataclasses.replace(en_pack, clause_templates=templates).compiled


def test_pattern_on_a_non_aux_template_is_invalid(en_pack):
    templates = tuple(dataclasses.replace(t, pattern="^(?P<clause>.+)$")
                      if t.kind == "fallback" else t
                      for t in en_pack.clause_templates)
    with pytest.raises(PackInvalid,
                       match="fallback clause template takes no PATTERN"):
        dataclasses.replace(en_pack, clause_templates=templates).compiled


def test_duplicate_rule_names_are_invalid(en_pack):
    doubled = en_pack.te_rules + (en_pack.te_rules[0],)
    with pytest.raises(PackInvalid):
        dataclasses.replace(en_pack, te_rules=doubled).compiled


def test_unknown_template_kind_is_invalid(en_pack):
    # a pack built in code meets the check a pack file meets
    templates = tuple(dataclasses.replace(t, kind="other")
                      if t.kind == "fallback" else t
                      for t in en_pack.clause_templates)
    with pytest.raises(PackInvalid,
                       match="unknown clause template kind 'other'"):
        dataclasses.replace(en_pack, clause_templates=templates).compiled


@pytest.mark.parametrize("use", [
    lambda pack: tag("in 1990", pack, REF),
    lambda pack: decompose("Who won after the war?", pack, REF),
], ids=["tag", "decompose"])
def test_pack_without_a_core_signal_fails_at_first_use(en_pack, use):
    pruned = tuple(s for s in en_pack.signals if s.base != "during")
    pack = load_pack(serialize_pack(
        dataclasses.replace(en_pack, signals=pruned)))  # loads
    with pytest.raises(PackInvalid, match=re.escape("bases: ['during']")):
        use(pack)


@pytest.mark.parametrize("new", [b"<OUTPUT> </OUTPUT>", b""],
                         ids=["blank", "missing"])
def test_blank_template_output_is_invalid(new):
    # rendered, it would ask the backend a blank restriction question
    doc = (DATA_DIR / "en.xml").read_bytes()
    old = b"<OUTPUT>When did {clause} happen?</OUTPUT>"
    assert doc.count(old) == 1
    pack = load_pack(doc.replace(old, new))
    with pytest.raises(PackInvalid,
                       match="fallback clause template: OUTPUT is blank"):
        pack.compiled


@pytest.mark.parametrize("old, new, named", [
    (b'<ARG key="direction">', b'<ARG key="direciton">',
     "rule 'relative-ago': op 'relative' reads no ARG direciton"),
    (b'<ARG key="direction">past</ARG>',
     b'<ARG key="direction">past</ARG><ARG key="direction">future</ARG>',
     "rule 'relative-ago': ARG direction is given twice"),
    (b"<PATTERN>this year</PATTERN>",
     b'<PATTERN>this year</PATTERN><ARG key="value">2000</ARG>',
     "rule 'this-year': op 'ref-year' reads no ARG value"),
], ids=["misspelt", "twice", "op-reads-none"])
def test_arg_key_the_op_does_not_read_is_invalid(old, new, named):
    # read as nothing, "direciton" would leave "2 years ago" in the past
    doc = (DATA_DIR / "en.xml").read_bytes()
    assert doc.count(old) == 1
    pack = load_pack(doc.replace(old, new))
    with pytest.raises(PackInvalid, match=re.escape(named)):
        pack.compiled


def test_unknown_builtin_language():
    with pytest.raises(PackInvalid):
        get_pack("fr")


def test_verb_rewrites(en_pack, es_pack):
    assert en_pack.rewrite_verb("patented") == "patent"
    assert en_pack.rewrite_verb("released") == "release"
    assert en_pack.rewrite_verb("died") == "die"
    assert en_pack.rewrite_verb("going") == "go"
    assert en_pack.rewrite_verb("win") == "win"
    assert es_pack.rewrite_verb("reinara") == "reinó"
    assert es_pack.rewrite_verb("naciera") == "nació"
    assert es_pack.rewrite_verb("produjera") == "produjo"
    assert es_pack.rewrite_verb("fuera") == "fue"
    assert es_pack.rewrite_verb("nació") == "nació"


def test_tensed_detection_guards(en_pack, es_pack):
    assert en_pack.is_tensed("patented")
    assert not en_pack.is_tensed("United")   # capitalized unknown
    assert not en_pack.is_tensed("red")      # too short for a suffix read
    assert en_pack.is_tensed("died")
    assert es_pack.is_tensed("reinara")
    assert es_pack.is_tensed("nació")
    assert not es_pack.is_tensed("día")


def test_verb_lookups_casefold(en_pack):
    # every key is its own casefold, so a lookup reads "ß" in a token as "ss"
    old = b'<ENTRY kind="form" key="began" value="begin" />'
    doc = serialize_pack(en_pack)
    assert doc.count(old) == 1
    pack = load_pack(doc.replace(old, old + (
        '<ENTRY kind="lemma" key="grüssen" />'
        '<ENTRY kind="form" key="grüsste" value="grüssen" />').encode()))
    assert pack.is_verbish("grüßen")
    assert pack.is_tensed("grüßte")
    assert pack.rewrite_verb("grüßte") == "grüssen"
    # the proper-noun guard compares a word with its lower case, which
    # keeps "ß", not with its casefold
    assert pack.is_tensed("straßed") and not pack.is_tensed("Straßed")
    assert pack.is_gerund("straßing") and not pack.is_gerund("Straßing")


def test_number_parsing(en_pack, es_pack):
    assert en_pack.parse_number("16") == 16
    assert en_pack.parse_number("five") == 5
    assert en_pack.parse_number("eighteen fifty-five") == 1855
    assert en_pack.parse_number("nineteen sixty") == 1960
    assert es_pack.parse_number("mil ochocientos cincuenta y cinco") == 1855
    assert es_pack.parse_number("mil novecientos noventa y ocho") == 1998
    assert es_pack.parse_number("trece") == 13
    assert en_pack.parse_number("banana") is None


def test_conjunctions_are_pack_data(en_pack, es_pack):
    assert en_pack.lexicon["conjunction"] == {"and": None}
    assert es_pack.lexicon["conjunction"] == {"y": None}
    assert es_pack.parse_number("mil ochocientos cincuenta y cinco") == 1855
    assert en_pack.parse_number("mil ochocientos cincuenta y cinco") is None
    bare = dataclasses.replace(es_pack,
                               lexicon={**es_pack.lexicon, "conjunction": {}})
    assert bare.parse_number("mil ochocientos cincuenta y cinco") is None
    assert bare.parse_number("mil ochocientos cincuenta cinco") == 1855
