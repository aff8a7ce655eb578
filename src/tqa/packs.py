"""Language packs: every language-dependent resource in one declarative bundle.

A pack carries the signal lexicon (with ordering keys), the ordered temporal
expression rules, verb suffix rules, clause templates for "When"-question
synthesis and one LEXICON of word tables (interrogatives, verbs, numbers,
stopwords, judging equivalences, ...).  Packs are data: porting the
layer to a new language means writing a pack, not code.

Packs serialize to a UTF-8 XML file (see docs/pack-format.md).  The two
built-in packs, English and Spanish, are such files in the package's data
directory and load through the same code as any other pack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple
from xml.etree import ElementTree as ET

from .errors import PackInvalid, read_xml, write_xml
from .time_model import Relation

try:  # the parser behind re.compile, private and renamed in Python 3.11
    from re import _parser as _sre_parse
except ImportError:
    import sre_parse as _sre_parse

#: The package's data directory: built-in packs (<code>.xml), testbeds and
#: fixtures.
DATA_DIR = Path(__file__).parent / "data"

#: Canonical signal lexicon keys every pack must cover (translated surfaces).
CORE_SIGNAL_BASES = frozenset({
    "after", "when", "before", "during", "while", "for", "at_the_time_of",
    "since",
})

#: Clause template kinds understood by the question splitter, each with the
#: pieces it gives its OUTPUT besides ``clause`` (an ``aux`` template gives
#: its PATTERN's named groups).
TEMPLATE_KINDS = {
    "gerund": ("subject", "verb", "rest"),
    "clitic": ("clitic", "verb", "rest"),
    "verb_first": ("verb", "rest"),
    "aux": (),
    "tensed": ("subj", "verb", "rest"),
    "fallback": (),
}

#: A piece of a clause template OUTPUT: ``{name}`` or ``{name:transform}``.
OUTPUT_PIECE = re.compile(r"\{(\w+)(?::(\w+))?\}")

#: Canonical units a ``unit`` lexicon entry may name.
_UNITS = ("day", "month", "year", "decade", "century")

#: A LEXICON key: words joined by hyphens, safe to splice into a pattern.
_KEY = re.compile(r"\w+(?:-\w+)*")

#: What separates the number words of a spoken number.
_NUMBER_GAP = re.compile(r"[\s-]+")


def _word_fault(word: str) -> str | None:
    """Why ``word`` is no pack word (a LEXICON key, an ``equivalent``
    value, a SUFFIX ``from`` or ``to``), or None."""
    if not _KEY.fullmatch(word):  # a LEXICON key becomes pattern text
        return "is not a word or hyphenated words"
    if word != word.casefold():  # every lookup casefolds its text first
        return f"is not casefolded ({word.casefold()!r})"
    return None


#: LEXICON kinds in file order: (value reader, test of the read value, the
#: domain it checks), or None for a kind whose entries carry no value.
_LEXICON = {
    "month": (int, lambda n: 1 <= n <= 12, "a month number 1-12"),
    "number": (int, lambda n: n >= 0, "a non-negative integer"),
    "ordinal": (int, lambda n: n >= 0, "a non-negative integer"),
    "decade": (int, lambda n: n >= 0 and n % 10 == 0,
               "a non-negative multiple of 10"),
    "unit": (str, _UNITS.__contains__, f"one of {', '.join(_UNITS)}"),
    "form": (str, _KEY.fullmatch, "a word or hyphenated words"),
    "equivalent": (str, lambda w: _word_fault(w) is None,
                   "a casefolded word or hyphenated words"),
    **dict.fromkeys(("conjunction", "wh", "aux", "clitic", "lemma", "tensed",
                     "gerund", "stopword", "filler", "determiner", "trim")),
}

#: Every element a pack file may hold, by path, with the attributes
#: ``serialize_pack`` writes on it: a file holds no other.
_ELEMENTS = {
    "PACK": ("code", "name"),
    "PACK/SIGNALS": (), "PACK/SIGNALS/SIGNAL": ("base", "relation"),
    "PACK/TERULES": (), "PACK/TERULES/RULE": ("name", "op"),
    "PACK/TERULES/RULE/PATTERN": (), "PACK/TERULES/RULE/ARG": ("key",),
    "PACK/SUFFIX": ("from", "to", "checked"),
    "PACK/CLAUSES": (), "PACK/CLAUSES/TEMPLATE": ("kind",),
    "PACK/CLAUSES/TEMPLATE/PATTERN": (), "PACK/CLAUSES/TEMPLATE/OUTPUT": (),
    "PACK/LEXICON": (), "PACK/LEXICON/ENTRY": ("kind", "key", "value"),
}

#: ``{kind}`` in a pattern: the alternation of that LEXICON kind's words.
#: The name starts with a letter, so ``\d{1,4}`` is no placeholder.
_PLACEHOLDER = re.compile(r"\{([A-Za-z]\w*)\}")

#: The flags every pack pattern compiles under.
_FLAGS = re.IGNORECASE | re.UNICODE

#: The most characters a scanner keeps the patterns they admit for: with
#: an unguarded pattern any character reaches the scan.
_MEMO_SIZE = 1024

#: The class escape of each category the first-character walk reads.
_CATEGORIES = {"CATEGORY_DIGIT": r"\d", "CATEGORY_NOT_DIGIT": r"\D",
               "CATEGORY_SPACE": r"\s", "CATEGORY_NOT_SPACE": r"\S",
               "CATEGORY_WORD": r"\w", "CATEGORY_NOT_WORD": r"\W"}


def _compile(pattern: str, what: str) -> re.Pattern:
    """Compile a pack pattern case-insensitively; a pattern that does not
    compile raises PackInvalid naming ``what`` it belongs to."""
    try:
        return re.compile(pattern, _FLAGS)
    except (re.error, ValueError, OverflowError) as exc:
        raise PackInvalid(f"{what}: pattern does not compile: {exc}") from None


def _split_output(output: str, pieces: tuple[str, ...],
                  what: str) -> tuple[tuple[str, str | None, bool], ...]:
    """A clause template OUTPUT as runs of (literal text, the piece that
    follows it or None after the last, whether that piece is rewritten),
    so that rendering joins them.  Each ``{piece}`` must be one of the
    template's ``pieces``, and its transform, if any, ``rw``."""
    runs, at = [], 0
    for m in OUTPUT_PIECE.finditer(output):
        name, transform = m.groups()
        if name not in pieces:
            raise PackInvalid(f"{what}: OUTPUT {m.group()} names no piece of "
                              f"the template (one of {', '.join(pieces)})")
        if transform not in (None, "rw"):
            raise PackInvalid(f"{what}: OUTPUT {m.group()} has transform "
                              f"{transform!r}, not rw")
        runs.append((output[at:m.start()], name, transform == "rw"))
        at = m.end()
    runs.append((output[at:], None, False))
    return tuple(runs)


def _starts(items: list[str], parsed) -> bool:
    """Add to ``items`` the class items that a match of the ``parsed``
    pattern can start with; True when the match can be empty, so that what
    follows it can start the match too.  What the walk cannot read (``.``,
    a negated class, a group reference, a scoped flag) raises
    LookupError."""
    p = _sre_parse
    for op, av in parsed:
        if op is p.LITERAL:
            items.append(re.escape(chr(av)))
            return False
        if op is p.IN:
            for kind, item in av:
                if kind is p.LITERAL:
                    items.append(re.escape(chr(item)))
                elif kind is p.RANGE:
                    items.append("-".join(re.escape(chr(c)) for c in item))
                elif kind is p.CATEGORY:
                    items.append(_CATEGORIES[item.name])
                else:
                    raise LookupError(kind)
            return False
        if op is p.SUBPATTERN:
            _, add_flags, del_flags, sub = av
            if add_flags or del_flags:
                raise LookupError("scoped flags")
            if not _starts(items, sub):
                return False
        elif op is p.BRANCH:  # a list, so that every branch adds its items
            if not any([_starts(items, branch) for branch in av[1]]):
                return False
        elif op in (p.MAX_REPEAT, p.MIN_REPEAT):
            least, _, sub = av
            if not _starts(items, sub) and least:
                return False
        elif op not in (p.ASSERT, p.ASSERT_NOT, p.AT):
            raise LookupError(op)
    return True


def _start_items(pattern: str) -> list[str]:
    """The class items of each character a match of ``pattern`` can start
    with, and maybe more, so that a guard under ``_FLAGS`` admits ``ſ``
    for ``[s]`` as for ``s``; none where the pattern can match the empty
    string or its start cannot be read.  A pattern that does not parse
    raises what ``re.compile`` would; one that sets global flags raises
    ValueError on every Python: read under ASCII, ``(?u)`` raises it and
    any other flag but ``(?a)``, which ``_FLAGS`` refuse, sets its bit."""
    items, parsed = [], _sre_parse.parse(pattern, re.ASCII)
    if parsed.state.flags & ~re.ASCII:
        raise ValueError("global flags")
    try:
        return [] if _starts(items, parsed) else items
    except LookupError:
        return []


def _lookahead(items: list[str]) -> str:
    """A lookahead that admits the characters of the class ``items``; ""
    for no items."""
    return f"(?=[{''.join(dict.fromkeys(items))}])" if items else ""


class Scanner:
    """Patterns each compiled alone behind its guard, bounded so that no
    word character stands right before or after a match, and scanned
    together: ``matches`` gives what each gives alone under ``finditer``.
    A guard admits the characters that can begin its pattern's match; a
    pattern whose start cannot be read has none and is tried everywhere.
    The scan visits each position no word character precedes, passes over
    one where no pattern can begin with one test of the guards' union
    (when every pattern has a guard), and tries at the others, in pack
    order, the patterns whose guard admits the position's character, as
    worked out once a character for up to ``_MEMO_SIZE`` characters.  A
    pattern that does not compile alone, sets global flags, or matches the
    empty string (it would tag or split at a point) raises PackInvalid
    naming its ``what``, with ``re``'s own message where it has one."""

    def __init__(self, patterns: list[str], whats: list[str]):
        starts, regexes = [], []
        for pattern, what in zip(patterns, whats):
            try:
                starts.append(_start_items(pattern))
                regexes.append(re.compile(
                    rf"{_lookahead(starts[-1])}(?:{pattern})(?!\w)", _FLAGS))
            except (re.error, ValueError, OverflowError):
                _compile(pattern, what)  # re's own message, if it has one
                raise PackInvalid(f"{what}: pattern sets global flags; scope "
                                  "them as (?flags:...)") from None
            if regexes[-1].match(""):
                raise PackInvalid(f"{what}: pattern matches the empty string")
        self.guards = tuple(map(_lookahead, starts))
        self.regexes = tuple(regexes)
        self._admits = tuple(re.compile(g, _FLAGS) for g in self.guards)
        self._tried = {}
        union = _lookahead([item for items in starts for item in items]
                           ) if all(starts) else ""
        # one character per position, and none at the end of the text,
        # where only an unguarded pattern can be tried
        self.positions = re.compile(rf"(?<!\w){union}(?s:.?)", _FLAGS)

    def matches(self, text: str):
        """(start, end, index, hit) of each pattern's leftmost
        non-overlapping matches, by start and then pattern index; ``hit``
        is the pattern's own match."""
        ends, memo = [0] * len(self.regexes), self._tried
        for position in self.positions.finditer(text):
            start, char = position.start(), position.group()
            tried = memo.get(char)
            if tried is None:
                tried = tuple((index, regex) for index, (admits, regex)
                              in enumerate(zip(self._admits, self.regexes))
                              if admits.match(char))
                if len(memo) < _MEMO_SIZE:
                    memo[char] = tried
            for index, regex in tried:
                if start >= ends[index]:
                    hit = regex.match(text, start)
                    if hit:
                        ends[index] = end = hit.end()
                        yield start, end, index, hit


@dataclass(frozen=True)
class SignalEntry:
    """One signal lexicon entry: a surface pattern bound to an ordering key."""

    base: str
    pattern: str
    relation: Relation


@dataclass(frozen=True)
class TagRule:
    """One temporal expression rule: surface pattern plus normalization op."""

    name: str
    op: str
    pattern: str
    args: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ClauseTemplate:
    """One synthesis template turning a post-signal clause into a question."""

    kind: str
    output: str
    pattern: str | None = None


class CompiledPack(NamedTuple):
    """A pack's patterns compiled and its rules bound: per rule in order its
    (normalization function, parsed ARG), one scanner over the rule
    patterns and one over the signal patterns (a match's index is its
    rule's or signal entry's, and its hit the pattern's own match), per
    clause template in order its (kind, PATTERN regex or None, OUTPUT
    split into runs by ``_split_output`` here, at the pack's first use),
    the quantity+unit phrase that may stand right before a signal ("four
    years"), and the names of the rules marked as capability extensions."""

    rules: tuple
    rule_scanner: Scanner
    signal_scanner: Scanner
    templates: tuple[tuple[str, re.Pattern | None, tuple], ...]
    modifier: re.Pattern
    extension_rules: frozenset[str]


@dataclass(eq=True)
class LanguagePack:
    """Immutable-by-convention bundle of language knowledge."""

    code: str
    name: str
    signals: tuple[SignalEntry, ...]
    te_rules: tuple[TagRule, ...]
    verb_suffix_rules: tuple[tuple[str, str, bool], ...]
    clause_templates: tuple[ClauseTemplate, ...]
    #: LEXICON kind -> its words, each with its value (None for a kind
    #: that takes none).
    lexicon: dict[str, dict]

    def expand(self, pattern: str, what: str = "pattern") -> str:
        """The pattern with each ``{kind}`` replaced by the alternation of
        that LEXICON kind's words, longest first; a name that is no kind,
        or a kind with no words, raises PackInvalid naming ``what``."""
        def words(m):
            table = self.lexicon.get(m.group(1))
            if not table:
                raise PackInvalid(f"{what}: {m.group()} names no lexicon kind "
                                  "with entries")
            return f"(?:{'|'.join(sorted(table, key=lambda w: (-len(w), w)))})"

        return _PLACEHOLDER.sub(words, pattern)

    @cached_property
    def compiled(self) -> CompiledPack:
        """The one check of what the pack means, on its first use: every
        pattern expanded and compiled, every rule bound (by
        ``tagger.bind_rule``, which holds the op table), every template and
        needed table checked, raising a fault it finds as PackInvalid."""
        from .tagger import bind_rule
        if not self.te_rules:
            raise PackInvalid("pack has no temporal expression rules")
        if len({rule.name for rule in self.te_rules}) < len(self.te_rules):
            raise PackInvalid("temporal expression rule names are not unique")
        whats = [f"rule {rule.name!r}" for rule in self.te_rules]
        rule_scanner = Scanner(
            [self.expand(rule.pattern, what)
             for rule, what in zip(self.te_rules, whats)], whats)
        rules = [bind_rule(rule, regex)
                 for rule, regex in zip(self.te_rules, rule_scanner.regexes)]
        missing = CORE_SIGNAL_BASES - {entry.base for entry in self.signals}
        if missing:
            raise PackInvalid(
                f"signal lexicon misses core bases: {sorted(missing)}")
        whats = [f"signal {entry.base!r}" for entry in self.signals]
        signal_scanner = Scanner(
            [self.expand(entry.pattern, what)
             for entry, what in zip(self.signals, whats)], whats)
        templates = []
        for template in self.clause_templates:
            kind, what = template.kind, f"{template.kind} clause template"
            if kind not in TEMPLATE_KINDS:
                raise PackInvalid(f"unknown clause template kind {kind!r}")
            pieces, regex = TEMPLATE_KINDS[kind], None
            if kind == "aux":
                if not template.pattern:
                    raise PackInvalid("aux clause template has no PATTERN")
                regex = _compile(self.expand(template.pattern, what), what)
                pieces = tuple(regex.groupindex)
            elif template.pattern is not None:
                raise PackInvalid(f"{what} takes no PATTERN")
            if not template.output.strip():
                raise PackInvalid(f"{what}: OUTPUT is blank")
            templates.append((kind, regex, _split_output(
                template.output, ("clause",) + pieces, what)))
        if not any(kind == "fallback" for kind, _, _ in templates):
            raise PackInvalid("clause templates lack a fallback entry")
        if not self.lexicon["stopword"]:
            raise PackInvalid("stopword list is empty")
        # the number whole words, not the end of a hyphenated word:
        # "Russia years" and "well-two years" hold none, "twenty-five
        # years" holds one
        what = "modifier phrase of the number and unit words"
        modifier = _compile(self.expand(
            r"(?P<mod>(?<![\w-])(?:\d+|{number}(?:-{number})*)\s+{unit})"
            r"\s+$", what), what)
        extension_rules = frozenset(rule.name for rule in self.te_rules
                                    if dict(rule.args).get("extension"))
        return CompiledPack(tuple(rules), rule_scanner, signal_scanner,
                            tuple(templates), modifier, extension_rules)

    # -- verb lexicon ------------------------------------------------------

    def rewrite_verb(self, word: str) -> str:
        """Normalize a verb form for synthesis (lemma or indicative form)."""
        key = word.casefold()
        if key in self.lexicon["form"]:
            return self.lexicon["form"][key]
        for suffix, replacement, checked in self.verb_suffix_rules:
            if key.endswith(suffix) and len(key) > len(suffix) + 1:
                candidate = key[:-len(suffix)] + replacement
                if not checked or candidate in self.lexicon["lemma"]:
                    return candidate
        return word

    def is_tensed(self, word: str) -> bool:
        """Is the token a tensed verb form?  Capitalized unknowns are not
        (proper-noun guard); known irregular forms always are."""
        key = word.casefold()
        if key in self.lexicon["form"]:
            return True
        if word != word.lower():
            return False
        return any(key.endswith(s) and len(key) >= len(s) + 3
                   for s in self.lexicon["tensed"])

    def is_gerund(self, word: str) -> bool:
        if word != word.lower():
            return False
        key = word.casefold()
        return any(key.endswith(s) and len(key) >= len(s) + 2
                   for s in self.lexicon["gerund"])

    def is_verbish(self, word: str) -> bool:
        return word.casefold() in self.lexicon["lemma"] or self.is_tensed(word)

    # -- number lexicon ----------------------------------------------------

    def parse_number(self, text: str) -> int | None:
        """Digits or number words to an integer; None when unknown.

        Two leading tens-scale values read as a spoken year pair
        ("eighteen fifty-five" -> 1855); otherwise values add up
        ("mil ochocientos cincuenta y cinco" -> 1855).
        """
        text = text.strip()
        if text.isdecimal():
            return int(text)
        numbers, values = self.lexicon["number"], []
        for token in _NUMBER_GAP.split(text.casefold()):
            if not token or token in self.lexicon["conjunction"]:
                continue
            if token not in numbers:
                return None
            values.append(numbers[token])
        if not values:
            return None
        if len(values) >= 2 and 10 <= values[0] <= 99 \
                and 0 < sum(values[1:]) <= 99:
            return values[0] * 100 + sum(values[1:])
        return sum(values)


# ---------------------------------------------------------------------------
# XML serialization
# ---------------------------------------------------------------------------

def _check_paths(elements, path: str = "") -> None:
    """``elements``, below ``path``, and all below them must be in
    ``_ELEMENTS`` with exactly its attributes, bar an ENTRY's ``value``
    (its kind decides); an unknown element or attribute (an old or misspelt
    name) or a missing attribute raises PackInvalid naming its path."""
    for el in elements:
        el_path = path + el.tag
        attrs = _ELEMENTS.get(el_path)
        if attrs is None:
            raise PackInvalid(f"unknown element {el_path}")
        for attr in el.keys():
            if attr not in attrs:
                raise PackInvalid(f"unknown attribute {el_path}@{attr}")
        for attr in attrs:
            if attr not in el.attrib and attr != "value":
                raise PackInvalid(f"missing attribute {el_path}@{attr}")
        if len(el):
            _check_paths(el, el_path + "/")


def serialize_pack(pack: LanguagePack) -> bytes:
    root = ET.Element("PACK", code=pack.code, name=pack.name)

    signals = ET.SubElement(root, "SIGNALS")
    for entry in pack.signals:
        el = ET.SubElement(signals, "SIGNAL", base=entry.base,
                           relation=entry.relation.value)
        el.text = entry.pattern

    rules = ET.SubElement(root, "TERULES")
    for rule in pack.te_rules:
        el = ET.SubElement(rules, "RULE", name=rule.name, op=rule.op)
        ET.SubElement(el, "PATTERN").text = rule.pattern
        for key, value in rule.args:
            arg = ET.SubElement(el, "ARG", key=key)
            arg.text = value

    for suffix, replacement, checked in pack.verb_suffix_rules:
        ET.SubElement(root, "SUFFIX", {"from": suffix, "to": replacement,
                                       "checked": "1" if checked else "0"})

    clauses = ET.SubElement(root, "CLAUSES")
    for template in pack.clause_templates:
        el = ET.SubElement(clauses, "TEMPLATE", kind=template.kind)
        if template.pattern is not None:
            ET.SubElement(el, "PATTERN").text = template.pattern
        ET.SubElement(el, "OUTPUT").text = template.output

    lexicon = ET.SubElement(root, "LEXICON")
    for kind in _LEXICON:
        for key, value in sorted(pack.lexicon[kind].items()):
            el = ET.SubElement(lexicon, "ENTRY", kind=kind, key=key)
            if value is not None:
                el.set("value", str(value))

    return write_xml(root)


def load_pack(source) -> LanguagePack:
    """Load a pack from a path, byte string or file object, checking what
    reading the file needs; ``LanguagePack.compiled`` checks the rest."""
    root = read_xml(source, "PACK", PackInvalid)
    _check_paths([root])

    signals = []
    for el in root.findall("SIGNALS/SIGNAL"):
        base, relation = el.get("base"), el.get("relation")
        try:
            relation = Relation(relation)
        except ValueError:
            raise PackInvalid(f"signal {base!r}: unknown relation "
                              f"{relation!r}") from None
        signals.append(SignalEntry(base=base, pattern=(el.text or "").strip(),
                                   relation=relation))

    te_rules = []
    for el in root.findall("TERULES/RULE"):
        args = tuple((arg.get("key"), arg.text or "")
                     for arg in el.findall("ARG"))
        te_rules.append(TagRule(name=el.get("name"), op=el.get("op"),
                                pattern=el.findtext("PATTERN", ""), args=args))

    suffix_rules = []
    for el in root.findall("SUFFIX"):
        suffix, to, checked = el.get("from"), el.get("to"), el.get("checked")
        if checked not in ("0", "1"):
            raise PackInvalid(f"suffix {suffix!r}: checked={checked!r} is "
                              "not 0 or 1")
        # every word ends with '', so the row would rewrite every verb
        if not suffix:
            raise PackInvalid(f"suffix '' (to {to!r}): from is empty")
        for attr, word in (("from", suffix), ("to", to)):
            if word and (fault := _word_fault(word)):
                raise PackInvalid(f"suffix {suffix!r} (to {to!r}): {attr} "
                                  f"{fault}")
        suffix_rules.append((suffix, to, checked == "1"))

    templates = [ClauseTemplate(kind=el.get("kind"),
                                output=el.findtext("OUTPUT", ""),
                                pattern=el.findtext("PATTERN"))
                 for el in root.findall("CLAUSES/TEMPLATE")]

    lexicon = {kind: {} for kind in _LEXICON}
    for el in root.findall("LEXICON/ENTRY"):
        kind, key, value = el.get("kind"), el.get("key"), el.get("value")
        if kind not in _LEXICON:
            raise PackInvalid(f"unknown lexicon kind {kind!r}")
        if fault := _word_fault(key):
            raise PackInvalid(f"{kind} {key!r}: key {fault}")
        if key in lexicon[kind]:
            raise PackInvalid(f"{kind} {key!r}: key is given twice")
        entry = None
        if _LEXICON[kind] is None:
            if value is not None:
                raise PackInvalid(f"{kind} {key!r}: value {value!r} on a "
                                  "kind that takes none")
        else:
            read, in_domain, domain = _LEXICON[kind]
            value = value or ""
            try:
                entry = read(value)
                valid = in_domain(entry)
            except ValueError:
                valid = False
            if not valid:
                raise PackInvalid(f"{kind} {key!r}: value {value!r} is not "
                                  f"{domain}")
        lexicon[kind][key] = entry

    if not root.get("code"):
        raise PackInvalid("pack code is empty")
    return LanguagePack(
        code=root.get("code"),
        name=root.get("name"),
        signals=tuple(signals),
        te_rules=tuple(te_rules),
        verb_suffix_rules=tuple(suffix_rules),
        clause_templates=tuple(templates),
        lexicon=lexicon,
    )


def get_pack(code: str, pack_dir=None) -> LanguagePack:
    """Load <code>.xml from ``pack_dir``, by default from the built-in packs."""
    if pack_dir == "":  # Path("") would be the working directory
        raise PackInvalid("pack directory is empty")
    path = Path(DATA_DIR if pack_dir is None else pack_dir) / f"{code}.xml"
    if not path.is_file():
        raise PackInvalid(f"no pack file {path}")
    return load_pack(path)
