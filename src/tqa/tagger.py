"""Temporal expression identification and normalization.

Runs the pack's declarative rules over a question and returns maximal,
non-overlapping tags, each normalized to a canonical value.  Deictic and
relative expressions resolve against an explicit reference date; the wall
clock is never consulted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import MAXYEAR, date, timedelta

from .errors import MalformedValue, OutOfCalendar, PackInvalid
from .packs import LanguagePack, TagRule
from .time_model import DayInterval, TimeValue, parse_value

#: Reference date anchoring deictic and relative expressions.
ReferenceDate = date


@dataclass(frozen=True)
class TemporalExpressionTag:
    """One temporal expression found in a question."""

    surface: str
    begin: int
    end: int
    value: TimeValue
    rule: str = ""

    @property
    def interval(self) -> DayInterval | None:
        return self.value.interval


def _pivot_year(two_digits: int, ref: ReferenceDate) -> int:
    """Two-digit year against the reference: at most the reference's own
    two-digit year means the current century, else the one before."""
    base = ref.year - ref.year % 100
    if two_digits <= ref.year % 100:
        return base + two_digits
    return base - 100 + two_digits


def resolve_relative(quantity: int, unit: str, direction: str,
                     ref: ReferenceDate) -> TimeValue:
    """Offset the reference date and emit at the unit's natural granularity."""
    if quantity < 0:
        raise ValueError("quantity must be non-negative")
    if unit not in ("day", "month", "year", "decade", "century"):
        raise ValueError(f"unknown unit {unit!r}")
    sign = -1 if direction == "past" else 1
    if unit == "day":
        try:
            day = ref + timedelta(days=sign * quantity)
        except OverflowError:
            raise OutOfCalendar(f"{quantity} days out of calendar") from None
        return TimeValue.of_date(day.year, day.month, day.day)
    if unit == "month":
        months = ref.year * 12 + (ref.month - 1) + sign * quantity
        year, month = divmod(months, 12)
        if not 1 <= year <= MAXYEAR:
            raise OutOfCalendar(f"{quantity} months out of calendar")
        return TimeValue.of_year_month(year, month + 1)
    scale = {"year": 1, "decade": 10, "century": 100}[unit]
    target = ref.year + sign * scale * quantity
    if not 1 <= target <= MAXYEAR:
        raise OutOfCalendar(f"{quantity} {unit}s out of calendar")
    if unit == "year":
        return TimeValue.of_year(target)
    if unit == "decade":
        return TimeValue.of_decade(target // 10)
    return TimeValue.of_century(target // 100)


_ROMAN = {"i": 1, "v": 5, "x": 10, "l": 50, "c": 100, "d": 500, "m": 1000}


def _parse_roman(text: str) -> int | None:
    total, prev = 0, 0
    for ch in reversed(text.lower()):
        value = _ROMAN.get(ch)
        if value is None:
            return None
        total += value if value >= prev else -value
        prev = max(prev, value)
    return total or None


def _ordinal_number(text: str, pack: LanguagePack) -> int | None:
    if re.fullmatch(r"\d{1,2}", text):
        return int(text)
    key = text.casefold()
    if key in pack.ordinal_words:
        return pack.ordinal_words[key]
    return _parse_roman(text)


def _year_from_text(text: str, pack: LanguagePack, ref: ReferenceDate) -> int | None:
    if re.fullmatch(r"\d{4}", text):
        return int(text)
    if re.fullmatch(r"\d{1,2}", text):
        return _pivot_year(int(text), ref)
    return pack.parse_number(text)


def _op_literal(m, rule, pack, ref):
    return parse_value(rule.arg("value"))


def _op_year(m, rule, pack, ref):
    year = _year_from_text(m.group("y"), pack, ref)
    if year is None or not 1 <= year <= MAXYEAR:
        return None
    return TimeValue.of_year(year)


def _op_year_range(m, rule, pack, ref):
    a, b = int(m.group("a")), int(m.group("b"))
    if not 1 <= a <= b <= MAXYEAR:
        return None
    return TimeValue.of_range(TimeValue.of_year(a), TimeValue.of_year(b))


def _op_decade(m, rule, pack, ref):
    text = m.group("d").casefold()
    if text.isdigit():
        if len(text) == 4:
            first = int(text)
        else:
            first = _pivot_year(int(text), ref)
    else:
        first = pack.decade_words.get(text)
    if first is None or first % 10 != 0 or first < 10:
        return None
    part = (m.groupdict().get("part") or "").casefold()
    if part == "early":
        return TimeValue.of_range(TimeValue.of_year(first),
                                  TimeValue.of_year(first + 4))
    if part == "late":
        return TimeValue.of_range(TimeValue.of_year(first + 5),
                                  TimeValue.of_year(first + 9))
    return TimeValue.of_decade(first // 10)


def _op_century(m, rule, pack, ref):
    number = _ordinal_number(m.group("c"), pack)
    if number is None or not 2 <= number <= 100:
        return None
    # the Nth century spans years (N-1)00 .. (N-1)99
    return TimeValue.of_century(number - 1)


def _op_month_number(m, rule, pack, ref):
    month = pack.months.get(m.group("m").casefold())
    if month is None:
        return None
    n = int(m.group("n"))
    year_text = m.groupdict().get("y")
    if n <= 31:
        if year_text:
            try:
                return TimeValue.of_date(int(year_text), month, n)
            except MalformedValue:
                return None
        try:
            return TimeValue.of_month_day(month, n)
        except MalformedValue:
            return None
    if year_text:  # "august 90 1990" is no expression
        return None
    if 100 <= n <= 999:  # "april 500" names no month
        return None
    year = n if n >= 1000 else _pivot_year(n, ref)
    if not 1 <= year <= MAXYEAR:  # pivoted before year 1, or past 9999
        return None
    return TimeValue.of_year_month(year, month)


def _op_relative(m, rule, pack, ref):
    quantity = pack.parse_number(m.group("n"))
    unit = pack.unit_words.get(m.group("u").casefold())
    if quantity is None or unit is None:
        return None
    try:
        return resolve_relative(quantity, unit, rule.arg("direction", "past"),
                                ref)
    except OutOfCalendar:
        return None


def _op_ref_year(m, rule, pack, ref):
    return TimeValue.of_year(ref.year)


def _op_ref_date(m, rule, pack, ref):
    return TimeValue.of_date(ref.year, ref.month, ref.day)


def _op_recent_years(m, rule, pack, ref):
    back = int(rule.arg("years", "5"))
    if ref.year - back < 1:
        return None
    return TimeValue.of_range(TimeValue.of_year(ref.year - back),
                              TimeValue.of_year(ref.year))


#: Normalization ops: name -> (function, the pattern groups it requires).
_OPS = {
    "literal": (_op_literal, ()),
    "year": (_op_year, ("y",)),
    "year-range": (_op_year_range, ("a", "b")),
    "decade": (_op_decade, ("d",)),
    "century": (_op_century, ("c",)),
    "month-number": (_op_month_number, ("m", "n")),
    "relative": (_op_relative, ("n", "u")),
    "ref-year": (_op_ref_year, ()),
    "ref-date": (_op_ref_date, ()),
    "recent-years": (_op_recent_years, ()),
}


def rule_op(rule: TagRule):
    """The normalization function of a rule; PackInvalid when the op is
    unknown, the rule's pattern lacks a group the op requires or a
    ``literal`` rule's ARG value does not parse."""
    if rule.op not in _OPS:
        raise PackInvalid(f"rule {rule.name!r}: unknown op {rule.op!r}")
    op, groups = _OPS[rule.op]
    missing = [g for g in groups if g not in rule.regex.groupindex]
    if missing:
        raise PackInvalid(f"rule {rule.name!r}: op {rule.op!r} requires "
                          f"pattern group(s) {', '.join(missing)}")
    if op is _op_literal:
        try:
            parse_value(rule.arg("value"))
        except MalformedValue as exc:
            raise PackInvalid(f"rule {rule.name!r}: ARG value: {exc}") from None
    return op


def tag(question: str, pack: LanguagePack,
        ref: ReferenceDate) -> list[TemporalExpressionTag]:
    """All maximal non-overlapping temporal expressions, sorted by offset.

    Longest match wins at a shared start offset; at identical spans the
    earlier rule shadows the later one.  Unrecognized temporal language
    yields no tag.
    """
    candidates = []
    for index, rule in enumerate(pack.te_rules):
        for m in rule.regex.finditer(question):
            value = rule_op(rule)(m, rule, pack, ref)
            if value is not None:
                candidates.append((m.start(), -(m.end() - m.start()), index,
                                   m.end(), value, rule.name))
    candidates.sort(key=lambda c: c[:3])
    tags, cursor = [], 0
    for start, _neg_len, _index, end, value, rule_name in candidates:
        if start < cursor:
            continue
        tags.append(TemporalExpressionTag(
            surface=question[start:end], begin=start, end=end,
            value=value, rule=rule_name))
        cursor = end
    return tags
