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
from .packs import _UNITS, LanguagePack, TagRule
from .time_model import DayInterval, TimeValue


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


def _pivot_year(two_digits: int, ref: date) -> int:
    """Two-digit year against the reference: at most the reference's own
    two-digit year means the current century, else the one before."""
    base = ref.year - ref.year % 100
    if two_digits <= ref.year % 100:
        return base + two_digits
    return base - 100 + two_digits


def resolve_relative(quantity: int, unit: str, direction: str,
                     ref: date) -> TimeValue:
    """Offset the reference date and emit at the unit's natural granularity."""
    if quantity < 0:
        raise ValueError("quantity must be non-negative")
    if unit not in _UNITS:
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
    if len(text) <= 2 and text.isdecimal():  # "" is not decimal
        return int(text)
    number = pack.lexicon["ordinal"].get(text.casefold())
    return _parse_roman(text) if number is None else number


def _year_from_text(text: str, pack: LanguagePack, ref: date) -> int | None:
    if text.isdecimal() and len(text) in (1, 2, 4):
        return int(text) if len(text) == 4 else _pivot_year(int(text), ref)
    return pack.parse_number(text)


def _op_literal(groups, value, pack, ref):
    return value


def _op_year(groups, arg, pack, ref):
    year = _year_from_text(groups["y"], pack, ref)
    return None if year is None else TimeValue.of_year(year)


def _op_year_range(groups, arg, pack, ref):
    a = _year_from_text(groups["a"], pack, ref)
    b = _year_from_text(groups["b"], pack, ref)
    if a is None or b is None:
        return None
    return TimeValue.of_range(TimeValue.of_year(a), TimeValue.of_year(b))


def _op_decade(groups, arg, pack, ref):
    text = groups["d"].casefold()
    if text.isdecimal():
        if len(text) == 4:
            first = int(text)
        else:
            first = _pivot_year(int(text), ref)
    else:
        first = pack.lexicon["decade"].get(text)
    if first is None or first % 10 != 0:
        return None
    # a decade with no value (years 0-9) has no halves either
    decade = TimeValue.of_decade(first // 10)
    part = (groups.get("part") or "").casefold()
    if part == "early":
        return TimeValue.of_range(TimeValue.of_year(first),
                                  TimeValue.of_year(first + 4))
    if part == "late":
        return TimeValue.of_range(TimeValue.of_year(first + 5),
                                  TimeValue.of_year(first + 9))
    return decade


def _op_century(groups, arg, pack, ref):
    number = _ordinal_number(groups["c"], pack)
    # the Nth century spans years (N-1)00 .. (N-1)99
    return None if number is None else TimeValue.of_century(number - 1)


def _op_month_number(groups, arg, pack, ref):
    month = pack.lexicon["month"].get(groups["m"].casefold())
    n = pack.parse_number(groups["n"])
    if month is None or n is None:
        return None
    year_text = groups.get("y")
    if year_text:
        year = _year_from_text(year_text, pack, ref)
        if year is None or n > 31:  # "august 90 1990" is no expression
            return None
        return TimeValue.of_date(year, month, n)
    if n <= 31:
        return TimeValue.of_month_day(month, n)
    if 100 <= n <= 999:  # "april 500" names no month
        return None
    year = n if n >= 1000 else _pivot_year(n, ref)
    return TimeValue.of_year_month(year, month)


def _op_relative(groups, direction, pack, ref):
    quantity = pack.parse_number(groups["n"])
    unit = pack.lexicon["unit"].get(groups["u"].casefold())
    if quantity is None or unit is None:
        return None
    return resolve_relative(quantity, unit, direction, ref)


def _op_ref_year(groups, arg, pack, ref):
    return TimeValue.of_year(ref.year)


def _op_ref_date(groups, arg, pack, ref):
    return TimeValue.of_date(ref.year, ref.month, ref.day)


def _op_recent_years(groups, years, pack, ref):
    return TimeValue.of_range(TimeValue.of_year(ref.year - years),
                              TimeValue.of_year(ref.year))


def _direction(text: str) -> str:
    if text not in ("past", "future"):
        raise ValueError(f"{text!r} is not past or future")
    return text


def _count(text: str) -> int:
    if not text.strip().isdecimal():
        raise ValueError(f"{text!r} is not a non-negative integer")
    return int(text)


#: Normalization ops: name -> (function, the pattern groups it requires,
#: and the (key, default, reader) of the ARG it reads, if any).
_OPS = {
    "literal": (_op_literal, (), ("value", None, TimeValue)),
    "year": (_op_year, ("y",), None),
    "year-range": (_op_year_range, ("a", "b"), None),
    "decade": (_op_decade, ("d",), None),
    "century": (_op_century, ("c",), None),
    "month-number": (_op_month_number, ("m", "n"), None),
    "relative": (_op_relative, ("n", "u"), ("direction", "past", _direction)),
    "ref-year": (_op_ref_year, (), None),
    "ref-date": (_op_ref_date, (), None),
    "recent-years": (_op_recent_years, (), ("years", "5", _count)),
}


def bind_rule(rule: TagRule, regex: re.Pattern):
    """The rule's normalization function and parsed ARG (None for an op
    that reads none); PackInvalid when the op is unknown, ``regex``, the
    rule's pattern as the rule scanner compiled it, lacks a group the op
    requires, or an ARG is given twice, not read (``extension`` aside) or
    outside its domain.  Read through ``LanguagePack.compiled``."""
    if rule.op not in _OPS:
        raise PackInvalid(f"rule {rule.name!r}: unknown op {rule.op!r}")
    op, required, arg = _OPS[rule.op]
    missing = [g for g in required if g not in regex.groupindex]
    if missing:
        raise PackInvalid(f"rule {rule.name!r}: op {rule.op!r} requires "
                          f"pattern group(s) {', '.join(missing)}")
    keys = [key for key, _ in rule.args]
    for key in keys:
        if key not in ("extension", arg and arg[0]):
            raise PackInvalid(f"rule {rule.name!r}: op {rule.op!r} reads no "
                              f"ARG {key}")
        if keys.count(key) > 1:
            raise PackInvalid(f"rule {rule.name!r}: ARG {key} is given twice")
    if arg is None:
        return op, None
    key, default, read = arg
    try:
        return op, read(dict(rule.args).get(key, default))
    except (ValueError, MalformedValue) as exc:
        raise PackInvalid(f"rule {rule.name!r}: ARG {key}: {exc}") from None


def tag(question: str, pack: LanguagePack,
        ref: date) -> list[TemporalExpressionTag]:
    """All maximal non-overlapping temporal expressions, sorted by offset.

    Longest match wins at a shared start offset; at identical spans the
    earlier rule shadows the later one.  Unrecognized temporal language
    yields no tag.
    """
    compiled = pack.compiled
    candidates = []
    for start, end, index, hit in compiled.rule_scanner.matches(question):
        op, arg = compiled.rules[index]
        try:
            value = op(hit.groupdict(), arg, pack, ref)
        except (MalformedValue, OutOfCalendar):
            continue  # outside years 1-9999 or the value grammar
        if value is not None:
            candidates.append((start, start - end, index, end, value))
    candidates.sort(key=lambda c: c[:3])
    tags, cursor = [], 0
    for start, _neg_len, index, end, value in candidates:
        if start < cursor:
            continue
        tags.append(TemporalExpressionTag(
            surface=question[start:end], begin=start, end=end,
            value=value, rule=pack.te_rules[index].name))
        cursor = end
    return tags
