"""Canonical temporal values and the day-interval algebra.

Value grammar (all productions, nothing else parses):

    YYYY          calendar year                     "1968"
    YYY           decade prefix, the 10 years       "195"  -> 1950..1959
    YY            century prefix, the 100 years     "16"   -> 1600..1699
    YYYY-MM       calendar month                    "1990-08"
    YYYY-MM-DD    calendar day                      "1990-08-15"
    XXXX-MM-DD    month and day, year unknown       "XXXX-08-15"
    V1-V2         range of two year-like values     "1939-1975"
    [V1-V2]       accepted on input, emitted as V1-V2

Calendar is proleptic Gregorian at day granularity; every anchored value
maps to the tightest ``DayInterval`` covering the days it denotes.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from datetime import date
from functools import cached_property

from .errors import MalformedValue, UnanchoredValue


class Relation(enum.Enum):
    """Ordering a temporal signal imposes between a focus date F1 and a
    restriction date or period F2."""

    AFTER = "AFTER"                # F1 > F2
    BEFORE = "BEFORE"              # F1 < F2
    SIMULTANEOUS = "SIMULTANEOUS"  # F1 = F2
    WITHIN = "WITHIN"              # F2i <= F1 <= F2f


class ValueKind(enum.Enum):
    YEAR = "YEAR"
    DECADE_PREFIX = "DECADE_PREFIX"
    CENTURY_PREFIX = "CENTURY_PREFIX"
    YEAR_MONTH = "YEAR_MONTH"
    DATE = "DATE"
    UNDERSPECIFIED_DATE = "UNDERSPECIFIED_DATE"
    RANGE = "RANGE"


@dataclass(frozen=True)
class DayInterval:
    """Inclusive [start, end] span of calendar days."""

    start: date
    end: date

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} after end {self.end}")

    @classmethod
    def of_year(cls, year: int) -> "DayInterval":
        return cls(date(year, 1, 1), date(year, 12, 31))

    @classmethod
    def single(cls, day: date) -> "DayInterval":
        return cls(day, day)

    def overlaps(self, other: "DayInterval") -> bool:
        return self.start <= other.end and other.start <= self.end


# Maximum day number per month; 29 for February since underspecified dates
# have no year to rule a leap day out (a year-month ends on the 28th of a
# February outside a Gregorian leap year).
_MAX_DAY = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


@dataclass(frozen=True)
class TimeValue:
    """One value of the canonical grammar, with parsed components.

    Component use by kind: YEAR -> year; DECADE_PREFIX / CENTURY_PREFIX ->
    prefix; YEAR_MONTH -> year, month; DATE -> year, month, day;
    UNDERSPECIFIED_DATE -> month, day; RANGE -> low, high.
    """

    kind: ValueKind
    year: int | None = None
    month: int | None = None
    day: int | None = None
    prefix: int | None = None
    low: "TimeValue | None" = None
    high: "TimeValue | None" = None

    def __post_init__(self):
        kind = self.kind
        if kind is ValueKind.YEAR:
            self._need(self.year is not None and self.year >= 1, "year >= 1")
        elif kind is ValueKind.DECADE_PREFIX:
            self._need(self.prefix is not None and 1 <= self.prefix <= 999,
                       "decade prefix in 1..999")
        elif kind is ValueKind.CENTURY_PREFIX:
            self._need(self.prefix is not None and 1 <= self.prefix <= 99,
                       "century prefix in 1..99")
        elif kind is ValueKind.YEAR_MONTH:
            self._need(self.year is not None and self.year >= 1, "year >= 1")
            self._need(self.month is not None and 1 <= self.month <= 12,
                       "month in 1..12")
        elif kind is ValueKind.DATE:
            self._need(self.year is not None and self.year >= 1, "year >= 1")
            date(self.year, self.month, self.day)
        elif kind is ValueKind.UNDERSPECIFIED_DATE:
            self._need(self.month is not None and 1 <= self.month <= 12,
                       "month in 1..12")
            self._need(self.day is not None
                       and 1 <= self.day <= _MAX_DAY[self.month - 1],
                       "valid day for month")
        elif kind is ValueKind.RANGE:
            self._need(self.low is not None and self.high is not None,
                       "range bounds present")
            yearlike = (ValueKind.YEAR, ValueKind.DECADE_PREFIX,
                        ValueKind.CENTURY_PREFIX)
            self._need(self.low.kind in yearlike and self.high.kind in yearlike,
                       "range bounds are year-like")
            self._need(to_interval(self.low).start <= to_interval(self.high).end,
                       "range low starts no later than high ends")
            # "YYYY-NN" with NN <= 12 already means a calendar month, so a
            # year-to-century range that would print that way cannot exist
            self._need(not (self.low.kind is ValueKind.YEAR
                            and self.high.kind is ValueKind.CENTURY_PREFIX
                            and self.high.prefix <= 12),
                       "range distinguishable from a calendar month")

    def _need(self, condition, what):
        if not condition:
            raise MalformedValue(f"{self.kind.value}: expected {what}")

    @property
    def canonical(self) -> str:
        return format_value(self)

    @cached_property
    def interval(self) -> DayInterval | None:
        """``to_interval(self)``, computed on first access and kept; None
        for a value without an absolute year."""
        try:
            return to_interval(self)
        except UnanchoredValue:
            return None

    @classmethod
    def of_year(cls, year: int) -> "TimeValue":
        return cls(ValueKind.YEAR, year=year)

    @classmethod
    def of_decade(cls, prefix: int) -> "TimeValue":
        return cls(ValueKind.DECADE_PREFIX, prefix=prefix)

    @classmethod
    def of_century(cls, prefix: int) -> "TimeValue":
        return cls(ValueKind.CENTURY_PREFIX, prefix=prefix)

    @classmethod
    def of_year_month(cls, year: int, month: int) -> "TimeValue":
        return cls(ValueKind.YEAR_MONTH, year=year, month=month)

    @classmethod
    def of_date(cls, year: int, month: int, day: int) -> "TimeValue":
        return cls(ValueKind.DATE, year=year, month=month, day=day)

    @classmethod
    def of_month_day(cls, month: int, day: int) -> "TimeValue":
        return cls(ValueKind.UNDERSPECIFIED_DATE, month=month, day=day)

    @classmethod
    def of_range(cls, low: "TimeValue", high: "TimeValue") -> "TimeValue":
        return cls(ValueKind.RANGE, low=low, high=high)


_DATE_RE = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")
_UNDERSPEC_RE = re.compile(r"^XXXX-(\d{2})-(\d{2})$")
_YEAR_MONTH_RE = re.compile(r"^(\d{4})-(\d{2})$")
_RANGE_RE = re.compile(r"^(\d{2,4})-(\d{2,4})$")
_YEARLIKE_KINDS = {4: ValueKind.YEAR, 3: ValueKind.DECADE_PREFIX,
                   2: ValueKind.CENTURY_PREFIX}


def _parse_yearlike(text: str) -> TimeValue:
    kind = _YEARLIKE_KINDS[len(text)]
    n = int(text)
    try:
        if kind is ValueKind.YEAR:
            return TimeValue.of_year(n)
        if kind is ValueKind.DECADE_PREFIX:
            return TimeValue.of_decade(n)
        return TimeValue.of_century(n)
    except MalformedValue as exc:
        raise MalformedValue(f"{text!r}: {exc}") from None


def parse_value(text: str) -> TimeValue:
    """Parse a canonical value string; '[A-B]' normalizes to the range A-B."""
    if not text:
        raise MalformedValue("empty value string")
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        inner = parse_value(body[1:-1])
        if inner.kind is not ValueKind.RANGE:
            raise MalformedValue(f"{text!r}: brackets enclose a non-range")
        return inner
    try:
        m = _DATE_RE.match(body)
        if m:
            return TimeValue.of_date(int(m.group(1)), int(m.group(2)),
                                     int(m.group(3)))
        m = _UNDERSPEC_RE.match(body)
        if m:
            return TimeValue.of_month_day(int(m.group(1)), int(m.group(2)))
        m = _YEAR_MONTH_RE.match(body)
        if m and 1 <= int(m.group(2)) <= 12:
            return TimeValue.of_year_month(int(m.group(1)), int(m.group(2)))
        m = _RANGE_RE.match(body)
        if m:
            return TimeValue.of_range(_parse_yearlike(m.group(1)),
                                      _parse_yearlike(m.group(2)))
        if re.fullmatch(r"\d{2,4}", body):
            return _parse_yearlike(body)
    except MalformedValue:
        raise
    except ValueError as exc:
        raise MalformedValue(f"{text!r}: {exc}") from None
    raise MalformedValue(f"{text!r} matches no value production")


def format_value(v: TimeValue) -> str:
    """Emit the canonical form (ranges always hyphenated, no brackets)."""
    kind = v.kind
    if kind is ValueKind.YEAR:
        return f"{v.year:04d}"
    if kind is ValueKind.DECADE_PREFIX:
        return f"{v.prefix:03d}"
    if kind is ValueKind.CENTURY_PREFIX:
        return f"{v.prefix:02d}"
    if kind is ValueKind.YEAR_MONTH:
        return f"{v.year:04d}-{v.month:02d}"
    if kind is ValueKind.DATE:
        return f"{v.year:04d}-{v.month:02d}-{v.day:02d}"
    if kind is ValueKind.UNDERSPECIFIED_DATE:
        return f"XXXX-{v.month:02d}-{v.day:02d}"
    return f"{format_value(v.low)}-{format_value(v.high)}"


def to_interval(v: TimeValue) -> DayInterval:
    """Tightest day interval covering every day the value denotes."""
    kind = v.kind
    if kind is ValueKind.YEAR:
        return DayInterval.of_year(v.year)
    if kind is ValueKind.DECADE_PREFIX:
        first = v.prefix * 10
        return DayInterval(date(first, 1, 1), date(first + 9, 12, 31))
    if kind is ValueKind.CENTURY_PREFIX:
        first = v.prefix * 100
        return DayInterval(date(first, 1, 1), date(first + 99, 12, 31))
    if kind is ValueKind.YEAR_MONTH:
        leap = v.year % 4 == 0 and (v.year % 100 != 0 or v.year % 400 == 0)
        last = 28 if v.month == 2 and not leap else _MAX_DAY[v.month - 1]
        return DayInterval(date(v.year, v.month, 1), date(v.year, v.month, last))
    if kind is ValueKind.DATE:
        return DayInterval.single(date(v.year, v.month, v.day))
    if kind is ValueKind.RANGE:
        return DayInterval(to_interval(v.low).start, to_interval(v.high).end)
    raise UnanchoredValue(f"{format_value(v)} has no absolute year")


def relation_holds(key: Relation, f1: DayInterval, f2: DayInterval) -> bool:
    """Evaluate an ordering relation between day intervals.

    Point formulas generalize to intervals through their start days for
    the strict orders and equality; WITHIN uses overlap.
    """
    if key is Relation.AFTER:
        return f1.start > f2.start
    if key is Relation.BEFORE:
        return f1.start < f2.start
    if key is Relation.SIMULTANEOUS:
        return f1.start == f2.start
    return f1.overlaps(f2)
