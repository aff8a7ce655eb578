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
maps to the tightest ``DayInterval`` covering the days it denotes.  A
``TimeValue`` is its canonical string and that interval.  The grammar is
one builder per production (year-like, year-month, day, month-day), which
holds the production's calendar checks and gives both from its numbers:
``_parse`` reads a value string and calls the builder of the production it
matches, and each ``TimeValue.of_*`` constructor calls its builder
directly, so no value is printed only to be read back.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from datetime import date

from .errors import MalformedValue, UnanchoredValue


class Relation(enum.Enum):
    """Ordering a temporal signal imposes between a focus date F1 and a
    restriction date or period F2."""

    AFTER = "AFTER"                # F1 starts on a later day than F2
    BEFORE = "BEFORE"              # F1 starts on an earlier day than F2
    SIMULTANEOUS = "SIMULTANEOUS"  # F1 starts on the day F2 starts
    WITHIN = "WITHIN"              # F1 and F2 share at least one day


@dataclass(frozen=True, slots=True)
class DayInterval:
    """Inclusive [start, end] span of calendar days."""

    start: date
    end: date

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} after end {self.end}")


# Maximum day number per month; 29 for February since underspecified dates
# have no year to rule a leap day out (a year-month ends on the 28th of a
# February outside a Gregorian leap year).
_MAX_DAY = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

_DATE_RE = re.compile(r"(\d{4}|XXXX)-(\d{2})-(\d{2})")
_YEAR_MONTH_RE = re.compile(r"(\d{4})-(\d{2})")
_YEARLIKE_RE = re.compile(r"(\d{2,4})(?:-(\d{2,4}))?")

# The grammar's builders, one per production: each takes the production's
# numbers, holds its calendar checks (a ValueError for numbers outside
# them) and gives the canonical string and the interval.


def _years(n: int, width: int) -> tuple[str, date, date]:
    """A year, a decade prefix (10 years) or a century prefix (100), of
    ``width`` 4, 3 or 2 digits: its digits and its first and last day.
    date() rejects a number below 1 or past ``width`` digits, whose years
    fall outside 1..9999."""
    years = 10 ** (4 - width)
    first, last = date(n * years, 1, 1), date(n * years + years - 1, 12, 31)
    return f"{n:0{width}d}", first, last


def _yearlike(low: tuple[int, int],
              high: tuple[int, int] | None = None) -> tuple[str, DayInterval]:
    """The year-like value of one (number, width) bound, or the range from
    the first day of ``low`` to the last of ``high``; DayInterval rejects a
    low bound that starts after the high one ends."""
    text, first, last = _years(*low)
    if high is not None:
        high_text, _, last = _years(*high)
        text = f"{text}-{high_text}"
    return text, DayInterval(first, last)


def _range(low: "TimeValue", high: "TimeValue") -> tuple[str, DayInterval]:
    """The range from the first day of ``low`` to the last of ``high``,
    read from their intervals.  It rejects what "[low-high]" is rejected
    for: a bound that is not year-like, a pair that reads as a calendar
    month ("1150-12") and a descending pair."""
    a, b = low.canonical, high.canonical
    if not (a.isdigit() and b.isdigit()) \
            or len(a) == 4 and len(b) == 2 and int(b) <= 12:
        raise ValueError(f"[{a}-{b}] encloses a non-range")
    return f"{a}-{b}", DayInterval(low.interval.start, high.interval.end)


def _year_month(year: int, month: int) -> tuple[str, DayInterval]:
    if not 1 <= month <= 12:
        raise ValueError(f"month {month} not in 1..12")
    leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
    last = 28 if month == 2 and not leap else _MAX_DAY[month - 1]
    return f"{year:04d}-{month:02d}", DayInterval(
        date(year, month, 1), date(year, month, last))


def _day(year: int, month: int, day: int) -> tuple[str, DayInterval]:
    the_day = date(year, month, day)
    return the_day.isoformat(), DayInterval(the_day, the_day)


def _month_day(month: int, day: int) -> tuple[str, None]:
    if not (1 <= month <= 12 and 1 <= day <= _MAX_DAY[month - 1]):
        raise ValueError("no such month and day")
    return f"XXXX-{month:02d}-{day:02d}", None


def _parse(text: str) -> tuple[str, DayInterval | None]:
    """The canonical form of a value string and the tightest day interval
    covering the days it denotes (None for ``XXXX-MM-DD``), read by the
    production's builder.  Digits are read as numbers and printed back in
    ASCII, and '[A-B]' becomes A-B."""
    if not text:
        raise MalformedValue("empty value string")
    body, bracketed = text.strip(), False
    while body.startswith("[") and body.endswith("]"):
        body, bracketed = body[1:-1].strip(), True
    # each production is tried only where the ones before it do not match
    day_match = _DATE_RE.fullmatch(body)
    month_match = yearlike = None
    if not day_match:
        month_match = _YEAR_MONTH_RE.fullmatch(body)
        if month_match and not 1 <= int(month_match[2]) <= 12:
            month_match = None  # "1250-13" is a year-to-century range
        if not month_match:
            yearlike = _YEARLIKE_RE.fullmatch(body)
    # brackets may enclose only a range of two year-like values
    if bracketed and (month_match or not yearlike or not yearlike[2]):
        raise MalformedValue(f"{text!r}: brackets enclose a non-range")
    try:
        if day_match:
            year, month, day = day_match.groups()
            if year == "XXXX":
                return _month_day(int(month), int(day))
            return _day(int(year), int(month), int(day))
        if month_match:
            return _year_month(int(month_match[1]), int(month_match[2]))
        if yearlike:
            low, high = yearlike.groups()
            return _yearlike((int(low), len(low)),
                             high and (int(high), len(high)))
    except ValueError as exc:
        raise MalformedValue(f"{text!r}: {exc}") from None
    raise MalformedValue(f"{text!r} matches no value production")


@dataclass(frozen=True, slots=True)
class TimeValue:
    """One value of the canonical grammar: its canonical string, and the
    day interval it denotes or None when it has no absolute year.  Both
    come from the production's builder: ``TimeValue(text)`` reads the
    text with ``_parse``, and each ``of_*`` constructor calls its
    builder on the numbers, with no string to read back.  Equality and
    hash compare the canonical string."""

    canonical: str
    interval: DayInterval | None = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        canonical, interval = _parse(self.canonical)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "interval", interval)

    @classmethod
    def _build(cls, builder, *parts) -> "TimeValue":
        """The value ``builder`` gives for ``parts``; MalformedValue for
        parts outside its checks."""
        try:
            canonical, interval = builder(*parts)
        except ValueError as exc:
            raise MalformedValue(str(exc)) from None
        value = object.__new__(cls)
        object.__setattr__(value, "canonical", canonical)
        object.__setattr__(value, "interval", interval)
        return value

    @classmethod
    def of_year(cls, year: int) -> "TimeValue":
        return cls._build(_yearlike, (year, 4))

    @classmethod
    def of_decade(cls, prefix: int) -> "TimeValue":
        return cls._build(_yearlike, (prefix, 3))

    @classmethod
    def of_century(cls, prefix: int) -> "TimeValue":
        return cls._build(_yearlike, (prefix, 2))

    @classmethod
    def of_year_month(cls, year: int, month: int) -> "TimeValue":
        return cls._build(_year_month, year, month)

    @classmethod
    def of_date(cls, year: int, month: int, day: int) -> "TimeValue":
        return cls._build(_day, year, month, day)

    @classmethod
    def of_month_day(cls, month: int, day: int) -> "TimeValue":
        return cls._build(_month_day, month, day)

    @classmethod
    def of_range(cls, low: "TimeValue", high: "TimeValue") -> "TimeValue":
        return cls._build(_range, low, high)


def to_interval(v: TimeValue) -> DayInterval:
    """``v.interval``; UnanchoredValue for a value without an absolute
    year."""
    if v.interval is None:
        raise UnanchoredValue(f"{v.canonical} has no absolute year")
    return v.interval


def relation_test(key: Relation,
                  f2: DayInterval) -> Callable[[DayInterval], bool]:
    """The test of an ordering relation against the interval ``f2``: a
    function of the interval ``f1`` that reads ``f2``'s bounds from its
    closure, so a list is checked with one call per candidate.

    Point formulas generalize to intervals through their start days for
    the strict orders and equality; WITHIN uses overlap.
    """
    start, end = f2.start, f2.end
    if key is Relation.AFTER:
        return lambda f1: f1.start > start
    if key is Relation.BEFORE:
        return lambda f1: f1.start < start
    if key is Relation.SIMULTANEOUS:
        return lambda f1: f1.start == start
    return lambda f1: f1.start <= end and start <= f1.end
