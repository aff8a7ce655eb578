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
``TimeValue`` is its canonical string and that interval, both set by
``_parse`` when the value is made; ``_parse`` holds every production and
every range check of the grammar.
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

    AFTER = "AFTER"                # F1 > F2
    BEFORE = "BEFORE"              # F1 < F2
    SIMULTANEOUS = "SIMULTANEOUS"  # F1 = F2
    WITHIN = "WITHIN"              # F2i <= F1 <= F2f


@dataclass(frozen=True)
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


def _parse(text: str) -> tuple[str, DayInterval | None]:
    """The canonical form of a value string and the tightest day interval
    covering the days it denotes (None for ``XXXX-MM-DD``).  Digits are
    read as numbers and printed back in ASCII, and '[A-B]' becomes A-B."""
    if not text:
        raise MalformedValue("empty value string")
    body, bracketed = text.strip(), False
    while body.startswith("[") and body.endswith("]"):
        body, bracketed = body[1:-1].strip(), True
    day_match = _DATE_RE.fullmatch(body)
    month_match = _YEAR_MONTH_RE.fullmatch(body)
    if month_match and not 1 <= int(month_match[2]) <= 12:
        month_match = None  # "1250-13" is a year-to-century range
    yearlike = _YEARLIKE_RE.fullmatch(body)
    # brackets may enclose only a range of two year-like values
    if bracketed and (month_match or not yearlike or not yearlike[2]):
        raise MalformedValue(f"{text!r}: brackets enclose a non-range")
    try:
        if day_match:
            year, month, day = day_match.groups()
            month, day = int(month), int(day)
            if year == "XXXX":
                if not (1 <= month <= 12 and 1 <= day <= _MAX_DAY[month - 1]):
                    raise ValueError("no such month and day")
                return f"XXXX-{month:02d}-{day:02d}", None
            the_day = date(int(year), month, day)
            return the_day.isoformat(), DayInterval(the_day, the_day)
        if month_match:
            year, month = int(month_match[1]), int(month_match[2])
            leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
            last = 28 if month == 2 and not leap else _MAX_DAY[month - 1]
            return f"{year:04d}-{month:02d}", DayInterval(
                date(year, month, 1), date(year, month, last))
        if yearlike:
            # a year, a decade prefix (10 years) or a century prefix (100),
            # or a range from the first day of one to the last of another;
            # date() rejects a zero prefix (year 0), and DayInterval a low
            # bound that starts after the high one ends
            bounds = []
            for digits in filter(None, yearlike.groups()):
                n, width = int(digits), len(digits)
                years = 10 ** (4 - width)
                bounds.append((f"{n:0{width}d}", date(n * years, 1, 1),
                               date(n * years + years - 1, 12, 31)))
            return "-".join(b[0] for b in bounds), DayInterval(
                bounds[0][1], bounds[-1][2])
    except ValueError as exc:
        raise MalformedValue(f"{text!r}: {exc}") from None
    raise MalformedValue(f"{text!r} matches no value production")


@dataclass(frozen=True, slots=True)
class TimeValue:
    """One value of the canonical grammar: its canonical string, and the
    day interval it denotes or None when it has no absolute year.  Both
    are set from ``_parse`` when the value is made; equality and hash
    compare the canonical string."""

    canonical: str
    interval: DayInterval | None = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        canonical, interval = _parse(self.canonical)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "interval", interval)

    @classmethod
    def of_year(cls, year: int) -> "TimeValue":
        return cls(f"{year:04d}")

    @classmethod
    def of_decade(cls, prefix: int) -> "TimeValue":
        # past 999 the prefix would print, and parse, as a year
        if not 1 <= prefix <= 999:
            raise MalformedValue(f"decade prefix {prefix} not in 1..999")
        return cls(f"{prefix:03d}")

    @classmethod
    def of_century(cls, prefix: int) -> "TimeValue":
        # past 99 the prefix would print, and parse, as a decade
        if not 1 <= prefix <= 99:
            raise MalformedValue(f"century prefix {prefix} not in 1..99")
        return cls(f"{prefix:02d}")

    @classmethod
    def of_year_month(cls, year: int, month: int) -> "TimeValue":
        # past 12 the pair would print, and parse, as a year-to-century
        # range ("1250-13")
        if not 1 <= month <= 12:
            raise MalformedValue(f"month {month} not in 1..12")
        return cls(f"{year:04d}-{month:02d}")

    @classmethod
    def of_date(cls, year: int, month: int, day: int) -> "TimeValue":
        return cls(f"{year:04d}-{month:02d}-{day:02d}")

    @classmethod
    def of_month_day(cls, month: int, day: int) -> "TimeValue":
        return cls(f"XXXX-{month:02d}-{day:02d}")

    @classmethod
    def of_range(cls, low: "TimeValue", high: "TimeValue") -> "TimeValue":
        # brackets admit only the range production, so bounds that are not
        # year-like, or a pair that prints as a calendar month ("1150-12"),
        # are rejected rather than read as another value
        return cls(f"[{low.canonical}-{high.canonical}]")


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


def relation_holds(key: Relation, f1: DayInterval, f2: DayInterval) -> bool:
    """Evaluate an ordering relation between day intervals
    (``relation_test``)."""
    return relation_test(key, f2)(f1)
