"""Value grammar and interval algebra checks."""

from __future__ import annotations

import calendar
import dataclasses
from datetime import date, timedelta

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tqa.errors import MalformedValue, UnanchoredValue
from tqa.time_model import (
    DayInterval,
    Relation,
    TimeValue,
    relation_test,
    to_interval,
)


def years_with_prefix(prefix: str) -> list[int]:
    # independent oracle: enumerate 4-digit year forms sharing the prefix
    return [y for y in range(1, 10000) if f"{y:04d}".startswith(prefix)]


def test_parse_decade_prefix():
    v = TimeValue("195")
    assert v.canonical == "195"
    assert v.interval == DayInterval(date(1950, 1, 1), date(1959, 12, 31))


def test_parse_underspecified_date():
    v = TimeValue("XXXX-08-15")
    assert v.canonical == "XXXX-08-15"
    assert v.interval is None


def test_parse_range():
    v = TimeValue("1939-1975")
    assert v.canonical == "1939-1975"
    assert v.interval == DayInterval(date(1939, 1, 1), date(1975, 12, 31))


def test_parse_bracketed_range_normalizes():
    v = TimeValue("[2003-2008]")
    assert v.canonical == "2003-2008"
    assert v == TimeValue("2003-2008")
    assert TimeValue("[1939-1975]") == TimeValue("1939-1975")


@pytest.mark.parametrize("text", ["", "abc", "19x5", "[1988]", "1975-1939",
                                  "0000", "00", "XXXX-13-01", "XXXX-02-30",
                                  "1990-00-01", "1-2", "19395"])
def test_malformed_values_rejected(text):
    with pytest.raises(MalformedValue):
        TimeValue(text)


@pytest.mark.parametrize("text", [
    "1968", "195", "16", "1990-08", "1990-08-15", "XXXX-08-15",
    "1939-1975", "196-197", "0981", "2008",
])
def test_round_trip_canonical(text):
    assert TimeValue(text).canonical == text


def test_bracket_normalization_is_the_only_rewrite():
    assert TimeValue("[1939-1975]").canonical == "1939-1975"


def test_unicode_digits_normalize_to_ascii():
    # Arabic-Indic digits: the canonical form is printed from the numbers
    v = TimeValue("\u0661\u0669\u0666\u0668")
    assert v.canonical == "1968"
    assert v == TimeValue("1968") and v.interval == TimeValue.of_year(1968).interval


@pytest.mark.parametrize("make", [
    lambda: TimeValue.of_decade(1000),   # would print as the year "1000"
    lambda: TimeValue.of_century(100),   # would print as the decade "100"
    lambda: TimeValue.of_year_month(1250, 13),  # would print as a range
    lambda: TimeValue.of_range(TimeValue.of_year(1990),
                               TimeValue.of_century(5)),  # reads as 1990-05
    lambda: TimeValue.of_range(TimeValue.of_year(1150),
                               TimeValue.of_century(12)),  # reads as 1150-12
    lambda: TimeValue.of_range(TimeValue.of_year(1975),
                               TimeValue.of_year(1939)),
    lambda: TimeValue.of_range(TimeValue.of_year_month(1990, 5),
                               TimeValue.of_year(1995)),
    lambda: TimeValue.of_year(10000),
    lambda: TimeValue.of_year(0),
], ids=["decade-1000", "century-100", "month-13", "range-1990-05",
        "range-1150-12", "range-descending", "range-month-bound",
        "year-10000", "year-0"])
def test_constructor_rejects_rather_than_rereads(make):
    with pytest.raises(MalformedValue):
        make()


def test_year_to_century_range_past_12_is_a_range():
    v = TimeValue.of_range(TimeValue.of_year(1150), TimeValue.of_century(13))
    assert v.canonical == "1150-13" and v == TimeValue("1150-13")
    assert v.interval == DayInterval(date(1150, 1, 1), date(1399, 12, 31))


def test_decade_interval_matches_enumeration():
    ys = years_with_prefix("196")
    assert to_interval(TimeValue("196")) == DayInterval(
        date(min(ys), 1, 1), date(max(ys), 12, 31))
    assert to_interval(TimeValue("196")) == DayInterval(
        date(1960, 1, 1), date(1969, 12, 31))


def test_century_interval_matches_enumeration():
    ys = years_with_prefix("16")
    assert to_interval(TimeValue("16")) == DayInterval(
        date(min(ys), 1, 1), date(max(ys), 12, 31))
    assert to_interval(TimeValue("16")) == DayInterval(
        date(1600, 1, 1), date(1699, 12, 31))


def test_year_interval_is_year_bounds():
    assert to_interval(TimeValue("2001")) == DayInterval(
        date(2001, 1, 1), date(2001, 12, 31))


def test_year_month_interval_covers_month():
    assert to_interval(TimeValue("1990-08")) == DayInterval(
        date(1990, 8, 1), date(1990, 8, 31))
    assert to_interval(TimeValue("2000-02")) == DayInterval(
        date(2000, 2, 1), date(2000, 2, 29))


@given(st.integers(1, 9999), st.integers(1, 12))
@example(1900, 2)
@example(2000, 2)
@example(2023, 2)
@example(2024, 2)
def test_year_month_interval_ends_on_the_months_last_day(year, month):
    last = calendar.monthrange(year, month)[1]
    assert (to_interval(TimeValue.of_year_month(year, month)).end
            == date(year, month, last))


def test_underspecified_has_no_interval():
    with pytest.raises(UnanchoredValue):
        to_interval(TimeValue("XXXX-08-15"))


def _value_strategy():
    years = st.integers(min_value=1, max_value=9999)
    plain = st.one_of(
        years.map(TimeValue.of_year),
        st.integers(1, 999).map(TimeValue.of_decade),
        st.integers(1, 99).map(TimeValue.of_century),
        st.tuples(years, st.integers(1, 12)).map(
            lambda t: TimeValue.of_year_month(*t)),
        st.tuples(years, st.integers(1, 12), st.integers(1, 28)).map(
            lambda t: TimeValue.of_date(*t)),
        st.tuples(st.integers(1, 12), st.integers(1, 28)).map(
            lambda t: TimeValue.of_month_day(*t)),
    )

    def as_range(pair):
        lo, hi = pair
        if to_interval(lo).start > to_interval(hi).end:
            lo, hi = hi, lo
        try:
            return TimeValue.of_range(lo, hi)
        except MalformedValue:  # month-ambiguous year/century pair
            return TimeValue.of_range(lo, lo)

    yearlike = st.one_of(
        years.map(TimeValue.of_year),
        st.integers(1, 999).map(TimeValue.of_decade),
        st.integers(1, 99).map(TimeValue.of_century),
    )
    return st.one_of(plain, st.tuples(yearlike, yearlike).map(as_range))


@given(_value_strategy())
def test_format_parse_round_trip(value):
    again = TimeValue(value.canonical)
    assert again == value and hash(again) == hash(value)
    assert again.interval == value.interval


@given(_value_strategy())
def test_intervals_are_ordered(value):
    if value.canonical.startswith("XXXX"):
        return
    iv = to_interval(value)
    assert iv.start <= iv.end


@given(_value_strategy())
def test_cached_interval_equals_to_interval(value):
    if value.canonical.startswith("XXXX"):
        assert value.interval is None
        with pytest.raises(UnanchoredValue):
            to_interval(value)
        return
    assert value.interval == to_interval(value)
    assert value.interval is to_interval(value)


def test_time_value_has_two_fields():
    assert [f.name for f in dataclasses.fields(TimeValue)] == [
        "canonical", "interval"]
    assert not hasattr(TimeValue.of_year(1968), "__dict__")
    assert repr(TimeValue.of_year(1968)) == "TimeValue(canonical='1968')"


@given(_value_strategy())
def test_replaced_value_gets_its_own_interval(value):
    if value.interval is None:
        return
    parent = value.interval
    year = value.interval.start.year % 9999 + 1
    child = dataclasses.replace(value, canonical=f"{year:04d}")
    assert child.interval == TimeValue.of_year(year).interval
    assert child.interval != parent
    assert value.interval is parent


# -- each constructor builds what its text would read as ------------------

def _made_like(make, text):
    """``make()`` gives the value ``TimeValue(text)`` reads, in canonical
    and interval, or both raise MalformedValue (``text`` None: the
    constructor refuses the numbers before it has a text)."""
    try:
        expected = None if text is None else TimeValue(text)
    except MalformedValue:
        expected = None
    if expected is None:
        with pytest.raises(MalformedValue):
            make()
        return
    got = make()
    assert (got.canonical, got.interval) == (expected.canonical,
                                             expected.interval)


#: Each ``of_*`` constructor by the text it would print for its numbers,
#: or None where it refuses them first: the form of the value grammar.
PRINTED = {
    TimeValue.of_year: lambda y: f"{y:04d}",
    TimeValue.of_decade: lambda p: f"{p:03d}" if 1 <= p <= 999 else None,
    TimeValue.of_century: lambda p: f"{p:02d}" if 1 <= p <= 99 else None,
    TimeValue.of_year_month:
        lambda y, m: f"{y:04d}-{m:02d}" if 1 <= m <= 12 else None,
    TimeValue.of_date: lambda y, m, d: f"{y:04d}-{m:02d}-{d:02d}",
    TimeValue.of_month_day: lambda m, d: f"XXXX-{m:02d}-{d:02d}",
}

#: Numbers in and out of every production's domain: year 0, negatives,
#: five digits, month 13, day 30 in February.
_NUMBERS = st.one_of(st.integers(-30, 10030),
                     st.sampled_from([0, -1, 99, 100, 999, 1000, 9999,
                                      10000, 12, 13, 29, 30, 31, 32]))
_MONTHS = st.integers(-1, 14)
_DAYS = st.integers(-1, 33)


@pytest.mark.parametrize("make, args", [
    (TimeValue.of_year, (0,)), (TimeValue.of_year, (10000,)),
    (TimeValue.of_year, (-5,)), (TimeValue.of_decade, (0,)),
    (TimeValue.of_decade, (1000,)), (TimeValue.of_century, (100,)),
    (TimeValue.of_year_month, (1250, 13)), (TimeValue.of_year_month, (0, 5)),
    (TimeValue.of_date, (2001, 2, 29)), (TimeValue.of_date, (2000, 2, 30)),
    (TimeValue.of_month_day, (2, 30)), (TimeValue.of_month_day, (2, 29)),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_constructor_at_a_domain_edge_equals_its_text(make, args):
    _made_like(lambda: make(*args), PRINTED[make](*args))


@given(st.data())
def test_each_constructor_equals_the_text_it_would_print(data):
    make = data.draw(st.sampled_from(sorted(PRINTED, key=lambda f: f.__name__)))
    numbers = {TimeValue.of_year_month: (_NUMBERS, _MONTHS),
               TimeValue.of_date: (_NUMBERS, _MONTHS, _DAYS),
               TimeValue.of_month_day: (_MONTHS, _DAYS)}.get(make, (_NUMBERS,))
    args = data.draw(st.tuples(*numbers))
    _made_like(lambda: make(*args), PRINTED[make](*args))


#: Values of every production, and bounds that make every kind of bracket
#: fault: a year and a century that read as a month, descending pairs.
_BOUNDS = [TimeValue(text) for text in (
    "1150", "1990", "0500", "195", "05", "12", "13", "16", "1990-05",
    "1990-05-12", "XXXX-05-12", "1939-1975", "05-12")]


@pytest.mark.parametrize("low", _BOUNDS, ids=lambda v: v.canonical)
@pytest.mark.parametrize("high", _BOUNDS, ids=lambda v: v.canonical)
def test_range_equals_its_bracketed_text(low, high):
    _made_like(lambda: TimeValue.of_range(low, high),
               f"[{low.canonical}-{high.canonical}]")


@given(_value_strategy(), _value_strategy())
def test_range_of_any_values_equals_its_bracketed_text(low, high):
    _made_like(lambda: TimeValue.of_range(low, high),
               f"[{low.canonical}-{high.canonical}]")


def _window_intervals(base=date(2000, 1, 1), days=10):
    out = []
    for s in range(days):
        for e in range(s, days):
            out.append(DayInterval(base + timedelta(days=s),
                                   base + timedelta(days=e)))
    return out


def test_before_after_antisymmetric_on_disjoint_intervals():
    for a in _window_intervals():
        for b in _window_intervals():
            if a.end < b.start:  # a entirely earlier
                assert relation_test(Relation.BEFORE, b)(a)
                assert not relation_test(Relation.AFTER, b)(a)
                assert relation_test(Relation.AFTER, a)(b)
                assert not relation_test(Relation.BEFORE, a)(b)


def test_simultaneous_is_start_equality():
    month = DayInterval(date(1990, 8, 1), date(1990, 8, 31))
    assert relation_test(Relation.SIMULTANEOUS, month)(month)
    # a period sharing only its end with the reference does not qualify
    earlier = DayInterval(date(1964, 1, 1), date(1968, 12, 31))
    y1968 = TimeValue.of_year(1968).interval
    assert not relation_test(Relation.SIMULTANEOUS, y1968)(earlier)
    same_start = DayInterval(date(1968, 1, 1), date(1970, 12, 31))
    assert relation_test(Relation.SIMULTANEOUS, y1968)(same_start)


def test_ordering_reproduces_study_periods_example():
    georgetown = to_interval(TimeValue("1964-1968"))
    oxford = to_interval(TimeValue("1968-1970"))
    yale = to_interval(TimeValue("1970-1973"))
    restriction = to_interval(TimeValue("1968"))
    assert relation_test(Relation.BEFORE, restriction)(georgetown)
    assert not relation_test(Relation.BEFORE, restriction)(oxford)
    assert not relation_test(Relation.BEFORE, restriction)(yale)
    assert relation_test(Relation.AFTER, restriction)(yale)
    assert not relation_test(Relation.AFTER, restriction)(georgetown)
    assert relation_test(Relation.SIMULTANEOUS, restriction)(oxford)
    assert not relation_test(Relation.SIMULTANEOUS, restriction)(georgetown)
