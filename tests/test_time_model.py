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
    parse_value,
    relation_holds,
    to_interval,
)


def years_with_prefix(prefix: str) -> list[int]:
    # independent oracle: enumerate 4-digit year forms sharing the prefix
    return [y for y in range(1, 10000) if f"{y:04d}".startswith(prefix)]


def test_parse_decade_prefix():
    v = parse_value("195")
    assert v.canonical == "195"
    assert v.interval == DayInterval(date(1950, 1, 1), date(1959, 12, 31))


def test_parse_underspecified_date():
    v = parse_value("XXXX-08-15")
    assert v.canonical == "XXXX-08-15"
    assert v.interval is None


def test_parse_range():
    v = parse_value("1939-1975")
    assert v.canonical == "1939-1975"
    assert v.interval == DayInterval(date(1939, 1, 1), date(1975, 12, 31))


def test_parse_bracketed_range_normalizes():
    v = parse_value("[2003-2008]")
    assert v.canonical == "2003-2008"
    assert v == parse_value("2003-2008")
    assert parse_value("[1939-1975]") == parse_value("1939-1975")


@pytest.mark.parametrize("text", ["", "abc", "19x5", "[1988]", "1975-1939",
                                  "0000", "00", "XXXX-13-01", "XXXX-02-30",
                                  "1990-00-01", "1-2", "19395"])
def test_malformed_values_rejected(text):
    with pytest.raises(MalformedValue):
        parse_value(text)


@pytest.mark.parametrize("text", [
    "1968", "195", "16", "1990-08", "1990-08-15", "XXXX-08-15",
    "1939-1975", "196-197", "0981", "2008",
])
def test_round_trip_canonical(text):
    assert parse_value(text).canonical == text


def test_bracket_normalization_is_the_only_rewrite():
    assert parse_value("[1939-1975]").canonical == "1939-1975"


def test_unicode_digits_normalize_to_ascii():
    # Arabic-Indic digits: the canonical form is printed from the numbers
    v = parse_value("\u0661\u0669\u0666\u0668")
    assert v.canonical == "1968"
    assert v == parse_value("1968") and v.interval == DayInterval.of_year(1968)


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
    assert v.canonical == "1150-13" and v == parse_value("1150-13")
    assert v.interval == DayInterval(date(1150, 1, 1), date(1399, 12, 31))


def test_decade_interval_matches_enumeration():
    ys = years_with_prefix("196")
    assert to_interval(parse_value("196")) == DayInterval(
        date(min(ys), 1, 1), date(max(ys), 12, 31))
    assert to_interval(parse_value("196")) == DayInterval(
        date(1960, 1, 1), date(1969, 12, 31))


def test_century_interval_matches_enumeration():
    ys = years_with_prefix("16")
    assert to_interval(parse_value("16")) == DayInterval(
        date(min(ys), 1, 1), date(max(ys), 12, 31))
    assert to_interval(parse_value("16")) == DayInterval(
        date(1600, 1, 1), date(1699, 12, 31))


def test_year_interval_is_year_bounds():
    assert to_interval(parse_value("2001")) == DayInterval(
        date(2001, 1, 1), date(2001, 12, 31))


def test_year_month_interval_covers_month():
    assert to_interval(parse_value("1990-08")) == DayInterval(
        date(1990, 8, 1), date(1990, 8, 31))
    assert to_interval(parse_value("2000-02")) == DayInterval(
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
        to_interval(parse_value("XXXX-08-15"))


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
    again = parse_value(value.canonical)
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
    assert child.interval == DayInterval.of_year(year)
    assert child.interval != parent
    assert value.interval is parent


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
                assert relation_holds(Relation.BEFORE, a, b)
                assert not relation_holds(Relation.AFTER, a, b)
                assert relation_holds(Relation.AFTER, b, a)
                assert not relation_holds(Relation.BEFORE, b, a)


def test_simultaneous_is_start_equality():
    month = DayInterval(date(1990, 8, 1), date(1990, 8, 31))
    assert relation_holds(Relation.SIMULTANEOUS, month, month)
    # a period sharing only its end with the reference does not qualify
    earlier = DayInterval(date(1964, 1, 1), date(1968, 12, 31))
    y1968 = DayInterval.of_year(1968)
    assert not relation_holds(Relation.SIMULTANEOUS, earlier, y1968)
    same_start = DayInterval(date(1968, 1, 1), date(1970, 12, 31))
    assert relation_holds(Relation.SIMULTANEOUS, same_start, y1968)


def test_ordering_reproduces_study_periods_example():
    georgetown = to_interval(parse_value("1964-1968"))
    oxford = to_interval(parse_value("1968-1970"))
    yale = to_interval(parse_value("1970-1973"))
    restriction = to_interval(parse_value("1968"))
    assert relation_holds(Relation.BEFORE, georgetown, restriction)
    assert not relation_holds(Relation.BEFORE, oxford, restriction)
    assert not relation_holds(Relation.BEFORE, yale, restriction)
    assert relation_holds(Relation.AFTER, yale, restriction)
    assert not relation_holds(Relation.AFTER, georgetown, restriction)
    assert relation_holds(Relation.SIMULTANEOUS, oxford, restriction)
    assert not relation_holds(Relation.SIMULTANEOUS, georgetown, restriction)
