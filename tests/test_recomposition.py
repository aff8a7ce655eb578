"""Answer filtering and ordering-key compatibility, checked against a naive
day-enumeration oracle."""

from __future__ import annotations

import dataclasses
import random
from datetime import date, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tqa.errors import Diagnostic
from tqa.recomposition import (
    DatedAnswer,
    filter_by_te,
    recompose,
)
from tqa.time_model import DayInterval, Relation, TimeValue, to_interval


def answer(text, rank, value=None):
    return DatedAnswer(text=text, rank=rank,
                       value=TimeValue(value) if value else None)


STUDY_ANSWERS = [
    answer("Georgetown University", 1, "1964-1968"),
    answer("Oxford University", 2, "1968-1970"),
    answer("Yale Law School", 3, "1970-1973"),
]
RESTRICTION = [answer("1968", 1, "1968")]


def texts(result):
    return [a.text for a in result.answers]


def test_filter_keeps_overlapping_answers():
    sixties = to_interval(TimeValue("196"))
    answers = [answer("1967", 1, "1967"), answer("1999", 2, "1999")]
    assert [a.text for a in filter_by_te(answers, sixties)] == ["1967"]


def test_filter_empty_input():
    assert filter_by_te([], to_interval(TimeValue("196"))) == []


def test_filter_keeps_overlapping_range():
    sixties = to_interval(TimeValue("196"))
    spanning = [answer("x", 1, "1968-1972")]
    assert filter_by_te(spanning, sixties) == spanning


def test_filter_keeps_undated():
    undated = [answer("no date", 1)]
    assert filter_by_te(undated, to_interval(TimeValue("196"))) == undated


@pytest.mark.parametrize("key,expected", [
    (Relation.BEFORE, ["Georgetown University"]),
    (Relation.AFTER, ["Yale Law School"]),
    (Relation.SIMULTANEOUS, ["Oxford University"]),
])
def test_recompose_study_example(key, expected):
    assert texts(recompose(STUDY_ANSWERS, RESTRICTION, key, [])) == expected


def test_recompose_without_key_filters_only():
    constraint = to_interval(TimeValue("1992"))
    answers = [answer("Beijing", 1, "2008"), answer("Barcelona", 2, "1992")]
    result = recompose(answers, [], None, [constraint])
    assert texts(result) == ["Barcelona"]
    assert result.applied_key is None


def test_recompose_no_restriction_answer():
    result = recompose(STUDY_ANSWERS, [], Relation.BEFORE, [])
    assert result.answers == ()
    assert Diagnostic.NO_RESTRICTION_ANSWER in result.diagnostics


def test_recompose_restriction_filtered_away():
    constraint = to_interval(TimeValue("199"))
    result = recompose(STUDY_ANSWERS, RESTRICTION, Relation.BEFORE, [constraint])
    assert result.answers == ()
    assert Diagnostic.NO_RESTRICTION_ANSWER in result.diagnostics


def test_recompose_undated_focus_fails_closed():
    focus = [answer("dated", 1, "1960"), answer("undated", 2)]
    result = recompose(focus, RESTRICTION, Relation.BEFORE, [])
    assert texts(result) == ["dated"]
    assert Diagnostic.UNDATED_ANSWER in result.diagnostics


def test_recompose_undated_reference_keeps_nothing():
    undated_reference = answer("no date", 1)
    result = recompose(STUDY_ANSWERS[:1], [undated_reference],
                       Relation.BEFORE, [])
    assert result.answers == ()
    assert result.restriction_answer == undated_reference
    assert result.diagnostics == (Diagnostic.UNDATED_ANSWER,)


def test_recompose_undated_passthrough_diagnostic():
    focus = [answer("undated", 1)]
    constraint = to_interval(TimeValue("1992"))
    result = recompose(focus, [], None, [constraint])
    assert texts(result) == ["undated"]
    assert Diagnostic.UNDATED_PASSTHROUGH in result.diagnostics


def test_recompose_preserves_backend_order():
    focus = [answer(t, i + 1, v) for i, (t, v) in enumerate(
        [("a", "1960"), ("b", "1950"), ("c", "1940")])]
    reference = [answer("r", 1, "1970")]
    result = recompose(focus, reference, Relation.BEFORE, [])
    assert texts(result) == ["a", "b", "c"]


def test_recompose_undated_restriction_passthrough_diagnostic():
    constraint = to_interval(TimeValue("196"))
    restriction = [answer("undated", 1), answer("1968", 2, "1968")]
    result = recompose(STUDY_ANSWERS, restriction, Relation.BEFORE,
                       [constraint])
    assert result.restriction_answer == restriction[0]
    assert result.diagnostics == (Diagnostic.UNDATED_PASSTHROUGH,
                                  Diagnostic.UNDATED_ANSWER)


def test_recompose_all_dated_has_no_passthrough_diagnostic():
    constraint = to_interval(TimeValue("196"))
    result = recompose(STUDY_ANSWERS, RESTRICTION, Relation.BEFORE,
                       [constraint])
    assert texts(result) == ["Georgetown University"]
    assert result.diagnostics == ()


def test_dated_answer_has_no_instance_dict():
    assert not hasattr(answer("1968", 1, "1968"), "__dict__")


@pytest.mark.parametrize("value", [None, "XXXX-08-15", "1968", "196",
                                   "1968-1970", "1968-10-05"])
def test_dated_answer_interval_is_the_values(value):
    dated = answer("x", 1, value)
    want = None if value is None else TimeValue(value).interval
    assert dated.interval == want


def test_dated_answer_equality_hash_and_repr_ignore_interval():
    read, unread = answer("x", 1, "1968"), answer("x", 1, "1968")
    assert read.interval is not None
    assert read == unread and hash(read) == hash(unread)
    assert repr(read) == repr(unread) and "interval" not in repr(read)
    replaced = dataclasses.replace(read, value=TimeValue("1970"))
    assert replaced.interval == to_interval(TimeValue("1970"))


def test_dated_answer_interval_is_set_at_construction():
    value = TimeValue("1968")
    dated = DatedAnswer(text="x", rank=1, value=value)
    slot = DatedAnswer.__dict__["interval"]
    assert slot.__get__(dated, DatedAnswer) is value.interval
    assert slot.__get__(DatedAnswer(text="y", rank=1), DatedAnswer) is None


def test_dated_answer_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'date'"):
        answer("x", 1, "1968").date


def _interval_strategy(days=30):
    base = date(2000, 1, 1)
    return st.tuples(st.integers(0, days - 1), st.integers(0, days - 1)).map(
        lambda t: DayInterval(base + timedelta(days=min(t)),
                              base + timedelta(days=max(t))))


@given(_interval_strategy(), _interval_strategy(),
       st.lists(_interval_strategy(), max_size=4))
def test_filter_is_monotone_subset(constraint, tighter, intervals):
    answers = [DatedAnswer(text=str(i), rank=i + 1,
                           value=_value_for(interval))
               for i, interval in enumerate(intervals)]
    kept = filter_by_te(answers, constraint)
    assert set(kept) <= set(answers)
    if tighter.start >= constraint.start and tighter.end <= constraint.end:
        assert set(filter_by_te(answers, tighter)) <= set(kept)


def _value_for(interval: DayInterval):
    lo = TimeValue(f"{interval.start.year:04d}-{interval.start.month:02d}-"
                     f"{interval.start.day:02d}")
    hi = TimeValue(f"{interval.end.year:04d}-{interval.end.month:02d}-"
                     f"{interval.end.day:02d}")
    if lo == hi:
        return lo
    # day-granular ranges are not in the value grammar; use the pair of
    # bounding days through a date-valued interval answer instead
    return None


class _DayOracle:
    """Dumb re-implementation over materialized day sets."""

    @staticmethod
    def days(interval):
        out = []
        day = interval.start
        while day <= interval.end:
            out.append(day)
            day += timedelta(days=1)
        return out

    @classmethod
    def holds(cls, key, f1, f2):
        d1, d2 = cls.days(f1), cls.days(f2)
        if key is Relation.AFTER:
            return min(d1) > min(d2)
        if key is Relation.BEFORE:
            return min(d1) < min(d2)
        if key is Relation.SIMULTANEOUS:
            return min(d1) == min(d2)
        return bool(set(d1) & set(d2))

    @classmethod
    def recompose(cls, focus, restriction, key, constraints):
        def keep(a):
            return a[1] is None or all(
                set(cls.days(a[1])) & set(cls.days(c)) for c in constraints)

        focus = [a for a in focus if keep(a)]
        restriction = [a for a in restriction if keep(a)]
        if key is None:
            return [a[0] for a in focus]
        if not restriction:
            return []
        reference = restriction[0]
        if reference[1] is None:
            return []
        return [text for text, interval in focus
                if interval is not None
                and cls.holds(key, interval, reference[1])]


def test_recompose_agrees_with_day_oracle():
    rng = random.Random(20080101)
    base = date(2000, 1, 1)

    def rand_interval():
        a, b = sorted(rng.randrange(30) for _ in range(2))
        return DayInterval(base + timedelta(days=a), base + timedelta(days=b))

    def rand_answers(n, undated_ok=True):
        out = []
        for i in range(n):
            interval = None
            if not undated_ok or rng.random() > 0.15:
                interval = rand_interval()
            out.append((f"a{i}", interval))
        return out

    keys = [None, Relation.AFTER, Relation.BEFORE, Relation.SIMULTANEOUS,
            Relation.WITHIN]
    checked = 0
    for trial in range(1000):
        key = keys[trial % len(keys)]
        focus_spec = rand_answers(rng.randint(0, 5))
        restriction_spec = rand_answers(rng.randint(0, 3))
        constraints = [rand_interval() for _ in range(rng.randint(0, 2))]

        focus = [_FakeDated(text, i + 1, interval)
                 for i, (text, interval) in enumerate(focus_spec)]
        restriction = [_FakeDated(text, i + 1, interval)
                       for i, (text, interval) in enumerate(restriction_spec)]
        got = [a.text for a in
               recompose(focus, restriction, key, constraints).answers]
        want = _DayOracle.recompose(focus_spec, restriction_spec, key,
                                    constraints)
        assert got == want, (trial, key, focus_spec, restriction_spec,
                             constraints)
        checked += 1
    assert checked == 1000


class _FakeDated(DatedAnswer):
    """Dated answer with a directly supplied interval (day-granular ranges
    are not expressible as canonical values)."""

    def __init__(self, text, rank, interval):
        super().__init__(text=text, rank=rank, value=None)
        object.__setattr__(self, "interval", interval)


def test_before_with_all_later_focus_is_empty():
    rng = random.Random(7)
    base = date(2000, 1, 1)
    for _ in range(200):
        r_start = rng.randrange(5)
        restriction = [_FakeDated("r", 1, DayInterval(
            base + timedelta(days=r_start), base + timedelta(days=r_start)))]
        focus = []
        for i in range(rng.randint(1, 5)):
            s = r_start + rng.randint(0, 10)
            e = s + rng.randint(0, 5)
            focus.append(_FakeDated(f"f{i}", i + 1, DayInterval(
                base + timedelta(days=s), base + timedelta(days=e))))
        result = recompose(focus, restriction, Relation.BEFORE, [])
        assert result.answers == ()
