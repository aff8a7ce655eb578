"""Reference answers, computed apart from the program.

Each signal is read on day intervals, after Allen's interval algebra
(Allen 1983, "Maintaining knowledge about temporal intervals"):

    AFTER          the focus interval starts after the restriction ends
    BEFORE         the focus interval ends before the restriction starts
    SIMULTANEOUS   the two intervals share at least one day
    WITHIN         the focus interval lies inside the restriction interval

A temporal expression in the question keeps the candidates whose interval
shares a day with the expression's interval; an undated candidate cannot be
ruled out by an expression, and cannot enter an ordering.  An offset signal
("two years after") shifts the restriction interval by the offset and asks
for the focus to be SIMULTANEOUS with the shifted interval.

Nothing here imports ``tqa``: value strings are parsed by this module.
"""

from __future__ import annotations

from datetime import date

#: Aspects judged per gold question type: the paper's applicability table.
APPLICABLE = {
    1: ("TYPE", "DECOMP"),
    2: ("TE", "TYPE", "DECOMP"),
    3: ("TE", "TYPE", "SIGNAL", "SPLIT", "DECOMP"),
    4: ("TYPE", "SIGNAL", "SPLIT", "DECOMP"),
}

_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _last_day(year: int, month: int) -> int:
    if month == 2 and year % 4 == 0 and (year % 100 != 0 or year % 400 == 0):
        return 29
    return _MONTH_DAYS[month - 1]


def _yearlike(text: str) -> tuple[date, date]:
    n = int(text)
    width = {4: 1, 3: 10, 2: 100}[len(text)]
    first = n * (10 if width == 10 else 100 if width == 100 else 1)
    return date(first, 1, 1), date(first + width - 1, 12, 31)


def interval(value: str) -> tuple[date, date]:
    """Day interval of the value forms the generator writes: YYYY, YYY
    (decade), YY (century), YYYY-YYYY, YYYY-MM and YYYY-MM-DD."""
    parts = value.split("-")
    if len(parts) == 1:
        return _yearlike(parts[0])
    if len(parts) == 3:
        day = date(int(parts[0]), int(parts[1]), int(parts[2]))
        return day, day
    low, high = parts
    if len(high) == 2:
        year, month = int(low), int(high)
        return date(year, month, 1), date(year, month, _last_day(year, month))
    return _yearlike(low)[0], _yearlike(high)[1]


def overlaps(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def shift_years(iv, years: int):
    """Move an interval by whole years (1 January and 31 December stay so)."""
    return (iv[0].replace(year=iv[0].year + years),
            iv[1].replace(year=iv[1].year + years))


def holds(relation: str, focus, restriction) -> bool:
    if relation == "AFTER":
        return focus[0] > restriction[1]
    if relation == "BEFORE":
        return focus[1] < restriction[0]
    if relation == "SIMULTANEOUS":
        return overlaps(focus, restriction)
    if relation == "WITHIN":
        return restriction[0] <= focus[0] and focus[1] <= restriction[1]
    raise ValueError(f"unknown relation {relation!r}")


def unsettled(relation: str, focus, restriction) -> bool:
    """Is this a case where a start-day reading and the interval reading
    disagree?  The random stream leaves these out: partial overlaps under
    AFTER, BEFORE and WITHIN wait for a documented rule, and a SIMULTANEOUS
    overlap that does not share the start day is the labelled fault slice."""
    if not overlaps(focus, restriction):
        return False
    if relation == "SIMULTANEOUS":
        return focus[0] != restriction[0]
    if relation == "WITHIN":
        return not holds("WITHIN", focus, restriction)
    return True


def expected_answers(te_values, relation, offset_years, focus, restriction):
    """Texts of the focus candidates a correct layer returns, in rank order.

    ``focus`` and ``restriction`` are ranked lists of (text, value-or-None).
    """
    constraints = [interval(v) for v in te_values]

    def passes(candidate):
        value = candidate[1]
        if value is None:
            return True
        iv = interval(value)
        return all(overlaps(iv, c) for c in constraints)

    kept = [c for c in focus if passes(c)]
    if relation is None:
        return tuple(text for text, _ in kept)
    surviving = [c for c in restriction if passes(c)]
    if not surviving:
        return ()
    ref = interval(surviving[0][1])
    if offset_years:
        ref = shift_years(ref, offset_years)
        relation = "SIMULTANEOUS"
    return tuple(text for text, value in kept
                 if value is not None and holds(relation, interval(value), ref))


def applicable_pos(qtypes) -> tuple[dict, dict]:
    """POS per aspect and per type row that the applicability table gives."""
    aspects = {a: 0 for a in ("TE", "TYPE", "SIGNAL", "SPLIT", "DECOMP")}
    types = {}
    for qtype in qtypes:
        for aspect in APPLICABLE[qtype]:
            aspects[aspect] += 1
        types[f"Type {qtype}"] = types.get(f"Type {qtype}", 0) + 1
    types["GLOBAL"] = len(qtypes)
    return {a: n for a, n in aspects.items() if n}, types
