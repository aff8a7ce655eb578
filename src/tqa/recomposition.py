"""Answer recomposition: temporal filtering and ordering-key compatibility.

Candidate answers to the focus question are filtered against the temporal
expressions of the original question, then checked for compatibility with
the restriction answer under the signal's ordering key.  Backend rank order
is preserved throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Diagnostic
from .time_model import DayInterval, Relation, TimeValue, relation_test


@dataclass(frozen=True, slots=True)
class DatedAnswer:
    """A ranked candidate answer with an optional attached date.

    ``interval`` is ``value.interval`` (None when undated or unanchored),
    copied into the answer's own slot when it is made.
    """

    text: str
    rank: int
    value: TimeValue | None = None
    interval: DayInterval | None = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        object.__setattr__(self, "interval", None if self.value is None
                           else self.value.interval)


@dataclass(frozen=True)
class ComplexAnswer:
    """Final answer set for a complex question, in backend order."""

    answers: tuple[DatedAnswer, ...]
    restriction_answer: DatedAnswer | None
    applied_key: Relation | None
    diagnostics: tuple[Diagnostic, ...] = ()


def filter_by_te(answers, constraint: DayInterval) -> list[DatedAnswer]:
    """Keep answers whose interval overlaps the constraint; undated answers
    pass through (they cannot be ruled out).  Order is preserved."""
    start, end = constraint.start, constraint.end
    return [answer for answer in answers
            if (f1 := answer.interval) is None
            or (f1.start <= end and start <= f1.end)]


def _any_undated(answers) -> bool:
    """Whether some answer has no interval (a plain loop: about three times
    as fast on a long list as ``any`` over a generator)."""
    for answer in answers:
        if answer.interval is None:
            return True
    return False


def recompose(focus_answers, restriction_answers, key: Relation | None,
              te_constraints) -> ComplexAnswer:
    """Build the final answer set.

    Every constraint interval filters both answer lists; the best surviving
    restriction answer supplies the reference date; focus answers that
    satisfy the ordering key survive; an undated focus answer, or an
    undated reference, fails the ordering check.  Without a key (simple
    questions) the filtered focus list is the answer.
    """
    focus = list(focus_answers)
    restriction = list(restriction_answers)
    constraints = list(te_constraints)
    diagnostics = []
    for constraint in constraints:
        focus = filter_by_te(focus, constraint)
        restriction = filter_by_te(restriction, constraint)
    # Undated answers survive every filter, so scanning the survivors finds
    # them all.
    if constraints and (_any_undated(restriction) or _any_undated(focus)):
        diagnostics.append(Diagnostic.UNDATED_PASSTHROUGH)

    if key is None:
        return ComplexAnswer(tuple(focus), None, None, tuple(diagnostics))

    if not restriction:
        diagnostics.append(Diagnostic.NO_RESTRICTION_ANSWER)
        return ComplexAnswer((), None, key, tuple(diagnostics))

    reference = restriction[0]
    f2 = reference.interval
    kept, undated = [], False
    if f2 is None:
        undated = bool(focus)
    else:
        holds = relation_test(key, f2)
        for answer in focus:
            f1 = answer.interval
            if f1 is None:
                undated = True
            elif holds(f1):
                kept.append(answer)
    if undated:
        diagnostics.append(Diagnostic.UNDATED_ANSWER)
    return ComplexAnswer(tuple(kept), reference, key, tuple(diagnostics))
