"""Answer recomposition: temporal filtering and ordering-key compatibility.

Candidate answers to the focus question are filtered against the temporal
expressions of the original question, then checked for compatibility with
the restriction answer under the signal's ordering key.  Backend rank order
is preserved throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import Diagnostic
from .time_model import DayInterval, Relation, TimeValue, relation_holds


@dataclass(frozen=True, slots=True)
class DatedAnswer:
    """A ranked candidate answer with an optional attached date.

    ``interval`` is ``value.interval`` (None when undated or unanchored).
    Its slot stays empty until the first read, which fills it, so loading
    converts nothing and every later read is a plain slot read.
    """

    text: str
    rank: int
    value: TimeValue | None = None
    interval: DayInterval | None = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")

    def __getattr__(self, name):
        # called only when normal lookup fails: here, an unfilled slot
        if name != "interval":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        interval = None if self.value is None else self.value.interval
        object.__setattr__(self, "interval", interval)
        return interval


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
    return [answer for answer in answers
            if answer.interval is None or answer.interval.overlaps(constraint)]


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
    if constraints and any(a.interval is None for a in focus + restriction):
        diagnostics.append(Diagnostic.UNDATED_PASSTHROUGH)

    if key is None:
        return ComplexAnswer(tuple(focus), None, None, tuple(diagnostics))

    if not restriction:
        diagnostics.append(Diagnostic.NO_RESTRICTION_ANSWER)
        return ComplexAnswer((), None, key, tuple(diagnostics))

    reference = restriction[0]
    f2 = reference.interval
    kept, undated = [], False
    for answer in focus:
        f1 = answer.interval
        if f1 is None or f2 is None:
            undated = True
        elif relation_holds(key, f1, f2):
            kept.append(answer)
    if undated:
        diagnostics.append(Diagnostic.UNDATED_ANSWER)
    return ComplexAnswer(tuple(kept), reference, key, tuple(diagnostics))
