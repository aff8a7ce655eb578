"""Temporal question decomposition and answer recomposition layer.

Splits complex temporal questions into a focus and a "When" restriction,
normalizes temporal expressions to canonical interval values, routes the
sub-questions to a pluggable QA backend, and recomposes answers under the
ordering constraints of the temporal signal.  Ships English and Spanish
language packs, a fixture backend, a testbed corpus format and a full
evaluation harness.
"""

__version__ = "1.0.0"

from .backend import (
    BackendQuery,
    FixtureStore,
    QABackend,
    answer_complex_question,
    answer_decomposed,
    load_fixtures,
    shipped_fixtures,
    write_fixtures,
)
from .corpus import (
    GoldQuestion,
    Testbed,
    load_testbed,
    shipped_testbed,
    write_testbed,
)
from .decomposition import (
    DecomposedQuestion,
    SignalMatch,
    decompose,
    detect_signal,
    identify_type,
    split,
)
from .errors import Diagnostic
from .evaluation import (
    Aspect,
    AspectJudgment,
    Counts,
    EvalReport,
    MetricsRow,
    Verdict,
    judge_answer,
    judge_decomposition,
    metrics,
    render_text,
    render_xml,
    run_evaluation,
)
from .packs import (
    LanguagePack,
    get_pack,
    load_pack,
    serialize_pack,
)
from .recomposition import (
    ComplexAnswer,
    DatedAnswer,
    filter_by_te,
    recompose,
)
from .tagger import (
    ReferenceDate,
    TemporalExpressionTag,
    resolve_relative,
    tag,
)
from .time_model import (
    DayInterval,
    Relation,
    TimeValue,
    ValueKind,
    format_value,
    parse_value,
    relation_holds,
    to_interval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
