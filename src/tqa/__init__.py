"""Temporal question decomposition and answer recomposition layer.

Splits complex temporal questions into a focus and a "When" restriction,
normalizes temporal expressions to canonical interval values, routes the
sub-questions to a pluggable QA backend, and recomposes answers under the
ordering constraints of the temporal signal.  Ships English and Spanish
language packs, a fixture backend, a testbed corpus format and a full
evaluation harness.

``import tqa`` loads no submodule: each public name is imported from its
defining module on first access (PEP 562) and then kept here.
"""

from importlib import import_module

__version__ = "1.0.0"

# Public names by defining submodule; each submodule's own name is public
# too (``textnorm`` exports nothing else).
_EXPORTS = {
    "backend": (
        "BackendQuery", "FixtureStore", "QABackend", "answer_complex_question",
        "answer_decomposed", "load_fixtures", "shipped_fixtures",
        "write_fixtures"),
    "corpus": (
        "GoldQuestion", "Testbed", "load_testbed", "shipped_testbed",
        "write_testbed"),
    "decomposition": (
        "DecomposedQuestion", "SignalMatch", "decompose", "detect_signal",
        "identify_type", "split"),
    "errors": ("Diagnostic",),
    "evaluation": (
        "Aspect", "AspectJudgment", "Counts", "EvalReport", "MetricsRow",
        "Verdict", "judge_answer", "judge_decomposition", "metrics",
        "render_text", "render_xml", "run_evaluation"),
    "packs": ("LanguagePack", "get_pack", "load_pack", "serialize_pack"),
    "recomposition": ("ComplexAnswer", "DatedAnswer", "filter_by_te",
                      "recompose"),
    "tagger": ("TemporalExpressionTag", "resolve_relative", "tag"),
    "textnorm": (),
    "time_model": (
        "DayInterval", "Relation", "TimeValue", "relation_test",
        "to_interval"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace
        return import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
