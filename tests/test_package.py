"""The package namespace: lazy public names and per-command CLI imports."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tqa

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = [
    "Aspect", "AspectJudgment", "BackendQuery", "ComplexAnswer", "Counts",
    "DatedAnswer", "DayInterval", "DecomposedQuestion", "Diagnostic",
    "EvalReport", "FixtureStore", "GoldQuestion", "LanguagePack",
    "MetricsRow", "QABackend", "Relation", "SignalMatch",
    "TemporalExpressionTag", "Testbed", "TimeValue", "Verdict",
    "answer_complex_question", "answer_decomposed", "backend", "corpus",
    "decompose", "decomposition", "detect_signal", "errors", "evaluation",
    "filter_by_te", "get_pack", "identify_type",
    "judge_answer", "judge_decomposition", "load_fixtures", "load_pack",
    "load_testbed", "metrics", "packs", "recompose",
    "recomposition", "relation_test", "render_text", "render_xml",
    "resolve_relative", "run_evaluation", "serialize_pack",
    "shipped_fixtures", "shipped_testbed", "split", "tag", "tagger",
    "textnorm", "time_model", "to_interval", "write_fixtures",
    "write_testbed",
]

SUBMODULES = {"backend", "corpus", "decomposition", "errors", "evaluation",
              "packs", "recomposition", "tagger", "textnorm", "time_model"}

WORKED_EXAMPLE = ("Where did Bill Clinton study before going to Oxford "
                  "University?")


def fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` on the path and
    return its stdout."""
    return subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}).stdout


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 58
    assert sorted(tqa.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_name_resolves_to_its_defining_object(name):
    value = getattr(tqa, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"tqa.{name}")
    else:
        module = importlib.import_module(f"tqa.{tqa._ORIGIN[name]}")
        assert value is getattr(module, name)
    assert name in dir(tqa)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tqa.no_such_name  # noqa: B018


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tqa import *", namespace)
    assert set(PUBLIC_NAMES) <= namespace.keys()
    assert all(namespace[name] is getattr(tqa, name) for name in PUBLIC_NAMES)


def test_import_loads_no_submodule():
    out = fresh_python(
        "import sys, tqa\n"
        "print(sorted(m for m in sys.modules if m.startswith('tqa.')))")
    assert out == "[]\n"


@pytest.mark.parametrize("argv, absent", [
    (["answer", WORKED_EXAMPLE], ["tqa.corpus", "tqa.evaluation"]),
    (["tag", "in 1990"], ["tqa.backend"]),
])
def test_cli_command_imports_only_what_it_runs(argv, absent):
    out = fresh_python(
        "import sys\n"
        "from tqa import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        f"print([m for m in {absent!r} if m in sys.modules])")
    assert out.splitlines()[-1] == "[]"
