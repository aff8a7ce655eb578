"""CLI outputs pinned byte for byte.

The eval reports (``eval_<lang>.txt`` and ``.xml``) are the stdout of
``tqa eval --lang <lang> --fixtures src/tqa/data/fixtures_<lang>.xml
--gold-te``, with ``--format xml`` for the ``.xml`` files.

The transcripts (``cli_<lang>.txt``) hold, for every shipped testbed
question in order, the exit code, stdout and stderr of ``tag``,
``classify``, ``decompose`` and ``answer``; they are written by
``PYTHONPATH=src python3 tests/test_golden.py``.

A change that alters an output must regenerate the file with its command
and say why the output moved.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tqa.cli import main
from tqa.corpus import shipped_testbed
from tqa.packs import DATA_DIR

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("lang", ["en", "es"])
def test_eval_report_is_golden(capsys, lang):
    code = main(["eval", "--lang", lang, "--fixtures",
                 str(DATA_DIR / f"fixtures_{lang}.xml"), "--gold-te"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    expected = (GOLDEN / f"eval_{lang}.txt").read_bytes()
    assert captured.out.encode("utf-8") == expected


@pytest.mark.parametrize("lang", ["en", "es"])
def test_eval_xml_report_is_golden(capsys, lang):
    code = main(["eval", "--lang", lang, "--fixtures",
                 str(DATA_DIR / f"fixtures_{lang}.xml"), "--gold-te",
                 "--format", "xml"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    expected = (GOLDEN / f"eval_{lang}.xml").read_bytes()
    assert captured.out.encode("utf-8") == expected


LANGS = ("en", "es")
QUESTION_COMMANDS = ("tag", "classify", "decompose", "answer")


def cli_transcript(lang: str) -> str:
    """Every question command on every shipped testbed question."""
    parts = []
    for q in shipped_testbed(lang).questions:
        for command in QUESTION_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, "--lang", lang, q.question])
            parts.append(f"=== Q{q.id} {command} exit {code}\n"
                         f"--- stdout\n{out.getvalue()}"
                         f"--- stderr\n{err.getvalue()}")
    return "".join(parts)


@pytest.mark.parametrize("lang", LANGS)
def test_cli_transcript_is_golden(lang):
    expected = (GOLDEN / f"cli_{lang}.txt").read_bytes()
    assert cli_transcript(lang).encode("utf-8") == expected


if __name__ == "__main__":
    for lang in LANGS:
        (GOLDEN / f"cli_{lang}.txt").write_bytes(
            cli_transcript(lang).encode("utf-8"))
