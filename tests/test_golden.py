"""Eval reports pinned byte for byte: the shipped testbed and fixtures,
plain and with gold temporal expressions injected.

The files under tests/golden/ are the stdout of
``tqa eval --lang <lang> --fixtures src/tqa/data/fixtures_<lang>.xml
--gold-te``, with ``--format xml`` for the ``.xml`` files.  A change that
alters a report must regenerate them with that command and say why the
figures moved.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tqa.cli import main
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
