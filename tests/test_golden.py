"""CLI outputs pinned byte for byte: each file in ``tests/golden`` is what
``tests/make_golden.py`` builds, which says what each file holds and how
to rewrite them."""

from __future__ import annotations

import pytest

from make_golden import GOLDEN, LANGS, build


@pytest.mark.parametrize("lang", LANGS)
def test_eval_report_is_golden(lang):
    name = f"eval_{lang}.txt"
    assert build(name) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("lang", LANGS)
def test_eval_xml_report_is_golden(lang):
    name = f"eval_{lang}.xml"
    assert build(name) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("lang", LANGS)
def test_cli_transcript_is_golden(lang):
    name = f"cli_{lang}.txt"
    assert build(name) == (GOLDEN / name).read_bytes()
