"""Fixture backend and end-to-end orchestration."""

from __future__ import annotations

import gc
import io
import re
import tracemalloc
from datetime import date
from xml.etree import ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqa import time_model
from tqa.backend import (
    BackendQuery,
    FixtureStore,
    answer_complex_question,
    load_fixtures,
    write_fixtures,
)
from tqa.errors import Diagnostic, SchemaViolation
from tqa.packs import DATA_DIR
from tqa.recomposition import DatedAnswer
from tqa.textnorm import normalize_key, tokenize
from tqa.time_model import TimeValue

from conftest import REF


def test_backend_lookup_is_key_normalized(fixtures_en):
    for phrasing in ("Where did Bill Clinton study?",
                     "WHERE did bill clinton Study ?",
                     "where did bill clinton study"):
        answers = fixtures_en.answer(BackendQuery(phrasing, "en"))
        assert [a.text for a in answers] == [
            "Georgetown University", "Oxford University", "Yale Law School"]


def _split_and_strip(text):
    """The earlier definition of ``tokenize``: split the casefolded text,
    with each typographic apostrophe read as a straight one, at runs of
    characters other than word characters and apostrophes, strip each
    piece's edge apostrophes and drop the empty ones."""
    tokens = []
    for raw in re.split(r"[^\w']+", text.casefold().replace("\u2019", "'")):
        token = raw.strip("'")
        if token:
            tokens.append(token)
    return tokens


@given(st.text(alphabet=st.one_of(st.sampled_from(
    "ab'\u2019\u00df\u0130_9 \t\u00a0-.,?\u00bf\u00e9\u03a3\u03c2"),
    st.characters())))
def test_tokenize_equals_split_and_strip(text):
    assert tokenize(text) == _split_and_strip(text)
    assert normalize_key(text) == " ".join(_split_and_strip(text))


def test_typographic_apostrophe_reads_as_straight():
    store = FixtureStore(entries={normalize_key("Who was Spain's king?"): (
        DatedAnswer("Charles IV", 1),)}, ref=REF)
    for question in ("Who was Spain's king?", "Who was Spain\u2019s king?"):
        assert [a.text for a in store.answer(BackendQuery(question, "en"))] \
            == ["Charles IV"]


def test_backend_unknown_question_is_empty(fixtures_en):
    assert fixtures_en.answer(BackendQuery("Unknown question?", "en")) == []


def test_fixture_ranks_must_be_contiguous():
    answers = (DatedAnswer("a", 1), DatedAnswer("b", 3))
    with pytest.raises(SchemaViolation):
        FixtureStore(entries={"q": answers}, ref=REF)


def test_fixture_keys_must_be_normalized():
    with pytest.raises(SchemaViolation):
        FixtureStore(entries={"Has Caps": (DatedAnswer("a", 1),)}, ref=REF)


def test_fixture_round_trip(fixtures_en, fixtures_es):
    for store in (fixtures_en, fixtures_es):
        assert load_fixtures(write_fixtures(store)) == store


WIDE_QUESTION = "Who was the president of the club after the stadium was built?"
WIDE_FOCUS_KEY = "who was the president of the club"
WIDE_YEARS = ("1950", "1960", "1970", "1980")


def _wide_fixture(n=200) -> bytes:
    """Many focus answers sharing a few year strings; one restriction."""
    rows = "".join(f'<A rank="{i + 1}" value="{WIDE_YEARS[i % 4]}">P{i}</A>'
                   for i in range(n))
    return ('<FIXTURES ref="2008-01-01" lang="en">'
            f'<FQ key="{WIDE_FOCUS_KEY}">{rows}</FQ>'
            '<FQ key="when was the stadium built">'
            '<A rank="1" value="1965">Stadium</A></FQ>'
            '</FIXTURES>').encode()


def test_fixture_values_are_interned_per_load():
    store = load_fixtures(_wide_fixture())
    answers = store.entries[WIDE_FOCUS_KEY]
    shared = {}
    for answer in answers:
        assert shared.setdefault(answer.value.canonical, answer.value) \
            is answer.value
    assert sorted(shared) == list(WIDE_YEARS)
    assert load_fixtures(write_fixtures(store)) == store
    # nothing outlives the load: a second load parses its own values
    again = load_fixtures(_wide_fixture())
    assert again.entries[WIDE_FOCUS_KEY][0].value is not answers[0].value


def test_each_value_string_converts_to_an_interval_once(monkeypatch, en_pack):
    calls = []

    def counting(text):
        calls.append(text)
        return parse(text)

    parse = time_model._parse
    en_pack.compiled  # binding the rules parses their literal ARG values
    monkeypatch.setattr(time_model, "_parse", counting)
    store = load_fixtures(_wide_fixture())
    assert sorted(calls) == sorted(WIDE_YEARS + ("1965",))
    calls.clear()
    want = [f"P{i}" for i in range(200) if WIDE_YEARS[i % 4] > "1965"]
    for _ in range(2):
        result = answer_complex_question(WIDE_QUESTION, en_pack, REF, store)
        assert [a.text for a in result.answers] == want
    assert calls == []  # the question has no expression to tag


def test_type1_passes_backend_output_verbatim(en_pack, fixtures_en):
    question = "When did Jordan close the port of Aqaba to Kuwait?"
    direct = fixtures_en.answer(BackendQuery(question, "en"))
    layered = answer_complex_question(question, en_pack, REF, fixtures_en)
    assert list(layered.answers) == direct
    assert layered.applied_key is None
    assert layered.diagnostics == ()


def test_type2_filters_by_expression(en_pack, fixtures_en):
    result = answer_complex_question("Where were the Olympics held 16 years "
                                     "ago?", en_pack, REF, fixtures_en)
    assert [a.text for a in result.answers] == ["Barcelona"]


def test_complex_question_full_flow(en_pack, fixtures_en):
    result = answer_complex_question(
        "Who won the best actress Oscar award when James Dean died in the "
        "50s?", en_pack, REF, fixtures_en)
    assert [a.text for a in result.answers] == ["Anna Magnani"]
    assert result.restriction_answer.text == "1955"


def test_missing_restriction_fixture_yields_diagnostic(en_pack, fixtures_en):
    result = answer_complex_question(
        "Who was the president of US when the AARP was founded?",
        en_pack, REF, fixtures_en)
    assert result.answers == ()
    assert Diagnostic.NO_RESTRICTION_ANSWER in result.diagnostics


def test_unsplittable_becomes_diagnostic(en_pack, fixtures_en):
    result = answer_complex_question("What happened before?", en_pack, REF,
                                     fixtures_en)
    assert result.answers == ()
    assert Diagnostic.UNSPLITTABLE in result.diagnostics


def test_determinism(en_pack, fixtures_en):
    question = "Where did Bill Clinton study before going to Oxford University?"
    first = answer_complex_question(question, en_pack, REF, fixtures_en)
    second = answer_complex_question(question, en_pack, REF, fixtures_en)
    assert first == second


def test_custom_backend_capability(en_pack):
    class CannedBackend:
        def answer(self, query):
            if "study" in query.question:
                return [DatedAnswer("Georgetown University", 1,
                                    TimeValue("1964-1968"))]
            return [DatedAnswer("1968", 1, TimeValue("1968"))]

    result = answer_complex_question(
        "Where did Bill Clinton study before going to Oxford University?",
        en_pack, REF, CannedBackend())
    assert [a.text for a in result.answers] == ["Georgetown University"]


def test_offset_quantity_filters_no_answer(en_pack):
    # "1000" is the offset of "1000 years after", not a date the answers
    # must overlap
    store = FixtureStore(entries={
        "what was built": (DatedAnswer("Tower", 1, TimeValue("1173")),
                           DatedAnswer("Wall", 2, TimeValue("1000"))),
        "when was rome founded": (DatedAnswer("0753", 1, TimeValue("0753")),),
    }, ref=REF)
    result = answer_complex_question(
        "What was built 1000 years after Rome was founded?", en_pack, REF,
        store)
    assert [a.text for a in result.answers] == ["Tower", "Wall"]
    assert result.diagnostics == (Diagnostic.OFFSET_SIGNAL_UNSUPPORTED,)


def test_bad_fixture_file_reports_schema():
    with pytest.raises(SchemaViolation):
        load_fixtures(b"<WRONG/>")
    with pytest.raises(SchemaViolation):
        load_fixtures(b'<FIXTURES ref="not-a-date" lang="en"/>')
    with pytest.raises(SchemaViolation):
        load_fixtures(b'<FIXTURES ref="2008-01-01" lang="en">'
                      b'<FQ key="q"><A rank="2">x</A></FQ></FIXTURES>')


def _document(keys: int, rows: int) -> bytes:
    entries = "".join(
        f'<FQ key="question {k}">'
        + "".join(f'<A rank="{r + 1}" value="{1900 + (k + r) % 100}">'
                  f"answer {k} {r}</A>" for r in range(rows))
        + "</FQ>" for k in range(keys))
    return f'<FIXTURES ref="2008-01-01" lang="en">{entries}</FIXTURES>'.encode()


def test_fixture_load_peak_memory_is_the_store():
    document = _document(keys=200, rows=50)
    tracemalloc.start()
    try:
        store = load_fixtures(document)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(store.entries) == 200
    # the whole tree, never built at once, would cost several times the store
    assert peak < 1.5 * held


def test_fixture_sources_load_equal_stores():
    path = DATA_DIR / "fixtures_en.xml"
    with open(path, "rb") as stream:
        from_file = load_fixtures(stream)
    stores = [load_fixtures(path.read_bytes()), load_fixtures(str(path)),
              load_fixtures(path), from_file]
    assert all(store == stores[0] for store in stores)


def test_fixture_entries_are_root_fq_children_only():
    store = load_fixtures(
        b'<FIXTURES ref="2008-01-01" lang="en">'
        b'<GROUP><FQ key="nested"><A rank="1">n</A></FQ></GROUP>'
        b'<FQ key="kept"><A rank="1">k</A>'
        b'<FQ key="inner"><A rank="1">i</A></FQ></FQ>'
        b'<NOTE key="note"><A rank="1">x</A></NOTE>'
        b'</FIXTURES>')
    assert {key: [a.text for a in answers]
            for key, answers in store.entries.items()} == {"kept": ["k"]}


def test_ignored_fixture_entry_faults_are_not_raised():
    store = load_fixtures(
        b'<FIXTURES ref="2008-01-01" lang="en">'
        b'<GROUP><FQ><A rank="x" value="zz">n</A></FQ></GROUP>'
        b'<FQ key="kept"><A rank="1">k</A></FQ></FIXTURES>')
    assert list(store.entries) == ["kept"]


def test_fixture_last_duplicate_key_wins():
    store = load_fixtures(
        b'<FIXTURES ref="2008-01-01" lang="en">'
        b'<FQ key="a"><A rank="1">first</A></FQ>'
        b'<FQ key="b"><A rank="1">b</A></FQ>'
        b'<FQ key="a"><A rank="1">second</A></FQ></FIXTURES>')
    assert list(store.entries) == ["a", "b"]
    assert [a.text for a in store.entries["a"]] == ["second"]


def test_fixture_root_faults_are_reported_before_entry_faults():
    with pytest.raises(SchemaViolation, match="reference date"):
        load_fixtures(b'<FIXTURES ref="x"><FQ><A rank="1">a</A></FQ>'
                      b'</FIXTURES>')
    with pytest.raises(SchemaViolation, match="expected FIXTURES"):
        load_fixtures(b'<WRONG><FQ key="q"><A rank="y">a</A></FQ></WRONG>')


def test_truncated_fixture_file_is_malformed(tmp_path):
    document = _document(keys=20, rows=3)
    cut = document.index(b"</FQ>", len(document) // 2) + len(b"</FQ>")
    path = tmp_path / "fixtures.xml"
    path.write_bytes(document[:cut])
    with pytest.raises(SchemaViolation, match="malformed XML") as err:
        load_fixtures(path)
    assert str(err.value).startswith(f"{path}: ")
    with pytest.raises(SchemaViolation, match="malformed XML"):
        load_fixtures(document[:cut])


def test_closed_fixture_stream_is_no_fault_of_the_file():
    stream = io.BytesIO(_document(keys=1, rows=1))
    stream.close()
    with pytest.raises(ValueError, match="closed file"):
        load_fixtures(stream)


def _one_entry(rows: bytes) -> bytes:
    return (b'<FIXTURES ref="2008-01-01" lang="en"><FQ key="q">' + rows
            + b"</FQ></FIXTURES>")


def test_fixture_rows_out_of_rank_order_load_in_rank_order():
    store = load_fixtures(_one_entry(
        b'<A rank="3">c</A><A rank="1" value="1990">a</A><A rank="2">b</A>'))
    assert [(a.rank, a.text) for a in store.entries["q"]] == [
        (1, "a"), (2, "b"), (3, "c")]
    assert store.entries["q"][0].interval == TimeValue("1990").interval


def test_fixture_repeated_rank_is_not_contiguous():
    with pytest.raises(SchemaViolation, match=re.escape(
            "fixture 'q': ranks [1, 1] not contiguous from 1")):
        load_fixtures(_one_entry(b'<A rank="1">a</A><A rank="1">b</A>'))


@pytest.mark.parametrize("rows,fault", [
    (b'<A rank="2"> </A><A rank="1" value="zz">a</A>',
     "fixture 'q': answer at rank 2 has no text"),
    (b'<A rank="2" value="zz">b</A><A rank="1"> </A>',
     "fixture 'q': value 'zz'"),
    (b'<A rank="1">a</A><A rank="x">b</A><A rank="0" value="zz">c</A>',
     "fixture 'q': bad rank 'x'"),
], ids=["text-before-value", "value-before-text", "rank-before-rank"])
def test_fixture_entry_reports_its_first_faulty_row(rows, fault):
    # the first in document order, not in rank order
    with pytest.raises(SchemaViolation, match=re.escape(fault)):
        load_fixtures(_one_entry(rows))


_WORDS = ("who", "won", "the", "prize", "when", "did", "it", "end")
_VALUES = (None, "1968", "196", "1968-1970", "1968-10-05", "XXXX-08-15",
           "[1990-1995]")
_STORES = st.dictionaries(
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join),
    st.lists(st.tuples(
        st.text(alphabet="ab <&>'\u00e9", min_size=1).map(str.strip)
        .filter(bool), st.sampled_from(_VALUES)), min_size=1, max_size=6),
    min_size=1, max_size=4).map(lambda entries: FixtureStore(entries={
        key: tuple(DatedAnswer(text, rank, value and TimeValue(value))
                   for rank, (text, value) in enumerate(rows, 1))
        for key, rows in entries.items()}, ref=REF))


@settings(max_examples=200, deadline=None)
@given(_STORES, st.data())
def test_fixture_rows_in_any_order_load_back_the_store(store, data):
    root = ET.fromstring(write_fixtures(store))
    for fq in root:
        rows = list(fq)
        for row in rows:
            fq.remove(row)
        fq.extend(data.draw(st.permutations(rows)))
    loaded = load_fixtures(ET.tostring(root))
    assert loaded == store
    assert list(loaded.entries) == list(store.entries)
    for answers in loaded.entries.values():
        assert [a.rank for a in answers] == list(range(1, len(answers) + 1))


class _ReadProbe(io.BytesIO):
    """A fixture file that records whether the collector runs at each
    read, that is, while the load is under way."""

    def __init__(self, data, states):
        super().__init__(data)
        self.states = states

    def read(self, *args):
        self.states.append(gc.isenabled())
        return super().read(*args)


_GOOD = _document(keys=3, rows=2)


@pytest.mark.parametrize("document,fault", [
    (_GOOD, None),
    (_one_entry(b'<A rank="0">a</A>'), "bad rank '0'"),
    (_GOOD[:len(_GOOD) // 2], "malformed XML"),
    (b'<FIXTURES ref="x"/>', "bad fixture reference date"),
    (b'<FIXTURES ref=""/>', "^bad fixture reference date ''$"),
    (b'<FIXTURES ref="20080101"/>', "^bad fixture reference date '20080101'$"),
    (b'<FIXTURES ref="2008-W01-1"/>',
     "^bad fixture reference date '2008-W01-1'$"),
    (b'<FQ ref="x"><A rank="0">a</A></FQ>',
     "^root element 'FQ', expected FIXTURES$"),
], ids=["loaded", "entry-fault", "malformed", "root-fault", "empty-ref",
        "basic-format-ref", "week-date-ref", "wrong-root"])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_fixture_load_pauses_and_restores_the_collector(document, fault,
                                                        enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    states = []
    try:
        if fault is None:
            load_fixtures(_ReadProbe(document, states))
        else:
            with pytest.raises(SchemaViolation, match=fault):
                load_fixtures(_ReadProbe(document, states))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert states and not any(states)
