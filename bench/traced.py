"""Traced run: the per-layer metrics.

The same inputs as the workload go through each layer's public functions
one at a time -- tag, detect_signal, split, FixtureStore.answer, recompose,
and the evaluation judges -- each call timed with perf_counter_ns from this
file.  Nothing inside ``tqa`` is touched, and the untimed end-to-end runs
never pay for any of this.  Each round also answers every question once
through answer_complex_question, untraced, so that the cost of tracing
itself can be reported.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time

from common import (BENCH, LANGS, Tally, answer_texts, child_env, cli_argv,
                    cli_sample, percentile, tail)

#: metric -> unit; all are printed on every workload.
UNITS = {
    "packs.get_pack_us": "us",
    "packs.load_pack_us": "us",
    "corpus.load_testbed_ms": "ms",
    "backend.load_fixtures_ms": "ms",
    "backend.answer_p50_us": "us",
    "backend.queries_per_q": "count",
    "backend.hit_ratio": "ratio",
    "tagger.tag_p50_us": "us",
    "tagger.tag_p99_us": "us",
    "tagger.tags_per_q": "count",
    "decomposition.detect_signal_p50_us": "us",
    "decomposition.split_p50_us": "us",
    "decomposition.decompose_p50_us": "us",
    "recomposition.recompose_p50_us": "us",
    "recomposition.recompose_p99_us": "us",
    "recomposition.candidates_per_q": "count",
    "recomposition.kept_ratio": "ratio",
    "time_model.to_interval_p50_us": "us",
    "evaluation.judge_decomposition_p50_us": "us",
    "evaluation.judge_answer_p50_us": "us",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_us_per_q": "us",
}

#: Fresh interpreters started for cli.import_ms (tiny corpus: fewer).
IMPORT_CHILDREN = {False: 5, True: 2}
#: Set-up layers are timed this many times; the metric is the median.
SETUP_REPEATS = 5


def _median_of(step, repeats=SETUP_REPEATS) -> float:
    """Median wall time of ``step()`` in ns."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        step()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times)


def _setup_layers(paths) -> dict[str, float]:
    from tqa import get_pack, load_fixtures, load_pack, load_testbed, serialize_pack
    serialized = {lang: serialize_pack(get_pack(lang)) for lang in LANGS}
    n = len(LANGS)
    return {
        "packs.get_pack_us": _median_of(
            lambda: [get_pack(lang) for lang in LANGS]) / n / 1e3,
        "packs.load_pack_us": _median_of(
            lambda: [load_pack(serialized[lang]) for lang in LANGS]) / n / 1e3,
        "corpus.load_testbed_ms": _median_of(
            lambda: [load_testbed(paths[f"testbed_{lang}"])
                     for lang in LANGS]) / 1e6,
        "backend.load_fixtures_ms": _median_of(
            lambda: [load_fixtures(paths[f"fixtures_{lang}"])
                     for lang in LANGS]) / 1e6,
    }


def _cli_layers(corpus, paths, tiny, tally) -> dict[str, float]:
    """cli.import_ms from fresh interpreters, cli.main_ms in process."""
    import tqa.cli
    imports = []
    for _ in range(IMPORT_CHILDREN[tiny]):
        proc = subprocess.run([sys.executable, str(BENCH / "cli_child.py")],
                              capture_output=True, text=True, env=child_env(),
                              timeout=60, check=True)
        imports.append(int(proc.stdout.split()[-1]))
    mains = []
    for q in cli_sample(corpus, tiny):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            code = tqa.cli.main(cli_argv(q, paths))
            mains.append(time.perf_counter_ns() - start)
        want = "".join(text + "\n" for text in q.expected)
        if code != 0 or out.getvalue() != want:
            # a check, not an operation of the round: it makes the run
            # incorrect without changing the counts
            tally.unexpected.append(
                f"tqa.cli.main on {q.text!r}: exit {code}, stdout "
                f"{out.getvalue()!r}, want {want!r}")
    return {"cli.import_ms": statistics.median(imports) / 1e6,
            "cli.main_ms": statistics.median(mains) / 1e6}


def _summary(samples_ns) -> dict:
    entry = {"median_us": statistics.median(samples_ns) / 1e3,
             "n": len(samples_ns)}
    if len(samples_ns) >= 1000:
        entry["p99_us"] = percentile(samples_ns, 0.99) / 1e3
    return entry


def run(workload, corpus, paths, seconds, tiny):
    """Return (tally, metric values, units, report for the trace file)."""
    from tqa import (BackendQuery, answer_complex_question, decompose,
                     detect_signal, get_pack, identify_type, judge_answer,
                     judge_decomposition, load_fixtures, load_testbed,
                     recompose, split, tag, to_interval)
    from tqa.errors import TqaError, UnanchoredValue
    from synth import REF

    values = _setup_layers(paths)
    packs = {lang: get_pack(lang) for lang in LANGS}
    stores = {lang: load_fixtures(paths[f"fixtures_{lang}"]) for lang in LANGS}
    gold = {(lang, g.id): g for lang in LANGS
            for g in load_testbed(paths[f"testbed_{lang}"]).questions}
    questions = cli_sample(corpus, tiny) if workload == "cli-cold" \
        else corpus.questions

    spans = {name: [] for name in (
        "tag", "detect_signal", "split", "answer", "recompose", "decompose",
        "to_interval", "judge_decomposition", "judge_answer", "traced_q",
        "untraced_q")}
    counts = dict(questions=0, lookups=0, hits=0, tags=0, candidates=0,
                  focus=0, kept=0)
    tally = Tally()
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    while True:
        # An untraced pass first, then the traced pass, so that neither
        # finds the other's question warm in the caches.
        for q in questions:
            start = clock()
            answer_complex_question(q.text, packs[q.lang], REF, stores[q.lang])
            spans["untraced_q"].append(clock() - start)
        for q in questions:
            pack, store = packs[q.lang], stores[q.lang]
            try:
                begin = t0 = clock()
                tes = tag(q.text, pack, REF)
                t1 = clock()
                signal = detect_signal(q.text, tes, pack)
                t2 = clock()
                spans["tag"].append(t1 - t0)
                spans["detect_signal"].append(t2 - t1)
                qtype = identify_type(tes, signal)
                if qtype in (3, 4):
                    t0 = clock()
                    texts = split(q.text, signal, tes, pack)
                    spans["split"].append(clock() - t0)
                    key = signal.key
                else:
                    texts, key = (q.text,), None
                lists = []
                for text in texts:
                    query = BackendQuery(text, pack.code)
                    t0 = clock()
                    found = store.answer(query)
                    spans["answer"].append(clock() - t0)
                    lists.append(found)
                focus, restriction = lists[0], lists[1] if key else []
                constraints = [t.interval for t in tes if t.interval is not None]
                t0 = clock()
                result = recompose(focus, restriction, key, constraints)
                end = clock()
                spans["recompose"].append(end - t0)
                spans["traced_q"].append(end - begin)
            except TqaError as exc:
                tally.record(q, False, f"{type(exc).__name__}: {exc}")
                continue
            got = answer_texts(result)
            tally.record(q, got == q.expected, f"got {got}, want {q.expected}")
            counts["questions"] += 1
            counts["lookups"] += len(lists)
            counts["hits"] += sum(bool(found) for found in lists)
            counts["tags"] += len(tes)
            counts["candidates"] += len(focus) + len(restriction)
            counts["focus"] += len(focus)
            counts["kept"] += len(result.answers)

            # Off the traced path: whole-stage and per-value timings.
            t0 = clock()
            analysis = decompose(q.text, pack, REF)
            spans["decompose"].append(clock() - t0)
            dated = [a.value for a in focus + restriction if a.value is not None]
            t0 = clock()
            for value in dated:
                try:
                    to_interval(value)
                except UnanchoredValue:
                    pass
            if dated:
                spans["to_interval"].append((clock() - t0) / len(dated))
            g = gold[(q.lang, q.qid)]
            t0 = clock()
            judge_decomposition(analysis, g, pack)
            t1 = clock()
            judge_answer(got, g.answer)
            spans["judge_decomposition"].append(t1 - t0)
            spans["judge_answer"].append(clock() - t1)
        tally.end_round()
        if time.perf_counter() >= deadline:
            break

    def p50(name):
        return statistics.median(spans[name]) / 1e3

    n = max(counts["questions"], 1)
    values.update({
        "backend.answer_p50_us": p50("answer"),
        "backend.queries_per_q": counts["lookups"] / n,
        "backend.hit_ratio": counts["hits"] / max(counts["lookups"], 1),
        "tagger.tag_p50_us": p50("tag"),
        "tagger.tag_p99_us": tail(spans["tag"]) / 1e3,
        "tagger.tags_per_q": counts["tags"] / n,
        "decomposition.detect_signal_p50_us": p50("detect_signal"),
        "decomposition.split_p50_us": p50("split"),
        "decomposition.decompose_p50_us": p50("decompose"),
        "recomposition.recompose_p50_us": p50("recompose"),
        "recomposition.recompose_p99_us": tail(spans["recompose"]) / 1e3,
        "recomposition.candidates_per_q": counts["candidates"] / n,
        "recomposition.kept_ratio": counts["kept"] / max(counts["focus"], 1),
        "time_model.to_interval_p50_us": p50("to_interval"),
        "evaluation.judge_decomposition_p50_us": p50("judge_decomposition"),
        "evaluation.judge_answer_p50_us": p50("judge_answer"),
    })
    values.update(_cli_layers(corpus, paths, tiny, tally))
    values["trace.overhead_us_per_q"] = p50("traced_q") - p50("untraced_q")
    values = {name: values[name] for name in UNITS}
    report = {
        "workload": workload, "seed": corpus.seed,
        "questions_per_round": len(questions), "counts": counts,
        "spans": {name: _summary(s) for name, s in spans.items() if s},
        "metrics": {name: {"value": v, "unit": UNITS[name]}
                    for name, v in values.items()},
    }
    return tally, values, UNITS, report
