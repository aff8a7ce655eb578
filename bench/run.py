"""The tqa benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload from the root of a checkout and prints, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` measures the end-to-end metrics with nothing added to the
calls; ``--trace 1`` runs the same inputs through each layer's public
functions one by one, prints the per-layer metrics and writes them to
``bench/out/trace-<workload>-seed<N>.json``.  ``--workload all`` runs every
workload in turn, each in its own process.  ``--tiny`` shrinks the corpus
for the self-check.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import replace
from pathlib import Path

from common import (BENCH, LANGS, ROOT, SRC, Tally, answer_texts, cli_argv,
                    cli_sample, load_inputs, spawn, tail)

WORKLOADS = ("answer-narrow", "answer-wide", "eval", "cli-cold")

END_TO_END_UNITS = {
    "answer_qps": "questions/s",
    "answer_p50_us": "us",
    "answer_p99_us": "us",
    "eval_qps": "questions/s",
    "cli_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Set-up samples: at least SETUP_SAMPLES per run, spread evenly over it
#: (tiny corpus: one), and more while they have taken less than SETUP_SHARE
#: of the time so far.  Each runs in a fresh interpreter.
SETUP_SAMPLES = {False: 5, True: 1}
SETUP_SHARE = 0.25

#: The CPUs the run may use.  Rounds take turns on them, one at a time: the
#: host slows each virtual CPU on its own, for spells that can outlast a
#: run, and an operation's best time needs a quiet spell on one of them.
CPUS = sorted(os.sched_getaffinity(0))

#: Questions per run_evaluation call on eval: few enough that each call is
#: short and its best time is seen, enough that the report's aggregation
#: stays a small share of the call.
EVAL_CHUNK = 4


def measure(seconds, one_round, tally, setup_sample, samples):
    """Run whole rounds for ``seconds``, with set-up samples between them.

    ``one_round()`` returns the nanoseconds each operation of the round
    took, in the same order every round; rounds take turns on ``CPUS``.
    ``setup_sample()`` returns (set-up seconds, peak RSS MiB).  Returns the
    rounds and the samples.
    """
    rounds, setups = [], []
    start = time.perf_counter()
    spent = 0.0  # wall time of the set-up samples
    while True:
        elapsed = time.perf_counter() - start
        due = len(setups) < samples \
            and elapsed >= len(setups) * seconds / samples
        if due or (elapsed < seconds and spent < SETUP_SHARE * elapsed):
            before = time.perf_counter()
            setups.append(setup_sample())
            spent += time.perf_counter() - before
        elif rounds and elapsed >= seconds:
            return rounds, setups
        else:
            os.sched_setaffinity(0, {CPUS[len(rounds) % len(CPUS)]})
            rounds.append(array("q", one_round()))
            tally.end_round()


def setup_sampler(workload, workdir):
    """One set-up sample: (set-up seconds, peak RSS MiB) of a fresh
    interpreter (see setup_child.py).  Only the first sample also runs a
    round, for the peak RSS; the rest leave the time to the rounds."""
    taken = []

    def sample():
        argv = [sys.executable, str(BENCH / "setup_child.py"), str(workdir),
                workload, "0" if taken else "1"]
        code, out, err, _, rss_mib = spawn(argv, workdir)
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}: {err[-800:]}")
        taken.append(rss_mib)
        return float(out.split()[-1]), rss_mib

    return sample


def end_to_end(rounds, setups, rss_mib, per_operation=min):
    """The end-to-end metrics, from one time per operation of the run.

    Every round runs the same operations in the same order, so each
    operation has one time per round, and ``per_operation`` reads them as
    one: by default its best time, what it costs while the machine's other
    tenants leave it alone.  On a shared host that figure holds from run
    to run, while a mean or a median over every call moves with their load.
    Throughput is the operations over the sum of their times; the median
    and the tail (see ``common.tail``) are taken over those times.  Peak
    RSS is the largest of the processes in ``rss_mib``.
    """
    times = [per_operation(op) for op in zip(*rounds)]
    qps = len(times) * 1e9 / sum(times)
    p50_us = statistics.median(times) / 1e3
    return {
        "answer_qps": qps, "answer_p50_us": p50_us,
        "answer_p99_us": tail(times) / 1e3,
        # each workload has one kind of operation: its throughput and median
        # stand for the metrics named after the other workloads
        "eval_qps": qps, "cli_p50_ms": p50_us / 1e3,
        "setup_s": statistics.median(s for s, _ in setups),
        "peak_rss_mib": max(rss_mib),
    }


# --- workloads ---------------------------------------------------------------

def run_answer(workload, corpus, paths, seconds, tiny):
    """answer-narrow / answer-wide: closed loop, one caller, one question at
    a time through answer_complex_question."""
    from tqa import answer_complex_question
    from synth import REF
    packs, stores, _ = load_inputs(paths)
    stream = [(q, packs[q.lang], stores[q.lang]) for q in corpus.questions]
    for q, pack, store in stream:  # warm-up round: lazy regex compilation
        answer_complex_question(q.text, pack, REF, store)
    tally = Tally()
    clock = time.perf_counter_ns

    def one_round():
        latencies = []
        for q, pack, store in stream:
            start = clock()
            result = answer_complex_question(q.text, pack, REF, store)
            latencies.append(clock() - start)
            got = answer_texts(result)
            tally.record(q, got == q.expected, f"got {got}, want {q.expected}")
        return latencies

    rounds, setups = measure(
        seconds, one_round, tally,
        setup_sampler(workload, paths["fixtures_en"].parent),
        SETUP_SAMPLES[tiny])
    return tally, end_to_end(rounds, setups, [rss for _, rss in setups])


def check_report(report, questions, tally):
    """Judge one run_evaluation report against the generator's gold."""
    from reference import applicable_pos
    want_aspects, want_types = applicable_pos([q.qtype for q in questions])
    problems = []
    for rows, want in ((report.aspect_rows, want_aspects),
                       (report.type_rows, want_types)):
        got = {row.label: row.counts.pos for row in rows}
        if got != want:
            problems.append(f"POS {got} != applicability table {want}")
        for row in rows:
            c = row.counts
            if not c.corr <= c.act <= c.pos:
                problems.append(f"{row.label}: CORR {c.corr} ACT {c.act} "
                                f"POS {c.pos}")
    by_id = {r.qid: r for r in report.results}
    for q in questions:
        r = by_id.get(q.qid)
        if r is None:
            tally.record(q, False, "missing from the report")
            continue
        decomposition_ok = all(j.correct for j in r.judgments if j.applicable)
        rank = q.expected.index(q.answer) + 1 if q.answer in q.expected \
            else None
        verdict = (r.verdict.value if r.verdict else None, r.rank)
        want = ("CORR", rank) if rank else ("NOACT", None)
        tally.record(q, decomposition_ok and verdict == want
                     and r.answers == q.expected,
                     f"verdict {verdict} answers {r.answers}, want {want} "
                     f"{q.expected}; decomposition ok: {decomposition_ok}")
    return problems


def run_eval(workload, corpus, paths, seconds, tiny):
    """eval: run_evaluation over the corpus read back as testbed XML, with
    its fixture store.  Each language's testbed is cut into consecutive
    testbeds of EVAL_CHUNK questions, and one operation is run_evaluation
    over one of them; its time is the call's time per question judged."""
    from tqa import run_evaluation
    packs, stores, testbeds = load_inputs(paths, with_testbed=True)
    by_qid = {q.qid: q for q in corpus.questions}
    chunks = []
    for lang in LANGS:
        gold = testbeds[lang].questions
        for i in range(0, len(gold), EVAL_CHUNK):
            testbed = replace(testbeds[lang], questions=gold[i:i + EVAL_CHUNK])
            chunks.append((testbed, packs[lang], stores[lang],
                           [by_qid[g.id] for g in testbed.questions]))
    for testbed, pack, store, _ in chunks:  # warm-up round
        run_evaluation(testbed, pack, store=store)
    tally, problems = Tally(), []
    clock = time.perf_counter_ns

    def one_round():
        latencies, reports = [], []
        for testbed, pack, store, questions in chunks:
            start = clock()
            report = run_evaluation(testbed, pack, store=store)
            latencies.append((clock() - start) // len(questions))
            reports.append((report, questions))
        for report, questions in reports:
            problems.extend(check_report(report, questions, tally))
        return latencies

    rounds, setups = measure(
        seconds, one_round, tally,
        setup_sampler(workload, paths["fixtures_en"].parent),
        SETUP_SAMPLES[tiny])
    tally.unexpected.extend(sorted(set(problems))[:5])
    return tally, end_to_end(rounds, setups, [rss for _, rss in setups])


def run_cli(workload, corpus, paths, seconds, tiny):
    """cli-cold: `tqa answer --fixtures FILE QUESTION`, one fresh
    interpreter at a time, each timed from spawn to exit.  An invocation
    takes some 150 ms, too long to meet a quiet spell of the machine in
    every run, so each one's time is its median over the run's rounds, not
    its best.  Set-up is the same pack and fixture loading, in a child that
    answers nothing; peak RSS is the largest CLI child's."""
    workdir = paths["fixtures_en"].parent
    sample = cli_sample(corpus, tiny)
    tally, rss = Tally(), []

    def one_round():
        latencies = []
        for q in sample:
            argv = [sys.executable, "-m", "tqa.cli"] + cli_argv(q, paths)
            code, out, err, wall_ns, rss_mib = spawn(argv, workdir)
            latencies.append(wall_ns)
            rss.append(rss_mib)
            want = "".join(text + "\n" for text in q.expected)
            tally.record(q, code == 0 and out == want,
                         f"exit {code}, stdout {out!r}, want {want!r}, "
                         f"stderr {err[-300:]!r}")
        return latencies

    rounds, setups = measure(seconds, one_round, tally,
                             setup_sampler(workload, workdir),
                             SETUP_SAMPLES[tiny])
    return tally, end_to_end(rounds, setups, rss, statistics.median)


RUNNERS = {"answer-narrow": run_answer, "answer-wide": run_answer,
           "eval": run_eval, "cli-cold": run_cli}


# --- command line ------------------------------------------------------------

def run_one(args) -> int:
    import synth
    width = "wide" if args.workload == "answer-wide" else "narrow"
    corpus = synth.generate(args.seed, width,
                            synth.TINY_SIZE if args.tiny else synth.CORPUS_SIZE)
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        paths = synth.write_files(corpus, workdir)
        if args.trace:
            import traced
            tally, values, units, report = traced.run(
                args.workload, corpus, paths, args.seconds, args.tiny)
            out = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            out.parent.mkdir(exist_ok=True)
            out.write_text(json.dumps(report, indent=2) + "\n")
            print(f"trace written to {out.relative_to(ROOT)}")
        else:
            tally, values = RUNNERS[args.workload](
                args.workload, corpus, paths, args.seconds, args.tiny)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(corpus.questions)} questions per corpus, "
          f"attempted {tally.attempted}, failed {tally.failed}")
    for fault, n in sorted(tally.by_fault.items()):
        print(f"  failed {n} under known fault {fault}")
    for line in tally.unexpected:
        print(f"  UNEXPECTED FAILURE {line}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process so that peak RSS is
    its own.  Each child's result line is echoed as `RESULT <name> <json>`."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        print(f"RESULT {workload} {json.dumps(result)}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny corpus, for the self-check")
    args = parser.parse_args(argv)
    if not (SRC / "tqa" / "__init__.py").is_file():
        print(f"error: no tqa sources under {SRC}; run the benchmark from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
