"""Pieces shared by the end-to-end runs, the traced run and the children."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

LANGS = ("en", "es")
#: CLI invocations per language in a round of cli-cold (tiny corpus: fewer).
CLI_SAMPLE = {False: 2, True: 1}


def percentile(samples, q: float):
    """Nearest-rank percentile, 0 < q <= 1."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail(samples):
    """The 99th percentile where at least 1000 samples exist; otherwise the
    highest percentile with ten samples beyond it, and the median below
    twenty samples."""
    n = len(samples)
    if n < 20:
        return statistics.median(samples)
    return percentile(samples, 0.99 if n >= 1000 else 1 - 10 / n)


class Tally:
    """Attempted and failed operations of one round.

    Every round runs the same operations, and ``tqa`` is deterministic, so
    the counts are the first round's.  Each later round is checked all the
    same: an outcome that differs from the first round's, or a failure
    outside the labelled fault slice, makes the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_fault = {}
        self.unexpected = []  # the first few, described
        self._first = None  # the first round's outcomes, in order
        self._round = []
        self._rounds = 0

    def record(self, question, ok: bool, detail=""):
        self._round.append(ok)
        if self._first is not None:
            return
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if question.fault:
            self.by_fault[question.fault] = \
                self.by_fault.get(question.fault, 0) + 1
        elif len(self.unexpected) < 5:
            self.unexpected.append(f"{question.lang} Q{question.qid} "
                                   f"{question.text!r}: {detail}")

    def end_round(self):
        self._rounds += 1
        if self._first is None:
            self._first = self._round
        elif self._round != self._first and len(self.unexpected) < 5:
            self.unexpected.append(f"round {self._rounds}: outcomes differ "
                                   "from the first round's")
        self._round = []

    @property
    def correct(self) -> bool:
        return not self.unexpected


def answer_texts(result) -> tuple[str, ...]:
    return tuple(a.text for a in result.answers)


def load_inputs(paths, with_testbed=False):
    """The program's own set-up: packs, fixture stores (and testbeds)."""
    from tqa import get_pack, load_fixtures, load_testbed
    packs = {lang: get_pack(lang) for lang in LANGS}
    stores = {lang: load_fixtures(paths[f"fixtures_{lang}"]) for lang in LANGS}
    testbeds = {lang: load_testbed(paths[f"testbed_{lang}"])
                for lang in LANGS} if with_testbed else None
    return packs, stores, testbeds


def cli_sample(corpus, tiny):
    """The fixed CLI sample: the first CLI_SAMPLE questions of each language
    outside the fault slice, in stream order."""
    sample = []
    for lang in LANGS:
        sample += [q for q in corpus.questions
                   if q.lang == lang and not q.fault][:CLI_SAMPLE[tiny]]
    return sample


def cli_argv(q, paths):
    return ["answer", "--lang", q.lang, "--fixtures",
            str(paths[f"fixtures_{q.lang}"]), q.text]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, workdir: Path):
    """Run ``argv`` to its end, with ``src`` on its PYTHONPATH.

    Returns its exit code, stdout, stderr, wall time from spawn to exit in
    ns, and its own peak RSS in MiB.  Output goes to files in ``workdir``
    rather than pipes, so that the child is reaped by ``wait4``, which
    gives its resource usage apart from every other child's.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall_ns = time.perf_counter_ns() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text("utf-8"),
            err_path.read_text("utf-8", "replace"), wall_ns,
            usage.ru_maxrss / 1024)  # KiB on Linux
