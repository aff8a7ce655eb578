"""Child process for ``setup_s`` and ``peak_rss_mib``.

    python3 bench/setup_child.py WORKDIR WORKLOAD ROUND

Times the program's own set-up in a fresh interpreter -- ``get_pack``,
``load_fixtures`` on the generated files, and ``load_testbed`` for eval.
With ROUND 1 it then runs one round of the workload's operations
unchecked, so that the process's peak RSS is the program's and not the
harness's.  Prints the
set-up time in seconds.  Needs ``src`` on PYTHONPATH; the parent reads the
peak RSS from ``wait4``.
"""

import json
import sys
import time
from pathlib import Path

from common import LANGS, load_inputs
from synth import REF
from tqa import answer_complex_question, run_evaluation

workdir, workload, run_round = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
paths = {f"{name}_{lang}": workdir / f"{name}_{lang}.xml"
         for name in ("fixtures", "testbed") for lang in LANGS}
start = time.perf_counter()
packs, stores, testbeds = load_inputs(paths, with_testbed=workload == "eval")
elapsed = time.perf_counter() - start
if run_round == "1" and workload == "eval":
    for lang in LANGS:
        run_evaluation(testbeds[lang], packs[lang], store=stores[lang])
elif run_round == "1" and workload != "cli-cold":
    for lang, text in json.loads((workdir / "questions.json").read_text()):
        answer_complex_question(text, packs[lang], REF, stores[lang])
print(repr(elapsed))
