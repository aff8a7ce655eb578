"""Self-check of the benchmark itself, in a few seconds.

    python3 bench/selfcheck.py

Runs every workload on the tiny corpus, untraced and traced, through the
one command `bench/run.py --workload all`, and checks that:

- each workload prints its result with attempted and failed counts, and
  is correct; the counts are exactly one round's;
- every metric BENCHMARK.json names is printed with the unit it gives
  there (end-to-end metrics untraced, per-layer metrics traced);
- the failed operations are exactly the labelled fault slice, by name;
- in a directory holding only BENCHMARK.json and bench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

from common import BENCH, CLI_SAMPLE, LANGS, ROOT
from synth import FAULT_SLICE, TINY_SIZE

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(workload, result, wanted, trace, errors):
    where = f"{workload} (trace {trace})"
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: keys {sorted(result)}")
        return
    if result["correct"] is not True:
        errors.append(f"{where}: not correct")
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int)
            and attempted >= 1 and 0 <= failed <= attempted):
        errors.append(f"{where}: attempted {attempted!r} failed {failed!r}")
        return
    # the counts are one round's, so they are exact whatever the run length
    want = (len(LANGS) * CLI_SAMPLE[True], 0) if workload == "cli-cold" \
        else (TINY_SIZE + len(FAULT_SLICE), len(FAULT_SLICE))
    if (attempted, failed) != want:
        errors.append(f"{where}: {failed} of {attempted} failed, expected "
                      f"{want[1]} of {want[0]}")
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        errors.append(f"{where}: metrics {sorted(set(metrics) ^ set(wanted))} "
                      "differ from BENCHMARK.json")
    for name, unit in wanted.items():
        metric = metrics.get(name, {})
        value = metric.get("value")
        if metric.get("unit") != unit:
            errors.append(f"{where}: {name} unit {metric.get('unit')!r}, "
                          f"BENCHMARK.json says {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r}")


def check_bare_directory(errors):
    """Without the program's sources the benchmark must refuse to run."""
    bare = BENCH / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "bench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "bench")
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "answer-narrow",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append("run.py without sources: exit "
                          f"{proc.returncode}, stdout {proc.stdout[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    errors = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "all",
             "--tiny", "--seconds", "0.2", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
        if proc.returncode != 0:
            errors.append(f"trace {trace}: exit {proc.returncode}: "
                          f"{proc.stderr[-500:]}")
            continue
        results = {}
        for line in proc.stdout.splitlines():
            if line.startswith("RESULT "):
                _, workload, payload = line.split(" ", 2)
                results[workload] = json.loads(payload)
        for workload in workloads:
            if workload not in results:
                errors.append(f"trace {trace}: no result for {workload}")
                continue
            check_result(workload, results[workload], wanted, trace, errors)
        for _, fault, *_ in FAULT_SLICE:
            if f"under known fault {fault}" not in proc.stdout:
                errors.append(f"trace {trace}: fault {fault} not reported")
    check_bare_directory(errors)
    for error in errors:
        print(f"FAIL {error}")
    print("selfcheck:", "FAILED" if errors else "OK")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
