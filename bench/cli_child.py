"""Child process for ``cli.import_ms``: time ``import tqa.cli`` in a fresh
interpreter and print the nanoseconds it took.  Needs ``src`` on PYTHONPATH."""

import time

start = time.perf_counter_ns()
import tqa.cli  # noqa: E402,F401

print(time.perf_counter_ns() - start)
