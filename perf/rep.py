"""Child entry point: one repetition of one workload in a fresh interpreter.

``python3 -m perf.rep '<job json>'`` — started by :mod:`perf.cli` with
``PYTHONHASHSEED=0`` and ``src`` on ``PYTHONPATH``.  The clock starts on
the first line so that ``setup_s`` covers the imports too.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from perf.drain import run_rep  # noqa: E402  (imports repro)

IMPORTED = time.perf_counter()

if __name__ == "__main__":
    print(json.dumps(run_rep(json.loads(sys.argv[1]), STARTED, IMPORTED)))
