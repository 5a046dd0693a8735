"""cnfgrad benchmark: one workload per call, in a fresh worker process.

    python3 perfbench/run.py --workload sudoku4-unsup --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The worker (``worker.py``) generates all load in its own process; this
supervisor only waits for it, so that a worker that crashes, is killed
or overruns still ends in a result that counts it as failed. The last
line of standard output is the result object.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
FAILED_RUN = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "cnfgrad", "__init__.py")):
        print(f"error: no cnfgrad sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *sys.argv[1:]]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        print(f"error: worker still running after {WORKER_TIMEOUT_S} s; killed", file=sys.stderr)
        out = exc.stdout.decode() if isinstance(exc.stdout, bytes) else (exc.stdout or "")
        sys.stdout.write(out)
        print(json.dumps(FAILED_RUN))
        return 1
    if proc.returncode == 2 and not proc.stdout:
        return 2  # bad arguments, already reported by the worker
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    has_result = isinstance(last, dict) and set(last) == RESULT_KEYS
    if not has_result:
        print(f"error: worker exited with code {proc.returncode} and no result", file=sys.stderr)
        print(json.dumps(FAILED_RUN))
    return 0 if proc.returncode == 0 and has_result else 1


if __name__ == "__main__":
    sys.exit(main())
