"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload khop-inproc --seed 1 --seconds 25 --trace 0

Run from the repository root.  Starts ``harness.py`` in a fresh process
with ``PYTHONHASHSEED`` fixed and ``src`` on ``PYTHONPATH``, waits for it
(killing its whole process group on timeout), and forwards its output; the
last line of standard output is the JSON result.  Exits non-zero, without
a result, when the repository sources are missing or the run fails.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 170


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("run from the repository root: src/repro not found", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "harness.py"), *sys.argv[1:]],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"benchmark run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        # pool workers live in the child's process group; none may outlive it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"harness exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(out)
        print("harness printed no result", file=sys.stderr)
        return 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
