"""Re-record the golden stdout and exit code of every command in the cli-small mix.

Run from the repository root at a commit whose CLI output is trusted:

    python3 perfbench/record_golden.py

The mix is the `argv` of each entry of perfbench/golden_cli.json; to change
it, edit those lists and re-record. Each command is small, so interpreter
start, imports and argument parsing dominate the call, and the two usage
errors cover the exit-2 half of the exit-code contract. The cli-small
workload checks each call against this file byte for byte.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden_cli.json"


def record(mix: list[list[str]]) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for argv in mix:
        proc = subprocess.run(
            [sys.executable, "-m", "partalg.cli", *argv],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60,
        )
        out.append({"argv": argv, "exit": proc.returncode, "stdout": proc.stdout})
    return out


if __name__ == "__main__":
    mix = [entry["argv"] for entry in json.loads(GOLDEN.read_text())]
    GOLDEN.write_text(json.dumps(record(mix), indent=1) + "\n")
