"""Run one partalg CLI invocation with the benchmark's tracer installed.

    python3 perfbench/clitrace.py <partalg arguments...>

stdout and the exit code are the CLI's own. The recorded spans and counts
go to stderr as its last line, after the SPANS_MARKER prefix.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import partalg.cli  # noqa: E402

from tracer import SPANS_MARKER, Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = partalg.cli.main(argv)
    except SystemExit as err:  # argparse usage errors exit 2 from inside parse
        code = err.code
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    print(SPANS_MARKER + json.dumps({"spans": tracer.spans, "counts": tracer.counts}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
