"""Run sptmbqc CLI commands in this process, the way scripts/run_conformance.py does.

    python perfbench/child.py PLAN.json RESULT.json [SPANS.json]

PLAN.json holds a list of argv lists.  RESULT.json receives one
[exit code, seconds] pair per command.  With SPANS.json the layers are traced
(see spans.py) and the spans are written there when the commands end.  An
uncaught exception counts as exit code 1, as it would for `python -m
sptmbqc.cli`.
"""

from __future__ import annotations

import json
import sys
import traceback
from time import perf_counter


def main(argv: list[str]) -> int:
    plan_path, result_path = argv[0], argv[1]
    spans_path = argv[2] if len(argv) > 2 else None
    from sptmbqc import cli

    tracer = None
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    with open(plan_path) as fh:
        commands = json.load(fh)
    results = []
    for args in commands:
        t0 = perf_counter()
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        results.append([code, perf_counter() - t0])
        sys.stdout.flush()
        sys.stderr.flush()
    with open(result_path, "w") as fh:
        json.dump(results, fh)
    if tracer is not None:
        tracer.dump(spans_path)
    return max((code for code, _ in results), default=0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
