"""Record the exact outputs of every workload variant into reference.json.

    python3 perfbench/record_reference.py

Run from the root of a checkout.  It runs one untraced pass of each workload
for each seed variant and keeps the values `checks.exact_values` extracts,
also from an operation that exits with an unexpected code but wrote them
(the exact nu export of the D=3 sweep points, written before the self-test
fails).
Record them again only on purpose: the benchmark compares later commits
against them.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

import checks
import run
import workloads


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    values: dict[str, dict[str, dict[str, float]]] = {}
    workdir = root / ".bench_run" / "reference"
    try:
        for v in range(workloads.VARIANTS):
            for name in workloads.WORKLOADS:
                plan = workloads.build(name, v)
                shutil.rmtree(workdir, ignore_errors=True)
                run.write_models(plan, workdir / "models")
                runner = run.ChildRunner(root, perf_counter() + 600)
                res = run.run_pass(plan, runner, workdir / "pass", traced=False)
                for op, code in zip(plan.ops, res.exits):
                    if not op.out:
                        continue
                    try:
                        exact = checks.exact_values(op, workdir / "pass" / op.out)
                    except (OSError, KeyError, ValueError):
                        exact = {}
                    if code != op.expect:
                        # keep what it wrote before failing, so that a fix of the
                        # defect is checked against these values
                        print(f"variant {v} {name}: {' '.join(op.argv[:2])} on {op.point} "
                              f"exited {code}, expected {op.expect}; kept {len(exact)} exact "
                              f"values", file=sys.stderr)
                    values.setdefault(str(v), {}).setdefault(op.point, {}).update(exact)
                print(f"variant {v} {name}: {res.wall_s:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"tolerance": checks.EXACT_TOL, "variants": workloads.VARIANTS, "values": values}
    (Path(run.HERE) / "reference.json").write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
