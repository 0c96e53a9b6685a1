"""Fail when a traced benchmark run is wrong or checks less than the newest BENCH_<n>.json.

    python3 .github/bench_floor.py <workload> '<last JSON line of run.py --trace 1>'

Run from the repository root.  The run must report correct: true with 0
failed operations.  Every cli.stage.<stage>.records and
cli.stage.<stage>.equations value of the run must be at least the one the
highest-numbered BENCH_<n>.json at the root records for that workload,
and its cli.vacuous_records (records that pass with no equation) at most
that file's, so no speedup can pass by checking fewer equations or by
turning records vacuous.  Exits 1 on a wrong run or any shortfall, 2
when there is no floor to compare against.
"""
from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

COUNTED = re.compile(r"cli\.stage\.[^.]+\.(records|equations)")
VACUOUS = "cli.vacuous_records"


def newest_bench(root: Path) -> Path | None:
    numbered = []
    for path in root.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if m:
            numbered.append((int(m.group(1)), path))
    return max(numbered)[1] if numbered else None


def main(argv: list[str]) -> int:
    workload, line = argv
    run = json.loads(line)
    print(f"{workload} correct: {run['correct']} failed: {run['failed']}")
    wrong = run["correct"] is not True or run["failed"] != 0
    bench = newest_bench(Path.cwd())
    if bench is None:
        print("error: no BENCH_<n>.json to compare against", file=sys.stderr)
        return 2
    floor = json.loads(bench.read_text())["workloads"].get(workload)
    if floor is None:
        print(f"error: {bench.name} has no workload {workload}", file=sys.stderr)
        return 2
    want = floor["traced"]["metrics"]
    got = run["metrics"]
    short = []
    for name in sorted(want):
        bound = want[name]["value"]
        if COUNTED.fullmatch(name):
            have = got.get(name, {}).get("value", 0)
            if have < bound:
                short.append(f"{name}: {have} < {bound}")
        elif name == VACUOUS:
            # a run that does not report it cannot show it stayed down
            have = got.get(name, {}).get("value", math.inf)
            if have > bound:
                short.append(f"{name}: {have} > {bound}")
    for problem in short:
        print(f"{workload} {problem} ({bench.name})")
    print(f"{workload} stage counts against {bench.name}: {'FAIL' if short else 'ok'}")
    return 1 if wrong or short else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
