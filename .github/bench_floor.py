"""Fail when a traced benchmark run is wrong or checks less than any committed BENCH_<n>.json.

    python3 .github/bench_floor.py <workload> '<last JSON line of run.py --trace 1>'

Run from the repository root.  The run must report correct: true with 0
failed operations.  Every cli.stage.<stage>.records and
cli.stage.<stage>.equations value of the run must be at least the largest
value any BENCH_<n>.json at the root records for that workload, and its
cli.vacuous_records (records that pass with no equation) at most the
smallest, so no speedup can pass by checking fewer equations or by
turning records vacuous.  The bounds come from every committed file, not
the newest alone, so a change that commits a new file with lower counts
is still checked against the older ones.  A declared narrowing (see
ROADMAP's standing gates) therefore cannot pass by writing a new file:
it must edit the floor here, visibly, in its own change.  Each shortfall
names the file that set its bound.  Exits 1 on a wrong run or any
shortfall, 2 when no file records the workload.
"""
from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

COUNTED = re.compile(r"cli\.stage\.[^.]+\.(records|equations)")
VACUOUS = "cli.vacuous_records"


def bounds(root: Path, workload: str) -> dict[str, tuple[float, str]]:
    """Each gated metric's bound over every BENCH_<n>.json at root, with the file that set it.

    Files are read in number order, so of two files that set the same
    bound the newer is named.
    """
    numbered = []
    for path in root.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if m:
            numbered.append((int(m.group(1)), path))
    found: dict[str, tuple[float, str]] = {}
    for _, path in sorted(numbered):
        runs = json.loads(path.read_text())["workloads"].get(workload)
        if runs is None:
            continue
        for name, metric in runs["traced"]["metrics"].items():
            value = metric["value"]
            old = found.get(name)
            if COUNTED.fullmatch(name):
                if old is None or value >= old[0]:
                    found[name] = (value, path.name)
            elif name == VACUOUS:
                if old is None or value <= old[0]:
                    found[name] = (value, path.name)
    return found


def main(argv: list[str]) -> int:
    workload, line = argv
    run = json.loads(line)
    print(f"{workload} correct: {run['correct']} failed: {run['failed']}")
    wrong = run["correct"] is not True or run["failed"] != 0
    want = bounds(Path.cwd(), workload)
    if not want:
        print(f"error: no BENCH_<n>.json records workload {workload}", file=sys.stderr)
        return 2
    got = run["metrics"]
    short = []
    for name in sorted(want):
        bound, source = want[name]
        if name == VACUOUS:
            # a run that does not report it cannot show it stayed down
            have = got.get(name, {}).get("value", math.inf)
            if have > bound:
                short.append(f"{name}: {have} > {bound} ({source})")
        else:
            have = got.get(name, {}).get("value", 0)
            if have < bound:
                short.append(f"{name}: {have} < {bound} ({source})")
    for problem in short:
        print(f"{workload} {problem}")
    sources = ", ".join(sorted({source for _, source in want.values()}))
    print(f"{workload} stage counts against {sources}: {'FAIL' if short else 'ok'}")
    return 1 if wrong or short else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
