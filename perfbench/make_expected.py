"""Regenerate perfbench/expected.json from the program in this checkout.

    python3 perfbench/make_expected.py

Records, for each verify workload, the exit code, pass/fail counts and
the digest of the ordered (suite, objects, passed) records, and for
every show request the benchmark can generate, the exit code and the
digest of stdout.  Run it only when a change to biprod's output is
intended, and say in the change why the expected values moved.
"""
from __future__ import annotations

import json
import time

import run


def main() -> int:
    runner = run.Runner(time.monotonic())
    expected: dict = {}
    for workload in run.SUITES:
        result = runner.child(run.suite_job(workload, 0))
        expected[workload] = {k: result[k] for k in ("exit", "digest", "passed", "failed")}
        print(workload, expected[workload])
    exprs = run.show_space()
    result = runner.child(run.show_job(exprs))
    expected["show-rat"] = {e: r[:2] for e, r in zip(exprs, result["replies"])}
    print("show-rat", len(exprs), "requests")
    with open(run.HERE / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
