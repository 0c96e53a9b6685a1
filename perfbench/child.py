"""One benchmark process: import biprod, resolve an instance, run one job.

run.py starts a fresh interpreter on this file for every sample, so the
module-level caches that biprod grows during one job never reach the
next.  The job arrives as JSON on stdin; the result leaves as one JSON
line on stdout.  Times are measured here, around the calls into biprod,
so interpreter start-up is not in them.

Jobs:
  setup  import biprod.cli and resolve the instance, nothing else
  suite  run `biprod verify ... --report json` through cli.main
  show   run a batch of `biprod show ...` requests through cli.main,
         one after another, each resolving its own cold instance

With "trace": true the job runs under tracer.Tracer and the result
carries its snapshot.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def records_digest(checks: list) -> str:
    """Digest of the ordered (suite, objects, passed) triples of a report."""
    lines = (
        f"{c['suite']}\t{','.join(c['objects'])}\t{c['passed']}\n" for c in checks
    )
    return digest("".join(lines))


def peak_rss_kb() -> int:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def call_main(main, argv: list) -> tuple:
    """Run cli.main with captured output; an exception becomes exit None."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:  # argparse refuses arguments this way
        return exc.code, out.getvalue()
    except Exception as exc:  # a crash is a wrong result, reported by run.py
        return None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def run_suite_job(job: dict, cli) -> dict:
    timed = {}
    run_suite = cli.run_suite

    def timed_run_suite(config):
        start = time.perf_counter()
        try:
            return run_suite(config)
        finally:
            timed["suite_s"] = time.perf_counter() - start

    cli.run_suite = timed_run_suite
    code, out = call_main(cli.main, job["argv"])
    result = {"exit": code, "suite_s": timed.get("suite_s"), "rss_kb": peak_rss_kb()}
    try:
        checks = json.loads(out)["checks"]
    except (ValueError, KeyError, TypeError):
        result["error"] = out.strip()[:200] or f"no report, exit {code}"
        return result
    result["digest"] = records_digest(checks)
    result["passed"] = sum(1 for c in checks if c["passed"])
    result["failed"] = len(checks) - result["passed"]
    stage_records: dict = {}
    for c in checks:
        stage_records[c["suite"]] = stage_records.get(c["suite"], 0) + 1
    result["stage_records"] = stage_records
    return result


def run_show_job(job: dict, cli) -> dict:
    replies = []
    for argv in job["requests"]:
        start = time.perf_counter()
        code, out = call_main(cli.main, argv)
        elapsed = time.perf_counter() - start
        replies.append([code, digest(out), elapsed])
    return {"replies": replies, "rss_kb": peak_rss_kb()}


def main() -> int:
    job = json.loads(sys.stdin.read())
    start = time.perf_counter()
    import biprod.cli as cli
    from biprod.instances import resolve

    resolve(job["instance"], job["max_size"])
    setup_s = time.perf_counter() - start
    src = os.path.realpath(os.path.join(job["root"], "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"biprod was imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if job.get("trace"):
        from tracer import Tracer  # this file's directory leads sys.path

        tracer = Tracer()
        tracer.install()

    if job["kind"] == "setup":
        result = {"rss_kb": peak_rss_kb()}
    elif job["kind"] == "suite":
        result = run_suite_job(job, cli)
    else:
        result = run_show_job(job, cli)
    result["setup_s"] = setup_s
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
