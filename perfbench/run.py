"""Benchmark for biprod: time to a verdict, set-up, memory, and per-layer cost.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload suite-rat --seed 1 --seconds 30 --trace 0

Every sample is a fresh single-threaded interpreter (perfbench/child.py)
started one at a time, with PYTHONPATH pointing at the checkout's src/,
so caches that biprod leaks during one sample are never charged to the
next.  Each output is checked against perfbench/expected.json; an
operation (one suite run or one show request) whose exit code, verdict
digest or output digest is wrong, or that raises, counts as failed.

--trace 0 measures the end-to-end metrics for --seconds.
--trace 1 runs the workload's fixed traced job once untraced and twice
traced, checks that both traced runs count exactly the same work, and
reports the per-layer metrics of the first traced run.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Lines before it are a readable summary with sample counts.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CACHES, SPANS  # this file's directory leads sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The verify workloads, as `biprod verify` arguments.  Why each one:
#   suite-rat      exact rational matrices: time goes to matmul and
#                  Fraction arithmetic, bilinearity and interchange
#   suite-chain    no matrices and no nullary structure: per-call and
#                  per-record overhead; the bypass for arithmetic changes
#   suite-product  the only user of instances/product.py; the product and
#                  coproduct witness stages enumerate exhaustively
# Sizes keep one suite run to a few seconds: run-to-run noise on a shared
# 2-CPU box is about 10% per run, so a steady median needs several runs
# within --seconds.
SUITES = {
    "suite-rat": ("mat-rat", 2, 1),
    "suite-chain": ("z-chain", 8, 3),
    "suite-product": ("product:finrel+z-chain", 1, 1),
}
# show-rat: cold `biprod show` requests on mat-rat, one client, closed loop
SHOW_INSTANCE = "mat-rat"
SHOW_KINDS = ("star", "t", "c", "e", "e'", "zero")
# size caps keep the slowest request (c(4,4)) under a second
PAIR_MAX = 4
STAR_MAX = 2
SHOW_MAX_SIZE = 4
SHOW_BATCH = 50  # requests per child process

SETUP_PROBES = 8
MIN_SUITE_RUNS = 3
MIN_SHOW_BATCHES = 2
TRACE_SHOW_REQUESTS = 100
# every child must end by then, so the whole run ends within 180 s
RUN_LIMIT_S = 170.0

STAGES = (
    "nullary",
    "nullary-distributors",
    "product-witness",
    "coproduct-witness",
    "dist-prod",
    "dist-coprod",
    "interchange",
    "t-inverse",
    "intertwining",
    "canonical",
    "biproduct",
    "hom-add-laws",
    "hom-add-native",
    "bilinearity",
)
END_TO_END = {"setup_s": "s", "latency_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for stage in STAGES:
        units[f"cli.stage.{stage}.s"] = "s"
        units[f"cli.stage.{stage}.records"] = "count"
        units[f"cli.stage.{stage}.equations"] = "count"
    units["cli.vacuous_records"] = "count"
    units["cli.render_s"] = "s"
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    for cache in CACHES:
        units[f"construction.{cache}.hit_ratio"] = "ratio"
    units["instances.matmul.madds"] = "count"
    units["instances.matmul.zero_operand_share"] = "ratio"
    units["instances.witness_builds"] = "count"
    units["instances.enumerate_homset.morphisms"] = "count"
    units["instances.product.pack_mor.calls"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    def __init__(self, started: float) -> None:
        self.started = started

    def child(self, job: dict) -> dict:
        """Run one job in a fresh interpreter and return its JSON result."""
        job = dict(job, root=str(ROOT))
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the next sample")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py")],
                input=json.dumps(job),
                capture_output=True,
                text=True,
                timeout=remaining,
                cwd=ROOT,
                env=env,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{job['kind']} sample did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(
                f"{job['kind']} sample exited {proc.returncode}: {proc.stderr.strip()}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])


def load_expected() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def show_space() -> list[str]:
    """Every show expression the benchmark sends, under the size caps."""
    exprs = []
    for kind in SHOW_KINDS:
        top, arity = (STAR_MAX, 4) if kind == "star" else (PAIR_MAX, 2)
        for args in itertools.product(range(top + 1), repeat=arity):
            exprs.append(f"{kind}({','.join(map(str, args))})")
    return exprs


def show_stream(rng: random.Random):
    """Endless show expressions: passes over the whole space, each in seeded order.

    Whole passes keep the request mix, and so the latency quantiles, the
    same from seed to seed; drawing sizes independently made the median
    jump between clusters of cheap and costly requests.
    """
    while True:
        space = show_space()
        rng.shuffle(space)
        yield from space


def show_argv(expr: str) -> list[str]:
    return ["show", expr, "--instance", SHOW_INSTANCE, "--max-size", str(SHOW_MAX_SIZE)]


def suite_argv(workload: str, seed: int) -> list[str]:
    instance, max_size, max_quad = SUITES[workload]
    return [
        "verify",
        "--instance",
        instance,
        "--max-size",
        str(max_size),
        "--max-quad",
        str(max_quad),
        "--seed",
        str(seed),
        "--report",
        "json",
    ]


def suite_job(workload: str, seed: int, trace: bool = False) -> dict:
    instance, max_size, _ = SUITES[workload]
    return {
        "kind": "suite",
        "instance": instance,
        "max_size": max_size,
        "argv": suite_argv(workload, seed),
        "trace": trace,
    }


def show_job(exprs: list[str], trace: bool = False) -> dict:
    return {
        "kind": "show",
        "instance": SHOW_INSTANCE,
        "max_size": SHOW_MAX_SIZE,
        "requests": [show_argv(e) for e in exprs],
        "trace": trace,
    }


def check_suite(result: dict, want: dict) -> str | None:
    """None when the suite run matches expectations, else what differs."""
    if "error" in result:
        return f"exit {result['exit']}: {result['error']}"
    got = {k: result[k] for k in ("exit", "digest", "passed", "failed")}
    if got != want:
        return f"got {got}, expected {want}"
    return None


def check_show(exprs: list[str], result: dict, want: dict) -> list[str]:
    """One message per request whose exit code or stdout digest is wrong."""
    bad = []
    for expr, (code, digest, _) in zip(exprs, result["replies"]):
        if [code, digest] != want.get(expr):
            bad.append(f"{expr}: got exit {code} digest {digest}, expected {want.get(expr)}")
    return bad


def measure(workload: str, seed: int, seconds: int, runner: Runner) -> dict:
    """Untraced samples for `seconds`; returns the result object."""
    rng = random.Random(seed)
    expected = load_expected()
    deadline = time.monotonic() + seconds
    if workload in SUITES:
        instance, max_size, _ = SUITES[workload]
    else:
        instance, max_size = SHOW_INSTANCE, SHOW_MAX_SIZE
    setup_job = {"kind": "setup", "instance": instance, "max_size": max_size}
    runner.child(setup_job)  # writes bytecode caches; not a sample

    setup_s = [runner.child(setup_job)["setup_s"] for _ in range(SETUP_PROBES)]
    latencies: list[float] = []
    rss_kb: list[int] = []
    child_s: list[float] = []
    errors: list[str] = []
    attempted = 0
    if workload in SUITES:
        job = suite_job(workload, rng.randrange(2**31))
        want = expected[workload]
        while len(child_s) < MIN_SUITE_RUNS or (
            time.monotonic() + statistics.median(child_s) < deadline
        ):
            start = time.monotonic()
            result = runner.child(job)
            child_s.append(time.monotonic() - start)
            attempted += 1
            problem = check_suite(result, want)
            if problem:
                errors.append(problem)
            if result["suite_s"] is not None:
                latencies.append(result["suite_s"] * 1000.0)
            setup_s.append(result["setup_s"])
            rss_kb.append(result["rss_kb"])
        if not latencies:
            raise BenchError(f"no suite run got as far as run_suite: {errors[0]}")
        print(f"{workload}: {' '.join(job['argv'])}")
        print(
            f"  suite_s median {statistics.median(latencies) / 1000.0:.3f} s"
            f"  mean {statistics.mean(latencies) / 1000.0:.3f} s over {len(latencies)} runs:"
            f" {' '.join(f'{v / 1000.0:.3f}' for v in latencies)}"
        )
    else:
        want = expected[workload]
        stream = show_stream(rng)
        while len(child_s) < MIN_SHOW_BATCHES or (
            time.monotonic() + statistics.median(child_s) < deadline
        ):
            exprs = list(itertools.islice(stream, SHOW_BATCH))
            start = time.monotonic()
            result = runner.child(show_job(exprs))
            child_s.append(time.monotonic() - start)
            attempted += len(exprs)
            errors += check_show(exprs, result, want)
            latencies += [r[2] * 1000.0 for r in result["replies"]]
            setup_s.append(result["setup_s"])
            rss_kb.append(result["rss_kb"])
        print(f"{workload}: {attempted} requests in {len(child_s)} batches")
        print(
            f"  show_p50_ms {statistics.median(latencies):.3f}"
            f"  show_p90_ms {statistics.quantiles(latencies, n=10)[-1]:.3f}"
            f"  mean {statistics.mean(latencies):.3f} over {len(latencies)} requests"
        )
    for problem in errors:
        print(f"  FAILED: {problem}")
    print(f"  setup_s median {statistics.median(setup_s):.4f} s over {len(setup_s)} processes")
    print(f"  peak_rss_mb median over {len(rss_kb)} processes")
    print(f"  error_rate {len(errors)}/{attempted}")
    values = {
        "setup_s": statistics.median(setup_s),
        # the mean, not the median: see "latency_ms" in README.md
        "latency_ms": statistics.mean(latencies),
        "peak_rss_mb": statistics.median(rss_kb) / 1024.0,
    }
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    }


def layer_metrics(trace: dict, stage_records: dict, overhead_s: float) -> dict:
    """The per-layer metrics of one traced run, keyed as per_layer_units()."""
    spans, counters, stages = trace["spans"], trace["counters"], trace["stages"]
    values: dict[str, float] = {}
    for stage in STAGES:
        stage_s, equations = stages.get(stage, [0.0, 0])
        values[f"cli.stage.{stage}.s"] = stage_s
        values[f"cli.stage.{stage}.records"] = stage_records.get(stage, 0)
        values[f"cli.stage.{stage}.equations"] = equations
    values["cli.vacuous_records"] = trace["vacuous_records"]
    values["cli.render_s"] = trace["render_s"]
    for span in SPANS:
        calls, self_s = spans.get(span, [0, 0.0])
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = self_s
    for cache in CACHES:
        hits, misses = trace["caches"][cache]
        values[f"construction.{cache}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    madds = counters.get("matmul.madds", 0)
    values["instances.matmul.madds"] = madds
    values["instances.matmul.zero_operand_share"] = (
        counters.get("matmul.zero_operand_madds", 0) / madds if madds else 0.0
    )
    values["instances.witness_builds"] = spans.get("instances.witness", [0])[0]
    values["instances.enumerate_homset.morphisms"] = counters.get(
        "enumerate_homset.morphisms", 0
    )
    values["instances.product.pack_mor.calls"] = spans.get(
        "instances.product.pack_mor", [0]
    )[0]
    values["trace.overhead_s"] = overhead_s
    return values


def work_counts(trace: dict, stage_records: dict) -> dict:
    """The deterministic part of a trace: everything except times."""
    return {
        "stages": {k: v[1] for k, v in trace["stages"].items()},
        "records": stage_records,
        "calls": {k: v[0] for k, v in trace["spans"].items()},
        "counters": trace["counters"],
        "caches": trace["caches"],
        "vacuous": trace["vacuous_records"],
    }


def traced(workload: str, seed: int, runner: Runner) -> dict:
    """One untraced and two traced runs of the fixed traced job."""
    rng = random.Random(seed)
    expected = load_expected()
    want = expected[workload]
    if workload in SUITES:
        suite_seed = rng.randrange(2**31)
        jobs = [suite_job(workload, suite_seed, trace=t) for t in (False, True, True)]
    else:
        exprs = list(itertools.islice(show_stream(rng), TRACE_SHOW_REQUESTS))
        jobs = [show_job(exprs, trace=t) for t in (False, True, True)]
    results = [runner.child(job) for job in jobs]

    errors: list[str] = []
    attempted = 0
    for result in results:
        if workload in SUITES:
            attempted += 1
            problem = check_suite(result, want)
            if problem:
                errors.append(problem)
        else:
            attempted += len(exprs)
            errors += check_show(exprs, result, want)

    def busy_s(result: dict) -> float:
        if workload in SUITES:
            return result["suite_s"] or 0.0
        return sum(r[2] for r in result["replies"])

    untraced_run, first, second = results
    counts = [work_counts(r["trace"], r.get("stage_records", {})) for r in (first, second)]
    if counts[0] != counts[1]:
        for key, one in counts[0].items():
            two = counts[1][key]
            if isinstance(one, dict):
                for name in sorted(one.keys() | two.keys()):
                    if one.get(name) != two.get(name):
                        print(f"  {key} {name}: {one.get(name)} != {two.get(name)}", file=sys.stderr)
            elif one != two:
                print(f"  {key}: {one} != {two}", file=sys.stderr)
        raise BenchError("two traced runs with one seed counted different work")

    overhead_s = busy_s(first) - busy_s(untraced_run)
    values = layer_metrics(first["trace"], first.get("stage_records", {}), overhead_s)
    units = per_layer_units()
    print(
        f"{workload} traced: untraced {busy_s(untraced_run):.3f} s,"
        f" traced {busy_s(first):.3f} s and {busy_s(second):.3f} s"
    )
    for problem in errors:
        print(f"  FAILED: {problem}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*SUITES, "show-rat"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "biprod" / "__init__.py").is_file():
        print(f"error: no biprod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(time.monotonic())
    try:
        if args.trace:
            result = traced(args.workload, args.seed, runner)
        else:
            result = measure(args.workload, args.seed, args.seconds, runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
