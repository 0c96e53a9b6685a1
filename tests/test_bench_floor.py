from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench_floor():
    spec = importlib.util.spec_from_file_location("bench_floor", ROOT / ".github" / "bench_floor.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_at_bounds(bench_floor, workload: str) -> dict:
    """A correct run whose every gated metric sits exactly on its bound."""
    metrics = {
        name: {"value": value, "unit": "count"}
        for name, (value, _) in bench_floor.bounds(ROOT, workload).items()
    }
    return {"correct": True, "failed": 0, "metrics": metrics}


def test_bench_floor_fails_a_wrong_run(monkeypatch, capsys):
    bench_floor = load_bench_floor()
    monkeypatch.chdir(ROOT)
    # a run that meets every stage floor, so only correct and failed decide
    run = run_at_bounds(bench_floor, "suite-chain")

    def verdict(**fields):
        return bench_floor.main(["suite-chain", json.dumps(dict(run, **fields))])

    assert verdict() == 0
    assert verdict(correct=False) == 1
    assert verdict(failed=1) == 1
    out = capsys.readouterr().out
    assert "suite-chain correct: False failed: 0" in out
    assert "suite-chain correct: True failed: 1" in out


def test_bench_floor_fails_a_rise_in_vacuous_records(monkeypatch, capsys):
    # a record that passes with no equation checked nothing, so a run may
    # not have more of them than any committed BENCH_<n>.json
    bench_floor = load_bench_floor()
    monkeypatch.chdir(ROOT)
    run = run_at_bounds(bench_floor, "suite-chain")
    allowed = run["metrics"][bench_floor.VACUOUS]["value"]

    def verdict(vacuous):
        metrics = dict(run["metrics"])
        if vacuous is None:
            del metrics[bench_floor.VACUOUS]
        else:
            metrics[bench_floor.VACUOUS] = {"value": vacuous, "unit": "count"}
        return bench_floor.main(["suite-chain", json.dumps(dict(run, metrics=metrics))])

    assert verdict(allowed) == 0
    assert verdict(allowed + 1) == 1
    assert verdict(None) == 1
    out = capsys.readouterr().out
    assert f"suite-chain cli.vacuous_records: {allowed + 1} > {allowed}" in out
    assert "suite-chain stage counts against" in out and "FAIL" in out


def test_bench_floor_holds_a_run_to_an_older_stricter_file(tmp_path, monkeypatch, capsys):
    # committing a new file with fewer equations must not lower the floor:
    # every committed file bounds the run, and a shortfall names its file
    bench_floor = load_bench_floor()

    def bench(n: int, equations: int, vacuous: int) -> dict:
        metrics = {
            "cli.stage.interchange.records": {"value": 10, "unit": "count"},
            "cli.stage.interchange.equations": {"value": equations, "unit": "count"},
            bench_floor.VACUOUS: {"value": vacuous, "unit": "count"},
        }
        (tmp_path / f"BENCH_{n}.json").write_text(
            json.dumps({"workloads": {"suite-chain": {"traced": {"metrics": metrics}}}})
        )
        return metrics

    bench(9, equations=100, vacuous=0)
    newer = bench(10, equations=90, vacuous=2)
    monkeypatch.chdir(tmp_path)
    run = {"correct": True, "failed": 0, "metrics": newer}
    assert bench_floor.main(["suite-chain", json.dumps(run)]) == 1
    out = capsys.readouterr().out
    assert "suite-chain cli.stage.interchange.equations: 90 < 100 (BENCH_9.json)" in out
    assert "suite-chain cli.vacuous_records: 2 > 0 (BENCH_9.json)" in out
    assert "FAIL" in out
    # the workload is in neither file: no floor to compare against
    assert bench_floor.main(["suite-rat", json.dumps(run)]) == 2
