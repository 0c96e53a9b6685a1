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


def test_bench_floor_fails_a_wrong_run(monkeypatch, capsys):
    bench_floor = load_bench_floor()
    monkeypatch.chdir(ROOT)
    floor = json.loads(bench_floor.newest_bench(ROOT).read_text())
    # a run that meets every stage floor, so only correct and failed decide
    run = dict(floor["workloads"]["suite-chain"]["traced"], correct=True, failed=0)

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
    # not have more of them than the newest BENCH_<n>.json
    bench_floor = load_bench_floor()
    monkeypatch.chdir(ROOT)
    floor = json.loads(bench_floor.newest_bench(ROOT).read_text())
    run = dict(floor["workloads"]["suite-chain"]["traced"], correct=True, failed=0)
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
