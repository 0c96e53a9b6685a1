from __future__ import annotations

import itertools
import json

import pytest

from biprod.cli import (
    NULLARY_DEPENDENT,
    STAGES,
    SuiteConfig,
    _guard,
    _parse_expression,
    _parse_obj,
    _t_inverse_check,
    main,
    render_json,
    render_text,
    run_suite,
)
from biprod.errors import InvalidBounds, ParseError
from biprod.instances import finrel, product_instance, z_chain
from biprod.structure import ProductWitness


def test_config_validation():
    with pytest.raises(InvalidBounds):
        SuiteConfig(max_size=0)
    with pytest.raises(InvalidBounds):
        SuiteConfig(max_size=17)
    with pytest.raises(InvalidBounds):
        SuiteConfig(max_quad=5)
    with pytest.raises(InvalidBounds):
        SuiteConfig(samples=0)
    with pytest.raises(InvalidBounds):
        SuiteConfig(report="xml")


def test_quad_bound_defaults():
    assert SuiteConfig(max_size=4).quad_bound == 2
    assert SuiteConfig(max_size=1).quad_bound == 1
    assert SuiteConfig(max_size=4, max_quad=3).quad_bound == 3


def test_full_suite_passes_on_finrel():
    report = run_suite(SuiteConfig(instance="finrel", max_size=1, samples=5))
    assert report.failed == 0
    assert len(report.checks) == 75
    stages = {c.suite for c in report.checks}
    assert stages == {
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
    }


def test_suite_reports_missing_nullary_structure():
    report = run_suite(SuiteConfig(instance="z-chain", max_size=2, samples=2))
    bad = [c for c in report.checks if not c.passed]
    assert len(bad) == 7
    assert {c.suite for c in bad} == {"nullary", *NULLARY_DEPENDENT}
    assert all(c.failure == "NoNullaryStructure" for c in bad)
    # everything the order can express still verifies
    good_stages = {c.suite for c in report.checks if c.passed}
    assert "interchange" in good_stages and "t-inverse" in good_stages


def test_stage_table_is_pinned():
    assert [s.name for s in STAGES] == [
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
    ]
    assert NULLARY_DEPENDENT == (
        "intertwining",
        "canonical",
        "biproduct",
        "hom-add-laws",
        "hom-add-native",
        "bilinearity",
    )


def _stage_runs(report):
    """(stage, records, failed records) for each run of same-stage records."""
    runs = []
    for suite, group in itertools.groupby(report.checks, key=lambda c: c.suite):
        group = list(group)
        runs.append((suite, len(group), sum(1 for c in group if not c.passed)))
    return runs


def test_stage_record_counts():
    rel = run_suite(SuiteConfig(instance="finrel", max_size=2, samples=2))
    assert _stage_runs(rel) == [
        ("nullary", 1, 0),
        ("nullary-distributors", 3, 0),
        ("product-witness", 9, 0),
        ("coproduct-witness", 9, 0),
        ("dist-prod", 27, 0),
        ("dist-coprod", 27, 0),
        ("interchange", 81, 0),
        ("t-inverse", 9, 0),
        ("intertwining", 9, 0),
        ("canonical", 9, 0),
        ("biproduct", 9, 0),
        ("hom-add-laws", 9, 0),
        ("hom-add-native", 9, 0),
        ("bilinearity", 27, 0),
    ]
    # without nullary structure: no nullary-distributors records, and one
    # failed stand-in per nullary stage, the dependents after t-inverse
    chain = run_suite(SuiteConfig(instance="z-chain", max_size=2, samples=2))
    assert _stage_runs(chain) == [
        ("nullary", 1, 1),
        ("product-witness", 25, 0),
        ("coproduct-witness", 25, 0),
        ("dist-prod", 125, 0),
        ("dist-coprod", 125, 0),
        ("interchange", 625, 0),
        ("t-inverse", 25, 0),
        ("intertwining", 1, 1),
        ("canonical", 1, 1),
        ("biproduct", 1, 1),
        ("hom-add-laws", 1, 1),
        ("hom-add-native", 1, 1),
        ("bilinearity", 1, 1),
    ]


def test_guard_reports_failed_equation_of_raised_error():
    inst = finrel(2)
    real = inst.product

    def rotated(a, b):
        p = real(a, b)
        if (a.data, b.data) != (2, 2):
            return p

        def mediate(f, g):
            m = p.mediate(f, g)
            return inst.mor(m.dom, m.cod, m.payload[1:] + m.payload[:1])

        return ProductWitness(p.left, p.right, p.apex, p.pi1, p.pi2, mediate)

    inst.product = rotated
    checks = []
    a, b = inst.obj(2), inst.obj(1)
    _guard(checks, "t-inverse", ("2", "1"), lambda: _t_inverse_check(a, b))
    [record] = checks
    assert not record.passed
    assert record.failure.startswith("pair: pi1*m=f")
    assert "entry (" in record.failure


def test_json_report_is_reproducible():
    config = SuiteConfig(instance="finrel", max_size=1, samples=5, report="json")
    one = render_json(run_suite(config))
    two = render_json(run_suite(config))
    assert one == two
    payload = json.loads(one)
    assert payload["duration_ms"] is None
    assert payload["config"]["instance"] == "finrel"
    assert payload["config"]["max_quad"] == 1
    assert payload["summary"]["failed"] == 0
    assert all(c["passed"] for c in payload["checks"])


def test_text_report_lines():
    report = run_suite(SuiteConfig(instance="z-chain", max_size=1, samples=2))
    text = render_text(report)
    assert "[FAIL] nullary: NoNullaryStructure" in text
    assert "[pass] product-witness(0,0)" in text
    assert "summary: " in text and " ms" in text


def test_main_verify_exit_codes(capsys):
    assert main(["verify", "--instance", "finrel", "--max-size", "1"]) == 0
    assert main(["verify", "--instance", "z-chain", "--max-size", "1"]) == 1
    assert main(["verify", "--instance", "nonsense"]) == 2
    assert main(["verify", "--max-size", "0"]) == 2
    err = capsys.readouterr().err
    assert "unknown instance" in err
    assert "max size" in err


def test_main_json_duration_on_stderr(capsys):
    code = main(
        ["verify", "--instance", "finrel", "--max-size", "1", "--report", "json"]
    )
    out, err = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["duration_ms"] is None
    assert "completed in" in err


def test_show_prints_frozen_interleaving(capsys):
    assert main(["show", "t(1,1)"]) == 0
    out = capsys.readouterr().out
    assert "4->4 [1 0 0 0; 0 0 1 0; 0 1 0 0; 0 0 0 1]" in out
    assert "[1,1]" in out and "[2,2]" in out


def test_show_zero_and_idempotents(capsys):
    assert main(["show", "zero(2,3)"]) == 0
    assert main(["show", "e(1,1)"]) == 0
    assert main(["show", "e'(1,1)"]) == 0
    out = capsys.readouterr().out
    assert "2->3" in out


def test_show_star_on_product_instance(capsys):
    code = main(
        [
            "show",
            "zero(1|0,2|1)",
            "--instance",
            "product:finrel+mat-nat",
            "--max-size",
            "2",
        ]
    )
    assert code == 0


def test_show_failure_modes(capsys):
    assert main(["show", "t(1)"]) == 2
    assert main(["show", "frob(1,2)"]) == 2
    assert main(["show", "zero(0,1)", "--instance", "z-chain"]) == 1
    err = capsys.readouterr().err
    assert "takes 2 objects" in err
    assert "lacks terminal/initial structure" in err
    for inst in ("finrel", "z-chain", "product:finrel+z-chain", "product:z-chain+finrel"):
        assert main(["show", "zero(1,2)", "--instance", inst, "--max-size", "-1"]) == 2
    assert "max size must be nonnegative" in capsys.readouterr().err


def test_parse_expression():
    assert _parse_expression(" e'( 2 , 3 ) ") == ("e'", ["2", "3"])
    assert _parse_expression("star(1,1,2,2)") == ("star", ["1", "1", "2", "2"])
    with pytest.raises(ParseError):
        _parse_expression("t(,1)")
    with pytest.raises(ParseError):
        _parse_expression("star(1,1)")
    with pytest.raises(ParseError):
        _parse_expression("t(1,2) extra")


def test_parse_obj():
    rel = finrel(3)
    assert _parse_obj(rel, " 2 ").data == 2
    with pytest.raises(ParseError):
        _parse_obj(rel, "-1")
    with pytest.raises(ParseError):
        _parse_obj(rel, "abc")
    ch = z_chain(-5, 5)
    assert _parse_obj(ch, "-3").data == -3
    pi = product_instance(finrel(2), z_chain(-2, 2))
    packed = _parse_obj(pi, "1|-2")
    assert packed.data == (pi.left.obj(1), pi.right.obj(-2))
    with pytest.raises(ParseError):
        _parse_obj(pi, "3")
