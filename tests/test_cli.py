from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biprod import cli, construction, kernel, structure
from biprod.cli import (
    SHOWS,
    STAGES,
    CheckRecord,
    Report,
    SuiteConfig,
    _failure_text,
    _guard,
    _parse_expression,
    main,
    render_json,
    render_text,
    run_suite,
)
from biprod.construction import c_map
from biprod.errors import InvalidBounds, NoNullaryStructure, ParseError, WitnessInvalid
from biprod.instances import (
    BOOLEANS,
    ChainInstance,
    Instance,
    MatInstance,
    RATIONALS,
    ProductInstance,
    finrel,
)
from biprod.kernel import CheckResult
from biprod.structure import ENUM_CAP


def test_config_validation():
    with pytest.raises(InvalidBounds):
        SuiteConfig(max_size=0)
    with pytest.raises(InvalidBounds):
        SuiteConfig(max_size=17)
    with pytest.raises(InvalidBounds):
        SuiteConfig(max_quad=5)
    # the quad pool never silently clips to a smaller max size
    with pytest.raises(InvalidBounds):
        SuiteConfig(max_size=1, max_quad=4)
    with pytest.raises(InvalidBounds):
        SuiteConfig(samples=0)
    with pytest.raises(InvalidBounds):
        SuiteConfig(samples=ENUM_CAP + 1)
    with pytest.raises(InvalidBounds):
        SuiteConfig(report="xml")


def test_quad_bound_defaults():
    assert SuiteConfig(max_size=4).max_quad == 2
    assert SuiteConfig(max_size=1).max_quad == 1
    assert SuiteConfig(max_size=4, max_quad=3).max_quad == 3


def test_suite_config_is_the_only_source_of_verify_defaults(monkeypatch, capsys):
    # verify's parser states no defaults: an option not given stays out of
    # the namespace, so a default changed in SuiteConfig reaches main
    assert vars(cli.PARSER.parse_args(["verify"])) == {"command": "verify"}

    class SevenSamples(SuiteConfig):
        __slots__ = ()

        def __new__(cls, samples=7, **given):
            return super().__new__(cls, samples=samples, **given)

    monkeypatch.setattr(cli, "SuiteConfig", SevenSamples)
    assert main(["verify", "--max-size", "1"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == "instance=finrel max_size=1 max_quad=1 samples=7 seed=0"


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
    assert {c.suite for c in bad} == {
        "nullary", "intertwining", "canonical", "biproduct",
        "hom-add-laws", "hom-add-native", "bilinearity",
    }
    assert all(c.failure == "NoNullaryStructure" for c in bad)
    # everything the order can express still verifies
    good_stages = {c.suite for c in report.checks if c.passed}
    assert "interchange" in good_stages and "t-inverse" in good_stages


def test_stage_table_is_pinned():
    assert [(s.name, s.arity, s.needs_nullary) for s in STAGES] == [
        ("nullary", 0, True),
        ("nullary-distributors", 1, True),
        ("product-witness", 2, False),
        ("coproduct-witness", 2, False),
        ("dist-prod", 3, False),
        ("dist-coprod", 3, False),
        ("interchange", 4, False),
        ("t-inverse", 2, False),
        ("intertwining", 2, True),
        ("canonical", 2, True),
        ("biproduct", 2, True),
        ("hom-add-laws", 2, True),
        ("hom-add-native", 2, True),
        ("bilinearity", 3, True),
    ]


def _stage_runs(report):
    """(stage, records, failed records) for each run of same-stage records."""
    runs = []
    for suite, group in itertools.groupby(report.checks, key=lambda c: c.suite):
        group = list(group)
        runs.append((suite, len(group), sum(1 for c in group if not c.passed)))
    return runs


def _counted_run(monkeypatch, config, digests=None):
    """Run the suite, counting the equations each stage's records stand for.

    When given a dict, digests gets per stage the first 16 hex digits of a
    sha256 over every equation's label and compared sides, in order.  A
    side is hashed as its category's format_mor text, so the digest pins
    the values an equation compared, not how the semiring holds them.
    """
    equations = {}

    def counting_guard(checks, suite, names, thunk):
        def counted():
            res = thunk()
            equations[suite] = equations.get(suite, 0) + len(res.details)
            if digests is not None:
                h = digests.setdefault(suite, hashlib.sha256())
                for chk in res.details:
                    sides = (
                        None if f is None else f.dom.cat.format_mor(f) for f in (chk.lhs, chk.rhs)
                    )
                    h.update(repr((chk.label, *sides)).encode())
            return res

        _guard(checks, suite, names, counted)

    monkeypatch.setattr(cli, "_guard", counting_guard)
    report = run_suite(config)
    for suite, h in (digests or {}).items():
        digests[suite] = h.hexdigest()[:16]
    return report, equations


def _counting_hom_add(monkeypatch):
    """Count the sums the law stages compute, through construction.hom_add."""
    calls = []
    real = construction.hom_add

    def counting(f, g):
        calls.append(None)
        return real(f, g)

    monkeypatch.setattr(construction, "hom_add", counting)
    return calls


# finrel and mat-bool are one boolean semiring, and at size 2 every homset
# enumerates, so --samples changes nothing: both configs give these rows
BOOLEAN_2_PINS = {
    "nullary": (1, 0, 4, "2508e1dc0888e6b0"),
    "nullary-distributors": (3, 0, 12, "0940e1c923e45d4c"),
    "product-witness": (9, 0, 1506, "45fcc8875e4aca8b"),
    "coproduct-witness": (9, 0, 1506, "d10508588a34eb43"),
    "dist-prod": (27, 0, 54, "c098ff0bca5ca9d9"),
    "dist-coprod": (27, 0, 54, "9802071e76a8c814"),
    "interchange": (81, 0, 405, "148eae0c8fccca2c"),
    "t-inverse": (9, 0, 27, "a65a786f7ab7ea5e"),
    "intertwining": (9, 0, 81, "5d28cb0b256a896f"),
    "canonical": (9, 0, 9, "37742d8db496bbb1"),
    "biproduct": (9, 0, 45, "5895162233e623eb"),
    "hom-add-laws": (9, 0, 597, "84ca550a4a1936a0"),
    "hom-add-native": (9, 0, 297, "ef0d57611b54fe5a"),
    "bilinearity": (27, 0, 7172, "4fa444773e6312df"),
}


# (config, sums the law stages compute or None where unpinned, {stage:
# (records, failed records, equations, digest)}), stages in report order.
# The digest is _counted_run's; a stand-in record runs no check, so it
# stands for no equations and has no digest.
STAGE_PINS = {
    "finrel 2 --samples 2": (
        SuiteConfig(instance="finrel", max_size=2, samples=2), None, BOOLEAN_2_PINS),
    # without nullary structure: no nullary-distributors records, and one
    # failed stand-in per nullary stage, the dependents after t-inverse
    "z-chain 2 --samples 2": (SuiteConfig(instance="z-chain", max_size=2, samples=2), None, {
        "nullary": (1, 1, None, None),
        "product-witness": (25, 0, 190, "26aa20aaddbd1e19"),
        "coproduct-witness": (25, 0, 190, "93aefd0f0cf360bc"),
        "dist-prod": (125, 0, 250, "dd679b49c426431b"),
        "dist-coprod": (125, 0, 250, "4363e1e52f9fa36c"),
        "interchange": (625, 0, 3125, "484993e10d3a20de"),
        "t-inverse": (25, 0, 75, "d7e520f0ae371c93"),
        "intertwining": (1, 1, None, None),
        "canonical": (1, 1, None, None),
        "biproduct": (1, 1, None, None),
        "hom-add-laws": (1, 1, None, None),
        "hom-add-native": (1, 1, None, None),
        "bilinearity": (1, 1, None, None),
    }),
    # mat-nat homsets never enumerate: witness probes and seeded native pairs
    "mat-nat 2/1 --samples 3 --seed 5": (
        SuiteConfig(instance="mat-nat", max_size=2, max_quad=1, samples=3, seed=5), None, {
        "nullary": (1, 0, 4, "2508e1dc0888e6b0"),
        "nullary-distributors": (3, 0, 12, "0940e1c923e45d4c"),
        "product-witness": (9, 0, 171, "8b84db5acf27dff4"),
        "coproduct-witness": (9, 0, 171, "402b0bf0c0e60235"),
        "dist-prod": (8, 0, 16, "2b04e857a645e0bb"),
        "dist-coprod": (8, 0, 16, "17fa9b9b37315123"),
        "interchange": (16, 0, 80, "d80c9ec3a0ea41e8"),
        "t-inverse": (9, 0, 27, "a65a786f7ab7ea5e"),
        "intertwining": (9, 0, 81, "5d28cb0b256a896f"),
        "canonical": (9, 0, 9, "37742d8db496bbb1"),
        "biproduct": (9, 0, 45, "5895162233e623eb"),
        "hom-add-laws": (9, 0, 2055, "dd4480f1a02a089c"),
        "hom-add-native": (9, 0, 27, "ba81a8098aff2c25"),
        "bilinearity": (8, 0, 10870, "8db5354610e31e50"),
    }),
    # mat-bool 2 -> 2 has 16 morphisms: the law scans take rng.sample of them
    "mat-bool 2": (SuiteConfig(instance="mat-bool", max_size=2), None, BOOLEAN_2_PINS),
    # the benchmark's suite-rat config: its speedups (zero-skipping dot,
    # memoized sums and witnesses, integer-pair rationals) must keep every
    # equation, and the values it compares, as they were before them; the
    # law stages compute each distinct sum once per verify_semiadditive call
    "mat-rat 2/1 --seed 1": (
        SuiteConfig(instance="mat-rat", max_size=2, max_quad=1, seed=1), 2540, {
        "nullary": (1, 0, 4, "2508e1dc0888e6b0"),
        "nullary-distributors": (3, 0, 12, "0940e1c923e45d4c"),
        "product-witness": (9, 0, 171, "40ed84eb40205a4c"),
        "coproduct-witness": (9, 0, 171, "6231f45dd1284e2b"),
        "dist-prod": (8, 0, 16, "2b04e857a645e0bb"),
        "dist-coprod": (8, 0, 16, "17fa9b9b37315123"),
        "interchange": (16, 0, 80, "d80c9ec3a0ea41e8"),
        "t-inverse": (9, 0, 27, "a65a786f7ab7ea5e"),
        "intertwining": (9, 0, 81, "5d28cb0b256a896f"),
        "canonical": (9, 0, 9, "37742d8db496bbb1"),
        "biproduct": (9, 0, 45, "5895162233e623eb"),
        "hom-add-laws": (9, 0, 2055, "e04532f0dff6452a"),
        "hom-add-native": (9, 0, 225, "cfb7b31c11a7d66c"),
        "bilinearity": (8, 0, 10870, "46986e8811894b06"),
    }),
    # the Baseline's mat-rat --max-size 3, with the default quad bound of 2
    "mat-rat 3": (SuiteConfig(instance="mat-rat", max_size=3), 12437, {
        "nullary": (1, 0, 4, "2508e1dc0888e6b0"),
        "nullary-distributors": (4, 0, 16, "d028e9e5e99424c9"),
        "product-witness": (16, 0, 400, "05cbabcdc1d927c5"),
        "coproduct-witness": (16, 0, 400, "e10610c770374de4"),
        "dist-prod": (27, 0, 54, "c098ff0bca5ca9d9"),
        "dist-coprod": (27, 0, 54, "9802071e76a8c814"),
        "interchange": (81, 0, 405, "148eae0c8fccca2c"),
        "t-inverse": (16, 0, 48, "b41d443891f10e3a"),
        "intertwining": (16, 0, 144, "3e8cf92d25c5d675"),
        "canonical": (16, 0, 16, "9b5a01be22a071ce"),
        "biproduct": (16, 0, 80, "32c67d4858008690"),
        "hom-add-laws": (16, 0, 3320, "940835227f283b8f"),
        "hom-add-native": (16, 0, 400, "3c4c25608b5ff254"),
        "bilinearity": (27, 0, 26655, "9a1d11b55354c40d"),
    }),
    # a product instance with nullary structure on both sides: every
    # structure map, witness and distributor is a lifted pair of the
    # components' own, and must check the same equations as before
    "product:finrel+mat-nat 1/1": (
        SuiteConfig(instance="product:finrel+mat-nat", max_size=1, max_quad=1), None, {
        "nullary": (1, 0, 4, "e26464bb550fb5da"),
        "nullary-distributors": (4, 0, 16, "782c2fa58a4a3217"),
        "product-witness": (16, 0, 400, "90496acf3fe2e027"),
        "coproduct-witness": (16, 0, 400, "230f2186c1a060ca"),
        "dist-prod": (64, 0, 128, "be98087e1e4c7d38"),
        "dist-coprod": (64, 0, 128, "50dd62acb55a5953"),
        "interchange": (256, 0, 1280, "236dd3728ce8ba23"),
        "t-inverse": (16, 0, 48, "bbfa3a112fc008cd"),
        "intertwining": (16, 0, 144, "25ed7b9d192a391c"),
        "canonical": (16, 0, 16, "4cbd040c97520822"),
        "biproduct": (16, 0, 80, "14e42230c93dbfcf"),
        "hom-add-laws": (16, 0, 3320, "a15075a88b55cd68"),
        "hom-add-native": (16, 0, 400, "186a7b59128eb4a5"),
        "bilinearity": (64, 0, 53660, "7015544514c8b2cb"),
    }),
}


@pytest.mark.parametrize("key", list(STAGE_PINS))
def test_stage_pins(monkeypatch, key):
    config, sums, pins = STAGE_PINS[key]
    added = _counting_hom_add(monkeypatch)
    digests = {}
    report, equations = _counted_run(monkeypatch, config, digests)
    assert [
        (stage, (records, failed, equations.get(stage), digests.get(stage)))
        for stage, records, failed in _stage_runs(report)
    ] == list(pins.items())
    if sums is not None:
        assert len(added) == sums


@pytest.mark.parametrize(
    "fixture, passed, failed, sha256",
    [
        (
            "rotated_rel2", 104, 134,
            "6b818e457026aad3230ca34677d183208414271512e60505b1d63ce1459e0483",
        ),
        (
            "rotated_mediate_rel2", 164, 74,
            "5d2e907f57001c00fbc3f9c8289621a3d7180421a253f05b295d1aa3c656ad15",
        ),
    ],
)
def test_broken_instance_reports_are_pinned(request, monkeypatch, fixture, passed, failed, sha256):
    # every failure text of a broken distributor and a broken mediate, as
    # `verify --instance finrel --max-size 2 --report json` prints it
    inst = request.getfixturevalue(fixture)
    monkeypatch.setattr(cli, "resolve", lambda selector, max_size: inst)
    report = run_suite(SuiteConfig(instance="finrel", max_size=2, seed=0, report="json"))
    assert (report.passed, report.failed) == (passed, failed)
    assert hashlib.sha256(render_json(report).encode()).hexdigest() == sha256


def test_broken_mediate_witness_records_are_pinned(rotated_mediate_rel2, monkeypatch):
    # each product-witness and coproduct-witness record of a broken mediate,
    # its verdict and failure text, as captured before the witness checks
    # shared their legs
    monkeypatch.setattr(cli, "resolve", lambda selector, max_size: rotated_mediate_rel2)
    report = run_suite(SuiteConfig(instance="finrel", max_size=2, seed=0, report="json"))
    witness = [
        (c.suite, c.objects, c.passed, c.failure)
        for c in report.checks
        if c.suite in ("product-witness", "coproduct-witness")
    ]
    assert len(witness) == 18
    assert [w for w in witness if not w[2]] == [
        ("product-witness", ("2", "2"), False, "<pi1,pi2>=id (entry (1,1): 0 vs 1) [+770 more]"),
    ]
    digest = hashlib.sha256(repr(witness).encode()).hexdigest()
    assert digest == "068f60f9dd911f602c07d159a48250df28831fcea87bd9bb29b21ffd4934bc87"


def test_each_object_is_spelled_once_when_interned(monkeypatch):
    # an object's name is fixed when Category.obj interns it; no check
    # spells it again, so the hook runs once per object of each category
    spelled: dict = {}
    for cls in (kernel.Category, ProductInstance):

        def counted(self, data, spell=cls.__dict__["spell"]):
            spelled.setdefault(self, []).append(data)
            return spell(self, data)

        monkeypatch.setattr(cls, "spell", counted)
    for selector, size, quad, counts in (
        ("z-chain", 8, 3, [17]),
        ("product:finrel+z-chain", 1, 1, [4, 5, 20]),
    ):
        spelled.clear()
        run_suite(SuiteConfig(instance=selector, max_size=size, max_quad=quad))
        assert sorted(map(len, spelled.values())) == counts
        for cat, datas in spelled.items():
            assert datas == list(cat._objs)


def test_each_structural_value_is_certified_once_per_instance(monkeypatch):
    # from_matrix, the distributors, times_map and plus_map assemble through
    # one memo, and InversePair.certify keeps each passing round trip in the
    # instance's memo: over one suite run no (witness, f, g) of theirs
    # reaches pair or copair twice, and no (fwd, bwd) is checked twice in
    # one instance.  The construction's direct calls (hom_add, _splitting)
    # are not counted: it holds pair and copair under its own names
    assembled = []
    for name in ("pair", "copair"):

        def counted(wit, f, g, real=getattr(structure, name)):
            assembled.append((wit, f, g))
            return real(wit, f, g)

        monkeypatch.setattr(structure, name, counted)
    checked = []

    def counted_check(fwd, bwd, name="inverse pair", real=kernel.check_inverse_pair):
        checked.append((fwd.dom.cat, fwd, bwd))
        return real(fwd, bwd, name)

    monkeypatch.setattr(kernel, "check_inverse_pair", counted_check)
    run_suite(SuiteConfig(instance="product:finrel+z-chain", max_size=1, max_quad=1))
    assert assembled and len(assembled) == len(set(assembled))
    assert checked and len(checked) == len(set(checked))


def test_largest_product_report_is_pinned():
    # `verify --instance product:finrel+z-chain --max-size 2 --max-quad 1
    # --report json`, byte for byte as captured before homsets were
    # memoized and the witness checks shared their legs: the config those
    # two move most, and one no benchmark workload runs
    config = SuiteConfig(instance="product:finrel+z-chain", max_size=2, max_quad=1, report="json")
    report = run_suite(config)
    assert (report.passed, report.failed) == (2403, 7)
    digest = hashlib.sha256(render_json(report).encode()).hexdigest()
    assert digest == "2186781298157d0d82dc2a6a27c517b91aca2f650c469f7ebe8e40f337cd3cc8"


@pytest.mark.parametrize(
    "fixture, max_quad, passed", [("skewed_rel2", 2, 238), ("skewed_rat2", 1, 116)]
)
def test_skewed_coproduct_passes_every_stage(request, monkeypatch, fixture, max_quad, passed):
    # a positive control: a valid biproduct whose coproduct lists its bases
    # in another order than its product, so c must be a real permutation
    inst = request.getfixturevalue(fixture)
    monkeypatch.setattr(cli, "resolve", lambda selector, max_size: inst)
    report = run_suite(SuiteConfig(instance=inst.name, max_size=2, max_quad=max_quad))
    assert [c for c in report.checks if not c.passed] == []
    assert (report.passed, report.failed) == (passed, 0)
    one, zero = inst.sr.one, inst.sr.zero
    assert c_map(inst.obj(1), inst.obj(2)).fwd.payload == (
        (zero, zero, one),
        (one, zero, zero),
        (zero, one, zero),
    )


# (records, failed) per stage on FinSet at --max-size 2 --max-quad 2
FINSET_TALLIES = {
    "nullary": (1, 1),
    "nullary-distributors": (3, 2),
    "product-witness": (9, 0),
    "coproduct-witness": (9, 0),
    "dist-prod": (27, 4),
    "dist-coprod": (27, 0),
    "interchange": (81, 24),
    "t-inverse": (9, 6),
    "intertwining": (9, 9),
    "canonical": (9, 9),
    "biproduct": (9, 9),
    "hom-add-laws": (9, 7),
    "hom-add-native": (9, 0),
    "bilinearity": (27, 27),
}


def test_finset_countermodel_fails_where_its_structure_is_missing(finset2, monkeypatch):
    # a negative control: finite sets have products and coproducts, but 1
    # is not 0 and the cartesian tensor does not distribute over products,
    # so the suite must fail there and nowhere the structure holds.  The
    # failures' wording is not pinned.
    monkeypatch.setattr(cli, "resolve", lambda selector, max_size: finset2)
    report = run_suite(SuiteConfig(instance=finset2.name, max_size=2, max_quad=2))
    failed = [c for c in report.checks if not c.passed]
    assert failed[0].suite == "nullary" and failed[0].failure.startswith("MissingStructure")
    dist_prod = [c.objects for c in report.checks if c.suite == "dist-prod" and not c.passed]
    assert dist_prod == [("2", b, c) for b in "12" for c in "12"]
    dist_coprod = [c for c in report.checks if c.suite == "dist-coprod"]
    assert len(dist_coprod) == 27 and all(c.passed for c in dist_coprod)
    tallies = {stage.name: [0, 0] for stage in cli.STAGES}
    for c in report.checks:
        tallies[c.suite][0] += 1
        tallies[c.suite][1] += not c.passed
    assert {name: tuple(t) for name, t in tallies.items()} == FINSET_TALLIES
    assert (report.passed, report.failed) == (140, 98)


class NoNativeAdd(MatInstance):
    """finrel without an addition of its own: hom-add-native has nothing to compare."""

    native_add = Instance.native_add


def test_hom_add_native_passes_vacuously_without_native_add(monkeypatch):
    # pins the vacuous pass of a zero-equation record until such a record
    # gets a status of its own
    inst = NoNativeAdd(BOOLEANS, 1, name="finrel")
    monkeypatch.setattr(cli, "resolve", lambda selector, max_size: inst)
    report, equations = _counted_run(monkeypatch, SuiteConfig(instance="finrel", max_size=1))
    native = [c for c in report.checks if c.suite == "hom-add-native"]
    assert len(native) == 4 and all(c.passed for c in native)
    assert equations["hom-add-native"] == 0
    assert all(equations[stage] > 0 for stage in equations if stage != "hom-add-native")


class NoSampler(MatInstance):
    """mat-rat without a sampler: none of its homsets enumerates, so every draw needs one."""

    random_morphism = Instance.random_morphism


def test_an_instance_without_a_sampler_fails_where_it_must_draw(monkeypatch):
    # each record that draws a morphism fails on the missing sampler, and no
    # record passes on zero equations
    inst = NoSampler(RATIONALS, 2, name="mat-rat")
    monkeypatch.setattr(cli, "resolve", lambda selector, max_size: inst)
    sizes = {}

    def sized_guard(checks, suite, names, thunk):
        def sized():
            res = thunk()
            sizes[len(checks)] = len(res.details)
            return res

        _guard(checks, suite, names, sized)

    monkeypatch.setattr(cli, "_guard", sized_guard)
    report = run_suite(SuiteConfig(instance="mat-rat", max_size=2, max_quad=1))
    assert _stage_runs(report) == [
        ("nullary", 1, 0),
        ("nullary-distributors", 3, 0),
        ("product-witness", 9, 9),
        ("coproduct-witness", 9, 9),
        ("dist-prod", 8, 0),
        ("dist-coprod", 8, 0),
        ("interchange", 16, 0),
        ("t-inverse", 9, 0),
        ("intertwining", 9, 0),
        ("canonical", 9, 0),
        ("biproduct", 9, 0),
        ("hom-add-laws", 9, 9),
        ("hom-add-native", 9, 9),
        ("bilinearity", 8, 8),
    ]
    assert {c.failure for c in report.checks if not c.passed} == {
        "MissingStructure (instance mat-rat: no sampler; override random_morphism)"
    }
    assert all(sizes.get(i) for i, c in enumerate(report.checks) if c.passed)


def test_guard_reports_failed_equation_of_raised_error(rotated_mediate_rel2):
    inst = rotated_mediate_rel2
    [stage] = [s for s in STAGES if s.name == "t-inverse"]
    checks = []
    a, b = inst.obj(2), inst.obj(1)
    _guard(checks, stage.name, ("2", "1"), lambda: stage.check(None, a, b))
    [record] = checks
    assert not record.passed
    assert record.failure.startswith("pair: pi1*m=f")
    assert "entry (" in record.failure
    # the record reads exactly as the error raised by the failed re-check
    with pytest.raises(WitnessInvalid) as err:
        stage.check(None, a, b)
    assert record.failure == str(err.value)


def test_guard_refuses_a_check_that_returns_no_result():
    # a check that returns nothing has compared nothing, so it cannot pass
    checks = []
    with pytest.raises(AttributeError):
        _guard(checks, "nullary", (), lambda: None)
    assert checks == []


def test_failure_text_of_an_error_without_equations():
    folded = CheckResult.from_error("nullary", NoNullaryStructure("no zero here"))
    assert folded.name == "nullary"
    assert _failure_text(folded) == "NoNullaryStructure (no zero here)"
    assert _failure_text(CheckResult.from_error("nullary", InvalidBounds())) == "InvalidBounds"
    bare = WitnessInvalid("mediate returned a morphism of the wrong type")
    assert _failure_text(CheckResult.from_error("pair", bare)) == (
        "WitnessInvalid (mediate returned a morphism of the wrong type)"
    )


def test_dist_prod_record_reports_its_certificate(monkeypatch):
    """A dist-prod record is the certificate of the iso, not a second check."""
    real = kernel.check_inverse_pair
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("biprod") and getattr(mod, "check_inverse_pair", None) is real:
            monkeypatch.setattr(mod, "check_inverse_pair", counted)
    [stage] = [s for s in STAGES if s.name == "dist-prod"]
    inst = finrel(2)
    objs = (inst.obj(1), inst.obj(2), inst.obj(1))
    checks = []
    _guard(checks, stage.name, ("1", "2", "1"), lambda: stage.check(None, *objs))
    assert checks == [CheckRecord("dist-prod", ("1", "2", "1"))]
    assert len(calls) == 1


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


def _dumped_payload(report):
    """The report as render_json printed it by building one dict per record."""
    payload = {
        "config": report.config._asdict(),
        "checks": [
            {
                "suite": c.suite,
                "objects": list(c.objects),
                "passed": c.passed,
                **({"failure": c.failure} if c.failure is not None else {}),
            }
            for c in report.checks
        ],
        "summary": {"passed": report.passed, "failed": report.failed},
        "duration_ms": None,
    }
    return json.dumps(payload, indent=2) + "\n"


# every character json escapes in its own way, plus any other
TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80é€\u2028\ud800\U0001f600\U0010ffff'),
        st.characters(),
    )
)
RECORDS = st.builds(
    CheckRecord, TEXT, st.lists(TEXT, max_size=4).map(tuple), st.none() | TEXT
)
CONFIGS = st.builds(
    SuiteConfig,
    instance=TEXT,
    max_size=st.integers(4, cli.MAX_SIZE),
    max_quad=st.none() | st.integers(1, 4),
    samples=st.integers(1, ENUM_CAP),
    seed=st.integers(-(2**70), 2**70),
    report=st.sampled_from(("text", "json")),
)


@settings(max_examples=100, deadline=None)
@given(config=CONFIGS, checks=st.lists(RECORDS, max_size=6).map(tuple))
def test_json_report_is_what_json_dumps_prints(config, checks):
    report = Report(config, checks, 1.5)
    assert render_json(report) == _dumped_payload(report)


# the Baseline configs of ROADMAP.md; the seventh, product:finrel+z-chain
# 2/1, is pinned by sha256 in test_largest_product_report_is_pinned
BASELINE = [
    SuiteConfig(instance="finrel", max_size=2),
    SuiteConfig(instance="finrel", max_size=3),
    SuiteConfig(instance="mat-nat", max_size=4, max_quad=2),
    SuiteConfig(instance="mat-rat", max_size=3),
    SuiteConfig(instance="z-chain", max_size=2),
    SuiteConfig(instance="product:finrel+mat-nat", max_size=2, max_quad=1),
]


@pytest.mark.parametrize(
    "config", BASELINE, ids=lambda c: f"{c.instance}-{c.max_size}-{c.max_quad}"
)
def test_baseline_json_reports_are_what_json_dumps_prints(config):
    report = run_suite(config._replace(report="json"))
    assert render_json(report) == _dumped_payload(report)


def test_json_report_allocates_little_beside_its_text():
    # an indenting json.dumps holds about nine times the text's length at
    # its peak (a dict per record, then ~100k chunks to join); one join of
    # one part per record stays within three
    report = run_suite(SuiteConfig(instance="z-chain", max_size=8, max_quad=3, report="json"))
    tracemalloc.start()
    try:
        text = render_json(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.checks) == 3961
    assert peak <= 3 * len(text)


@pytest.mark.parametrize(
    "selector, max_size, max_quad",
    [("product:finrel+z-chain", 1, 1), ("mat-rat", 2, 1), ("z-chain", 3, 2)],
)
def test_warm_memo_changes_no_report(monkeypatch, selector, max_size, max_quad):
    # a second suite run on one instance reads every memoized map, witness
    # and certificate back from its memo, and must report the same bytes
    config = SuiteConfig(instance=selector, max_size=max_size, max_quad=max_quad, report="json")
    cold = render_json(run_suite(config))
    inst = cli.resolve(selector, max_size)
    monkeypatch.setattr(cli, "resolve", lambda selector, max_size: inst)
    assert render_json(run_suite(config)) == cold
    assert inst.memo
    assert render_json(run_suite(config)) == cold


@pytest.mark.parametrize(
    "config",
    [
        SuiteConfig(instance="finrel", max_size=2, report="json"),
        SuiteConfig(instance="mat-rat", max_size=2, max_quad=1, seed=1, report="json"),
        SuiteConfig(instance="product:finrel+z-chain", max_size=1, max_quad=1, report="json"),
    ],
    ids=lambda config: config.instance,
)
def test_cleared_composite_memo_changes_no_report(monkeypatch, config):
    # the bilinearity laws and every other caller read their composites
    # back through compose's memo, which is cleared whenever it is full; at
    # a cap of one it is cleared on nearly every compose, and no report
    # byte may depend on what it still holds
    default = render_json(run_suite(config))
    monkeypatch.setattr(kernel, "COMPOSITE_CAP", 1)
    assert render_json(run_suite(config)) == default


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


def test_oversized_samples_exit_2_before_anything_is_built(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(cli, "resolve", refuse)
    assert main(["verify", "--samples", "1000000000000"]) == 2
    assert f"samples must be between 1 and {ENUM_CAP}" in capsys.readouterr().err


def test_main_json_duration_on_stderr(capsys):
    code = main(
        ["verify", "--instance", "finrel", "--max-size", "1", "--report", "json"]
    )
    out, err = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["duration_ms"] is None
    assert "completed in" in err


TRACED_RUN = textwrap.dedent(
    """
    import contextlib, io, json
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    from biprod import cli
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [
            cli.main(["verify", "--instance", "finrel", "--max-size", "1"]),
            cli.main(["show", "c(1|1,1|0)", "--instance", "product:finrel+finrel"]),
        ]
    print(json.dumps({"codes": codes, "snapshot": tracer.snapshot()}))
    """
)


def test_benchmark_tracer_attaches():
    # perfbench/tracer.py wraps biprod functions, caches and instance methods
    # by name; a rename that drops one breaks the traced benchmark runs
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=f"{root / 'src'}{os.pathsep}{root / 'perfbench'}")
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0]
    caches = out["snapshot"]["caches"]
    assert set(caches) == {"zero_object", "zero_map", "t_inverse", "c_map", "_diagonal"}
    assert all(hits + misses > 0 for hits, misses in caches.values())
    assert out["snapshot"]["spans"]["instances.product.pack_mor"][0] > 0


START_UP = textwrap.dedent(
    """
    import sys
    before = set(sys.modules)
    import biprod.cli
    from biprod.instances import SELECTORS, resolve
    for selector in SELECTORS:
        resolve(selector.replace("<a>+<b>", "finrel+z-chain"), 2)
    print(*sorted(set(sys.modules) - before))
    """
)


def test_start_up_loads_neither_dataclasses_nor_fractions():
    # each costs a cold start milliseconds before any check runs: dataclasses
    # brings inspect, and fractions brings decimal and numbers; only the
    # modules the import and the resolves add count, so one that the
    # interpreter's start-up preloads cannot fail this
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", START_UP],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert {"biprod.cli", "biprod.instances.product"} <= added
    assert not added & {"dataclasses", "inspect", "fractions", "decimal", "numbers"}


def test_json_report_is_the_same_across_hash_seeds():
    # objects hash by address, so a report that leaned on set or hash order
    # would differ between processes; str hashing varies with PYTHONHASHSEED
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, "-m", "biprod", "verify", "--instance", "product:finrel+z-chain"]
    argv += ["--max-size", "1", "--max-quad", "1", "--report", "json"]
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=seed)
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=300)
        runs.append((proc.returncode, proc.stdout))
    assert runs[0] == runs[1]
    assert runs[0][0] == 1  # z-chain lacks nullary structure by design
    assert json.loads(runs[0][1])["summary"]["failed"] == 7


def test_output_to_a_closed_pipe_exits_1_with_no_traceback():
    # star(16,16,16,16) prints about 4 MB, far more than a pipe buffer holds,
    # so a write meets the closed pipe while the show is still printing
    root = Path(__file__).resolve().parents[1]
    argv = [sys.executable, "-m", "biprod", "show", "star(16,16,16,16)", "--max-size", "16"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    with subprocess.Popen(
        argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.wait(timeout=300) == 1
        assert proc.stderr.read() == b""


# (instance, max size, expression) -> sha256 of stdout, captured before the
# row-sparse matmul and identity-compared objects
PINNED_SHOWS = {
    ("mat-rat", "4", "star(2,2,2,2)"): "9d713b86330f3e2b49350e88db5892514b47d571827b82f3f0dafc2c050dcfa0",
    ("mat-rat", "4", "c(4,4)"): "27274c1bf19d015eca09cabeedb52556e4bcd59219a4d0843c35de0694209c7b",
    ("mat-rat", "4", "t(4,3)"): "a7418c1e87e1a660573d950349155d7662c7d69be8cc77f6acfdea6286e2e80f",
    ("mat-rat", "4", "e'(4,4)"): "47fe7bf8ebe95ab1025212cba276f039c82226864a10360b99800063bc32f74b",
    ("mat-rat", "4", "zero(4,3)"): "67dfc7a0359479d9cfd747e0356ae2dc430b8c15f7fbd1dce3bfa86d39f26ca0",
    ("product:finrel+mat-nat", "2", "star(1|1,1|0,0|1,1|1)"):
        "27b8e9129e3dc9adc2b157ac4129c622fa21b7eb5951f8f17b4b12338b922500",
}


@pytest.mark.parametrize("instance, size, expr", sorted(PINNED_SHOWS))
def test_show_outputs_are_pinned(capsys, instance, size, expr):
    assert main(["show", expr, "--instance", instance, "--max-size", size]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHOWS[instance, size, expr]


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
    # objects outside the instance's universe, and bounds past verify's
    # cap, are refused before anything is built
    assert main(["show", "t(9,9)"]) == 2
    assert main(["show", "t(5,5)", "--instance", "z-chain"]) == 2
    product = ["--instance", "product:finrel+finrel", "--max-size", "1"]
    assert main(["show", "zero(2|0,1|0)", *product]) == 2
    assert main(["show", "t(1,1)", "--max-size", "17"]) == 2
    err = capsys.readouterr().err
    assert "object 9 is outside finrel's objects 0..3" in err
    assert "object 5 is outside z-chain's objects -3..3" in err
    assert "object 2 is outside finrel's objects 0..1" in err
    assert "max size must be at most 16, got 17" in err
    # an object no object prints as, and a selector nested past the bound
    assert main(["show", "zero(1_0,2)", "--max-size", "16"]) == 2
    deep = "product:finrel+" * 1500 + "finrel"
    assert main(["show", "t(1,1)", "--instance", deep]) == 2
    err = capsys.readouterr().err
    assert "cannot read object '1_0'; it prints as 10" in err
    assert "product selectors nest at most 64 deep, got 1500" in err


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses arguments this way
        return exc.code


def test_main_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    for argv in (["show", "t(1,1)"], ["show"], ["verify", "--max-size", "1"], ["show", "zero(1,2)"]):
        _exit_code(argv)
    assert built == []
    # the counter sees a build: the parser and its two subcommands
    cli._build_parser()
    assert len(built) == 3


# a show refused by the parser, one refused by its bounds, a valid show and
# verify with every default: a leaked argument would show in the next echo
IN_TURN = (
    ["show"],
    ["show", "t(1,1)", "--instance", "mat-rat", "--max-size", "99"],
    ["show", "zero(1,2)"],
    ["verify"],
)


def test_calls_in_turn_match_calls_alone(monkeypatch, capsys):
    # the usage text wraps at the terminal width, so fix it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), COLUMNS="80")

    def timeless(out):
        return re.sub(r" in \d+ ms$", " in _ ms", out, flags=re.M)

    alone = []
    for argv in IN_TURN:
        proc = subprocess.run(
            [sys.executable, "-m", "biprod", *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        alone.append((proc.returncode, timeless(proc.stdout), proc.stderr))
    in_turn = []
    for argv in IN_TURN:
        code = _exit_code(argv)
        out, err = capsys.readouterr()
        in_turn.append((code, timeless(out), err))
    assert in_turn == alone
    assert [code for code, _, _ in alone] == [2, 2, 0, 0]
    assert "instance=finrel max_size=2 max_quad=2 samples=25 seed=0" in alone[3][1]


def test_parse_expression():
    assert _parse_expression(" e'( 2 , 3 ) ") == ("e'", ["2", "3"])
    assert _parse_expression("star(1,1,2,2)") == ("star", ["1", "1", "2", "2"])
    with pytest.raises(ParseError):
        _parse_expression("t(,1)")
    with pytest.raises(ParseError):
        _parse_expression("star(1,1)")
    with pytest.raises(ParseError):
        _parse_expression("t(1,2) extra")


SHOW_ARITIES = {"star": 4, "t": 2, "c": 2, "e": 2, "e'": 2, "zero": 2}
SHOW_USAGE = "expected star(a1,a2,b1,b2), t(a,b), c(a,b), e(a,b), e'(a,b) or zero(a,b)"


@pytest.mark.parametrize("head, arity", SHOW_ARITIES.items())
def test_show_heads_take_their_arity(head, arity):
    assert list(SHOWS) == list(SHOW_ARITIES)
    assert _parse_expression(f"{head}({','.join('1' * arity)})") == (head, ["1"] * arity)
    for got in (0, arity - 1, arity + 1):
        message = f"{head} takes {arity} objects, got {got}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            _parse_expression(f"{head}({','.join('1' * got)})")


@pytest.mark.parametrize("head", ["frob", "tt", "e''", "T"])
def test_show_unknown_heads_print_the_usage(capsys, head):
    text = f"{head}(1,2)"
    assert main(["show", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot parse {text!r}; {SHOW_USAGE}\n"


def test_parse_obj():
    rel = finrel(3)
    assert rel.parse_obj(" 2 ").data == 2
    with pytest.raises(ParseError):
        rel.parse_obj("-1")
    with pytest.raises(ParseError):
        rel.parse_obj("abc")
    ch = ChainInstance(-5, 5)
    assert ch.parse_obj("-3").data == -3
    pi = ProductInstance(finrel(2), ChainInstance(-2, 2))
    packed = pi.parse_obj("1|-2")
    assert packed.data == (pi.left.obj(1), pi.right.obj(-2))
    with pytest.raises(ParseError):
        pi.parse_obj("3")
    # int() takes these, but no object prints as them
    for text in ("+1", "01", "1_0", "\u0663", "-0"):
        with pytest.raises(ParseError, match="it prints as"):
            rel.parse_obj(text)
    with pytest.raises(ParseError, match="it prints as"):
        ch.parse_obj("+2")
    with pytest.raises(ParseError, match="it prints as"):
        pi.parse_obj("1|-02")
