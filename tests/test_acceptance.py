"""Acceptance gate for the whole package.

Each test here certifies one advertised capability end to end on concrete
instances, prints exactly one [acceptance] pass/fail line, and compares
every value with exact equality.  Run with `pytest -s tests/test_acceptance.py`
to see the per-capability report.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from biprod.cli import SuiteConfig, run_suite
from biprod.construction import (
    biproduct,
    canonical_mixed_map,
    hom_add,
    t_inverse,
    t_map,
    verify_interchange,
    verify_intertwining,
    verify_semiadditive,
    zero_map,
    zero_object,
)
from biprod.errors import NoNullaryStructure
from biprod.instances import ChainInstance, ProductInstance, finrel, mat_semiring
from biprod.kernel import check_inverse_pair, compose, identity
from biprod.structure import verify_coproduct_witness, verify_product_witness


@contextlib.contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def standard_instances(max_dim: int):
    return [
        finrel(max_dim),
        mat_semiring("mat-bool", max_dim),
        mat_semiring("mat-nat", max_dim),
        mat_semiring("mat-rat", max_dim),
    ]


def test_zero_object_stage():
    with criterion("zero-object"):
        start = time.perf_counter()
        for inst in standard_instances(3):
            zw = zero_object(inst)
            assert check_inverse_pair(zw.to_terminal.fwd, zw.to_terminal.bwd).passed
            assert check_inverse_pair(zw.from_initial.fwd, zw.from_initial.bwd).passed
            one = inst.terminal
            naught = inst.initial
            assert compose(zw.one_to_zero, inst.bang(naught)) == identity(naught)
            assert compose(inst.bang(naught), zw.one_to_zero) == identity(one)
            z23 = zero_map(inst.obj(2), inst.obj(3))
            assert z23.payload == ((inst.sr.zero,) * 2,) * 3
        assert time.perf_counter() - start < 1.0


def test_interchange_exhaustive():
    with criterion("interchange-exhaustive"):
        for inst in standard_instances(2):
            start = time.perf_counter()
            objs = inst.objects(2)
            count = 0
            for quad in itertools.product(objs, repeat=4):
                res = verify_interchange(*quad)
                assert res.passed, f"{inst.name} {quad}: {res.failures()[0].label}"
                count += 1
            assert count == 81
            assert time.perf_counter() - start < 30.0


def test_interleaving_inverse():
    with criterion("interleaving-inverse"):
        for inst in standard_instances(3):
            for a, b in itertools.product(inst.objects(3), repeat=2):
                ti = t_inverse(a, b)
                direct = t_map(a, b)
                assert ti.fwd == direct
                assert check_inverse_pair(direct, ti.bwd).passed


def test_intertwining_pairs():
    with criterion("intertwining"):
        for inst in standard_instances(3):
            for a, b in itertools.product(inst.objects(3), repeat=2):
                res = verify_intertwining(a, b)
                assert res.passed, f"{inst.name} ({a.data},{b.data})"


def test_biproduct_canonical_form():
    with criterion("biproduct-canonical"):
        for inst in standard_instances(3):
            for a, b in itertools.product(inst.objects(3), repeat=2):
                bw = biproduct(a, b)
                assert bw.mixed_iso.fwd == canonical_mixed_map(a, b)
                res = bw.equations
                assert res.passed, f"{inst.name} ({a.data},{b.data})"


def _entrywise(op, f, g):
    return tuple(
        tuple(op(x, y) for x, y in zip(r1, r2)) for r1, r2 in zip(f.payload, g.payload)
    )


def test_homset_addition():
    with criterion("homset-addition"):
        rel = finrel(2)
        objs = rel.objects(2)
        everything = []
        for a, b in itertools.product(objs, repeat=2):
            homs = rel.enumerate_homset(a, b)
            everything.extend(homs)
            for f, g in itertools.product(homs, repeat=2):
                want = _entrywise(lambda x, y: x or y, f, g)
                assert hom_add(f, g).payload == want
        assert len(everything) == 31
        assert verify_semiadditive(everything).passed

        for name in ("mat-nat", "mat-rat"):
            inst = mat_semiring(name, 3)
            rng = random.Random(7)
            for _ in range(200):
                a = inst.obj(rng.randint(0, 3))
                b = inst.obj(rng.randint(0, 3))
                c = inst.obj(rng.randint(0, 3))
                z = inst.obj(rng.randint(0, 3))
                f = inst.random_morphism(rng, a, b)
                g = inst.random_morphism(rng, a, b)
                k = inst.random_morphism(rng, a, b)
                h = inst.random_morphism(rng, b, c)
                w = inst.random_morphism(rng, z, a)
                total = hom_add(f, g)
                assert total.payload == _entrywise(inst.sr.add, f, g)
                assert total == hom_add(g, f)
                assert hom_add(total, k) == hom_add(f, hom_add(g, k))
                assert hom_add(f, zero_map(a, b)) == f
                assert compose(h, total) == hom_add(compose(h, f), compose(h, g))
                assert compose(total, w) == hom_add(compose(f, w), compose(g, w))


def test_missing_structure_fidelity():
    with criterion("missing-structure-fidelity"):
        ch = ChainInstance(-5, 5)
        objs = ch.objects()
        assert len(objs) == 11
        rng = random.Random(0)
        for a, b in itertools.product(objs, repeat=2):
            assert verify_product_witness(ch.product(a, b), objs, rng).passed
            assert verify_coproduct_witness(ch.coproduct(a, b), objs, rng).passed
        with pytest.raises(NoNullaryStructure):
            zero_object(ch)
        with pytest.raises(NoNullaryStructure):
            zero_object(ProductInstance(finrel(2), ChainInstance(-2, 2)))

        plain = run_suite(SuiteConfig(instance="z-chain", max_size=2, samples=2))
        paired = run_suite(
            SuiteConfig(
                instance="product:finrel+z-chain", max_size=2, max_quad=1, samples=2
            )
        )
        want = [
            (s, "NoNullaryStructure")
            for s in (
                "nullary", "intertwining", "canonical", "biproduct",
                "hom-add-laws", "hom-add-native", "bilinearity",
            )
        ]
        for report in (plain, paired):
            bad = [(c.suite, c.failure) for c in report.checks if not c.passed]
            assert bad == want


def _gauss_inverse(matrix: tuple, n: int) -> tuple:
    """The inverse of an n x n matrix of (num, den) rationals, by Fraction arithmetic."""
    aug = [
        [Fraction(*x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple((x.numerator, x.denominator) for x in row[n:]) for row in aug)


def test_field_inverse_cross_check():
    with criterion("field-inverse-cross-check"):
        inst = mat_semiring("mat-rat", 3)
        for a, b in itertools.product((1, 2, 3), repeat=2):
            direct = t_map(inst.obj(a), inst.obj(b))
            ti = t_inverse(inst.obj(a), inst.obj(b))
            n = direct.dom.data
            assert n == 2 * (a + b) and direct.cod.data == n
            assert ti.bwd.payload == _gauss_inverse(direct.payload, n)


def test_report_determinism():
    with criterion("report-determinism"):
        cmd = [
            sys.executable,
            "-m",
            "biprod",
            "verify",
            "--instance",
            "finrel",
            "--max-size",
            "2",
            "--samples",
            "10",
            "--seed",
            "3",
            "--report",
            "json",
        ]
        one = subprocess.run(cmd, capture_output=True)
        two = subprocess.run(cmd, capture_output=True)
        assert one.returncode == 0 and two.returncode == 0
        assert one.stdout == two.stdout
        payload = json.loads(one.stdout)
        assert payload["summary"]["failed"] == 0
        assert payload["duration_ms"] is None
