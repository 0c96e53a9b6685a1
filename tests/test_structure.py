from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biprod.errors import DomainMismatch, InternalAgreementFailure, WitnessInvalid
from biprod.instances import finrel, mat_semiring
from biprod.kernel import equal, identity
from biprod.structure import (
    CoproductWitness,
    Mat2,
    ProductWitness,
    copair,
    from_matrix,
    matrix_of,
    pair,
    plus_map,
    times_map,
    verify_coproduct_witness,
    verify_product_witness,
)

REL = finrel(3)
NAT = mat_semiring("mat-nat", 3)


def bmat(*rows):
    return tuple(tuple(bool(v) for v in row) for row in rows)


def test_product_witness_shape():
    p = REL.product(REL.obj(2), REL.obj(1))
    assert p.apex.data == 3
    assert p.pi1.payload == bmat((1, 0, 0), (0, 1, 0))
    assert p.pi2.payload == bmat((0, 0, 1),)


def test_coproduct_witness_shape():
    c = REL.coproduct(REL.obj(2), REL.obj(1))
    assert c.apex.data == 3
    assert c.in1.payload == bmat((1, 0), (0, 1), (0, 0))
    assert c.in2.payload == bmat((0,), (0,), (1,))


def test_pair_rechecks_defining_equations():
    one = REL.obj(1)
    p = REL.product(one, one)
    swapped = ProductWitness(
        p.left, p.right, p.apex, p.pi1, p.pi2, lambda f, g: p.mediate(g, f)
    )
    f = REL.mor(one, one, bmat((1,),))
    g = REL.mor(one, one, bmat((0,),))
    with pytest.raises(WitnessInvalid):
        pair(swapped, f, g)


def test_copair_rechecks_defining_equations():
    one = REL.obj(1)
    c = REL.coproduct(one, one)
    swapped = CoproductWitness(
        c.left, c.right, c.apex, c.in1, c.in2, lambda f, g: c.mediate(g, f)
    )
    f = REL.mor(one, one, bmat((1,),))
    g = REL.mor(one, one, bmat((0,),))
    with pytest.raises(WitnessInvalid):
        copair(swapped, f, g)


def test_pair_rejects_mismatched_components():
    p = REL.product(REL.obj(1), REL.obj(1))
    f = REL.mor(REL.obj(1), REL.obj(1), bmat((1,),))
    g = REL.mor(REL.obj(2), REL.obj(1), bmat((1, 0),))
    with pytest.raises(DomainMismatch):
        pair(p, f, g)


def test_times_map_is_diagonal_assembly():
    one = NAT.obj(1)
    f = NAT.mor(one, one, ((2,),))
    g = NAT.mor(one, one, ((3,),))
    assert times_map(f, g).payload == ((2, 0), (0, 3))
    assert plus_map(f, g).payload == ((2, 0), (0, 3))


def test_mat2_validates_typing():
    one = REL.obj(1)
    two = REL.obj(2)
    i1 = identity(one)
    wrong = REL.mor(two, one, bmat((1, 0),))
    with pytest.raises(DomainMismatch):
        Mat2(i1, i1, wrong, i1)


def test_matrix_of_reads_components():
    two = NAT.obj(2)
    c = NAT.coproduct(NAT.obj(1), NAT.obj(1))
    p = NAT.product(NAT.obj(1), NAT.obj(1))
    f = NAT.mor(two, two, ((5, 7), (0, 2)))
    m = matrix_of(f, c, p)
    assert (m.f11.payload, m.f12.payload, m.f21.payload, m.f22.payload) == (
        ((5,),),
        ((7,),),
        ((0,),),
        ((2,),),
    )


@st.composite
def square_setting(draw, max_dim=2):
    a, b, c, d = (draw(st.integers(0, max_dim)) for _ in range(4))
    cw = REL.coproduct(REL.obj(a), REL.obj(b))
    pw = REL.product(REL.obj(c), REL.obj(d))
    payload = tuple(
        tuple(draw(st.booleans()) for _ in range(a + b)) for _ in range(c + d)
    )
    return cw, pw, REL.mor(cw.apex, pw.apex, payload)


@settings(max_examples=100, deadline=None)
@given(square_setting())
def test_matrix_round_trip(setting):
    cw, pw, f = setting
    m = matrix_of(f, cw, pw)
    assert equal(from_matrix(m, cw, pw), f)
    # witnesses rebuilt from the entry types give the same answer
    assert equal(from_matrix(m), f)


def _fake_product():
    """Passes the mediate re-check but is not a product: a junk coordinate."""
    one = REL.obj(1)
    apex = REL.obj(3)
    pi1 = REL.mor(apex, one, bmat((1, 0, 0),))
    pi2 = REL.mor(apex, one, bmat((0, 1, 0),))

    def mediate(f, g):
        junk = tuple(True for _ in range(f.dom.data))
        return REL.mor(f.dom, apex, f.payload + g.payload + (junk,))

    return ProductWitness(one, one, apex, pi1, pi2, mediate)


def _fake_coproduct():
    one = REL.obj(1)
    apex = REL.obj(3)
    in1 = REL.mor(one, apex, bmat((1,), (0,), (0,)))
    in2 = REL.mor(one, apex, bmat((0,), (1,), (0,)))

    def mediate(f, g):
        rows = tuple(rf + rg + (False,) for rf, rg in zip(f.payload, g.payload))
        return REL.mor(apex, f.cod, rows)

    return CoproductWitness(one, one, apex, in1, in2, mediate)


def test_from_matrix_detects_assembly_disagreement():
    one = REL.obj(1)
    m = Mat2(identity(one), identity(one), identity(one), identity(one))
    with pytest.raises(InternalAgreementFailure):
        from_matrix(m, _fake_coproduct(), _fake_product())


def test_verify_product_witness_exhaustive():
    res = verify_product_witness(REL.product(REL.obj(1), REL.obj(2)), REL.objects(2))
    assert res.passed
    # enumerable homsets get real uniqueness loops, not just probes
    assert any(chk.label.startswith("uniq[") for chk in res.details)


def test_verify_coproduct_witness_exhaustive():
    res = verify_coproduct_witness(REL.coproduct(REL.obj(1), REL.obj(2)), REL.objects(2))
    assert res.passed


def test_verify_product_witness_rejects_fake():
    res = verify_product_witness(_fake_product(), [REL.obj(1)])
    assert not res.passed
    assert any("uniq" in chk.label for chk in res.failures())


def test_verify_coproduct_witness_rejects_fake():
    res = verify_coproduct_witness(_fake_coproduct(), [REL.obj(1)])
    assert not res.passed


# the probe-path labels of product(1,1) and coproduct(1,1) on mat-nat,
# probed from objects 0 and 1 with random.Random(0)
PRODUCT_PROBE_LABELS = [
    "<pi1,pi2>=id",
    "uniq-probe[0#0]", "uniq-probe[0#1]",
    "exist-pi1-probe[0#0]", "exist-pi2-probe[0#0]",
    "exist-pi1-probe[0#1]", "exist-pi2-probe[0#1]",
    "uniq-probe[1#0]", "uniq-probe[1#1]",
    "exist-pi1-probe[1#0]", "exist-pi2-probe[1#0]",
    "exist-pi1-probe[1#1]", "exist-pi2-probe[1#1]",
]
COPRODUCT_PROBE_LABELS = [
    "[in1,in2]=id",
    "uniq-probe[0#0]", "uniq-probe[0#1]",
    "exist-in1-probe[0#0]", "exist-in2-probe[0#0]",
    "exist-in1-probe[0#1]", "exist-in2-probe[0#1]",
    "uniq-probe[1#0]", "uniq-probe[1#1]",
    "exist-in1-probe[1#0]", "exist-in2-probe[1#0]",
    "exist-in1-probe[1#1]", "exist-in2-probe[1#1]",
]


def _doubled(m):
    return NAT.mor(m.dom, m.cod, tuple(tuple(2 * x for x in row) for row in m.payload))


def test_verify_product_witness_probe_path():
    one = NAT.obj(1)
    assert NAT.enumerate_homset(one, one) is None
    p = NAT.product(one, one)
    rng = random.Random(0)
    res = verify_product_witness(p, NAT.objects(1), rng=rng)
    assert res.passed
    assert [chk.label for chk in res.details] == PRODUCT_PROBE_LABELS
    # the probes consume the shared RNG exactly as many times as before
    assert rng.random() == 0.9677999949201714
    fake = ProductWitness(
        p.left, p.right, p.apex, p.pi1, p.pi2, lambda f, g: _doubled(p.mediate(f, g))
    )
    res = verify_product_witness(fake, NAT.objects(1), rng=random.Random(0))
    assert any("-probe[" in chk.label for chk in res.failures())


def test_verify_coproduct_witness_probe_path():
    one = NAT.obj(1)
    c = NAT.coproduct(one, one)
    rng = random.Random(0)
    res = verify_coproduct_witness(c, NAT.objects(1), rng=rng)
    assert res.passed
    assert [chk.label for chk in res.details] == COPRODUCT_PROBE_LABELS
    assert rng.random() == 0.9677999949201714
    fake = CoproductWitness(
        c.left, c.right, c.apex, c.in1, c.in2, lambda f, g: _doubled(c.mediate(f, g))
    )
    res = verify_coproduct_witness(fake, NAT.objects(1), rng=random.Random(0))
    assert any("-probe[" in chk.label for chk in res.failures())
