from __future__ import annotations

import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biprod import structure
from biprod.errors import DomainMismatch, WitnessInvalid
from biprod.instances import BOOLEANS, MatInstance, finrel, mat_semiring
from biprod.kernel import identity
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


def _with_mediate(witness, mediate):
    """A witness of the same class with every field of witness but its mediate."""
    fields = {name: getattr(witness, name) for name in witness.__slots__}
    fields["mediate"] = mediate
    return type(witness)(**fields)


def _wrong_type(witness):
    """witness whose mediate hands back its first argument, which never ends at the apex."""
    return _with_mediate(witness, lambda f, g: f)


ONE, TWO = REL.obj(1), REL.obj(2)
ONE_ONE = REL.mor(ONE, ONE, bmat((1,),))
TWO_ONE = REL.mor(TWO, ONE, bmat((1, 0),))
ONE_TWO = REL.mor(ONE, TWO, bmat((1,), (0,)))
P11, C11 = REL.product(ONE, ONE), REL.coproduct(ONE, ONE)


@pytest.mark.parametrize(
    "build, witness, f, g, error, text",
    [
        pytest.param(
            pair, P11, ONE_ONE, TWO_ONE, DomainMismatch,
            "pair components start at 1 and 2", id="pair-no-shared-end",
        ),
        pytest.param(
            pair, P11, ONE_ONE, ONE_TWO, DomainMismatch,
            "pair components end at 1, 2; witness expects 1, 1", id="pair-witness-expects",
        ),
        pytest.param(
            pair, _wrong_type(P11), ONE_ONE, ONE_ONE, WitnessInvalid,
            "product mediate returned a morphism of the wrong type", id="pair-mediate-type",
        ),
        pytest.param(
            copair, C11, ONE_ONE, ONE_TWO, DomainMismatch,
            "copair components end at 1 and 2", id="copair-no-shared-end",
        ),
        pytest.param(
            copair, C11, ONE_ONE, TWO_ONE, DomainMismatch,
            "copair components start at 1, 2; witness expects 1, 1", id="copair-witness-expects",
        ),
        pytest.param(
            copair, _wrong_type(C11), ONE_ONE, ONE_ONE, WitnessInvalid,
            "coproduct mediate returned a morphism of the wrong type", id="copair-mediate-type",
        ),
    ],
)
def test_pair_rejects_mismatched_components(build, witness, f, g, error, text):
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        build(witness, f, g)


def test_times_map_is_diagonal_assembly():
    one = NAT.obj(1)
    f = NAT.mor(one, one, ((2,),))
    g = NAT.mor(one, one, ((3,),))
    assert times_map(f, g).payload == ((2, 0), (0, 3))
    assert plus_map(f, g).payload == ((2, 0), (0, 3))


@pytest.mark.parametrize("build", [times_map, plus_map])
def test_times_and_plus_maps_are_memoized_per_instance(build):
    inst = finrel(2)
    one, two = inst.obj(1), inst.obj(2)
    f = inst.enumerate_homset(one, two)[3]
    g = identity(two)
    m = build(f, g)
    assert build(f, g) is m
    name = build.__wrapped__.__name__
    assert [key[1] for key in inst.memo if key[0].__name__ == name] == [(f, g)]
    # a second instance builds its own
    other = finrel(2)
    f2 = other.mor(other.obj(1), other.obj(2), f.payload)
    m2 = build(f2, identity(other.obj(2)))
    assert m2 is not m and m2.payload == m.payload
    assert [key[1][0] for key in other.memo if key[0].__name__ == name] == [f2]


def test_broken_witness_times_map_is_never_memoized(rotated_mediate_rel2):
    # times_map of two maps 2 -> 2 pairs into the rotated product(2,2)
    inst = rotated_mediate_rel2
    two = inst.obj(2)
    f = inst.enumerate_homset(two, two)[1]
    texts = []
    for _ in range(2):
        with pytest.raises(WitnessInvalid) as err:
            times_map(f, identity(two))
        texts.append(str(err.value))
    assert texts == ["pair: pi1*m=f (entry (1,2): 1 vs 0)"] * 2
    assert not [key for key in inst.memo if key[0].__name__ == "times_map"]


def test_from_matrix_refuses_an_ill_typed_square():
    one = REL.obj(1)
    two = REL.obj(2)
    i1 = identity(one)
    # the first column's entries start at different objects
    wrong = REL.mor(two, one, bmat((1, 0),))
    with pytest.raises(DomainMismatch, match="^pair components start at 1 and 2$"):
        from_matrix(Mat2(i1, i1, wrong, i1))
    # the columns agree, the second row does not
    tall = REL.mor(one, two, bmat((1,), (0,)))
    with pytest.raises(
        DomainMismatch, match="^pair components end at 1, 1; witness expects 1, 2$"
    ):
        from_matrix(Mat2(i1, i1, tall, i1))


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
    short = NAT.mor(NAT.obj(1), two, ((5,), (0,)))
    with pytest.raises(DomainMismatch, match="^morphism 1 -> 2 does not run 2 -> 2$"):
        matrix_of(short, c, p)


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
    assert from_matrix(matrix_of(f, cw, pw)) == f


def _fake_product(inst=REL):
    """Passes the mediate re-check but is not a product: a junk coordinate."""
    one = inst.obj(1)
    apex = inst.obj(3)
    pi1 = inst.mor(apex, one, bmat((1, 0, 0),))
    pi2 = inst.mor(apex, one, bmat((0, 1, 0),))

    def mediate(f, g):
        junk = tuple(True for _ in range(f.dom.data))
        return inst.mor(f.dom, apex, f.payload + g.payload + (junk,))

    return ProductWitness(one, one, apex, pi1, pi2, mediate)


def _fake_coproduct(inst=REL):
    one = inst.obj(1)
    apex = inst.obj(3)
    in1 = inst.mor(one, apex, bmat((1,), (0,), (0,)))
    in2 = inst.mor(one, apex, bmat((0,), (1,), (0,)))

    def mediate(f, g):
        rows = tuple(rf + rg + (False,) for rf, rg in zip(f.payload, g.payload))
        return inst.mor(apex, f.cod, rows)

    return CoproductWitness(one, one, apex, in1, in2, mediate)


class JunkCoordinate(MatInstance):
    """finrel whose product and coproduct of 1 and 1 carry a junk coordinate."""

    def product(self, a, b):
        return _fake_product(self) if a.data == b.data == 1 else super().product(a, b)

    def coproduct(self, a, b):
        return _fake_coproduct(self) if a.data == b.data == 1 else super().coproduct(a, b)


def test_from_matrix_detects_assembly_disagreement():
    inst = JunkCoordinate(BOOLEANS, 3, name="finrel")
    one = inst.obj(1)
    m = Mat2(identity(one), identity(one), identity(one), identity(one))
    with pytest.raises(WitnessInvalid, match="^from_matrix: cols=rows"):
        from_matrix(m)


def test_verify_product_witness_exhaustive():
    p = REL.product(REL.obj(1), REL.obj(2))
    res = verify_product_witness(p, REL.objects(2), random.Random(0))
    assert res.passed
    # enumerable homsets get real uniqueness loops, not just probes
    assert any(chk.label.startswith("uniq[") for chk in res.details)


def test_verify_coproduct_witness_exhaustive():
    c = REL.coproduct(REL.obj(1), REL.obj(2))
    res = verify_coproduct_witness(c, REL.objects(2), random.Random(0))
    assert res.passed


def test_verify_product_witness_rejects_fake():
    res = verify_product_witness(_fake_product(), [REL.obj(1)], random.Random(0))
    assert not res.passed
    assert any("uniq" in chk.label for chk in res.failures())


def test_verify_coproduct_witness_rejects_fake():
    res = verify_coproduct_witness(_fake_coproduct(), [REL.obj(1)], random.Random(0))
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


@pytest.mark.parametrize("dual", [False, True])
def test_witness_check_shares_legs_between_its_loops(monkeypatch, dual):
    # with both loops exhaustive, the existence loop reads every mediate and
    # every pair of legs back from the uniqueness loop: the call mediates
    # and composes once per map into (out of) the apex, and still checks
    # every existence equation
    one, two = REL.obj(1), REL.obj(2)
    wit = REL.coproduct(one, two) if dual else REL.product(one, two)
    mediated, composed = [], []

    def mediate(f, g):
        mediated.append((f, g))
        return wit.mediate(f, g)

    compose = structure.compose
    monkeypatch.setattr(structure, "compose", lambda g, f: composed.append(1) or compose(g, f))
    counted = _with_mediate(wit, mediate)
    probes = REL.objects(2)
    verify = verify_coproduct_witness if dual else verify_product_witness

    def size(w, x):
        return len(REL.enumerate_homset(*((x, w) if dual else (w, x))))

    res = verify(counted, probes, random.Random(0))
    assert res.passed
    maps = sum(size(w, wit.apex) for w in probes)
    pairs = sum(size(w, one) * size(w, two) for w in probes)
    assert maps == pairs == 1 + 8 + 64
    assert len(mediated) == 1 + maps
    assert len(composed) == 2 * maps
    assert len(res.details) == 1 + maps + 2 * pairs


def test_sampled_witness_checks_draw_as_before():
    # on mat-rat every homset is sampled; the shared legs must not change
    # what is drawn, so the next number from the RNG is the one it was
    # before the legs were shared
    rat = mat_semiring("mat-rat", 2)
    one, two = rat.obj(1), rat.obj(2)
    for verify, wit in (
        (verify_product_witness, rat.product(one, two)),
        (verify_coproduct_witness, rat.coproduct(two, one)),
    ):
        rng = random.Random(0)
        res = verify(wit, rat.objects(), rng=rng)
        assert res.passed and len(res.details) == 19
        assert all("-probe[" in chk.label for chk in res.details[1:])
        assert rng.random() == 0.20320185246943334


def test_broken_mediate_equations_are_pinned(rotated_mediate_rel2):
    # every equation of a witness whose mediate rotates rows, with its
    # verdict and failure note, as captured before the legs were shared
    inst = rotated_mediate_rel2
    two = inst.obj(2)
    res = verify_product_witness(inst.product(two, two), inst.objects(), random.Random(0))
    digest = hashlib.sha256()
    for chk in res.details:
        digest.update(f"{chk.label}|{chk.ok}|{chk.note}\n".encode())
    assert (len(res.details), len(res.failures())) == (820, 771)
    assert str(res.failures()[1]) == "uniq[1#1] (entry (3,1): 1 vs 0)"
    assert digest.hexdigest() == "eedfb0bc018a8e1b4ce6809e449f17fb614e72e74572e46177148aa1494e316f"


class _Homsets:
    """A stand-in category whose homsets are listed by hand.

    A homset listed as None is too large to enumerate, and its random
    morphisms are fresh names drawn from the rng.
    """

    def __init__(self, homs):
        self.homs = homs
        self.enumerated = []

    def enumerate_homset(self, a, b):
        self.enumerated.append((a, b))
        homs = self.homs[a, b]
        return None if homs is None or len(homs) > structure.ENUM_CAP else list(homs)

    def random_morphism(self, rng, a, b):
        homs = self.homs[a, b]
        if homs is None:
            return f"{a}{b}#{rng.randrange(10**6)}"
        return rng.choice(homs) if homs else None


def test_draw_exhausts_small_homsets_in_product_order():
    cat = _Homsets({("a", "b"): ["f1", "f2"], ("a", "c"): ["g1", "g2", "g3"]})
    rng = random.Random(0)
    tuples, exhaustive = structure.draw(cat, rng, [("a", "b"), ("a", "c")], 2)
    assert exhaustive
    assert tuples == [
        ("f1", "g1"), ("f1", "g2"), ("f1", "g3"),
        ("f2", "g1"), ("f2", "g2"), ("f2", "g3"),
    ]
    # exhausting draws nothing
    assert rng.random() == random.Random(0).random()


def test_draw_samples_past_the_enumeration_cap():
    # 16 * 32 = ENUM_CAP tuples still enumerate, 23 * 23 = 529 do not
    at_cap = _Homsets({("a", "b"): list(range(16)), ("a", "c"): list(range(32))})
    tuples, exhaustive = structure.draw(at_cap, random.Random(0), [("a", "b"), ("a", "c")], 3)
    assert exhaustive and len(tuples) == structure.ENUM_CAP
    over = _Homsets({("a", "b"): list(range(23)), ("a", "c"): list(range(23))})
    rng = random.Random(0)
    tuples, exhaustive = structure.draw(over, rng, [("a", "b"), ("a", "c")], 3)
    assert not exhaustive
    # drawn tuple by tuple, homset by homset, from the one rng
    ref = random.Random(0)
    assert tuples == [(ref.choice(range(23)), ref.choice(range(23))) for _ in range(3)]


def test_draw_probe_path_on_an_instance():
    one = NAT.obj(1)
    rng = random.Random(0)
    tuples, exhaustive = structure.draw(NAT, rng, [(one, one)], structure.PROBE_SAMPLES)
    assert not exhaustive
    ref = random.Random(0)
    assert tuples == [
        (NAT.random_morphism(ref, one, one),) for _ in range(structure.PROBE_SAMPLES)
    ]
    assert rng.random() == ref.random()


def test_draw_stops_at_an_empty_homset():
    cat = _Homsets({("a", "big"): None, ("a", "none"): []})
    rng = random.Random(0)
    tuples, exhaustive = structure.draw(cat, rng, [("a", "big"), ("a", "none")], 5)
    assert (tuples, exhaustive) == ([], False)
    # the first tuple drew from the large homset before meeting the empty one
    ref = random.Random(0)
    ref.randrange(10**6)
    assert rng.random() == ref.random()


def test_draw_asks_for_every_listed_homset_in_order():
    # draw keeps no homsets of its own: a repeated homset is asked for
    # again, and memoizing it is the instance's business
    cat = _Homsets({("a", "b"): ["f1", "f2"], ("b", "b"): ["g"]})
    homsets = [("a", "b"), ("b", "b"), ("a", "b")]
    tuples, exhaustive = structure.draw(cat, random.Random(0), homsets, 2)
    assert exhaustive
    assert cat.enumerated == homsets
    assert tuples == [
        ("f1", "g", "f1"), ("f1", "g", "f2"), ("f2", "g", "f1"), ("f2", "g", "f2"),
    ]
