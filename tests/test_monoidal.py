from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biprod.cli import STAGES, CheckRecord, _guard
from biprod.construction import t_inverse, y_map
from biprod.errors import NoNullaryStructure, WitnessInvalid
from biprod.instances import ChainInstance, finrel, mat_semiring, resolve, z_chain
from biprod.kernel import InversePair, check_inverse_pair, compose, identity
from biprod.monoidal import (
    dist_coprod,
    dist_prod,
    has_nullary,
    nullary_coprod,
    nullary_prod,
    require_nullary,
    tensor,
    tensor_obj,
)

REL = finrel(3)
NAT = mat_semiring("mat-nat", 3)


def test_tensor_on_objects_multiplies_dimensions():
    assert tensor_obj(REL.obj(2), REL.obj(3)).data == 6
    assert tensor_obj(REL.obj(2), REL.obj(0)).data == 0


def test_tensor_on_morphisms_is_kronecker():
    one = NAT.obj(1)
    f = NAT.mor(one, one, ((2,),))
    g = NAT.mor(one, one, ((3,),))
    assert tensor(f, g).payload == ((6,),)


@st.composite
def kron_square(draw, max_dim=2):
    """Two composable pairs for the tensor interchange with composition."""
    dims = [draw(st.integers(0, max_dim)) for _ in range(6)]
    a0, a1, a2, b0, b1, b2 = dims

    def mor(lo, hi):
        payload = tuple(
            tuple(draw(st.booleans()) for _ in range(lo)) for _ in range(hi)
        )
        return REL.mor(REL.obj(lo), REL.obj(hi), payload)

    return mor(a0, a1), mor(a1, a2), mor(b0, b1), mor(b1, b2)


@settings(max_examples=100, deadline=None)
@given(kron_square())
def test_tensor_functorial(ms):
    f1, f2, g1, g2 = ms
    lhs = compose(tensor(f2, g2), tensor(f1, g1))
    rhs = tensor(compose(f2, f1), compose(g2, g1))
    assert lhs == rhs


def test_rho_is_certified_identity_for_matrices():
    r = REL.rho(REL.obj(2))
    assert r.fwd.payload == ((True, False), (False, True))
    assert check_inverse_pair(r.fwd, r.bwd).passed


def test_dist_prod_frozen_permutation():
    ip = dist_prod(NAT.obj(2), NAT.obj(1), NAT.obj(1))
    want = (
        (1, 0, 0, 0),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (0, 0, 0, 1),
    )
    assert ip.fwd.payload == want
    assert check_inverse_pair(ip.fwd, ip.bwd).passed


def test_dist_coprod_round_trips():
    for dims in ((1, 2, 2), (2, 2, 1), (0, 2, 1), (2, 0, 3)):
        a, b, c = (REL.obj(d) for d in dims)
        ip = dist_coprod(a, b, c)
        assert check_inverse_pair(ip.fwd, ip.bwd).passed


def test_dist_prod_rejects_broken_witness(rotated_rel2):
    broken = rotated_rel2
    with pytest.raises(WitnessInvalid) as err:
        dist_prod(broken.obj(1), broken.obj(1), broken.obj(2))
    assert "dist_prod" in str(err.value)


@pytest.mark.parametrize("selector", ["finrel", "z-chain", "product:finrel+mat-nat"])
def test_distributors_are_certified_once_per_instance(selector):
    inst = resolve(selector, 1 if selector.startswith("product:") else 2)
    objs = inst.objects()[-2:]
    for a, b, c in itertools.product(objs, repeat=3):
        assert dist_prod(a, b, c) is dist_prod(a, b, c)
        assert dist_coprod(a, b, c) is dist_coprod(a, b, c)
    # one entry per object triple
    memoized = [key[0].__name__ for key in inst.memo]
    assert memoized.count("dist_prod") == memoized.count("dist_coprod") == 8


def test_second_y_map_certifies_no_distributor(monkeypatch):
    real = InversePair.__dict__["certify"].__func__
    contexts = []

    def counted(cls, fwd, bwd, context=""):
        contexts.append(context)
        return real(cls, fwd, bwd, context)

    monkeypatch.setattr(InversePair, "certify", classmethod(counted))
    inst = finrel(2)
    quad = (inst.obj(1), inst.obj(2), inst.obj(1), inst.obj(2))
    first = y_map(*quad)
    kinds = sorted(c.split("(")[0] for c in contexts)
    assert kinds == ["dist_coprod"] * 3 + ["dist_prod"] * 3 + ["y"]
    del contexts[:]
    assert y_map(*quad) == first
    assert contexts == ["y(1,2,1,2)"]


def test_broken_distributor_fails_at_every_use(rotated_rel2):
    broken = rotated_rel2
    a, b = broken.obj(1), broken.obj(2)
    for _ in range(2):
        with pytest.raises(WitnessInvalid, match=re.escape("dist_prod(1,1,2): bwd*fwd=id")):
            dist_prod(a, a, b)
    stages = {s.name: s for s in STAGES}
    checks = []
    for _ in range(2):
        for stage, names in (("dist-prod", "112"), ("interchange", "1122")):
            objs = tuple(broken.obj(int(n)) for n in names)
            _guard(checks, stage, tuple(names), lambda: stages[stage].check(None, *objs))
    assert checks == [
        CheckRecord("dist-prod", ("1", "1", "2"), False,
                    "dist_prod(1,1,2): bwd*fwd=id (entry (1,1): 0 vs 1)"),
        CheckRecord("interchange", ("1", "1", "2", "2"), False,
                    "dist_prod(1,2,2): bwd*fwd=id (entry (1,1): 0 vs 1)"),
    ] * 2
    assert "dist_prod" not in {key[0].__name__ for key in broken.memo}


def test_nullary_distributors_certify():
    prod_iso, coprod_iso = nullary_prod(REL.obj(2)), nullary_coprod(REL.obj(2))
    assert prod_iso.fwd.dom.data == 0 and prod_iso.fwd.cod.data == 0
    assert check_inverse_pair(coprod_iso.fwd, coprod_iso.bwd).passed


def test_chain_has_no_nullary_structure():
    ch = z_chain(-2, 2)
    assert not has_nullary(ch)
    with pytest.raises(NoNullaryStructure):
        require_nullary(ch)
    with pytest.raises(NoNullaryStructure):
        nullary_prod(ch.obj(0))
    with pytest.raises(NoNullaryStructure):
        nullary_coprod(ch.obj(0))


def test_chain_rho_certifies():
    ch = z_chain(-2, 2)
    r = ch.rho(ch.obj(1))
    assert r.fwd.dom.data == 1


@pytest.mark.parametrize("selector", ["finrel", "mat-rat", "z-chain", "product:finrel+mat-nat"])
def test_strict_unit_and_nullary_inverses_are_certified_identities(selector):
    inst = resolve(selector, 1 if selector.startswith("product:") else 2)
    for a in inst.objects():
        r = inst.rho(a)
        assert r.fwd == r.bwd == identity(a)
        assert r.equations.name == f"rho({inst.format_obj(a)})" and r.equations.passed
        if has_nullary(inst):
            assert inst.nullary_prod_inv(a) == identity(inst.terminal)
            assert inst.nullary_coprod_inv(a) == identity(inst.initial)
            assert nullary_prod(a).bwd == identity(inst.terminal)
            assert nullary_coprod(a).bwd == identity(inst.initial)


class ShiftedChain(ChainInstance):
    """The chain with a@b = a+b+1: distributive on the nose, but a@0 is a+1."""

    def tensor_obj(self, a, b):
        return self.obj(a.data + b.data + 1)

    def prod_inv(self, a, b, c):
        x = self.tensor_obj(a, self.product(b, c).apex)
        return self.mor(x, x, None)

    def coprod_inv(self, a, b, c):
        x = self.tensor_obj(self.coproduct(a, b).apex, c)
        return self.mor(x, x, None)


def test_a_tensor_not_strictly_unital_must_state_its_rho():
    inst = ShiftedChain(-2, 2, name="shifted-chain")
    a, b = inst.obj(1), inst.obj(2)
    refused = r"^instance shifted-chain: the tensor is not strict at 1; override rho$"
    with pytest.raises(NotImplementedError, match=refused):
        inst.rho(a)
    # the distributors it states certify, so t_inverse gets as far as rho
    assert dist_prod(a, b, inst.unit).equations.passed
    with pytest.raises(NotImplementedError, match=refused):
        t_inverse(a, b)
    with pytest.raises(NotImplementedError, match=r"^instance shifted-chain: .*nullary_prod_inv$"):
        inst.nullary_prod_inv(a)
