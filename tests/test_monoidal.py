from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biprod import cli
from biprod.cli import STAGES, CheckRecord, _guard
from biprod.construction import t_inverse, y_map
from biprod.errors import CategoryError, MissingStructure, NoNullaryStructure, WitnessInvalid
from biprod.instances import (
    BOOLEANS,
    ChainInstance,
    Instance,
    MatInstance,
    finrel,
    mat_semiring,
    resolve,
)
from biprod.kernel import InversePair, check_inverse_pair, compose, identity
from biprod.monoidal import (
    dist_coprod,
    dist_prod,
    has_nullary,
    nullary_coprod,
    nullary_prod,
    require_nullary,
    tensor,
)

REL = finrel(3)
NAT = mat_semiring("mat-nat", 3)


def test_tensor_on_objects_multiplies_dimensions():
    assert REL.tensor_obj(REL.obj(2), REL.obj(3)).data == 6
    assert REL.tensor_obj(REL.obj(2), REL.obj(0)).data == 0


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
    failure = "bwd*fwd=id (entry (1,1): 0 vs 1)"
    assert checks == [
        CheckRecord("dist-prod", ("1", "1", "2"), "dist_prod(1,1,2): " + failure),
        CheckRecord("interchange", ("1", "1", "2", "2"), "dist_prod(1,2,2): " + failure),
    ] * 2
    memoized = {key[0].__name__ for key in broken.memo}
    assert "dist_prod" not in memoized and "check_inverse_pair" not in memoized


def test_nullary_distributors_certify():
    prod_iso, coprod_iso = nullary_prod(REL.obj(2)), nullary_coprod(REL.obj(2))
    assert prod_iso.fwd.dom.data == 0 and prod_iso.fwd.cod.data == 0
    assert check_inverse_pair(coprod_iso.fwd, coprod_iso.bwd).passed


def test_chain_has_no_nullary_structure():
    ch = ChainInstance(-2, 2)
    assert not has_nullary(ch)
    with pytest.raises(NoNullaryStructure):
        require_nullary(ch)
    with pytest.raises(NoNullaryStructure):
        nullary_prod(ch.obj(0))
    with pytest.raises(NoNullaryStructure):
        nullary_coprod(ch.obj(0))


def test_chain_rho_certifies():
    ch = ChainInstance(-2, 2)
    r = ch.rho(ch.obj(1))
    assert r.fwd.dom.data == 1


@pytest.mark.parametrize("selector", ["finrel", "mat-rat", "z-chain", "product:finrel+mat-nat"])
def test_strict_unit_and_nullary_inverses_are_certified_identities(selector):
    inst = resolve(selector, 1 if selector.startswith("product:") else 2)
    for a in inst.objects():
        r = inst.rho(a)
        assert r.fwd == r.bwd == identity(a)
        assert r.equations.name == f"rho({a.name})" and r.equations.passed
        if has_nullary(inst):
            assert inst.nullary_prod_inv(a) == identity(inst.terminal)
            assert inst.nullary_coprod_inv(a) == identity(inst.initial)
            assert nullary_prod(a).bwd == identity(inst.terminal)
            assert nullary_coprod(a).bwd == identity(inst.initial)
    # the right distributor is Instance's identity everywhere, and on the
    # thin z-chain the left one too
    for a, b, c in itertools.product(inst.objects(), repeat=3):
        ab_c = inst.tensor_obj(inst.coproduct(a, b).apex, c)
        assert inst.coprod_inv(a, b, c) == identity(ab_c)
        assert dist_coprod(a, b, c).bwd == identity(ab_c)
        if selector == "z-chain":
            a_bc = inst.tensor_obj(a, inst.product(b, c).apex)
            assert inst.prod_inv(a, b, c) == identity(a_bc)
            assert dist_prod(a, b, c).bwd == identity(a_bc)


class ShiftedChain(ChainInstance):
    """The chain with a@b = a+b+1: distributive on the nose, but a@0 is a+1."""

    def tensor_obj(self, a, b):
        return self.obj(a.data + b.data + 1)


def test_a_tensor_not_strictly_unital_must_state_its_rho():
    inst = ShiftedChain(-2, 2)
    a, b = inst.obj(1), inst.obj(2)
    refused = r"^instance z-chain: the tensor is not strict at 1; override rho$"
    with pytest.raises(NotImplementedError, match=refused):
        inst.rho(a)
    # Instance's distributors certify, so t_inverse gets as far as rho
    assert dist_prod(a, b, inst.unit).equations.passed
    with pytest.raises(NotImplementedError, match=refused):
        t_inverse(a, b)
    with pytest.raises(NotImplementedError, match=r"^instance z-chain: .*nullary_prod_inv$"):
        inst.nullary_prod_inv(a)


class ScaledChain(ChainInstance):
    """The chain with a@b = a*b: for negative objects min and max trade places."""

    def tensor_obj(self, a, b):
        return self.obj(a.data * b.data)


def test_a_tensor_not_distributive_on_the_nose_must_state_its_distributors():
    inst = ScaledChain(-2, 2)
    neg, one, two = inst.obj(-1), inst.obj(1), inst.obj(2)
    # -1*min(1,2) = -1 but min(-1,-2) = -2; max(1,2)*-1 = -2 but max(-1,-2) = -1
    for method, objs, where in (
        ("prod_inv", (neg, one, two), "-1,1,2"),
        ("coprod_inv", (one, two, neg), "1,2,-1"),
    ):
        refused = f"^instance z-chain: the tensor is not strict at {where}; override {method}$"
        with pytest.raises(NotImplementedError, match=refused):
            getattr(inst, method)(*objs)
    # where min and max survive the scaling, the identities are supplied
    assert inst.prod_inv(two, one, two) == identity(two)
    assert inst.coprod_inv(one, two, two) == identity(inst.obj(4))


@pytest.mark.parametrize("cls, missing", [(ShiftedChain, 25), (ScaledChain, 24)])
def test_absent_structure_is_a_failed_record(monkeypatch, cls, missing):
    # MissingStructure is a CategoryError, so verify reports it instead of
    # crashing, and a NotImplementedError, for callers that catch that
    assert issubclass(MissingStructure, CategoryError)
    assert issubclass(MissingStructure, NotImplementedError)
    inst = cls(-2, 2)
    monkeypatch.setattr(cli, "resolve", lambda selector, max_size: inst)
    report = cli.run_suite(cli.SuiteConfig(instance="z-chain", max_size=2))
    t_inverse_records = [c for c in report.checks if c.suite == "t-inverse"]
    assert len(t_inverse_records) == 25
    refused = re.compile(
        r"MissingStructure \(instance z-chain: the tensor is not strict at -?\d; override rho\)"
    )
    assert sum(1 for c in t_inverse_records if c.failure and refused.fullmatch(c.failure)) == missing


class DefaultProdInv(MatInstance):
    """finrel stating no prod_inv: Instance's identity, though a@(b x c) is (a@b) x (a@c)."""

    prod_inv = Instance.prod_inv


def test_an_identity_where_the_objects_agree_is_still_certified():
    inst = DefaultProdInv(BOOLEANS, 2, name="finrel")
    # the object check passes everywhere, so the default hands out identities
    for a, b, c in itertools.product(inst.objects(), repeat=3):
        assert inst.prod_inv(a, b, c) == identity(inst.tensor_obj(a, inst.product(b, c).apex))
        if a.data <= 1 or b.data == 0 or c.data == 0:
            assert dist_prod(a, b, c).equations.passed
        else:
            # with two rows of a and two factors the bases are listed in
            # different orders: the certificate, not the object check, refuses
            with pytest.raises(WitnessInvalid, match=r"^dist_prod\("):
                dist_prod(a, b, c)


# each shipped instance class, built small
SHIPPED = {
    "MatInstance": lambda: finrel(2),
    "ChainInstance": lambda: ChainInstance(-2, 2),
    "ProductInstance": lambda: resolve("product:finrel+z-chain", 2),
}
STRICT_DEFAULTS = {
    "rho": 1, "prod_inv": 3, "coprod_inv": 3, "nullary_prod_inv": 1, "nullary_coprod_inv": 1,
}


@pytest.mark.parametrize("cls_name", sorted(SHIPPED))
def test_shipped_overrides_differ_from_the_strict_default(cls_name):
    """A shipped override of a strict default must state something the default does not.

    For every one of the five methods a shipped class defines itself,
    Instance's default raises, or gives a different map, on some objects.
    """
    inst = SHIPPED[cls_name]()
    cls = type(inst)
    assert cls.__name__ == cls_name

    def differs(method, objs):
        try:
            default = getattr(Instance, method)(inst, *objs)
        except NotImplementedError:
            return True
        return default != getattr(inst, method)(*objs)

    for method, arity in STRICT_DEFAULTS.items():
        if method in cls.__dict__:
            tuples = itertools.product(inst.objects(), repeat=arity)
            assert any(differs(method, objs) for objs in tuples), f"{cls_name}.{method}"
