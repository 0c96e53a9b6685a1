from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biprod.errors import NoNullaryStructure, WitnessInvalid
from biprod.instances import finrel, mat_semiring, z_chain
from biprod.kernel import check_inverse_pair, compose, equal
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
    assert equal(lhs, rhs)


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
