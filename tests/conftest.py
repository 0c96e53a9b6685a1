from __future__ import annotations

import random

import pytest

from biprod.instances import BOOLEANS, RATIONALS, MatInstance, finrel, mat_semiring, z_chain
from biprod.instances.semiring import hstack, zero_one_matrix
from biprod.kernel import per_instance
from biprod.structure import CoproductWitness, ProductWitness


class RotatedProdInv(MatInstance):
    """finrel whose prod_inv has its rows rotated by one: a broken distributor."""

    def prod_inv(self, a, b, c):
        m = super().prod_inv(a, b, c)
        if len(m.payload) < 2:
            return m
        return self.mor(m.dom, m.cod, m.payload[1:] + m.payload[:1])


class RotatedMediate(MatInstance):
    """finrel whose product mediate at (2, 2) rotates rows: a broken witness."""

    def product(self, a, b):
        p = super().product(a, b)
        if (a.data, b.data) != (2, 2):
            return p

        def mediate(f, g):
            m = p.mediate(f, g)
            return self.mor(m.dom, m.cod, m.payload[1:] + m.payload[:1])

        return ProductWitness(p.left, p.right, p.apex, p.pi1, p.pi2, mediate)


class SkewedCoproduct(MatInstance):
    """A matrix category whose coproduct lists b's basis before a's.

    A valid biproduct, so every stage must pass; but a+b and a x b now
    list their bases in different orders, so c(1,2) is a permutation, not
    an identity matrix.
    """

    @per_instance
    def coproduct(self, a, b):
        n, m = a.data, b.data
        apex = self.obj(n + m)
        in1 = self.mor(a, apex, zero_one_matrix(self.sr, n, [*[None] * m, *range(n)]))
        in2 = self.mor(b, apex, zero_one_matrix(self.sr, m, [*range(m), *[None] * n]))

        def mediate(f, g):
            return self.mor(apex, f.cod, hstack(g.payload, f.payload))

        return CoproductWitness(a, b, apex, in1, in2, mediate)


@pytest.fixture
def rotated_rel2():
    return RotatedProdInv(BOOLEANS, 2, name="finrel")


@pytest.fixture
def rotated_mediate_rel2():
    return RotatedMediate(BOOLEANS, 2, name="finrel")


@pytest.fixture
def skewed_rel2():
    return SkewedCoproduct(BOOLEANS, 2, name="finrel")


@pytest.fixture
def skewed_rat2():
    return SkewedCoproduct(RATIONALS, 2, name="mat-rat")


@pytest.fixture(scope="session")
def rel2():
    return finrel(2)


@pytest.fixture(scope="session")
def rel3():
    return finrel(3)


@pytest.fixture(scope="session")
def nat():
    return mat_semiring("mat-nat", 3)


@pytest.fixture(scope="session")
def boolmat():
    return mat_semiring("mat-bool", 3)


@pytest.fixture(scope="session")
def rat():
    return mat_semiring("mat-rat", 3)


@pytest.fixture(scope="session")
def chain():
    return z_chain(-5, 5)


@pytest.fixture
def rng():
    return random.Random(0)
