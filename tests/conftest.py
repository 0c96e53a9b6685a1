from __future__ import annotations

import itertools
import random

import pytest

from biprod.instances import (
    BOOLEANS, RATIONALS, ChainInstance, Instance, MatInstance, finrel, mat_semiring
)
from biprod.instances.semiring import hstack, zero_one_matrix
from biprod.kernel import per_instance
from biprod.structure import ENUM_CAP, CoproductWitness, ProductWitness


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


class FinSet(Instance):
    """Finite sets 0..max_size and functions, with the cartesian tensor.

    A countermodel: products and coproducts exist, and the tensor
    distributes over coproducts, but the terminal set 1 is not the
    initial set 0, and the cartesian product does not distribute over
    itself.  A function n -> m is the tuple of its n images; n x m and
    n @ m are both the set n*m, element i*m + j standing for (i, j).
    """

    def __init__(self, max_size: int):
        super().__init__("finset")
        self.max_size = max_size
        self.terminal = self.unit = self.obj(1)
        self.initial = self.obj(0)

    def identity_payload(self, a):
        return tuple(range(a.data))

    def compose_payload(self, g, f):
        return tuple(g.payload[i] for i in f.payload)

    def objects(self, bound=None):
        top = self.max_size if bound is None else min(self.max_size, bound)
        return [self.obj(n) for n in range(top + 1)]

    @per_instance
    def product(self, a, b):
        n, m = a.data, b.data
        apex = self.obj(n * m)
        pi1 = self.mor(apex, a, tuple(k // m for k in range(n * m)))
        pi2 = self.mor(apex, b, tuple(k % m for k in range(n * m)))

        def mediate(f, g):
            return self.mor(f.dom, apex, tuple(i * m + j for i, j in zip(f.payload, g.payload)))

        return ProductWitness(a, b, apex, pi1, pi2, mediate)

    @per_instance
    def coproduct(self, a, b):
        n, m = a.data, b.data
        apex = self.obj(n + m)
        in1 = self.mor(a, apex, tuple(range(n)))
        in2 = self.mor(b, apex, tuple(range(n, n + m)))

        def mediate(f, g):
            return self.mor(apex, f.cod, f.payload + g.payload)

        return CoproductWitness(a, b, apex, in1, in2, mediate)

    def bang(self, x):
        return self.mor(x, self.terminal, (0,) * x.data)

    def cobang(self, x):
        return self.mor(self.initial, x, ())

    def tensor_obj(self, a, b):
        return self.obj(a.data * b.data)

    def tensor_mor(self, f, g):
        m, m2 = g.dom.data, g.cod.data
        images = (f.payload[k // m] * m2 + g.payload[k % m] for k in range(f.dom.data * m))
        return self.mor(self.tensor_obj(f.dom, g.dom), self.tensor_obj(f.cod, g.cod), tuple(images))

    def enumerate_homset(self, a, b):
        if b.data ** a.data > ENUM_CAP:
            return None
        return tuple(self.mor(a, b, p) for p in itertools.product(range(b.data), repeat=a.data))

    def random_morphism(self, rng, a, b):
        if b.data == 0 and a.data > 0:
            return None
        return self.mor(a, b, tuple(rng.randrange(b.data) for _ in range(a.data)))


def assert_built_from_its_fields(rec):
    """rec's class rebuilds rec by position and by keyword, and refuses any other call.

    Each field must be given exactly once: too few, too many, an unknown
    keyword, or one field both by position and by keyword raises
    TypeError naming the class.
    """
    cls, fields = type(rec), rec.__slots__
    values = [getattr(rec, name) for name in fields]
    for built in (cls(*values), cls(**dict(zip(fields, values)))):
        assert type(built) is cls
        assert all(getattr(built, name) is value for name, value in zip(fields, values))
    last = {fields[-1]: values[-1]}
    for args, kwargs in (
        (values[:-1], {}),
        ([*values, None], {}),
        (values[:-1], {**last, "extra": None}),
        (values[:-1], {**last, fields[0]: values[0]}),
    ):
        with pytest.raises(TypeError, match=f"^{cls.__name__} takes each of its fields "):
            cls(*args, **kwargs)


@pytest.fixture
def rotated_rel2():
    return RotatedProdInv(BOOLEANS, 2, name="finrel")


@pytest.fixture
def rotated_mediate_rel2():
    return RotatedMediate(BOOLEANS, 2, name="finrel")


@pytest.fixture
def finset2():
    return FinSet(2)


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
    return ChainInstance(-5, 5)


@pytest.fixture
def rng():
    return random.Random(0)
