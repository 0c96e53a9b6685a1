"""Matrix categories over a commutative semiring.

Objects are dimensions 0..max_dim, a morphism m -> n is an n x m matrix,
composition is matrix product.  Product and coproduct are both direct
sum, and the tensor is the Kronecker product with unit dimension 1.
Kronecker order lists (a+b)@c's basis as (a@c)+(b@c) does, so prod_inv,
an index shuffle, is the one distributor stated here.

finrel is the boolean case, a row of MAT_SEMIRINGS beside mat-bool: a
matrix over the or/and semiring is exactly a relation between finite
sets, composed relationally.

product, coproduct and enumerate_homset are kernel.per_instance: each
witness and homset is built once per instance and kept in inst.memo for
the instance's lifetime; a homset is handed out as a tuple, so no
caller can change what the next one receives.
"""
from __future__ import annotations

import itertools
import random

from ..errors import InvalidBounds, ParseError
from ..kernel import Mor, Obj, per_instance
from ..structure import ENUM_CAP, CoproductWitness, ProductWitness
from .base import Instance, read_int
from .semiring import (
    BOOLEANS,
    NATURALS,
    RATIONALS,
    Semiring,
    hstack,
    identity_matrix,
    kronecker,
    matmul,
    matrix_add,
    vstack,
    zero_one_matrix,
)


class MatInstance(Instance):
    def __init__(self, sr: Semiring, max_dim: int, name: str):
        super().__init__(name)
        if max_dim < 0:
            raise InvalidBounds("max_dim must be nonnegative")
        self.sr = sr
        self.max_dim = max_dim
        self.terminal = self.initial = self.obj(0)
        self.unit = self.obj(1)

    # category hooks

    def identity_payload(self, a: Obj):
        return identity_matrix(self.sr, a.data)

    def compose_payload(self, g: Mor, f: Mor):
        return matmul(self.sr, g.payload, f.payload, inner=g.dom.data, cols=f.dom.data)

    def format_mor(self, f: Mor) -> str:
        r, c = f.cod.data, f.dom.data
        if r == 0 or c == 0:
            return f"{c}->{r} (empty {r}x{c})"
        rows = "; ".join(
            " ".join(self.sr.render(v) for v in row) for row in f.payload
        )
        return f"{c}->{r} [{rows}]"

    def first_difference(self, f: Mor, g: Mor) -> str | None:
        for i, (rf, rg) in enumerate(zip(f.payload, g.payload)):
            for j, (x, y) in enumerate(zip(rf, rg)):
                if x != y:
                    return (
                        f"entry ({i + 1},{j + 1}): "
                        f"{self.sr.render(x)} vs {self.sr.render(y)}"
                    )
        return None

    # structure

    def objects(self, bound: int | None = None) -> list[Obj]:
        top = self.max_dim if bound is None else min(self.max_dim, bound)
        return [self.obj(d) for d in range(top + 1)]

    def parse_obj(self, text: str) -> Obj:
        n = read_int(text)
        if n < 0:
            raise ParseError("matrix objects are nonnegative dimensions")
        return self._windowed(n, 0, self.max_dim)

    @per_instance
    def product(self, a: Obj, b: Obj) -> ProductWitness:
        n, m = a.data, b.data
        apex = self.obj(n + m)
        pi1 = self.mor(apex, a, zero_one_matrix(self.sr, n + m, range(n)))
        pi2 = self.mor(apex, b, zero_one_matrix(self.sr, n + m, range(n, n + m)))

        def mediate(f: Mor, g: Mor) -> Mor:
            return self.mor(f.dom, apex, vstack(f.payload, g.payload))

        return ProductWitness(a, b, apex, pi1, pi2, mediate)

    @per_instance
    def coproduct(self, a: Obj, b: Obj) -> CoproductWitness:
        n, m = a.data, b.data
        apex = self.obj(n + m)
        in1 = self.mor(a, apex, zero_one_matrix(self.sr, n, [*range(n), *[None] * m]))
        in2 = self.mor(b, apex, zero_one_matrix(self.sr, m, [*[None] * n, *range(m)]))

        def mediate(f: Mor, g: Mor) -> Mor:
            return self.mor(apex, f.cod, hstack(f.payload, g.payload))

        return CoproductWitness(a, b, apex, in1, in2, mediate)

    def bang(self, x: Obj) -> Mor:
        return self.mor(x, self.obj(0), ())

    def cobang(self, x: Obj) -> Mor:
        return self.mor(self.obj(0), x, ((),) * x.data)

    # tensor

    def tensor_obj(self, a: Obj, b: Obj) -> Obj:
        return self.obj(a.data * b.data)

    def tensor_mor(self, f: Mor, g: Mor) -> Mor:
        dom, cod = self.tensor_obj(f.dom, g.dom), self.tensor_obj(f.cod, g.cod)
        return self.mor(dom, cod, kronecker(self.sr, f.payload, g.payload))

    # the left distributor: an index shuffle, handed out as its inverse permutation

    def prod_inv(self, a: Obj, b: Obj, c: Obj) -> Mor:
        an, bn, cn = a.data, b.data, c.data
        mapping = []
        for i in range(an):
            for j in range(bn + cn):
                if j < bn:
                    mapping.append(i * bn + j)
                else:
                    mapping.append(an * bn + i * cn + (j - bn))
        dom = self.obj(an * bn + an * cn)
        cod = self.obj(an * (bn + cn))
        return self.mor(dom, cod, zero_one_matrix(self.sr, len(mapping), mapping))

    # enumeration and sampling

    @per_instance
    def enumerate_homset(self, a: Obj, b: Obj) -> tuple[Mor, ...] | None:
        if self.sr.carrier is None:
            return None
        if len(self.sr.carrier) ** (a.data * b.data) > ENUM_CAP:
            return None
        # b-tuples of a-tuple rows: the order, and the entry objects, of one
        # product over all a*b cells read row by row, which the reports'
        # labels and seeded samples depend on
        rows = itertools.product(self.sr.carrier, repeat=a.data)
        return tuple(self.mor(a, b, p) for p in itertools.product(rows, repeat=b.data))

    def random_morphism(self, rng: random.Random, a: Obj, b: Obj) -> Mor:
        payload = tuple(
            tuple(self.sr.sample(rng) for _ in range(a.data)) for _ in range(b.data)
        )
        return self.mor(a, b, payload)

    def native_add(self, f: Mor, g: Mor) -> Mor:
        return self.mor(f.dom, f.cod, matrix_add(self.sr, f.payload, g.payload))


MAT_SEMIRINGS = {
    "finrel": BOOLEANS,
    "mat-bool": BOOLEANS,
    "mat-nat": NATURALS,
    "mat-rat": RATIONALS,
}


def mat_semiring(name: str, max_dim: int) -> MatInstance:
    return MatInstance(MAT_SEMIRINGS[name], max_dim, name=name)


def finrel(max_size: int) -> MatInstance:
    """Finite sets and relations, realised as boolean matrices."""
    return mat_semiring("finrel", max_size)
