"""The integers as a thin category: one morphism a -> b exactly when a <= b.

Product is min, coproduct is max, the tensor is addition with unit 0,
and addition distributes over both on the nose, so every distributor,
and rho, is Instance's identity.  What the chain does not have is a
terminal or initial object, and with them it loses the zero object, zero
maps, and homset addition.  It is the standing counterexample showing
the nullary hypotheses pull real weight.

lo..hi only window the enumeration; the structure maps accept any
integer objects.  product and coproduct are kernel.per_instance;
enumerate_homset is not, since a memo of it made suite-chain slower.
"""
from __future__ import annotations

import random

from ..errors import DomainMismatch
from ..kernel import Mor, Obj, per_instance
from ..structure import CoproductWitness, ProductWitness
from .base import Instance, read_int


class ChainInstance(Instance):
    def __init__(self, lo: int, hi: int):
        super().__init__("z-chain")
        if lo > hi:
            raise DomainMismatch("empty enumeration window")
        self.lo = lo
        self.hi = hi
        self.terminal = self.initial = None
        self.unit = self.obj(0)

    def hom(self, a: Obj, b: Obj) -> Mor:
        """The unique morphism a -> b; raises when a > b."""
        if a.data > b.data:
            raise DomainMismatch(f"no morphism {a.data} -> {b.data} in the order")
        return self.mor(a, b, None)

    # category hooks

    def identity_payload(self, a: Obj):
        return None

    def compose_payload(self, g: Mor, f: Mor):
        return None

    def format_mor(self, f: Mor) -> str:
        return f"{f.dom.data}<={f.cod.data}"

    # structure

    def objects(self, bound: int | None = None) -> list[Obj]:
        lo, hi = self.lo, self.hi
        if bound is not None:
            lo, hi = max(lo, -bound), min(hi, bound)
        return [self.obj(k) for k in range(lo, hi + 1)]

    def parse_obj(self, text: str) -> Obj:
        return self._windowed(read_int(text), self.lo, self.hi)

    @per_instance
    def product(self, a: Obj, b: Obj) -> ProductWitness:
        apex = self.obj(min(a.data, b.data))

        def mediate(f: Mor, g: Mor) -> Mor:
            return self.hom(f.dom, apex)

        return ProductWitness(a, b, apex, self.hom(apex, a), self.hom(apex, b), mediate)

    @per_instance
    def coproduct(self, a: Obj, b: Obj) -> CoproductWitness:
        apex = self.obj(max(a.data, b.data))

        def mediate(f: Mor, g: Mor) -> Mor:
            return self.hom(apex, f.cod)

        return CoproductWitness(a, b, apex, self.hom(a, apex), self.hom(b, apex), mediate)

    # tensor: addition, strictly unital and strictly distributive

    def tensor_obj(self, a: Obj, b: Obj) -> Obj:
        return self.obj(a.data + b.data)

    def tensor_mor(self, f: Mor, g: Mor) -> Mor:
        return self.hom(self.tensor_obj(f.dom, g.dom), self.tensor_obj(f.cod, g.cod))

    # enumeration

    def enumerate_homset(self, a: Obj, b: Obj) -> tuple[Mor, ...]:
        # not memoized: a hit is cheaper than this rebuild in isolation,
        # yet with per_instance suite-chain (z-chain 8/3) ran 1.6% slower
        return (self.mor(a, b, None),) if a.data <= b.data else ()

    def random_morphism(self, rng: random.Random, a: Obj, b: Obj) -> Mor | None:
        return self.mor(a, b, None) if a.data <= b.data else None
