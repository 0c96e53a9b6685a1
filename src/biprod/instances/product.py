"""Componentwise product of two instances.

Objects and morphisms are pairs, and every piece of structure is run in
each component and repacked.  _lift makes a method that does that for
bang, cobang, tensor_mor, prod_inv, random_morphism and native_add: it
splits objects by data and morphisms by payload, hands any other
argument (the rng) to both sides, left first, and gives None when either
side does.  _witness does it for a product or coproduct witness.  rho,
coprod_inv and the nullary inverses are Instance's identities.
terminal and initial are packed only when both components have them, so
nullary structure exists exactly when both components have it, which
makes mixed products (one component with a zero object, one without)
useful counterexamples.

Composition is componentwise, so each component morphism meets every
morphism of the other side, and the product composes the same component
pair over and over.  compose_payload therefore keeps each component
composite in the instance's own dict _composites, keyed by the pair
(g_i, f_i) of component morphisms, one entry per side: the composite is
a pure function of its factors, and a compose that raises stores
nothing.  Keying by component pair, not by product pair, keeps the dict
small.  It holds at most COMPOSITE_CAP entries and is cleared when full,
so composites of sampled morphisms that never recur are not kept for
the instance's lifetime.  It is not inst.memo, whose keys are all
kernel.per_instance keys.
"""
from __future__ import annotations

import itertools

from ..errors import ParseError
from ..kernel import Mor, Obj, compose, identity, per_instance
from ..structure import ENUM_CAP, CoproductWitness, ProductWitness
from .base import Instance

# the most component composites compose_payload keeps at once
COMPOSITE_CAP = 4096


def _lift(name: str):
    """The method that runs name in each component on split arguments and packs."""

    def lifted(self, *args) -> Mor | None:
        largs, rargs = zip(*(
            x.data if isinstance(x, Obj) else x.payload if isinstance(x, Mor) else (x, x)
            for x in args
        ))
        lf = getattr(self.left, name)(*largs)
        rf = getattr(self.right, name)(*rargs)
        return None if lf is None or rf is None else self.pack_mor(lf, rf)

    lifted.__name__ = name
    return lifted


class ProductInstance(Instance):
    def __init__(self, left: Instance, right: Instance, name: str | None = None):
        super().__init__(name or f"product:{left.name}+{right.name}")
        self.left = left
        self.right = right
        for attr in ("terminal", "initial"):
            lx, rx = getattr(left, attr), getattr(right, attr)
            setattr(self, attr, None if lx is None or rx is None else self.pack(lx, rx))
        self.unit = self.pack(left.unit, right.unit)
        self._composites: dict = {}  # (g_i, f_i) -> compose(g_i, f_i)

    bang = _lift("bang")
    cobang = _lift("cobang")
    tensor_mor = _lift("tensor_mor")
    prod_inv = _lift("prod_inv")
    random_morphism = _lift("random_morphism")
    native_add = _lift("native_add")

    def pack(self, la: Obj, ra: Obj) -> Obj:
        return self.obj((la, ra))

    def pack_mor(self, lf: Mor, rf: Mor) -> Mor:
        return self.mor(
            self.pack(lf.dom, rf.dom), self.pack(lf.cod, rf.cod), (lf, rf)
        )

    # category hooks

    def identity_payload(self, a: Obj):
        return (identity(a.data[0]), identity(a.data[1]))

    def compose_payload(self, g: Mor, f: Mor):
        return (
            self._composite(g.payload[0], f.payload[0]),
            self._composite(g.payload[1], f.payload[1]),
        )

    def _composite(self, g: Mor, f: Mor) -> Mor:
        """compose(g, f) of two component morphisms, from _composites once computed."""
        composites = self._composites
        key = (g, f)
        gf = composites.get(key)
        if gf is None:
            gf = compose(g, f)
            if len(composites) >= COMPOSITE_CAP:
                composites.clear()
            composites[key] = gf
        return gf

    def format_obj(self, a: Obj) -> str:
        return f"{self.left.format_obj(a.data[0])}|{self.right.format_obj(a.data[1])}"

    def format_mor(self, f: Mor) -> str:
        return (
            f"<{self.left.format_mor(f.payload[0])}, "
            f"{self.right.format_mor(f.payload[1])}>"
        )

    def first_difference(self, f: Mor, g: Mor) -> str | None:
        lf, rf = f.payload
        lg, rg = g.payload
        if lf != lg:
            return "left " + (self.left.first_difference(lf, lg) or "component differs")
        if rf != rg:
            return "right " + (self.right.first_difference(rf, rg) or "component differs")
        return None

    # structure

    def objects(self, bound: int | None = None) -> list[Obj]:
        return [
            self.pack(la, ra)
            for la in self.left.objects(bound)
            for ra in self.right.objects(bound)
        ]

    def parse_obj(self, text: str) -> Obj:
        text = text.strip()
        if "|" not in text:
            raise ParseError(f"objects of {self.name} are spelled left|right, got {text!r}")
        lt, rt = text.split("|", 1)
        return self.pack(self.left.parse_obj(lt), self.right.parse_obj(rt))

    @per_instance
    def product(self, a: Obj, b: Obj) -> ProductWitness:
        lp, rp = self.left.product, self.right.product
        return self._witness(ProductWitness, ("pi1", "pi2"), lp, rp, a, b)

    @per_instance
    def coproduct(self, a: Obj, b: Obj) -> CoproductWitness:
        lc, rc = self.left.coproduct, self.right.coproduct
        return self._witness(CoproductWitness, ("in1", "in2"), lc, rc, a, b)

    def _witness(self, cls, legs: tuple[str, str], lbuild, rbuild, a: Obj, b: Obj):
        """Pack the components' cls witnesses: apex and legs pair up, mediate splits."""
        lw = lbuild(a.data[0], b.data[0])
        rw = rbuild(a.data[1], b.data[1])

        def mediate(f: Mor, g: Mor) -> Mor:
            return self.pack_mor(
                lw.mediate(f.payload[0], g.payload[0]),
                rw.mediate(f.payload[1], g.payload[1]),
            )

        packed = [self.pack_mor(getattr(lw, n), getattr(rw, n)) for n in legs]
        return cls(a, b, self.pack(lw.apex, rw.apex), *packed, mediate)

    # tensor

    def tensor_obj(self, a: Obj, b: Obj) -> Obj:
        return self.pack(
            self.left.tensor_obj(a.data[0], b.data[0]),
            self.right.tensor_obj(a.data[1], b.data[1]),
        )

    # enumeration

    def enumerate_homset(self, a: Obj, b: Obj) -> list[Mor] | None:
        ls = self.left.enumerate_homset(a.data[0], b.data[0])
        rs = self.right.enumerate_homset(a.data[1], b.data[1])
        if ls is None or rs is None or len(ls) * len(rs) > ENUM_CAP:
            return None
        return [self.pack_mor(lf, rf) for lf, rf in itertools.product(ls, rs)]


def product_instance(left: Instance, right: Instance) -> ProductInstance:
    return ProductInstance(left, right)
