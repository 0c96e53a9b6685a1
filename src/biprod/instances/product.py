"""Componentwise product of two instances.

Objects and morphisms are pairs, and every piece of structure is the
pair of the components' pieces.  One packer, _pack, turns a value from
each component into the product's: None when either side is None, pack
for two objects, pack_mor for two morphisms, and for two witnesses one
of their class whose fields, named by the class's __slots__, pack in
turn and whose mediate splits its maps by payload.  A packed mediate
builds its result on the ends it already holds, the shared end of its
arguments and the packed apex, when both component results end there;
only a component result with other ends goes through pack_mor, so pair
and copair still refuse it.  One lift, _lift(name), runs name in each
component on split arguments (objects by data, morphisms by payload, any
other argument, the rng, to both sides, left first) and packs the two
results: it makes bang, cobang, tensor_obj, tensor_mor, prod_inv,
product, coproduct, random_morphism and native_add.  terminal, initial
and unit are packed too, so nullary structure exists exactly when both
components have it, which makes mixed products (one component with a
zero object, one without) useful counterexamples.  rho, coprod_inv and
the nullary inverses are Instance's identities.  A packed object is
named by its components' names joined by |, which spell reads off the
two component objects, each named once in its own instance.  product,
coproduct and tensor_obj are kernel.per_instance, since the construction
asks for the same witness or tensor object over and over; so is
enumerate_homset, which packs each homset once per instance from the
components' own (the matrix instance memoizes its homsets too, the chain
does not) and hands it out as a tuple.  Composition is componentwise, and
each component's own composite memo (kernel.compose) keeps its side.
"""
from __future__ import annotations

import itertools

from ..errors import ParseError
from ..kernel import Mor, Obj, compose, identity, per_instance
from ..structure import ENUM_CAP, ProductWitness
from .base import Instance


def _lift(name: str):
    """The method that runs name in each component on split arguments and packs."""

    def lifted(self, *args):
        largs, rargs = [], []
        for x in args:
            lx, rx = x.data if isinstance(x, Obj) else x.payload if isinstance(x, Mor) else (x, x)
            largs.append(lx)
            rargs.append(rx)
        return self._pack(getattr(self.left, name)(*largs), getattr(self.right, name)(*rargs))

    lifted.__name__ = name
    return lifted


class ProductInstance(Instance):
    def __init__(self, left: Instance, right: Instance):
        super().__init__(f"product:{left.name}+{right.name}")
        self.left = left
        self.right = right
        for attr in ("terminal", "initial", "unit"):
            setattr(self, attr, self._pack(getattr(left, attr), getattr(right, attr)))

    bang = _lift("bang")
    cobang = _lift("cobang")
    tensor_obj = per_instance(_lift("tensor_obj"))
    tensor_mor = _lift("tensor_mor")
    prod_inv = _lift("prod_inv")
    product = per_instance(_lift("product"))
    coproduct = per_instance(_lift("coproduct"))
    random_morphism = _lift("random_morphism")
    native_add = _lift("native_add")

    def pack(self, la: Obj, ra: Obj) -> Obj:
        return self.obj((la, ra))

    def pack_mor(self, lf: Mor, rf: Mor) -> Mor:
        return self.mor(
            self.pack(lf.dom, rf.dom), self.pack(lf.cod, rf.cod), (lf, rf)
        )

    def _pack(self, lx, rx):
        """The product's value of lx from the left and rx from the right; see the module."""
        if lx is None or rx is None:
            return None
        if isinstance(lx, Obj):
            return self.pack(lx, rx)
        if isinstance(lx, Mor):
            return self.pack_mor(lx, rx)

        packed = {
            name: self._pack(getattr(lx, name), getattr(rx, name))
            for name in lx.__slots__
            if name != "mediate"
        }
        apex = packed["apex"]
        into_apex = isinstance(lx, ProductWitness)

        def mediate(f: Mor, g: Mor) -> Mor:
            lm = lx.mediate(f.payload[0], g.payload[0])
            rm = rx.mediate(f.payload[1], g.payload[1])
            # a product's mediate runs f.dom -> apex, a coproduct's apex -> f.cod:
            # when both components end there, those packed ends are the result's
            dom, cod = (f.dom, apex) if into_apex else (apex, f.cod)
            (ld, rd), (lc, rc) = dom.data, cod.data
            if lm.dom is ld and rm.dom is rd and lm.cod is lc and rm.cod is rc:
                return self.mor(dom, cod, (lm, rm))
            return self.pack_mor(lm, rm)

        return type(lx)(mediate=mediate, **packed)

    # category hooks

    def identity_payload(self, a: Obj):
        return (identity(a.data[0]), identity(a.data[1]))

    def compose_payload(self, g: Mor, f: Mor):
        (gl, gr), (fl, fr) = g.payload, f.payload
        return compose(gl, fl), compose(gr, fr)

    def spell(self, data: tuple[Obj, Obj]) -> str:
        return f"{data[0].name}|{data[1].name}"

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

    # enumeration

    @per_instance
    def enumerate_homset(self, a: Obj, b: Obj) -> tuple[Mor, ...] | None:
        ls = self.left.enumerate_homset(a.data[0], b.data[0])
        rs = self.right.enumerate_homset(a.data[1], b.data[1])
        if ls is None or rs is None or len(ls) * len(rs) > ENUM_CAP:
            return None
        return tuple([self.pack_mor(lf, rf) for lf, rf in itertools.product(ls, rs)])
