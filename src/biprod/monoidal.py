"""Tensor structure and the distributivity witnesses an instance supplies.

The tensor here is deliberately minimal.  An instance implements it as
methods: tensor_obj and tensor_mor (the action on objects and
morphisms), the data attribute unit, and rho(a), the certified
right-unit isomorphism a@unit -> a.  That is all the later construction
consumes; associators and the left unit never come up.  Every shipped
tensor is strictly unital, so rho is Instance's certified identity.

Distributivity is not derived, it is witnessed.  The canonical comparison
maps always exist, and the instance supplies their inverses as methods:

  prod_inv(a, b, c):    (a@b) x (a@c) -> a@(b x c), inverse of
                        <a@pi1, a@pi2>
  coprod_inv(a, b, c):  (a+b)@c -> (a@c) + (b@c), inverse of
                        [in1@c, in2@c]
  nullary_prod_inv(a):  1 -> a@1, inverse of the unique map a@1 -> 1
                        (1 the terminal object)
  nullary_coprod_inv(a): 0@a -> 0, inverse of the unique map 0 -> 0@a
                        (0 the initial object)

The nullary ones, with bang and cobang, exist exactly when the instance
has terminal and initial objects (terminal and initial are not None).
All four are Instance's identities wherever the tensor yields one object
at both ends, as every shipped instance does except in matcat's
prod_inv, a permutation.  dist_prod and dist_coprod certify both round
trips once per instance and keep the certified iso in the instance's
memo (kernel.per_instance), so y_map reuses one certificate per object
triple.  A wrong witness stores nothing and fails loudly at every use.
"""
from __future__ import annotations

from .errors import NoNullaryStructure
from .kernel import InversePair, Mor, Obj, identity, per_instance
from .structure import copair, pair


def tensor_obj(a: Obj, b: Obj) -> Obj:
    return a.cat.tensor_obj(a, b)


def tensor(f: Mor, g: Mor) -> Mor:
    return f.dom.cat.tensor_mor(f, g)


@per_instance
def dist_prod(a: Obj, b: Obj, c: Obj) -> InversePair:
    """Certified iso a@(b x c) -> (a@b) x (a@c), canonical map forward."""
    cat = a.cat
    pbc = cat.product(b, c)
    p_out = cat.product(tensor_obj(a, b), tensor_obj(a, c))
    fwd = pair(p_out, tensor(identity(a), pbc.pi1), tensor(identity(a), pbc.pi2))
    bwd = cat.prod_inv(a, b, c)
    ctx = f"dist_prod({cat.format_obj(a)},{cat.format_obj(b)},{cat.format_obj(c)})"
    return InversePair.certify(fwd, bwd, context=ctx)


@per_instance
def dist_coprod(a: Obj, b: Obj, c: Obj) -> InversePair:
    """Certified iso (a@c) + (b@c) -> (a+b)@c, canonical map forward."""
    cat = a.cat
    cab = cat.coproduct(a, b)
    c_out = cat.coproduct(tensor_obj(a, c), tensor_obj(b, c))
    fwd = copair(c_out, tensor(cab.in1, identity(c)), tensor(cab.in2, identity(c)))
    bwd = cat.coprod_inv(a, b, c)
    ctx = f"dist_coprod({cat.format_obj(a)},{cat.format_obj(b)},{cat.format_obj(c)})"
    return InversePair.certify(fwd, bwd, context=ctx)


def has_nullary(inst) -> bool:
    return inst.terminal is not None and inst.initial is not None


def require_nullary(inst) -> None:
    if not has_nullary(inst):
        raise NoNullaryStructure(
            f"instance {inst.name} lacks terminal/initial structure"
        )


def nullary_prod(a: Obj) -> InversePair:
    """Certified iso a@1 -> 1, forward the unique map to the terminal object."""
    cat = a.cat
    require_nullary(cat)
    return InversePair.certify(
        cat.bang(tensor_obj(a, cat.terminal)),
        cat.nullary_prod_inv(a),
        context=f"nullary_prod({cat.format_obj(a)})",
    )


def nullary_coprod(a: Obj) -> InversePair:
    """Certified iso 0 -> 0@a, forward the unique map from the initial object."""
    cat = a.cat
    require_nullary(cat)
    return InversePair.certify(
        cat.cobang(tensor_obj(cat.initial, a)),
        cat.nullary_coprod_inv(a),
        context=f"nullary_coprod({cat.format_obj(a)})",
    )
