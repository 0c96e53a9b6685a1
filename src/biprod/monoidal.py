"""Tensor structure and the distributivity witnesses an instance supplies.

The tensor here is deliberately minimal: what the later construction
consumes is the instance's tensor, unit, right-unit iso rho and four
distributor inverses, as instances.base lists them; associators and the
left unit never come up.

Distributivity is not derived, it is witnessed.  The canonical comparison
maps always exist, and the instance supplies only their inverses.
dist_prod, dist_coprod, nullary_prod and nullary_coprod pair each
canonical map with its inverse; each one's docstring gives the iso's
type.  The nullary ones, with bang and cobang, exist exactly when the
instance has terminal and initial objects (terminal and initial are not
None).  Every shipped tensor is strict, so rho and the inverses are
Instance's identities, except matcat's prod_inv, a permutation.
dist_prod and dist_coprod certify both round trips once per instance and
keep the certified iso in the instance's memo (kernel.per_instance), so
y_map reuses one certificate per object triple.  Their canonical maps are
assembled through structure.assemble, so a pair or copair that two
triples share is re-checked once, and InversePair.certify checks each
distinct (fwd, bwd) once per instance.  A wrong witness stores nothing
and fails loudly at every use.
"""
from __future__ import annotations

from .errors import NoNullaryStructure
from .kernel import InversePair, Mor, Obj, identity, per_instance
from .structure import assemble


def tensor(f: Mor, g: Mor) -> Mor:
    return f.dom.cat.tensor_mor(f, g)


@per_instance
def dist_prod(a: Obj, b: Obj, c: Obj) -> InversePair:
    """Certified iso a@(b x c) -> (a@b) x (a@c), canonical map forward."""
    cat = a.cat
    pbc = cat.product(b, c)
    p_out = cat.product(cat.tensor_obj(a, b), cat.tensor_obj(a, c))
    fwd = assemble(tensor(identity(a), pbc.pi1), tensor(identity(a), pbc.pi2), p_out)
    bwd = cat.prod_inv(a, b, c)
    return InversePair.certify(fwd, bwd, context=f"dist_prod({a.name},{b.name},{c.name})")


@per_instance
def dist_coprod(a: Obj, b: Obj, c: Obj) -> InversePair:
    """Certified iso (a@c) + (b@c) -> (a+b)@c, canonical map forward."""
    cat = a.cat
    cab = cat.coproduct(a, b)
    c_out = cat.coproduct(cat.tensor_obj(a, c), cat.tensor_obj(b, c))
    fwd = assemble(tensor(cab.in1, identity(c)), tensor(cab.in2, identity(c)), c_out)
    bwd = cat.coprod_inv(a, b, c)
    return InversePair.certify(fwd, bwd, context=f"dist_coprod({a.name},{b.name},{c.name})")


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
        cat.bang(cat.tensor_obj(a, cat.terminal)),
        cat.nullary_prod_inv(a),
        context=f"nullary_prod({a.name})",
    )


def nullary_coprod(a: Obj) -> InversePair:
    """Certified iso 0 -> 0@a, forward the unique map from the initial object."""
    cat = a.cat
    require_nullary(cat)
    return InversePair.certify(
        cat.cobang(cat.tensor_obj(cat.initial, a)),
        cat.nullary_coprod_inv(a),
        context=f"nullary_coprod({a.name})",
    )
