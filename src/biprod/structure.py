"""Finite product and coproduct structure, and two-by-two matrix plumbing.

Witnesses carry the chosen structure for a pair of objects: the apex with
its projections or injections plus a mediate callable.  pair and copair
wrap mediate and re-check the defining equations every time, so a broken
witness surfaces at the call site instead of corrupting later algebra.

A morphism from a binary coproduct into a binary product is determined by
its four components; Mat2 holds such a square of components.  from_matrix
reassembles in both orders (copair of pairs, pair of copairs) and insists
the two agree.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import DomainMismatch, InternalAgreementFailure, WitnessInvalid
from .kernel import (
    CheckResult,
    Mor,
    Obj,
    compose,
    equal,
    equation,
    identity,
)


@dataclass(frozen=True, eq=False)
class ProductWitness:
    left: Obj
    right: Obj
    apex: Obj
    pi1: Mor
    pi2: Mor
    mediate: Callable[[Mor, Mor], Mor]


@dataclass(frozen=True, eq=False)
class CoproductWitness:
    left: Obj
    right: Obj
    apex: Obj
    in1: Mor
    in2: Mor
    mediate: Callable[[Mor, Mor], Mor]


@dataclass(frozen=True, eq=False)
class TerminalWitness:
    obj: Obj
    bang: Callable[[Obj], Mor]


@dataclass(frozen=True, eq=False)
class InitialWitness:
    obj: Obj
    cobang: Callable[[Obj], Mor]


def pair(p: ProductWitness, f: Mor, g: Mor) -> Mor:
    """Mediating morphism into p.apex, with its defining equations re-checked."""
    cat = p.apex.cat
    if f.dom != g.dom:
        raise DomainMismatch(
            f"pair components start at {cat.format_obj(f.dom)} and {cat.format_obj(g.dom)}"
        )
    if f.cod != p.left or g.cod != p.right:
        raise DomainMismatch(
            f"pair components end at {cat.format_obj(f.cod)}, {cat.format_obj(g.cod)};"
            f" witness expects {cat.format_obj(p.left)}, {cat.format_obj(p.right)}"
        )
    m = p.mediate(f, g)
    if m.dom != f.dom or m.cod != p.apex:
        raise WitnessInvalid("product mediate returned a morphism of the wrong type")
    result = CheckResult(
        "pair",
        (
            equation("pi1*m=f", compose(p.pi1, m), f),
            equation("pi2*m=g", compose(p.pi2, m), g),
        ),
    )
    if not result.passed:
        raise WitnessInvalid("product mediate broke its defining equations", result)
    return m


def copair(c: CoproductWitness, f: Mor, g: Mor) -> Mor:
    """Mediating morphism out of c.apex, with its defining equations re-checked."""
    cat = c.apex.cat
    if f.cod != g.cod:
        raise DomainMismatch(
            f"copair components end at {cat.format_obj(f.cod)} and {cat.format_obj(g.cod)}"
        )
    if f.dom != c.left or g.dom != c.right:
        raise DomainMismatch(
            f"copair components start at {cat.format_obj(f.dom)}, {cat.format_obj(g.dom)};"
            f" witness expects {cat.format_obj(c.left)}, {cat.format_obj(c.right)}"
        )
    m = c.mediate(f, g)
    if m.dom != c.apex or m.cod != f.cod:
        raise WitnessInvalid("coproduct mediate returned a morphism of the wrong type")
    result = CheckResult(
        "copair",
        (
            equation("m*in1=f", compose(m, c.in1), f),
            equation("m*in2=g", compose(m, c.in2), g),
        ),
    )
    if not result.passed:
        raise WitnessInvalid("coproduct mediate broke its defining equations", result)
    return m


def times_map(f: Mor, g: Mor) -> Mor:
    """The product of two morphisms, acting componentwise."""
    cat = f.dom.cat
    pd = cat.product(f.dom, g.dom)
    pc = cat.product(f.cod, g.cod)
    return pair(pc, compose(f, pd.pi1), compose(g, pd.pi2))


def plus_map(f: Mor, g: Mor) -> Mor:
    """The coproduct of two morphisms, acting on each summand."""
    cat = f.dom.cat
    cd = cat.coproduct(f.dom, g.dom)
    cc = cat.coproduct(f.cod, g.cod)
    return copair(cd, compose(cc.in1, f), compose(cc.in2, g))


@dataclass(frozen=True)
class Mat2:
    """Components of a morphism from a binary coproduct into a binary product.

    Entry (j, k) goes from the k-th summand to the j-th factor, so the
    first index picks the row and the second the column.
    """

    f11: Mor
    f12: Mor
    f21: Mor
    f22: Mor

    def __post_init__(self) -> None:
        if self.f11.dom != self.f21.dom or self.f12.dom != self.f22.dom:
            raise DomainMismatch("matrix columns must share a domain")
        if self.f11.cod != self.f12.cod or self.f21.cod != self.f22.cod:
            raise DomainMismatch("matrix rows must share a codomain")

    def entries(self) -> Iterable[tuple[int, int, Mor]]:
        yield 1, 1, self.f11
        yield 1, 2, self.f12
        yield 2, 1, self.f21
        yield 2, 2, self.f22


def matrix_of(f: Mor, c: CoproductWitness, p: ProductWitness) -> Mat2:
    """Read off the four components of f: c.apex -> p.apex."""
    if f.dom != c.apex or f.cod != p.apex:
        cat = f.dom.cat
        raise DomainMismatch(
            f"morphism {cat.format_obj(f.dom)} -> {cat.format_obj(f.cod)} does not"
            f" run {cat.format_obj(c.apex)} -> {cat.format_obj(p.apex)}"
        )
    return Mat2(
        f11=compose(p.pi1, compose(f, c.in1)),
        f12=compose(p.pi1, compose(f, c.in2)),
        f21=compose(p.pi2, compose(f, c.in1)),
        f22=compose(p.pi2, compose(f, c.in2)),
    )


def from_matrix(m: Mat2, c: CoproductWitness | None = None, p: ProductWitness | None = None) -> Mor:
    """Assemble the morphism with the given components, both ways, and compare.

    The copair-of-pairs and pair-of-copairs assemblies are each forced by
    the witness equations; if they disagree the witnesses are inconsistent
    and we refuse to pick one.
    """
    cat = m.f11.dom.cat
    if c is None:
        c = cat.coproduct(m.f11.dom, m.f12.dom)
    if p is None:
        p = cat.product(m.f11.cod, m.f21.cod)
    by_cols = copair(c, pair(p, m.f11, m.f21), pair(p, m.f12, m.f22))
    by_rows = pair(p, copair(c, m.f11, m.f12), copair(c, m.f21, m.f22))
    if not equal(by_cols, by_rows):
        note = cat.first_difference(by_cols, by_rows) or "payloads differ"
        raise InternalAgreementFailure(
            f"matrix assembly orders disagree: {note}"
        )
    return by_cols


def verify_product_witness(
    p: ProductWitness,
    probes: Iterable[Obj],
    rng: random.Random | None = None,
    samples: int = 2,
    enum_cap: int = 512,
) -> CheckResult:
    """Check p against the universal property, probing from the given objects.

    Enumerable homsets get exhaustive uniqueness and existence loops;
    otherwise a few seeded random probes stand in.
    """
    return _verify_universal(p, False, probes, rng, samples, enum_cap)


def verify_coproduct_witness(
    c: CoproductWitness,
    probes: Iterable[Obj],
    rng: random.Random | None = None,
    samples: int = 2,
    enum_cap: int = 512,
) -> CheckResult:
    """Dual of verify_product_witness: probe morphisms out of the apex."""
    return _verify_universal(c, True, probes, rng, samples, enum_cap)


def _verify_universal(
    wit: ProductWitness | CoproductWitness,
    dual: bool,
    probes: Iterable[Obj],
    rng: random.Random | None,
    samples: int,
    enum_cap: int,
) -> CheckResult:
    """One body for both universal properties.

    dual turns every homset around (morphisms out of the apex instead of
    into it) and composes the legs on the other side.
    """
    cat = wit.apex.cat
    rng = rng or random.Random(0)
    if dual:
        kind, names, legs = "coproduct", ("in1", "in2"), (wit.in1, wit.in2)
        ident = "[in1,in2]=id"
    else:
        kind, names, legs = "product", ("pi1", "pi2"), (wit.pi1, wit.pi2)
        ident = "<pi1,pi2>=id"

    def hom(w: Obj, x: Obj) -> tuple[Obj, Obj]:
        return (x, w) if dual else (w, x)

    def leg(k: int, h: Mor) -> Mor:
        return compose(h, legs[k]) if dual else compose(legs[k], h)

    checks = [equation(ident, wit.mediate(*legs), identity(wit.apex))]
    for w in probes:
        wname = cat.format_obj(w)
        homs = cat.enumerate_homset(*hom(w, wit.apex), cap=enum_cap)
        if homs is not None:
            for i, h in enumerate(homs):
                m = wit.mediate(leg(0, h), leg(1, h))
                checks.append(equation(f"uniq[{wname}#{i}]", m, h))
        else:
            for i in range(samples):
                h = cat.random_morphism(rng, *hom(w, wit.apex))
                if h is None:
                    break
                m = wit.mediate(leg(0, h), leg(1, h))
                checks.append(equation(f"uniq-probe[{wname}#{i}]", m, h))
        fs = cat.enumerate_homset(*hom(w, wit.left), cap=enum_cap)
        gs = cat.enumerate_homset(*hom(w, wit.right), cap=enum_cap)
        if fs is not None and gs is not None and len(fs) * len(gs) <= enum_cap:
            for i, (f, g) in enumerate(itertools.product(fs, gs)):
                m = wit.mediate(f, g)
                checks.append(equation(f"exist-{names[0]}[{wname}#{i}]", leg(0, m), f))
                checks.append(equation(f"exist-{names[1]}[{wname}#{i}]", leg(1, m), g))
        else:
            for i in range(samples):
                f = cat.random_morphism(rng, *hom(w, wit.left))
                g = cat.random_morphism(rng, *hom(w, wit.right))
                if f is None or g is None:
                    break
                m = wit.mediate(f, g)
                checks.append(equation(f"exist-{names[0]}-probe[{wname}#{i}]", leg(0, m), f))
                checks.append(equation(f"exist-{names[1]}-probe[{wname}#{i}]", leg(1, m), g))
    return CheckResult(f"{kind}({cat.format_obj(wit.left)},{cat.format_obj(wit.right)})", tuple(checks))
