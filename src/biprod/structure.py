"""Finite product and coproduct structure, and two-by-two matrix plumbing.

Witnesses carry the chosen structure for a pair of objects: the apex with
its projections or injections plus a mediate callable.  pair and copair
wrap mediate and re-check the defining equations on every direct call, so
a broken witness surfaces at the call site instead of corrupting later
algebra.

A morphism from a binary coproduct into a binary product is determined by
its four components; Mat2 holds such a square of components.  from_matrix
reassembles in both orders (copair of pairs, pair of copairs) and insists
the two agree; it alone types a square, refusing one whose columns or
rows do not line up with the DomainMismatch of the first pair or copair
that cannot be assembled.

assemble is the one policy for re-checking a structural pair or copair
once: one per_instance memo keyed by (f, g, witness), so each distinct
value is re-checked the first time its instance sees it, and a call that
raises stores nothing, so a broken witness fails at every use.  The six
assemblies of from_matrix, the canonical maps of monoidal's distributors
and the maps times_map and plus_map all go through it, so a value any of
them assembled is not checked again by another.  times_map and plus_map
are also kernel.per_instance, keyed by their morphism pair.  A direct
pair or copair call, hom_add and the construction's splitting maps
re-check every time.

draw is the one sampling policy every check takes its morphisms from:
every tuple across some homsets when there are at most ENUM_CAP, else
a bounded number of seeded random ones.  It keeps no homsets of its
own: it asks the instance for each listed homset, and the instance
decides what to memoize (see instances.matcat, instances.product and
instances.chain).

The universal-property check shares legs within one call: it keeps each
probe's two legs by morphism and each mediate by pair, so when both of
its loops enumerate, the existence loop reuses the maps the uniqueness
loop built, with every equation still checked, in the same order.
Comparisons between objects use `is`, as the kernel's do.
"""
from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainMismatch, WitnessInvalid
from .kernel import (
    CheckResult,
    Frozen,
    Mor,
    Obj,
    compose,
    equation,
    identity,
    per_instance,
)

# largest homset enumerated exhaustively, by the verifiers and by enumerate_homset
ENUM_CAP = 512
# seeded random probes per check where a homset is too large to enumerate
PROBE_SAMPLES = 2


class ProductWitness(Frozen):
    __slots__ = ("left", "right", "apex", "pi1", "pi2", "mediate")


class CoproductWitness(Frozen):
    __slots__ = ("left", "right", "apex", "in1", "in2", "mediate")


def pair(p: ProductWitness, f: Mor, g: Mor) -> Mor:
    """Mediating morphism into p.apex, with its defining equations re-checked."""
    if f.dom is not g.dom:
        raise DomainMismatch(f"pair components start at {f.dom} and {g.dom}")
    if f.cod is not p.left or g.cod is not p.right:
        raise DomainMismatch(
            f"pair components end at {f.cod}, {g.cod}; witness expects {p.left}, {p.right}"
        )
    m = p.mediate(f, g)
    if m.dom is not f.dom or m.cod is not p.apex:
        raise WitnessInvalid("product mediate returned a morphism of the wrong type")
    CheckResult(
        "pair",
        (
            equation("pi1*m=f", compose(p.pi1, m), f),
            equation("pi2*m=g", compose(p.pi2, m), g),
        ),
    ).require()
    return m


def copair(c: CoproductWitness, f: Mor, g: Mor) -> Mor:
    """Mediating morphism out of c.apex, with its defining equations re-checked."""
    if f.cod is not g.cod:
        raise DomainMismatch(f"copair components end at {f.cod} and {g.cod}")
    if f.dom is not c.left or g.dom is not c.right:
        raise DomainMismatch(
            f"copair components start at {f.dom}, {g.dom}; witness expects {c.left}, {c.right}"
        )
    m = c.mediate(f, g)
    if m.dom is not c.apex or m.cod is not f.cod:
        raise WitnessInvalid("coproduct mediate returned a morphism of the wrong type")
    CheckResult(
        "copair",
        (
            equation("m*in1=f", compose(m, c.in1), f),
            equation("m*in2=g", compose(m, c.in2), g),
        ),
    ).require()
    return m


@per_instance
def assemble(f: Mor, g: Mor, wit: ProductWitness | CoproductWitness) -> Mor:
    """pair(wit, f, g) or copair(wit, f, g), by wit's kind, checked once per value per instance.

    The morphisms come first, so per_instance finds their instance; the
    witness takes part in the key by identity, as the instance memoizes it.
    """
    return (copair if isinstance(wit, CoproductWitness) else pair)(wit, f, g)


@per_instance
def times_map(f: Mor, g: Mor) -> Mor:
    """The product of two morphisms, acting componentwise."""
    cat = f.dom.cat
    pd = cat.product(f.dom, g.dom)
    pc = cat.product(f.cod, g.cod)
    return assemble(compose(f, pd.pi1), compose(g, pd.pi2), pc)


@per_instance
def plus_map(f: Mor, g: Mor) -> Mor:
    """The coproduct of two morphisms, acting on each summand."""
    cat = f.dom.cat
    cd = cat.coproduct(f.dom, g.dom)
    cc = cat.coproduct(f.cod, g.cod)
    return assemble(compose(cc.in1, f), compose(cc.in2, g), cd)


class Mat2(NamedTuple):
    """Components of a morphism from a binary coproduct into a binary product.

    Entry (j, k) goes from the k-th summand to the j-th factor, so the
    first index picks the row and the second the column.  A Mat2 is not
    checked when built: from_matrix refuses a square whose columns do not
    share a domain or whose rows do not share a codomain, through the
    DomainMismatch of the pair or copair that cannot be assembled.
    """

    f11: Mor
    f12: Mor
    f21: Mor
    f22: Mor

    def entries(self) -> Iterable[tuple[int, int, Mor]]:
        yield 1, 1, self.f11
        yield 1, 2, self.f12
        yield 2, 1, self.f21
        yield 2, 2, self.f22


def matrix_of(f: Mor, c: CoproductWitness, p: ProductWitness) -> Mat2:
    """Read off the four components of f: c.apex -> p.apex."""
    if f.dom is not c.apex or f.cod is not p.apex:
        raise DomainMismatch(f"morphism {f.dom} -> {f.cod} does not run {c.apex} -> {p.apex}")
    col1, col2 = compose(f, c.in1), compose(f, c.in2)
    return Mat2(
        f11=compose(p.pi1, col1),
        f12=compose(p.pi1, col2),
        f21=compose(p.pi2, col1),
        f22=compose(p.pi2, col2),
    )


def from_matrix(m: Mat2) -> Mor:
    """Assemble the morphism with the given components, both ways, and compare.

    The domain is the instance's coproduct of the columns' domains and the
    codomain its product of the rows' codomains.  The copair-of-pairs and
    pair-of-copairs assemblies are each forced by those witnesses'
    equations; if they disagree the witnesses are inconsistent and we
    refuse to pick one.
    """
    cat = m.f11.dom.cat
    c = cat.coproduct(m.f11.dom, m.f12.dom)
    p = cat.product(m.f11.cod, m.f21.cod)
    by_cols = assemble(assemble(m.f11, m.f21, p), assemble(m.f12, m.f22, p), c)
    by_rows = assemble(assemble(m.f11, m.f12, c), assemble(m.f21, m.f22, c), p)
    CheckResult("from_matrix", (equation("cols=rows", by_cols, by_rows),)).require()
    return by_cols


def verify_product_witness(
    p: ProductWitness, probes: Iterable[Obj], rng: random.Random
) -> CheckResult:
    """Check p against the universal property, probing from the given objects.

    The uniqueness and existence loops take their morphisms from draw:
    all of them where ENUM_CAP allows, otherwise PROBE_SAMPLES seeded
    random probes, labelled -probe.
    """
    return _verify_universal(p, False, probes, rng)


def verify_coproduct_witness(
    c: CoproductWitness, probes: Iterable[Obj], rng: random.Random
) -> CheckResult:
    """Dual of verify_product_witness: probe morphisms out of the apex."""
    return _verify_universal(c, True, probes, rng)


def _verify_universal(
    wit: ProductWitness | CoproductWitness,
    dual: bool,
    probes: Iterable[Obj],
    rng: random.Random,
) -> CheckResult:
    """One body for both universal properties.

    dual turns every homset around (morphisms out of the apex instead of
    into it) and composes the legs on the other side.
    """
    cat = wit.apex.cat
    if dual:
        kind, names, legs = "coproduct", ("in1", "in2"), (wit.in1, wit.in2)
        ident = "[in1,in2]=id"
    else:
        kind, names, legs = "product", ("pi1", "pi2"), (wit.pi1, wit.pi2)
        ident = "<pi1,pi2>=id"

    def hom(w: Obj, x: Obj) -> tuple[Obj, Obj]:
        return (x, w) if dual else (w, x)

    leg1, leg2 = legs

    def split(h: Mor) -> tuple[Mor, Mor]:
        if dual:
            return compose(h, leg1), compose(h, leg2)
        return compose(leg1, h), compose(leg2, h)

    # the uniqueness loop keeps each morphism's legs and each pair's
    # mediate; the existence loop reads them back, so when both loops
    # enumerate, it computes none of them again.  A morphism's ends keep
    # probes apart, so one memo serves the whole call.  legs_of stays though
    # compose memoizes each leg: reading the legs back through compose made
    # the suite-chain workload 2.6-2.9% slower (CPython 3.11, Xeon).
    legs_of: dict = {}
    mediated: dict = {}
    checks = [equation(ident, wit.mediate(*legs), identity(wit.apex))]
    for w in probes:
        wname = w.name
        homs, exhaustive = draw(cat, rng, [hom(w, wit.apex)], PROBE_SAMPLES)
        probe = "" if exhaustive else "-probe"
        for i, (h,) in enumerate(homs):
            hl = legs_of[h] = split(h)
            m = mediated[hl] = wit.mediate(*hl)
            checks.append(equation(f"uniq{probe}[{wname}#{i}]", m, h))
        pairs, exhaustive = draw(cat, rng, [hom(w, wit.left), hom(w, wit.right)], PROBE_SAMPLES)
        probe = "" if exhaustive else "-probe"
        for i, fg in enumerate(pairs):
            m = mediated.get(fg)
            if m is None:
                m = wit.mediate(*fg)
            ml = legs_of.get(m)
            if ml is None:
                ml = split(m)
            checks.append(equation(f"exist-{names[0]}{probe}[{wname}#{i}]", ml[0], fg[0]))
            checks.append(equation(f"exist-{names[1]}{probe}[{wname}#{i}]", ml[1], fg[1]))
    return CheckResult(kind, tuple(checks))


def draw(cat, rng: random.Random, homsets: Sequence[tuple[Obj, Obj]], samples: int):
    """(tuples, exhaustive): a list of morphism tuples, one entry per (dom, cod) homset.

    Asks cat for every listed homset, in order, a repeated one as often as
    it is listed; memoizing a homset is the instance's business.  When all
    enumerate and there are at most ENUM_CAP tuples, every one comes back
    in itertools.product order and exhaustive is True.  Otherwise up to
    samples tuples are drawn from rng, homset by homset, stopping at the
    first that meets an empty homset.
    """
    lists = [cat.enumerate_homset(*hs) for hs in homsets]
    if None not in lists and math.prod(map(len, lists)) <= ENUM_CAP:
        return list(itertools.product(*lists)), True
    tuples = []
    for _ in range(samples):
        tup = []
        for dom, cod in homsets:
            tup.append(cat.random_morphism(rng, dom, cod))
        if None in tup:
            break
        tuples.append(tuple(tup))
    return tuples, False
