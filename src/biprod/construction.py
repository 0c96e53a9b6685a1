"""The main construction: products and coproducts merge into biproducts.

Everything here is computed inside a concrete instance and certified as
it is built.  The route:

  1. zero_object / zero_map: tensoring the initial object with the
     terminal one gives an object that is both, so every homset gets a
     distinguished zero morphism.
  2. star_map / y_map: the interleaving map from a coproduct of products
     of tensors to a product of coproducts of tensors.  star_map builds
     it entrywise; y_map builds an isomorphism with the same type out of
     the four distributivity isos.  verify_interchange confirms they are
     one and the same map, which is what makes the interleaving
     invertible.
  3. t_map / t_inverse: the special case (a x a)+(b x b) -> (a+b) x (a+b),
     inverted by conjugating y_map at the tensor unit with the right-unit
     isos.
  4. idempotents / c_map / biproduct: splitting a pair of matching
     idempotents through t yields the canonical map a+b -> a x b and its
     inverse, so the coproduct carries projections satisfying the
     biproduct equations.
  5. hom_add / verify_semiadditive: with c_map invertible each homset
     gets a commutative-monoid addition that composition respects.

zero_object, zero_map, t_inverse, c_map, the diagonal behind hom_add and
_grid keep their results in the memo of the instance they were built in
(kernel.per_instance), as do monoidal's certified distributors dist_prod
and dist_coprod and the instances' product and coproduct witnesses, so
each result lives exactly as long as its instance.  _grid assembles the
interleaving map of four corner objects, with both from_matrix orders,
once per instance; each of their pairs and copairs is re-checked the
first time the instance sees its value (structure.assemble), and every
round trip InversePair.certify checks is kept by value the same way.
star_map and t_map read the grid, and every quadruple of star_map with
the same tensor corners shares it.
Sums are memoized only within one verify_semiadditive call; hom_add
itself recomputes every sum.  That call keys its sums by pairs of
morphisms, which are interned and hash by identity, so each distinct sum
is computed once per call.  The bilinearity laws' composites need no
table of their own: compose keeps every composite in the instance's
memo by the same pair of identities (kernel.compose).

Builders certify with CheckResult.require() and raise WitnessInvalid on
the first failed equation; the verify_* functions return their own
equations but raise when a witness they build on fails.  Nothing here
catches an error: the command line's cli._guard alone folds one into a
failed record.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator

from .errors import DomainMismatch
from .kernel import (
    CheckResult,
    EquationCheck,
    Frozen,
    InversePair,
    Mor,
    Obj,
    compose,
    equation,
    identity,
    per_instance,
)
from .monoidal import dist_coprod, dist_prod, nullary_coprod, nullary_prod, require_nullary
from .structure import Mat2, copair, from_matrix, matrix_of, pair, plus_map, times_map


class ZeroWitness(Frozen):
    __slots__ = ("obj", "to_terminal", "from_initial", "one_to_zero")


class BiproductWitness(Frozen):
    __slots__ = ("apex", "in1", "in2", "pr1", "pr2", "mixed_iso", "equations")


@per_instance
def zero_object(inst) -> ZeroWitness:
    """Certify that (initial @ terminal) is a zero object of the instance."""
    require_nullary(inst)
    z = inst.tensor_obj(inst.initial, inst.terminal)
    to_terminal = nullary_prod(inst.initial)
    from_initial = nullary_coprod(inst.terminal)
    one_to_zero = compose(from_initial.bwd, to_terminal.bwd)
    zero_to_one = inst.bang(inst.initial)
    CheckResult(
        "zero_object", (equation("bang=cobang", zero_to_one, inst.cobang(inst.terminal)),)
    ).require()
    InversePair.certify(zero_to_one, one_to_zero, context="zero_object: terminal<->initial")
    return ZeroWitness(z, to_terminal, from_initial, one_to_zero)


@per_instance
def zero_map(a: Obj, b: Obj) -> Mor:
    """The composite a -> terminal -> initial -> b."""
    inst = a.cat
    zw = zero_object(inst)
    return compose(inst.cobang(b), compose(zw.one_to_zero, inst.bang(a)))


class _Grid(Frozen):
    """The interleaving square with corners x11..x22, certified once.

    The domain is (x11 x x12) + (x21 x x22), the codomain is
    (x11 + x21) x (x12 + x22).  corners holds component (j,k), which is
    in_k . pi_j, and map is the morphism with those components.
    """

    __slots__ = ("c_dom", "p_cod", "corners", "map")


@per_instance
def _grid(x11: Obj, x12: Obj, x21: Obj, x22: Obj) -> _Grid:
    cat = x11.cat
    p1 = cat.product(x11, x12)
    p2 = cat.product(x21, x22)
    c1 = cat.coproduct(x11, x21)
    c2 = cat.coproduct(x12, x22)
    c_dom = cat.coproduct(p1.apex, p2.apex)
    p_cod = cat.product(c1.apex, c2.apex)
    corners = Mat2(
        compose(c1.in1, p1.pi1),
        compose(c1.in2, p2.pi1),
        compose(c2.in1, p1.pi2),
        compose(c2.in2, p2.pi2),
    )
    return _Grid(c_dom, p_cod, corners, from_matrix(corners))


def _star_grid(a1: Obj, a2: Obj, b1: Obj, b2: Obj) -> _Grid:
    tensor_obj = a1.cat.tensor_obj
    return _grid(
        tensor_obj(a1, b1), tensor_obj(a1, b2), tensor_obj(a2, b1), tensor_obj(a2, b2)
    )


def star_map(a1: Obj, a2: Obj, b1: Obj, b2: Obj) -> Mor:
    """The interleaving map assembled entrywise: component (j,k) is in_k . pi_j.

    Runs ((a1@b1) x (a1@b2)) + ((a2@b1) x (a2@b2))
      -> ((a1@b1) + (a2@b1)) x ((a1@b2) + (a2@b2)).
    """
    return _star_grid(a1, a2, b1, b2).map


def y_map(a1: Obj, a2: Obj, b1: Obj, b2: Obj) -> InversePair:
    """The same interleaving built as a certified iso from distributivity.

    Four stages: undistribute each summand, distribute the coproduct over
    the tensor, distribute the tensor over the product, undistribute each
    factor.  The inverse is the reverse composite of the stage inverses.
    """
    cat = a1.cat
    pb = cat.product(b1, b2)
    cab = cat.coproduct(a1, a2)
    dp1 = dist_prod(a1, b1, b2)
    dp2 = dist_prod(a2, b1, b2)
    dmid_co = dist_coprod(a1, a2, pb.apex)
    dmid_pr = dist_prod(cab.apex, b1, b2)
    dc1 = dist_coprod(a1, a2, b1)
    dc2 = dist_coprod(a1, a2, b2)
    stage1 = plus_map(dp1.bwd, dp2.bwd)
    stage4 = times_map(dc1.bwd, dc2.bwd)
    fwd = compose(stage4, compose(dmid_pr.fwd, compose(dmid_co.fwd, stage1)))
    bwd = compose(
        plus_map(dp1.fwd, dp2.fwd),
        compose(dmid_co.bwd, compose(dmid_pr.bwd, times_map(dc1.fwd, dc2.fwd))),
    )
    ctx = f"y({a1.name},{a2.name},{b1.name},{b2.name})"
    return InversePair.certify(fwd, bwd, context=ctx)


# one label per Mat2 entry (j, k); a Mat2 iterates its entries in this order
_INTERCHANGE_LABELS = tuple(f"pi{j}*y*i{k}=i{k}*pi{j}" for j in (1, 2) for k in (1, 2))


def verify_interchange(a1: Obj, a2: Obj, b1: Obj, b2: Obj) -> CheckResult:
    """Check that the distributivity route equals the entrywise interleaving.

    One equation against star_map, then each of the four components of the
    iso read off independently against in_k . pi_j.  A witness this builds
    on that fails its own equations (a distributor, a pair or copair
    re-check) raises WitnessInvalid instead of giving a result.
    """
    y = y_map(a1, a2, b1, b2)
    g = _star_grid(a1, a2, b1, b2)
    checks = [equation("y=star", y.fwd, g.map)]
    m = matrix_of(y.fwd, g.c_dom, g.p_cod)
    for label, entry, corner in zip(_INTERCHANGE_LABELS, m, g.corners):
        checks.append(equation(label, entry, corner))
    return CheckResult("interchange", tuple(checks))


def t_map(a: Obj, b: Obj) -> Mor:
    """The interleaving at a pair: (a x a) + (b x b) -> (a+b) x (a+b)."""
    return _grid(a, a, b, b).map


@per_instance
def t_inverse(a: Obj, b: Obj) -> InversePair:
    """Invert t_map by conjugating the interleaving iso at the tensor unit.

    The conjugate must coincide with t_map on the nose; anything else
    means the unit isos and the distributors disagree, so we refuse.
    The certificate lists that equation first, then both round trips.
    """
    cat = a.cat
    y = y_map(a, b, cat.unit, cat.unit)
    ra = cat.rho(a)
    rb = cat.rho(b)
    into = plus_map(times_map(ra.bwd, ra.bwd), times_map(rb.bwd, rb.bwd))
    outof = times_map(plus_map(ra.fwd, rb.fwd), plus_map(ra.fwd, rb.fwd))
    conj = compose(outof, compose(y.fwd, into))
    t = t_map(a, b)
    ctx = f"t_inverse({a.name},{b.name})"
    direct = CheckResult(ctx, (equation("conjugate=direct", conj, t),)).require()
    bwd = compose(
        plus_map(times_map(ra.fwd, ra.fwd), times_map(rb.fwd, rb.fwd)),
        compose(y.bwd, times_map(plus_map(ra.bwd, rb.bwd), plus_map(ra.bwd, rb.bwd))),
    )
    trips = InversePair.certify(t, bwd, context=ctx).equations
    return InversePair(t, bwd, CheckResult(ctx, direct.details + trips.details))


def _splitting(a: Obj, b: Obj) -> tuple[Mor, Mor, Mor, Mor]:
    """The maps that split e and e' through a+b and a x b.

    s: a+b -> (a x a)+(b x b) keeps the coordinate named by the summand,
    r: (a x a)+(b x b) -> a+b projects it back out, i: a x b -> (a+b) x (a+b)
    injects each coordinate into its summand, q projects it back out.
    Then e = s.r, e' = i.q, c = q.t.s and c^-1 = r.t^-1.i.
    """
    cat = a.cat
    pa = cat.product(a, a)
    pb = cat.product(b, b)
    cab = cat.coproduct(a, b)
    s = plus_map(pair(pa, identity(a), zero_map(a, a)), pair(pb, zero_map(b, b), identity(b)))
    r = plus_map(pa.pi1, pb.pi2)
    i = times_map(cab.in1, cab.in2)
    q = times_map(
        copair(cab, identity(a), zero_map(b, a)), copair(cab, zero_map(a, b), identity(b))
    )
    return s, r, i, q


def idempotents(a: Obj, b: Obj) -> tuple[Mor, Mor]:
    """The matching idempotents on (a x a)+(b x b) and (a+b) x (a+b).

    The first keeps the coordinate named by the summand, the second keeps
    the summand named by the coordinate.  Both are checked idempotent.
    """
    s, r, i, q = _splitting(a, b)
    e = compose(s, r)
    e_prime = compose(i, q)
    for label, m in (("e", e), ("e'", e_prime)):
        CheckResult(label, (equation("m*m=m", compose(m, m), m),)).require()
    return e, e_prime


def verify_intertwining(a: Obj, b: Obj) -> CheckResult:
    """Check t carries the summand idempotent to the coordinate idempotent.

    Beyond t*e = e'*t, both composites are decomposed into their four
    components and matched against the diagonal picture: identities on
    the matching corners, zero maps off them.  A failed witness underneath
    (the grid, the idempotents, a zero map) raises WitnessInvalid.
    """
    g = _grid(a, a, b, b)
    t = g.map
    e, e_prime = idempotents(a, b)
    te = compose(t, e)
    et = compose(e_prime, t)
    want = {
        (1, 1): g.corners.f11,
        (1, 2): zero_map(g.c_dom.right, g.p_cod.left),
        (2, 1): zero_map(g.c_dom.left, g.p_cod.right),
        (2, 2): g.corners.f22,
    }
    checks = [equation("t*e=e'*t", te, et)]
    for tag, f in (("t*e", te), ("e'*t", et)):
        for j, k, entry in matrix_of(f, g.c_dom, g.p_cod).entries():
            checks.append(equation(f"{tag}[{j},{k}]", entry, want[(j, k)]))
    return CheckResult("intertwining", tuple(checks))


def canonical_mixed_map(a: Obj, b: Obj) -> Mor:
    """The matrix (id, 0 / 0, id) as a morphism a+b -> a x b."""
    return from_matrix(
        Mat2(identity(a), zero_map(b, a), zero_map(a, b), identity(b))
    )


@per_instance
def c_map(a: Obj, b: Obj) -> InversePair:
    """The certified iso a+b -> a x b obtained by splitting through t.

    Forward: embed a+b into the summand side of t along the kept
    coordinates, apply t, project the coordinate side back down.
    Backward: the same path through t_inverse.
    """
    ti = t_inverse(a, b)
    s, r, i, q = _splitting(a, b)
    fwd = compose(q, compose(ti.fwd, s))
    bwd = compose(r, compose(ti.bwd, i))
    return InversePair.certify(fwd, bwd, context=f"c({a.name},{b.name})")


def biproduct(a: Obj, b: Obj) -> BiproductWitness:
    """Equip the coproduct of a and b with certified biproduct projections.

    The witness keeps the five equations it was certified by: the mixed
    iso against the canonical matrix, and pr_j . in_k against id or 0.
    iso=canonical comes first, so it is the failure raised when it fails.
    """
    cat = a.cat
    c = c_map(a, b)
    cab = cat.coproduct(a, b)
    pab = cat.product(a, b)
    pr1 = compose(pab.pi1, c.fwd)
    pr2 = compose(pab.pi2, c.fwd)
    res = CheckResult(
        f"biproduct({a.name},{b.name})",
        (
            equation("iso=canonical", c.fwd, canonical_mixed_map(a, b)),
            equation("pr1*in1=id", compose(pr1, cab.in1), identity(a)),
            equation("pr1*in2=0", compose(pr1, cab.in2), zero_map(b, a)),
            equation("pr2*in1=0", compose(pr2, cab.in1), zero_map(a, b)),
            equation("pr2*in2=id", compose(pr2, cab.in2), identity(b)),
        ),
    )
    return BiproductWitness(cab.apex, cab.in1, cab.in2, pr1, pr2, c, res.require())


@per_instance
def _diagonal(a: Obj) -> Mor:
    """The codiagonal-ready map a -> a+a through the mixed iso."""
    cat = a.cat
    paa = cat.product(a, a)
    return compose(c_map(a, a).bwd, pair(paa, identity(a), identity(a)))


def hom_add(f: Mor, g: Mor) -> Mor:
    """Addition on a homset: split the pair (f,g) through a+a."""
    if f.dom is not g.dom or f.cod is not g.cod:
        raise DomainMismatch("can only add parallel morphisms")
    cat = f.dom.cat
    caa = cat.coproduct(f.dom, f.dom)
    return compose(copair(caa, f, g), _diagonal(f.dom))


def _linearity(
    groups: dict, pre: bool, add: Callable[[Mor, Mor], Mor]
) -> Iterator[EquationCheck]:
    """h after a sum (before it, if pre) equals the sum of the composites with h.

    Each composite goes through compose, whose memo keeps it per instance
    by the pair of morphisms; on_f[k][i] is h_k with the summand f_i, built
    once per pair of homsets.
    """

    def on(h: Mor, m: Mor) -> Mor:
        return compose(m, h) if pre else compose(h, m)

    for (a, b), fs in groups.items():
        for (x, y), hs in groups.items():
            if (y is not a) if pre else (x is not b):
                continue
            at = "->".join(o.name for o in ((x, a, b) if pre else (a, b, y)))
            on_f = [[on(h, f) for f in fs] for h in hs]
            for (i, f), (j, g) in itertools.product(list(enumerate(fs)), repeat=2):
                s = add(f, g)
                for k, h in enumerate(hs):
                    label = f"{'pre' if pre else 'post'}-linear[{at}#{i},{j};{k}]"
                    yield equation(label, on(h, s), add(on_f[k][i], on_f[k][j]))


def verify_semiadditive(sample: Iterable[Mor]) -> CheckResult:
    """Check commutative-monoid and bilinearity laws for hom_add on a sample.

    Laws quantify over the sample only: pass exhaustive homsets to make
    this a proof for those objects, or a random draw to spot-check.
    Associativity runs over ordered triples within each homset;
    bilinearity runs over pairs of homsets that share an endpoint.

    The laws repeat the same sums, so each is computed once per call,
    keyed by its pair of morphisms, and dropped when the call returns;
    the bilinearity composites are kept by compose's own memo.
    """
    sums: dict[tuple[Mor, Mor], Mor] = {}

    def add(f: Mor, g: Mor) -> Mor:
        s = sums.get((f, g))
        if s is None:
            s = sums[f, g] = hom_add(f, g)
        return s

    groups: dict[tuple[Obj, Obj], list[Mor]] = {}
    for f in sample:
        groups.setdefault((f.dom, f.cod), []).append(f)
    checks: list[EquationCheck] = []
    for (a, b), fs in groups.items():
        at = f"{a.name}->{b.name}"
        z = zero_map(a, b)
        for i, f in enumerate(fs):
            checks.append(equation(f"unit-r[{at}#{i}]", add(f, z), f))
            checks.append(equation(f"unit-l[{at}#{i}]", add(z, f), f))
        for (i, f), (j, g) in itertools.combinations(enumerate(fs), 2):
            checks.append(equation(f"comm[{at}#{i},{j}]", add(f, g), add(g, f)))
        for (i, f), (j, g), (k, h) in itertools.product(enumerate(fs), repeat=3):
            lhs, rhs = add(add(f, g), h), add(f, add(g, h))
            checks.append(equation(f"assoc[{at}#{i},{j},{k}]", lhs, rhs))
    for pre in (False, True):
        checks.extend(_linearity(groups, pre, add))
    return CheckResult("semiadditive", tuple(checks))
