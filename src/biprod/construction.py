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
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import (
    CanonicalMismatch,
    CategoryError,
    DomainMismatch,
    InternalAgreementFailure,
    WitnessInvalid,
)
from .kernel import (
    CheckResult,
    EquationCheck,
    InversePair,
    Mor,
    Obj,
    compose,
    equal,
    equation,
    error_check,
    identity,
)
from .monoidal import dist_coprod, dist_prod, require_nullary, tensor_obj
from .structure import (
    CoproductWitness,
    Mat2,
    ProductWitness,
    copair,
    from_matrix,
    matrix_of,
    pair,
    plus_map,
    times_map,
)


@dataclass(frozen=True, eq=False)
class ZeroWitness:
    obj: Obj
    to_terminal: InversePair
    from_initial: InversePair
    one_to_zero: Mor


@dataclass(frozen=True, eq=False)
class BiproductWitness:
    left: Obj
    right: Obj
    apex: Obj
    in1: Mor
    in2: Mor
    pr1: Mor
    pr2: Mor
    mixed_iso: InversePair
    equations: CheckResult


def _from_error(exc: CategoryError) -> EquationCheck:
    """Fold a raised error into a single failed check for reporting."""
    if isinstance(exc, WitnessInvalid) and exc.result is not None:
        fails = exc.result.failures()
        if fails:
            f = fails[0]
            return EquationCheck(f"{exc.result.name}: {f.label}", f.lhs, f.rhs, False, f.note)
    return error_check(type(exc).__name__, str(exc))


@lru_cache(maxsize=None)
def zero_object(inst) -> ZeroWitness:
    """Certify that (initial @ terminal) is a zero object of the instance."""
    require_nullary(inst)
    z = tensor_obj(inst.initial.obj, inst.terminal.obj)
    to_terminal = InversePair.certify(
        inst.terminal.bang(z),
        inst.distributors.nullary_prod_inv(inst.initial.obj),
        context="zero_object: z<->terminal",
    )
    from_initial = InversePair.certify(
        inst.initial.cobang(z),
        inst.distributors.nullary_coprod_inv(inst.terminal.obj),
        context="zero_object: initial<->z",
    )
    one_to_zero = compose(from_initial.bwd, to_terminal.bwd)
    zero_to_one = inst.terminal.bang(inst.initial.obj)
    if not equal(zero_to_one, inst.initial.cobang(inst.terminal.obj)):
        raise InternalAgreementFailure("two spellings of the map initial -> terminal disagree")
    InversePair.certify(zero_to_one, one_to_zero, context="zero_object: terminal<->initial")
    return ZeroWitness(z, to_terminal, from_initial, one_to_zero)


@lru_cache(maxsize=None)
def zero_map(a: Obj, b: Obj) -> Mor:
    """The composite a -> terminal -> initial -> b."""
    inst = a.cat
    zw = zero_object(inst)
    return compose(inst.initial.cobang(b), compose(zw.one_to_zero, inst.terminal.bang(a)))


@dataclass(frozen=True, eq=False)
class _Grid:
    """The witnesses around an interleaving square with corners x11..x22.

    The domain is (x11 x x12) + (x21 x x22), the codomain is
    (x11 + x21) x (x12 + x22).
    """

    prods: tuple[ProductWitness, ProductWitness]
    cops: tuple[CoproductWitness, CoproductWitness]
    c_dom: CoproductWitness
    p_cod: ProductWitness

    def pi(self, j: int, k: int) -> Mor:
        p = self.prods[k - 1]
        return p.pi1 if j == 1 else p.pi2

    def inj(self, j: int, k: int) -> Mor:
        c = self.cops[j - 1]
        return c.in1 if k == 1 else c.in2

    def corner(self, j: int, k: int) -> Mor:
        return compose(self.inj(j, k), self.pi(j, k))


def _grid(x11: Obj, x12: Obj, x21: Obj, x22: Obj) -> _Grid:
    cat = x11.cat
    p1 = cat.product(x11, x12)
    p2 = cat.product(x21, x22)
    c1 = cat.coproduct(x11, x21)
    c2 = cat.coproduct(x12, x22)
    return _Grid(
        prods=(p1, p2),
        cops=(c1, c2),
        c_dom=cat.coproduct(p1.apex, p2.apex),
        p_cod=cat.product(c1.apex, c2.apex),
    )


def _interleave(g: _Grid) -> Mor:
    """The map of a grid assembled entrywise: component (j,k) is in_k . pi_j."""
    m = Mat2(g.corner(1, 1), g.corner(1, 2), g.corner(2, 1), g.corner(2, 2))
    return from_matrix(m, g.c_dom, g.p_cod)


def _star_grid(a1: Obj, a2: Obj, b1: Obj, b2: Obj) -> _Grid:
    return _grid(
        tensor_obj(a1, b1), tensor_obj(a1, b2), tensor_obj(a2, b1), tensor_obj(a2, b2)
    )


def star_map(a1: Obj, a2: Obj, b1: Obj, b2: Obj) -> Mor:
    """The interleaving map assembled entrywise: component (j,k) is in_k . pi_j.

    Runs ((a1@b1) x (a1@b2)) + ((a2@b1) x (a2@b2))
      -> ((a1@b1) + (a2@b1)) x ((a1@b2) + (a2@b2)).
    """
    return _interleave(_star_grid(a1, a2, b1, b2))


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
    names = ",".join(cat.format_obj(x) for x in (a1, a2, b1, b2))
    return InversePair.certify(fwd, bwd, context=f"y({names})")


def verify_interchange(a1: Obj, a2: Obj, b1: Obj, b2: Obj) -> CheckResult:
    """Check that the distributivity route equals the entrywise interleaving.

    One equation against star_map, then each of the four components of the
    iso read off independently against in_k . pi_j.
    """
    cat = a1.cat
    names = ",".join(cat.format_obj(x) for x in (a1, a2, b1, b2))
    name = f"interchange({names})"
    try:
        y = y_map(a1, a2, b1, b2)
        g = _star_grid(a1, a2, b1, b2)
        checks = [equation("y=star", y.fwd, _interleave(g))]
        for j in (1, 2):
            pj = g.p_cod.pi1 if j == 1 else g.p_cod.pi2
            for k in (1, 2):
                ik = g.c_dom.in1 if k == 1 else g.c_dom.in2
                lhs = compose(pj, compose(y.fwd, ik))
                checks.append(
                    equation(f"pi{j}*y*i{k}=i{k}*pi{j}", lhs, g.corner(j, k))
                )
        return CheckResult(name, tuple(checks))
    except CategoryError as exc:
        return CheckResult(name, (_from_error(exc),))


def t_map(a: Obj, b: Obj) -> Mor:
    """The interleaving at a pair: (a x a) + (b x b) -> (a+b) x (a+b)."""
    return _interleave(_grid(a, a, b, b))


@lru_cache(maxsize=None)
def t_inverse(a: Obj, b: Obj) -> InversePair:
    """Invert t_map by conjugating the interleaving iso at the tensor unit.

    The conjugate must coincide with t_map on the nose; anything else
    means the unit isos and the distributors disagree, so we refuse.
    """
    cat = a.cat
    unit = cat.tensor.unit
    y = y_map(a, b, unit, unit)
    ra = cat.tensor.rho(a)
    rb = cat.tensor.rho(b)
    into = plus_map(times_map(ra.bwd, ra.bwd), times_map(rb.bwd, rb.bwd))
    outof = times_map(plus_map(ra.fwd, rb.fwd), plus_map(ra.fwd, rb.fwd))
    conj = compose(outof, compose(y.fwd, into))
    t = t_map(a, b)
    agree = equation("conjugate=direct", conj, t)
    if not agree.ok:
        ctx = f"t_inverse({cat.format_obj(a)},{cat.format_obj(b)})"
        raise WitnessInvalid(
            f"{ctx}: conjugated interleaving differs from the direct one",
            CheckResult(ctx, (agree,)),
        )
    bwd = compose(
        plus_map(times_map(ra.fwd, ra.fwd), times_map(rb.fwd, rb.fwd)),
        compose(y.bwd, times_map(plus_map(ra.bwd, rb.bwd), plus_map(ra.bwd, rb.bwd))),
    )
    return InversePair.certify(
        t, bwd, context=f"t_inverse({cat.format_obj(a)},{cat.format_obj(b)})"
    )


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
        res = CheckResult(label, (equation("m*m=m", compose(m, m), m),))
        if not res.passed:
            raise WitnessInvalid(f"{label} is not idempotent", res)
    return e, e_prime


def verify_intertwining(a: Obj, b: Obj) -> CheckResult:
    """Check t carries the summand idempotent to the coordinate idempotent.

    Beyond t*e = e'*t, both composites are decomposed into their four
    components and matched against the diagonal picture: identities on
    the matching corners, zero maps off them.
    """
    cat = a.cat
    name = f"intertwining({cat.format_obj(a)},{cat.format_obj(b)})"
    try:
        g = _grid(a, a, b, b)
        t = _interleave(g)
        e, e_prime = idempotents(a, b)
        te = compose(t, e)
        et = compose(e_prime, t)
        want = {
            (1, 1): g.corner(1, 1),
            (1, 2): zero_map(g.c_dom.right, g.p_cod.left),
            (2, 1): zero_map(g.c_dom.left, g.p_cod.right),
            (2, 2): g.corner(2, 2),
        }
        checks = [equation("t*e=e'*t", te, et)]
        for tag, f in (("t*e", te), ("e'*t", et)):
            for j, k, entry in matrix_of(f, g.c_dom, g.p_cod).entries():
                checks.append(equation(f"{tag}[{j},{k}]", entry, want[(j, k)]))
        return CheckResult(name, tuple(checks))
    except CategoryError as exc:
        return CheckResult(name, (_from_error(exc),))


def canonical_mixed_map(a: Obj, b: Obj) -> Mor:
    """The matrix (id, 0 / 0, id) as a morphism a+b -> a x b."""
    return from_matrix(
        Mat2(identity(a), zero_map(b, a), zero_map(a, b), identity(b))
    )


@lru_cache(maxsize=None)
def c_map(a: Obj, b: Obj) -> InversePair:
    """The certified iso a+b -> a x b obtained by splitting through t.

    Forward: embed a+b into the summand side of t along the kept
    coordinates, apply t, project the coordinate side back down.
    Backward: the same path through t_inverse.
    """
    cat = a.cat
    ti = t_inverse(a, b)
    s, r, i, q = _splitting(a, b)
    fwd = compose(q, compose(ti.fwd, s))
    bwd = compose(r, compose(ti.bwd, i))
    ctx = f"c({cat.format_obj(a)},{cat.format_obj(b)})"
    return InversePair.certify(fwd, bwd, context=ctx)


def biproduct(a: Obj, b: Obj) -> BiproductWitness:
    """Equip the coproduct of a and b with certified biproduct projections.

    The witness keeps the five equations it was certified by: the mixed
    iso against the canonical matrix, and pr_j . in_k against id or 0.
    """
    cat = a.cat
    c = c_map(a, b)
    cab = cat.coproduct(a, b)
    pab = cat.product(a, b)
    pr1 = compose(pab.pi1, c.fwd)
    pr2 = compose(pab.pi2, c.fwd)
    res = CheckResult(
        f"biproduct({cat.format_obj(a)},{cat.format_obj(b)})",
        (
            equation("iso=canonical", c.fwd, canonical_mixed_map(a, b)),
            equation("pr1*in1=id", compose(pr1, cab.in1), identity(a)),
            equation("pr1*in2=0", compose(pr1, cab.in2), zero_map(b, a)),
            equation("pr2*in1=0", compose(pr2, cab.in1), zero_map(a, b)),
            equation("pr2*in2=id", compose(pr2, cab.in2), identity(b)),
        ),
    )
    canonical = res.details[0]
    if not canonical.ok:
        raise CanonicalMismatch(
            f"constructed iso a+b -> a x b is not the canonical matrix ({canonical.note})"
        )
    if not res.passed:
        raise WitnessInvalid("biproduct equations failed", res)
    return BiproductWitness(a, b, cab.apex, cab.in1, cab.in2, pr1, pr2, c, res)


def verify_biproduct(a: Obj, b: Obj) -> CheckResult:
    """Build the biproduct and report the equations it was certified by."""
    cat = a.cat
    try:
        return biproduct(a, b).equations
    except CategoryError as exc:
        name = f"biproduct({cat.format_obj(a)},{cat.format_obj(b)})"
        return CheckResult(name, (_from_error(exc),))


@lru_cache(maxsize=None)
def _diagonal(a: Obj) -> Mor:
    """The codiagonal-ready map a -> a+a through the mixed iso."""
    cat = a.cat
    paa = cat.product(a, a)
    return compose(c_map(a, a).bwd, pair(paa, identity(a), identity(a)))


def hom_add(f: Mor, g: Mor) -> Mor:
    """Addition on a homset: split the pair (f,g) through a+a."""
    if f.dom != g.dom or f.cod != g.cod:
        raise DomainMismatch("can only add parallel morphisms")
    cat = f.dom.cat
    caa = cat.coproduct(f.dom, f.dom)
    return compose(copair(caa, f, g), _diagonal(f.dom))


def verify_semiadditive(sample: Iterable[Mor]) -> CheckResult:
    """Check commutative-monoid and bilinearity laws for hom_add on a sample.

    Laws quantify over the sample only: pass exhaustive homsets to make
    this a proof for those objects, or a random draw to spot-check.
    Associativity runs over ordered triples within each homset;
    bilinearity runs over pairs of homsets that share an endpoint.
    """
    mors = list(sample)
    if not mors:
        return CheckResult("semiadditive", ())
    cat = mors[0].dom.cat
    groups: dict[tuple[Obj, Obj], list[Mor]] = {}
    for f in mors:
        groups.setdefault((f.dom, f.cod), []).append(f)
    checks: list[EquationCheck] = []
    for (a, b), fs in groups.items():
        at = f"{cat.format_obj(a)}->{cat.format_obj(b)}"
        z = zero_map(a, b)
        for i, f in enumerate(fs):
            checks.append(equation(f"unit-r[{at}#{i}]", hom_add(f, z), f))
            checks.append(equation(f"unit-l[{at}#{i}]", hom_add(z, f), f))
        for (i, f), (j, g) in itertools.combinations(enumerate(fs), 2):
            checks.append(equation(f"comm[{at}#{i},{j}]", hom_add(f, g), hom_add(g, f)))
        for (i, f), (j, g), (k, h) in itertools.product(enumerate(fs), repeat=3):
            checks.append(
                equation(
                    f"assoc[{at}#{i},{j},{k}]",
                    hom_add(hom_add(f, g), h),
                    hom_add(f, hom_add(g, h)),
                )
            )
    for (a, b), fs in groups.items():
        for (b2, c), hs in groups.items():
            if b2 != b:
                continue
            at = f"{cat.format_obj(a)}->{cat.format_obj(b)}->{cat.format_obj(c)}"
            for (i, f), (j, g) in itertools.product(list(enumerate(fs)), repeat=2):
                s = hom_add(f, g)
                for k, h in enumerate(hs):
                    checks.append(
                        equation(
                            f"post-linear[{at}#{i},{j};{k}]",
                            compose(h, s),
                            hom_add(compose(h, f), compose(h, g)),
                        )
                    )
    for (a, b), fs in groups.items():
        for (z2, a2), ws in groups.items():
            if a2 != a:
                continue
            at = f"{cat.format_obj(z2)}->{cat.format_obj(a)}->{cat.format_obj(b)}"
            for (i, f), (j, g) in itertools.product(list(enumerate(fs)), repeat=2):
                s = hom_add(f, g)
                for k, w in enumerate(ws):
                    checks.append(
                        equation(
                            f"pre-linear[{at}#{i},{j};{k}]",
                            compose(s, w),
                            hom_add(compose(f, w), compose(g, w)),
                        )
                    )
    return CheckResult("semiadditive", tuple(checks))
