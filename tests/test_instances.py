from __future__ import annotations

import ast
import functools
import gc
import itertools
import math
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biprod import cli, kernel
from biprod.construction import hom_add, verify_semiadditive
from biprod.errors import DomainMismatch, InvalidBounds, UnknownInstance, WitnessInvalid
from biprod.instances import (
    BOOLEANS,
    NATURALS,
    RATIONALS,
    ChainInstance,
    MatInstance,
    ProductInstance,
    finrel,
    mat_semiring,
    resolve,
)
from biprod.instances.semiring import (
    Semiring,
    hstack,
    identity_matrix,
    kronecker,
    matmul,
    vstack,
    zero_one_matrix,
)
from biprod.kernel import compose, identity
from biprod.monoidal import dist_prod, has_nullary
from biprod.structure import ENUM_CAP, CoproductWitness, ProductWitness, copair, draw, pair


def test_matmul_handles_empty_inner():
    out = matmul(NATURALS, ((), ()), (), inner=0, cols=3)
    assert out == ((0, 0, 0), (0, 0, 0))
    # a zero map through the zero object: every entry is the semiring's own zero
    for sr, _, _ in NAIVE_DOTS.values():
        for rows, cols in itertools.product(range(3), repeat=2):
            out = matmul(sr, ((),) * rows, (), inner=0, cols=cols)
            assert len(out) == rows
            assert all(len(row) == cols and all(v is sr.zero for v in row) for row in out)


def test_matmul_handles_empty_result():
    assert matmul(NATURALS, (), ((1, 2),), inner=1, cols=2) == ()
    assert matmul(NATURALS, ((1,), (2,)), ((),), inner=1, cols=0) == ((), ())


def test_stacking():
    assert hstack(((1,), (2,)), ((3,), (4,))) == ((1, 3), (2, 4))
    assert vstack(((1,),), ((2,),)) == ((1,), (2,))
    assert hstack((), ()) == ()
    assert vstack((), ()) == ()


def test_kronecker_frozen():
    assert kronecker(NATURALS, ((2,),), ((3,),)) == ((6,),)
    two = identity_matrix(NATURALS, 2)
    assert kronecker(NATURALS, two, ((5,),)) == ((5, 0), (0, 5))


def test_kronecker_empty_factor():
    assert kronecker(NATURALS, (), ((1,),)) == ()


def test_zero_one_matrix():
    # the inverse of the permutation sending 0->1, 1->2, 2->0
    inv = zero_one_matrix(NATURALS, 3, [1, 2, 0])
    assert inv == ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    # a projection 3 -> 2 and an injection 1 -> 3
    assert zero_one_matrix(NATURALS, 3, range(2)) == ((1, 0, 0), (0, 1, 0))
    assert zero_one_matrix(NATURALS, 1, [None, 0, None]) == ((0,), (1,), (0,))
    # no picks is a 0 x c matrix; picks into no columns are empty rows
    assert zero_one_matrix(NATURALS, 3, []) == ()
    assert zero_one_matrix(NATURALS, 0, []) == ()
    for n in range(4):
        assert zero_one_matrix(NATURALS, 0, [None] * n) == ((),) * n


def test_rational_arithmetic_is_exact():
    # a rational is its normalised (num, den) pair
    assert RATIONALS.add((1, 3), (1, 6)) == (1, 2)
    assert RATIONALS.mul((-2, 3), (3, 4)) == (-1, 2)
    assert RATIONALS.add((1, 2), (-1, 2)) == RATIONALS.zero == (0, 1)
    assert [RATIONALS.render(v) for v in ((0, 1), (5, 1), (-3, 2))] == ["0", "5", "-3/2"]
    # a 1 x n by n x 1 product is a dot product
    half, third = (((1, 2),),), (((1, 3),),)
    assert matmul(RATIONALS, half, third, inner=1, cols=1) == (((1, 6),),)
    assert matmul(RATIONALS, ((),), (), inner=0, cols=1) == (((0, 1),),)


def as_pair(x: Fraction) -> tuple[int, int]:
    return x.numerator, x.denominator


FRACTIONS = st.fractions(-50, 50, max_denominator=50)


def test_rational_arithmetic_returns_the_semirings_zero_and_one():
    # an interned payload keeps the entries it was first built with, so an
    # arithmetic 0 or 1 must be the very object matmul's shortcuts test for
    zero, one = RATIONALS.zero, RATIONALS.one
    assert RATIONALS.add((1, 2), (-1, 2)) is zero
    assert RATIONALS.mul((0, 1), (3, 4)) is zero
    assert RATIONALS.add((1, 2), (1, 2)) is one
    assert RATIONALS.mul((2, 3), (3, 2)) is one
    rows = matmul(RATIONALS, (((1, 2), (1, 2)),), (((1, 1),), ((1, 1),)), inner=2, cols=1)
    assert rows[0][0] is one


@settings(max_examples=200, deadline=None)
@given(x=FRACTIONS, y=FRACTIONS, scale=st.integers(1, 6), seed=st.integers(0, 2**32))
def test_rationals_agree_with_fractions(x, y, scale, seed):
    # add and mul give Fraction's value, normalised as Fraction normalises
    # (gcd 1, positive denominator), also from pairs that are not normalised
    px, py = as_pair(x), as_pair(y)
    for a, b in ((px, py), ((px[0] * scale, px[1] * scale), py)):
        assert RATIONALS.add(a, b) == as_pair(x + y)
        assert RATIONALS.mul(a, b) == as_pair(x * y)
        assert RATIONALS.add(b, a) == as_pair(x + y)
    assert RATIONALS.render(px) == str(x)
    # the sampler draws as Fraction(randint(-5, 5), randint(1, 5)) did, so
    # every seeded report is unchanged
    rng, old = random.Random(seed), random.Random(seed)
    for _ in range(5):
        assert RATIONALS.sample(rng) == as_pair(Fraction(old.randint(-5, 5), old.randint(1, 5)))


# The tropical semiring (min, +) on the naturals and infinity: its zero, inf,
# is truthy and its one, 0, is falsy, so only the semiring can say which
# entries are zero.
MIN_PLUS = Semiring(
    zero=math.inf,
    one=0,
    add=min,
    mul=lambda x, y: x + y,
    sample=lambda rng: rng.choice((math.inf, 0, 1, 2, 3)),
    carrier=None,
    render=str,
)

# Mostly zeros and ones, as in the structural matrices the construction
# multiplies.  The semiring's own zero and one objects take matmul's and
# kronecker's identity shortcuts; equal values that are other objects (a
# fresh (0, 1) or (1, 1) pair, float("inf"), 0.0) must take the general
# path.  Python interns the int and bool zeros and ones, so nat and bool
# have no others.  Per semiring, the values equal to its zero and those
# equal to its one:
ZERO_LIKE = {
    "nat": st.just(0),
    "rat": st.one_of(st.just(RATIONALS.zero), st.tuples(st.just(0), st.just(1))),
    "bool": st.just(False),
    "min-plus": st.one_of(st.just(math.inf), st.just(float("inf"))),
}
ONE_LIKE = {
    "nat": st.just(1),
    "rat": st.one_of(st.just(RATIONALS.one), st.tuples(st.just(1), st.just(1))),
    "bool": st.just(True),
    "min-plus": st.one_of(st.just(0), st.just(0.0)),
}
NAT_ENTRIES = st.one_of(st.just(0), st.just(0), st.just(1), st.integers(0, 5))
RAT_ENTRIES = st.one_of(
    ZERO_LIKE["rat"], ONE_LIKE["rat"], st.fractions(-5, 5, max_denominator=5).map(as_pair)
)
MIN_PLUS_ENTRIES = st.one_of(ZERO_LIKE["min-plus"], ONE_LIKE["min-plus"], st.integers(0, 5))
NAIVE_DOTS = {
    "nat": (NATURALS, NAT_ENTRIES, lambda xs, ys: sum(x * y for x, y in zip(xs, ys))),
    "rat": (
        RATIONALS,
        RAT_ENTRIES,
        lambda xs, ys: functools.reduce(RATIONALS.add, map(RATIONALS.mul, xs, ys), (0, 1)),
    ),
    "bool": (BOOLEANS, st.booleans(), lambda xs, ys: any(x and y for x, y in zip(xs, ys))),
    "min-plus": (
        MIN_PLUS,
        MIN_PLUS_ENTRIES,
        lambda xs, ys: min((x + y for x, y in zip(xs, ys)), default=math.inf),
    ),
}


def test_semirings_decide_what_is_zero():
    assert (MIN_PLUS.carrier, MIN_PLUS.render) == (None, str)
    # every identity entry is the semiring's own one or zero object, so
    # matmul's and kronecker's shortcuts recognise it
    for sr in (BOOLEANS, NATURALS, RATIONALS, MIN_PLUS):
        for n in range(5):
            eye = identity_matrix(sr, n)
            assert len(eye) == n and all(len(row) == n for row in eye)
            for i, j in itertools.product(range(n), repeat=2):
                assert eye[i][j] is (sr.one if i == j else sr.zero)
    # the identity matrix over min-plus is a left and right unit
    f = ((3, math.inf), (0, 1), (math.inf, 2))
    assert matmul(MIN_PLUS, identity_matrix(MIN_PLUS, 3), f, inner=3, cols=2) == f
    assert matmul(MIN_PLUS, f, identity_matrix(MIN_PLUS, 2), inner=2, cols=2) == f


def test_every_semiring_field_is_read():
    # a field no code reads is a value every semiring states for nothing:
    # each must be read as sr.<field> or <...>.sr.<field> in src/biprod
    read = set()
    for path in Path(kernel.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id == "sr" or (
                isinstance(owner, ast.Attribute) and owner.attr == "sr"
            ):
                read.add(node.attr)
    assert read == set(Semiring.__slots__)


def assert_zero_one(sr, payload, want):
    """payload equals want, and each entry is the semiring's own zero or one object."""
    assert payload == want
    for row in payload:
        for v in row:
            assert v is sr.zero or v is sr.one


@pytest.mark.parametrize("kind", sorted(NAIVE_DOTS))
def test_structural_payloads_hold_the_semirings_own_zero_and_one(kind):
    # the shortcuts in matmul and kronecker see only these objects in the
    # identities, legs and distributor the construction multiplies
    sr = NAIVE_DOTS[kind][0]
    inst = MatInstance(sr, 3, name=f"mat-{kind}")

    def eye(n):
        return tuple(tuple(sr.one if i == j else sr.zero for j in range(n)) for i in range(n))

    def zeros(rows, cols):
        return ((sr.zero,) * cols,) * rows

    for a in inst.objects():
        assert_zero_one(sr, identity(a).payload, eye(a.data))
    for a, b in itertools.product(inst.objects(), repeat=2):
        n, m = a.data, b.data
        p, c = inst.product(a, b), inst.coproduct(a, b)
        assert_zero_one(sr, p.pi1.payload, hstack(eye(n), zeros(n, m)))
        assert_zero_one(sr, p.pi2.payload, hstack(zeros(m, n), eye(m)))
        assert_zero_one(sr, c.in1.payload, vstack(eye(n), zeros(m, n)))
        assert_zero_one(sr, c.in2.payload, vstack(zeros(n, m), eye(m)))
    for a, b, c in itertools.product(inst.objects(2), repeat=3):
        an, bn, cn = a.data, b.data, c.data
        # basis (i, j) of a@(b+c) is basis j of b+c beside basis i of a; the
        # domain (a@b)+(a@c) lists every (i, j) with j < b, then the rest
        cod = [(i, j) for i in range(an) for j in range(bn + cn)]
        dom = [(i, j) for i in range(an) for j in range(bn)]
        dom += [(i, bn + j) for i in range(an) for j in range(cn)]
        want = tuple(tuple(sr.one if x == y else sr.zero for y in dom) for x in cod)
        assert_zero_one(sr, inst.prod_inv(a, b, c).payload, want)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(NAIVE_DOTS)), data=st.data())
def test_dot_skipping_zeros_equals_the_naive_sum(kind, data):
    sr, entries, naive = NAIVE_DOTS[kind]
    n = data.draw(st.integers(0, 8))
    xs = data.draw(st.lists(entries, min_size=n, max_size=n))
    ys = data.draw(st.lists(entries, min_size=n, max_size=n))
    # the dot product of xs and ys is the 1 x n by n x 1 matmul
    ((got,),) = matmul(sr, (tuple(xs),), tuple((y,) for y in ys), inner=n, cols=1)
    want = naive(xs, ys)
    assert got == want
    assert type(got) is type(want)


def assert_matmul_is_naive(sr, naive, a, b, inner, cols):
    """matmul(sr, a, b, inner, cols) equals the dense product, entry by entry and in type."""
    got = matmul(sr, a, b, inner=inner, cols=cols)
    # with inner == 0 every column is empty, and the naive dot gives zero
    b_cols = [tuple(row[j] for row in b) for j in range(cols)]
    want = tuple(tuple(naive(row, col) for col in b_cols) for row in a)
    assert got == want
    assert [type(v) for row in got for v in row] == [type(v) for row in want for v in row]


@settings(max_examples=50, deadline=None)
@given(
    kind=st.sampled_from(sorted(NAIVE_DOTS)),
    shape=st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    data=st.data(),
)
def test_matmul_equals_the_naive_product(kind, shape, data):
    sr, entries, naive = NAIVE_DOTS[kind]
    rows, inner, cols = shape
    a = tuple(tuple(data.draw(entries) for _ in range(inner)) for _ in range(rows))
    b = tuple(tuple(data.draw(entries) for _ in range(cols)) for _ in range(inner))
    assert_matmul_is_naive(sr, naive, a, b, inner, cols)


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(sorted(NAIVE_DOTS)), data=st.data())
def test_matmul_with_structural_factors_equals_the_naive_product(kind, data):
    # permutations and identity and zero blocks: the factors the construction multiplies
    sr, entries, naive = NAIVE_DOTS[kind]
    k, n, m = (data.draw(st.integers(0, 3)) for _ in range(3))
    perm = zero_one_matrix(sr, n, data.draw(st.permutations(range(n))))
    proj = zero_one_matrix(sr, k + n, range(k))  # (k+n) -> k
    inj = zero_one_matrix(sr, k, [*range(k), *[None] * n])  # k -> (k+n)
    block = vstack(proj, hstack(zero_one_matrix(sr, k, [None] * n), perm))  # I_k (+) perm
    x = tuple(tuple(data.draw(entries) for _ in range(m)) for _ in range(k + n))
    y = tuple(tuple(data.draw(entries) for _ in range(k + n)) for _ in range(m))
    for a, b, inner, cols in (
        (perm, perm, n, n),
        (block, x, k + n, m),
        (y, block, k + n, k + n),
        (proj, block, k + n, k + n),
        (block, inj, k + n, k),
        (inj, proj, k, k + n),
        (zero_one_matrix(sr, k + n, [None] * m), x, k + n, m),
        (y, zero_one_matrix(sr, k, [None] * (k + n)), k + n, k),
    ):
        assert_matmul_is_naive(sr, naive, a, b, inner, cols)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(NAIVE_DOTS)), data=st.data())
def test_matmul_with_a_selecting_left_factor_equals_the_naive_product(kind, data):
    # each row of a equals zero but for at most one entry, which equals one
    sr, entries, naive = NAIVE_DOTS[kind]
    rows, inner, cols = (data.draw(st.integers(0, 4)) for _ in range(3))
    pick = st.none() | st.integers(0, inner - 1) if inner else st.none()
    picks = [data.draw(pick) for _ in range(rows)]
    a = []
    for k in picks:
        row = [data.draw(ZERO_LIKE[kind]) for _ in range(inner)]
        if k is not None:
            row[k] = data.draw(ONE_LIKE[kind])
        a.append(tuple(row))
    b = tuple(tuple(data.draw(entries) for _ in range(cols)) for _ in range(inner))
    assert_matmul_is_naive(sr, naive, tuple(a), b, inner, cols)
    # where the one is the semiring's own, the row is b's, with no arithmetic
    got = matmul(sr, tuple(a), b, inner=inner, cols=cols)
    if all(k is None or row[k] is sr.one for k, row in zip(picks, a)):
        assert all(k is None or got_row is b[k] for k, got_row in zip(picks, got))


def assert_kronecker_is_naive(sr, naive, a, b, shape):
    """kronecker(sr, a, b) equals its definition on a and b of the given shape.

    Entry by entry and in type: shape is (a_rows, a_cols, b_rows, b_cols).
    """
    a_rows, a_cols, b_rows, b_cols = shape
    got = kronecker(sr, a, b)
    # entry ((i,k),(j,l)) is a[i][j] * b[k][l], the one-term dot product
    want = tuple(
        tuple(
            naive((a[i][j],), (b[k][l],)) for j in range(a_cols) for l in range(b_cols)
        )
        for i in range(a_rows)
        for k in range(b_rows)
    )
    assert got == want
    assert [type(v) for row in got for v in row] == [type(v) for row in want for v in row]


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(sorted(NAIVE_DOTS)),
    shape=st.tuples(*(st.integers(0, 3) for _ in range(4))),
    data=st.data(),
)
def test_kronecker_equals_the_naive_definition(kind, shape, data):
    sr, entries, naive = NAIVE_DOTS[kind]
    a_rows, a_cols, b_rows, b_cols = shape
    a = tuple(tuple(data.draw(entries) for _ in range(a_cols)) for _ in range(a_rows))
    b = tuple(tuple(data.draw(entries) for _ in range(b_cols)) for _ in range(b_rows))
    assert_kronecker_is_naive(sr, naive, a, b, shape)
    # the structural factors tensor_mor sees: identities and zero maps
    n = data.draw(st.integers(0, 3))
    for s in (identity_matrix(sr, n), zero_one_matrix(sr, n, [None] * n)):
        assert_kronecker_is_naive(sr, naive, s, b, (n, n, b_rows, b_cols))
        assert_kronecker_is_naive(sr, naive, a, s, (a_rows, a_cols, n, n))


# per semiring, entries other than its own zero and one objects: values
# equal to zero or one that are other objects, then a value equal to neither
OTHER_ENTRIES = {
    "nat": (2,),
    "rat": (tuple([0, 1]), tuple([1, 1]), (-3, 2)),
    "bool": (),
    "min-plus": (float("inf"), 0.0, 2),
}


@pytest.mark.parametrize("kind", sorted(NAIVE_DOTS))
def test_only_the_semirings_own_zero_and_one_take_the_shortcuts(kind):
    sr, _, naive = NAIVE_DOTS[kind]
    assert not any(v is sr.zero or v is sr.one for v in OTHER_ENTRIES[kind])
    values = (sr.zero, sr.one, *OTHER_ENTRIES[kind])
    for x, y in itertools.product(values, repeat=2):
        assert_kronecker_is_naive(sr, naive, ((x,),), ((y,),), (1, 1, 1, 1))
        assert_matmul_is_naive(sr, naive, ((x, y),), ((y,), (x,)), 2, 1)
        assert_matmul_is_naive(sr, naive, ((x,), (y,)), ((y, x),), 1, 2)


def test_every_stage_passes_over_min_plus(monkeypatch):
    # the construction never relies on Python truthiness: over a semiring
    # whose zero is truthy, every stage passes and hom_add is the entrywise min
    inst = MatInstance(MIN_PLUS, 2, name="mat-min-plus")
    monkeypatch.setattr(cli, "resolve", lambda selector, max_size: inst)
    report = cli.run_suite(cli.SuiteConfig(instance="mat-min-plus", max_size=2, samples=5))
    assert [c for c in report.checks if not c.passed] == []
    assert {c.suite for c in report.checks} == {s.name for s in cli.STAGES}
    rng = random.Random(3)
    for a, b in itertools.product(inst.objects(), repeat=2):
        for _ in range(10):
            f, g = inst.random_morphism(rng, a, b), inst.random_morphism(rng, a, b)
            total = hom_add(f, g)
            assert total == inst.native_add(f, g)
            assert total.payload == tuple(
                tuple(min(x, y) for x, y in zip(rf, rg)) for rf, rg in zip(f.payload, g.payload)
            )


def test_mat_identity_and_compose_on_empty_dims():
    rel = finrel(3)
    zero, two = rel.obj(0), rel.obj(2)
    assert identity(zero).payload == ()
    f = rel.mor(two, zero, ())
    g = rel.mor(zero, two, ((), ()))
    # through the empty object everything becomes the empty relation
    assert compose(g, f).payload == ((False, False), (False, False))


# Z/3, the integers mod 3: a finite carrier other than the booleans
MOD3 = Semiring(
    zero=0,
    one=1,
    add=lambda x, y: (x + y) % 3,
    mul=lambda x, y: x * y % 3,
    sample=lambda rng: rng.randrange(3),
    carrier=(0, 1, 2),
    render=str,
)


def naive_homset_payloads(sr, a, b):
    """Every b x a payload as one product over all a*b cells, cut into rows by index."""
    return [
        tuple(tuple(values[i * a + j] for j in range(a)) for i in range(b))
        for values in itertools.product(sr.carrier, repeat=a * b)
    ]


@pytest.mark.parametrize("sr, top", [(BOOLEANS, 4), (MOD3, 5)])
def test_mat_enumerate_homset_lists_the_naive_order(sr, top):
    # the order fixes every #i label and every seeded sample the reports take
    inst = MatInstance(sr, top, name="enum")
    for a, b in itertools.product(range(top + 1), repeat=2):
        if len(sr.carrier) ** (a * b) > ENUM_CAP:
            continue
        homs = inst.enumerate_homset(inst.obj(a), inst.obj(b))
        want = naive_homset_payloads(sr, a, b)
        assert len(homs) == len(want)
        for h, payload in zip(homs, want):
            assert h.dom is inst.obj(a) and h.cod is inst.obj(b)
            assert len(h.payload) == len(payload)
            for row, want_row in zip(h.payload, payload):
                assert len(row) == len(want_row)
                assert all(x is y for x, y in zip(row, want_row))


def test_mat_enumerate_homset_counts():
    rel = finrel(4)
    assert len(rel.enumerate_homset(rel.obj(2), rel.obj(2))) == 16
    assert len(rel.enumerate_homset(rel.obj(0), rel.obj(3))) == 1
    # 3 -> 3 has exactly ENUM_CAP relations, 3 -> 4 has 4096
    assert ENUM_CAP == 512
    assert len(rel.enumerate_homset(rel.obj(3), rel.obj(3))) == 512
    assert rel.enumerate_homset(rel.obj(3), rel.obj(4)) is None
    nat = mat_semiring("mat-nat", 3)
    assert nat.enumerate_homset(nat.obj(1), nat.obj(1)) is None


def test_mat_random_morphism_is_seeded(rng):
    import random

    rel = finrel(3)
    a, b = rel.obj(2), rel.obj(3)
    again = random.Random(0)
    assert rel.random_morphism(rng, a, b) == rel.random_morphism(again, a, b)


def test_mat_native_add_is_entrywise():
    nat = mat_semiring("mat-nat", 3)
    one = nat.obj(1)
    f = nat.mor(one, one, ((2,),))
    g = nat.mor(one, one, ((3,),))
    assert nat.native_add(f, g).payload == ((5,),)


def test_mat_objects_respect_bound():
    nat = mat_semiring("mat-nat", 3)
    assert [o.data for o in nat.objects()] == [0, 1, 2, 3]
    assert [o.data for o in nat.objects(2)] == [0, 1, 2]
    with pytest.raises(InvalidBounds, match="^max_dim must be nonnegative$"):
        MatInstance(BOOLEANS, -1, name="mat-bool")


def test_mat_format_mor_marks_empty():
    rel = finrel(3)
    assert "(empty 2x0)" in rel.format_mor(rel.mor(rel.obj(0), rel.obj(2), ((), ())))


def test_chain_hom_exists_only_upward():
    ch = ChainInstance(-5, 5)
    assert ch.hom(ch.obj(-1), ch.obj(4)).payload is None
    with pytest.raises(DomainMismatch):
        ch.hom(ch.obj(2), ch.obj(1))


def test_chain_min_max_structure():
    ch = ChainInstance(-5, 5)
    a, b = ch.obj(-2), ch.obj(3)
    assert ch.product(a, b).apex.data == -2
    assert ch.coproduct(a, b).apex.data == 3
    assert ch.tensor_obj(a, b).data == 1


def test_chain_objects_window():
    ch = ChainInstance(-5, 5)
    assert [o.data for o in ch.objects(2)] == [-2, -1, 0, 1, 2]
    assert len(ch.objects()) == 11
    with pytest.raises(DomainMismatch, match="^empty enumeration window$"):
        ChainInstance(1, 0)


def test_chain_enumerate():
    ch = ChainInstance(-5, 5)
    assert ch.enumerate_homset(ch.obj(0), ch.obj(1)) == (ch.hom(ch.obj(0), ch.obj(1)),)
    assert ch.enumerate_homset(ch.obj(1), ch.obj(0)) == ()
    # a homset of at most one map is built again, not memoized
    assert not ch.memo
    assert ch.random_morphism(None, ch.obj(1), ch.obj(0)) is None


def test_product_instance_componentwise_compose():
    pi = ProductInstance(finrel(2), ChainInstance(-2, 2))
    a = pi.pack(pi.left.obj(1), pi.right.obj(0))
    b = pi.pack(pi.left.obj(2), pi.right.obj(1))
    f = pi.pack_mor(
        pi.left.mor(pi.left.obj(1), pi.left.obj(2), ((True,), (False,))),
        pi.right.hom(pi.right.obj(0), pi.right.obj(1)),
    )
    assert f.dom == a and f.cod == b
    assert compose(identity(b), f) == f


def test_product_instance_formatting_and_difference():
    pi = ProductInstance(finrel(2), finrel(2))
    one = pi.pack(pi.left.obj(1), pi.right.obj(1))
    f = pi.pack_mor(
        pi.left.mor(pi.left.obj(1), pi.left.obj(1), ((True,),)),
        pi.right.mor(pi.right.obj(1), pi.right.obj(1), ((True,),)),
    )
    g = pi.pack_mor(
        pi.left.mor(pi.left.obj(1), pi.left.obj(1), ((True,),)),
        pi.right.mor(pi.right.obj(1), pi.right.obj(1), ((False,),)),
    )
    assert one.name == "1|1"
    assert pi.first_difference(f, g).startswith("right ")


def test_product_instance_nullary_requires_both():
    with_zero = ProductInstance(finrel(2), mat_semiring("mat-nat", 2))
    without = ProductInstance(finrel(2), ChainInstance(-2, 2))
    assert with_zero.terminal is not None
    assert without.terminal is None
    # each piece of structure exists exactly when both components have it
    expect_nullary = {
        "product:finrel+mat-nat": True,
        "product:finrel+z-chain": False,
        "product:z-chain+finrel": False,
        "product:finrel+product:mat-nat+finrel": True,
    }
    for selector, nullary in expect_nullary.items():
        pi = resolve(selector, 1)
        assert has_nullary(pi) is nullary
        for attr in ("terminal", "initial"):
            both = getattr(pi.left, attr) is not None and getattr(pi.right, attr) is not None
            assert (getattr(pi, attr) is not None) is both
        # the distributors lift always; bang, cobang and the nullary
        # distributors run only when both components have them
        x = pi.objects()[-1]
        assert pi.prod_inv(x, x, x).dom.cat is pi
        assert pi.coprod_inv(x, x, x).dom.cat is pi
        for name in ("bang", "cobang", "nullary_prod_inv", "nullary_coprod_inv"):
            if nullary:
                assert getattr(pi, name)(x).dom.cat is pi
            else:
                with pytest.raises(NotImplementedError):
                    getattr(pi, name)(x)


def test_product_instance_lifts_component_maps():
    # objects, morphisms and witnesses are the packed pairs of the
    # components' own
    for selector in ("product:finrel+product:mat-nat+finrel", "product:finrel+z-chain"):
        pi = resolve(selector, 1)
        left, right = pi.left, pi.right
        for attr in ("terminal", "initial", "unit"):
            lx, rx = getattr(left, attr), getattr(right, attr)
            packed = None if lx is None or rx is None else pi.pack(lx, rx)
            assert getattr(pi, attr) is packed
            # z-chain has no terminal or initial object; every instance has a unit
            assert (packed is None) is (attr != "unit" and selector.endswith("z-chain"))
        objs = pi.objects()
        rng, mediated = random.Random(3), 0
        for a, b in itertools.product(objs, repeat=2):
            (la, ra), (lb, rb) = a.data, b.data
            tensor = pi.pack(left.tensor_obj(la, lb), right.tensor_obj(ra, rb))
            assert pi.tensor_obj(a, b) is tensor
            for build, cls, legs in (
                ("product", ProductWitness, ("pi1", "pi2")),
                ("coproduct", CoproductWitness, ("in1", "in2")),
            ):
                w = getattr(pi, build)(a, b)
                lw, rw = getattr(left, build)(la, lb), getattr(right, build)(ra, rb)
                assert type(w) is cls
                assert (w.left, w.right) == (a, b)
                assert w.apex is pi.pack(lw.apex, rw.apex)
                for leg in legs:
                    assert getattr(w, leg) == pi.pack_mor(getattr(lw, leg), getattr(rw, leg))
                # mediate splits each pair of maps by payload and packs the
                # components' mediates: on every pair where both homsets
                # enumerate, on drawn pairs where one does not (mat-nat)
                for x in objs:
                    ends = [(x, a), (x, b)] if build == "product" else [(a, x), (b, x)]
                    for f, g in draw(pi, rng, ends, 2)[0]:
                        (lf, rf), (lg, rg) = f.payload, g.payload
                        assert w.mediate(f, g) == pi.pack_mor(
                            lw.mediate(lf, lg), rw.mediate(rf, rg)
                        )
                        mediated += 1
        assert mediated > 0
    pi = resolve("product:finrel+product:mat-nat+finrel", 1)
    for a, b, c in itertools.product(pi.objects(), repeat=3):
        la, lb, lc = a.data[0], b.data[0], c.data[0]
        ra, rb, rc = a.data[1], b.data[1], c.data[1]
        assert pi.prod_inv(a, b, c) == pi.pack_mor(
            pi.left.prod_inv(la, lb, lc), pi.right.prod_inv(ra, rb, rc)
        )
    for a in pi.objects():
        assert pi.bang(a) == pi.pack_mor(pi.left.bang(a.data[0]), pi.right.bang(a.data[1]))
    # morphism arguments split by payload, and the rng goes to both sides,
    # left first: the lifted draws are the components' draws from one seed
    rng, twin = random.Random(7), random.Random(7)
    for a, b in itertools.product(pi.objects(), repeat=2):
        f, g = pi.random_morphism(rng, a, b), pi.random_morphism(rng, a, b)
        lf, rf, lg, rg = (
            side.random_morphism(twin, a.data[i], b.data[i])
            for _ in range(2)
            for i, side in enumerate((pi.left, pi.right))
        )
        assert (f, g) == (pi.pack_mor(lf, rf), pi.pack_mor(lg, rg))
        assert pi.tensor_mor(f, g) == pi.pack_mor(
            pi.left.tensor_mor(lf, lg), pi.right.tensor_mor(rf, rg)
        )
        assert pi.native_add(f, g) == pi.pack_mor(
            pi.left.native_add(lf, lg), pi.right.native_add(rf, rg)
        )
    assert rng.random() == twin.random()
    # a None from either side is a None from the pair
    mixed = resolve("product:finrel+z-chain", 1)
    lo, hi = mixed.objects()[0], mixed.objects()[-1]
    assert (lo.data[1].data, hi.data[1].data) == (-1, 1)
    assert mixed.random_morphism(rng, hi, lo) is None
    f = mixed.random_morphism(rng, lo, hi)
    assert f is not None and mixed.native_add(f, f) is None


def test_product_instance_inherits_a_broken_component(rotated_rel2):
    pi = ProductInstance(rotated_rel2, finrel(2))
    one = pi.pack(pi.left.obj(1), pi.right.obj(1))
    two = pi.pack(pi.left.obj(2), pi.right.obj(2))
    with pytest.raises(WitnessInvalid, match=r"^dist_prod\(1\|1,1\|1,2\|2\): "):
        dist_prod(one, one, two)


class FirstArgumentMediates(MatInstance):
    """finrel whose mediates hand back their first argument, which never ends at the apex."""

    def product(self, a, b):
        p = super().product(a, b)
        return ProductWitness(p.left, p.right, p.apex, p.pi1, p.pi2, lambda f, g: f)

    def coproduct(self, a, b):
        c = super().coproduct(a, b)
        return CoproductWitness(c.left, c.right, c.apex, c.in1, c.in2, lambda f, g: f)


@pytest.mark.parametrize("broken", [0, 1])
def test_product_instance_refuses_a_component_mediate_with_wrong_ends(broken):
    # a packed mediate keeps its own interned ends only where both component
    # results end there; a result with other ends is packed on those, so
    # pair and copair see the wrong type and refuse it
    parts = [finrel(2), finrel(2)]
    parts[broken] = FirstArgumentMediates(BOOLEANS, 2, name="finrel")
    pi = ProductInstance(*parts)
    one = pi.pack(pi.left.obj(1), pi.right.obj(1))
    f = identity(one)
    with pytest.raises(WitnessInvalid, match="^product mediate returned a morphism of the wrong"):
        pair(pi.product(one, one), f, f)
    with pytest.raises(WitnessInvalid, match="^coproduct mediate returned a morphism of the wrong"):
        copair(pi.coproduct(one, one), f, f)


def test_product_instance_enumeration_caps():
    pi = ProductInstance(finrel(3), finrel(2))
    one = pi.pack(pi.left.obj(1), pi.right.obj(1))
    homs = pi.enumerate_homset(one, one)
    assert len(homs) == 4
    two = pi.pack(pi.left.obj(2), pi.right.obj(2))
    assert len(pi.enumerate_homset(two, two)) == 256
    # both parts enumerate (64 and 16 maps), their product exceeds ENUM_CAP
    three_two = pi.pack(pi.left.obj(3), pi.right.obj(2))
    assert len(pi.left.enumerate_homset(two.data[0], three_two.data[0])) == 64
    assert len(pi.right.enumerate_homset(two.data[1], three_two.data[1])) == 16
    assert pi.enumerate_homset(two, three_two) is None


@pytest.mark.parametrize("selector", ["finrel", "product:finrel+z-chain"])
def test_homsets_are_enumerated_once_per_instance(selector):
    inst = resolve(selector, 2)
    built = 0
    for a, b in itertools.product(inst.objects(), repeat=2):
        homs = inst.enumerate_homset(a, b)
        assert inst.enumerate_homset(a, b) is homs
        if homs is not None:
            assert type(homs) is tuple
            built += 1
    assert built
    # a second instance builds its own, with the same morphisms
    other = resolve(selector, 2)
    a = b = inst.objects()[-1]
    mine = inst.enumerate_homset(a, b)
    theirs = other.enumerate_homset(*(other.parse_obj(x.name) for x in (a, b)))
    assert len(mine) == 16
    assert theirs is not mine
    assert [repr(f) for f in theirs] == [repr(f) for f in mine]


def test_sampling_a_memoized_homset_leaves_it_unchanged(monkeypatch):
    # hom-add-laws on finrel 2 draws all 16 maps of Hom(2,2) and then
    # rng.sample picks LAW_SAMPLE_CAP of them; the memoized tuple it drew
    # from must come through the whole suite as it was
    inst = finrel(2)
    two = inst.obj(2)
    homs = inst.enumerate_homset(two, two)
    before = list(homs)
    populations = []
    sample = random.Random.sample

    def spying(self, population, k, **kwargs):
        populations.append(len(population))
        return sample(self, population, k, **kwargs)

    monkeypatch.setattr(random.Random, "sample", spying)
    monkeypatch.setattr(cli, "resolve", lambda selector, max_size: inst)
    report = cli.run_suite(cli.SuiteConfig(instance="finrel", max_size=2))
    assert report.failed == 0
    assert cli.LAW_SAMPLE_CAP == 5 and len(before) == 16
    assert 16 in populations
    assert inst.enumerate_homset(two, two) is homs
    assert list(homs) == before


def _count_component_composes(pi, monkeypatch):
    """The (side, g, f) of every compose that reaches a component's compose_payload.

    A built instance's methods cannot be shadowed, so this patches each
    component's class and records only the calls made on the component.
    """
    reached = []
    for side, component in enumerate((pi.left, pi.right)):
        cls = type(component)

        def counting(self, g, f, side=side, component=component, inner=cls.compose_payload):
            if self is component:
                reached.append((side, g, f))
            return inner(self, g, f)

        monkeypatch.setattr(cls, "compose_payload", counting)
    return reached


def _composable_pairs(pi):
    """Every (g, f) of product morphisms a -> b -> c over the enumerated homsets."""
    objs = pi.objects()
    return [
        (g, f)
        for a, b, c in itertools.product(objs, repeat=3)
        for f in pi.enumerate_homset(a, b) or ()
        for g in pi.enumerate_homset(b, c) or ()
    ]


def test_product_composes_each_component_pair_once(monkeypatch):
    pi = ProductInstance(finrel(2), ChainInstance(-2, 2))
    reached = _count_component_composes(pi, monkeypatch)
    f = pi.pack_mor(
        pi.left.mor(pi.left.obj(1), pi.left.obj(2), ((True,), (False,))),
        pi.right.hom(pi.right.obj(0), pi.right.obj(1)),
    )
    g = pi.pack_mor(
        pi.left.mor(pi.left.obj(2), pi.left.obj(2), ((False, True), (True, False))),
        identity(pi.right.obj(1)),
    )
    first = compose(g, f)
    assert compose(g, f) == first
    assert reached == [(0, g.payload[0], f.payload[0]), (1, g.payload[1], f.payload[1])]
    assert first.payload == (
        compose(g.payload[0], f.payload[0]), compose(g.payload[1], f.payload[1])
    )


def test_product_composite_memo_is_capped(monkeypatch):
    uncapped = resolve("product:finrel+z-chain", 1)
    pairs = _composable_pairs(uncapped)
    want = [compose(g, f) for g, f in pairs]
    assert len(uncapped._composites) > 4
    monkeypatch.setattr(kernel, "COMPOSITE_CAP", 4)
    capped = resolve("product:finrel+z-chain", 1)
    got, sizes = [], []
    for g, f in _composable_pairs(capped):
        got.append(compose(g, f))
        sizes.append(len(capped._composites))
    # packed objects are interned per instance, so compare what they print
    assert [repr(m) for m in got] == [repr(m) for m in want]
    assert max(sizes) == 4
    assert 1 in sizes  # the dict was cleared and filled again


def test_product_composites_die_with_their_instance():
    pi = resolve("product:finrel+z-chain", 1)
    for g, f in _composable_pairs(pi):
        compose(g, f)
    assert pi._composites
    ref = weakref.ref(pi)
    del pi, g, f
    gc.collect()
    assert ref() is None


def test_morphism_table_and_composites_die_with_their_instance():
    # every key and value of both dicts holds a morphism whose ends name the
    # instance, so the instance could not be collected while either dict
    # were reachable from outside it
    rat = mat_semiring("mat-rat", 2)
    rng = random.Random(7)
    one, two = rat.obj(1), rat.obj(2)
    homsets = ((one, two), (two, two))
    sample = [rat.random_morphism(rng, a, b) for a, b in homsets for _ in range(2)]
    assert verify_semiadditive(sample).passed
    assert rat._mors and rat._composites
    assert all(key[0].cat is rat for key in rat._mors)
    assert all(f.dom.cat is rat for key in rat._composites for f in key)
    ref = weakref.ref(rat)
    del rat, sample, homsets, one, two
    gc.collect()
    assert ref() is None


def test_payloads_equal_across_types_give_one_morphism():
    # interning keys by value, and 0 == 0.0 with one hash: the first payload
    # interned stands for both, and prints as itself
    cases = ((((0,),), ((0.0,),), "1->1 [0]"), (((0.0,),), ((0,),), "1->1 [0.0]"))
    for first, second, shown in cases:
        inst = MatInstance(MIN_PLUS, 1, name="mat-min-plus")
        a = inst.obj(1)
        f = inst.mor(a, a, first)
        assert inst.mor(a, a, second) is f
        assert f.payload is first and repr(f) == shown


def test_a_composite_that_raises_is_not_memoized():
    pi = ProductInstance(finrel(2), ChainInstance(-2, 2))
    one = pi.pack(pi.left.obj(1), pi.right.obj(0))
    two = pi.pack(pi.left.obj(2), pi.right.obj(1))
    f = pi.enumerate_homset(one, two)[0]
    compose(identity(two), f)
    before = dict(pi._composites)
    # the product's own check refuses first
    with pytest.raises(DomainMismatch):
        compose(f, f)
    # a left side that does not line up stores nothing
    with pytest.raises(DomainMismatch):
        pi.compose_payload(f, f)
    assert pi._composites == before
    # nor does a right side that does not; its left side is one already kept
    g = pi.pack_mor(identity(two.data[0]), identity(one.data[1]))
    with pytest.raises(DomainMismatch):
        pi.compose_payload(g, f)
    assert pi._composites == before


def test_verify_composes_each_component_pair_once(monkeypatch):
    # a work guard: over one full verify of the suite-product benchmark's
    # config, no (g, f) reaches a component's compose_payload twice
    pi = resolve("product:finrel+z-chain", 1)
    reached = _count_component_composes(pi, monkeypatch)
    monkeypatch.setattr(cli, "resolve", lambda selector, max_size: pi)
    config = cli.SuiteConfig(instance="product:finrel+z-chain", max_size=1, max_quad=1, seed=1)
    report = cli.run_suite(config)
    assert (report.passed, report.failed) == (1836, 7)
    assert reached and {side for side, _, _ in reached} == {0, 1}
    assert len(reached) == len(set(reached))


def test_resolve_selectors():
    assert isinstance(resolve("finrel", 2), MatInstance)
    assert resolve("finrel", 2).name == "finrel"
    assert resolve("mat-rat", 3).sr is RATIONALS
    ch = resolve("z-chain", 4)
    assert isinstance(ch, ChainInstance)
    assert (ch.lo, ch.hi) == (-4, 4)
    pi = resolve("product:finrel+z-chain", 2)
    assert isinstance(pi, ProductInstance)
    assert pi.name == "product:finrel+z-chain"
    nested = resolve("product:finrel+product:mat-nat+z-chain", 2)
    assert isinstance(nested.right, ProductInstance)


def test_resolve_rejects_unknown():
    with pytest.raises(UnknownInstance):
        resolve("nonsense", 2)
    with pytest.raises(UnknownInstance):
        resolve("product:finrel", 2)
    with pytest.raises(UnknownInstance):
        resolve("product:finrel+nope", 2)


def test_semiring_carriers():
    assert BOOLEANS.carrier == (False, True)
    assert NATURALS.carrier is None
    assert BOOLEANS.render(True) == "1"
