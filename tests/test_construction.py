from __future__ import annotations

import ast
import gc
import itertools
import random
import re
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biprod.cli as cli
import biprod.construction as construction
from biprod.construction import (
    biproduct,
    c_map,
    canonical_mixed_map,
    hom_add,
    idempotents,
    star_map,
    t_inverse,
    t_map,
    verify_interchange,
    verify_intertwining,
    verify_semiadditive,
    y_map,
    zero_map,
    zero_object,
)
from biprod.errors import DomainMismatch, NoNullaryStructure, WitnessInvalid
from biprod.instances import ChainInstance, MatInstance, finrel, mat_semiring, resolve
from biprod.kernel import Frozen, check_inverse_pair, compose, identity
from biprod.structure import Mat2, from_matrix, plus_map, times_map
from conftest import assert_built_from_its_fields

REL = finrel(3)
NAT = mat_semiring("mat-nat", 3)

T11_PERMUTATION = (
    (1, 0, 0, 0),
    (0, 0, 1, 0),
    (0, 1, 0, 0),
    (0, 0, 0, 1),
)

T12_PERMUTATION = (
    (1, 0, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1),
)


def to_bool(m):
    return tuple(tuple(bool(v) for v in row) for row in m)


def test_zero_object_sits_between_terminal_and_initial():
    zw = zero_object(REL)
    assert zw.obj.data == 0
    assert zw.one_to_zero.dom == REL.terminal
    assert zw.one_to_zero.cod == REL.initial


def test_zero_map_is_empty_relation():
    z = zero_map(REL.obj(1), REL.obj(2))
    assert z.payload == ((False,), (False,))


def test_zero_map_needs_nullary_structure():
    ch = ChainInstance(-2, 2)
    with pytest.raises(NoNullaryStructure):
        zero_map(ch.obj(0), ch.obj(1))


def test_star_frozen_on_singletons():
    one = NAT.obj(1)
    s = star_map(one, one, one, one)
    assert s.payload == T11_PERMUTATION
    assert s.dom.data == 4 and s.cod.data == 4


def test_star_type_on_mixed_dimensions():
    s = star_map(REL.obj(1), REL.obj(2), REL.obj(1), REL.obj(2))
    assert s.dom.data == 9
    assert s.cod.data == 9


def test_y_is_certified_and_equals_star():
    quad = (NAT.obj(1), NAT.obj(2), NAT.obj(1), NAT.obj(2))
    y = y_map(*quad)
    assert check_inverse_pair(y.fwd, y.bwd).passed
    assert y.fwd == star_map(*quad)


def test_interchange_over_small_universe():
    objs = REL.objects(1)
    for quad in itertools.product(objs, repeat=4):
        assert verify_interchange(*quad).passed


def test_interchange_reports_broken_distributor(rotated_rel2):
    broken = rotated_rel2
    with pytest.raises(WitnessInvalid, match="dist_prod"):
        verify_interchange(broken.obj(1), broken.obj(1), broken.obj(2), broken.obj(2))


def test_t_frozen_on_singletons():
    one = NAT.obj(1)
    assert t_map(one, one).payload == T11_PERMUTATION


def test_t_frozen_on_one_two():
    t = t_map(REL.obj(1), REL.obj(2))
    assert t.payload == to_bool(T12_PERMUTATION)


def test_t_inverse_is_transposed_permutation():
    ti = t_inverse(REL.obj(1), REL.obj(2))
    assert ti.fwd == t_map(REL.obj(1), REL.obj(2))
    assert ti.bwd.payload == tuple(zip(*ti.fwd.payload))
    assert check_inverse_pair(ti.fwd, ti.bwd).passed


def test_t_inverse_cached():
    a, b = NAT.obj(2), NAT.obj(3)
    assert t_inverse(a, b) is t_inverse(a, b)


def test_memo_dies_with_its_instance():
    # every derived result lives in its instance's memo, so nothing the
    # construction built keeps a dropped instance alive; the memo refers
    # back to its instance, so only the cyclic collector frees it
    inst = finrel(2)
    a, b = inst.obj(1), inst.obj(2)
    inst.product(a, b)
    inst.coproduct(a, b)
    t_inverse(a, b)
    zero_map(a, b)
    c_map(a, b)
    hom_add(identity(a), zero_map(a, a))
    times_map(identity(a), identity(b))
    plus_map(identity(a), identity(b))
    assert inst.memo
    ref = weakref.ref(inst)
    del inst, a, b
    gc.collect()
    assert ref() is None


def test_memo_counts_over_all_instances():
    # perfbench/tracer.py reads hits and misses from cache_info()
    def counts():
        info = t_inverse.cache_info()
        return info.hits, info.misses

    first = resolve("finrel", 2)
    h, m = counts()
    ti = t_inverse(first.obj(1), first.obj(2))
    assert counts() == (h, m + 1)
    assert t_inverse(first.obj(1), first.obj(2)) is ti
    assert counts() == (h + 1, m + 1)
    second = resolve("finrel", 2)
    assert t_inverse(second.obj(1), second.obj(2)) is not ti
    assert counts() == (h + 1, m + 2)


def test_memo_keeps_no_failed_call(rotated_rel2):
    # the witnesses t_inverse built on the way are memoized; the failed
    # t_inverse itself is not, so the second call re-checks and raises again
    a, b = rotated_rel2.obj(1), rotated_rel2.obj(2)
    with pytest.raises(WitnessInvalid):
        t_inverse(a, b)
    assert not [key for key in rotated_rel2.memo if key[0] is t_inverse.__wrapped__]
    with pytest.raises(WitnessInvalid):
        t_inverse(a, b)


def test_grid_is_memoized():
    a, b = REL.obj(1), REL.obj(2)
    g = construction._grid(a, a, b, b)
    assert construction._grid(a, a, b, b) is g
    assert t_map(a, b) is g.map


def test_star_grid_is_keyed_by_its_corners():
    # on the chain the tensor is addition, so both quads have corners 0, 1, 1, 2
    chain = ChainInstance(-5, 5)
    first = construction._star_grid(*map(chain.obj, (0, 1, 0, 1)))
    second = construction._star_grid(*map(chain.obj, (1, 2, -1, 0)))
    assert first is second


def test_repeated_interchange_assembles_no_matrix(monkeypatch):
    inst = finrel(2)
    quad = (inst.obj(1), inst.obj(2), inst.obj(2), inst.obj(1))
    calls = []
    real = construction.from_matrix

    def counting_from_matrix(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(construction, "from_matrix", counting_from_matrix)
    first = verify_interchange(*quad)
    assert first.passed and len(calls) == 1
    assert verify_interchange(*quad) == first
    assert len(calls) == 1


def test_failed_grid_is_not_memoized(rotated_mediate_rel2):
    # the codomain (1+1) x (1+1) uses the rotated product(2,2) mediate
    inst = rotated_mediate_rel2
    one = inst.obj(1)
    texts = []
    for _ in range(2):
        with pytest.raises(WitnessInvalid) as err:
            construction._grid(one, one, one, one)
        texts.append(str(err.value))
    assert texts == ["pair: pi1*m=f (entry (1,1): 0 vs 1)"] * 2
    assert not [key for key in inst.memo if key[0].__name__ == "_grid"]
    # from_matrix's first assembly goes through the rotated product(2,2) and
    # fails, so no assembly is kept and the second from_matrix checks it again
    assert not [key for key in inst.memo if key[0].__name__ == "assemble"]


def test_grid_failures_keep_their_record_text(rotated_mediate_rel2):
    inst = rotated_mediate_rel2
    objs = inst.objects(2)
    failed = {}
    for stage in cli.STAGES:
        if stage.name in ("interchange", "t-inverse", "intertwining"):
            for tup in itertools.product(objs, repeat=stage.arity):
                records = []
                cli._guard(records, stage.name, (), lambda: stage.check(None, *tup))
                if not records[0].passed:
                    failed[stage.name, "".join(x.name for x in tup)] = records[0].failure
    first_entry = "pair: pi1*m=f (entry (1,1): 0 vs 1)"
    quads = ("0122 0211 1022 1111 1122 1211 1222 2011 2111 2122 2211").split()
    pairs = ("02", "11", "12", "20", "21", "22")
    want = {("interchange", q): first_entry for q in quads}
    want.update({("t-inverse", p): first_entry for p in pairs})
    want.update({("intertwining", p): first_entry for p in pairs})
    want["intertwining", "12"] = "pair: pi1*m=f (entry (2,1): 1 vs 0)"
    assert failed == want


@pytest.mark.parametrize("selector", ["mat-rat", "z-chain", "product:finrel+z-chain"])
def test_witnesses_are_memoized_per_instance(selector):
    inst = resolve(selector, 1)
    a, b = inst.objects()[-2:]
    assert inst.product(a, b) is inst.product(a, b)
    assert inst.coproduct(a, b) is inst.coproduct(a, b)
    # each instance builds its own
    other = resolve(selector, 1)
    x, y = other.objects()[-2:]
    assert other.product(x, y) is not inst.product(a, b)
    assert other.coproduct(x, y) is not inst.coproduct(a, b)


def test_product_components_memoize_in_their_own_memos():
    inst = resolve("product:finrel+z-chain", 1)
    a, b = inst.objects()[-2:]
    inst.product(a, b)
    inst.coproduct(a, b)
    assert all(key[1][0] is inst for key in inst.memo)
    for side, component in enumerate((inst.left, inst.right)):
        x, y = a.data[side], b.data[side]
        assert {key[0].__name__ for key in component.memo} == {"product", "coproduct"}
        assert all(key[1][0] is component for key in component.memo)
        assert component.product(x, y) is component.product(x, y)


def _fresh_copy(f):
    """A morphism equal to f in value that shares no tuple or entry with it."""
    payload = tuple(tuple((num, den) for num, den in row) for row in f.payload)
    return f.dom.cat.mor(f.dom, f.cod, payload)


def test_sums_are_memoized_per_call_only(monkeypatch):
    # verify_semiadditive computes each distinct sum once per call, and the
    # sums die with the call: the instance's memo keeps none of them
    inst = finrel(2)
    one, two = inst.obj(1), inst.obj(2)
    sample = inst.enumerate_homset(one, one) + inst.enumerate_homset(one, two)
    added = []

    def counting_hom_add(f, g):
        added.append((f, g))
        return hom_add(f, g)

    monkeypatch.setattr(construction, "hom_add", counting_hom_add)
    first = verify_semiadditive(sample)
    assert first.passed
    assert len(added) == len(set(added))
    per_call = len(added)
    assert verify_semiadditive(sample) == first
    assert len(added) == 2 * per_call
    # sums are keyed by value: on mat-rat, copies of the sample built apart
    # (fresh rows, fresh (num, den) entries) add no sum to those of the sample
    rat = mat_semiring("mat-rat", 2)
    rng = random.Random(3)
    r1, r2 = rat.obj(1), rat.obj(2)
    homsets = ((r1, r2), (r2, r2), (r2, r1))
    sample = [rat.random_morphism(rng, a, b) for a, b in homsets for _ in range(2)]
    added.clear()
    assert verify_semiadditive(sample).passed
    alone = len(added)
    assert alone == len(set(added))
    added.clear()
    assert verify_semiadditive(sample + [_fresh_copy(f) for f in sample]).passed
    assert len(added) == len(set(added)) == alone
    for cat in (inst, rat):
        memoized = {key[0].__name__ for key in cat.memo}
        assert "hom_add" not in memoized
        assert memoized <= {
            "zero_object", "zero_map", "t_inverse", "c_map", "_diagonal", "product", "coproduct",
            "dist_prod", "dist_coprod", "_grid", "times_map", "plus_map", "enumerate_homset",
            "assemble", "check_inverse_pair",
        }


def test_semiadditive_adds_each_distinct_pair_once(monkeypatch):
    # the laws key their sums by the pair of morphisms, and equal morphisms
    # are one interned Mor: hom_add runs once per distinct ordered pair in a
    # call, a sample that repeats or copies its morphisms adds no pair, and
    # the next call adds each pair again, since sums are kept per call only
    rat = mat_semiring("mat-rat", 2)
    two = rat.obj(2)
    rng = random.Random(5)
    sample = [rat.random_morphism(rng, two, two) for _ in range(3)]
    assert verify_semiadditive(sample).passed  # build the instance's memos first
    sums = []

    def counting_hom_add(f, g):
        sums.append((f, g))
        return hom_add(f, g)

    monkeypatch.setattr(construction, "hom_add", counting_hom_add)
    assert verify_semiadditive(sample).passed
    once = list(sums)
    assert once and len(once) == len(set(once))
    sums.clear()
    assert verify_semiadditive(sample + sample + [_fresh_copy(f) for f in sample]).passed
    assert len(sums) == len(set(sums)) and set(sums) == set(once)


def test_semiadditive_composes_each_distinct_pair_once(monkeypatch):
    # the sums are keyed by their pair of morphisms and the bilinearity
    # composites by compose's memo: on two fresh instances, a sample that
    # repeats its morphisms checks more equations but multiplies no more
    # matrices
    composed = []
    payload = MatInstance.compose_payload

    def counting_payload(cat, g, f):
        composed.append(None)
        return payload(cat, g, f)

    monkeypatch.setattr(MatInstance, "compose_payload", counting_payload)
    results, counts = [], []
    for repeat in (1, 2):
        rat = mat_semiring("mat-rat", 2)
        one, two = rat.obj(1), rat.obj(2)
        rng = random.Random(11)
        sample = [rat.random_morphism(rng, a, b) for a, b in ((one, two), (two, two), (two, one))]
        composed.clear()
        results.append(verify_semiadditive(sample * repeat))
        counts.append(len(composed))
    once, twice = results
    assert once.passed and twice.passed
    assert len(twice.details) > len(once.details)
    assert counts[0] > 0
    assert counts[1] == counts[0]


def test_no_functools_cache_in_the_package():
    # a functools cache outlives every instance it saw; derived results
    # belong in the instance's memo
    found = []
    for path in sorted(Path(construction.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            ):
                names = {node.attr}
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names & {"lru_cache", "cache"}]
    assert found == []


# names the rule must cover on each instance, beside whatever else it has
MUST_BE_FIXED = {
    "finrel": {"sr", "max_dim"},
    "z-chain": {"lo", "hi"},
    "product:finrel+mat-nat": {"left", "right", "_composites"},
}


@pytest.mark.parametrize("selector", sorted(MUST_BE_FIXED))
def test_structure_cannot_change_under_a_cached_certificate(selector):
    # t_inverse is cached per object pair; were prod_inv, composition, the
    # semiring or any other structure swappable after it certified, the
    # cached pair would keep vouching for structure the instance no longer
    # uses.  The names come from the live instance, so a new field or
    # method is covered with no list to edit.
    inst = resolve(selector, 1 if selector.startswith("product:") else 2)
    a, b = inst.objects()[-2:]
    ti = t_inverse(a, b)
    built = dict(vars(inst))
    cls = type(inst)
    methods = {n for n in dir(cls) if not n.startswith("__") and callable(getattr(cls, n))}
    names = built.keys() | methods
    assert names >= MUST_BE_FIXED[selector] | {
        "memo", "name", "terminal", "initial", "unit",
        "compose_payload", "identity_payload", "enumerate_homset", "product", "prod_inv",
    }
    for attr in sorted(names):
        fixed = re.escape(f"instance {inst.name}: {attr} is fixed once the instance is built")
        with pytest.raises(AttributeError, match=fixed):
            setattr(inst, attr, None)
        with pytest.raises(AttributeError, match=fixed):
            delattr(inst, attr)
    assert vars(inst).keys() == built.keys()
    assert all(vars(inst)[attr] is value for attr, value in built.items())
    assert t_inverse(a, b) is ti


def test_records_are_fixed_and_have_no_instance_dict():
    # the witnesses, the grid, the square of components, the command line's
    # records and a semiring all refuse assignment and deletion; each
    # record Frozen builds is built from its fields by position or keyword
    a = REL.obj(1)
    grid = construction._grid(a, a, a, a)
    config = cli.SuiteConfig()
    record = cli.CheckRecord("nullary", ())
    records = (
        REL.product(a, a), REL.coproduct(a, a), zero_object(REL), biproduct(a, a),
        grid, grid.corners, config, record, cli.Report(config, (record,), 0.0), REL.sr,
    )
    for rec in records:
        assert not hasattr(rec, "__dict__"), type(rec).__name__
        if type(rec).__init__ is Frozen.__init__:
            assert_built_from_its_fields(rec)
        for attr in getattr(rec, "_fields", None) or rec.__slots__:
            with pytest.raises(AttributeError):
                setattr(rec, attr, None)
            with pytest.raises(AttributeError):
                delattr(rec, attr)


@pytest.mark.parametrize("selector", sorted(MUST_BE_FIXED))
def test_fields_cannot_be_swapped_through_a_dunder(selector):
    # assigning __dict__ whole would re-set every field at once, under the
    # same cached pair; every dunder is refused, not only the callable ones
    inst = resolve(selector, 1 if selector.startswith("product:") else 2)
    a, b = inst.objects()[-2:]
    ti = t_inverse(a, b)
    built = dict(vars(inst))
    other = resolve("mat-nat", 2)
    swapped = {**built, **{attr: getattr(other, attr, None) for attr in MUST_BE_FIXED[selector]}}
    for attr, value in (("__dict__", swapped), ("__class__", type(other)), ("__doc__", "")):
        fixed = re.escape(f"instance {inst.name}: {attr} is fixed once the instance is built")
        with pytest.raises(AttributeError, match=fixed):
            setattr(inst, attr, value)
    assert vars(inst).keys() == built.keys()
    assert all(vars(inst)[attr] is value for attr, value in built.items())
    assert t_inverse(a, b) is ti


def test_witness_methods_cannot_be_shadowed_under_a_cached_certificate(
    rotated_mediate_rel2,
):
    # were product shadowable after t_inverse certified, the cached pair
    # would keep vouching for a witness the instance no longer uses
    inst = finrel(2)
    a, b = inst.obj(2), inst.obj(1)
    ti = t_inverse(a, b)
    for attr in ("product", "coproduct"):
        with pytest.raises(AttributeError, match=f"instance finrel: {attr} is fixed"):
            setattr(inst, attr, getattr(rotated_mediate_rel2, attr))
        with pytest.raises(AttributeError, match=f"{attr} is fixed"):
            delattr(inst, attr)
    assert "product" not in vars(inst) and "coproduct" not in vars(inst)
    assert t_inverse(a, b) is ti
    assert t_inverse.__wrapped__(a, b).equations == ti.equations
    # the broken witness, on an instance of its own, is caught
    with pytest.raises(WitnessInvalid, match=r"^pair: pi1\*m=f"):
        t_inverse(rotated_mediate_rel2.obj(2), rotated_mediate_rel2.obj(1))


def test_t_inverse_rejects_rotated_prod_inv(rotated_rel2):
    with pytest.raises(WitnessInvalid, match=r"^dist_prod\(1,1,1\): bwd\*fwd=id"):
        t_inverse(rotated_rel2.obj(1), rotated_rel2.obj(2))


def test_idempotents_frozen_on_singletons():
    e, e_prime = idempotents(NAT.obj(1), NAT.obj(1))
    diag_14 = (
        (1, 0, 0, 0),
        (0, 0, 0, 0),
        (0, 0, 0, 0),
        (0, 0, 0, 1),
    )
    assert e.payload == diag_14
    assert e_prime.payload == diag_14


def test_idempotents_square_to_themselves():
    e, e_prime = idempotents(REL.obj(2), REL.obj(3))
    assert compose(e, e) == e
    assert compose(e_prime, e_prime) == e_prime


def test_intertwining_holds():
    assert verify_intertwining(REL.obj(1), REL.obj(2)).passed
    assert verify_intertwining(NAT.obj(2), NAT.obj(3)).passed


def test_intertwining_detects_wrong_zero(monkeypatch):
    real = construction.zero_map

    def fake(a, b):
        if a == b:
            return identity(a)
        return real(a, b)

    monkeypatch.setattr(construction, "zero_map", fake)
    res = construction.verify_intertwining(REL.obj(1), REL.obj(2))
    assert not res.passed
    labels = [chk.label for chk in res.failures()]
    assert any("[1,2]" in lab or "[2,1]" in lab for lab in labels)


def test_canonical_mixed_map_is_identity_block_matrix():
    c = canonical_mixed_map(NAT.obj(2), NAT.obj(3))
    eye5 = tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))
    assert c.payload == eye5


def test_c_map_matches_canonical():
    ip = c_map(REL.obj(1), REL.obj(1))
    assert ip.fwd.payload == to_bool(((1, 0), (0, 1)))
    assert ip.fwd == canonical_mixed_map(REL.obj(1), REL.obj(1))


def test_biproduct_witness_equations():
    a, b = NAT.obj(2), NAT.obj(3)
    w = biproduct(a, b)
    assert w.apex == NAT.coproduct(a, b).apex
    assert compose(w.pr1, w.in1) == identity(a)
    assert compose(w.pr1, w.in2) == zero_map(b, a)
    assert compose(w.pr2, w.in1) == zero_map(a, b)
    assert compose(w.pr2, w.in2) == identity(b)
    assert w.equations.passed


def _swapped_canonical(monkeypatch):
    # off-diagonal identities at (1,1): the type of a+b -> a x b, the wrong value
    real = construction.canonical_mixed_map

    def swapped(a, b):
        if (a.data, b.data) != (1, 1):
            return real(a, b)
        zero = zero_map(a, a)
        return from_matrix(Mat2(zero, identity(a), identity(a), zero))

    monkeypatch.setattr(construction, "canonical_mixed_map", swapped)


def test_biproduct_raises_on_a_non_canonical_iso(monkeypatch):
    _swapped_canonical(monkeypatch)
    inst = finrel(1)
    one = inst.obj(1)
    with pytest.raises(WitnessInvalid, match=r"^biproduct\(1,1\): iso=canonical") as err:
        biproduct(one, one)
    # the other four equations hold: the mismatch is the only failure
    assert [chk.label for chk in err.value.result.failures()] == ["iso=canonical"]


def test_canonical_mismatch_fails_only_its_biproduct_record(monkeypatch):
    _swapped_canonical(monkeypatch)
    report = cli.run_suite(cli.SuiteConfig(instance="finrel", max_size=1))
    failed = [(c.suite, c.objects, c.failure) for c in report.checks if not c.passed]
    assert failed == [
        ("biproduct", ("1", "1"), "biproduct(1,1): iso=canonical (entry (1,1): 1 vs 0)")
    ]


def test_hom_add_frozen_on_naturals():
    one = NAT.obj(1)
    f = NAT.mor(one, one, ((2,),))
    g = NAT.mor(one, one, ((3,),))
    assert hom_add(f, g).payload == ((5,),)


def test_hom_add_rejects_non_parallel():
    f = REL.mor(REL.obj(1), REL.obj(2), ((True,), (False,)))
    g = REL.mor(REL.obj(2), REL.obj(1), ((True, False),))
    with pytest.raises(DomainMismatch):
        hom_add(f, g)
    # same domain, other codomain: refused even after a sum on that domain
    hom_add(f, f)
    with pytest.raises(DomainMismatch):
        hom_add(f, REL.mor(REL.obj(1), REL.obj(1), ((True,),)))


@st.composite
def parallel_pair(draw, max_dim=3):
    a = draw(st.integers(0, max_dim))
    b = draw(st.integers(0, max_dim))

    def payload():
        return tuple(
            tuple(draw(st.booleans()) for _ in range(a)) for _ in range(b)
        )

    x, y = REL.obj(a), REL.obj(b)
    return REL.mor(x, y, payload()), REL.mor(x, y, payload())


@settings(max_examples=100, deadline=None)
@given(parallel_pair())
def test_hom_add_is_relational_union(fg):
    f, g = fg
    assert hom_add(f, g) == REL.native_add(f, g)


def test_semiadditive_vacuous_on_empty_sample():
    assert verify_semiadditive([]).passed


def test_semiadditive_exhaustive_small():
    one, two = REL.obj(1), REL.obj(2)
    sample = REL.enumerate_homset(one, one) + REL.enumerate_homset(one, two)
    res = verify_semiadditive(sample)
    assert res.passed
    labels = [chk.label for chk in res.details]
    assert any(lab.startswith("assoc[") for lab in labels)
    assert any(lab.startswith("post-linear[") for lab in labels)
    assert any(lab.startswith("pre-linear[") for lab in labels)


def test_semiadditive_propagates_missing_zero():
    ch = ChainInstance(-2, 2)
    sample = [ch.hom(ch.obj(0), ch.obj(1))]
    with pytest.raises(NoNullaryStructure):
        verify_semiadditive(sample)
