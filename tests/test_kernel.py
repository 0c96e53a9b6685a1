from __future__ import annotations

import ast
import builtins
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biprod import errors, kernel
from biprod.errors import CategoryError, DomainMismatch, WitnessInvalid
from biprod.instances import finrel, mat_semiring, resolve
from biprod.kernel import (
    CheckResult,
    InversePair,
    Mor,
    Obj,
    check_inverse_pair,
    compose,
    equation,
    error_check,
    identity,
)
from conftest import assert_built_from_its_fields

REL = finrel(3)


def bmat(*rows):
    return tuple(tuple(bool(v) for v in row) for row in rows)


@st.composite
def rel_mor(draw, max_dim=3):
    a = draw(st.integers(0, max_dim))
    b = draw(st.integers(0, max_dim))
    payload = tuple(
        tuple(draw(st.booleans()) for _ in range(a)) for _ in range(b)
    )
    return REL.mor(REL.obj(a), REL.obj(b), payload)


@st.composite
def rel_chain3(draw, max_dim=3):
    """Three composable morphisms a -> b -> c -> d."""
    dims = [draw(st.integers(0, max_dim)) for _ in range(4)]
    mors = []
    for lo, hi in zip(dims, dims[1:]):
        payload = tuple(
            tuple(draw(st.booleans()) for _ in range(lo)) for _ in range(hi)
        )
        mors.append(REL.mor(REL.obj(lo), REL.obj(hi), payload))
    return tuple(mors)


def test_compose_is_relational_composition():
    a = REL.obj(2)
    f = REL.mor(a, a, bmat((0, 1), (1, 0)))
    g = REL.mor(a, a, bmat((1, 0), (1, 1)))
    assert compose(g, f).payload == bmat((0, 1), (1, 1))


def test_compose_rejects_type_mismatch():
    f = REL.mor(REL.obj(1), REL.obj(2), bmat((1,), (0,)))
    g = REL.mor(REL.obj(3), REL.obj(1), bmat((1, 0, 0),))
    mismatch = "^cannot compose: first factor ends at 2, second starts at 3$"
    with pytest.raises(DomainMismatch, match=mismatch):
        compose(g, f)


def test_compose_rejects_foreign_category():
    other = mat_semiring("mat-bool", 3)
    f = REL.mor(REL.obj(1), REL.obj(1), bmat((1,),))
    g = other.mor(other.obj(1), other.obj(1), bmat((1,),))
    h = other.mor(other.obj(2), other.obj(2), bmat((1, 0), (0, 1)))
    # whether or not the ends' data match, the error names the categories
    for second in (g, h):
        with pytest.raises(DomainMismatch, match="^cannot compose morphisms from different categories$"):
            compose(second, f)
    foreign = "^morphism endpoints belong to a different category$"
    for dom, cod in ((other.obj(1), REL.obj(1)), (REL.obj(1), other.obj(1))):
        with pytest.raises(DomainMismatch, match=foreign):
            REL.mor(dom, cod, bmat((1,),))


@settings(max_examples=100, deadline=None)
@given(rel_mor())
def test_identity_laws(f):
    assert compose(f, identity(f.dom)) == f
    assert compose(identity(f.cod), f) == f


@settings(max_examples=100, deadline=None)
@given(rel_chain3())
def test_compose_associative(chain3):
    f, g, h = chain3
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_equal_requires_matching_endpoints():
    f = REL.mor(REL.obj(0), REL.obj(1), ((),))
    g = REL.mor(REL.obj(0), REL.obj(2), ((), ()))
    assert f != g


def test_equation_notes_first_difference():
    a = REL.obj(2)
    f = REL.mor(a, a, bmat((1, 0), (0, 1)))
    g = REL.mor(a, a, bmat((1, 0), (1, 1)))
    chk = equation("f=g", f, g)
    assert not chk.ok
    assert "entry (2,1)" in chk.note


def test_equation_notes_type_mismatch():
    f = REL.mor(REL.obj(1), REL.obj(1), bmat((1,),))
    g = REL.mor(REL.obj(1), REL.obj(2), bmat((1,), (0,)))
    chk = equation("f=g", f, g)
    assert not chk.ok
    assert chk.note == "type mismatch: 1 -> 1 vs 1 -> 2"
    assert chk.lhs is f and chk.rhs is g
    # the same data in another category is another object
    other = finrel(3)
    h = other.mor(other.obj(1), other.obj(1), f.payload)
    assert equation("f=h", f, h).note == "type mismatch: 1 -> 1 vs 1 -> 1"


def test_equation_keeps_one_side_when_they_agree():
    a = REL.obj(2)
    swap = REL.mor(a, a, bmat((0, 1), (1, 0)))
    lhs, rhs = compose(swap, swap), identity(a)
    chk = equation("swap*swap=id", lhs, rhs)
    assert chk.ok and chk.note == ""
    # the sides equal the computed ones; the two share one record
    assert chk.lhs == lhs and chk.rhs == rhs
    assert chk.lhs is chk.rhs


def test_failing_equation_keeps_both_sides():
    a = REL.obj(2)
    f = REL.mor(a, a, bmat((1, 0), (0, 1)))
    g = REL.mor(a, a, bmat((1, 0), (1, 1)))
    chk = equation("f=g", f, g)
    assert not chk.ok
    assert chk.lhs is f and chk.rhs is g
    assert chk.lhs != chk.rhs
    assert chk.note == "entry (2,1): 0 vs 1"


@pytest.mark.parametrize("selector", ["finrel", "z-chain", "product:finrel+mat-nat"])
def test_objects_are_interned(selector):
    inst = resolve(selector, 1 if selector.startswith("product:") else 2)
    for x in inst.objects():
        assert inst.obj(x.data) is x
        assert inst.obj(x.data) is inst.obj(x.data)
        assert inst.tensor_obj(x, x) is inst.obj(inst.tensor_obj(x, x).data)


def test_packed_objects_are_interned():
    inst = resolve("product:finrel+mat-nat", 1)
    one, zero = inst.left.obj(1), inst.right.obj(0)
    assert inst.pack(one, zero) is inst.pack(one, zero)
    assert inst.pack(one, zero) is inst.obj((inst.left.obj(1), inst.right.obj(0)))
    assert inst.parse_obj("1|0") is inst.pack(one, zero)
    # an object's name reads back as the object, nested products included
    nested = resolve("product:finrel+product:mat-nat+z-chain", 1)
    for x in nested.objects():
        assert nested.parse_obj(x.name) is x


@pytest.mark.parametrize("selector", ["finrel", "z-chain", "product:finrel+mat-nat"])
def test_identities_are_interned(selector):
    # one identity per object, built once: identity_payload runs at the first call only
    size = 1 if selector.startswith("product:") else 2
    inst = resolve(selector, size)
    for x in inst.objects():
        assert identity(x) is identity(x)
        assert identity(x) == (x, x, inst.identity_payload(x))
    other = resolve(selector, size)
    x = inst.objects()[-1]
    assert identity(other.obj(x.data)) is not identity(x)


def test_objects_compare_by_identity():
    # interning gives equal data one Obj, so object's own eq and hash decide;
    # the kernel and structure compare endpoints with `is`, which is sound
    # only while Obj keeps object's own eq and hash
    assert Obj.__eq__ is object.__eq__
    assert Obj.__hash__ is object.__hash__
    assert REL.obj(2) == REL.obj(2)
    assert finrel(3).obj(2) != REL.obj(2)


def test_objects_are_built_only_by_category_obj():
    # identity equality is sound only while every Obj comes from the interning
    # Category.obj, so no other code in the package may call Obj(...)
    found, allowed_calls = [], 0
    for path in sorted(Path(kernel.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        inside_obj = {
            id(node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "Category"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "obj"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name != "Obj":
                continue
            if id(node) in inside_obj:
                allowed_calls += 1
            else:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert allowed_calls == 1


def test_morphisms_are_built_only_by_the_interning_builder():
    # identity equality is sound only while every Mor comes from the interning
    # Category._interned, so no other code in the package builds one: no
    # Mor(...) or Mor._make, no tuple.__new__ of Mor (kernel's _new), and no
    # _replace of a morphism's fields
    found, allowed = [], 0
    for path in sorted(Path(kernel.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text())
        inside_builder = {
            id(node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "Category"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "_interned"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            owner = getattr(getattr(func, "value", None), "id", None)
            builds = (
                name == "Mor"
                or (name == "_make" and owner == "Mor")
                or (
                    name in ("_new", "__new__")
                    and any(isinstance(arg, ast.Name) and arg.id == "Mor" for arg in node.args[:1])
                )
                or (name == "_replace" and {kw.arg for kw in node.keywords} & set(Mor._fields))
            )
            if not builds:
                continue
            if id(node) in inside_builder:
                allowed += 1
            else:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert allowed == 1


def test_composite_memo_keeps_only_what_composed():
    # compose looks (g, f) up before it checks the ends, so a pair that
    # raised must never be there: a mismatch stores nothing, every time
    inst = finrel(2)
    one, two = inst.obj(1), inst.obj(2)
    f = inst.mor(one, two, bmat((1,), (0,)))
    g = inst.mor(two, one, bmat((1, 1),))
    h = compose(g, f)
    assert compose(g, f) is h and inst._composites == {(g, f): h}
    for _ in range(2):
        with pytest.raises(DomainMismatch, match="^cannot compose: first factor ends at 2"):
            compose(f, f)
        with pytest.raises(DomainMismatch, match="different categories"):
            compose(identity(REL.obj(2)), f)
    assert inst._composites == {(g, f): h}


def _catches_category_error(handler: ast.ExceptHandler) -> bool:
    """Whether an except clause would catch a CategoryError: bare, a base or a subclass."""
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for node in types:
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
        cls = getattr(errors, name, None) or getattr(builtins, name, None)
        if not isinstance(cls, type) or issubclass(CategoryError, cls):
            return True  # an unknown name, or CategoryError or a base of it
        if issubclass(cls, CategoryError):
            return True
    return False


def test_errors_fold_into_records_only_in_the_guard():
    # require() is the one way a failed equation becomes an error, and
    # cli._guard the one way an error becomes a record: only _guard calls
    # from_error, and no construction code catches a CategoryError
    package = Path(kernel.__file__).parent
    found, guard_calls = [], 0
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text())
        inside_guard = {
            id(node)
            for fn in tree.body
            if path.name == "cli.py" and isinstance(fn, ast.FunctionDef) and fn.name == "_guard"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if getattr(getattr(node, "func", None), "attr", None) != "from_error":
                continue
            if id(node) in inside_guard:
                guard_calls += 1
            else:
                found.append(f"{path.name}:{node.lineno} from_error")
    for name in ("construction.py", "structure.py", "monoidal.py"):
        for node in ast.walk(ast.parse((package / name).read_text())):
            if isinstance(node, ast.ExceptHandler) and _catches_category_error(node):
                found.append(f"{name}:{node.lineno} except")
    assert found == []
    assert guard_calls == 1


def _names_read(tree: ast.AST) -> set[str]:
    """Every bare name tree reads, also inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _names_read(ast.parse(ann.value, mode="eval"))
    return names


def test_every_import_in_the_package_is_used():
    # no linter runs in CI, so an import a module no longer reads stays
    # unseen; the tests are held to the same rule, and a package's
    # __init__.py imports only to re-export
    found = []
    sources = [*Path(kernel.__file__).parent.rglob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(sources):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = _names_read(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def _own_scope(fn: ast.AST):
    """The nodes of fn's body, not descending into nested functions or classes."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_every_local_in_the_package_is_read():
    # the same rule for locals: a name a function assigns (a loop target
    # included) must be read somewhere in it, nested functions included;
    # a name declared global or nonlocal belongs to another scope
    found = []
    for path in sorted(Path(kernel.__file__).parent.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = list(_own_scope(fn))
            read = {
                node.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            for node in own:
                if isinstance(node, (ast.Global, ast.Nonlocal)):
                    read.update(node.names)
            found += [
                f"{path.name}:{node.lineno} {fn.name} {node.id}"
                for node in own
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Store)
                and node.id not in read
                and node.id != "_"
            ]
    assert found == []


def test_no_slotted_record_writes_its_own_constructor():
    # Frozen.__init__ builds every slotted record from its __slots__; a
    # hand-written __init__ would state the field list a second time.
    found = []
    for path in sorted(Path(kernel.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            if any(isinstance(base, ast.Name) and base.id == "Frozen" for base in node.bases):
                found += [
                    f"{path.name}:{fn.lineno} {node.name}.__init__"
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
                ]
    assert found == []


def test_kernel_records_have_no_instance_dict():
    a = REL.obj(2)
    swap = REL.mor(a, a, bmat((0, 1), (1, 0)))
    pair = InversePair.certify(swap, swap, context="swap")
    for record in (a, swap, pair.equations.details[0], pair.equations, pair):
        assert not hasattr(record, "__dict__"), type(record).__name__


def test_kernel_records_are_immutable():
    a = REL.obj(2)
    swap = REL.mor(a, a, bmat((0, 1), (1, 0)))
    chk = equation("swap=swap", swap, swap)
    res = CheckResult("demo", (chk,))
    pair = InversePair.certify(swap, swap, context="swap")
    for record, attr, value in (
        (a, "data", 3), (swap, "payload", ()), (chk, "ok", False), (res, "name", "x"),
        (pair, "fwd", swap),
    ):
        with pytest.raises(AttributeError):
            setattr(record, attr, value)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    # the slotted ones are built from their fields by position or keyword
    for record in (a, pair):
        assert_built_from_its_fields(record)


def test_inverse_pairs_compare_by_their_maps_alone():
    # the certificate records how an iso was checked, not which iso it is
    a = REL.obj(2)
    swap = REL.mor(a, a, bmat((0, 1), (1, 0)))
    one = InversePair.certify(swap, swap, context="one")
    other = InversePair.certify(swap, swap, context="other")
    assert one.equations != other.equations
    # each is named by its own context; the round trips are checked once
    assert (one.equations.name, other.equations.name) == ("one", "other")
    assert other.equations.details is one.equations.details
    assert one == other and hash(one) == hash(other)
    assert not one != other
    assert InversePair.certify(identity(a), identity(a), context="one") != one


def test_equal_fields_give_one_morphism_per_instance():
    # Category.mor interns: equal fields give the category's one Mor, which
    # compares and hashes by identity, as an Obj does
    assert Mor.__eq__ is object.__eq__
    assert Mor.__hash__ is object.__hash__
    a, b = REL.obj(2), REL.obj(1)
    f = REL.mor(a, a, bmat((0, 1), (1, 0)))
    g = REL.mor(a, a, tuple(tuple(row) for row in ([False, True], [True, False])))
    assert f is g
    # a different domain alone gives another morphism
    assert REL.mor(b, a, f.payload) != f
    # two instances never share one, whatever its payload
    other = finrel(3)
    h = other.mor(other.obj(2), other.obj(2), f.payload)
    assert h is not f and h != f and h.payload == f.payload


def test_from_error_relabels_and_keeps_the_rest():
    a = REL.obj(2)
    f = REL.mor(a, a, bmat((1, 0), (0, 1)))
    g = REL.mor(a, a, bmat((1, 0), (1, 1)))
    failed = CheckResult("inner", (equation("f=g", f, g),))
    with pytest.raises(WitnessInvalid) as err:
        failed.require()
    res = CheckResult.from_error("outer", err.value)
    assert res.name == "outer"
    (got,) = res.details
    assert got.label == "inner: f=g"
    assert got.lhs is f and got.rhs is g
    assert (got.ok, got.note) == (False, "entry (2,1): 0 vs 1")


def test_check_result_reporting():
    ok = equation("good", identity(REL.obj(1)), identity(REL.obj(1)))
    bad = error_check("broken", "because")
    res = CheckResult("demo", (ok, bad))
    assert not res.passed
    assert res.failures() == (bad,)
    text = res.describe()
    assert "demo: FAIL" in text
    assert "[ok] good" in text
    assert "[FAIL] broken (because)" in text
    with pytest.raises(WitnessInvalid) as err:
        res.require()
    assert str(err.value) == "demo: broken (because)"
    assert err.value.result is res
    passing = CheckResult("fine", (ok,))
    assert passing.require() is passing
    # the first failure in order names the error, whatever follows it
    worse = CheckResult("demo", (ok, bad, error_check("later", "too")))
    with pytest.raises(WitnessInvalid, match=r"^demo: broken \(because\)$") as err:
        worse.require()
    assert err.value.result is worse


def test_inverse_pair_certify_success():
    a = REL.obj(2)
    swap = REL.mor(a, a, bmat((0, 1), (1, 0)))
    pair = InversePair.certify(swap, swap, context="swap")
    assert pair.fwd == swap
    # the pair keeps the two composites it was certified by
    cert = pair.equations
    assert cert.name == "swap" and cert.passed
    assert [chk.label for chk in cert.details] == ["bwd*fwd=id", "fwd*bwd=id"]
    assert cert.details[0].lhs == compose(swap, swap)
    assert cert.details[0].rhs == identity(a)
    # and the certificate takes no part in equality
    other = InversePair.certify(swap, swap, context="other")
    assert other.equations.name != cert.name
    assert other == pair


def test_inverse_pair_certify_failure_carries_result():
    a = REL.obj(2)
    collapse = REL.mor(a, a, bmat((1, 1), (0, 0)))
    with pytest.raises(WitnessInvalid) as err:
        InversePair.certify(collapse, collapse, context="demo")
    assert err.value.result is not None
    assert not err.value.result.passed
    assert err.value.result.name == "demo"
    assert str(err.value) == f"demo: {err.value.result.failures()[0]}"
    assert str(err.value).startswith("demo: bwd*fwd=id (entry (")
    # a failing check is kept nowhere: every use raises under its own context
    failure = str(err.value).removeprefix("demo: ")
    for context in ("one", "other"):
        with pytest.raises(WitnessInvalid) as err:
            InversePair.certify(collapse, collapse, context=context)
        assert str(err.value) == f"{context}: {failure}"
        assert err.value.result.name == context
    assert not [key for key in REL.memo if key[1] == (collapse, collapse)]


def test_check_inverse_pair_flags_bad_typing():
    f = REL.mor(REL.obj(1), REL.obj(2), bmat((1,), (0,)))
    res = check_inverse_pair(f, f)
    assert not res.passed
    assert "typing" in res.failures()[0].label


def test_unipotent_natural_matrix_has_no_inverse():
    """Over the naturals, (1 1 / 0 1) is invertible only with a negative entry."""
    nat = mat_semiring("mat-nat", 3)
    a = nat.obj(2)
    f = nat.mor(a, a, ((1, 1), (0, 1)))
    candidates = itertools.product(range(4), repeat=4)
    for w, x, y, z in candidates:
        g = nat.mor(a, a, ((w, x), (y, z)))
        assert not check_inverse_pair(f, g).passed


def test_built_records_match_their_named_tuple_constructors():
    # compose, Category.mor, identity and equation build their records in
    # one step; each must be the record the named tuple's constructor makes
    a, b = REL.obj(2), REL.obj(1)
    swap = REL.mor(a, a, bmat((0, 1), (1, 0)))
    built = (compose(swap, swap), REL.mor(a, a, bmat((1, 0), (0, 1))), identity(a))
    for f in built:
        made = kernel.Mor(f.dom, f.cod, f.payload)
        assert type(f) is kernel.Mor
        assert f._fields == made._fields == ("dom", "cod", "payload")
        assert repr(f) == repr(made) == "2->2 [1 0; 0 1]"
        assert tuple(f) == tuple(made) == (f.dom, f.cod, f.payload)
        # a Mor built directly is not interned, so it equals nothing the category built
        assert made not in built and made not in REL._mors.values()
    other = REL.mor(a, a, bmat((1, 0), (1, 1)))
    narrow = REL.mor(a, b, bmat((1, 0),))
    checks = (equation("ok", swap, swap), equation("bad", swap, other), equation("typed", swap, narrow))
    for chk in checks:
        made = kernel.EquationCheck(*chk)
        assert type(chk) is kernel.EquationCheck
        assert chk == made and hash(chk) == hash(made)
        assert repr(chk) == repr(made) and str(chk) == str(made)
        assert chk._replace(label="x") == made._replace(label="x")
    # a passing check has the constructor's default note
    assert checks[0] == kernel.EquationCheck("ok", swap, swap, True)
    assert str(checks[0]) == "ok"
